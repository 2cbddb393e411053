"""One repetition of the ``query`` workload, in a process of its own.

Asks every question of the list, in order, through eqbench's library:
prove is parse_equation -> derive -> verdict_record, refute is
parse_equation -> semantic_consequence -> verdict_record.  Writes one JSON
line per question (latencies in ms, their start times on the system-wide
``perf_counter`` clock and both verdict records) once all are asked, so
that writing does not fall inside a timed call.

    python3 query_worker.py --questions FILE --out FILE
    python3 query_worker.py --questions FILE --setup-only
"""

import argparse
import json
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--questions", required=True)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from eqbench import builtin_system, derive, parse_equation, semantic_consequence
    from eqbench.consequence import verdict_record

    with open(args.questions, encoding="utf-8") as f:
        questions = json.load(f)
    systems = {name: builtin_system(name) for name in {q["system"] for q in questions}}
    if args.setup_only:
        return

    clock = time.perf_counter
    rows = []
    for q in questions:
        system, text = systems[q["system"]], q["text"]
        row = {"id": q["id"]}
        for mode in ("prove", "refute"):
            t0 = clock()
            try:
                eq = parse_equation(text)
                if mode == "prove":
                    rec = verdict_record(derive(system, eq))
                else:
                    rec = verdict_record(semantic_consequence(system, eq, q["bound"]))
            except Exception as exc:  # one question's crash must not end the run
                rec = {"error": f"{type(exc).__name__}: {exc}"}
            row[mode + "_at"] = t0
            row[mode + "_ms"] = (clock() - t0) * 1e3
            row[mode] = rec
        rows.append(row)
    with open(args.out, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
