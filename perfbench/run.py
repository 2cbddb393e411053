"""eqbench benchmark: one closed loop with one client, per workload.

    python3 perfbench/run.py --workload {power,models,query} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is run from ``src/``.
Each operation of a workload runs in a fresh process, one process at a
time.  A round runs every operation of the workload once, so repetitions of
different operations interleave; rounds repeat until ``--seconds`` have
passed, and each operation is reported by its fastest repetition, timed at
a reference CPU speed (``gauge``).  The first repetition's output is
checked against the benchmark's own computations (``checks``); every later
repetition must reproduce it byte for byte.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.  ``--trace 1``
runs ``tracing`` instead, which reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

from gauge import CpuGauge  # noqa: E402
from algebra import (Identity, System, c0_model, c1_models, candidate_space,  # noqa: E402
                     format_equation)
import checks  # noqa: E402
from questions import make_questions  # noqa: E402

#: set-up probes per run; setup_s is the median of their reference-speed times
SETUP_SAMPLES = 7
#: models of the C1 size-3 stream read by the models workload
C1_PREFIX = 25_000
POWER_SIZE = 3
RANK_SYSTEMS = ("C0", "C1", "C2", "C3")
COMPARE_SYSTEMS = ("Mx_as_printed", "Mx_neutral")


class Harness:
    """Launches the program's processes one at a time, on the CPU the
    harness is pinned to, and keeps the set-up probes of the run."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("EQBENCH_CACHE_DIR", None)
        self.setup = []   # [start, end] of each set-up probe
        # the gauge's thread must share the CPU with the launched process
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.gauge = CpuGauge()

    def launch(self, argv, stdout=None):
        """([start, end], exit code) of one process, from launch to exit."""
        with open(stdout or os.devnull, "wb") as out, \
                open(self.scratch / "stderr.txt", "ab") as err, \
                self.gauge.watch() as span:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.scratch)
            try:
                code = proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        return span, code

    def seconds(self, span):
        return self.gauge.seconds(*span)

    def probe(self, argv):
        self.setup.append(self.launch(argv)[0])

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class CliOp:
    """One eqbench command, run once per round; keeps the output of its
    first repetition that exits with the expected code."""

    def __init__(self, name, argv, expect=0):
        self.name = name
        self.argv = argv          # callable: round -> CLI arguments
        self.expect = expect
        self.spans, self.codes, self.digests = [], [], []
        self.ref = None

    def run(self, h: Harness, rnd: int):
        out = h.scratch / f"{self.name}.{len(self.spans)}.out"
        span, code = h.launch([sys.executable, "-m", "eqbench.cli", *self.argv(rnd)], out)
        self.spans.append(span)
        self.codes.append(code)
        self.digests.append(_digest(out))
        if self.ref is None and code == self.expect:
            self.ref = out
        else:
            out.unlink()

    def fastest(self, h: Harness):
        """Full-speed seconds of the fastest repetition."""
        return min(h.seconds(span) for span in self.spans)

    def ref_digest(self):
        return self.digests[self.codes.index(self.expect)] if self.ref else None

    def text(self):
        return self.ref.read_text(encoding="utf-8")

    def failed(self, problems):
        """Repetitions that exited wrongly, differ from the checked output,
        or share its problems."""
        ref = self.ref_digest()
        return sum(1 for code, d in zip(self.codes, self.digests)
                   if code != self.expect or d != ref or problems)


def run_rounds(h: Harness, steps, seconds, probe_argv):
    """Whole rounds of ``steps`` (callables taking the round number) for
    about ``seconds``: another round starts while more than half a round's
    mean duration is left.  A round starts with a set-up probe; probes are
    topped up to SETUP_SAMPLES."""
    start = time.perf_counter()
    rnd = 0
    while True:
        h.probe(probe_argv)
        for step in steps:
            step(rnd)
        rnd += 1
        elapsed = time.perf_counter() - start
        if seconds - elapsed <= elapsed / rnd / 2:
            break
    while len(h.setup) < SETUP_SAMPLES:
        h.probe(probe_argv)
    h.gauge.close()


def _cli_probe():
    return [sys.executable, "-c", "import eqbench.cli"]


#: what a check raises on output that does not have the documented shape
MALFORMED = (ValueError, KeyError, TypeError, IndexError, AttributeError)


def checked(check):
    """Problems ``check()`` finds; output too malformed to check is one."""
    try:
        return check()
    except MALFORMED as exc:
        return [f"malformed output: {exc!r}"]


def tally(ops_problems):
    """(attempted, failed, problems) over (CliOp, problems of its checked
    output) pairs; per-repetition wall times go to stderr."""
    attempted = failed = 0
    all_problems = []
    for op, problems in ops_problems:
        if op.ref is None:
            problems = [f"no repetition exited with {op.expect}: codes {sorted(set(op.codes))}"]
        attempted += len(op.codes)
        failed += op.failed(problems)
        all_problems += [f"[{op.name}] {p}" for p in problems]
        print(f"[{op.name}] wall seconds: {' '.join(f'{b - a:.3f}' for a, b in op.spans)}",
              file=sys.stderr)
    return attempted, failed, all_problems


def result(h, attempted, failed, problems, fastest, detail):
    """The last line of a run: correct, attempted, failed and the end-to-end
    metrics, which every workload reports.  ``fastest`` holds each
    operation's fastest repetition in reference-speed seconds; ``detail``
    (name: reference-speed seconds or rate) goes to stderr only."""
    for p in problems[:20]:
        print(p, file=sys.stderr)
    print("detail: " + json.dumps(detail), file=sys.stderr)
    fast, typical = h.gauge.speeds()
    print(f"cpu: {len(h.gauge.samples)} samples; speed {fast:.3f} of the reference at the "
          f"2nd percentile, {typical:.3f} at the median", file=sys.stderr)
    metrics = {"setup_s": (statistics.median(h.seconds(span) for span in h.setup), "s"),
               "adj_wall_s": (sum(fastest), "s"),
               "adj_op_p50_ms": (statistics.median(fastest) * 1e3, "ms"),
               "peak_rss_mb": (h.peak_rss_mb(), "MB")}
    return {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# ---------------------------------------------------------------------------
# power

def _import_eqbench():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import eqbench
    return eqbench


def certified_sets(names, max_size):
    """Each system's consequence set over the default candidate space, every
    member certified by a derivation the benchmark replays and every other
    candidate by a countermodel it re-checks.  eqbench proposes the
    certificates; countermodels already found for the same system are tried
    first, so eqbench's derive and search run on few non-members."""
    eqbench = _import_eqbench()
    from eqbench.consequence import verdict_record
    sets, problems = {}, []
    for name in names:
        system = System.builtin(name)
        program_sys = eqbench.builtin_system(name)
        members, pool = set(), []
        for cand in candidate_space():
            ident = Identity(cand, system.constants)
            prove, refute = {}, next(
                ({"verdict": "refuted", "countermodel": m, "witness": w}
                 for m in pool if ident.applicable(m)
                 for w in [ident.violation(m)] if w is not None), {})
            if not refute:
                eq = eqbench.parse_equation(format_equation(cand))
                prove = verdict_record(eqbench.derive(program_sys, eq))
                if prove["verdict"] != "proved":
                    refute = verdict_record(
                        eqbench.semantic_consequence(program_sys, eq, max_size))
                    if refute["verdict"] == "refuted":
                        pool.append(refute["countermodel"])
            verdict = checks.certify(system, cand, prove, refute, max_size)
            if verdict is None:
                problems.append(f"{name}: {format_equation(cand)} has no certificate")
            elif verdict == "member":
                members.add(cand)
        sets[name] = frozenset(members)
    return sets, problems


def power(h, seed, seconds):
    model = ["--model-size", str(POWER_SIZE), "--format", "records"]
    rank = CliOp("rank", lambda r: ["rank", *RANK_SYSTEMS, *model])
    compare = CliOp("compare", lambda r: ["compare", *COMPARE_SYSTEMS, *model])
    # compare runs twice a round, on either side of rank: the short command
    # gets more repetitions, spread over the round
    run_rounds(h, [partial(compare.run, h), partial(rank.run, h), partial(compare.run, h)],
               seconds, _cli_probe())

    sets, cert_problems = certified_sets(RANK_SYSTEMS + COMPARE_SYSTEMS, POWER_SIZE)
    budgets = {"max_vars": 2, "max_depth": 1, "model_size": POWER_SIZE}
    results = []
    for op, want in ((rank, checks.expected_rank(RANK_SYSTEMS, sets)),
                     (compare, checks.expected_compare(*COMPARE_SYSTEMS, sets))):
        problems = list(cert_problems)
        if op.ref is not None:
            problems += checked(lambda: checks.check_power_record(json.loads(op.text()), want,
                                                                  budgets))
        results.append((op, problems))
    rank_s, compare_s = rank.fastest(h), compare.fastest(h)
    return result(h, *tally(results), [rank_s, compare_s],
                  {"rank_s": rank_s, "compare_s": compare_s})


# ---------------------------------------------------------------------------
# models

def c0_records_file(path):
    """The 19,683 size-3 C0 models, written by the benchmark from the closed
    form; classify and check read them."""
    algebras = [c0_model(i) for i in range(3 ** 9)]
    path.write_text("".join(checks.record_line(a) + "\n" for a in algebras), encoding="utf-8")
    return algebras


def models(h, seed, seconds):
    c0_file = h.scratch / "c0_records.jsonl"
    c0_algebras = c0_records_file(c0_file)
    enum = ["enumerate", "--size", "3", "--format", "records"]
    ops = {
        "enum_c0": CliOp("enum_c0", lambda r: [*enum, "--system", "C0"]),
        "enum_c0_mx": CliOp("enum_c0_mx", lambda r: [*enum, "--system", "C0",
                                                      "--system", "Mx_neutral"]),
        "c1_prefix": CliOp("c1_prefix", lambda r: [*enum, "--system", "C1", "--max-results",
                                                    str(C1_PREFIX)], expect=3),
        "iso": CliOp("iso", lambda r: [*enum, "--system", "C0", "--up-to-iso"]),
        "cache_write": CliOp("cache_write", lambda r: [*enum, "--system", "C0",
                                                        "--cache-dir", f"cache{r}"]),
        "cache_read": CliOp("cache_read", lambda r: [*enum, "--system", "C0",
                                                      "--cache-dir", f"cache{r}"]),
        "classify": CliOp("classify", lambda r: ["classify", "--algebra", c0_file.name,
                                                  "--format", "records"]),
        "check": CliOp("check", lambda r: ["check", "--system", "C0", "--algebra",
                                            c0_file.name, "--format", "records"]),
    }

    def cache_cleanup(rnd):
        shutil.rmtree(h.scratch / f"cache{rnd}", ignore_errors=True)

    run_rounds(h, [*(partial(op.run, h) for op in ops.values()), cache_cleanup], seconds,
               _cli_probe())

    c0 = System.builtin("C0")
    specs = {
        "enum_c0": lambda rs: checks.check_stream(rs, c0, 3 ** 9, expected=c0_algebras),
        "enum_c0_mx": lambda rs: checks.check_stream(rs, System.builtin("C0", "Mx_neutral"),
                                                     3 * 3 ** 4),
        "c1_prefix": lambda rs: checks.check_stream(rs, System.builtin("C1"), C1_PREFIX,
                                                    expected=c1_models()),
        "iso": lambda rs: checks.check_stream(rs, c0, 3330, least=True),
        "classify": lambda rs: checks.check_classify(rs, c0_algebras),
        "check": lambda rs: checks.check_check(rs, c0_algebras, c0),
    }
    same_as = {"cache_write": "enum_c0", "cache_read": "cache_write"}
    results = []
    for name, op in ops.items():
        problems = []
        if name in same_as:
            if op.ref_digest() != ops[same_as[name]].ref_digest():
                problems.append(f"output differs from {same_as[name]}")
        elif op.ref is not None:
            problems = checked(lambda: specs[name](checks.parse_records(op.text())))
        results.append((op, problems))

    best = {name: op.fastest(h) for name, op in ops.items()}
    return result(h, *tally(results), list(best.values()), {
        "enumerate_s": best["enum_c0"] + best["enum_c0_mx"],
        "stream_models_per_s": C1_PREFIX / best["c1_prefix"],
        "iso_s": best["iso"],
        "cache_write_s": best["cache_write"],
        "cache_read_s": best["cache_read"],
        "analyze_s": best["classify"] + best["check"],
    })


# ---------------------------------------------------------------------------
# query

class QueryOp:
    """All questions asked by one worker process per round; each question's
    prove and refute is one operation."""

    def __init__(self, questions, qfile):
        self.questions = questions
        self.qfile = qfile
        self.reps = []   # per round: {id: row} or None when the worker failed

    def run(self, h: Harness, rnd: int):
        out = h.scratch / f"answers.{rnd}.jsonl"
        _, code = h.launch([sys.executable, str(HERE / "query_worker.py"),
                            "--questions", self.qfile.name, "--out", out.name])
        rows = None
        if code == 0:
            rows = {row["id"]: row for row in checks.parse_records(out.read_text("utf-8"))}
        self.reps.append(rows)
        out.unlink(missing_ok=True)

    def tally(self, seconds=lambda start, end: end - start):
        """(attempted, failed, problems, fastest prove ms, fastest refute ms),
        each time as ``seconds`` gives it."""
        systems = {name: System.builtin(name) for name in {q["system"] for q in self.questions}}
        ref = next((rows for rows in self.reps if rows is not None), None)
        attempted = 2 * len(self.questions) * len(self.reps)
        failed, problems, fastest = 0, [], {"prove": [], "refute": []}
        for q in self.questions:
            first = ref.get(q["id"]) if ref else None
            if first is None:
                bad = {"prove": ["never answered"], "refute": ["never answered"]}
            else:
                try:
                    p_bad, r_bad = checks.check_answer(systems[q["system"]], q,
                                                       first["prove"], first["refute"])
                except MALFORMED as exc:
                    p_bad = r_bad = [f"malformed output: {exc!r}"]
                bad = {"prove": p_bad, "refute": r_bad}
            for mode in ("prove", "refute"):
                rows = [rows.get(q["id"]) if rows else None for rows in self.reps]
                failed += sum(1 for row in rows
                              if bad[mode] or row is None or row[mode] != first[mode])
                problems += [f"question {q['id']} ({q['system']}: {q['text']}) {mode}: {p}"
                             for p in bad[mode]]
                times = [seconds(row[mode + "_at"], row[mode + "_at"] + row[mode + "_ms"] / 1e3)
                         * 1e3 for row in rows if row is not None]
                fastest[mode].append(min(times) if times else float("nan"))
        return attempted, failed, problems, fastest["prove"], fastest["refute"]


def _tail(values):
    """The highest value with at least 10 values beyond it."""
    return sorted(values)[-11]


def query(h, seed, seconds):
    questions = make_questions(seed)
    qfile = h.scratch / "questions.json"
    qfile.write_text(json.dumps(questions), encoding="utf-8")
    op = QueryOp(questions, qfile)
    run_rounds(h, [partial(op.run, h)], seconds,
               [sys.executable, str(HERE / "query_worker.py"), "--questions", qfile.name,
                "--setup-only"])
    attempted, failed, problems, prove, refute = op.tally(h.gauge.seconds)
    return result(h, attempted, failed, problems, [ms / 1e3 for ms in prove + refute], {
        "prove_p50_ms": statistics.median(prove),
        "prove_tail_ms": _tail(prove),
        "refute_p50_ms": statistics.median(refute),
        "refute_tail_ms": _tail(refute),
    })


WORKLOADS = {"power": power, "models": models, "query": query}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "eqbench" / "__init__.py").is_file():
        print(f"error: no eqbench sources under {SRC}", file=sys.stderr)
        return 2
    # a terminated run still ends the process it launched (see Harness.launch)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    h = Harness(scratch)
    try:
        if args.trace:
            import tracing
            result = tracing.run(args.workload, args.seed, h)
        else:
            result = WORKLOADS[args.workload](h, args.seed, args.seconds)
    finally:
        h.gauge.close()
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
