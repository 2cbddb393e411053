"""Checks of eqbench's outputs against the benchmark's own computations.

Every function returns a list of problems; an empty list means the output
passed.  They use ``algebra`` only, never eqbench, so the selftest can plant
faults in their inputs without the program present.
"""

from __future__ import annotations

import itertools
import json

from algebra import (OPS, Identity, bundle, check_countermodel, format_equation,
                     is_least_relabeling, parse_equation, replay, satisfies)

#: cap on problems reported per output, so a badly wrong output stays readable
MAX_PROBLEMS = 5


def record_line(alg):
    """An algebra in eqbench's record format (README, "Formats")."""
    return json.dumps({"size": alg["size"],
                       "ops": {op: alg["ops"][op] for op in OPS if op in alg["ops"]},
                       "constants": dict(sorted(alg["constants"].items()))},
                      separators=(",", ":"))


def parse_records(text):
    """JSON lines to dicts; raises ValueError if a line is not one JSON value."""
    return json.loads("[" + ",".join(text.splitlines()) + "]")


def _first(problems):
    return problems[:MAX_PROBLEMS]


# ---------------------------------------------------------------------------
# models

def check_stream(records, system, count, expected=None, least=False):
    """A raw or up-to-iso enumeration: ``count`` records in strictly
    increasing bundle order, each a model of ``system``; equal to
    ``expected`` (an iterable of algebras) when given; each the least of its
    relabelings when ``least``."""
    problems = []
    if len(records) != count:
        problems.append(f"{len(records)} records, expected {count}")
    axioms = [Identity(ax, system.constants) for ax in system.axioms]
    prev = None
    expected = iter(expected) if expected is not None else None
    for i, rec in enumerate(records):
        try:
            key = bundle(rec)
            ok = satisfies(rec, axioms)
        except (KeyError, IndexError, TypeError) as exc:
            problems.append(f"record {i}: malformed ({exc!r})")
            continue
        if prev is not None and not prev < key:
            problems.append(f"record {i}: not after record {i - 1} in bundle order")
        prev = key
        if not ok:
            problems.append(f"record {i}: not a model of {system.name}")
        if expected is not None and rec != next(expected, None):
            problems.append(f"record {i}: differs from the closed form")
        if least and not is_least_relabeling(rec):
            problems.append(f"record {i}: not the least of its 6 relabelings")
        if len(problems) >= MAX_PROBLEMS:
            break
    return _first(problems)


def scan_op(t):
    """Structure of one table by direct scans, in classify's record fields."""
    n = len(t)
    full = set(range(n))
    comm_w = next(([a, b] for a in range(n) for b in range(n) if t[a][b] != t[b][a]), None)
    assoc_w = next(([a, b, c] for a, b, c in itertools.product(range(n), repeat=3)
                    if t[t[a][b]][c] != t[a][t[b][c]]), None)
    latin_w = next((["row", i] for i in range(n) if set(t[i]) != full), None)
    if latin_w is None:
        latin_w = next((["col", j] for j in range(n) if {t[i][j] for i in range(n)} != full), None)
    ids = [e for e in range(n) if all(t[a][e] == a and t[e][a] == a for a in range(n))]
    group = (assoc_w is None and bool(ids)
             and all(any(t[a][b] == ids[0] and t[b][a] == ids[0] for b in range(n))
                     for a in range(n)))
    return {
        "commutative": comm_w is None, "commutative_witness": comm_w,
        "associative": assoc_w is None, "associative_witness": assoc_w,
        "latin_square": latin_w is None, "latin_square_witness": latin_w,
        "identity_elements": ids,
        "is_group": group, "is_abelian_group": group and comm_w is None,
    }


def check_classify(reports, algebras):
    """classify --format records: one report per algebra, every field of
    ``scan_op`` and the coincidence flag as the scans find them."""
    problems = []
    if len(reports) != len(algebras):
        problems.append(f"{len(reports)} reports for {len(algebras)} algebras")
    memo = {}
    for i, (rep, alg) in enumerate(zip(reports, algebras)):
        for op in OPS:
            t = alg["ops"].get(op)
            if t is None:
                if rep["ops"].get(op) is not None:
                    problems.append(f"report {i}: {op} reported without a table")
                continue
            key = tuple(map(tuple, t))
            want = memo.get(key)
            if want is None:
                want = memo[key] = scan_op(t)
            got = rep["ops"].get(op) or {}
            bad = [f for f, v in want.items() if got.get(f) != v]
            if bad:
                problems.append(f"report {i}: {op} fields {bad} differ from the scans")
        p, l, r = (alg["ops"].get(op) for op in OPS)
        if p and l and r:
            n = alg["size"]
            w = next(([a, b] for a in range(n) for b in range(n)
                      if p[a][b] != l[a][b] or r[b][a] != p[a][b]), None)
            if rep.get("ops_coincide") != (w is None) or rep.get("ops_coincide_witness") != w:
                problems.append(f"report {i}: ops_coincide differs from the scan")
        if len(problems) >= MAX_PROBLEMS:
            break
    return _first(problems)


def check_check(results, algebras, system):
    """check --format records: one verdict per algebra, matching the
    evaluator's verdict for ``system``."""
    problems = []
    if len(results) != len(algebras):
        problems.append(f"{len(results)} verdicts for {len(algebras)} algebras")
    axioms = [Identity(ax, system.constants) for ax in system.axioms]
    for i, (res, alg) in enumerate(zip(results, algebras)):
        want = satisfies(alg, axioms)
        if res.get("satisfies") is not want or res.get("system") != system.name:
            problems.append(f"verdict {i}: says {res.get('satisfies')}, the scan says {want}")
        if len(problems) >= MAX_PROBLEMS:
            break
    return _first(problems)


# ---------------------------------------------------------------------------
# query

def check_answer(system, question, prove, refute):
    """Problems with the prove and refute verdict records of one question."""
    goal = parse_equation(question["text"])
    p_bad, r_bad = [], []
    if "error" in prove:
        p_bad.append(f"prove raised {prove['error']}")
    elif prove.get("verdict") == "proved":
        why = replay(system, prove.get("derivation") or [], goal)
        if why is not None:
            p_bad.append(f"derivation does not replay: {why}")
    elif prove.get("verdict") != "unknown":
        p_bad.append(f"prove gave verdict {prove.get('verdict')!r}")
    if "error" in refute:
        r_bad.append(f"refute raised {refute['error']}")
    elif refute.get("verdict") == "refuted":
        why = check_countermodel(system, goal, refute.get("countermodel") or {},
                                 refute.get("witness") or {}, question["bound"])
        if why is not None:
            r_bad.append(f"countermodel does not re-check: {why}")
        if question["kind"] != "random":
            r_bad.append("a consequence of the axioms was refuted")
        if prove.get("verdict") == "proved":
            p_bad.append("both proved and refuted")
            r_bad.append("both proved and refuted")
    elif refute.get("verdict") != "holds-up-to" or refute.get("max_size") != question["bound"]:
        r_bad.append(f"refute gave {refute.get('verdict')!r} up to {refute.get('max_size')!r}")
    return p_bad, r_bad


# ---------------------------------------------------------------------------
# power

def certify(system, cand, prove, refute, max_size):
    """'member' if ``prove`` carries a derivation of ``cand`` that replays,
    'non-member' if ``refute`` carries a countermodel of size <= max_size
    that re-checks, else None."""
    if prove.get("verdict") == "proved" and replay(system, prove["derivation"], cand) is None:
        return "member"
    if refute.get("verdict") == "refuted" and check_countermodel(
            system, cand, refute["countermodel"], refute["witness"], max_size) is None:
        return "non-member"
    return None


def expected_rank(names, sets):
    """Classes (equal sets, first-appearance order) and Hasse edges of the
    strict-inclusion order, as rank --format records gives them."""
    classes = []
    for name in names:
        for held, members in classes:
            if held == sets[name]:
                members.append(name)
                break
        else:
            classes.append((sets[name], [name]))
    stronger = {(mi[0], mj[0]) for ci, mi in classes for cj, mj in classes if cj < ci}
    reps = [m[0] for _, m in classes]
    edges = sorted([a, b] for a, b in stronger
                   if not any((a, c) in stronger and (c, b) in stronger for c in reps))
    return {"systems": list(names), "classes": [m for _, m in classes], "edges": edges}


def expected_compare(first, second, sets):
    a, b = sets[first], sets[second]
    relation = {(False, False): "equivalent", (True, False): "first-stronger",
                (False, True): "second-stronger", (True, True): "incomparable"}[
        (bool(a - b), bool(b - a))]

    def least(eqs):
        return min((format_equation(eq) for eq in eqs), default=None)

    return {"relation": relation, "first": first, "second": second,
            "witness_first_only": least(a - b), "witness_second_only": least(b - a)}


def check_power_record(got, want, budgets):
    """A rank or compare record against the expected fields."""
    problems = [f"{k}: got {got.get(k)!r}, expected {v!r}" for k, v in want.items()
                if got.get(k) != v]
    if got.get("budgets") != budgets:
        problems.append(f"budgets: got {got.get('budgets')!r}, expected {budgets!r}")
    return problems

