"""Self-test of the benchmark's checkers: plants one fault in each kind of
output and requires the fault to be counted as a failed operation.

    python3 perfbench/selftest.py        # exit 0 when every fault is caught

Outputs are built here from closed forms and hand-written verdicts, so the
test needs no eqbench.  Each case first passes the untouched output, then
the planted one, through the same accounting ``run.py`` uses.
"""

from __future__ import annotations

import copy
import sys

import checks
from algebra import System, c0_model, is_least_relabeling, relabel
from run import CliOp, QueryOp


def _op_failures(problems):
    """Failed operations of one CliOp repetition whose checked output has
    ``problems``."""
    op = CliOp("planted", argv=None)
    op.codes, op.digests, op.ref = [0], ["x"], "output"
    return op.failed(problems)


def _query_failures(question, prove, refute):
    op = QueryOp([question], qfile=None)
    op.reps = [{question["id"]: {"id": question["id"], "prove_at": 0.0, "prove_ms": 1.0,
                                 "refute_at": 0.0, "refute_ms": 1.0,
                                 "prove": prove, "refute": refute}}]
    return op.tally()[1]


C0 = System.builtin("C0")
C0_RAW = [c0_model(i) for i in range(3 ** 9)]
C0_ISO = [m for m in C0_RAW if is_least_relabeling(m)]

CHAIN = {"id": 0, "system": "C0", "bound": 3, "kind": "chain", "text": "a b = b/a"}
PROOF = {"verdict": "proved", "derivation": [
    {"rule": "axiom-instance", "premises": [], "equation": "a b = a:b"},
    {"rule": "axiom-instance", "premises": [], "equation": "a:b = b/a"},
    {"rule": "transitivity", "premises": [0, 1], "equation": "a b = b/a"},
]}
RANDOM = {"id": 0, "system": "C0", "bound": 3, "kind": "random", "text": "a b = b a"}
COUNTER = {"verdict": "refuted", "witness": {"a": 0, "b": 1}, "countermodel": {
    "size": 2, "constants": {},
    "ops": {"prod": [[0, 0], [1, 1]], "ldiv": [[0, 0], [1, 1]], "rdiv": [[0, 1], [0, 1]]},
}}
UNKNOWN = {"verdict": "unknown", "bounds": {}}
HOLDS = {"verdict": "holds-up-to", "max_size": 3}


def _wrong_count():
    return checks.check_stream(C0_RAW[:-1], C0, 3 ** 9, expected=C0_RAW)


def _reordered():
    stream = list(C0_RAW)
    stream[100], stream[101] = stream[101], stream[100]
    return checks.check_stream(stream, C0, 3 ** 9)


def _non_least():
    stream = list(C0_ISO)
    i = 1000
    stream[i] = next(r for r in (relabel(stream[i], p) for p in ((1, 0, 2), (2, 1, 0), (0, 2, 1)))
                     if r != stream[i])
    return checks.check_stream(stream, C0, 3330, least=True)


def _flipped_cell():
    bad = copy.deepcopy(COUNTER)
    bad["countermodel"]["ops"]["prod"][1][1] = 0
    return bad


def _broken_step():
    bad = copy.deepcopy(PROOF)
    bad["derivation"][2]["equation"] = "a b = a/b"
    return bad


def main():
    cases = [
        ("wrong count in the raw C0 stream",
         lambda: _op_failures(checks.check_stream(C0_RAW, C0, 3 ** 9, expected=C0_RAW)),
         lambda: _op_failures(_wrong_count())),
        ("reordered raw C0 stream",
         lambda: _op_failures(checks.check_stream(C0_RAW, C0, 3 ** 9)),
         lambda: _op_failures(_reordered())),
        ("non-least iso representative",
         lambda: _op_failures(checks.check_stream(C0_ISO, C0, 3330, least=True)),
         lambda: _op_failures(_non_least())),
        ("one flipped cell in a countermodel",
         lambda: _query_failures(RANDOM, UNKNOWN, COUNTER),
         lambda: _query_failures(RANDOM, UNKNOWN, _flipped_cell())),
        ("broken derivation step",
         lambda: _query_failures(CHAIN, PROOF, HOLDS),
         lambda: _query_failures(CHAIN, _broken_step(), HOLDS)),
    ]
    ok = True
    for name, clean, planted in cases:
        before, after = clean(), planted()
        caught = before == 0 and after > 0
        ok = ok and caught
        print(f"{'PASS' if caught else 'FAIL'}: {name}: {before} failed untouched, "
              f"{after} failed planted")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
