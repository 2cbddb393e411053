"""Write the refute golden, ``refute_records.jsonl``, to stdout.

Each line holds one question of the benchmark's ``query`` workload, seeds 1
to 3 in order (280 each): its system, its size bound, its identity's text,
and the sha256 of the compact JSON of the ``verdict_record`` of
``semantic_consequence`` on it.  The digests pin the countermodel each
refuted identity gets (the first in enumeration order at the smallest size)
and its witness, so they change if the search's fill order, pruning or
candidate test changes what it finds.  Regenerate only when a change to the
search's output is intended:

    PYTHONPATH=src python tests/golden/make_refute_records.py \\
        > tests/golden/refute_records.jsonl
"""

import hashlib
import json
import sys
from pathlib import Path

from eqbench.axioms import builtin_system
from eqbench.consequence import semantic_consequence, verdict_record
from eqbench.terms import parse_equation

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))
from questions import make_questions  # noqa: E402

SEEDS = (1, 2, 3)


def digest(rec: dict) -> str:
    return hashlib.sha256(json.dumps(rec, separators=(",", ":")).encode()).hexdigest()


def main():
    for seed in SEEDS:
        for q in make_questions(seed):
            verdict = semantic_consequence(builtin_system(q["system"]),
                                           parse_equation(q["text"]), q["bound"])
            print(json.dumps({"system": q["system"], "bound": q["bound"], "identity": q["text"],
                              "sha256": digest(verdict_record(verdict))},
                             separators=(",", ":")))


if __name__ == "__main__":
    main()
