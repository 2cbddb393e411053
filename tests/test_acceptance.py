"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured evidence (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 2's exhaustive oracle comparison covers every (built-in, size)
pair whose raw model count fits the stated two-minute budget; the three
pairs that cannot (C1, C2, C3 at size 3 have 14,348,907 raw models each)
are excluded here and covered exactly by the opt-in ``-m slow`` suite in
test_acceptance_slow.py.
"""

import random
import time
from collections import Counter
from pathlib import Path

from eqbench import cli
from eqbench.axioms import BUILTIN_NAMES, builtin_system, empty_system, make_system, merge, system_content_key
from eqbench.consequence import (
    CandidateSpace,
    DeriveBudgets,
    HoldsUpTo,
    Proved,
    candidate_identities,
    derive,
)
from eqbench.models import (
    EnumOptions,
    canonical_form,
    count_models,
    enumerate_models,
    record_line,
)
from eqbench.power import EQUIVALENT, FIRST_STRONGER, SECOND_STRONGER, compare
from eqbench.structure import ops_coincide
from eqbench.terms import App, Op, Var, format_equation, parse_equation, parse_term, format_term
from eqbench.terms import variables_of_equation

from oracles import oracle_models
from reference import search_verdict

GOLDEN = Path(__file__).parent / "golden"

DEFAULT_SPACE = CandidateSpace(max_vars=2, max_depth=1)

#: raw model counts make the naive comparison infeasible inside the stated
#: runtime for exactly these pairs; see the module docstring
EXCLUDED_PAIRS = {("C1", 3), ("C2", 3), ("C3", 3)}


def test_criterion_1_c0_coincidence():
    started = time.monotonic()
    checked = 0
    for n in (1, 2, 3):
        for model in enumerate_models(builtin_system("C0"), n):
            flag, witness = ops_coincide(model)
            assert flag, f"C0 model of size {n} without coincidence: {witness}"
            checked += 1
    verdict = derive(builtin_system("C0"), parse_equation("ab = b/a"))
    assert isinstance(verdict, Proved)
    assert len(verdict.derivation) <= 3
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"\n[acceptance] criterion 1: PASS: {checked} C0 models all coincide; "
          f"proof in {len(verdict.derivation)} steps; {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    started = time.monotonic()
    compared = []
    for name in BUILTIN_NAMES:
        sys_ = builtin_system(name)
        for n in (1, 2, 3):
            if (name, n) in EXCLUDED_PAIRS:
                continue
            pruned = list(enumerate_models(sys_, n))
            naive = oracle_models(sys_, n)
            assert sorted(record_line(m) for m in pruned) == \
                sorted(record_line(m) for m in naive), f"{name} at size {n}"
            assert Counter(canonical_form(m) for m in pruned) == \
                Counter(canonical_form(m) for m in naive), f"{name} at size {n}"
            compared.append((name, n, len(pruned)))
    elapsed = time.monotonic() - started
    assert len(compared) == len(BUILTIN_NAMES) * 3 - len(EXCLUDED_PAIRS)
    assert elapsed < 120.0
    print(f"\n[acceptance] criterion 2: PASS: {len(compared)} (system, size) pairs "
          f"match the naive oracle exactly; excluded as infeasible here: "
          f"{sorted(EXCLUDED_PAIRS)} (14,348,907 raw models each; exact check in "
          f"the -m slow suite); {elapsed:.1f}s")


def test_criterion_3_derived_counts():
    prod_only = EnumOptions(ops=frozenset({Op.PROD}))
    comm = make_system("comm", [parse_equation("ab = ba")])
    got = (
        count_models(empty_system(), 2, opts=prod_only),
        count_models(empty_system(), 2, up_to_iso=True, opts=prod_only),
        count_models(comm, 2),
        count_models(builtin_system("C1"), 2),
    )
    assert got == (16, 10, 8, 128)
    print(f"\n[acceptance] criterion 3: PASS: counts (16, 10, 8, 128) reproduced")


def test_criterion_4_soundness_bridge():
    # consequence_set and semantic_consequence consult derive, so every proof
    # is checked against the countermodel search alone
    started = time.monotonic()
    budgets = DeriveBudgets(max_term_depth=2, max_steps=6)
    candidates = candidate_identities(DEFAULT_SPACE)
    proved_total = 0
    for name in BUILTIN_NAMES:
        sys_ = builtin_system(name)
        for cand in candidates:
            verdict = derive(sys_, cand, budgets)
            if isinstance(verdict, Proved):
                proved_total += 1
                assert search_verdict(sys_, cand, 3) == HoldsUpTo(3), (
                    f"{name}: {format_equation(cand)} proved but refuted at size <= 3")
    elapsed = time.monotonic() - started
    print(f"\n[acceptance] criterion 4: PASS: {proved_total} proofs across "
          f"{len(BUILTIN_NAMES)} systems, zero semantic refutations; {elapsed:.1f}s")


def _axiom_pool():
    pool = {}
    for name in BUILTIN_NAMES:
        sys_ = builtin_system(name)
        for eq in sys_.equations:
            consts = frozenset(x for x in variables_of_equation(eq) if x in sys_.constants)
            extra = make_system(f"x[{format_equation(eq)}]", [eq], consts)
            pool[system_content_key(extra)] = extra
    return list(pool.values())


def test_criterion_5_power_order_sanity():
    started = time.monotonic()
    pool = _axiom_pool()
    checked = 0
    for name in BUILTIN_NAMES:
        base = builtin_system(name)
        assert compare(base, base, DEFAULT_SPACE, 2).relation == EQUIVALENT
        for extra in pool:
            merged = merge([base, extra])
            report = compare(base, merged, DEFAULT_SPACE, 2)
            assert report.relation != FIRST_STRONGER, (name, extra.name)
            assert report.relation in (EQUIVALENT, SECOND_STRONGER), (name, extra.name)
            checked += 1
    elapsed = time.monotonic() - started
    print(f"\n[acceptance] criterion 5: PASS: {checked} base-vs-superset "
          f"comparisons, none first-stronger; all self-comparisons equivalent; "
          f"{elapsed:.1f}s")


def test_criterion_6_modulus_audit_reproduces_golden(capsys):
    code = cli.main(["audit", "--max-size", "3", "--format", "records"])
    out = capsys.readouterr().out
    assert code == 0
    golden = (GOLDEN / "audit_max_size_3.jsonl").read_text(encoding="utf-8")
    assert out == golden
    failing = [line for line in golden.splitlines()
               if '"abelian_group_claim_holds":false' in line]
    with capsys.disabled():
        print(f"\n[acceptance] criterion 6: PASS: audit byte-identical to the "
              f"committed golden report; the abelian-group claim fails under "
              f"{len(failing)}/7 modulus readings (countermodels recorded)")


def test_criterion_6_rank_golden_reproduces(capsys):
    code = cli.main(["rank", "C0", "C1", "C2", "C3", "--model-size", "3",
                     "--format", "records"])
    out = capsys.readouterr().out
    assert code == 0
    golden = (GOLDEN / "rank_c_systems_model_size_3.json").read_text(encoding="utf-8")
    assert out == golden
    with capsys.disabled():
        print("\n[acceptance] criterion 6b: PASS: rank of C0..C3 at model size 3 "
              "byte-identical to the committed golden run")


LETTERS = "abcd"


def _random_term(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return Var(rng.choice(LETTERS))
    op = rng.choice((Op.PROD, Op.LDIV, Op.RDIV))
    return App(op, _random_term(rng, depth - 1), _random_term(rng, depth - 1))


def test_criterion_7_parser_round_trip_10k():
    started = time.monotonic()
    rng = random.Random(1874)
    for i in range(10_000):
        t = _random_term(rng, 5)
        assert parse_term(format_term(t)) == t, f"round trip failed at term {i}"
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"\n[acceptance] criterion 7: PASS: 10,000 round trips, zero failures, "
          f"{elapsed:.2f}s")


def test_criterion_8_determinism_under_parallelism(capsys):
    outputs = {}
    for width in ("1", "8"):
        code = cli.main(["enumerate", "--system", "C0", "--size", "3",
                         "--format", "records", "--parallel", width])
        assert code == 0
        outputs[f"enum-{width}"] = capsys.readouterr().out
    assert outputs["enum-1"] == outputs["enum-8"]
    for width in ("1", "8"):
        code = cli.main(["rank", "C0", "C1", "C2", "C3", "--format", "records",
                         "--parallel", width])
        assert code == 0
        outputs[f"rank-{width}"] = capsys.readouterr().out
    assert outputs["rank-1"] == outputs["rank-8"]
    with capsys.disabled():
        print("\n[acceptance] criterion 8: PASS: enumeration (19683 records) and "
              "rank output byte-identical for worker counts 1 and 8")
