import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from eqbench import consequence, models
from eqbench.axioms import BUILTIN_NAMES, builtin_system, empty_system, make_system
from eqbench.consequence import (
    CandidateSpace,
    DeriveBudgets,
    HoldsUpTo,
    Proved,
    Refuted,
    Unknown,
    candidate_identities,
    consequence_set,
    derive,
    semantic_consequence,
    terms_within,
    validate_derivation,
    verdict_record,
)
from eqbench.models import ResourceLimitError, compile_check, eval_term, to_record
from eqbench.terms import (
    App,
    Op,
    Var,
    canonical_equation,
    format_equation,
    parse_equation,
)

from reference import search_verdict


# ---------------------------------------------------------------------------
# an independent replay checker (no shared code with validate_derivation)

def _own_match(pat, subj, rigid, out):
    if isinstance(pat, Var):
        if pat.name in rigid:
            return pat == subj
        if pat.name in out:
            return out[pat.name] == subj
        out[pat.name] = subj
        return True
    return (isinstance(subj, App) and pat.op == subj.op
            and _own_match(pat.left, subj.left, rigid, out)
            and _own_match(pat.right, subj.right, rigid, out))


def replay(sys_, steps, goal):
    """Re-derive every step from scratch; raises AssertionError on any flaw."""
    proven = []
    for step in steps:
        eq = step.equation
        prems = [proven[i] for i in step.premises]
        if step.rule == "axiom-instance":
            assert eq in sys_.equations
        elif step.rule == "reflexivity":
            assert eq.lhs == eq.rhs
        elif step.rule == "symmetry":
            (p,) = prems
            assert eq.lhs == p.rhs and eq.rhs == p.lhs
        elif step.rule == "transitivity":
            p, q = prems
            assert p.rhs == q.lhs and eq.lhs == p.lhs and eq.rhs == q.rhs
        elif step.rule == "congruence":
            p, q = prems
            assert isinstance(eq.lhs, App) and isinstance(eq.rhs, App)
            assert eq.lhs.op == eq.rhs.op
            assert (p.lhs, q.lhs) == (eq.lhs.left, eq.lhs.right)
            assert (p.rhs, q.rhs) == (eq.rhs.left, eq.rhs.right)
        elif step.rule == "substitution":
            (p,) = prems
            sub = {}
            assert _own_match(p.lhs, eq.lhs, sys_.constants, sub)
            assert _own_match(p.rhs, eq.rhs, sys_.constants, sub)
        else:
            raise AssertionError(f"unknown rule {step.rule}")
        proven.append(eq)
    assert proven[-1] == goal


# ---------------------------------------------------------------------------
# derive

def test_derive_c0_coincidence_within_three_steps():
    cand = parse_equation("ab = b/a")
    verdict = derive(builtin_system("C0"), cand)
    assert isinstance(verdict, Proved)
    assert len(verdict.derivation) <= 3
    replay(builtin_system("C0"), verdict.derivation, cand)


def test_derive_transitivity_chain_without_shortcut():
    chain = make_system("chain", [parse_equation("ab = a:b"),
                                  parse_equation("a:b = b/a")])
    cand = parse_equation("ab = b/a")
    verdict = derive(chain, cand)
    assert isinstance(verdict, Proved)
    rules = [s.rule for s in verdict.derivation]
    assert rules == ["axiom-instance", "axiom-instance", "transitivity"]
    replay(chain, verdict.derivation, cand)


def test_derive_reflexivity():
    verdict = derive(builtin_system("C1"), parse_equation("a = a"))
    assert isinstance(verdict, Proved)
    assert [s.rule for s in verdict.derivation] == ["reflexivity"]


def test_derive_empty_system_unknown():
    assert isinstance(derive(empty_system(), parse_equation("ab = ba")), Unknown)


def test_derive_substitution_instance():
    verdict = derive(builtin_system("C1"), parse_equation("a:a = a/a"))
    assert isinstance(verdict, Proved)
    assert "substitution" in [s.rule for s in verdict.derivation]
    replay(builtin_system("C1"), verdict.derivation, parse_equation("a:a = a/a"))


def test_derive_congruence_inside_context():
    comm = make_system("comm", [parse_equation("ab = ba")])
    cand = parse_equation("(a b) c = (b a) c")
    verdict = derive(comm, cand)
    assert isinstance(verdict, Proved)
    assert "congruence" in [s.rule for s in verdict.derivation]
    replay(comm, verdict.derivation, cand)


def test_derive_exhausted_budget_is_unknown_not_error():
    tight = DeriveBudgets(max_term_depth=1, max_steps=1)
    verdict = derive(builtin_system("C0"), parse_equation("ab = b/a # hard"), tight)
    # one step cannot bridge the chain and must not raise
    assert isinstance(verdict, (Proved, Unknown))


def test_derive_with_constants_in_axioms():
    neutral = builtin_system("Mx_neutral")
    verdict = derive(neutral, parse_equation("a e = e a"))
    assert isinstance(verdict, Proved)
    replay(neutral, verdict.derivation, parse_equation("a e = e a"))


def test_derive_reproduces_golden_records():
    # pins node-budget Unknowns as well as proofs, and through the lines with
    # a max_nodes budget the nodes visited before each proof is found;
    # regenerate with tests/golden/make_derive_records.py only when derive's
    # output should change
    golden = Path(__file__).parent / "golden" / "derive_records.jsonl"
    lines = golden.read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    assert sum("max_nodes" not in row for row in rows) == 6 * 56 + 2 * 20
    for line, row in zip(lines, rows):
        budgets = DeriveBudgets(max_nodes=row["max_nodes"]) if "max_nodes" in row else None
        verdict = derive(builtin_system(row["system"]), parse_equation(row["identity"]), budgets)
        row["verdict"] = verdict_record(verdict)
        assert json.dumps(row, separators=(",", ":")) == line


def test_refute_reproduces_golden_records():
    # the 840 questions of the benchmark's query workload, seeds 1-3, each
    # with the sha256 of its verdict record; regenerate with
    # tests/golden/make_refute_records.py only when the search's output
    # should change
    golden = Path(__file__).parent / "golden" / "refute_records.jsonl"
    rows = [json.loads(line) for line in golden.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == 3 * 280
    for row in rows:
        verdict = semantic_consequence(builtin_system(row["system"]),
                                       parse_equation(row["identity"]), row["bound"])
        line = json.dumps(verdict_record(verdict), separators=(",", ":"))
        assert hashlib.sha256(line.encode()).hexdigest() == row["sha256"], row


def test_every_proved_derivation_revalidates():
    for name in ("C0", "C1", "C2", "C3"):
        sys_ = builtin_system(name)
        for cand in candidate_identities(CandidateSpace(2, 1)):
            verdict = derive(sys_, cand, DeriveBudgets(max_term_depth=2, max_steps=6))
            if isinstance(verdict, Proved):
                assert validate_derivation(sys_, verdict.derivation, cand) is None
                replay(sys_, verdict.derivation, cand)


def test_validator_rejects_broken_proofs():
    c0 = builtin_system("C0")
    good = derive(c0, parse_equation("ab = b/a")).derivation
    bad = good[:-1] + (good[-1].__class__("transitivity", (0, 0),
                                          parse_equation("a = b")),)
    assert validate_derivation(c0, bad) is not None
    assert validate_derivation(c0, (good[0].__class__(
        "axiom-instance", (), parse_equation("ab = ba")),)) is not None


# ---------------------------------------------------------------------------
# semantic consequence

def test_c0_composed_identity_holds_up_to_3():
    verdict = semantic_consequence(builtin_system("C0"), parse_equation("ab = b/a"), 3)
    assert verdict == HoldsUpTo(3)


def test_axiom_is_its_own_consequence():
    comm = make_system("comm", [parse_equation("ab = ba")])
    assert semantic_consequence(comm, parse_equation("ab = ba"), 3) == HoldsUpTo(3)


def test_empty_system_refutes_commutativity_frozen_countermodel():
    verdict = semantic_consequence(empty_system(), parse_equation("ab = ba"), 2)
    assert isinstance(verdict, Refuted)
    # frozen from the lexicographic-first oracle run: the first table whose
    # (0,1) and (1,0) cells differ
    assert to_record(verdict.countermodel) == {
        "size": 2, "ops": {"prod": [[0, 0], [1, 0]]}, "constants": {},
    }
    assert verdict.witness == (("a", 0), ("b", 1))


def test_refutations_are_self_certifying():
    for name in ("C1", "C2", "C3", "Mx_as_printed"):
        sys_ = builtin_system(name)
        for cand in candidate_identities(CandidateSpace(2, 1))[:40]:
            verdict = semantic_consequence(sys_, cand, 2)
            if isinstance(verdict, Refuted):
                env = verdict.witness_map()
                assert eval_term(verdict.countermodel, cand.lhs, env) != \
                    eval_term(verdict.countermodel, cand.rhs, env)


def test_semantic_consequence_guards():
    with pytest.raises(ValueError):
        semantic_consequence(empty_system(), parse_equation("a = a"), 0)
    with pytest.raises(ResourceLimitError):
        semantic_consequence(empty_system(), parse_equation("ab = ba"), 4)


def test_refuted_before_holds_priority_of_small_sizes():
    # a = b fails already at size 2 and the countermodel is minimal
    verdict = semantic_consequence(empty_system(), parse_equation("a = b"), 3)
    assert isinstance(verdict, Refuted)
    assert verdict.countermodel.size == 2


# ---------------------------------------------------------------------------
# candidate space and consequence sets

def test_terms_within_counts():
    assert len(terms_within(2, 0)) == 2
    assert len(terms_within(2, 1)) == 2 + 3 * 4


def test_candidate_identities_are_canonical_and_deduplicated():
    cands = candidate_identities(CandidateSpace(2, 1))
    assert len(set(cands)) == len(cands)
    for eq in cands:
        assert canonical_equation(eq) == eq
    assert parse_equation("a = a") in cands


def test_candidate_identities_are_built_once_per_space():
    assert candidate_identities(CandidateSpace()) is candidate_identities(CandidateSpace(2, 1))
    assert candidate_identities(CandidateSpace(1, 1)) != candidate_identities(CandidateSpace())


def test_consequence_set_c0_contains_the_chain():
    cs = consequence_set(builtin_system("C0"), CandidateSpace(2, 1), 3)
    for text in ("ab = a:b", "a:b = b/a", "ab = b/a"):
        assert canonical_equation(parse_equation(text)) in cs


def test_consequence_set_empty_system_contains_reflexive_identity():
    cs = consequence_set(empty_system(), CandidateSpace(2, 1), 2)
    assert canonical_equation(parse_equation("a = a")) in cs


def test_consequence_sets_grow_with_axioms():
    space = CandidateSpace(2, 1)
    weaker = set(consequence_set(empty_system(), space, 2))
    stronger = set(consequence_set(builtin_system("C1"), space, 2))
    assert weaker <= stronger
    assert len(stronger) >= len(weaker)


def test_consequence_set_deterministic():
    space = CandidateSpace(2, 1)
    sys_ = builtin_system("C2")
    assert consequence_set(sys_, space, 3) == consequence_set(sys_, space, 3)


@pytest.mark.parametrize("name,size", (
    [(name, 2) for name in ("none",) + BUILTIN_NAMES]
    + [(name, 3) for name in ("C0", "Mx_as_printed", "Mx_neutral", "Mldiv_neutral",
                              "Mrdiv_neutral")]
))
def test_consequence_set_equals_semantic_filter(name, size):
    # the proofs consequence_set relies on are checked against countermodel
    # search alone
    sys_ = empty_system() if name == "none" else builtin_system(name)
    space = CandidateSpace(2, 1)
    want = tuple(cand for cand in candidate_identities(space)
                 if search_verdict(sys_, cand, size) == HoldsUpTo(size))
    assert consequence_set(sys_, space, size) == want


def _record_calls(monkeypatch):
    """Record each derive (system name, candidate, budgets), search (system
    name, candidate, size, node cap) and pool check (constant names,
    candidate, size, table order) of the consequence engine."""
    calls = []
    real_derive, real_vectors = consequence.derive, consequence._vectors

    def derive_(sys_, cand, budgets=None):
        calls.append(("derive", sys_.name, cand, budgets))
        return real_derive(sys_, cand, budgets)

    def vectors_(sys_, n, ops, cand=None, max_nodes=None):
        calls.append(("search", sys_.name, cand, n, max_nodes))
        return real_vectors(sys_, n, ops, cand, max_nodes)

    def compile_(eq, n, ops, names, bound=None):
        calls.append(("compile", names, eq, n, ops))
        return compile_check(eq, n, ops, names, bound)

    monkeypatch.setattr(consequence, "derive", derive_)
    monkeypatch.setattr(consequence, "_vectors", vectors_)
    monkeypatch.setattr(consequence, "compile_check", compile_)
    return calls


def test_equal_sides_hold_before_any_search(monkeypatch):
    calls = _record_calls(monkeypatch)
    same = [eq for eq in candidate_identities(CandidateSpace()) if eq.lhs == eq.rhs]
    assert len(same) == 7
    for name in ("none", "C0", "Mx_neutral"):
        sys_ = empty_system() if name == "none" else builtin_system(name)
        pool = {(1, (Op.PROD, Op.LDIV, Op.RDIV)): [(0, 0, 0)]}
        for eq in same:
            assert consequence._refuting_size(sys_, eq, 3, pool) is None
            assert semantic_consequence(sys_, eq, 3, max_nodes=1) == HoldsUpTo(3)
        consequence_set(sys_, CandidateSpace(), 3)
    assert {call[0] for call in calls} == {"derive", "search", "compile"}
    assert not [call for call in calls if call[2].lhs == call[2].rhs]


@pytest.mark.parametrize("name,text", [
    ("Mx_neutral", "ab = ba"), ("Mldiv_neutral", "a:b = b:a"), ("Mrdiv_neutral", "a/b = b/a")])
def test_neutral_commutativity_is_refuted_without_a_full_derive(monkeypatch, name, text):
    # every 2-element magma with a two-sided identity is commutative, so
    # only size 3 refutes the commutativity of the neutral reading's
    # operation, and the short search does it
    sys_, cand = builtin_system(name), parse_equation(text)
    calls = _record_calls(monkeypatch)
    verdict = semantic_consequence(sys_, cand, 3)
    assert [call[3] for call in calls if call[0] == "derive"] == \
        [DeriveBudgets(max_nodes=consequence.SHORT_TRY_NODES)]
    calls.clear()
    assert cand in candidate_identities(CandidateSpace())
    assert cand not in consequence_set(sys_, CandidateSpace(), 3)
    assert all(call[3] is not None for call in calls if call[0] == "derive")
    monkeypatch.undo()
    assert verdict == search_verdict(sys_, cand, 3)
    assert isinstance(verdict, Refuted) and verdict.countermodel.size == 3


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_no_builtin_set_at_size_3_runs_a_full_derive(monkeypatch, name):
    calls = _record_calls(monkeypatch)
    consequence_set(builtin_system(name), CandidateSpace(), 3)
    assert not [call for call in calls if call[0] == "derive" and call[3] is None]


def test_short_search_keeps_a_smaller_node_cap(monkeypatch):
    # the caller's cap, when it is below the short try's, is the short
    # search's cap too, so it still ends the search: the size-2 search needs
    # 16 nodes, the size-3 countermodel 27
    sys_, cand = builtin_system("Mx_neutral"), parse_equation("ab = ba")
    calls = _record_calls(monkeypatch)
    with pytest.raises(ResourceLimitError):
        semantic_consequence(sys_, cand, 3, max_nodes=20)
    assert [call[4] for call in calls if call[0] == "search" and call[3] == 3] == [20, 20]
    assert isinstance(semantic_consequence(sys_, cand, 3, max_nodes=30), Refuted)


def test_pool_compiles_each_candidate_once_per_layout(monkeypatch):
    # every consequence_set of the power workload, each pooled layout's
    # vectors read by one compiled check per candidate
    compiled = []

    def counting(eq, n, ops, names, bound=None):
        compiled.append((eq, n, ops))
        return compile_check(eq, n, ops, names, bound)

    monkeypatch.setattr(consequence, "compile_check", counting)
    for name in ("C0", "C1", "C2", "C3", "Mx_as_printed", "Mx_neutral"):
        compiled.clear()
        consequence_set(builtin_system(name), CandidateSpace(2, 1), 3)
        assert compiled and Counter(compiled).most_common(1)[0][1] == 1, name


@pytest.mark.parametrize("text,layouts", [
    ("ab = a", {(1, "prod,ldiv,rdiv"), (2, "prod,ldiv,rdiv")}),
    ("a:b = a", {(1, "ldiv,prod,rdiv"), (2, "ldiv,prod,rdiv"), (2, "prod,ldiv,rdiv")}),
])
def test_refuted_candidate_compiles_once_per_layout(monkeypatch, text, layouts):
    # the searches and the witness get the candidate's check from
    # compile_check, so each (size, table order) compiles it once
    compiled = []

    def counting(eq, n, base, slot):
        if eq == cand:
            compiled.append((n, ",".join(op.value for op in sorted(base, key=base.get))))
        return compile_(eq, n, base, slot)

    sys_, cand, compile_ = builtin_system("C1"), parse_equation(text), models._compile
    monkeypatch.setattr(models, "_compile", counting)
    models.compile_check.cache_clear()
    assert isinstance(semantic_consequence(sys_, cand, 3), Refuted)
    assert sorted(compiled) == sorted(layouts)


@pytest.mark.parametrize("text,searches", [
    ("ab = a", [(1, "prod,ldiv,rdiv"), (2, "prod,ldiv,rdiv")]),
    # the candidate's table is read first, then the countermodel is found again
    # in canonical order
    ("a:b = a", [(1, "ldiv,prod,rdiv"), (2, "ldiv,prod,rdiv"), (2, "prod,ldiv,rdiv")]),
])
def test_refute_searches_again_only_in_another_table_order(monkeypatch, text, searches):
    sys_, cand = builtin_system("C1"), parse_equation(text)
    calls = []

    def counting(system, n, ops, *args):
        calls.append((n, ",".join(op.value for op in ops)))
        return vectors(system, n, ops, *args)

    vectors = consequence._vectors
    monkeypatch.setattr(consequence, "_vectors", counting)
    verdict = semantic_consequence(sys_, cand, 3)
    assert calls == searches
    monkeypatch.undo()
    assert verdict == search_verdict(sys_, cand, 3)


def test_pool_reads_each_vector_in_its_own_table_order(monkeypatch):
    # a:a = a holds in the ldiv table [[0, 0], [1, 1]] and fails in
    # [[1, 0], [0, 1]]; the second layout's vector refutes it only when its
    # ldiv table is read first, as its order says
    cand = parse_equation("a:a = a")
    holds = (0, 1, 0, 1) + (0, 0, 1, 1)                  # prod, ldiv
    refutes = (1, 0, 0, 1) + (0, 0, 1, 1)                # ldiv, prod
    monkeypatch.setattr(consequence, "_vectors", lambda *args: iter(()))
    pool = {(2, (Op.PROD, Op.LDIV)): [holds], (2, (Op.LDIV, Op.PROD)): [refutes]}
    assert consequence._refuting_size(empty_system(), cand, 2, pool) == 2
    misread = {(2, (Op.PROD, Op.LDIV)): [holds, refutes]}
    assert consequence._refuting_size(empty_system(), cand, 2, misread) is None


# ---------------------------------------------------------------------------
# serialization

def test_verdict_records():
    proved = derive(builtin_system("C0"), parse_equation("ab = b/a"))
    rec = verdict_record(proved)
    assert rec["verdict"] == "proved"
    assert all(s["rule"] in {"axiom-instance", "reflexivity", "symmetry",
                             "transitivity", "congruence", "substitution"}
               for s in rec["derivation"])

    refuted = semantic_consequence(empty_system(), parse_equation("ab = ba"), 2)
    rec = verdict_record(refuted)
    assert rec["verdict"] == "refuted"
    assert rec["witness"] == {"a": 0, "b": 1}

    rec = verdict_record(HoldsUpTo(3))
    assert rec == {"verdict": "holds-up-to", "max_size": 3}

    rec = verdict_record(derive(empty_system(), parse_equation("ab = ba")))
    assert rec["verdict"] == "unknown"
    assert "max_steps" in rec["bounds"]


# ---------------------------------------------------------------------------
# cross-check against the naive model scan

def _naive_semantic(sys_, cand, max_size):
    """Oracle: enumerate every model with the filter-everything oracle and
    test the candidate on each; Refuted iff any model violates it."""
    from oracles import oracle_models, o_satisfies
    from eqbench.axioms import system_ops
    from eqbench.terms import operations_of_equation, variables_of_equation
    ops = system_ops(sys_) | operations_of_equation(cand)
    for k in range(1, max_size + 1):
        for model in oracle_models(sys_, k, ops=ops):
            consts = dict(model.constants)
            fixed = {x: consts[x] for x in variables_of_equation(cand) if x in consts}
            tables = {op: table for op, table in model.tables}
            if not o_satisfies(tables, cand, k, fixed):
                return "refuted"
    return "holds"


def test_semantic_consequence_agrees_with_naive_scan():
    # consequence_set is checked against the same scan, which shares no code
    # with derive or the pruned search
    systems = ("C0", "C1", "Mx_as_printed", "Mx_neutral", "G2")
    space = CandidateSpace(2, 1)
    for name in systems:
        sys_ = builtin_system(name)
        holding = []
        for cand in candidate_identities(space):
            got = semantic_consequence(sys_, cand, 2)
            want = _naive_semantic(sys_, cand, 2)
            if want == "refuted":
                assert isinstance(got, Refuted), (name, format_equation(cand))
            else:
                assert got == HoldsUpTo(2), (name, format_equation(cand))
                holding.append(cand)
        assert consequence_set(sys_, space, 2) == tuple(holding), name


def test_semantic_consequence_with_constants():
    neutral = builtin_system("Mx_neutral")
    # neutrality makes the constant commute with everything
    assert semantic_consequence(neutral, parse_equation("a e = e a"), 3) == HoldsUpTo(3)
    # but does not force full commutativity
    verdict = semantic_consequence(neutral, parse_equation("ab = ba"), 3)
    assert isinstance(verdict, Refuted)
    assert dict(verdict.countermodel.constants)["e"] in range(verdict.countermodel.size)


def test_refuted_countermodel_is_first_in_enumeration_order():
    from eqbench.axioms import system_ops
    from eqbench.models import EnumOptions, enumerate_models, find_violation, record_line
    from eqbench.terms import operations_of_equation
    for name in ("C1", "Mx_as_printed"):
        sys_ = builtin_system(name)
        for cand in candidate_identities(CandidateSpace(2, 1))[:30]:
            verdict = semantic_consequence(sys_, cand, 2)
            if not isinstance(verdict, Refuted):
                continue
            ops = system_ops(sys_) | operations_of_equation(cand)
            first = None
            for k in (1, 2):
                for model in enumerate_models(sys_, k, EnumOptions(ops=frozenset(ops))):
                    if find_violation(model, cand, dict(model.constants)) is not None:
                        first = model
                        break
                if first is not None:
                    break
            assert record_line(verdict.countermodel) == record_line(first), \
                format_equation(cand)


def test_consequence_sets_monotone_across_more_axiom_pairs():
    space = CandidateSpace(2, 1)
    pairs = [
        ("Mx_as_printed", "G1"),
        ("Mldiv_as_printed", "G2"),
        ("Mrdiv_as_printed", "G3"),
    ]
    for weak_name, strong_name in pairs:
        weak = set(consequence_set(builtin_system(weak_name), space, 2))
        strong = set(consequence_set(builtin_system(strong_name), space, 2))
        assert weak <= strong, (weak_name, strong_name)
