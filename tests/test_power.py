import itertools

from eqbench import power
from eqbench.axioms import builtin_system, make_system, merge
from eqbench.consequence import (CandidateSpace, HoldsUpTo, Refuted, consequence_set,
                                 semantic_consequence)
from eqbench.power import (
    EQUIVALENT,
    FIRST_STRONGER,
    INCOMPARABLE,
    SECOND_STRONGER,
    compare,
    power_record,
    rank_all,
    rank_record,
)
from eqbench.terms import canonical_equation, parse_equation

SPACE = CandidateSpace(2, 1)


def test_compare_system_with_itself_is_equivalent():
    for name in ("C0", "C1", "Mx_as_printed"):
        report = compare(builtin_system(name), builtin_system(name), SPACE, 2)
        assert report.relation == EQUIVALENT
        assert report.witness_first_only is None
        assert report.witness_second_only is None


def test_superset_of_axioms_never_weaker():
    c1 = builtin_system("C1")
    extra = make_system("extra", [parse_equation("a:b = b:a")])
    merged = merge([c1, extra])
    report = compare(merged, c1, SPACE, 2)
    assert report.relation in (EQUIVALENT, FIRST_STRONGER)


def test_compare_c0_c1_at_size3_includes_paper_witness():
    report = compare(builtin_system("C0"), builtin_system("C1"), SPACE, 3)
    # the composed identity of the coincidence chain separates C0 from C1
    composed = canonical_equation(parse_equation("ab = b/a"))
    assert semantic_consequence(builtin_system("C0"), composed, 3) == HoldsUpTo(3)
    assert isinstance(semantic_consequence(builtin_system("C1"), composed, 3), Refuted)
    assert report.relation in (FIRST_STRONGER, INCOMPARABLE)
    assert report.witness_first_only is not None


def test_compare_antisymmetric_reports():
    pairs = [("C0", "C1"), ("C1", "C2"), ("C2", "C3"), ("C0", "Mx_as_printed")]
    for a, b in pairs:
        fwd = compare(builtin_system(a), builtin_system(b), SPACE, 2)
        rev = compare(builtin_system(b), builtin_system(a), SPACE, 2)
        flip = {EQUIVALENT: EQUIVALENT, INCOMPARABLE: INCOMPARABLE,
                FIRST_STRONGER: SECOND_STRONGER, SECOND_STRONGER: FIRST_STRONGER}
        assert rev.relation == flip[fwd.relation]


def test_equivalence_relation_on_triples():
    names = ("C1", "C2", "C3")
    rel = {}
    for a, b in itertools.product(names, repeat=2):
        rel[a, b] = compare(builtin_system(a), builtin_system(b), SPACE, 2).relation
    for a in names:
        assert rel[a, a] == EQUIVALENT
    for a, b in itertools.product(names, repeat=2):
        assert (rel[a, b] == EQUIVALENT) == (rel[b, a] == EQUIVALENT)
    for a, b, c in itertools.product(names, repeat=3):
        if rel[a, b] == EQUIVALENT and rel[b, c] == EQUIVALENT:
            assert rel[a, c] == EQUIVALENT


def test_witnesses_verify_in_both_systems():
    report = compare(builtin_system("C0"), builtin_system("C1"), SPACE, 2)
    if report.witness_first_only is not None:
        w = report.witness_first_only
        assert semantic_consequence(builtin_system("C0"), w, 2) == HoldsUpTo(2)
        assert isinstance(semantic_consequence(builtin_system("C1"), w, 2), Refuted)
    if report.witness_second_only is not None:
        w = report.witness_second_only
        assert semantic_consequence(builtin_system("C1"), w, 2) == HoldsUpTo(2)
        assert isinstance(semantic_consequence(builtin_system("C0"), w, 2), Refuted)


def test_rank_single_system_no_edges():
    report = rank_all([builtin_system("C1")], SPACE, 2)
    assert report.classes == (("C1",),)
    assert report.edges == ()


def test_rank_superset_dominates():
    base = builtin_system("Mldiv_as_printed")
    stronger = merge([base, builtin_system("Mx_as_printed")])
    report = rank_all([base, stronger], SPACE, 2)
    assert ("Mldiv_as_printed+Mx_as_printed", "Mldiv_as_printed") in report.edges


def test_rank_edges_are_transitively_reduced_and_consistent():
    systems = [builtin_system(n) for n in ("C0", "C1", "C2", "C3")]
    report = rank_all(systems, SPACE, 2)
    reps = [names[0] for names in report.classes]
    assert set(report.systems) == {"C0", "C1", "C2", "C3"}
    for a, b in report.edges:
        assert a in reps and b in reps and a != b
    # no edge may be implied by two others
    edge_set = set(report.edges)
    for a, b in edge_set:
        assert not any((a, c) in edge_set and (c, b) in edge_set for c in reps)


def test_records_serialize_with_fixed_strings():
    report = compare(builtin_system("C1"), builtin_system("C1"), SPACE, 2)
    rec = power_record(report)
    assert rec["relation"] == "equivalent"
    assert rec["budgets"] == {"max_vars": 2, "max_depth": 1, "model_size": 2}

    rank = rank_record(rank_all([builtin_system("C1")], SPACE, 2))
    assert rank["systems"] == ["C1"]
    assert rank["classes"] == [["C1"]]
    assert rank["edges"] == []


def test_rank_deterministic():
    systems = [builtin_system(n) for n in ("C0", "C1", "C2", "C3")]
    first = rank_record(rank_all(systems, SPACE, 3))
    power._set_cache.clear()
    second = rank_record(rank_all(systems, SPACE, 3))
    assert first == second


def test_rank_shares_one_set_between_renamed_and_reordered_systems(monkeypatch):
    c1 = builtin_system("C1")
    # C1's equations in reverse order, over other letters
    copy = make_system("C1_renamed", [parse_equation("p:q = p/q"), parse_equation("qp = pq")])
    calls = []

    def counting(sys_, space, model_size):
        calls.append(sys_.name)
        return consequence_set(sys_, space, model_size)

    monkeypatch.setattr(power, "_set_cache", {})
    monkeypatch.setattr(power, "consequence_set", counting)
    report = rank_all([c1, copy], SPACE, 2)
    assert calls == ["C1"]
    assert report.classes == (("C1", "C1_renamed"),) and report.edges == ()


def test_strict_ordering_is_antisymmetric_nonvacuously():
    # the commutativity-plus-modulus system strictly dominates the bare modulus
    g1 = builtin_system("G1")
    mx = builtin_system("Mx_as_printed")
    fwd = compare(g1, mx, SPACE, 2)
    rev = compare(mx, g1, SPACE, 2)
    assert fwd.relation == FIRST_STRONGER
    assert rev.relation == SECOND_STRONGER
    assert fwd.witness_first_only == rev.witness_second_only
    assert fwd.witness_second_only is None and rev.witness_first_only is None
