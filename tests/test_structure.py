import itertools
import random
from collections import Counter

import pytest

from eqbench.axioms import builtin_system, merge
from eqbench.models import MissingTableError, enumerate_models, make_algebra
from eqbench.structure import (
    TableReports,
    classify_op,
    classify_structure,
    identity_elements,
    is_abelian_group,
    is_associative,
    is_commutative,
    is_group,
    is_latin_square,
    ops_coincide,
    report_record,
)
from eqbench.terms import OP_ORDER, Op

from oracles import reference_report, scan_flags

Z2 = [[0, 1], [1, 0]]
Z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
Z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
LEFT_PROJ = [[0, 0], [1, 1]]


def alg(size, **tables):
    mapped = {Op.PROD: tables.get("prod"), Op.LDIV: tables.get("ldiv"),
              Op.RDIV: tables.get("rdiv")}
    return make_algebra(size, {k: v for k, v in mapped.items() if v is not None})


def test_commutativity():
    assert is_commutative(alg(3, prod=Z3), Op.PROD) == (True, None)
    assert is_commutative(alg(2, prod=LEFT_PROJ), Op.PROD) == (False, (0, 1))
    assert is_commutative(alg(1, prod=[[0]]), Op.PROD) == (True, None)


def test_associativity():
    assert is_associative(alg(2, prod=Z2), Op.PROD) == (True, None)
    # scanned by hand over the 8 triples: fails first at (0, 0, 1)
    assert is_associative(alg(2, prod=[[1, 0], [0, 0]]), Op.PROD) == (False, (0, 0, 1))
    assert is_associative(alg(1, prod=[[0]]), Op.PROD) == (True, None)


def test_identity_elements():
    assert identity_elements(alg(2, prod=Z2), Op.PROD) == (0,)
    assert identity_elements(alg(2, prod=LEFT_PROJ), Op.PROD) == ()
    assert identity_elements(alg(1, prod=[[0]]), Op.PROD) == (0,)


def test_group_checks():
    assert is_abelian_group(alg(3, prod=Z3), Op.PROD) == (True, None)
    ok, reason = is_group(alg(2, prod=LEFT_PROJ), Op.PROD)
    assert not ok and reason == "no identity element"
    assert is_abelian_group(alg(1, prod=[[0]]), Op.PROD) == (True, None)
    monoid = alg(2, prod=[[0, 1], [1, 1]])
    ok, reason = is_group(monoid, Op.PROD)
    assert not ok and reason == "no inverse for 1"


def test_latin_square():
    assert is_latin_square(alg(4, prod=Z4), Op.PROD) == (True, None)
    assert is_latin_square(alg(2, prod=[[0, 0], [0, 0]]), Op.PROD) == (False, ("row", 0))


def test_latin_square_random_tables_vs_oracle():
    rng = random.Random(42)
    for _ in range(100):
        table = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        got, _ = is_latin_square(alg(3, prod=table), Op.PROD)
        assert got == scan_flags(table, 3)["latin_square"]


def test_all_flags_vs_independent_scanner():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.choice((1, 2, 3))
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        a = alg(n, prod=table)
        want = scan_flags(table, n)
        assert is_commutative(a, Op.PROD)[0] == want["commutative"]
        assert is_associative(a, Op.PROD)[0] == want["associative"]
        assert is_latin_square(a, Op.PROD)[0] == want["latin_square"]
        assert list(identity_elements(a, Op.PROD)) == want["identity_elements"]
        assert is_group(a, Op.PROD)[0] == want["is_group"]
        assert is_abelian_group(a, Op.PROD)[0] == want["is_abelian_group"]


def test_classify_op_matches_reference_scans():
    # every table of size 2 and of size 3, then a seeded sample of sizes 4-7
    # (on both sides of the latin test's permutation set, n <= 6): random
    # tables, cyclic groups, relabeled, with their rows permuted; the
    # symmetric group S3; each under one of the three operations
    rng = random.Random(2013)
    tables = [[list(flat[i:i + n]) for i in range(0, n * n, n)]
              for n in (2, 3) for flat in itertools.product(range(n), repeat=n * n)]
    s3 = list(itertools.permutations(range(3)))
    tables.append([[s3.index(tuple(p[q[i]] for i in range(3))) for q in s3] for p in s3])
    for n in range(4, 8):
        tables += [[[rng.randrange(n) for _ in range(n)] for _ in range(n)] for _ in range(40)]
        for _ in range(10):
            label = rng.sample(range(n), n)
            group = [[label[(label.index(a) + label.index(b)) % n] for b in range(n)]
                     for a in range(n)]
            tables += [group, rng.sample(group, n)]
    verdicts = set()
    for i, table in enumerate(tables):
        n = len(table)
        op = OP_ORDER[i % 3]
        a = make_algebra(n, {op: table})
        got = classify_op(a, op)
        assert got._asdict() == reference_report(table, n)._asdict(), table
        want = scan_flags(table, n)
        assert {k: getattr(got, k) for k in want if k != "identity_elements"} == \
            {k: v for k, v in want.items() if k != "identity_elements"}, table
        assert list(got.identity_elements) == want["identity_elements"], table
        verdicts.add((got.group_reason or "group")[:9])
    # the tables reach every reason a table can fail to be a group (groups
    # of order <= 3 are abelian, so "not commutative" cannot occur)
    assert verdicts == {"group", "not assoc", "no identi", "no invers"}


def test_table_reports_hold_one_report_per_distinct_report():
    # over every table of size 3, TableReports answers the oracle's report
    # and holds one report object per distinct report: 205 of them
    tables = list(itertools.product(range(3), repeat=9))
    want = [reference_report([cells[i:i + 3] for i in (0, 3, 6)], 3) for cells in tables]
    reports = TableReports()
    got = [reports[cells] for cells in tables]
    assert got == want
    assert len(reports) == len(tables)
    assert len(set(map(id, got))) == len(set(want)) == 205


def test_the_first_element_without_an_inverse_is_the_first_row_not_a_permutation():
    # every table of size 4 whose identity is 0 (4**9 of them): wherever the
    # inverse question arises, in the associative ones, the report, whose
    # reason names the first row that is not a permutation, is the oracle's,
    # which scans for an inverse of each element
    reports = TableReports()
    associative = Counter()
    for free in itertools.product(range(4), repeat=9):
        cells = (0, 1, 2, 3, 1, *free[:3], 2, *free[3:6], 3, *free[6:])
        got = reports[cells]
        if got.associative:
            assert got == reference_report([cells[i:i + 4] for i in (0, 4, 8, 12)], 4), cells
            associative[(got.group_reason or "group")[:9]] += 1
    assert associative == {"group": 4, "no invers": 152}  # Z4 three ways, the Klein group


def test_ops_coincide():
    assert ops_coincide(alg(2, prod=Z2, ldiv=Z2, rdiv=Z2)) == (True, None)
    assert ops_coincide(alg(1, prod=[[0]], ldiv=[[0]], rdiv=[[0]])) == (True, None)
    broken = alg(2, prod=Z2, ldiv=[[0, 0], [0, 0]], rdiv=Z2)
    ok, witness = ops_coincide(broken)
    assert not ok and witness == (0, 1)
    # the argument swap matters: rdiv must be the transposed product
    lp = alg(2, prod=LEFT_PROJ, ldiv=LEFT_PROJ, rdiv=LEFT_PROJ)
    ok, witness = ops_coincide(lp)
    assert not ok and witness == (0, 1)
    transposed = [[0, 1], [0, 1]]
    assert ops_coincide(alg(2, prod=LEFT_PROJ, ldiv=LEFT_PROJ, rdiv=transposed)) \
        == (True, None)


def test_ops_coincide_needs_all_tables():
    with pytest.raises(MissingTableError):
        ops_coincide(alg(2, prod=Z2))


def test_all_small_c0_models_have_coinciding_ops():
    for n in (1, 2, 3):
        for model in enumerate_models(builtin_system("C0"), n):
            assert ops_coincide(model) == (True, None)


def test_implication_chain_abelian_group_latin():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.choice((2, 3))
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        a = alg(n, prod=table)
        if is_abelian_group(a, Op.PROD)[0]:
            assert is_group(a, Op.PROD)[0]
        if is_group(a, Op.PROD)[0]:
            assert is_latin_square(a, Op.PROD)[0]


def test_c1_with_neutral_modulus_commutative_associativity_observed():
    """Commutativity of the product is part of the axioms, so it must hold;
    whether every model is associative is an observation, not an assertion.
    The observed status is printed for the record.

    The full merged system is checked exhaustively at sizes 1 and 2; at
    size 3 its model count explodes through the unconstrained division
    table, and both flags under test depend only on the product table, so
    the product fragment is checked instead (same product tables)."""
    merged = merge([builtin_system("C1"), builtin_system("Mx_neutral")])
    from eqbench.axioms import make_system
    from eqbench.terms import parse_equation
    prod_fragment = make_system(
        "comm+neutral", [parse_equation("ab = ba")] + list(
            builtin_system("Mx_neutral").equations), {"e"})
    assoc_failures = total = 0
    for sysm, sizes in ((merged, (1, 2)), (prod_fragment, (1, 2, 3))):
        for n in sizes:
            for model in enumerate_models(sysm, n):
                total += 1
                assert is_commutative(model, Op.PROD) == (True, None)
                if not is_associative(model, Op.PROD)[0]:
                    assoc_failures += 1
    print(f"[observed] commutative product with neutral element, sizes 1-3: "
          f"{assoc_failures} of {total} models are non-associative")


def test_classify_structure_c0_model():
    model = alg(2, prod=Z2, ldiv=Z2, rdiv=Z2)
    report = classify_structure(model)
    assert report.ops_coincide is True
    assert report.op_report(Op.PROD).is_abelian_group
    # reports are immutable values
    assert hash(report) == hash(classify_structure(model))
    with pytest.raises(AttributeError):
        report.op_report(Op.PROD).commutative = False


@pytest.mark.parametrize("tables", [
    dict(prod=LEFT_PROJ, ldiv=LEFT_PROJ, rdiv=LEFT_PROJ),
    dict(prod=LEFT_PROJ, ldiv=LEFT_PROJ, rdiv=Z2),
    dict(prod=LEFT_PROJ, ldiv=Z2, rdiv=[[1, 1], [0, 0]]),
], ids=["all_equal", "ldiv_is_prod", "all_distinct"])
def test_classify_structure_reports_each_table_as_classify_op_does(tables):
    # equal tables of one algebra share a report; it must still be the
    # report of each one's own table
    model = alg(2, **tables)
    report = classify_structure(model)
    for op in OP_ORDER:
        assert report.op_report(op) == classify_op(model, op), op
    assert report.ops_coincide == ops_coincide(model)[0]


def test_classify_structure_size_one_everything_true():
    report = classify_structure(alg(1, prod=[[0]], ldiv=[[0]], rdiv=[[0]]))
    assert report.ops_coincide is True
    for op in (Op.PROD, Op.LDIV, Op.RDIV):
        rep = report.op_report(op)
        assert rep.commutative and rep.associative and rep.latin_square
        assert rep.is_group and rep.is_abelian_group


def test_classify_structure_prod_only_marks_divisions_not_applicable():
    report = classify_structure(alg(2, prod=Z2))
    assert report.ops_coincide is None
    assert report.op_report(Op.LDIV) is None
    assert report.op_report(Op.RDIV) is None
    rec = report_record(report)
    assert rec["ops"]["ldiv"] is None
    assert rec["ops"]["prod"]["is_abelian_group"] is True
    assert rec["ops_coincide"] is None


def test_every_false_flag_has_a_witness_and_true_flags_none():
    rng = random.Random(99)
    for _ in range(80):
        table = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        a = alg(3, prod=table)
        for checker in (is_commutative, is_associative, is_latin_square):
            ok, witness = checker(a, Op.PROD)
            assert (witness is None) == ok


def test_c1_models_carry_a_single_division():
    """C1's second axiom collapses the two divisions into one table."""
    for n in (1, 2):
        for model in enumerate_models(builtin_system("C1"), n):
            assert model.table(Op.LDIV) == model.table(Op.RDIV)


def test_c2_admits_noncommutative_product_and_right_division():
    found = False
    for model in enumerate_models(builtin_system("C2"), 2):
        assert is_commutative(model, Op.LDIV)[0]  # axiom
        prod_comm = is_commutative(model, Op.PROD)[0]
        rdiv_comm = is_commutative(model, Op.RDIV)[0]
        assert prod_comm == rdiv_comm  # rdiv equals prod in C2
        if not prod_comm:
            found = True
    assert found


def test_c3_admits_noncommutative_product_and_left_division():
    found = False
    for model in enumerate_models(builtin_system("C3"), 2):
        assert is_commutative(model, Op.RDIV)[0]  # axiom
        if not is_commutative(model, Op.PROD)[0]:
            assert not is_commutative(model, Op.LDIV)[0]
            found = True
    assert found


def test_c0_admits_models_where_nothing_commutes():
    found = False
    for model in enumerate_models(builtin_system("C0"), 2):
        flags = [is_commutative(model, op)[0] for op in (Op.PROD, Op.LDIV, Op.RDIV)]
        if not any(flags):
            found = True
    assert found
