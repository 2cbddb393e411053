import hashlib
import itertools
import json
import operator
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from eqbench import models
from eqbench.axioms import (BUILTIN_NAMES, builtin_system, empty_system, make_system, merge,
                             system_ops)
from eqbench.consequence import HoldsUpTo, Refuted, semantic_consequence
from eqbench.models import (
    EnumOptions,
    MissingConstantError,
    MissingTableError,
    ResourceLimitError,
    canonical_form,
    count_models,
    enumerate_models,
    eval_term,
    find_violation,
    from_record,
    is_canonical,
    make_algebra,
    record_line,
    satisfies,
    satisfies_all,
    template_of,
    to_record,
    _numeral,
    _vectors,
)
from eqbench.cli import CliError, _read_records
from eqbench.terms import OP_ORDER, Op, parse_equation, parse_term

from oracles import (
    algebra_text,
    are_isomorphic,
    o_eval,
    o_satisfies,
    literal_models,
    oracle_canonical,
    oracle_models,
)
from reference import search

Z2 = [[0, 1], [1, 0]]
Z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
LEFT_PROJ = [[0, 0], [1, 1]]
RIGHT_PROJ = [[0, 1], [0, 1]]

PROD_ONLY = EnumOptions(ops=frozenset({Op.PROD}))


def alg(size, prod=None, ldiv=None, rdiv=None, constants=()):
    tables = {}
    if prod is not None:
        tables[Op.PROD] = prod
    if ldiv is not None:
        tables[Op.LDIV] = ldiv
    if rdiv is not None:
        tables[Op.RDIV] = rdiv
    return make_algebra(size, tables, dict(constants))


# ---------------------------------------------------------------------------
# evaluation

def test_eval_mod2_addition():
    assert eval_term(alg(2, prod=Z2), parse_term("ab"), {"a": 1, "b": 1}) == 0


def test_eval_size_one_always_zero():
    one = alg(1, prod=[[0]], ldiv=[[0]], rdiv=[[0]])
    assert eval_term(one, parse_term("(a:b)/(c c)"), {"a": 0, "b": 0, "c": 0}) == 0


def test_eval_mod3_nested():
    # (1 + 2) + 2 = 2 mod 3
    assert eval_term(alg(3, prod=Z3), parse_term("(a b) b"), {"a": 1, "b": 2}) == 2


def test_eval_missing_table_and_binding():
    with pytest.raises(MissingTableError):
        eval_term(alg(2, prod=Z2), parse_term("a:b"), {"a": 0, "b": 0})
    with pytest.raises(KeyError):
        eval_term(alg(2, prod=Z2), parse_term("ab"), {"a": 0})


def test_values_outside_the_carrier_are_rejected():
    a = alg(2, prod=Z2, ldiv=Z2)
    for bad in (2, 3, -1):
        with pytest.raises(IndexError):
            eval_term(a, parse_term("ab"), {"a": bad, "b": 0})
        with pytest.raises(IndexError):
            find_violation(a, parse_equation("e:a = a"), {"e": bad})
    assert find_violation(a, parse_equation("e a = a"), {"e": 1}) == {"a": 0}


# ---------------------------------------------------------------------------
# satisfaction

def test_find_violation_on_equations_wider_than_one_pass():
    # 8 free variables at size 3 give 6,561 assignments, more than one
    # vectorized pass takes.  Both sides start with a, and the table is a
    # left projection but for cells in one row, so the first failure, if
    # any, has a equal to that row and falls early, midway or late
    rng = random.Random(8)
    names = list("abcdefgh")
    positions = set()
    for _ in range(15):
        table = [[x] * 3 for x in range(3)]
        row = rng.randrange(3)
        for _ in range(rng.choice((1, 2))):
            table[row][rng.randrange(3)] = rng.randrange(3)
        a = alg(3, prod=table)
        rest = rng.sample(names[1:], 7)
        eq = parse_equation(" ".join(names) + " = a(" + " ".join(rest) + ")")
        tables = {Op.PROD: tuple(map(tuple, table))}
        want = None
        for i, values in enumerate(itertools.product(range(3), repeat=8)):
            env = dict(zip(names, values))
            if o_eval(eq.lhs, tables, env) != o_eval(eq.rhs, tables, env):
                want = env
                positions.add(i * 3 // 3 ** 8)
                break
        got = find_violation(a, eq)
        assert got == want and list(got or ()) == list(want or ()), (table, eq)
        positions.add("held" if got is None else "failed")
    assert positions == {0, 1, 2, "held", "failed"}
    # the product is min and x:x = x but for 2:2, so only the last
    # assignment, every variable 2, fails
    chain = " ".join(names)
    meet = alg(3, prod=[[min(x, y) for y in range(3)] for x in range(3)],
               ldiv=[[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert find_violation(meet, parse_equation(f"{chain} = ({chain}):({chain})")) == \
        dict.fromkeys(names, 2)


def test_satisfies_size_one():
    assert satisfies(alg(1, prod=[[0]]), parse_equation("ab = ba"))


def test_satisfies_commutativity_of_mod2():
    assert satisfies(alg(2, prod=Z2), parse_equation("ab = ba"))


def test_left_projection_fails_commutativity_with_witness():
    a = alg(2, prod=LEFT_PROJ)
    eq = parse_equation("ab = ba")
    assert not satisfies(a, eq)
    assert find_violation(a, eq) == {"a": 0, "b": 1}


def test_satisfies_invariant_under_variable_renaming():
    rng = random.Random(11)
    for _ in range(200):
        table = [[rng.randrange(2) for _ in range(2)] for _ in range(2)]
        a = alg(2, prod=table, ldiv=table)
        eq = parse_equation("a(b:a) = (a:b)b")
        renamed = parse_equation("x(y:x) = (x:y)y")
        assert satisfies(a, eq) == satisfies(a, renamed)


def test_satisfies_all_c0():
    one = alg(1, prod=[[0]], ldiv=[[0]], rdiv=[[0]])
    assert satisfies_all(one, builtin_system("C0"))
    z2_triple = alg(2, prod=Z2, ldiv=Z2, rdiv=Z2)  # Z2 is symmetric, so rdiv = prod^T = prod
    assert satisfies_all(z2_triple, builtin_system("C0"))


def test_satisfies_all_agrees_with_satisfies_across_systems_and_sizes():
    c0, neutral = builtin_system("C0"), builtin_system("Mx_neutral")
    z3 = alg(3, prod=Z3, ldiv=Z3, rdiv=Z3)
    z2_e = alg(2, prod=Z2, ldiv=LEFT_PROJ, rdiv=Z2, constants={"e": 0})
    for a, s in [(z3, c0), (z2_e, c0), (z3, c0), (z2_e, neutral), (z2_e, c0)]:
        assert satisfies_all(a, s) == all(
            satisfies(a, eq, dict(a.constants)) for eq in s.equations), (a, s.name)


def test_satisfies_all_empty_system_vacuous():
    assert satisfies_all(alg(2, prod=LEFT_PROJ), empty_system())


def test_satisfies_all_missing_constant():
    with pytest.raises(MissingConstantError):
        satisfies_all(alg(2, prod=Z2), builtin_system("Mx_neutral"))


def test_satisfies_all_neutral_reading():
    a = alg(2, prod=Z2, constants={"e": 0})
    assert satisfies_all(a, builtin_system("Mx_neutral"))
    assert not satisfies_all(alg(2, prod=Z2, constants={"e": 1}),
                             builtin_system("Mx_neutral"))


# ---------------------------------------------------------------------------
# enumeration counts

def test_enumerate_unconstrained_prod_tables():
    assert count_models(empty_system(), 2, opts=PROD_ONLY) == 16


def test_enumerate_commutative_prod_tables_vs_oracle():
    comm = make_system("comm", [parse_equation("ab = ba")])
    got = list(enumerate_models(comm, 2))
    assert len(got) == 8
    assert sorted(record_line(m) for m in got) == \
        sorted(record_line(m) for m in oracle_models(comm, 2))


def test_enumerate_c1_size1():
    assert count_models(builtin_system("C1"), 1) == 1


def test_enumerate_c1_size2_vs_literal_oracle():
    # the oracle loops over all 16^3 table triples
    got = list(enumerate_models(builtin_system("C1"), 2))
    assert len(got) == 128
    assert sorted(record_line(m) for m in got) == \
        sorted(record_line(m) for m in literal_models(builtin_system("C1"), 2))


def test_enumerate_neutral_system_vs_oracle():
    neut = builtin_system("Mx_neutral")
    got = list(enumerate_models(neut, 2))
    assert sorted(record_line(m) for m in got) == \
        sorted(record_line(m) for m in oracle_models(neut, 2))
    assert all(m.constants for m in got)


def test_enumeration_is_lexicographic_and_deterministic():
    c0 = builtin_system("C0")
    seq = [record_line(m) for m in enumerate_models(c0, 2)]
    assert seq == sorted(seq)
    assert seq == [record_line(m) for m in enumerate_models(c0, 2)]


def test_enumerate_missing_op_errors_instead_of_vacuous_pass():
    with pytest.raises(MissingTableError):
        list(enumerate_models(builtin_system("C0"), 2, PROD_ONLY))


def test_max_results_cap_is_distinct_error():
    stream = enumerate_models(empty_system(), 2, EnumOptions(ops=frozenset({Op.PROD}),
                                                             max_results=5))
    got = []
    with pytest.raises(ResourceLimitError):
        for m in stream:
            got.append(m)
    assert len(got) == 5


def test_search_edge_paths():
    # no cells at all: the one table-less algebra
    assert list(enumerate_models(empty_system(), 2, EnumOptions(ops=frozenset()))) == [
        make_algebra(2, {})]
    # an instance between two variables: satisfiable only on one element
    collapse = make_system("collapse", [parse_equation("a = b")])
    assert list(enumerate_models(collapse, 1, PROD_ONLY)) == [alg(1, prod=[[0]])]
    assert list(enumerate_models(collapse, 2, PROD_ONLY)) == []
    assert list(enumerate_models(collapse, 2)) == []
    # a candidate that reads no cell is decided before the search starts
    a_is_b = parse_equation("a = b")
    first_c0 = next(enumerate_models(builtin_system("C0"), 2))
    assert semantic_consequence(builtin_system("C0"), a_is_b, 2) == Refuted(
        first_c0, (("a", 0), ("b", 1)))
    assert semantic_consequence(empty_system(), a_is_b, 2) == Refuted(
        make_algebra(2, {}), (("a", 0), ("b", 1)))
    assert semantic_consequence(builtin_system("C0"), parse_equation("a = a"), 2) == \
        HoldsUpTo(2)
    # an unsatisfiable axiom does not hide a later one's missing table
    both = make_system("both", [parse_equation("a = b"), parse_equation("ab = ba")])
    with pytest.raises(MissingTableError, match="missing table"):
        list(enumerate_models(both, 2, EnumOptions(ops=frozenset())))


@pytest.mark.parametrize("name, cand, ops, threshold", [
    ("C0", "a/b = ba", (Op.PROD, Op.LDIV, Op.RDIV), 1_092_402),
    ("C1", "ab = ba", (Op.PROD, Op.LDIV, Op.RDIV), 2_628),
    ("C1", "a:b = a/b", (Op.LDIV, Op.RDIV, Op.PROD), 560_961),
])
def test_node_cap_fires_at_a_fixed_count(name, cand, ops, threshold):
    # each candidate holds, so the search runs to its end; a forced slot
    # counts n nodes when it is left, like a slot that tried every value, so
    # these thresholds (those of a search without forced cells) stay put
    def capped(max_nodes):
        return list(search(builtin_system(name), 3, ops, parse_equation(cand), max_nodes))

    for _ in range(2):  # the second time on the layout's kept plan
        with pytest.raises(ResourceLimitError):
            capped(threshold - 1)
        assert capped(threshold) == []


def test_node_cap_of_a_deep_axiom_tested_before_the_last_slot():
    # associativity reads only prod, so its compiled check runs when prod's
    # last cell is written and prunes before any rdiv cell is: 268 nodes,
    # where a check on complete branches visits 508 for the same 64 models
    assoc = make_system("assoc", [parse_equation("(ab)c = a(bc)")])
    cand, ops = parse_equation("a/b = b/a"), (Op.PROD, Op.RDIV)

    def capped(max_nodes):
        return list(search(assoc, 2, ops, cand, max_nodes))

    want = [m for m in oracle_models(assoc, 2, ops)
            if not o_satisfies(dict(m.tables), cand, 2, dict(m.constants))]
    for _ in range(2):  # the second time on the layout's kept plan
        with pytest.raises(ResourceLimitError):
            capped(267)
        assert capped(268) == want and len(want) == 64


# ---------------------------------------------------------------------------
# one plan per layout, shared by its searches

# C0 forces its ldiv and rdiv cells in one run, which a check on ldiv splits
# at ldiv's last cell; Mx_neutral's constant e has pairs that mask its values
SHARED_LAYOUTS = [("C0", 3, "a:b = b:a"), ("C0", 3, "ab = ba"), ("Mx_neutral", 3, "ab = ba")]


def _shared(name, text):
    """The system, its tables in canonical order, and the candidate."""
    sys_ = builtin_system(name)
    return sys_, tuple(op for op in OP_ORDER if op in system_ops(sys_)), parse_equation(text)


@pytest.mark.parametrize("name, n, text", SHARED_LAYOUTS)
def test_interleaved_searches_of_one_layout_match_each_alone(name, n, text):
    sys_, ops, cand = _shared(name, text)
    alone = [list(_vectors(sys_, n, ops)), list(_vectors(sys_, n, ops, cand))]
    assert alone[0] and alone[1] and len(alone[1]) < len(alone[0])
    together = list(itertools.zip_longest(_vectors(sys_, n, ops), _vectors(sys_, n, ops, cand),
                                          _vectors(sys_, n, ops)))
    assert [[v for v in column if v is not None] for column in zip(*together)] == \
        alone + alone[:1]


def _stream_digests(name, n, text):
    """sha256 of the full stream of the layout, and of its stream with the candidate."""
    sys_, ops, cand = _shared(name, text)
    return [hashlib.sha256(repr(list(_vectors(sys_, n, ops, c))).encode()).hexdigest()
            for c in (None, cand)]


def test_an_abandoned_search_leaves_its_layout_as_a_fresh_process_finds_it():
    # a refute takes the first countermodel and drops the search
    for name, n, text in SHARED_LAYOUTS:
        sys_, ops, cand = _shared(name, text)
        for c in (None, cand):
            assert next(_vectors(sys_, n, ops, c)) is not None
    warm = [_stream_digests(*layout) for layout in SHARED_LAYOUTS]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, str(Path(__file__).resolve().parent)]))
    code = ("import json, test_models; print(json.dumps([test_models._stream_digests(*layout) "
            "for layout in test_models.SHARED_LAYOUTS]))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == warm


def test_plan_memo_keeps_at_most_its_bound():
    assert models._plan.cache_info().maxsize == 128
    systems = [make_system(f"s{i}", [parse_equation("ab = ba")]) for i in range(138)]
    for sys_ in systems:
        for n in (1, 2):
            assert list(_vectors(sys_, n, (Op.PROD,)))
            assert models._plan.cache_info().currsize <= 128
    hits = models._plan.cache_info().hits
    assert models._plan(systems[-1], 2, (Op.PROD,)) is not None
    assert models._plan.cache_info().hits == hits + 1  # the last plan is kept


# ---------------------------------------------------------------------------
# the untested tail of an enumeration

MERGES = [("C0", "Mx_neutral"), ("C1", "Mldiv_neutral"), ("Mx_neutral", "Mrdiv_neutral"),
          ("G1", "Mx_neutral")]
# the built-ins force every cell they test nothing on, so their tail starts at
# the first slot or is empty; associativity tests prod's last cell, which
# leaves rdiv as the tail: its cells free, copying one of its own, a value
# (a/a = a) or a prod cell (a/b = ab)
TAIL_SYSTEMS = [
    make_system("assoc_rdiv_sym", [parse_equation(t) for t in
                                   ("(ab)c = a(bc)", "a/b = b/a", "a/a = a")]),
    make_system("assoc_rdiv_copy", [parse_equation(t) for t in ("(ab)c = a(bc)", "a/b = ab")]),
]


def _nineteen():
    """(name, system) of the 15 built-ins and four merges of them."""
    return ([(name, builtin_system(name)) for name in BUILTIN_NAMES]
            + [(f"{a}+{b}", merge([builtin_system(a), builtin_system(b)])) for a, b in MERGES])


def test_an_enumeration_tail_streams_as_the_walk_slot_by_slot():
    # every table order of the 19 systems, the canonical one of the others;
    # over a canonical order, where the walk ends within the cap, the count
    # and the record lines of the enumeration, raw and (at sizes 1 and 2) up
    # to isomorphism, which all read the one leaf stream, are the walk's
    layouts = [(sys_, ops) for _, sys_ in _nineteen() for ops in itertools.permutations(
        op for op in OP_ORDER if op in system_ops(sys_))]
    layouts += [(sys_, (Op.PROD, Op.RDIV)) for sys_ in TAIL_SYSTEMS]
    layouts.append((empty_system(), (Op.PROD,)))  # at size 1 a getter of one item
    tails, compared = set(), 0
    for sys_, ops in layouts:
        for n in (1, 2, 3):
            cap = 3_000 if n == 3 else None
            plan = models._plan(sys_, n, ops)
            if plan is not None:
                tails.add((plan[-1][0] == 0, plan[-1][0] == plan[0], plan[-1][1] == 0))
            walk = list(itertools.islice(_vectors(sys_, n, ops, None, 10**9), cap))
            assert list(itertools.islice(_vectors(sys_, n, ops), cap)) == walk
            if ops != tuple(op for op in OP_ORDER if op in ops) or len(walk) == cap:
                continue
            table = models._relabeling_table(n, len(ops), len(sys_.constants))
            for up_to_iso in (False, True) if n < 3 else (False,):
                opts = EnumOptions(up_to_iso=up_to_iso, ops=frozenset(ops))
                vectors = [v for v in walk if not up_to_iso or models._is_least(table, v)]
                line = models.models_template(sys_, n, opts).format + "\n"
                assert count_models(sys_, n, up_to_iso, opts) == len(vectors), (sys_.name, n)
                assert "".join(models.record_blocks(sys_, n, opts, 512)) == \
                    "".join(map(line.__mod__, vectors)), (sys_.name, n, up_to_iso)
                compared += 1
    assert compared == 101
    # tails at the first slot, in the middle with and without free slots, and none
    assert {(True, False, False), (False, False, False), (False, False, True),
            (False, True, True)} <= tails


#: a table whose cells must all be equal: its one class of cells has a model per value
ALL_EQUAL = make_system("all_equal", [parse_equation(t) for t in ("a/b = a/a", "a/a = b/b")])


def _system(name):
    """The built-in ``name``, the merge of the built-ins it joins with '+', or ALL_EQUAL."""
    if name == ALL_EQUAL.name:
        return ALL_EQUAL
    return merge([builtin_system(part) for part in name.split("+")])


# a pair that names the constant sits on the prod cell whose class holds the
# ldiv or rdiv cell it was stated on, so C0+Mldiv_neutral and C0+Mrdiv_neutral
# prune as C0+Mx_neutral does
@pytest.mark.parametrize("name, n, total", [("C0", 3, 1_092_402), ("C1", 2, 1_284),
                                            ("G1", 3, 1_008), ("C0+Mldiv_neutral", 3, 15_360),
                                            ("C0+Mrdiv_neutral", 3, 15_360),
                                            ("all_equal", 6, 1_260)])
def test_a_capped_enumeration_walks_every_slot(name, n, total):
    # a node cap keeps the walk slot by slot, so its count does not change
    sys_ = _system(name)
    ops = tuple(op for op in OP_ORDER if op in system_ops(sys_))
    with pytest.raises(ResourceLimitError, match="enumeration exceeded"):
        list(_vectors(sys_, n, ops, None, total - 1))
    assert list(_vectors(sys_, n, ops, None, total)) == list(_vectors(sys_, n, ops))


def test_raw_counts_add_up_the_tails():
    for name, sys_ in _nineteen():
        for n in (1, 2):
            assert count_models(sys_, n) == len(list(enumerate_models(sys_, n))), (name, n)
    c0 = builtin_system("C0")
    assert count_models(c0, 3) == len(list(models.enumerate_vectors(c0, 3))) == 19_683
    for sys_ in TAIL_SYSTEMS:
        opts = EnumOptions(ops=frozenset({Op.PROD, Op.RDIV}))
        for n in (1, 2, 3):
            assert count_models(sys_, n, opts=opts) == len(list(enumerate_models(sys_, n, opts)))
    # past max_results a count raises as the enumeration does
    c1 = builtin_system("C1")
    assert count_models(c1, 3, opts=EnumOptions(max_results=14_348_907)) == 14_348_907
    with pytest.raises(ResourceLimitError, match="max_results=14348906"):
        count_models(c1, 3, opts=EnumOptions(max_results=14_348_906))


def _reference_is_least(table, v):
    """``models._is_least`` as it compared each relabeling in full."""
    return all(
        next(filter(None, map(operator.sub, map(perm.__getitem__, map(v.__getitem__, sources)),
                              v)), 0) >= 0
        for perm, sources in table[1:])


def test_is_least_decides_as_the_full_comparison():
    table = models._relabeling_table(3, 3, 0)
    c0 = list(models._vectors(builtin_system("C0"), 3, (Op.PROD, Op.LDIV, Op.RDIV)))
    assert [models._is_least(table, v) for v in c0] == [_reference_is_least(table, v) for v in c0]
    rng = random.Random(23)
    for n, tables, constants in [(2, 1, 1), (3, 1, 2), (3, 0, 2), (4, 1, 1), (3, 2, 1),
                                 (2, 0, 0), (3, 0, 1)]:
        table = models._relabeling_table(n, tables, constants)
        width = tables * n * n + constants
        for _ in range(300):
            v = tuple(rng.randrange(n) for _ in range(width))
            # and its least relabeling, so both answers occur
            least = min(tuple(perm[v[k]] for k in sources) for perm, sources in table)
            for w in (v, least):
                assert models._is_least(table, w) == _reference_is_least(table, w), (n, w)
            assert models._is_least(table, least)


def test_size_limit_needs_override():
    with pytest.raises(ResourceLimitError):
        list(enumerate_models(builtin_system("Mx_neutral"), 4))
    # with the override the (heavily constrained) enumeration completes
    n_models = count_models(builtin_system("G1"), 4,
                            opts=EnumOptions(allow_large=True))
    assert n_models > 0


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        list(enumerate_models(empty_system(), 0))
    with pytest.raises(ValueError):
        make_algebra(0, {})


# ---------------------------------------------------------------------------
# isomorphism and canonical forms

def test_canonical_form_invariant_under_relabeling():
    z2 = alg(2, prod=Z2)
    swapped = alg(2, prod=[[Z2[1][1], Z2[1][0]], [Z2[0][1], Z2[0][0]]])
    # swapping 0<->1 in Z2 addition gives [[0,1],[1,0]] -> [[0,1],[1,0]] relabeled
    assert canonical_form(z2) == canonical_form(swapped)


def test_projection_tables_isomorphism_decided_by_oracle():
    left = alg(2, prod=LEFT_PROJ)
    right = alg(2, prod=RIGHT_PROJ)
    same = are_isomorphic(left, right)
    assert (canonical_form(left) == canonical_form(right)) == same


def test_size_one_algebras_all_share_canonical_form():
    a1 = alg(1, prod=[[0]])
    a2 = alg(1, prod=[[0]])
    assert canonical_form(a1) == canonical_form(a2)


def test_canonical_form_matches_oracle_on_random_algebras():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.choice((1, 2, 3))
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        table2 = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        a = alg(n, prod=table, ldiv=table2)
        perm = list(range(n))
        rng.shuffle(perm)
        from oracles import apply_perm
        assert canonical_form(a) == canonical_form(apply_perm(a, perm))


def test_canonical_form_discriminates_all_size2_single_op_algebras():
    algebras = [alg(2, prod=[[a, b], [c, d]])
                for a, b, c, d in itertools.product(range(2), repeat=4)]
    for x, y in itertools.combinations(algebras, 2):
        assert (canonical_form(x) == canonical_form(y)) == are_isomorphic(x, y)


def test_up_to_iso_counts():
    assert count_models(empty_system(), 2, up_to_iso=True, opts=PROD_ONLY) == 10
    reps = list(enumerate_models(empty_system(), 2,
                                 EnumOptions(up_to_iso=True, ops=frozenset({Op.PROD}))))
    assert all(is_canonical(m) for m in reps)
    # representatives cover every class exactly once
    forms = [canonical_form(m) for m in reps]
    assert len(set(forms)) == len(forms) == 10


def test_up_to_iso_representative_is_canonically_least():
    raw = list(enumerate_models(empty_system(), 2, PROD_ONLY))
    reps = list(enumerate_models(empty_system(), 2,
                                 EnumOptions(up_to_iso=True, ops=frozenset({Op.PROD}))))
    by_class = {}
    for m in raw:
        by_class.setdefault(oracle_canonical(m), []).append(record_line(m))
    least = sorted(min(lines) for lines in by_class.values())
    assert sorted(record_line(m) for m in reps) == least


# ---------------------------------------------------------------------------
# serialization

def test_record_round_trip():
    a = alg(2, prod=Z2, ldiv=LEFT_PROJ, constants={"e": 1})
    assert from_record(to_record(a)) == a
    assert from_record(json.loads(record_line(a))) == a


def test_record_field_names_and_order():
    a = alg(2, prod=Z2, constants={"e": 0})
    line = record_line(a)
    assert line == '{"size":2,"ops":{"prod":[[0,1],[1,0]]},"constants":{"e":0}}'


def test_from_record_rejects_garbage():
    with pytest.raises(ValueError):
        from_record({"size": 2, "ops": {"prod": [[0, 5], [0, 0]]}})
    with pytest.raises(ValueError):
        from_record({"ops": {}})


_P2 = [[0, 1], [1, 0]]

# (record, stored prod table and constants, or the error text), as the
# entry-by-entry int() conversion has always answered
MALFORMED_RECORDS = {
    "bool_entries": ({"size": 2, "ops": {"prod": [[True, False], [False, True]]}},
                     (((1, 0), (0, 1)), ())),
    "string_entries": ({"size": 2, "ops": {"prod": [["1", "0"], ["0", "1"]]}},
                       (((1, 0), (0, 1)), ())),
    "float_whole": ({"size": 2, "ops": {"prod": [[1.0, 0], [0, 1]]}},
                    (((1, 0), (0, 1)), ())),
    "float_fraction": ({"size": 2, "ops": {"prod": [[1.5, 0], [0, 1]]}},
                       (((1, 0), (0, 1)), ())),
    "row_strings": ({"size": 2, "ops": {"prod": ["01", "10"]}},
                    (((0, 1), (1, 0)), ())),
    "string_size": ({"size": "2", "ops": {"prod": _P2}}, (((0, 1), (1, 0)), ())),
    "string_constant": ({"size": 2, "ops": {"prod": _P2}, "constants": {"e": "1"}},
                        (((0, 1), (1, 0)), (("e", 1),))),
    "negative": ({"size": 2, "ops": {"prod": [[-1, 0], [0, 1]]}},
                 "prod table entry out of range"),
    "entry_equal_to_size": ({"size": 2, "ops": {"prod": [[2, 0], [0, 1]]}},
                            "prod table entry out of range"),
    "huge_entry": ({"size": 2, "ops": {"prod": [[10 ** 30, 0], [0, 1]]}},
                   "prod table entry out of range"),
    "ragged": ({"size": 2, "ops": {"prod": [[0, 1], [1]]}}, "prod table must be 2x2"),
    "too_few_rows": ({"size": 2, "ops": {"prod": [[0, 1]]}}, "prod table must be 2x2"),
    "too_many_rows": ({"size": 2, "ops": {"prod": [[0, 1], [1, 0], [0, 0]]}},
                      "prod table must be 2x2"),
    "string_table": ({"size": 2, "ops": {"prod": "0101"}}, "prod table must be 2x2"),
    "non_list_table": ({"size": 2, "ops": {"prod": 5}}, "'int' object is not iterable"),
    "missing_size": ({"ops": {"prod": _P2}}, "'size'"),
    "non_numeric_in_ragged": ({"size": 2, "ops": {"prod": [[0, 1], ["x"]]}},
                              "invalid literal for int() with base 10: 'x'"),
    "none_entry": ({"size": 2, "ops": {"prod": [[0, None], [1, 0]]}},
                   "int() argument must be a string, a bytes-like object or a real "
                   "number, not 'NoneType'"),
    "unknown_operation": ({"size": 2, "ops": {"times": _P2}}, "'times' is not a valid Op"),
    "empty_carrier": ({"size": 0, "ops": {}}, "carrier must be nonempty"),
    "constant_out_of_range": ({"size": 2, "ops": {"prod": _P2}, "constants": {"e": 2}},
                              "constant value out of range"),
    "second_table_bad": ({"size": 2, "ops": {"prod": _P2, "ldiv": [[0, 3], [1, 0]]}},
                         "ldiv table entry out of range"),
    "first_bad_table_wins": ({"size": 2, "ops": {"prod": [[0]], "ldiv": 5}},
                             "prod table must be 2x2"),
}


def _read_algebras(tmp_path, lines):
    path = tmp_path / "records.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return [t.algebra(v) for t, v in _read_records(str(path))]


@pytest.mark.parametrize("name", MALFORMED_RECORDS)
def test_from_record_on_odd_and_malformed_input(tmp_path, name):
    rec, want = MALFORMED_RECORDS[name]
    # the record reader, meeting the record after a canonical line, agrees
    lines = [record_line(alg(2, prod=_P2)), json.dumps(rec, separators=(",", ":"))]
    if isinstance(want, str):
        with pytest.raises(ValueError) as err:
            from_record(rec)
        assert str(err.value) == f"malformed algebra record: {want}"
        with pytest.raises(CliError) as err:
            _read_algebras(tmp_path, lines)
        assert str(err.value) == (f"{tmp_path / 'records.jsonl'}:2: bad algebra record: "
                                  f"malformed algebra record: {want}")
        return
    got = from_record(rec)
    assert (got.table(Op.PROD), got.constants) == want
    assert {type(x) for x in got.cells} == {int}
    assert from_record(json.loads(record_line(got))) == got
    assert _read_algebras(tmp_path, lines) == [alg(2, prod=_P2), got]


def test_record_codec_matches_json(tmp_path):
    rng = random.Random(1895)
    names = ["e", "e1", "%d", "100%", 'say "e"', "back\\slash", "\u00e9l\u00e9ment"]
    kernels = set()  # whether the block writer made a shape's lines
    for _ in range(300):
        n = rng.randint(1, 12)
        ops = rng.sample(OP_ORDER, rng.randint(0, 3))
        consts = rng.sample(names, rng.randint(0, 2))

        def draw():
            return make_algebra(
                n, {op: [[rng.randrange(n) for _ in range(n)] for _ in range(n)] for op in ops},
                {name: rng.randrange(n) for name in consts})

        first, second = draw(), draw()
        lines = [record_line(first), record_line(second)]
        assert lines == [json.dumps(to_record(a), separators=(",", ":"))
                         for a in (first, second)]
        # the second line is matched by the pattern of the first one's shape,
        # and read by its template when its only digits are the size and entries
        template = template_of(first)
        data = b"%s\n" % lines[1].encode()
        assert template.lines.fullmatch(data)
        if template.digits:
            stop, [entries] = template.read(data, 0, len(data))
            assert stop == len(data) and template.algebra(entries) == second
        assert _read_algebras(tmp_path, lines) == [from_record(json.loads(line))
                                                  for line in lines]
        # the text lines are the record lines rewritten, as the reference
        # writes them field by field
        assert template.text("".join(line + "\n" for line in lines)) == "".join(
            algebra_text(a) + "\n" for a in (first, second))
        # for a shape with digits the block writer makes the same lines of
        # the vectors, as leaves of one model each
        vectors = [a.cells + tuple(v for _, v in a.constants) for a in (first, second)]
        if template.digits:
            assert _one_model_leaves(template, vectors) == "".join(line + "\n" for line in lines)
            assert _one_model_leaves(template, []) == ""
        kernels.add(bool(template.digits))
    assert kernels == {True, False}
    for n in range(1, 11):  # no tables and no constants: every line is the same
        template = template_of(make_algebra(n, {}))
        assert _one_model_leaves(template, [(), ()]) == 2 * (template.format % () + "\n")
        assert template.text(2 * (template.format % () + "\n")) == 2 * f"size={n}\n"
    # past 512 entries, by the tables (no digits: format) or by the constants
    # (the block writer), the lines are written without compiling a pattern
    letters = "abcdefghijklmnopqrstuvwxyz"
    for n, ops, names in ((14, tuple(OP_ORDER), ()),
                          (2, (Op.PROD,), tuple(sorted(x + y for x in letters for y in letters)))):
        template = models.ShapeTemplate(n, ops, names)
        entries = len(ops) * n * n + len(names)
        assert entries > 512 and bool(template.digits) == (n < 11)
        vectors = [tuple(rng.randrange(n) for _ in range(entries)) for _ in range(3)]
        want = "".join(json.dumps(to_record(template.algebra(v)), separators=(",", ":")) + "\n"
                       for v in vectors)
        assert "".join(template.format % v + "\n" for v in vectors) == want
        if template.digits:
            assert _one_model_leaves(template, vectors) == want
        assert template.text(want) == "".join(algebra_text(template.algebra(v)) + "\n"
                                              for v in vectors)
        assert "lines" not in vars(template)


def _one_model_leaves(template, vectors, batch=512):
    """The lines ``write_blocks`` makes of entry vectors, each a leaf of one
    model, as ``record_blocks`` writes a run up to isomorphism."""
    entries = len(template.ops) * template.size ** 2 + len(template.names)
    return b"".join(template.write_blocks(iter(vectors), range(entries), 0, batch)).decode()


def test_block_writer_matches_format_of_the_materialized_vectors():
    # random leaves of the prod table, with and without a constant: each
    # entry reads a free slot, a slot of the leaf's vector (those past the
    # last one read unwritten, -1) or a value of the carrier; the leaves come
    # as the search gives them, one live list, and their vectors are made as
    # _vectors makes them.  Each chunk holds the n**m models of as many
    # leaves as fit, or n**m models of one leaf; the vectors themselves,
    # each a leaf of one model (k = 0, as up to isomorphism), give the same
    # lines in chunks of the batch
    rng = random.Random(1890)
    for n, k, names in itertools.product(range(1, 11), range(5), ((), ("e",))):
        template = models.ShapeTemplate(n, (Op.PROD,), names)
        total = n * n + len(names)
        if k > total:  # a free slot is an entry, so no shape has more
            continue
        got = [rng.randrange(k + total + n) for _ in range(total)]
        got[:k] = rng.sample(range(k), k)  # every free slot read somewhere
        top = max((g - k + 1 for g in got if k <= g < k + total), default=0)
        leaves = [[rng.randrange(n) for _ in range(top)] + [-1] * (total - top) + list(range(n))
                  for _ in range(rng.randint(1, 4 if n ** k < 1000 else 2))]
        vectors = [tuple(map((p + tuple(leaf)).__getitem__, got))
                   for leaf in leaves for p in itertools.product(range(n), repeat=k)]
        want, step = "".join(template.format % v + "\n" for v in vectors), len(template._zeros[0])

        def live():
            cells = []
            for leaf in leaves:
                cells[:] = leaf
                yield cells

        for batch in (512, 7, 2, 1):
            size = max(n ** m for m in range(k + 1) if n ** m <= batch)  # a leaf's n**m
            chunk = (batch // n ** k or 1) * size
            whole = batch == 512 or len(vectors) <= 1000  # else the first chunks: slow
            chunks = template.write_blocks(live(), got, k, batch)
            # each chunk is read before the next is made
            lines = [text.decode() for text in itertools.islice(chunks, None if whole else 4)]
            rows = len(vectors) if whole else len(lines) * chunk
            assert "".join(lines) == want[:rows * step], (n, k, names, batch)
            assert [s.count("\n") for s in lines] == _cut(rows, chunk)
            if whole:
                lines = [text.decode() for text in template.write_blocks(
                    iter(vectors), range(total), 0, batch)]
                assert "".join(lines) == want, (n, k, names, batch)
                assert [s.count("\n") for s in lines] == _cut(len(vectors), batch)


def _cut(rows, chunk):
    """The lines of each chunk of ``rows`` lines cut every ``chunk``."""
    return [chunk] * (rows // chunk) + ([rows % chunk] if rows % chunk else [])


def test_numeral_pattern_matches_the_carrier_as_json_writes_it():
    for n in range(1, 150):
        pattern = re.compile(_numeral(n))
        assert [x for x in map(str, range(300)) if pattern.fullmatch(x)] == \
            [str(x) for x in range(n)], n
        assert not any(map(pattern.fullmatch, ["00", "01", "-0", "+1", "1.0", "1e0", " 1"]))


def test_make_algebra_accepts_tuples_and_mixed_rows():
    want = alg(2, prod=_P2)
    assert make_algebra(2, {Op.PROD: ((0, 1), (1, 0))}) == want
    assert make_algebra(2, {Op.PROD: [(0, 1), [1, 0]]}) == want
    assert make_algebra(2, {Op.PROD: (row for row in _P2)}) == want


def test_canonical_form_discriminates_size3_sample():
    """Equal forms must mean isomorphic and unequal forms non-isomorphic,
    cross-checked against the direct permutation search at size 3."""
    rng = random.Random(1874)
    from oracles import apply_perm
    for _ in range(60):
        t1 = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        t2 = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        x, y = alg(3, prod=t1), alg(3, prod=t2)
        assert (canonical_form(x) == canonical_form(y)) == are_isomorphic(x, y)
        perm = [0, 1, 2]
        rng.shuffle(perm)
        relabeled = apply_perm(x, perm)
        assert canonical_form(relabeled) == canonical_form(x)
        assert are_isomorphic(x, relabeled)
