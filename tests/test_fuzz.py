"""Seeded fuzzing of the search core against the brute-force oracles.

The search tests each check when the last slot it reads is written.  The
ground instances of a depth <= 1 axiom join the entries (cells and values)
they equate into classes, and each cell is written from its class's root;
an instance that names a constant is a pair on the later of its two roots,
and an axiom with a deeper side or two constants is a compiled check of the
whole axiom.  Every built-in axiom has depth <= 1 and names at most one
constant, so the built-ins compile no axiom.  Here random small systems
with depth-2 terms, a constant and random operation sets drive enumeration
and the countermodel search through both kinds of check, and a free table
after an axiom's own tables makes its compiled check run before the branch
is complete.  Random constant-free depth-1 systems, whose every instance is
static, and two systems whose tables are each one class drive it through
classes of equal cells, and random depth-1 systems over one or two
constants through the constants' live values.  Every size-2 bundle and a
seeded size-3 sample check the canonical form and the canonical test
against a brute-force relabeling.  On all these systems the records
``enumerate`` writes are checked against the algebras ``enumerate_models``
yields; the raw records of the built-ins, two merges and the random
systems, which the block writer makes leaf by leaf, are checked so at
every cap, cache state and batch size.  The random
candidates, with instances of the systems' axioms that ``derive`` proves,
check the proof-first order of ``semantic_consequence`` against the
search alone.
Random record files of several shapes check that ``check`` and
``classify``, which read each record as an entry vector, answer as
``find_violation`` and the oracle's scans do.
"""

import itertools
import json
import random

import pytest

from eqbench import cli, models
from eqbench.axioms import (BUILTIN_NAMES, builtin_system, empty_system, make_system, merge,
                            system_ops)
from eqbench.consequence import HoldsUpTo, Proved, Refuted, derive, semantic_consequence
from eqbench.structure import StructureReport
from eqbench.models import (
    EnumOptions,
    MissingConstantError,
    MissingTableError,
    ResourceLimitError,
    bind_constants,
    canonical_form,
    enumerate_models,
    enumerate_vectors,
    find_violation,
    from_record,
    is_canonical,
    make_algebra,
    record_line,
)
from eqbench.terms import (
    App,
    Equation,
    OP_ORDER,
    Var,
    operations_of_equation,
    parse_equation,
    term_depth,
    substitute,
    variables_of,
    variables_of_equation,
)

from oracles import (
    algebra_text,
    algebra_tuple,
    all_tables,
    literal_models,
    o_eval,
    o_satisfies,
    oracle_canonical,
    oracle_models,
    reference_coincide,
    reference_report,
)
from reference import search, search_verdict

SYSTEMS = 30
CANDIDATES_PER_SYSTEM = 2


def _random_term(rng, ops, names, depth):
    if depth == 0 or rng.random() < 0.45:
        return Var(rng.choice(names))
    return App(rng.choice(ops),
               _random_term(rng, ops, names, depth - 1),
               _random_term(rng, ops, names, depth - 1))


def _random_equation(rng, ops, constants):
    # a right side over the left side's variables rarely forces a trivial
    # carrier, so most systems keep some but not all size-2 algebras
    lhs = _random_term(rng, ops, ["a", "b", "c", *constants], 2)
    rhs_names = sorted(set(variables_of(lhs)) | set(constants))
    return Equation(lhs, _random_term(rng, ops, rhs_names, 2))


def _random_cases():
    rng = random.Random(20131305)
    for i in range(SYSTEMS):
        ops = rng.sample(OP_ORDER, rng.choice((1, 1, 2)))
        constants = ("e",) if rng.random() < 0.5 else ()
        axioms = [_random_equation(rng, ops, constants) for _ in range(rng.choice((1, 2)))]
        sys_ = make_system(f"fuzz{i}", axioms, constants)
        # often instantiate a table the axioms leave free, after theirs where
        # there is one, so that a check of theirs runs before the last slot
        later = OP_ORDER[max(map(OP_ORDER.index, ops)) + 1:] or OP_ORDER
        table_ops = set(ops) | ({rng.choice(later)} if rng.random() < 0.5 else set())
        cand_ops = rng.sample(OP_ORDER, rng.choice((1, 2)))
        cands = [_random_equation(rng, cand_ops, constants)
                 for _ in range(CANDIDATES_PER_SYSTEM)]
        yield sys_, frozenset(table_ops), cands


def _oracle_counterexample(sys_, cand, n):
    """First (model, witness) of size ``n`` in lexicographic order on which
    ``cand`` fails, by brute force over every table bundle, or None."""
    ops = system_ops(sys_) | operations_of_equation(cand)
    for alg in literal_models(sys_, n, ops):
        tables = dict(alg.tables)
        fixed = {name: v for name, v in alg.constants}
        free = [x for x in variables_of_equation(cand) if x not in fixed]
        for values in itertools.product(range(n), repeat=len(free)):
            env = dict(zip(free, values), **fixed)
            if o_eval(cand.lhs, tables, env) != o_eval(cand.rhs, tables, env):
                return alg, tuple(sorted(zip(free, values)))
    return None


def _compiled_axioms(sys_):
    """The axioms the search checks whole, by ``models._plan``'s rule: a side
    deeper than 1, or two constants (a one-constant instance is a pair)."""
    return [eq for eq in sys_.equations
            if term_depth(eq.lhs) > 1 or term_depth(eq.rhs) > 1
            or len(sys_.constants & set(variables_of_equation(eq))) > 1]


def _checked_before_the_last_slot(sys_, table_ops):
    """True when a compiled axiom names no constant and a table of
    ``table_ops`` comes after its own, so its check runs on partial branches."""
    last = max(map(OP_ORDER.index, table_ops))
    return any(not sys_.constants & set(variables_of_equation(eq))
               and max(map(OP_ORDER.index, operations_of_equation(eq))) < last
               for eq in _compiled_axioms(sys_))


def test_random_systems_match_oracles():
    compiled = early = 0
    for sys_, table_ops, cands in _random_cases():
        compiled += bool(_compiled_axioms(sys_))
        early += _checked_before_the_last_slot(sys_, table_ops)
        for n in (1, 2):
            got = [record_line(m) for m in
                   enumerate_models(sys_, n, EnumOptions(ops=table_ops))]
            want = sorted(record_line(m) for m in oracle_models(sys_, n, table_ops))
            assert got == want, f"{sys_} at size {n}"
        for cand in cands:
            verdict = semantic_consequence(sys_, cand, 2)
            found = _oracle_counterexample(sys_, cand, 1) or \
                _oracle_counterexample(sys_, cand, 2)
            if found is None:
                assert verdict == HoldsUpTo(2), f"{sys_} with {cand}"
            else:
                assert verdict == Refuted(*found), f"{sys_} with {cand}"
    assert compiled >= SYSTEMS // 2 and early >= SYSTEMS // 6


def _axiom_instance(rng, sys_):
    """An axiom of ``sys_`` with each non-constant variable replaced by a
    variable or a product of two, a candidate that ``derive`` can prove."""
    eq = rng.choice(sys_.equations)
    ops = [op for op in OP_ORDER if op in system_ops(sys_)] or OP_ORDER
    sigma = {x: Var(x) if x in sys_.constants else _random_term(rng, ops, ["a", "b"], 1)
             for x in variables_of_equation(eq)}
    return Equation(substitute(eq.lhs, sigma), substitute(eq.rhs, sigma))


def _verdict_or_cap(decide):
    try:
        return decide()
    except ResourceLimitError:
        return None


def test_proof_first_order_matches_search_alone():
    # semantic_consequence asks derive before it searches at size 3; where
    # the search alone settles a candidate the two verdicts are the same,
    # and where it passes its cap only a proof may answer HoldsUpTo
    rng = random.Random(1860)
    max_nodes = 2_000
    proved = held_by_proof = refuted = 0
    for sys_, _, cands in _random_cases():
        for cand in cands + [_axiom_instance(rng, sys_) for _ in range(2)]:
            proof = derive(sys_, cand)
            if isinstance(proof, Proved):
                proved += 1
                ops = system_ops(sys_) | operations_of_equation(cand)
                for n in (1, 2):
                    for alg in literal_models(sys_, n, ops):
                        assert o_satisfies(dict(alg.tables), cand, n, dict(alg.constants)), \
                            f"{sys_}: proved {cand} fails in {alg}"
            want = _verdict_or_cap(lambda: search_verdict(sys_, cand, 3, max_nodes))
            got = _verdict_or_cap(lambda: semantic_consequence(sys_, cand, 3, max_nodes=max_nodes))
            if want is not None:
                assert got == want, f"{sys_} with {cand}"
                refuted += isinstance(want, Refuted)
            elif got is not None:
                assert got == HoldsUpTo(3) and isinstance(proof, Proved), f"{sys_} with {cand}"
                held_by_proof += 1
    # each branch is taken often enough to show a change in the order
    assert min(proved, held_by_proof, refuted) >= 20


def test_cut_streams_match_oracles():
    # the whole stream of countermodels, not only its first element, with
    # each system's candidates searched back to back
    longer = 0
    for sys_, table_ops, cands in _random_cases():
        for n in (1, 2):
            for cand in cands:
                wanted = table_ops | operations_of_equation(cand)
                ops = tuple(op for op in OP_ORDER if op in wanted)
                want = [m for m in oracle_models(sys_, n, ops)
                        if not o_satisfies(dict(m.tables), cand, n, dict(m.constants))]
                got = list(search(sys_, n, ops, cand))
                assert got == want, f"{sys_} with {cand} at size {n}"
                longer += len(want) > 1
    assert longer >= SYSTEMS


def _oracle_first_violation(tables, eq, n, fixed):
    """The first assignment, in itertools.product order over the free
    variables in first-occurrence order, on which the sides differ."""
    free = [x for x in variables_of_equation(eq) if x not in fixed]
    for values in itertools.product(range(n), repeat=len(free)):
        env = dict(zip(free, values), **fixed)
        if o_eval(eq.lhs, tables, env) != o_eval(eq.rhs, tables, env):
            return dict(zip(free, values))
    return None


def test_find_violation_returns_the_first_failing_assignment():
    rng = random.Random(1874)
    held = first = last = 0
    for _ in range(1500):
        n = rng.choice((1, 2, 3))
        ops = rng.sample(OP_ORDER, rng.choice((1, 2, 3)))
        names = rng.sample(["a", "b", "c"], rng.choice((1, 2, 3)))
        fixed = {"e": rng.randrange(n)} if rng.random() < 0.3 else {}
        eq = Equation(_random_term(rng, ops, names + list(fixed), 3),
                      _random_term(rng, ops, names + list(fixed), 3))
        tables = {op: tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
                  for op in ops}
        want = _oracle_first_violation(tables, eq, n, fixed)
        got = find_violation(make_algebra(n, tables), eq, fixed)
        assert got == want and list(got or ()) == list(want or ()), eq
        if want is None:
            held += 1
        else:
            free = list(want)
            index = sum(want[x] * n ** (len(free) - 1 - i) for i, x in enumerate(free))
            first += index == 0
            last += index == n ** len(free) - 1 > 0
    # enough of each case that a changed loop order, or a skipped last
    # assignment, shows
    assert min(held, first, last) >= 50 and held + first + last < 1500


# ---------------------------------------------------------------------------
# forced cells and canonical forms

def _random_static_system(rng, i):
    """A constant-free system of depth <= 1 axioms: each ground instance is
    static, so each one joins the classes of its two entries.  The first
    axiom has a variable side (``ab = a``-like), whose instances put a cell
    in the class of a value."""
    ops = rng.sample(OP_ORDER, rng.choice((1, 2, 3)))

    def app(names):
        return App(rng.choice(ops), Var(rng.choice(names)), Var(rng.choice(names)))

    # x∘y = x forces a whole table, so most variable sides are idempotence
    lhs = app(["a"] if rng.random() < 0.6 else ["a", "b"])
    axioms = [Equation(lhs, Var(rng.choice(sorted(set(variables_of(lhs))))))]
    for _ in range(rng.choice((0, 1, 1, 2))):
        lhs = app(["a", "b", "c"])
        axioms.append(Equation(lhs, app(sorted(set(variables_of(lhs))))))
    return make_system(f"static{i}", [Equation(eq.rhs, eq.lhs) if rng.random() < 0.5 else eq
                                      for eq in axioms])


def _static_systems():
    rng = random.Random(1995)
    return [_random_static_system(rng, i) for i in range(40)]


def _all_equal_systems():
    """The rdiv table whose cells must all be equal, alone and with prod and
    ldiv tables that copy their left argument: one class of cells per table."""
    axioms = [parse_equation(t) for t in ("a/b = a/a", "a/a = b/b", "ab = a", "a:b = a")]
    return [make_system("all_equal", axioms[:2]), make_system("all_equal_copies", axioms)]


def test_forced_cells_match_oracles_on_random_static_systems():
    sizes_3 = 0
    for sys_ in _static_systems() + _all_equal_systems():
        ops = system_ops(sys_)
        for n in (1, 2, 3) if len(ops) == 1 else (1, 2):
            got = [record_line(m) for m in enumerate_models(sys_, n)]
            want = sorted(record_line(m) for m in oracle_models(sys_, n, ops))
            assert got == want, f"{sys_} at size {n}"
            sizes_3 += n == 3
    assert sizes_3 >= 10


def _random_constant_system(rng, i):
    """A system of depth <= 1 axioms over the constant ``e``, and in about two
    fifths of the systems ``f`` too.  An instance that names one constant
    prunes only while that constant has the value it was instantiated with;
    an axiom that names both is checked on complete branches only.  A
    constant-free axiom now and then adds forced cells to the mix."""
    ops = rng.sample(OP_ORDER, rng.choice((1, 1, 2)))
    constants = ["e", "f"] if rng.random() < 0.4 else ["e"]

    def app(names):
        return App(rng.choice(ops), Var(rng.choice(names)), Var(rng.choice(names)))

    axioms = []
    for _ in range(rng.choice((1, 2, 2, 3))):
        names = ["a", "b"] if rng.random() < 0.15 else ["a", "b", *constants]
        lhs = app(names)
        known = sorted(set(variables_of(lhs)) | set(constants))
        # x∘e = x-like sides keep some models at every size
        rhs = Var(rng.choice(known)) if rng.random() < 0.5 else app(known)
        axioms.append(Equation(rhs, lhs) if rng.random() < 0.5 else Equation(lhs, rhs))
    return make_system(f"constants{i}", axioms, constants)


def _constant_cases():
    """(system, its tables, two candidates) for 30 random constant systems."""
    rng = random.Random(1995_03)
    for i in range(30):
        sys_ = _random_constant_system(rng, i)
        ops = tuple(op for op in OP_ORDER if op in system_ops(sys_))
        yield sys_, ops, [_random_equation(rng, ops, sorted(sys_.constants)) for _ in range(2)]


def test_constant_domains_match_oracles_on_random_systems():
    both = named_together = sizes_3 = some_not_all = 0
    for sys_, ops, cands in _constant_cases():
        both += len(sys_.constants) == 2
        named_together += any({"e", "f"} <= set(variables_of_equation(eq))
                              for eq in sys_.equations)
        # the size-3 oracle tries every table with every constant value
        for n in (1, 2, 3) if len(ops) == len(sys_.constants) == 1 else (1, 2):
            models = oracle_models(sys_, n, ops)
            got = [record_line(m) for m in enumerate_models(sys_, n)]
            assert got == sorted(record_line(m) for m in models), f"{sys_} at size {n}"
            some_not_all += 0 < len(models) < n ** (n * n * len(ops) + len(sys_.constants))
            sizes_3 += n == 3
            for cand in cands:
                want = [m for m in models
                        if not o_satisfies(dict(m.tables), cand, n, dict(m.constants))]
                assert list(search(sys_, n, ops, cand)) == want, \
                    f"{sys_} with {cand} at size {n}"
    # enough of each kind that a value left ruled out, or a pair checked
    # before both its cells are written, shows
    assert both >= 8 and named_together >= 5 and sizes_3 >= 10 and some_not_all >= 30


def test_a_constant_ruled_out_before_any_slot_means_no_model():
    # fuzz6, fuzz14, fuzz19 and fuzz23 each have an axiom x = e, which no
    # algebra of two or more elements satisfies: its instances rule out
    # every value of e before any slot is written, so the plan is None and
    # there is nothing to walk (a 200,000-node walk at size 3 found no model
    # and hit its cap); the size-2 oracle agrees
    cases = {sys_.name: (sys_, table_ops) for sys_, table_ops, _ in _random_cases()}
    for name in ("fuzz6", "fuzz14", "fuzz19", "fuzz23"):
        sys_, table_ops = cases[name]
        assert any(isinstance(eq.lhs, Var) and isinstance(eq.rhs, Var)
                   and len({eq.lhs.name, eq.rhs.name} - sys_.constants) == 1
                   for eq in sys_.equations), name
        assert oracle_models(sys_, 2, table_ops) == []
        ops = tuple(op for op in OP_ORDER if op in table_ops)
        for n in (2, 3):
            assert models._plan(sys_, n, ops) is None, (name, n)
            assert models.count_models(sys_, n, opts=EnumOptions(ops=table_ops)) == 0
            assert list(models._vectors(sys_, n, ops, None, 1)) == []  # no node counted


def _check_canonical(alg):
    size, tables, constants = oracle_canonical(alg)
    entries = [x for _, t in tables for row in t for x in row] + [v for _, v in constants]
    assert canonical_form(alg).split(b";", 3)[3] == bytes(entries), alg
    assert is_canonical(alg) == (algebra_tuple(alg) == (size, tables, constants)), alg


def test_canonical_form_and_test_match_oracle():
    # every size-2 bundle of one to three tables, with and without a constant
    for k in (1, 2, 3):
        ops = OP_ORDER[:k] if k < 3 else OP_ORDER
        for combo in itertools.product(all_tables(2), repeat=k):
            for constants in ({}, {"e": 0}, {"e": 1}):
                _check_canonical(make_algebra(2, dict(zip(ops, combo)), constants))
    # seeded size-3 algebras carrying one or two constants
    rng = random.Random(2003)
    for _ in range(500):
        ops = rng.sample(OP_ORDER, rng.choice((1, 2, 3)))
        tables = {op: [[rng.randrange(3) for _ in range(3)] for _ in range(3)] for op in ops}
        names = rng.sample(["e", "f"], rng.choice((1, 2)))
        _check_canonical(make_algebra(3, tables, {x: rng.randrange(3) for x in names}))


# ---------------------------------------------------------------------------
# records written from entry vectors

def _fuzz_systems():
    """(system, tables to instantiate, sizes) for every system above, and
    for Mx_neutral (a constant) and G1."""
    for sys_, table_ops, _ in _random_cases():
        yield sys_, table_ops, (1, 2)
    for sys_ in _static_systems():
        yield sys_, None, (1, 2, 3) if len(system_ops(sys_)) == 1 else (1, 2)
    for sys_, ops, _ in _constant_cases():
        yield sys_, None, (1, 2, 3) if len(ops) == len(sys_.constants) == 1 else (1, 2)
    for name in ("Mx_neutral", "G1"):
        yield builtin_system(name), None, (1, 2, 3)


def test_cli_records_match_the_algebras_enumerate_models_yields(capsys, monkeypatch):
    systems = {}
    monkeypatch.setattr(cli, "_resolve_system",
                        lambda name: systems.get(name) or builtin_system(name))
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    runs = 0
    for sys_, table_ops, sizes in _fuzz_systems():
        systems[sys_.name] = sys_
        ops = ["--ops", ",".join(op.value for op in table_ops)] if table_ops else []
        for n, iso in itertools.product(sizes, (False, True)):
            opts = EnumOptions(up_to_iso=iso, ops=table_ops)
            want = "".join(record_line(a) + "\n" for a in enumerate_models(sys_, n, opts))
            argv = ["enumerate", "--system", sys_.name, "--size", str(n), *ops,
                    *["--up-to-iso"] * iso]
            assert cli.main([*argv, "--format", "records"]) == 0
            assert capsys.readouterr().out == want, f"{sys_} at size {n}, iso {iso}"
            assert cli.main([*argv, "--count"]) == 0
            assert capsys.readouterr().out == f"{want.count(chr(10))}\n"
            runs += bool(want)
    assert runs >= 200


#: the most models a run of the raw records test writes
RAW_LIMIT = 20_000


def _raw_record_cases():
    """(system, tables to instantiate, size): the 15 built-ins, C0+Mx_neutral
    and C1+Mldiv_neutral at sizes 1-3, and the random systems at sizes 1-2,
    and at size 3 where the search leaves free slots in its tail (so each
    leaf stands for many models) and finds its first model within 100,000
    nodes (the others take up to seconds a run)."""
    for name in (*BUILTIN_NAMES, "C0+Mx_neutral", "C1+Mldiv_neutral"):
        sys_ = merge([builtin_system(part) for part in name.split("+")])
        for n in (1, 2, 3):
            yield sys_, None, n
    for sys_, table_ops, _ in _random_cases():
        yield sys_, table_ops, 1
        yield sys_, table_ops, 2
        ops = tuple(op for op in OP_ORDER if op in table_ops)
        plan = models._plan(sys_, 3, ops)
        if plan and plan[-1][1]:
            try:
                next(models._vectors(sys_, 3, ops, None, 100_000), None)
            except ResourceLimitError:
                continue
            yield sys_, table_ops, 3


@pytest.mark.parametrize("batch", [512, pytest.param(2, marks=pytest.mark.slow)])
def test_raw_records_match_record_line_over_enumerate_models(batch, tmp_path, capsys,
                                                             monkeypatch):
    # raw records, uncapped and with the cap at 1, at the end of a chunk of
    # lines (the block writer's leaves per chunk times n**m), at the count
    # less one, at it and past it (past RAW_LIMIT models: at the chunk's end
    # and one past it), without a cache and on a cold one, in batches of 512
    # lines (the CLI's, 5 s) and of two (slow: 10 s), are
    # the lines record_line makes of the algebras enumerate_models yields,
    # cut at the cap, and in --format text the reference text of the same
    # algebras; a run the cap stops exits 3 and caches nothing
    assert cli._BATCH == 512
    systems = {}
    monkeypatch.setattr(cli, "_resolve_system",
                        lambda name: systems.get(name) or builtin_system(name))
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    monkeypatch.setattr(cli, "_BATCH", batch)
    parser = cli.build_parser()  # one for the 1,900 runs, half of whose time it took
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    written = {False: 0, True: 0}  # runs that wrote lines, by whether a leaf is many models
    caches = (tmp_path / f"cache{i}" for i in itertools.count())
    for sys_, table_ops, n in _raw_record_cases():
        systems[sys_.name] = sys_
        opts = EnumOptions(ops=table_ops)
        count = sum(1 for _ in itertools.islice(enumerate_vectors(sys_, n, opts), RAW_LIMIT + 1))
        count = count if count <= RAW_LIMIT else None
        algebras = list(itertools.islice(enumerate_models(sys_, n, opts),
                                         batch + 1 if count is None else count))
        formats = {"records": [record_line(a) + "\n" for a in algebras],
                   "text": [algebra_text(a) + "\n" for a in algebras]}
        want = formats["records"]
        plan = models._plan(sys_, n, models._enumerated_ops(sys_, n, opts))
        k = plan[-1][1] if plan else 0
        argv = ["enumerate", "--system", sys_.name, "--size", str(n),
                *(["--ops", ",".join(op.value for op in table_ops)] if table_ops else [])]
        chunk = (batch // n ** k or 1) * max(n ** m for m in range(k + 1) if n ** m <= batch)
        caps = {1, chunk, chunk + 1} if count is None else {
            None, *(cap for cap in (1, chunk, count - 1, count, count + 1) if 0 < cap <= count + 1)}
        for cap, (fmt, lines) in itertools.product(caps, formats.items()):
            stopped = cap is not None and (count is None or cap < count)
            expect = (cli.EXIT_RESOURCE if stopped else cli.EXIT_OK, "".join(lines[:cap]),
                      f"error: more than max_results={cap} models exist\n" if stopped else "")
            capped = [*argv, "--format", fmt, *(["--max-results", str(cap)] if cap else [])]
            assert cli.main(capped) == expect[0], capped
            assert (expect[0], *capsys.readouterr()) == expect, capped
            cache = next(caches)
            assert cli.main([*capped, "--cache-dir", str(cache)]) == expect[0], capped
            assert (expect[0], *capsys.readouterr()) == expect, capped
            assert [p.read_text(encoding="utf-8") for p in cache.glob("*")] == (
                [] if stopped else ["".join(want) + cli._end_marker(len(want)) + "\n"])
            written[bool(k)] += bool(want)
    assert written[True] >= 200 and written[False] >= 200


# ---------------------------------------------------------------------------
# check and classify read records as entry vectors

def _record_file(rng, sys_):
    """Record lines of two to four shapes, sizes 1-3, each with the system's
    tables and constants and up to 3 tables and 2 constants in all; now and
    then a shape lacks one of them.  Some lines carry spaces or another key
    order, which no shape's pattern matches, so ``json`` reads them."""
    need_ops, need_names = system_ops(sys_), sorted(sys_.constants)
    shapes = []
    for _ in range(rng.randint(2, 4)):
        ops = {*need_ops, *rng.sample(OP_ORDER, rng.randint(0, 3 - len(need_ops)))}
        names = {*need_names, *rng.sample(["d", "f"], rng.randint(0, 2 - len(need_names)))}
        if rng.random() < 0.1:
            ops.discard(rng.choice(OP_ORDER))
        if rng.random() < 0.1 and names:
            names.discard(rng.choice(sorted(names)))
        shapes.append((rng.randint(1, 3), [op for op in OP_ORDER if op in ops], sorted(names)))
    lines = []
    for _ in range(rng.randint(1, 30)):
        n, ops, names = rng.choice(shapes)
        rec = {"size": n,
               "ops": {op.value: [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
                       for op in ops},
               "constants": {x: rng.randrange(n) for x in names}}
        style = rng.random()
        lines.append(json.dumps(rec) if style < 0.15 else
                     json.dumps(dict(reversed(rec.items())), separators=(",", ":"))
                     if style < 0.25 else json.dumps(rec, separators=(",", ":")))
    return lines


def _expected_check(sys_, algebras, fmt):
    """check's (exit, stdout, stderr), equation by equation through
    find_violation, in the order check meets them."""
    lines, code = [], cli.EXIT_OK
    try:
        for alg in algebras:
            bound = bind_constants(alg, sys_)
            failed, witness = next(((eq, w) for eq in sys_.equations
                                    if (w := find_violation(alg, eq, bound)) is not None),
                                   (None, None))
            if failed is not None:
                code, witness = cli.EXIT_NEGATIVE, tuple(sorted(witness.items()))
            lines.append(cli._check_line(sys_.name, failed, witness, fmt))
    except (MissingConstantError, MissingTableError) as exc:
        return cli.EXIT_CONFIG, "", f"error: {exc}\n"
    return code, "".join(line + "\n" for line in lines), ""


def _expected_classify(algebras, fmt):
    """classify's stdout, from the oracle's scans of each table."""
    out = []
    for alg in algebras:
        n, tables = alg.size, dict(alg.tables)
        reports = tuple((op, reference_report(tables[op], n) if op in tables else None)
                        for op in OP_ORDER)
        coincide = reference_coincide(tables, n) if len(tables) == 3 else (None, None)
        out.append(cli._classify_text(StructureReport(n, reports, *coincide), fmt) + "\n")
    return "".join(out)


def test_check_and_classify_on_entry_vectors_match_the_scans(tmp_path, capsys, monkeypatch):
    systems = {}
    monkeypatch.setattr(cli, "_resolve_system",
                        lambda name: systems.get(name) or builtin_system(name))
    rng = random.Random(1895_14)
    cases = [sys_ for sys_, _, _ in _random_cases()] + [sys_ for sys_, _, _ in _constant_cases()]
    cases += [builtin_system(name) for name in ("C0", "C1", "Mx_neutral", "G1")]
    cases += [empty_system()] * 5
    f = tmp_path / "records.jsonl"
    codes, shapes, missed = set(), set(), 0
    for sys_ in cases:
        systems[sys_.name] = sys_
        lines = _record_file(rng, sys_)
        f.write_text("".join(line + "\n" for line in lines))
        algebras = [from_record(json.loads(line)) for line in lines]
        shapes |= {(alg.size, len(alg.tables), len(alg.constants)) for alg in algebras}
        missed += any(" " in line or line.startswith('{"c') for line in lines)
        for fmt in ("text", "records"):
            got = cli.main(["check", "--system", sys_.name, "--algebra", str(f), "--format", fmt])
            out, err = capsys.readouterr()
            assert (got, out, err) == _expected_check(sys_, algebras, fmt), sys_
            codes.add(got)
            assert cli.main(["classify", "--algebra", str(f), "--format", fmt]) == 0
            assert capsys.readouterr().out == _expected_classify(algebras, fmt), sys_
    # satisfied, failed and wrong-shaped records of every size, number of
    # tables and number of constants, read by both readers
    assert codes == {0, 1, 2} and missed >= len(cases) // 2
    assert [set(column) for column in zip(*shapes)] == [{1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2}]
