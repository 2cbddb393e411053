"""Finite algebras on {0..n-1}: evaluation, satisfaction, enumeration, and
isomorphism classification.

One evaluator serves every identity check: ``compile_check`` turns an
equation into closures over the entry vectors of one shape (size, table
order, constant names), one per term node, each giving the node's values
under all assignments at once.  Its callers compile each equation once per
shape and reuse it across records, search branches and pooled
countermodels.

Enumeration fills table cells in a fixed order (tables in canonical operation
order, row-major, then constants), so the emitted stream is in lexicographic
order of the serialized (tables, constants) bundle.  A model is an entry
vector (cells, then constants); an algebra is built only for a caller that
asks for one.  Its set-up, the plan (``_plan``), depends only on the
system, size and table order, and is built once and shared by the searches of
that layout.  Each search (``_blocks``) fills a vector of its own, the slots
and then the carrier's values, which the plan's entries index.  The fill
order fixes the last slot each check reads, and the check is tested when that
slot is written.  A ground instance of an axiom of depth <= 1 equates two
entries, cells or values.  One naming no constant joins their classes, and a
slot is forced from its class's root (its value, else its first slot), a run
of them in one step.  One naming a constant is a pair on the later of its
roots, and a failed pair rules out one value of the constant.  Other axioms
are compiled and tested whole.  A candidate's check joins a copy of one
slot's test, so the search emits only the models that violate it and the plan
is never changed.  An enumeration stops at the untested tail, the slots after
the last tested one: every value of the tail's k free slots gives a model.

Every reader of a search takes it as one stream, ``(k, got, leaves)``
(``_leaves``): the live leaf vectors the search reaches, each standing for
the n**k models its free slots give, and where each entry of those models
is read, from a slot of a product tuple or from the leaf.  ``_expand`` alone
builds entry vectors from it, in the walk's order; a count adds n**k per
leaf without building one; and record lines are written leaf by leaf
(``ShapeTemplate.write_blocks``), each entry's digits as one column, without
one either.  A walk with a candidate writes every slot, so each of its
leaves is one model, and a run up to isomorphism (``_models``) is the same
stream again, with each vector the filter keeps as a leaf of one model.

Both line formats are defined once, by the shape template of an
algebra's size, tables and constant names: one ``%`` format writes the
record lines, and one bytes pattern, built from the same pieces, checks
runs of them.  Below size 11 a run is read by keeping its digits, which are
each line's size and entries.  A text line has other pieces between the
same entries, so record lines become text by rewriting the pieces that
differ.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import namedtuple
from functools import cached_property, lru_cache, partial
from itertools import chain, islice, product, repeat
from operator import add, itemgetter, ne, sub
from typing import Callable, Iterator, Mapping, NoReturn, Optional

from .axioms import AxiomSystem, system_ops
from .terms import (
    Equation,
    OP_ORDER,
    Op,
    Term,
    Var,
    format_equation,
    operations_of_equation,
    term_depth,
    variables_of_equation,
)


class MissingTableError(LookupError):
    pass


class MissingConstantError(LookupError):
    pass


class ResourceLimitError(RuntimeError):
    """Enumeration exceeded a configured cap; distinct from normal completion."""


#: sizes above this need an explicit override (three free tables at n = 4
#: already mean 4^16 candidates per table).
DEFAULT_SIZE_LIMIT = 3


class FiniteAlgebra(namedtuple("FiniteAlgebra", "size tables constants", defaults=((), ()))):
    """Carrier {0..size-1} with up to three operation tables.

    ``tables`` is a tuple of (Op, row-major tuple-of-tuples) pairs in
    canonical operation order; ``constants`` maps distinguished constant
    names to elements, sorted by name.  Instances are immutable and hashable.
    """

    # no __slots__: the cached properties keep their values in __dict__

    @cached_property
    def ops(self) -> tuple:
        return tuple(op for op, _ in self.tables)

    def table(self, op: Op) -> tuple:
        for o, t in self.tables:
            if o is op:
                return t
        raise MissingTableError(f"missing table {op.value}")

    @cached_property
    def cells(self) -> tuple:
        """Every table entry, table after table, each row-major."""
        return tuple(chain.from_iterable(chain.from_iterable(t for _, t in self.tables)))


def make_algebra(size: int, tables: Mapping, constants: Mapping = ()) -> FiniteAlgebra:
    if size < 1:
        raise ValueError("carrier must be nonempty")
    packed = []
    for op in (op for op in OP_ORDER if op in tables):  # report the first bad table
        rows = tuple(tuple(int(x) for x in row) for row in tables[op])
        if len(rows) != size or any(len(r) != size for r in rows):
            raise ValueError(f"{op.value} table must be {size}x{size}")
        if any(not 0 <= x < size for r in rows for x in r):
            raise ValueError(f"{op.value} table entry out of range")
        packed.append((op, rows))
    consts = tuple(sorted((str(k), int(v)) for k, v in dict(constants).items()))
    if any(not 0 <= v < size for _, v in consts):
        raise ValueError("constant value out of range")
    return FiniteAlgebra(size, tuple(packed), consts)


# ---------------------------------------------------------------------------
# evaluation and satisfaction

#: the most assignments a compiled check evaluates in one pass
_MAX_WIDTH = 729


@lru_cache(maxsize=None)
def _columns(n: int, k: int) -> tuple:
    """Column i holds the value of variable i in each assignment of k
    variables into {0..n-1}, the assignments counted up lexicographically."""
    return tuple(zip(*itertools.product(range(n), repeat=k)))


def _node(t: Term, n: int, base: Mapping, slot: Mapping, columns: Mapping, width: int):
    """Closure from a cell vector to the values of ``t`` under all ``width``
    assignments.  An operation of two free variables is one lookup; names
    and tables are looked up in preorder, as evaluation would meet them."""
    if isinstance(t, Var):
        if t.name in columns:
            col = columns[t.name]
            return lambda c: col
        if t.name not in slot:
            raise KeyError(f"no binding for variable {t.name!r}")
        s = slot[t.name]
        return lambda c: (c[s],) * width
    if t.op not in base:
        raise MissingTableError(f"missing table {t.op.value}")
    b = base[t.op]
    if (isinstance(t.left, Var) and isinstance(t.right, Var)
            and t.left.name in columns and t.right.name in columns):
        index = [b + x * n + y for x, y in zip(columns[t.left.name], columns[t.right.name])]
        if width == 1:
            i = index[0]
            return lambda c: (c[i],)
        return itemgetter(*index)
    left = _node(t.left, n, base, slot, columns, width)
    right = _node(t.right, n, base, slot, columns, width)
    return lambda c: tuple([c[b + x * n + y] for x, y in zip(left(c), right(c))])


def _compile(eq: Equation, n: int, base: Mapping, slot: Mapping):
    """Checker for ``eq`` on cell vectors where each operation's table starts
    at ``base[op]`` and each constant sits at ``slot[name]``: it returns the
    first failing assignment of the other variables, as find_violation
    does, or None.  At most _MAX_WIDTH assignments are evaluated at once:
    beyond that, the values of the first variables are looped over and
    appended to the vector, where they are read like constants."""
    free = tuple(x for x in variables_of_equation(eq) if x not in slot)
    split = len(free) - max(k for k in range(len(free) + 1) if n ** k <= _MAX_WIDTH)
    outer, inner = free[:split], free[split:]
    slot = {**slot, **{x: j - split for j, x in enumerate(outer)}}
    columns = _columns(n, len(inner))
    bound = dict(zip(inner, columns))
    lhs = _node(eq.lhs, n, base, slot, bound, n ** len(inner))
    rhs = _node(eq.rhs, n, base, slot, bound, n ** len(inner))

    def check(cells):
        left, right = lhs(cells), rhs(cells)
        if left == right:
            return None
        i = list(map(ne, left, right)).index(True)
        return {x: col[i] for x, col in zip(inner, columns)}

    def check_outer(cells):
        for values in itertools.product(range(n), repeat=split):
            found = check([*cells, *values])
            if found is not None:
                return dict(zip(outer, values)) | found
        return None

    return check_outer if split else check


def _layout(n: int, ops, names) -> tuple:
    """(base, slot) for size-``n`` tables of ``ops``, one after another and
    each row-major, followed by constants ``names``."""
    base = {op: i * n * n for i, op in enumerate(ops)}
    return base, {name: len(base) * n * n + k for k, name in enumerate(names)}


# Every search gets its checks here: rank C0-C3 asks for 91 checkers (of 273
# lookups), compare for 155, a query list for 604-609 (its 190-200 hits all
# come within one question), rank over all 15 built-ins for 493; ~0.9 kB each.
@lru_cache(maxsize=256)
def compile_check(eq: Equation, n: int, ops: tuple, names: tuple, bound=None):
    """Checker for ``eq`` on the entry vectors of size ``n`` with the tables
    ``ops`` and the constants ``names``: the variables in ``bound`` (all of
    ``names`` by default) read their constants' values, and it returns the
    first failing assignment of the others, as find_violation does, or None.
    The 256 checkers last asked for are kept and shared by their callers."""
    base, slot = _layout(n, ops, names)
    if bound is not None:
        slot = {x: slot[x] for x in bound}
    return _compile(eq, n, base, slot)


def _in_carrier(alg: FiniteAlgebra, values: Mapping) -> Mapping:
    """``values``, or IndexError if one lies outside the carrier: a compiled
    check would read it as an offset into the wrong cells."""
    if not all(0 <= x < alg.size for x in values.values()):
        raise IndexError(f"a value of {dict(values)} lies outside the carrier")
    return values


def eval_term(alg: FiniteAlgebra, t: Term, v: Mapping) -> int:
    """The value of ``t`` when its variables take the values in ``v``."""
    base, slot = _layout(alg.size, alg.ops, v)
    value = _node(t, alg.size, base, slot, {}, 1)
    return value(alg.cells + tuple(_in_carrier(alg, v).values()))[0]


def find_violation(alg: FiniteAlgebra, eq: Equation, constants: Optional[Mapping] = None):
    """First assignment (variables in first-occurrence order, values counted
    up lexicographically) on which the two sides differ, or None."""
    fixed = _in_carrier(alg, constants) if constants else {}
    return compile_check(eq, alg.size, alg.ops, tuple(fixed))(alg.cells + tuple(fixed.values()))


def satisfies(alg: FiniteAlgebra, eq: Equation, constants: Optional[Mapping] = None) -> bool:
    """True iff the identity holds for every assignment into the carrier."""
    return find_violation(alg, eq, constants) is None


def bind_constants(alg: FiniteAlgebra, sys: AxiomSystem) -> dict:
    values = dict(alg.constants)
    bound = {}
    for name in sorted(sys.constants):
        if name not in values:
            raise MissingConstantError(f"system {sys.name!r} names constant {name!r} "
                                       f"but the algebra does not define it")
        bound[name] = values[name]
    return bound


def satisfies_all(alg: FiniteAlgebra, sys: AxiomSystem) -> bool:
    """True iff every equation of ``sys`` holds."""
    bound = bind_constants(alg, sys)
    return all(find_violation(alg, eq, bound) is None for eq in sys.equations)


# ---------------------------------------------------------------------------
# enumeration

class EnumOptions(namedtuple("EnumOptions", "up_to_iso max_results ops allow_large")):
    __slots__ = ()

    def __new__(cls, up_to_iso: bool = False, max_results: Optional[int] = None,
                # operations to instantiate; defaults to those mentioned by the system
                ops: Optional[frozenset] = None,
                # permit sizes above DEFAULT_SIZE_LIMIT
                allow_large: bool = False):
        if max_results is not None and max_results < 1:
            raise ValueError("max_results must be >= 1")
        return super().__new__(cls, up_to_iso, max_results, ops, allow_large)


def _ordered_ops(sys: AxiomSystem, opts: EnumOptions) -> tuple:
    wanted = opts.ops if opts.ops is not None else system_ops(sys)
    return tuple(op for op in OP_ORDER if op in wanted)


def _getter(got) -> Callable:
    """A getter of the items ``got`` of a sequence, as a sequence: an
    itemgetter of one item returns the item itself."""
    if len(got) > 1:
        return itemgetter(*got)
    return itemgetter(slice(got[0], got[0] + 1) if got else slice(0))


# rank over all 15 built-ins builds 105 plans
@lru_cache(maxsize=128)
def _plan(sys: AxiomSystem, n: int, ops: tuple) -> Optional[tuple]:
    """The set-up all searches of ``sys`` at size ``n`` over ``ops`` share,
    the 128 last used kept; None: no model."""
    n2 = n * n
    names = tuple(sorted(sys.constants))
    base, slot_of = _layout(n, ops, names)
    total = len(ops) * n2 + len(names)
    roots = list(range(total + n))  # classes of equal entries: the slots, then the values
    pairs = {}  # each free slot's pairs, as (entry, keep, bits)
    conditional = []  # (entry, entry, constant, its value) of each instance naming a constant
    checks = {}  # (compiled check, whether it must hold) under the last slot it reads
    unsat, at_start = False, -1  # at_start: the constants' live values before any slot is written

    def find(e):  # the root of e's class, halving the path to it
        while roots[e] != e:
            roots[e] = e = roots[roots[e]]
        return e

    def first(e):  # a class's root comes first: its value if it has one, else its first slot
        return e < total, e

    def last_read(used, free):  # the last slot of the tables used and the constants in free
        named = slot_of.keys() & free
        if named:  # the constants come after the tables
            return max(map(slot_of.get, named))
        return max(map(base.get, used), default=-n2) + n2 - 1  # -1 when it reads none

    def cond(entry, x, v):  # (entry, mask ruling out value v of x, x's n bits)
        return entry, ~(1 << names.index(x) * n + v), (1 << n) - 1 << names.index(x) * n

    for x, s in slot_of.items():  # a constant's own slot rules out its other values
        pairs[s] = [cond(total + v, x, v) for v in range(n)]
    for eq in sys.equations:
        used = operations_of_equation(eq)
        missing = [op.value for op in OP_ORDER if op in used and op not in ops]
        if missing:
            raise MissingTableError(f"missing table {', '.join(missing)}")
        free = variables_of_equation(eq)
        named = slot_of.keys() & free
        if term_depth(eq.lhs) > 1 or term_depth(eq.rhs) > 1 or len(named) > 1:
            checks.setdefault(last_read(used, free), []).append(
                (compile_check(eq, n, ops, names), True))
            continue
        for values in itertools.product(range(n), repeat=len(free)):
            env = dict(zip(free, values))
            a, b = (total + env[t.name] if isinstance(t, Var) else base[t.op]  # a value or a cell
                    + env[t.left.name] * n + env[t.right.name] for t in (eq.lhs, eq.rhs))
            if named:  # restated on the roots once every class is joined
                conditional.extend((a, b, x, env[x]) for x in named)
                continue
            root, other = sorted((find(a), find(b)), key=first)  # join the two classes
            unsat = unsat or root != other >= total  # two values: no model
            roots[other] = root
    roots = [find(e) for e in range(total + n)]  # a slot not its own root is forced from it
    for a, b, x, v in conditional:  # equal roots: it holds
        a, b = sorted((roots[a], roots[b]), key=first)
        if a != b and b >= total:  # two values: v of x is ruled out before any slot is written
            _, keep, bits = cond(a, x, v)
            at_start &= keep
            unsat = unsat or not at_start & bits  # x has no value left: no model
        elif a != b:  # a pair on the later root, a free slot
            pairs.setdefault(b, []).append(cond(a, x, v))
    tests, below = [None] * total, total  # (the slot tested before, pairs, checks) per slot
    for s in sorted({*pairs, *checks}):
        tests[s], below = (below, pairs.get(s, ()), checks.get(s, ())), s
    tail = below + 1 if below < total else 0  # the untested slots after the last tested one

    def runs_ending_at(cut):  # each run ends at a tested slot, at ``cut`` and before a free one
        runs, start = [None] * total, 0  # (start, stop, blank, getter) at its first and last slot
        for s in range(total):
            if roots[s] == s:
                start = s + 1
            elif s in (cut, total - 1) or roots[s + 1] == s + 1 or tests[s] is not None:
                got = roots[start:s + 1]
                runs[start] = runs[s] = start, s + 1, [-1] * len(got), _getter(got)
                start = s + 1
        return runs

    # the tail's k free slots take the values of a product tuple that comes
    # before the search's vector, and every other entry reads what it reaches
    at = {s: i for i, s in enumerate(t for t in range(tail, total) if roots[t] == t)}
    got = tuple(at.get(r, len(at) + r) for r in roots[:total])
    return None if unsat else (  # the runs, then those split at each table's end
        total, names, last_read, tests, at_start, runs_ending_at(-1),
        {cut: runs_ending_at(cut) for cut in (base[op] + n2 - 1 for op in ops)},
        (tail, len(at), got))


def _vectors(sys: AxiomSystem, n: int, ops: tuple, cand: Optional[Equation] = None,
             max_nodes: Optional[int] = None) -> Iterator[tuple]:
    """Depth-first stream of the entry vectors (cells, table after table and
    each row-major, then the constants' values) of the models of ``sys`` of
    size ``n`` over the tables ``ops``, in fill order; with ``cand``, of those
    on which it fails; with ``max_nodes``, ResourceLimitError once more nodes
    are counted.  The vectors ``_expand`` builds of the search's ``_leaves``."""
    return _expand(n, *_leaves(sys, n, ops, cand, max_nodes))


def _leaves(sys: AxiomSystem, n: int, ops: tuple, cand: Optional[Equation] = None,
            max_nodes: Optional[int] = None) -> tuple:
    """(k, got, leaves) of a search, what every reader of one takes: the
    live leaf vectors of ``_blocks``, each standing for the n**k models its
    k free slots give, and where each entry of those models is read.  Entry
    i of the j-th model below a leaf is slot got[i] of the j-th product
    tuple of k values (the last counted up fastest) if got[i] < k, else entry
    got[i] - k of the leaf's vector.  A walk with ``cand`` or ``max_nodes``
    writes every slot, so each leaf is one model, its slots in order."""
    plan = _plan(sys, n, ops)
    if plan is None:  # no model
        return 0, (), iter(())
    *search, (tail, k, got) = plan
    if cand is not None or max_nodes is not None:  # slot by slot to the last
        tail, k, got = search[0], 0, range(search[0])
    return k, got, _blocks(search, n, ops, tail, cand, max_nodes)


def _expand(n: int, k: int, got, leaves) -> Iterator[tuple]:
    """The entry vectors of the models below each of ``leaves``, read as
    ``_leaves`` says, in the product's order, which is the walk's order."""
    get = _getter(got)
    if not k:  # one model per leaf
        return map(get, map(tuple, leaves))
    return chain.from_iterable(
        map(get, map(add, product(range(n), repeat=k), repeat(tuple(cells)))) for cells in leaves)


def _blocks(plan: list, n: int, ops: tuple, tail: int, cand: Optional[Equation] = None,
            max_nodes: Optional[int] = None) -> Iterator[list]:
    """The search behind ``_leaves``, on ``plan``, a ``_plan`` without its
    leaf: at each leaf it reaches, its vector (the slots, then the carrier's
    values), live, so it is read before the next leaf.  A search runs its
    layout's shared plan on a vector and masks of its own, and ``cand``'s
    check joins a copy of one slot's test.  It writes the slots before
    ``tail``: with ``cand`` or ``max_nodes`` every slot, and each leaf is a
    model.  An enumeration (neither) stops at the plan's untested tail, the
    slots after the last one with a test: no check reads them, so every value
    of its free slots (its forced ones copy the entries they reach) gives a
    model, and the leaf stands for the block of them."""
    total, names, last_read, tests, at_start, runs, split = plan
    cells = [-1] * total + list(range(n))  # the slots, then the values entries name
    if cand is not None:  # its check runs first in a copy of its last slot's test
        check = compile_check(cand, n, ops, names)
        cut = last_read(operations_of_equation(cand), variables_of_equation(cand))
        if cut < 0 and check(cells) is None:  # it holds, reading no slot
            return
        if cut >= 0:  # where a run passes a table's end ``cut``, it is split there
            runs, tests = split.get(cut, runs), tests.copy()
            below, tied, checked = tests[cut] or (
                next((s for s in range(cut - 1, -1, -1) if tests[s]), total), (), ())
            tests[cut] = below, tied, ((check, False), *checked)

    if not tail:  # no slot, or none tested
        yield cells
        return
    live = [-1] * total + [at_start]  # the mask each tested slot leaves; at total, at_start
    limit = float("inf") if max_nodes is None else max_nodes
    last = tail - 1
    nodes = slot = 0
    while True:
        run = runs[slot]
        if run is None:  # a free slot: its next value, or back out
            v = cells[slot] + 1
            if v == n:
                cells[slot] = -1
                if not slot:
                    return
                slot -= 1
                nodes += n
                if nodes > limit:
                    break
                continue
            cells[slot] = v
        else:  # a run: written going forward, cleared going back
            start, stop, blank, run_get = run
            if cells[start] >= 0:
                cells[start:stop] = blank
                nodes += n * (stop - max(start, 1))  # slot 0 counts none
                if nodes > limit:
                    break
                if not start:
                    return
                slot = start - 1
                continue
            cells[start:stop] = run_get(cells)
            slot = stop - 1
            v = cells[slot]
        test = tests[slot]
        if test is not None:  # a failed test leaves ``test`` set
            below, tied, checked = test
            mask = live[below]
            for entry, keep, bits in tied:
                if cells[entry] != v:
                    mask &= keep
                    if not mask & bits:
                        break
            else:
                live[slot] = mask
                for check, holds in checked:
                    if (check(cells) is None) is not holds:
                        break
                else:
                    test = None
            if test is not None:
                continue
        if slot < last:
            slot += 1
        else:  # a leaf, then on from the slot before it as if any tail were used up
            yield cells
    what = "enumeration" if cand is None else f"countermodel search for {format_equation(cand)!r}"
    raise ResourceLimitError(f"{what} exceeded {max_nodes} nodes at size {n}")


def enumerate_vectors(sys: AxiomSystem, n: int, opts: Optional[EnumOptions] = None
                      ) -> Iterator[tuple]:
    """The entry vectors of the algebras of size ``n`` over the system's
    operations satisfying it, of the shape ``models_template`` gives.

    With ``up_to_iso`` only the canonically least member of each isomorphism
    class is yielded.  Raises ResourceLimitError at once if ``n`` exceeds the
    default size limit without ``allow_large``, MissingTableError at once if
    an axiom needs a table the options leave out, and ResourceLimitError
    while iterating once ``max_results`` is surpassed.
    """
    opts = opts or EnumOptions()
    vectors = _expand(n, *_models(sys, n, opts))
    if opts.max_results is not None:
        vectors = _capped(vectors, opts.max_results)
    return vectors


def _check_size(n: int, allow_large: bool, name: str = "size"):
    """Raise on a model size ``n``, the argument ``name``, that is below 1,
    or above the default limit without ``allow_large``."""
    if n < 1:
        raise ValueError(f"{name} must be >= 1")
    if n > DEFAULT_SIZE_LIMIT and not allow_large:
        raise ResourceLimitError(
            f"{name} {n} exceeds the default limit of {DEFAULT_SIZE_LIMIT}; "
            "pass allow_large to override")


def _models(sys: AxiomSystem, n: int, opts: EnumOptions) -> tuple:
    """(k, got, leaves) of an enumeration of size ``n``, as ``_leaves`` gives
    them; raises on a size it refuses.  Up to isomorphism each vector the
    filter keeps is a leaf of one model, its entries in order."""
    _check_size(n, opts.allow_large)
    ops = _ordered_ops(sys, opts)
    k, got, leaves = _leaves(sys, n, ops)
    if not opts.up_to_iso:
        return k, got, leaves
    table = _relabeling_table(n, len(ops), len(sys.constants))  # n! rows, so built only here
    return 0, range(len(got)), filter(partial(_is_least, table), _expand(n, k, got, leaves))


def _capped(vectors: Iterator[tuple], cap: int) -> Iterator[tuple]:
    for k, v in enumerate(vectors):
        if k == cap:
            past_max_results(cap)
        yield v


def past_max_results(cap: int) -> NoReturn:
    """Raise the error of an enumeration that has more than ``cap`` models."""
    raise ResourceLimitError(f"more than max_results={cap} models exist")


def record_blocks(sys: AxiomSystem, n: int, opts: Optional[EnumOptions], batch: int
                  ) -> Iterator[str]:
    """The record lines of all the models ``enumerate_vectors`` yields,
    ``max_results`` aside, at most ``batch`` at a time.  A shape with
    ``digits`` is written by ``ShapeTemplate.write_blocks`` from the leaves
    of the enumeration, with no entry vector per model; any other shape's
    lines come from ``format`` over the vectors ``_expand`` builds."""
    opts = (opts or EnumOptions())._replace(max_results=None)
    k, got, leaves = _models(sys, n, opts)
    template = models_template(sys, n, opts)
    if template.digits:
        return map(bytearray.decode, template.write_blocks(leaves, got, k, batch))
    vectors, line = _expand(n, k, got, leaves), template.format + "\n"
    return ("".join(map(line.__mod__, cut))
            for cut in iter(lambda: list(islice(vectors, batch)), []))


def models_template(sys: AxiomSystem, n: int, opts: Optional[EnumOptions] = None
                    ) -> ShapeTemplate:
    """The shape of the models ``enumerate_vectors`` yields."""
    return shape_template(n, _ordered_ops(sys, opts or EnumOptions()),
                          tuple(sorted(sys.constants)))


def enumerate_models(sys: AxiomSystem, n: int, opts: Optional[EnumOptions] = None
                     ) -> Iterator[FiniteAlgebra]:
    """The algebras of the entry vectors of ``enumerate_vectors``, in its order."""
    vectors = enumerate_vectors(sys, n, opts)
    yield from map(models_template(sys, n, opts).algebra, vectors)


def count_models(sys: AxiomSystem, n: int, up_to_iso: bool = False,
                 opts: Optional[EnumOptions] = None) -> int:
    """How many vectors ``enumerate_vectors`` yields, raising as it does: each
    leaf of the enumeration adds the n**k models below it, so a raw count
    builds no vector, and one up to isomorphism adds 1 per vector kept."""
    opts = (opts or EnumOptions())._replace(up_to_iso=up_to_iso)
    k, _, leaves = _models(sys, n, opts)
    each, cap, count = n ** k, opts.max_results, 0
    for _ in leaves:
        count += each
        if cap is not None and count > cap:
            past_max_results(cap)
    return count


# ---------------------------------------------------------------------------
# isomorphism

@lru_cache(maxsize=None)
def _relabeling_table(n: int, tables: int, constants: int) -> tuple:
    """(perm, sources) per carrier relabeling, the identity first: entry k of
    the relabeled entry vector ``v`` (cells, then constants) is ``perm[v[sources[k]]]``."""
    out = []
    for perm in itertools.permutations(range(n)):
        inv = sorted(range(n), key=perm.__getitem__)
        cells = [t * n * n + inv[i] * n + inv[j]
                 for t in range(tables) for i in range(n) for j in range(n)]
        out.append((perm, (*cells, *range(tables * n * n, tables * n * n + constants))))
    return tuple(out)


def _relabeled(alg: FiniteAlgebra) -> tuple:
    """(the relabeling table for the shape of ``alg``, its entry vector)."""
    v = alg.cells + tuple(x for _, x in alg.constants)
    return _relabeling_table(alg.size, len(alg.tables), len(alg.constants)), v


def canonical_form(alg: FiniteAlgebra) -> bytes:
    """Serialized bundle minimized over all carrier relabelings.

    Two algebras get equal forms exactly when some bijection of carriers
    maps all tables and constants of one onto the other.
    """
    header = "%d;%s;%s;" % (
        alg.size,
        ",".join(op.value for op, _ in alg.tables),
        ",".join(name for name, _ in alg.constants),
    )
    table, v = _relabeled(alg)
    return header.encode() + min(
        bytes(map(perm.__getitem__, map(v.__getitem__, sources))) for perm, sources in table)


def _is_least(table: tuple, v: tuple) -> bool:
    """True iff no relabeling in ``table`` gives a smaller entry vector than ``v``."""
    if not v:
        return True
    first = v[0]
    for perm, sources in table[1:]:  # the first entry decides most comparisons
        head = perm[v[sources[0]]]
        if head < first or head == first and next(filter(None, map(  # the first difference
                sub, map(perm.__getitem__, map(v.__getitem__, sources)), v)), 0) < 0:
            return False
    return True


def is_canonical(alg: FiniteAlgebra) -> bool:
    """True iff no relabeling gives a smaller entry vector."""
    return _is_least(*_relabeled(alg))


# ---------------------------------------------------------------------------
# serialization

def to_record(alg: FiniteAlgebra) -> dict:
    return {
        "size": alg.size,
        "ops": {op.value: [list(row) for row in table] for op, table in alg.tables},
        "constants": {name: v for name, v in alg.constants},
    }


def _numeral(n: int) -> str:
    """Pattern of the numerals 0..n-1 as JSON writes them: no sign, no
    leading zero."""
    top = str(n - 1)
    k = len(top)
    # the numerals shorter than top
    alts = ["[0-9]"][:k - 1] + ["[1-9]" + "[0-9]" * j for j in range(1, k - 1)]
    for i, d in enumerate(top):  # as long: top's first i digits, then a smaller one
        low = 1 if i == 0 < k - 1 else 0
        if int(d) > low:
            alts.append(f"{top[:i]}[{low}-{int(d) - 1}]" + "[0-9]" * (k - 1 - i))
    return "|".join(alts + [top])


#: ``bytes.translate`` arguments that keep only the digits, each as its value
_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))
_NOT_DIGITS = bytes(sorted(set(range(256)).difference(b"0123456789")))
#: the ``bytes.translate`` table that writes each value below 10 as its digit
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


class ShapeTemplate(namedtuple("ShapeTemplate", "size ops names")):
    """The algebras of size ``size`` with the tables ``ops``, in that order,
    and the constants ``names``, and their record and text lines.

    An entry vector holds the cells, table after table, each row-major, then
    the constants' values.  The format and the patterns are built from the
    same pieces as ``json.dumps(to_record(alg), separators=(",", ":"))``;
    the pattern is compiled on first use.  The text line is built from the
    same pieces too, with its own around the tables and the constants.
    """

    # no __slots__: the cached properties keep their values in __dict__

    def _record(self, entry: str, literal, text: bool = False) -> str:
        """The record line, or with ``text`` the text line, with ``entry``
        for each entry and every other piece passed through ``literal``: the
        two hold the same tables, and differ only in the pieces around them
        and around the constants."""
        def listed(items):
            return literal("[") + literal(",").join(items) + literal("]")

        def keyed(names, value):
            return [literal(name + "=" if text else json.dumps(name) + ":") + value
                    for name in names]

        n = self.size
        tables = keyed([op.value for op in self.ops], listed([listed([entry] * n)] * n))
        constants = literal(",").join(keyed(self.names, entry))
        if text:
            return literal(" ").join([literal("size=%d" % n), *tables]
                                     + [literal("constants=") + constants] * bool(self.names))
        return (literal('{"size":%d,"ops":{' % n) + literal(",").join(tables)
                + literal('},"constants":{') + constants + literal("}}"))

    @cached_property
    def format(self) -> str:
        """``format % entries`` is the record line of an entry vector."""
        return self._record("%d", lambda s: s.replace("%", "%%"))

    @cached_property
    def _text_pieces(self) -> tuple:
        """(record piece, text piece) of each piece of a line between two
        entries, or an entry and an end of the line, where the two differ,
        in line order."""
        record, text = (self._record("\n", str, t).split("\n") for t in (False, True))
        return tuple((r, t) for r, t in zip(record, text) if r != t)

    def text(self, lines: str) -> str:
        """The text lines of ``lines``, record lines of this shape as
        ``format`` writes them: the pieces that differ are rewritten one after
        another, in line order.  That is exact while no constant's name holds
        a quote or a brace: each record piece holds one, and nothing else in
        the lines does once the pieces before it are rewritten."""
        for record, text in self._text_pieces:
            lines = lines.replace(record, text)
        return lines

    @cached_property
    def lines(self) -> re.Pattern:
        """Matches, in bytes, zero or more record lines whose entries lie in
        the carrier, each ending in a newline."""
        line = self._record("(?:%s)" % _numeral(self.size), re.escape)
        return re.compile(("(?:%s\n)*" % line).encode())

    @cached_property
    def digits(self) -> int:
        """The digits of each record line if they are the size's and one per
        entry, as below size 11 and for constant names without digits, else 0."""
        n = self.size
        if n > 10 or self.format.encode().translate(None, _NOT_DIGITS) != b"%d" % n:
            return 0
        return len(str(n)) + len(self.ops) * n * n + len(self.names)

    def read(self, data: bytes, pos: int, end: int) -> tuple:
        """(where the run of record lines that ``lines`` matches in
        ``data[pos:end]`` stops, their entry vectors), for a shape with
        ``digits``: the digits of the run, each as its value, hold each
        line's size and entries at a fixed stride."""
        stop = self.lines.match(data, pos, end).end()
        values = tuple(data[pos:stop].translate(_VALUES, _NOT_DIGITS))
        step, head = self.digits, len(str(self.size))
        return stop, [values[i:i + step - head] for i in range(head, len(values) + head, step)]

    @cached_property
    def _zeros(self) -> tuple:
        """(the record line, newline included, in bytes, of the entry vector
        of zeros; the offset of each entry's digit in it), for a shape with
        ``digits``: the size's digits come first, then one per entry."""
        line = (self.format % ((0,) * (self.digits - len(str(self.size)))) + "\n").encode()
        at = [i for i, c in enumerate(line) if c in b"0123456789"]
        return line, at[len(str(self.size)):]

    def write_blocks(self, leaves, got, k: int, batch: int) -> Iterator[bytearray]:
        """The record lines, in bytes, of the models below each leaf vector of
        a search (its slots, then the carrier's values), for a shape with
        ``digits``, each chunk read before the next is made: ``got`` and
        ``k`` say where each entry is read, as for ``_leaves``, so an entry
        vector is a leaf of one model, with k = 0 and ``got`` its entries in
        order.  A chunk has at most ``batch`` lines: the first n**m models of
        one leaf after another, as many leaves as fit, or of one leaf n**m
        models at a time.  Each fixed entry's column is one strided slice
        assignment to the chunk's line per leaf, each line is repeated n**m
        times, and each free slot's column is then one assignment more: the
        last m slots repeat the same digits in every chunk, and each other one
        is rewritten only where its value changes."""
        n, total = self.size, len(got)
        line, offsets = self._zeros
        line, step, each, m = bytearray(line), len(line), n ** k, k
        while n ** m > batch:
            m -= 1
        size, group = n ** m, batch // each or 1  # a chunk's models per leaf, and its leaves
        fixed, free = [], []  # (offset, slot) of each entry a slot fixes; (offset, run) of a free one
        for at, g in zip(offsets, got):
            if g < k:
                free.append((at, n ** (k - 1 - g)))
            elif g - k < total:
                fixed.append((at, g - k))
            else:  # a value of the carrier
                line[at] += g - k - total
        top = max((r + 1 for _, r in fixed), default=0)  # the slots read, all written
        pattern = [(at, _digit_runs(n, run, group * size)) for at, run in free if n * run <= size]
        changing = [(at, run) for at, run in free if n * run > size]
        runs = _digit_runs(n, size, n * size)
        leaves = map(itemgetter(slice(0, top)), leaves)
        for cut in iter(lambda: list(islice(leaves, group)), []):
            out = line * len(cut)
            digits = bytes(chain.from_iterable(cut)).translate(_DIGITS)
            for at, r in fixed:
                out[at::step] = digits[r::top]
            if size > 1:
                out = bytearray().join(out[i:i + step] * size for i in range(0, len(out), step))
            for at, column in pattern:
                out[at::step] = column[:len(out) // step]
            for start in range(0, each, size):
                for at, run in changing:
                    if not start % run:
                        v = start // run % n * size
                        out[at::step] = runs[v:v + size]
                yield out

    @cached_property
    def algebra(self) -> Callable[[tuple], FiniteAlgebra]:
        """The algebra of an entry vector."""
        n, ops, names = self.size, self.ops, self.names
        start = len(ops) * n * n

        def rows(b):  # the rows of the table at ``b``
            if n == 1:  # itemgetter of one item returns that item, not a tuple
                return lambda c: (c[b:b + 1],)
            return itemgetter(*[slice(b + r * n, b + r * n + n) for r in range(n)])

        getters = [(op, rows(i * n * n)) for i, op in enumerate(ops)]

        def algebra(c: tuple) -> FiniteAlgebra:
            return FiniteAlgebra(n, tuple([(op, get(c)) for op, get in getters]),
                                 tuple(zip(names, c[start:])))

        return algebra


@lru_cache(maxsize=None)
def _digit_runs(n: int, run: int, rows: int) -> bytes:
    """The digits 0 to n-1, each ``run`` times, over and over for ``rows``
    bytes, a multiple of n * run: a free slot's column in a block."""
    return b"".join(b"%d" % v * run for v in range(n)) * (rows // (n * run))


@lru_cache(maxsize=256)
def shape_template(n: int, ops: tuple, names: tuple) -> ShapeTemplate:
    return ShapeTemplate(n, ops, names)


def template_of(alg: FiniteAlgebra) -> ShapeTemplate:
    return shape_template(alg.size, alg.ops, tuple(name for name, _ in alg.constants))


def record_line(alg: FiniteAlgebra) -> str:
    """``alg`` as one line of JSON, the form ``from_record`` reads back."""
    return template_of(alg).format % (*alg.cells, *(v for _, v in alg.constants))


def from_record(rec: Mapping) -> FiniteAlgebra:
    """The algebra a record describes; ValueError for any malformed record."""
    try:
        ops = {Op(name): table for name, table in rec.get("ops", {}).items()}
        return make_algebra(int(rec["size"]), ops, rec.get("constants", {}))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed algebra record: {exc}") from exc
