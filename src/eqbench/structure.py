"""Structural classification of finite algebras: commutativity,
associativity, neutral elements, groups, latin squares, and whether the
three operations of a model collapse into one (the coincidence property).

Every check is an exhaustive scan; every False verdict carries the
lexicographically first failing tuple as a witness.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, permutations
from math import isqrt
from operator import itemgetter
from typing import NamedTuple, Optional

from .models import FiniteAlgebra
from .terms import OP_ORDER, Op


def is_commutative(alg: FiniteAlgebra, op: Op):
    """(flag, witness): witness is the first (a, b) with a∘b != b∘a."""
    r = classify_op(alg, op)
    return r.commutative, r.commutative_witness


def is_associative(alg: FiniteAlgebra, op: Op):
    """(flag, witness): witness is the first (a, b, c) breaking (a∘b)∘c = a∘(b∘c)."""
    r = classify_op(alg, op)
    return r.associative, r.associative_witness


def identity_elements(alg: FiniteAlgebra, op: Op) -> tuple:
    """All e with a∘e = e∘a = a for every a (there is at most one, but the
    scan does not assume that)."""
    return classify_op(alg, op).identity_elements


def is_latin_square(alg: FiniteAlgebra, op: Op):
    """(flag, witness): each row and column must be a permutation of the
    carrier; the witness names the first offending line."""
    r = classify_op(alg, op)
    return r.latin_square, r.latin_square_witness


def is_group(alg: FiniteAlgebra, op: Op):
    """(flag, reason): associativity, a two-sided identity, and an inverse
    for every element."""
    r = classify_op(alg, op)
    return r.is_group, r.group_reason


def is_abelian_group(alg: FiniteAlgebra, op: Op):
    r = classify_op(alg, op)
    return r.is_abelian_group, r.abelian_group_reason


def ops_coincide(alg: FiniteAlgebra):
    """(flag, witness): the product and left division tables agree entrywise
    and right division is the product with swapped arguments, i.e. exactly
    the collapse forced by the three-way coincidence axioms."""
    for op in OP_ORDER:
        alg.table(op)  # MissingTableError for the first one absent
    return _coincide(alg.size, alg.cells)


@lru_cache(maxsize=None)
def _product_twice(n: int) -> itemgetter:
    """The product table, then its transpose, from an entry vector of size ``n``."""
    return itemgetter(*range(n * n), *(a * n + b for b in range(n) for a in range(n)))


def _coincide(n: int, cells) -> tuple:
    """``ops_coincide`` of the three tables at the start of an entry vector."""
    if _product_twice(n)(cells) == cells[n * n:3 * n * n]:
        return True, None
    prod, ldiv, rdiv = (cells[i:i + n * n] for i in range(0, 3 * n * n, n * n))
    return False, next((a, b) for a in range(n) for b in range(n)
                       if prod[a * n + b] != ldiv[a * n + b] or rdiv[b * n + a] != prod[a * n + b])


class OpReport(NamedTuple):
    commutative: bool
    commutative_witness: Optional[tuple]
    associative: bool
    associative_witness: Optional[tuple]
    latin_square: bool
    latin_square_witness: Optional[tuple]
    identity_elements: tuple
    is_group: bool
    group_reason: Optional[str]
    is_abelian_group: bool
    abelian_group_reason: Optional[str]


class StructureReport(NamedTuple):
    size: int
    ops: tuple  # ((Op, OpReport | None), ...) over all three operations
    ops_coincide: Optional[bool]
    ops_coincide_witness: Optional[tuple]

    def op_report(self, op: Op) -> Optional[OpReport]:
        return dict(self.ops)[op]


def classify_op(alg: FiniteAlgebra, op: Op) -> OpReport:
    """The report of the table of ``op``."""
    return _scan(tuple(chain.from_iterable(alg.table(op))))


#: the most cells the tables a TableReports keeps may hold; every table of
#: size 3 fits (3^9 tables of 9 cells)
_MEMO_CELLS = 9 * 3 ** 9


class TableReports(dict):
    """A table's cells, row-major, -> its report, scanned on first lookup,
    equal reports shared; all are dropped when keeping one more table would
    pass _MEMO_CELLS cells, and a table larger than that is kept alone.

    ``answer`` keeps what a caller makes of each classification under the
    ids of the shape and reports it was made from; each answer holds those
    objects, so no id it is keyed by is reused while it is kept, and the
    answers are dropped with the tables."""

    def __init__(self):
        super().__init__()
        self.interned = {}
        self.answers = {}
        self.held = 0  # cells

    def __missing__(self, cells: tuple) -> OpReport:
        self.held += len(cells)
        if self.held > _MEMO_CELLS:
            self.clear()
            self.interned.clear()
            self.answers.clear()
            self.held = len(cells)
        report = _scan(cells)
        self[cells] = report = self.interned.setdefault(report, report)
        return report

    def answer(self, n: int, ops: tuple, cells, render):
        """``render(classify_cells(n, ops, cells, self))``, rendered once per
        size, ``ops`` object, table reports and coincidence while kept."""
        found, coincide = self._classified(n, ops, cells)
        key = (n, id(ops), *map(id, found), *coincide)
        kept = self.answers.get(key)
        if kept is None:
            kept = self.answers[key] = render(_report(n, ops, found, coincide)), ops, found
        return kept[0]

    def _classified(self, n: int, ops: tuple, cells) -> tuple:
        """(the reports of the tables ``ops``, in that order, coincidence)."""
        n2 = n * n
        found = [self[cells[i:i + n2]] for i in range(0, len(ops) * n2, n2)]
        return found, _coincide(n, cells) if len(ops) == len(OP_ORDER) else (None, None)


@lru_cache(maxsize=None)
def _lines(n: int) -> tuple:
    """(rows, columns, whether a line is a permutation of the carrier), the
    first two each from a table's cells, row-major, of size ``n``."""
    if n == 1:  # itemgetter of one item returns that item, not a tuple
        rows = cols = lambda cells: (cells[:1],)
    else:
        rows = itemgetter(*[slice(r * n, r * n + n) for r in range(n)])
        cols = itemgetter(*[slice(c, n * n, n) for c in range(n)])
    if n <= 6:  # at most 720 permutations
        return rows, cols, set(permutations(range(n))).__contains__
    return rows, cols, lambda line: set(line) == set(range(n))


def _scan(cells: tuple) -> OpReport:
    """Every property of one table, each scanned once over the table and its
    transpose.  Witnesses are the lexicographically first failing tuples;
    the group verdicts fail for the first missing requirement in the order
    associativity, identity, inverses (then commutativity)."""
    n = isqrt(len(cells))
    rows, columns, is_perm = _lines(n)
    t, cols = rows(cells), columns(cells)
    rng = range(n)
    comm_w = None if t == cols else next(
        (a, b) for a in rng if t[a] != cols[a] for b in rng if t[a][b] != cols[a][b])
    assoc_w = next(((a, b, c) for a in rng for b in rng
                    if t[t[a][b]] != tuple(map(t[a].__getitem__, t[b]))
                    for c in rng if t[t[a][b]][c] != t[a][t[b][c]]), None)
    latin = list(map(is_perm, t + cols))  # each row, then each column
    latin_w = None
    if not all(latin):
        kind, i = divmod(latin.index(False), n)
        latin_w = ("row", "col")[kind], i
    carrier = tuple(rng)
    ids = tuple(e for e in rng if t[e] == cols[e] == carrier) if carrier in t else ()
    group_r = (f"not associative at {assoc_w}" if assoc_w is not None
               else "no identity element" if not ids
               else next((f"no inverse for {a}" for a in rng
                          if not any(x == ids[0] == y for x, y in zip(t[a], cols[a]))), None))
    abelian_r = group_r or (comm_w and f"not commutative at {comm_w}")
    return OpReport(comm_w is None, comm_w, assoc_w is None, assoc_w, latin_w is None, latin_w,
                    ids, group_r is None, group_r, abelian_r is None, abelian_r)


def classify_structure(alg: FiniteAlgebra) -> StructureReport:
    """Aggregate report; operations without a table get a None entry and the
    coincidence flag is only computed when all three tables are present."""
    return classify_cells(alg.size, alg.ops, alg.cells, TableReports())


def classify_cells(n: int, ops: tuple, cells, reports: TableReports) -> StructureReport:
    """``classify_structure`` of the algebra of size ``n`` with the tables
    ``ops`` whose entry vector is ``cells``, its tables' reports from ``reports``."""
    return _report(n, ops, *reports._classified(n, ops, cells))


def _report(n: int, ops: tuple, found: list, coincide: tuple) -> StructureReport:
    by_op = dict(zip(ops, found))
    return StructureReport(n, tuple((op, by_op.get(op)) for op in OP_ORDER), *coincide)


def report_record(report: StructureReport) -> dict:
    """``report`` for ``json``, which writes its tuples as lists."""
    return {
        "size": report.size,
        "ops": {op.value: rep and rep._asdict() for op, rep in report.ops},
        "ops_coincide": report.ops_coincide,
        "ops_coincide_witness": report.ops_coincide_witness,
    }
