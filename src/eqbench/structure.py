"""Structural classification of finite algebras: commutativity,
associativity, neutral elements, groups, latin squares, and whether the
three operations of a model collapse into one (the coincidence property).

Each check is a scan in lexicographic order that stops at its first
failing tuple; every False verdict carries that tuple, the
lexicographically first, as its witness.
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
    return _op_report(*_witnesses(tuple(chain.from_iterable(alg.table(op)))))


#: the most cells the tables a TableReports keeps may hold; every table of
#: size 3 fits (3^9 tables of 9 cells)
_MEMO_CELLS = 9 * 3 ** 9


class TableReports(dict):
    """A table's cells, row-major, -> its report, scanned on first lookup;
    one report is built per distinct ``_witnesses`` and shared by every
    table that has them.  All are dropped when keeping one more table would
    pass _MEMO_CELLS cells, and a table larger than that is kept alone.

    ``answer`` keeps what a caller makes of each classification under the
    ids of the shape and reports it was made from; each answer holds those
    objects, so no id it is keyed by is reused while it is kept, and the
    answers are dropped with the tables."""

    def __init__(self):
        super().__init__()
        self.interned = {}  # witnesses -> their report
        self.answers = {}
        self.held = 0  # cells

    def __missing__(self, cells: tuple) -> OpReport:
        self.held += len(cells)
        if self.held > _MEMO_CELLS:
            self.clear()
            self.interned.clear()
            self.answers.clear()
            self.held = len(cells)
        facts = _witnesses(cells)
        report = self.interned.get(facts)
        if report is None:
            report = self.interned[facts] = _op_report(*facts)
        self[cells] = report
        return report

    def answer(self, n: int, ops: tuple, cells, render):
        """``render`` of the report of the algebra of size ``n`` with the
        tables ``ops`` whose entry vector is ``cells``, as ``classify_structure``
        gives it, rendered once per size, ``ops`` object, table reports and
        coincidence while kept."""
        found, coincide = self._classified(n, ops, cells)
        key = (n, id(ops), *map(id, found), *coincide)
        kept = self.answers.get(key)
        if kept is None:
            kept = self.answers[key] = render(_report(n, ops, found, coincide)), ops, found
        return kept[0]

    def _classified(self, n: int, ops: tuple, cells) -> tuple:
        """(the reports of the tables ``ops``, in that order, coincidence)."""
        found = [self[table] for table in _runs(n * n, len(ops))(cells)]
        return found, _coincide(n, cells) if len(ops) == len(OP_ORDER) else (None, None)


@lru_cache(maxsize=None)
def _runs(width: int, count: int) -> itemgetter:
    """A getter of the first ``count`` runs of ``width`` items of a tuple,
    as a tuple of tuples (a table's rows, an entry vector's tables)."""
    if count < 2:  # itemgetter needs an item, and returns one item alone, not in a tuple
        return lambda cells: (cells[:width],) * count
    return itemgetter(*[slice(i, i + width) for i in range(0, count * width, width)])


@lru_cache(maxsize=None)
def _lines(n: int) -> tuple:
    """(rows, columns, whether a line is a permutation of the carrier), the
    first two each from a table's cells, row-major, of size ``n``."""
    rows = _runs(n, n)
    cols = rows if n == 1 else itemgetter(*[slice(c, n * n, n) for c in range(n)])
    if n <= 6:  # at most 720 permutations
        return rows, cols, set(permutations(range(n))).__contains__
    return rows, cols, lambda line: set(line) == set(range(n))


def _witnesses(cells: tuple) -> tuple:
    """The facts that decide the report of one table, its cells row-major:
    the first (a, b) with ab != ba, the first (a, b, c) with (ab)c != a(bc),
    the first line (each row, then each column) that is not a permutation of
    the carrier, and the identity elements.  Each scan runs in lexicographic
    order and stops at its first failure; a fact that holds is None (no
    identity: ``()``)."""
    n = isqrt(len(cells))
    rows, columns, is_perm = _lines(n)
    t, cols = rows(cells), columns(cells)
    rng = range(n)
    comm_w = None if t == cols else _first_noncommuting(t, cols, rng)
    assoc_w = _first_nonassociative(t, rng)
    latin_w = _first_nonpermutation(t + cols, is_perm)
    if latin_w is not None:
        kind, i = divmod(latin_w, n)
        latin_w = ("row", "col")[kind], i
    carrier = tuple(rng)
    ids = tuple(e for e in rng if t[e] == cols[e] == carrier) if carrier in t else ()
    return comm_w, assoc_w, latin_w, ids


def _first_noncommuting(t: tuple, cols: tuple, rng: range) -> Optional[tuple]:
    for a in rng:
        row, col = t[a], cols[a]
        if row != col:
            for b in rng:
                if row[b] != col[b]:
                    return a, b
    return None


def _first_nonassociative(t: tuple, rng: range) -> Optional[tuple]:
    for a in rng:
        row = t[a]
        for b in rng:
            left, right = t[row[b]], t[b]  # (ab)c and bc, over c
            for c in rng:
                if left[c] != row[right[c]]:
                    return a, b, c
    return None


def _first_nonpermutation(lines: tuple, is_perm) -> Optional[int]:
    for i, line in enumerate(lines):
        if not is_perm(line):
            return i
    return None


def _op_report(comm_w, assoc_w, latin_w, ids) -> OpReport:
    """The report a table's ``_witnesses`` decide.  The group verdicts fail
    for the first missing requirement in the order associativity, identity,
    inverses (then commutativity).  In a finite associative table with an
    identity an element has an inverse exactly when its row is a
    permutation, so the first element without one is the row ``latin_w``
    names, and every column is a permutation where every row is."""
    group_r = (f"not associative at {assoc_w}" if assoc_w is not None
               else "no identity element" if not ids
               else f"no inverse for {latin_w[1]}" if latin_w is not None else None)
    abelian_r = group_r or (comm_w and f"not commutative at {comm_w}")
    return OpReport(comm_w is None, comm_w, assoc_w is None, assoc_w, latin_w is None, latin_w,
                    ids, group_r is None, group_r, abelian_r is None, abelian_r)


def classify_structure(alg: FiniteAlgebra) -> StructureReport:
    """Aggregate report; operations without a table get a None entry and the
    coincidence flag is only computed when all three tables are present."""
    return _report(alg.size, alg.ops, *TableReports()._classified(alg.size, alg.ops, alg.cells))


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
