"""Structural classification of finite algebras: commutativity,
associativity, neutral elements, groups, latin squares, and whether the
three operations of a model collapse into one (the coincidence property).

Every check is an exhaustive scan; every False verdict carries the
lexicographically first failing tuple as a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    prod = alg.table(Op.PROD)
    ldiv = alg.table(Op.LDIV)
    rdiv = alg.table(Op.RDIV)
    if prod == ldiv and rdiv == tuple(zip(*prod)):
        return True, None
    n = alg.size
    for a in range(n):
        for b in range(n):
            if prod[a][b] != ldiv[a][b] or rdiv[b][a] != prod[a][b]:
                return False, (a, b)
    return True, None


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


@dataclass(frozen=True)
class StructureReport:
    size: int
    ops: tuple  # ((Op, OpReport | None), ...) over all three operations
    ops_coincide: Optional[bool]
    ops_coincide_witness: Optional[tuple]

    def op_report(self, op: Op) -> Optional[OpReport]:
        return dict(self.ops)[op]


def classify_op(alg: FiniteAlgebra, op: Op) -> OpReport:
    """Every property of one table, each scanned once over the table and its
    transpose.  Witnesses are the lexicographically first failing tuples;
    the group verdicts fail for the first missing requirement in the order
    associativity, identity, inverses (then commutativity)."""
    t = tuple(map(tuple, alg.table(op)))
    cols = tuple(zip(*t))
    rng = range(alg.size)
    comm_w = next(((a, b) for a in rng if t[a] != cols[a]
                   for b in rng if t[a][b] != cols[a][b]), None)
    assoc_w = next(((a, b, c) for a in rng for b in rng
                    if t[t[a][b]] != tuple(map(t[a].__getitem__, t[b]))
                    for c in rng if t[t[a][b]][c] != t[a][t[b][c]]), None)
    latin_w = next(((kind, i) for kind, lines in (("row", t), ("col", cols))
                    for i, line in enumerate(lines) if set(line) != set(rng)), None)
    ids = tuple(e for e in rng if t[e] == cols[e] == tuple(rng))
    group_r = (f"not associative at {assoc_w}" if assoc_w is not None
               else "no identity element" if not ids
               else next((f"no inverse for {a}" for a in rng
                          if not any(x == ids[0] == y for x, y in zip(t[a], cols[a]))), None))
    abelian_r = group_r or (comm_w and f"not commutative at {comm_w}")
    return OpReport(
        commutative=comm_w is None, commutative_witness=comm_w,
        associative=assoc_w is None, associative_witness=assoc_w,
        latin_square=latin_w is None, latin_square_witness=latin_w,
        identity_elements=ids,
        is_group=group_r is None, group_reason=group_r,
        is_abelian_group=abelian_r is None, abelian_group_reason=abelian_r,
    )


def classify_structure(alg: FiniteAlgebra) -> StructureReport:
    """Aggregate report; operations without a table get a None entry and the
    coincidence flag is only computed when all three tables are present.
    A table equal to an earlier one of ``alg`` shares its report."""
    tables = dict(alg.tables)
    by_table = {}
    for op, t in tables.items():
        if t not in by_table:
            by_table[t] = classify_op(alg, op)
    reports = tuple((op, by_table[tables[op]] if op in tables else None) for op in OP_ORDER)
    if len(tables) == len(OP_ORDER):
        coincide, coincide_w = ops_coincide(alg)
    else:
        coincide, coincide_w = None, None
    return StructureReport(alg.size, reports, coincide, coincide_w)


def report_record(report: StructureReport) -> dict:
    ops = {}
    for op, rep in report.ops:
        if rep is None:
            ops[op.value] = None
            continue
        ops[op.value] = {
            "commutative": rep.commutative,
            "commutative_witness": _w(rep.commutative_witness),
            "associative": rep.associative,
            "associative_witness": _w(rep.associative_witness),
            "latin_square": rep.latin_square,
            "latin_square_witness": _w(rep.latin_square_witness),
            "identity_elements": list(rep.identity_elements),
            "is_group": rep.is_group,
            "group_reason": rep.group_reason,
            "is_abelian_group": rep.is_abelian_group,
            "abelian_group_reason": rep.abelian_group_reason,
        }
    return {
        "size": report.size,
        "ops": ops,
        "ops_coincide": report.ops_coincide,
        "ops_coincide_witness": _w(report.ops_coincide_witness),
    }


def _w(witness):
    return list(witness) if witness is not None else None
