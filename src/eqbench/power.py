"""Comparing axiom systems by deductive power.

Power is measured as inclusion between bounded consequence sets: identities
over a small candidate space that hold in every model up to a size bound.
Both bounds travel with every report; no absolute claim is made.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .axioms import AxiomSystem, system_content
from .consequence import CandidateSpace, consequence_set
from .terms import Equation, format_equation

EQUIVALENT = "equivalent"
FIRST_STRONGER = "first-stronger"
SECOND_STRONGER = "second-stronger"
INCOMPARABLE = "incomparable"


class PowerReport(NamedTuple):
    relation: str
    first: str
    second: str
    #: identity the first system has and the second lacks, if any
    witness_first_only: Optional[Equation]
    witness_second_only: Optional[Equation]
    budgets: tuple  # ((name, value), ...)


class RankReport(NamedTuple):
    systems: tuple           # names, in input order
    classes: tuple           # tuples of names with equal consequence sets
    edges: tuple             # (stronger, weaker) class representatives, Hasse-reduced
    budgets: tuple


def _budget_tuple(space: CandidateSpace, model_size: int) -> tuple:
    return (
        ("max_vars", space.max_vars),
        ("max_depth", space.max_depth),
        ("model_size", model_size),
    )


# consequence sets are pure functions of (system content, budgets); repeated
# comparisons share them
_set_cache: dict = {}


def _cset(sys: AxiomSystem, space: CandidateSpace, model_size: int) -> frozenset:
    key = (system_content(sys), space, model_size)
    hit = _set_cache.get(key)
    if hit is None:
        hit = frozenset(consequence_set(sys, space, model_size))
        _set_cache[key] = hit
    return hit


def _least(eqs) -> Optional[Equation]:
    return min(eqs, key=format_equation) if eqs else None


def compare(sys_a: AxiomSystem, sys_b: AxiomSystem,
            space: Optional[CandidateSpace] = None,
            model_size: int = 2) -> PowerReport:
    """Set inclusion between the two bounded consequence sets, with the
    lexicographically least witness for each strict difference."""
    space = space or CandidateSpace()
    ca = _cset(sys_a, space, model_size)
    cb = _cset(sys_b, space, model_size)
    only_a = ca - cb
    only_b = cb - ca
    if not only_a and not only_b:
        relation = EQUIVALENT
    elif not only_b:
        relation = FIRST_STRONGER
    elif not only_a:
        relation = SECOND_STRONGER
    else:
        relation = INCOMPARABLE
    return PowerReport(
        relation=relation,
        first=sys_a.name,
        second=sys_b.name,
        witness_first_only=_least(only_a),
        witness_second_only=_least(only_b),
        budgets=_budget_tuple(space, model_size),
    )


def rank_all(systems: Sequence[AxiomSystem],
             space: Optional[CandidateSpace] = None,
             model_size: int = 2) -> RankReport:
    """Pairwise power comparison summarized as equivalence classes plus the
    Hasse edges of the strictly-stronger order between them."""
    space = space or CandidateSpace()
    systems = list(systems)
    sets = [_cset(s, space, model_size) for s in systems]

    classes = []  # (consequence set, [names]) in first-appearance order
    for s, cs in zip(systems, sets):
        for held, names in classes:
            if held == cs:
                names.append(s.name)
                break
        else:
            classes.append((cs, [s.name]))

    reps = [names[0] for _, names in classes]
    stronger = {
        (reps[i], reps[j])
        for i, (ci, _) in enumerate(classes)
        for j, (cj, _) in enumerate(classes)
        if i != j and cj < ci  # strict subset: j's consequences inside i's
    }
    edges = sorted(
        (a, b) for a, b in stronger
        if not any((a, c) in stronger and (c, b) in stronger for c in reps)
    )
    return RankReport(
        systems=tuple(s.name for s in systems),
        classes=tuple(tuple(names) for _, names in classes),
        edges=tuple(edges),
        budgets=_budget_tuple(space, model_size),
    )


def power_record(report: PowerReport) -> dict:
    return {
        "relation": report.relation,
        "first": report.first,
        "second": report.second,
        "witness_first_only": _fmt(report.witness_first_only),
        "witness_second_only": _fmt(report.witness_second_only),
        "budgets": dict(report.budgets),
    }


def rank_record(report: RankReport) -> dict:
    return {
        "systems": list(report.systems),
        "classes": [list(c) for c in report.classes],
        "edges": [list(e) for e in report.edges],
        "budgets": dict(report.budgets),
    }


def _fmt(eq: Optional[Equation]) -> Optional[str]:
    return format_equation(eq) if eq is not None else None
