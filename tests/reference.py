"""A derive-free reference verdict for the tests that check what ``derive``
proves.

``semantic_consequence`` consults ``derive`` before it searches at size 3,
so it cannot serve as an independent check of a proof.  This reference
runs the countermodel search (``search``, over ``models._vectors``) alone,
at each size in turn: first filling the candidate's tables first, which prunes hardest,
then in canonical table order for the first countermodel in enumeration
order.  It never calls ``derive``.
"""

from eqbench.axioms import system_ops
from eqbench.consequence import DEFAULT_SEARCH_NODES, HoldsUpTo, Refuted
from eqbench.models import _vectors, bind_constants, find_violation, shape_template
from eqbench.terms import OP_ORDER, operations_of_equation


def search(sys_, n, ops, cand=None, max_nodes=None):
    """The algebras of the entry vectors of ``models._vectors``, in its order."""
    yield from map(shape_template(n, ops, tuple(sorted(sys_.constants))).algebra,
                   _vectors(sys_, n, ops, cand, max_nodes))


def search_verdict(sys_, cand, max_size, max_nodes=DEFAULT_SEARCH_NODES):
    """Refuted with the first countermodel in enumeration order at the
    smallest size <= ``max_size``, or HoldsUpTo(max_size); raises
    ResourceLimitError when a search passes ``max_nodes``."""
    wanted = system_ops(sys_) | operations_of_equation(cand)
    cand_ops = operations_of_equation(cand)
    canonical = tuple(op for op in OP_ORDER if op in wanted)
    cand_first = tuple(sorted(canonical, key=lambda op: op not in cand_ops))
    for k in range(1, max_size + 1):
        if next(search(sys_, k, cand_first, cand, max_nodes), None) is not None:
            alg = next(search(sys_, k, canonical, cand, max_nodes))
            witness = find_violation(alg, cand, bind_constants(alg, sys_))
            return Refuted(alg, tuple(sorted(witness.items())))
    return HoldsUpTo(max_size)
