"""Write the derive golden, ``derive_records.jsonl``, to stdout.

Each line holds a system, an identity and the ``verdict_record`` of
``derive`` on it with default budgets: the 56 default candidates under six
systems, then 20 depth-2 identities under each of two neutral readings,
drawn from a fixed ``random.Random(0)``: 10 pairs of random terms, which
derive does not prove, and 10 terms paired with the result of three to six
random axiom rewrites.  Every proved identity gets two more lines that
carry a ``max_nodes`` budget: the least one under which derive proves it,
and one less, under which it gives Unknown.  They pin the number of nodes
derive visits before its two frontiers meet, so they change if the order in
which rewrites are tried or counted changes.  Regenerate only when a change
to ``derive``'s output is intended:

    PYTHONPATH=src python tests/golden/make_derive_records.py \\
        > tests/golden/derive_records.jsonl
"""

import json
import random

from eqbench.axioms import builtin_system
from eqbench.consequence import (CandidateSpace, DeriveBudgets, Proved, candidate_identities,
                                 derive, match, verdict_record)
from eqbench.terms import (OP_ORDER, App, Equation, Var, format_equation, substitute, subterms,
                           term_depth, variables_of)

CANDIDATE_SYSTEMS = ("C0", "C1", "C2", "C3", "Mx_as_printed", "Mx_neutral")
RANDOM_SYSTEMS = ("Mx_neutral", "Mldiv_neutral")
RANDOM_PER_SYSTEM = 10
NAMES = ["a", "b", "c", "e"]


def random_term(rng, d):
    if d == 0 or rng.random() < 0.3:
        return Var(rng.choice(NAMES))
    return App(rng.choice(OP_ORDER), random_term(rng, d - 1), random_term(rng, d - 1))


def rewrite_once(rng, sys_, t):
    """``t`` with one random subterm rewritten by a random axiom direction."""
    while True:
        eq = rng.choice(sys_.equations)
        src, dst = (eq.lhs, eq.rhs) if rng.random() < 0.5 else (eq.rhs, eq.lhs)
        sub = rng.choice(list(subterms(t)))
        sigma = {}
        if not match(src, sub, sys_.constants, sigma):
            continue
        for v in variables_of(dst):
            sigma.setdefault(v, Var(v) if v in sys_.constants else Var(rng.choice(NAMES)))
        new = substitute(dst, sigma)
        return _replace(t, sub, new)


def _replace(t, old, new):
    """``t`` with its first occurrence (in preorder) of ``old`` replaced."""
    if t == old:
        return new
    if isinstance(t, Var):
        return t
    left = _replace(t.left, old, new)
    if left != t.left:
        return App(t.op, left, t.right)
    return App(t.op, t.left, _replace(t.right, old, new))


def depth_two_identities(rng, sys_):
    """10 random pairs, then 10 rewrite chains, all distinct, each with a
    deeper side of depth exactly 2."""
    out = []
    while len(out) < 2 * RANDOM_PER_SYSTEM:
        lhs = random_term(rng, 2)
        if len(out) < RANDOM_PER_SYSTEM:
            rhs = random_term(rng, 2)
        else:
            rhs = lhs
            for _ in range(rng.randint(3, 6)):
                rhs = rewrite_once(rng, sys_, rhs)
        eq = Equation(lhs, rhs)
        if lhs != rhs and max(term_depth(lhs), term_depth(rhs)) == 2 and eq not in out:
            out.append(eq)
    return out


def cases():
    for name in CANDIDATE_SYSTEMS:
        for cand in candidate_identities(CandidateSpace()):
            yield name, cand
    rng = random.Random(0)
    for name in RANDOM_SYSTEMS:
        for eq in depth_two_identities(rng, builtin_system(name)):
            yield name, eq


def least_nodes(sys_, eq):
    """The least node budget under which derive proves ``eq``."""
    lo, hi = 1, DeriveBudgets().max_nodes
    while lo < hi:
        mid = (lo + hi) // 2
        if isinstance(derive(sys_, eq, DeriveBudgets(max_nodes=mid)), Proved):
            hi = mid
        else:
            lo = mid + 1
    return lo


def row(name, eq, max_nodes=None):
    budgets = None if max_nodes is None else DeriveBudgets(max_nodes=max_nodes)
    verdict = derive(builtin_system(name), eq, budgets)
    out = {"system": name, "identity": format_equation(eq)}
    if max_nodes is not None:
        out["max_nodes"] = max_nodes
    out["verdict"] = verdict_record(verdict)
    print(json.dumps(out, separators=(",", ":")))
    return verdict


def main():
    for name, eq in cases():
        if isinstance(row(name, eq), Proved):
            least = least_nodes(builtin_system(name), eq)
            row(name, eq, least)
            if least > 1:
                row(name, eq, least - 1)


if __name__ == "__main__":
    main()
