"""Deciding whether an identity follows from an axiom system.

Two complementary engines:

* the countermodel search (``models._vectors``) hunts for a finite model of
  the system on which the identity fails.  Its set-up for a (system, size,
  table order) is built once and shared by every search of that layout, and
  the candidate's check comes from ``models.compile_check``, as the pool's
  and the witness's do, so a candidate is compiled once per layout;
* ``derive`` searches for an equational derivation (reflexivity, symmetry,
  transitivity, congruence, substitution, axiom instances) within term-depth
  and step budgets, returning a replayable proof object.  Its work goes into
  one-step rewrites: both directions of every axiom are set up once per call,
  the positions of a term are listed once per term, and a rewrite that would
  pass the depth cap is rejected on the depth of the new subterm before the
  new term is built.

One function, ``_refuting_size``, combines them, and both
``semantic_consequence`` and ``consequence_set`` decide through it.  Each
candidate is decided by the first step that settles it:

1. a candidate whose two sides are the same term holds, before any search;
2. the countermodels already found for the system in the same call (the
   pool, empty for ``semantic_consequence``);
3. a countermodel search at sizes 1 and 2;
4. at size 3, a short try of ``derive`` and then of the search, each within
   ``SHORT_TRY_NODES`` nodes, then ``derive`` and the search in full;
5. a search at each size from 4 up to the bound.

``derive`` runs to its budgets on a candidate that does not follow, and a
search runs to its end on one that holds, so at size 3 each first gets a
short try.  On the default candidate space of every built-in system, the
short ``derive`` proves each candidate that holds at size 3 and the short
search refutes the rest: under a neutral reading of an operation, its
commutativity can fail only from size 3 on, since every 2-element magma
with a two-sided identity is commutative, and the short search finds that
countermodel in 27 nodes where ``derive`` would run to its budget.  Since
derivations are sound, a proved candidate holds in every model, and a proof
spares it the exhaustive size-3 search.  It is still reported as
HoldsUpTo(k), never as proved, and a refutation is the first countermodel
in enumeration order at the smallest size.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .axioms import AxiomSystem, system_ops
from .models import (
    DEFAULT_SIZE_LIMIT,
    FiniteAlgebra,
    ResourceLimitError,
    _vectors,
    compile_check,
    shape_template,
    to_record,
)
from .terms import (
    App,
    Equation,
    OP_ORDER,
    Term,
    Var,
    VARIABLE_ALPHABET,
    canonical_equation,
    equation_key,
    format_equation,
    operations_of_equation,
    substitute,
    term_depth,
    variables_of,
    variables_of_equation,
)

RULES = (
    "axiom-instance",
    "reflexivity",
    "symmetry",
    "transitivity",
    "congruence",
    "substitution",
)


class DerivationStep(NamedTuple):
    rule: str
    premises: tuple
    equation: Equation


class Proved(NamedTuple):
    derivation: tuple


class Refuted(NamedTuple):
    countermodel: FiniteAlgebra
    witness: tuple  # ((variable, element), ...)

    def witness_map(self) -> dict:
        return dict(self.witness)


class HoldsUpTo(NamedTuple):
    max_size: int


class Unknown(NamedTuple):
    bounds: tuple  # ((budget name, value), ...)


Verdict = Union[Proved, Refuted, HoldsUpTo, Unknown]


class CandidateSpace(namedtuple("CandidateSpace", "max_vars max_depth")):
    __slots__ = ()

    def __new__(cls, max_vars: int = 2, max_depth: int = 1):
        if not (1 <= max_vars <= 3):
            raise ValueError("max_vars must be between 1 and 3")
        if not (0 <= max_depth <= 2):
            raise ValueError("max_depth must be between 0 and 2")
        return super().__new__(cls, max_vars, max_depth)


class DeriveBudgets(namedtuple("DeriveBudgets", "max_term_depth max_steps max_nodes")):
    __slots__ = ()

    def __new__(cls, max_term_depth: int = 3, max_steps: int = 8, max_nodes: int = 50_000):
        if max_term_depth < 1 or max_steps < 1:
            raise ValueError("budgets must be positive")
        return super().__new__(cls, max_term_depth, max_steps, max_nodes)


#: node budget for a single countermodel search
DEFAULT_SEARCH_NODES = 5_000_000
#: node budget of the short tries of ``derive`` and of the size-3 search in
#: ``_refuting_size``; every proof in the derive golden needs at most 15 nodes
SHORT_TRY_NODES = 64
_SHORT_DERIVE = DeriveBudgets(max_nodes=SHORT_TRY_NODES)
#: the most ordered term pairs a candidate space may have: (2, 2) has 348,100,
#: built in about 15 s; (3, 2) has 7.3 million, unfinished after 2 min at 650 MB
MAX_CANDIDATE_PAIRS = 1_000_000


# ---------------------------------------------------------------------------
# semantic consequence

def _refuting_size(sys: AxiomSystem, cand: Equation, max_size: int, pool: dict,
                   max_nodes: int = DEFAULT_SEARCH_NODES) -> Optional[int]:
    """The size of a model of ``sys`` of size <= ``max_size`` on which
    ``cand`` fails, or None when it holds in every such model; the smallest
    such size when ``pool`` is empty.

    The steps run in the order the module docstring gives; a candidate with
    equal sides holds at once, so no node cap applies to it.  ``pool`` maps
    each (size, table order) to the entry vectors of the countermodels of
    that layout found so far, and a countermodel a search finds joins it.
    A short search gives up after about ``min(SHORT_TRY_NODES, max_nodes)``
    nodes; a countermodel it finds is the one the full search would find.
    """
    if cand.lhs == cand.rhs:
        return None
    needed = operations_of_equation(cand)
    names = tuple(sorted(sys.constants))
    for (k, ops), vectors in pool.items():
        if needed.issubset(ops):
            check = compile_check(cand, k, ops, names)
            if any(check(v) is not None for v in vectors):
                return k
    # the candidate's tables first, so its check runs before the others are
    # filled: for C1 and a:b = a/b at size 3, (ldiv, rdiv, prod) settles the
    # search in 0.03 s, and canonical order passes the 5,000,000-node cap
    wanted = system_ops(sys) | needed
    ops = tuple(sorted((op for op in OP_ORDER if op in wanted), key=lambda op: op not in needed))
    for k in range(1, max_size + 1):
        v = None
        if k == 3:
            if isinstance(derive(sys, cand, _SHORT_DERIVE), Proved):
                return None
            try:
                v = next(_vectors(sys, k, ops, cand, min(SHORT_TRY_NODES, max_nodes)), None)
            except ResourceLimitError:
                pass
            if v is None and isinstance(derive(sys, cand), Proved):
                return None
        if v is None:
            v = next(_vectors(sys, k, ops, cand, max_nodes), None)
        if v is not None:
            pool.setdefault((k, ops), []).append(v)
            return k
    return None


def semantic_consequence(sys: AxiomSystem, cand: Equation, max_size: int,
                         allow_large: bool = False,
                         max_nodes: int = DEFAULT_SEARCH_NODES) -> Verdict:
    """Refuted with the first countermodel in enumeration order at the
    smallest size, or HoldsUpTo(max_size) when no model of size <= max_size
    violates ``cand``, decided as the consequence sets decide it."""
    _check_size(max_size, allow_large)
    pool = {}
    k = _refuting_size(sys, cand, max_size, pool, max_nodes)
    if k is None:
        return HoldsUpTo(max_size)
    # the pool holds the countermodel _refuting_size found, searching with the
    # candidate's tables first; when that is the canonical order too, it is
    # the one wanted here
    [((_, searched), [v])] = pool.items()
    ops, names = tuple(op for op in OP_ORDER if op in searched), tuple(sorted(sys.constants))
    if ops != searched:
        v = next(_vectors(sys, k, ops, cand, max_nodes))
    witness = compile_check(cand, k, ops, names)(v)
    return Refuted(shape_template(k, ops, names).algebra(v), tuple(sorted(witness.items())))


def _check_size(max_size: int, allow_large: bool):
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if max_size > DEFAULT_SIZE_LIMIT and not allow_large:
        raise ResourceLimitError(
            f"max_size {max_size} exceeds the default limit of {DEFAULT_SIZE_LIMIT}; "
            "pass allow_large to override")


# ---------------------------------------------------------------------------
# candidate identity space

def terms_within(max_vars: int, max_depth: int) -> tuple:
    """All terms over the first ``max_vars`` variables with depth <= max_depth,
    in structural order."""
    level = [Var(VARIABLE_ALPHABET[i]) for i in range(max_vars)]
    for _ in range(max_depth):
        apps = [App(op, l, r) for op in OP_ORDER for l in level for r in level]
        seen, uniq = set(), []
        for t in level + apps:
            if t not in seen:
                seen.add(t)
                uniq.append(t)
        level = uniq
    return tuple(level)


@lru_cache(maxsize=None)  # one list per space, of the 3 x 3 there are
def candidate_identities(space: CandidateSpace) -> tuple:
    """Candidate equations modulo variable renaming and symmetry of '='."""
    terms = terms_within(space.max_vars, space.max_depth)
    if len(terms) ** 2 > MAX_CANDIDATE_PAIRS:
        raise ResourceLimitError(f"candidate space {tuple(space)} has {len(terms) ** 2:,} "
                                 f"term pairs, over {MAX_CANDIDATE_PAIRS:,}")
    seen = set()
    out = []
    for lhs, rhs in itertools.product(terms, repeat=2):
        eq = canonical_equation(Equation(lhs, rhs))
        if eq not in seen:
            seen.add(eq)
            out.append(eq)
    out.sort(key=equation_key)
    return tuple(out)


def consequence_set(sys: AxiomSystem, space: Optional[CandidateSpace] = None,
                    model_size: int = 2, allow_large: bool = False) -> tuple:
    """Candidates holding in every model of ``sys`` up to ``model_size``,
    i.e. the bounded proxy for the system's deductive strength."""
    _check_size(model_size, allow_large)
    pool = {}
    return tuple(eq for eq in candidate_identities(space or CandidateSpace())
                 if _refuting_size(sys, eq, model_size, pool) is None)


# ---------------------------------------------------------------------------
# syntactic derivation

def _positions(t: Term, pos: tuple = ()) -> Iterator[tuple]:
    """(position, subterm) pairs of ``t`` in preorder."""
    yield pos, t
    if isinstance(t, App):
        yield from _positions(t.left, pos + (0,))
        yield from _positions(t.right, pos + (1,))


def _subterm_at(t: Term, pos: tuple) -> Term:
    for d in pos:
        t = t.left if d == 0 else t.right
    return t


def _replace_at(t: Term, pos: tuple, new: Term) -> Term:
    if not pos:
        return new
    if pos[0] == 0:
        return App(t.op, _replace_at(t.left, pos[1:], new), t.right)
    return App(t.op, t.left, _replace_at(t.right, pos[1:], new))


def match(pattern: Term, subject: Term, rigid: frozenset, sigma: dict) -> bool:
    """Extend ``sigma`` so that sigma(pattern) == subject; rigid names match
    only themselves."""
    if isinstance(pattern, Var):
        if pattern.name in rigid:
            return pattern == subject
        bound = sigma.get(pattern.name)
        if bound is None:
            sigma[pattern.name] = subject
            return True
        return bound == subject
    return (
        isinstance(subject, App)
        and subject.op is pattern.op
        and match(pattern.left, subject.left, rigid, sigma)
        and match(pattern.right, subject.right, rigid, sigma)
    )


def _directions(sys: AxiomSystem) -> tuple:
    """(axiom index, forward?, source, target, unbound, rigid map) for both
    directions of every axiom, in search order.  A match binds every
    non-constant variable of the source, so the target's other variables
    (``unbound``) are known before matching."""
    rigid = sys.constants
    out = []
    for idx, eq in enumerate(sys.equations):
        names = dict.fromkeys(variables_of(eq.lhs) + variables_of(eq.rhs))
        fixed = {c: Var(c) for c in rigid if c in names}
        for src, dst, forward in ((eq.lhs, eq.rhs, True), (eq.rhs, eq.lhs, False)):
            bound = variables_of(src)
            unbound = tuple(v for v in names if v not in bound and v not in rigid)
            out.append((idx, forward, src, dst, unbound, fixed))
    return tuple(out)


def _rewrites(t: Term, directions: tuple, rigid: frozenset,
              leaves: Sequence[Term], max_depth: int) -> Iterator[tuple]:
    """One-step rewrites of ``t`` (itself within ``max_depth``) by axiom
    instances, with the edge label (axiom index, forward?, position,
    substitution) used to rebuild proofs.  Only the new subterm can push the
    result past ``max_depth``, so it is checked before the term is built."""
    positions = list(_positions(t))
    for idx, forward, src, dst, unbound, fixed in directions:
        for pos, sub in positions:
            sigma = {}
            if not match(src, sub, rigid, sigma):
                continue
            room = max_depth - len(pos)
            for combo in itertools.product(leaves, repeat=len(unbound)):
                full = dict(sigma)
                full.update(zip(unbound, combo))
                full.update(fixed)
                new_sub = substitute(dst, full)
                if term_depth(new_sub) <= room:
                    yield _replace_at(t, pos, new_sub), (idx, forward, pos, full)


def _identity_sigma(sigma: dict) -> bool:
    return all(isinstance(v, Var) and v.name == k for k, v in sigma.items())


class _Proof:
    """Accumulates derivation steps and hands out their indices."""

    def __init__(self):
        self.steps = []

    def add(self, rule: str, premises: tuple, equation: Equation) -> int:
        self.steps.append(DerivationStep(rule, premises, equation))
        return len(self.steps) - 1

    def rewrite_block(self, sys: AxiomSystem, t_from: Term, t_to: Term,
                      edge: tuple) -> int:
        """Steps proving t_from = t_to for one rewrite; returns the final index."""
        idx, forward, pos, sigma = edge
        axiom = sys.equations[idx]
        cur = self.add("axiom-instance", (), axiom)
        work = axiom
        if not forward:
            work = work.flipped()
            cur = self.add("symmetry", (cur,), work)
        if not _identity_sigma(sigma):
            work = Equation(substitute(work.lhs, sigma), substitute(work.rhs, sigma))
            cur = self.add("substitution", (cur,), work)
        # lift through the surrounding context, innermost first
        for j in range(len(pos) - 1, -1, -1):
            parent = _subterm_at(t_from, pos[:j])
            side = pos[j]
            sibling = parent.right if side == 0 else parent.left
            refl = self.add("reflexivity", (), Equation(sibling, sibling))
            lhs_from = _subterm_at(t_from, pos[:j])
            lhs_to = _subterm_at(t_to, pos[:j])
            premises = (cur, refl) if side == 0 else (refl, cur)
            cur = self.add("congruence", premises, Equation(lhs_from, lhs_to))
        return cur


def derive(sys: AxiomSystem, cand: Equation,
           budgets: Optional[DeriveBudgets] = None) -> Verdict:
    """Bounded bidirectional search for an equational proof of ``cand``.

    Breadth-first from both sides, every new term counting as a node; axiom
    directions are set up once per call, positions once per term, and a
    rewrite past the depth cap is rejected before its term is built.  Proved
    verdicts carry a derivation that has been replayed through
    validate_derivation; exhausted budgets give Unknown, never an error.
    A candidate with a side deeper than ``max_term_depth`` is Unknown at
    once, unless its two sides are the same term.
    """
    budgets = budgets or DeriveBudgets()
    bounds = (
        ("max_nodes", budgets.max_nodes),
        ("max_steps", budgets.max_steps),
        ("max_term_depth", budgets.max_term_depth),
    )
    if cand.lhs == cand.rhs:
        proof = _Proof()
        proof.add("reflexivity", (), cand)
        return Proved(tuple(proof.steps))
    depth_cap = budgets.max_term_depth
    if not sys.equations or max(term_depth(cand.lhs), term_depth(cand.rhs)) > depth_cap:
        return Unknown(bounds)

    leaves = [Var(x) for x in variables_of_equation(cand)]
    leaves += [Var(c) for c in sorted(sys.constants) if Var(c) not in leaves]
    if not leaves:
        leaves = [Var("a")]
    directions = _directions(sys)

    # parents[side][term] = (previous term, edge); side 0 grows from the lhs,
    # side 1 from the rhs.  Edges are reversible, so a meeting term yields a
    # full rewrite path.
    parents = ({cand.lhs: None}, {cand.rhs: None})
    frontiers = ([cand.lhs], [cand.rhs])
    depths = [0, 0]
    nodes = 0
    meet = None
    while meet is None and (frontiers[0] or frontiers[1]):
        if depths[0] + depths[1] >= budgets.max_steps:
            break
        # grow the smaller live frontier; a closed side can still be met
        if frontiers[0] and (not frontiers[1] or len(frontiers[0]) <= len(frontiers[1])):
            side = 0
        else:
            side = 1
        new_frontier = []
        for t in frontiers[side]:
            for u, edge in _rewrites(t, directions, sys.constants, leaves, depth_cap):
                if u in parents[side]:
                    continue
                nodes += 1
                if nodes > budgets.max_nodes:
                    return Unknown(bounds)
                parents[side][u] = (t, edge)
                new_frontier.append(u)
                if u in parents[1 - side]:
                    meet = u
                    break
            if meet is not None:
                break
        frontiers = (new_frontier, frontiers[1]) if side == 0 else (frontiers[0], new_frontier)
        depths[side] += 1
    if meet is None:
        return Unknown(bounds)

    # forward path lhs -> meet, then reversed edges meet -> rhs
    chain = []
    t = meet
    while parents[0][t] is not None:
        prev, edge = parents[0][t]
        chain.append((prev, t, edge))
        t = prev
    chain.reverse()
    t = meet
    while parents[1][t] is not None:
        prev, edge = parents[1][t]
        idx, forward, pos, sigma = edge
        chain.append((t, prev, (idx, not forward, pos, sigma)))
        t = prev

    proof = _Proof()
    last = None
    for t_from, t_to, edge in chain:
        block = proof.rewrite_block(sys, t_from, t_to, edge)
        if last is None:
            last = block
        else:
            start = proof.steps[last].equation.lhs
            last = proof.add(
                "transitivity", (last, block),
                Equation(start, proof.steps[block].equation.rhs))
    derivation = tuple(proof.steps)
    problem = validate_derivation(sys, derivation, cand)
    if problem is not None:
        raise RuntimeError(f"internal error: built an invalid derivation ({problem})")
    return Proved(derivation)


def validate_derivation(sys: AxiomSystem, derivation: Sequence[DerivationStep],
                        cand: Optional[Equation] = None) -> Optional[str]:
    """Replay a derivation step by step; None if sound, else a description
    of the first broken step."""
    if not derivation:
        return "empty derivation"
    for i, step in enumerate(derivation):
        if step.rule not in RULES:
            return f"step {i}: unknown rule {step.rule!r}"
        if any(p >= i or p < 0 for p in step.premises):
            return f"step {i}: premise out of range"
        prem = [derivation[p].equation for p in step.premises]
        eq = step.equation
        if step.rule == "axiom-instance":
            if prem or eq not in sys.equations:
                return f"step {i}: not an axiom of {sys.name}"
        elif step.rule == "reflexivity":
            if prem or eq.lhs != eq.rhs:
                return f"step {i}: reflexivity with distinct sides"
        elif step.rule == "symmetry":
            if len(prem) != 1 or eq != prem[0].flipped():
                return f"step {i}: not the flip of its premise"
        elif step.rule == "transitivity":
            if (len(prem) != 2 or prem[0].rhs != prem[1].lhs
                    or eq != Equation(prem[0].lhs, prem[1].rhs)):
                return f"step {i}: transitivity does not chain"
        elif step.rule == "congruence":
            if len(prem) != 2:
                return f"step {i}: congruence needs two premises"
            ok = (
                isinstance(eq.lhs, App) and isinstance(eq.rhs, App)
                and eq.lhs.op is eq.rhs.op
                and prem[0] == Equation(eq.lhs.left, eq.rhs.left)
                and prem[1] == Equation(eq.lhs.right, eq.rhs.right)
            )
            if not ok:
                return f"step {i}: congruence shape mismatch"
        elif step.rule == "substitution":
            if len(prem) != 1:
                return f"step {i}: substitution needs one premise"
            sigma = {}
            if not (match(prem[0].lhs, eq.lhs, sys.constants, sigma)
                    and match(prem[0].rhs, eq.rhs, sys.constants, sigma)):
                return f"step {i}: not a substitution instance of its premise"
    if cand is not None and derivation[-1].equation != cand:
        return "conclusion differs from the candidate"
    return None


# ---------------------------------------------------------------------------
# serialization

def step_record(step: DerivationStep) -> dict:
    return {
        "rule": step.rule,
        "premises": list(step.premises),
        "equation": format_equation(step.equation),
    }


def verdict_record(v: Verdict) -> dict:
    if isinstance(v, Proved):
        return {"verdict": "proved",
                "derivation": [step_record(s) for s in v.derivation]}
    if isinstance(v, Refuted):
        return {"verdict": "refuted",
                "countermodel": to_record(v.countermodel),
                "witness": {name: val for name, val in v.witness}}
    if isinstance(v, HoldsUpTo):
        return {"verdict": "holds-up-to", "max_size": v.max_size}
    return {"verdict": "unknown", "bounds": {k: n for k, n in v.bounds}}
