"""Seeded identity questions for the ``query`` workload.

Each system gets a fixed number of questions of each kind (``QUERY_SYSTEMS``),
so seeds change which identities are asked but not the mix:

* ``consequence`` -- built from the axiom text by this file, never by
  asking eqbench: an instance of an axiom under a substitution of depth <= 1
  terms, its flip, or a chain of two axiom rewrites.  These hold in every
  model, so eqbench must never refute them.
* ``random`` -- two random terms of depth <= 2 over at most three
  variables (and the system's constant, if it has one).
"""

from __future__ import annotations

import random

from algebra import (OPS, Identity, System, c0_model, depth, eq_variables, format_equation,
                     match, positions, replace_at, substitute)

#: (system, refutation size bound, variable counts of its consequences,
#: random identities).  Systems other than C0 refute up to size 2 only: at
#: size 3 an identity that mentions tables the system leaves independent
#: (e.g. "(a:b)c = c(a:b)" under C1) runs the countermodel search into its
#: node cap.  A neutral reading's axioms have one variable, so their
#: consequences have at most two.  C0's consequences are few, with fixed
#: variable counts, because each costs an exhaustive search of its 19,683
#: size-3 models.
QUERY_SYSTEMS = (
    ("C0", 3, (1, 2, 2), 37),
    ("C1", 2, (1, 2, 3) * 4 + (2, 2), 26),
    ("C2", 2, (1, 2, 3) * 4 + (2, 2), 26),
    ("C3", 2, (1, 2, 3) * 4 + (2, 2), 26),
    ("Mx_neutral", 2, (1, 2) * 7, 26),
    ("Mldiv_neutral", 2, (1, 2) * 7, 26),
    ("Mrdiv_neutral", 2, (1, 2) * 7, 26),
)

#: size-3 C0 models on which a random C0 identity must fail to be kept, so
#: that C0's only identities that hold are its consequences
C0_PROBES = 40


def _leaves(system):
    return ["a", "b", "c"] + sorted(system.constants)


def _small_terms(leaves):
    return leaves + [(op, x, y) for op in OPS for x in leaves for y in leaves]


def _instance(rng, system, ax):
    small = _small_terms(_leaves(system))
    sigma = {v: rng.choice(small) for v in eq_variables(ax) if v not in system.constants}
    return substitute(ax[0], sigma), substitute(ax[1], sigma)


def _oriented(rng, eq):
    return eq if rng.random() < 0.5 else (eq[1], eq[0])


def _rewrite_once(rng, system, t):
    """One rewrite of a random subterm of ``t`` by a random axiom, or None."""
    leaves = _leaves(system)
    moves = []
    for pos, sub in positions(t):
        for ax in system.axioms:
            for src, dst in (ax, (ax[1], ax[0])):
                sigma = {}
                if match(src, sub, system.constants, sigma):
                    moves.append((pos, dst, sigma))
    if not moves:
        return None
    pos, dst, sigma = rng.choice(moves)
    for v in eq_variables((dst, dst)):
        if v not in sigma and v not in system.constants:
            sigma[v] = rng.choice(leaves)
    return replace_at(t, pos, substitute(dst, sigma))


def consequence(rng, system, n_vars):
    """An instance, flip or two-rewrite chain of the axioms that mentions
    ``n_vars`` variables (constants not counted)."""
    while True:
        kind = rng.choice(("instance", "flip", "chain"))
        lhs, rhs = _instance(rng, system, rng.choice(system.axioms))
        if kind == "flip":
            lhs, rhs = rhs, lhs
        elif kind == "chain":
            lhs, rhs = _oriented(rng, (lhs, rhs))
            rhs = _rewrite_once(rng, system, rhs)
            if rhs is None:
                continue
        free = [v for v in eq_variables((lhs, rhs)) if v not in system.constants]
        if lhs != rhs and len(free) == n_vars and max(depth(lhs), depth(rhs)) <= 2:
            return kind, (lhs, rhs)


def random_identity(rng, system):
    names = rng.sample(["a", "b", "c"], rng.randint(1, 3))
    if system.constants and rng.random() < 0.3:
        names += sorted(system.constants)

    def term(d):
        if d == 0 or rng.random() < 0.3:
            return rng.choice(names)
        return (rng.choice(OPS), term(d - 1), term(d - 1))

    while True:
        lhs, rhs = term(2), term(2)
        if lhs != rhs:
            return lhs, rhs


def _c0_probes(rng):
    return [c0_model(rng.randrange(3 ** 9)) for _ in range(C0_PROBES)]


def make_questions(seed):
    """The question list for ``seed``: dicts with id, system, bound, kind
    and the identity's text, interleaved across systems."""
    rng = random.Random(seed)
    probes = _c0_probes(rng)
    per_system = []
    for name, bound, var_counts, n_random in QUERY_SYSTEMS:
        system = System.builtin(name)
        seen, qs = set(), []
        while len(qs) < len(var_counts) + n_random:
            if len(qs) < len(var_counts):
                kind, eq = consequence(rng, system, var_counts[len(qs)])
            else:
                kind, eq = "random", random_identity(rng, system)
                if name == "C0" and all(Identity(eq).violation(m) is None for m in probes):
                    continue
            text = format_equation(eq)
            if text not in seen:
                seen.add(text)
                qs.append({"system": name, "bound": bound, "kind": kind, "text": text})
        rng.shuffle(qs)
        per_system.append(qs)
    out = [q for group in zip(*per_system) for q in group]
    for i, q in enumerate(out):
        q["id"] = i
    return out
