"""The benchmark's own term and algebra code, used to check eqbench's outputs.

Nothing here imports eqbench: terms are parsed, printed, canonicalized,
evaluated and matched by this file alone, so a fault in the program's
evaluator, search or canonical forms cannot hide itself from the checks.

Terms are plain tuples: a variable (or constant) is a one-letter ``str``,
an application is ``(op, left, right)`` with ``op`` one of ``OPS``.  An
equation is a ``(lhs, rhs)`` pair.
"""

from __future__ import annotations

import itertools

OPS = ("prod", "ldiv", "rdiv")
_GLYPH = {"ldiv": ":", "rdiv": "/"}
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyz")

#: axiom text of the built-in systems the workloads use, with their constants
SYSTEMS = {
    "C0": (("ab = a:b", "a:b = b/a", "b/a = ab"), ()),
    "C1": (("ab = ba", "a:b = a/b"), ()),
    "C2": (("a:b = b:a", "b/a = ba"), ()),
    "C3": (("a/b = b/a", "ab = b:a"), ()),
    "Mx_as_printed": (("a.a = b.b",), ()),
    "Mx_neutral": (("a e = a", "e a = a"), ("e",)),
    "Mldiv_neutral": (("a:e = a", "e:a = a"), ("e",)),
    "Mrdiv_neutral": (("a/e = a", "e/a = a"), ("e",)),
}


class System:
    """Parsed axioms plus the names that are constants, not variables."""

    def __init__(self, name, axioms, constants=()):
        self.name = name
        self.axioms = tuple(parse_equation(a) if isinstance(a, str) else a for a in axioms)
        self.constants = frozenset(constants)

    @classmethod
    def builtin(cls, *names):
        axioms, constants = [], set()
        for name in names:
            texts, consts = SYSTEMS[name]
            axioms.extend(texts)
            constants.update(consts)
        return cls("+".join(names), axioms, constants)


# ---------------------------------------------------------------------------
# parsing and printing (the grammar of the eqbench README)

def parse_equation(text):
    parts = text.split("=")
    if len(parts) != 2:
        raise ValueError(f"need exactly one '=' in {text!r}")
    return (parse_term(parts[0]), parse_term(parts[1]))


def parse_term(text):
    toks = [c for c in text if not c.isspace()]
    term, pos = _term(toks, 0)
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return term


def _term(toks, pos):
    left, pos = _factor(toks, pos)
    while pos < len(toks) and (toks[pos] in "*." or toks[pos] == "(" or toks[pos] in _LETTERS):
        if toks[pos] in "*.":
            pos += 1
        right, pos = _factor(toks, pos)
        left = ("prod", left, right)
    return left, pos


def _factor(toks, pos):
    left, pos = _divisee(toks, pos)
    if pos < len(toks) and toks[pos] in ":/":
        op = "ldiv" if toks[pos] == ":" else "rdiv"
        right, pos = _divisee(toks, pos + 1)
        return (op, left, right), pos
    return left, pos


def _divisee(toks, pos):
    if pos >= len(toks):
        raise ValueError("unexpected end of term")
    ch = toks[pos]
    if ch == "(":
        term, pos = _term(toks, pos + 1)
        if pos >= len(toks) or toks[pos] != ")":
            raise ValueError("expected ')'")
        return term, pos + 1
    if ch in _LETTERS:
        return ch, pos + 1
    raise ValueError(f"unexpected {ch!r}")


def format_term(t):
    if isinstance(t, tuple) and t[0] == "prod":
        return f"{format_term(t[1])} {_fmt_factor(t[2])}"
    return _fmt_factor(t)


def _fmt_factor(t):
    if isinstance(t, str):
        return t
    if t[0] == "prod":
        return f"({format_term(t)})"
    return _fmt_divisee(t[1]) + _GLYPH[t[0]] + _fmt_divisee(t[2])


def _fmt_divisee(t):
    return t if isinstance(t, str) else f"({format_term(t)})"


def format_equation(eq):
    return f"{format_term(eq[0])} = {format_term(eq[1])}"


# ---------------------------------------------------------------------------
# structure

def variables(t, out=None):
    """Distinct letters of ``t`` in first-occurrence order."""
    out = {} if out is None else out
    if isinstance(t, str):
        out.setdefault(t, None)
    else:
        variables(t[1], out)
        variables(t[2], out)
    return out


def eq_variables(eq):
    return tuple(variables(eq[1], variables(eq[0])))


def ops_of(t):
    if isinstance(t, str):
        return frozenset()
    return frozenset((t[0],)) | ops_of(t[1]) | ops_of(t[2])


def depth(t):
    return 0 if isinstance(t, str) else 1 + max(depth(t[1]), depth(t[2]))


def substitute(t, sigma):
    if isinstance(t, str):
        return sigma.get(t, t)
    return (t[0], substitute(t[1], sigma), substitute(t[2], sigma))


def match(pattern, subject, rigid, sigma):
    """Extend ``sigma`` so that sigma(pattern) == subject; rigid letters
    (constants) match only themselves."""
    if isinstance(pattern, str):
        if pattern in rigid:
            return pattern == subject
        if pattern in sigma:
            return sigma[pattern] == subject
        sigma[pattern] = subject
        return True
    return (isinstance(subject, tuple) and subject[0] == pattern[0]
            and match(pattern[1], subject[1], rigid, sigma)
            and match(pattern[2], subject[2], rigid, sigma))


def positions(t, here=()):
    yield here, t
    if isinstance(t, tuple):
        yield from positions(t[1], here + (1,))
        yield from positions(t[2], here + (2,))


def replace_at(t, pos, new):
    if not pos:
        return new
    parts = list(t)
    parts[pos[0]] = replace_at(t[pos[0]], pos[1:], new)
    return tuple(parts)


def _key(t):
    if isinstance(t, str):
        return (0, t)
    return (1, OPS.index(t[0]), _key(t[1]), _key(t[2]))


def _normalized(eq):
    table = {v: "abcdefghijklmnopqrstuvwxyz"[i] for i, v in enumerate(eq_variables(eq))}
    return (substitute(eq[0], table), substitute(eq[1], table))


def canonical(eq):
    """Representative modulo variable renaming and the symmetry of '='."""
    fwd, bwd = _normalized(eq), _normalized((eq[1], eq[0]))
    return fwd if (_key(fwd[0]), _key(fwd[1])) <= (_key(bwd[0]), _key(bwd[1])) else bwd


def candidate_space(max_vars=2, max_depth=1):
    """Identities between terms over ``max_vars`` variables of depth
    <= ``max_depth``, one per renaming/orientation class, in key order."""
    level = list("abcdefghijklmnopqrstuvwxyz"[:max_vars])
    for _ in range(max_depth):
        level = list(dict.fromkeys(level + [(op, l, r) for op in OPS for l in level for r in level]))
    cands = {canonical((l, r)) for l in level for r in level}
    return sorted(cands, key=lambda eq: (_key(eq[0]), _key(eq[1])))


# ---------------------------------------------------------------------------
# algebras: {"size": n, "ops": {op: rows}, "constants": {name: value}}

def _compile(t, consts):
    """Python expression for ``t``: variables are plain names, constants
    C[name], operations T[op][row][col]."""
    if isinstance(t, str):
        return f"C[{t!r}]" if t in consts else t
    return f"T[{t[0]!r}][{_compile(t[1], consts)}][{_compile(t[2], consts)}]"


class Identity:
    """An equation compiled for repeated evaluation in finite algebras."""

    def __init__(self, eq, constants=frozenset()):
        self.eq = eq
        self.free = tuple(v for v in eq_variables(eq) if v not in constants)
        self.ops = ops_of(eq[0]) | ops_of(eq[1])
        self.consts = tuple(v for v in eq_variables(eq) if v in constants)
        differ = f"{_compile(eq[0], constants)} != {_compile(eq[1], constants)}"
        loops = " ".join(f"for {v} in R" for v in self.free)
        names = ", ".join(self.free)
        self._differs_at = eval(f"lambda T, C, {names}: {differ}" if names
                                else f"lambda T, C: {differ}")
        self._first = eval(f"lambda T, C, R: next((({names},) {loops} if {differ}), None)"
                           if names else f"lambda T, C, R: () if {differ} else None")

    def applicable(self, alg):
        return self.ops <= alg["ops"].keys() and all(c in alg["constants"] for c in self.consts)

    def holds_at(self, alg, env):
        return not self._differs_at(alg["ops"], alg["constants"], **env)

    def violation(self, alg):
        """First assignment (counted up lexicographically) breaking the
        identity, or None."""
        values = self._first(alg["ops"], alg["constants"], range(alg["size"]))
        return None if values is None else dict(zip(self.free, values))


def satisfies(alg, identities):
    return all(ident.applicable(alg) and ident.violation(alg) is None for ident in identities)


def bundle(alg):
    """The serialized (tables, constants) vector that orders models."""
    out = []
    for op in OPS:
        if op in alg["ops"]:
            for row in alg["ops"][op]:
                out.extend(row)
    out.extend(v for _, v in sorted(alg["constants"].items()))
    return out


def relabel(alg, perm):
    """The isomorphic copy of ``alg`` under the carrier bijection i -> perm[i]."""
    n = alg["size"]
    inv = sorted(range(n), key=perm.__getitem__)
    return {
        "size": n,
        "ops": {op: [[perm[t[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
                for op, t in alg["ops"].items()},
        "constants": {c: perm[v] for c, v in alg["constants"].items()},
    }


def is_least_relabeling(alg):
    own = bundle(alg)
    return all(own <= bundle(relabel(alg, p))
               for p in itertools.permutations(range(alg["size"])))


# ---------------------------------------------------------------------------
# derivations

def replay(system, steps, goal):
    """None if ``steps`` (dicts with rule, premises, equation text) derive
    ``goal`` from ``system``, else a description of the first bad step."""
    if not steps:
        return "empty derivation"
    eqs = []
    rigid = system.constants
    for i, step in enumerate(steps):
        try:
            eq = parse_equation(step["equation"])
        except ValueError as exc:
            return f"step {i}: {exc}"
        prem = step["premises"]
        if any(not isinstance(p, int) or not 0 <= p < i for p in prem):
            return f"step {i}: premise out of range"
        prem = [eqs[p] for p in prem]
        rule = step["rule"]
        if rule == "axiom-instance":
            ok = not prem and any(match(ax[0], eq[0], rigid, s) and match(ax[1], eq[1], rigid, s)
                                  for ax in system.axioms for s in [{}])
        elif rule == "reflexivity":
            ok = not prem and eq[0] == eq[1]
        elif rule == "symmetry":
            ok = len(prem) == 1 and eq == (prem[0][1], prem[0][0])
        elif rule == "transitivity":
            ok = len(prem) == 2 and prem[0][1] == prem[1][0] and eq == (prem[0][0], prem[1][1])
        elif rule == "congruence":
            l, r = eq
            ok = (len(prem) == 2 and isinstance(l, tuple) and isinstance(r, tuple)
                  and l[0] == r[0] and prem[0] == (l[1], r[1]) and prem[1] == (l[2], r[2]))
        elif rule == "substitution":
            s = {}
            ok = (len(prem) == 1 and match(prem[0][0], eq[0], rigid, s)
                  and match(prem[0][1], eq[1], rigid, s))
        else:
            return f"step {i}: unknown rule {rule!r}"
        if not ok:
            return f"step {i}: {rule} does not hold"
        eqs.append(eq)
    if eqs[-1] != goal:
        return "conclusion differs from the goal"
    return None


def check_countermodel(system, goal, record, witness, max_size):
    """None if ``record`` is a model of ``system`` of size <= max_size in
    which ``goal`` fails at ``witness``, else what is wrong."""
    if not 1 <= record.get("size", 0) <= max_size:
        return f"countermodel size {record.get('size')} outside 1..{max_size}"
    axioms = [Identity(ax, system.constants) for ax in system.axioms]
    for ident in axioms:
        if not ident.applicable(record):
            return f"countermodel lacks a table or constant of {format_equation(ident.eq)}"
        if ident.violation(record) is not None:
            return f"countermodel breaks axiom {format_equation(ident.eq)}"
    ident = Identity(goal, system.constants)
    if not ident.applicable(record) or set(witness) != set(ident.free):
        return "witness does not assign the identity's variables"
    if ident.holds_at(record, witness):
        return "identity holds at the witness"
    return None


# ---------------------------------------------------------------------------
# closed forms

def _digits(index, count, base=3):
    out = []
    for _ in range(count):
        index, d = divmod(index, base)
        out.append(d)
    return out[::-1]


def c0_model(index):
    """The ``index``-th size-3 model of C0 in bundle order: every product
    table P, with left division P and right division P transposed."""
    cells = _digits(index, 9)
    p = [cells[0:3], cells[3:6], cells[6:9]]
    return {"size": 3,
            "ops": {"prod": p, "ldiv": [row[:] for row in p],
                    "rdiv": [[p[j][i] for j in range(3)] for i in range(3)]},
            "constants": {}}


def c1_models():
    """Size-3 models of C1 in bundle order: a symmetric product table and
    left division equal to right division, both otherwise free."""
    upper = [(i, j) for i in range(3) for j in range(i, 3)]
    for vals in itertools.product(range(3), repeat=len(upper)):
        p = [[0] * 3 for _ in range(3)]
        for (i, j), v in zip(upper, vals):
            p[i][j] = p[j][i] = v
        for index in range(3 ** 9):
            cells = _digits(index, 9)
            d = [cells[0:3], cells[3:6], cells[6:9]]
            yield {"size": 3, "ops": {"prod": p, "ldiv": d, "rdiv": d}, "constants": {}}
