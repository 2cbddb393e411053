"""Term and equation data model: grammar, parser, printer, substitution.

The term language has three binary operations over single-letter variables:

* product        -- juxtaposition ("a b", "ab"), with "*" and "." as synonyms
* left division  -- "a:b"
* right division -- "a/b" (numerator on the left)

Grammar (division binds tighter than the product; at most one division per
factor, so chains like ``a:b:c`` need explicit parentheses)::

    equation := term "=" term
    term     := factor { ("*" | "." | nothing) factor }
    factor   := divisee [ (":" | "/") divisee ]
    divisee  := letter | "(" term ")"

``#`` starts a comment running to the end of the line; whitespace is
insignificant.  All values in this module are immutable and hashable.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Mapping, Union


class ParseError(ValueError):
    """Raised on malformed input; carries the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        self.text = text
        super().__init__(f"{message} (at position {pos}: {text[pos:pos + 8]!r})")


class Op(Enum):
    """The three operation symbols, in canonical order."""

    PROD = "prod"
    LDIV = "ldiv"
    RDIV = "rdiv"

    # Members are singletons and compare by identity, so the identity hash
    # is consistent with equality and runs in C, unlike Enum's
    # hash(self._name_).  Either hash varies between processes; every
    # ordered walk over a set of operations goes through OP_ORDER or sorted.
    __hash__ = object.__hash__

    @property
    def glyph(self) -> str:
        return {Op.PROD: " ", Op.LDIV: ":", Op.RDIV: "/"}[self]


OP_ORDER = (Op.PROD, Op.LDIV, Op.RDIV)

#: the deepest term the parser accepts.  Printing, substitution, the
#: structural walks below and evaluation all recurse once or twice per
#: level, so this keeps every one of them far below Python's recursion
#: limit; a deeper term is a ParseError.
MAX_TERM_DEPTH = 100

VARIABLE_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_VAR_SET = frozenset(VARIABLE_ALPHABET)


class _Value:
    """Base of the term classes: immutable, printed as
    ``Class(field=value, ...)`` and pickled by the fields in ``__slots__``.
    Each subclass is equal only to an instance of its own class with equal
    fields, and hashes as the tuple of its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


_set = object.__setattr__


class Var(_Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in _VAR_SET:
            raise ValueError(f"variable must be a single lowercase letter, got {name!r}")
        _set(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))

    def __str__(self):
        return self.name


class App(_Value):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: Op, left: "Term", right: "Term"):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.op, self.left, self.right) == (other.op, other.left, other.right)
        return NotImplemented

    def __hash__(self):
        return hash((self.op, self.left, self.right))

    def __str__(self):
        return format_term(self)


Term = Union[Var, App]


class Equation(_Value):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.lhs, self.rhs) == (other.lhs, other.rhs)
        return NotImplemented

    def __hash__(self):
        return hash((self.lhs, self.rhs))

    def __str__(self):
        return format_equation(self)

    def flipped(self) -> "Equation":
        return Equation(self.rhs, self.lhs)


# ---------------------------------------------------------------------------
# parsing

_PROD_SYNONYMS = ("*", ".")


class _Scanner:
    """Token stream over the raw text; comments and whitespace are skipped."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._skip()

    def _skip(self):
        text, i = self.text, self.pos
        while i < len(text):
            ch = text[i]
            if ch in " \t\r\n":
                i += 1
            elif ch == "#":
                while i < len(text) and text[i] != "\n":
                    i += 1
            else:
                break
        self.pos = i

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        self._skip()
        return ch


def _app(sc: _Scanner, op: Op, left: tuple, right: tuple) -> tuple:
    """(App(op, l, r), its depth) from (term, depth) pairs; ParseError
    once the depth passes MAX_TERM_DEPTH."""
    depth = 1 + max(left[1], right[1])
    if depth > MAX_TERM_DEPTH:
        raise ParseError(f"term deeper than {MAX_TERM_DEPTH}", sc.text, sc.pos)
    return App(op, left[0], right[0]), depth


def _parse_divisee(sc: _Scanner) -> tuple:
    ch = sc.peek()
    if ch == "(":
        sc.take()
        t = _parse_term(sc)
        if sc.peek() != ")":
            raise ParseError("expected ')'", sc.text, sc.pos)
        sc.take()
        return t
    if ch in _VAR_SET:
        return Var(sc.take()), 0
    if ch == "":
        raise ParseError("unexpected end of input", sc.text, sc.pos)
    raise ParseError(f"unexpected character {ch!r}", sc.text, sc.pos)


def _parse_factor(sc: _Scanner) -> tuple:
    left = _parse_divisee(sc)
    ch = sc.peek()
    if ch == ":":
        sc.take()
        return _app(sc, Op.LDIV, left, _parse_divisee(sc))
    if ch == "/":
        sc.take()
        return _app(sc, Op.RDIV, left, _parse_divisee(sc))
    return left


def _starts_factor(ch: str) -> bool:
    return ch == "(" or ch in _VAR_SET


def _parse_term(sc: _Scanner) -> tuple:
    """(term, depth) of the longest term at the scanner."""
    t = _parse_factor(sc)
    while True:
        ch = sc.peek()
        if ch in _PROD_SYNONYMS:
            sc.take()
            if not _starts_factor(sc.peek()):
                raise ParseError("expected a factor after product symbol", sc.text, sc.pos)
            t = _app(sc, Op.PROD, t, _parse_factor(sc))
        elif _starts_factor(ch):
            t = _app(sc, Op.PROD, t, _parse_factor(sc))
        else:
            return t


def _parse_side(sc: _Scanner) -> Term:
    try:
        return _parse_term(sc)[0]
    except RecursionError:
        raise ParseError("nesting too deep", sc.text, sc.pos) from None


def parse_term(text: str) -> Term:
    """Parse ``text`` into a term, or raise ParseError with a position."""
    sc = _Scanner(text)
    t = _parse_side(sc)
    if sc.peek() != "":
        raise ParseError(f"unexpected trailing {sc.peek()!r}", sc.text, sc.pos)
    return t


def parse_equation(text: str) -> Equation:
    """Parse ``lhs = rhs``; exactly one '=' is allowed."""
    sc = _Scanner(text)
    lhs = _parse_side(sc)
    if sc.peek() != "=":
        raise ParseError("expected '=' between the two sides", sc.text, sc.pos)
    sc.take()
    rhs = _parse_side(sc)
    if sc.peek() == "=":
        raise ParseError("more than one '=' in equation", sc.text, sc.pos)
    if sc.peek() != "":
        raise ParseError(f"unexpected trailing {sc.peek()!r}", sc.text, sc.pos)
    return Equation(lhs, rhs)


# ---------------------------------------------------------------------------
# printing

def format_term(t: Term) -> str:
    """Render ``t`` with minimal parentheses; re-parses to an equal term."""
    return _fmt_term(t)


def _fmt_term(t: Term) -> str:
    if isinstance(t, App) and t.op is Op.PROD:
        return f"{_fmt_term(t.left)} {_fmt_factor(t.right)}"
    return _fmt_factor(t)


def _fmt_factor(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if t.op is Op.PROD:
        return f"({_fmt_term(t)})"
    return f"{_fmt_divisee(t.left)}{t.op.glyph}{_fmt_divisee(t.right)}"


def _fmt_divisee(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    return f"({_fmt_term(t)})"


def format_equation(eq: Equation) -> str:
    return f"{format_term(eq.lhs)} = {format_term(eq.rhs)}"


# ---------------------------------------------------------------------------
# structural helpers

def variables_of(*terms: Term) -> tuple:
    """Distinct variable names of ``terms`` in first-occurrence
    (left-to-right) order."""
    seen: dict = {}

    def walk(u: Term):
        if isinstance(u, Var):
            seen.setdefault(u.name, None)
        else:
            walk(u.left)
            walk(u.right)

    for t in terms:
        walk(t)
    return tuple(seen)


def variables_of_equation(eq: Equation) -> tuple:
    return variables_of(eq.lhs, eq.rhs)


def operations_of(t: Term) -> frozenset:
    if isinstance(t, Var):
        return frozenset()
    return frozenset({t.op}) | operations_of(t.left) | operations_of(t.right)


def operations_of_equation(eq: Equation) -> frozenset:
    return operations_of(eq.lhs) | operations_of(eq.rhs)


def term_depth(t: Term) -> int:
    if isinstance(t, Var):
        return 0
    return 1 + max(term_depth(t.left), term_depth(t.right))


def term_size(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + term_size(t.left) + term_size(t.right)


def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, App):
        yield from subterms(t.left)
        yield from subterms(t.right)


def substitute(t: Term, s: Mapping[str, Term]) -> Term:
    """Simultaneous substitution; every variable of ``t`` must be bound."""
    if isinstance(t, Var):
        try:
            return s[t.name]
        except KeyError:
            raise KeyError(f"no binding for variable {t.name!r}") from None
    return App(t.op, substitute(t.left, s), substitute(t.right, s))


def term_key(t: Term) -> tuple:
    """Total structural order on terms (variables first, then by operation)."""
    if isinstance(t, Var):
        return (0, t.name)
    return (1, OP_ORDER.index(t.op), term_key(t.left), term_key(t.right))


def equation_key(eq: Equation) -> tuple:
    return (term_key(eq.lhs), term_key(eq.rhs))


def normalize_variables(eq: Equation, constants: frozenset = frozenset()) -> Equation:
    """Rename variables to a, b, c, ... in first-occurrence order (lhs then
    rhs), skipping the letters of ``constants``, which keep their names."""
    names, table, letters = variables_of_equation(eq), {}, VARIABLE_ALPHABET
    if constants:
        table = {x: Var(x) for x in constants.intersection(names)}
        letters = [x for x in letters if x not in constants]
        names = [x for x in names if x not in constants]
    table.update(zip(names, map(Var, letters)))
    return Equation(substitute(eq.lhs, table), substitute(eq.rhs, table))


def canonical_equation(eq: Equation) -> Equation:
    """Canonical form modulo variable renaming and symmetry of '='.

    Both orientations are variable-normalized and the structurally smaller
    (lhs, rhs) pair wins, so a candidate identity has exactly one canonical
    representative.
    """
    fwd = normalize_variables(eq)
    bwd = normalize_variables(eq.flipped())
    return fwd if equation_key(fwd) <= equation_key(bwd) else bwd
