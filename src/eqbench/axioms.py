"""Built-in axiom systems, axiom-file ingestion, and system composition.

A system is a named, ordered, duplicate-free set of identities, optionally
with distinguished constants.  Constants are written as ordinary lowercase
letters inside equations; the ``constants`` set of the owning system marks
them as fixed elements rather than universally quantified variables.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .terms import (
    Equation,
    ParseError,
    equation_key,
    format_equation,
    normalize_variables,
    operations_of_equation,
    parse_equation,
)


class UnknownSystemError(KeyError):
    pass


class AxiomFileError(ValueError):
    """A line of an axiom file failed to parse; carries the line number."""

    def __init__(self, path, lineno: int, message: str):
        self.path = path
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: {message}")


class AxiomSystem(NamedTuple):
    name: str
    equations: tuple = ()
    constants: frozenset = frozenset()

    def __str__(self):
        eqs = "; ".join(format_equation(e) for e in self.equations)
        return f"{self.name}: {{{eqs}}}"


#: ``terms.normalize_variables``, under the name this module exports
normalize_equation = normalize_variables


def make_system(name: str, equations, constants=()) -> AxiomSystem:
    """Build a system, dropping equations that repeat an earlier one up to
    variable normalization."""
    constants = frozenset(constants)
    kept = []
    seen = set()
    for eq in equations:
        key = equation_key(normalize_variables(eq, constants))
        if key not in seen:
            seen.add(key)
            kept.append(eq)
    return AxiomSystem(name, tuple(kept), constants)


def empty_system(name: str = "none") -> AxiomSystem:
    """The empty theory; satisfied by every algebra."""
    return AxiomSystem(name)


def merge(systems) -> AxiomSystem:
    """Union of equations and constants, deduplicated; names joined with '+'."""
    systems = list(systems)
    name = "+".join(s.name for s in systems) if systems else "none"
    constants = frozenset().union(*(s.constants for s in systems)) if systems else frozenset()
    eqs = [eq for s in systems for eq in s.equations]
    return make_system(name, eqs, constants)


def system_ops(sys: AxiomSystem) -> frozenset:
    """Operation symbols mentioned anywhere in the system."""
    ops = frozenset()
    for eq in sys.equations:
        ops |= operations_of_equation(eq)
    return ops


def system_content(sys: AxiomSystem) -> tuple:
    """What ``sys`` says, equal up to renamed variables and reordered or
    repeated equations: (frozenset of its equations with their variables
    normalized, its constants)."""
    return frozenset(normalize_variables(eq, sys.constants) for eq in sys.equations), sys.constants


def system_content_key(sys: AxiomSystem) -> str:
    """Content fingerprint: a hash of ``system_content``.

    Used as a cache key so that renamed-but-equal systems share entries.
    """
    import hashlib  # here, so the commands that never key a cache skip it

    equations, constants = system_content(sys)
    lines = sorted(format_equation(eq) for eq in equations)
    payload = "\n".join(lines + ["constants: " + ",".join(sorted(constants))])
    return hashlib.sha256(payload.encode()).hexdigest()


def load_axioms(path) -> AxiomSystem:
    """Read one equation per line; '#' comments and blank lines are skipped."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # named by the line that holds the first bad byte
        lineno = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise AxiomFileError(path, lineno, f"not UTF-8 text: {exc}") from None
    eqs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            eqs.append(parse_equation(stripped))
        except ParseError as exc:
            raise AxiomFileError(path, lineno, str(exc)) from exc
    return make_system(path.stem, eqs)


# ---------------------------------------------------------------------------
# built-in systems

def _sys(name: str, lines, constants=()) -> AxiomSystem:
    return make_system(name, [parse_equation(s) for s in lines], constants)


def _neutral(name: str, glyph: str) -> AxiomSystem:
    return _sys(name, [f"a{glyph}e = a", f"e{glyph}a = a"], constants={"e"})


_C1 = _sys("C1", ["ab = ba", "a:b = a/b"])
_C2 = _sys("C2", ["a:b = b:a", "b/a = ba"])
_C3 = _sys("C3", ["a/b = b/a", "ab = b:a"])
_C0 = _sys("C0", ["ab = a:b", "a:b = b/a", "b/a = ab"])

_MX_PRINTED = _sys("Mx_as_printed", ["a.a = b.b"])
_MLDIV_PRINTED = _sys("Mldiv_as_printed", ["a:a = b:b"])
_MRDIV_PRINTED = _sys("Mrdiv_as_printed", ["a/b = b/a"])
_MRDIV_DIAGONAL = _sys("Mrdiv_diagonal", ["a/a = b/b"])

_MX_NEUTRAL = _neutral("Mx_neutral", " ")
_MLDIV_NEUTRAL = _neutral("Mldiv_neutral", ":")
_MRDIV_NEUTRAL = _neutral("Mrdiv_neutral", "/")

# The single-operation structures: each keeps only its operation's
# commutativity law together with that operation's modulus as printed,
# so its models carry exactly the one operation the preset names.
_G1 = _sys("G1", ["ab = ba", "a.a = b.b"])
_G2 = _sys("G2", ["a:b = b:a", "a:a = b:b"])
_G3 = _sys("G3", ["a/b = b/a"])
_G0 = _sys("G0", ["ab = a:b", "a:b = b/a", "b/a = ab"])

_BUILTINS = {
    s.name.lower(): s
    for s in (
        _C0, _C1, _C2, _C3,
        _MX_PRINTED, _MX_NEUTRAL,
        _MLDIV_PRINTED, _MLDIV_NEUTRAL,
        _MRDIV_PRINTED, _MRDIV_DIAGONAL, _MRDIV_NEUTRAL,
        _G0, _G1, _G2, _G3,
    )
}

BUILTIN_NAMES = tuple(s.name for s in _BUILTINS.values())


def builtin_system(name: str) -> AxiomSystem:
    """Look up a built-in system by (case-insensitive) name."""
    try:
        return _BUILTINS[name.lower()]
    except KeyError:
        raise UnknownSystemError(
            f"unknown system {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None
