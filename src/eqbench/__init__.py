"""Workbench for equational axiom systems over a product and two divisions:
finite model enumeration, identity proving/refutation, structural
classification, and deductive-power comparison.

Each name below, and each submodule (``eqbench.consequence``, ...), is
imported on first use, so a program pays only for the modules it reaches:
``import eqbench.cli`` loads neither the consequence engine nor the
structural classifier until a command asks for one.
"""

import importlib

__version__ = "0.1.0"

#: each exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "AxiomSystem", "BUILTIN_NAMES", "builtin_system", "empty_system", "load_axioms",
        "make_system", "merge"), "axioms"),
    **dict.fromkeys((
        "CandidateSpace", "DerivationStep", "DeriveBudgets", "HoldsUpTo", "Proved", "Refuted",
        "Unknown", "Verdict", "consequence_set", "derive", "semantic_consequence",
        "validate_derivation"), "consequence"),
    **dict.fromkeys((
        "EnumOptions", "FiniteAlgebra", "canonical_form", "count_models", "enumerate_models",
        "eval_term", "from_record", "make_algebra", "satisfies", "satisfies_all",
        "to_record"), "models"),
    **dict.fromkeys(("PowerReport", "RankReport", "compare", "rank_all"), "power"),
    **dict.fromkeys((
        "StructureReport", "classify_structure", "identity_elements", "is_abelian_group",
        "is_associative", "is_commutative", "is_group", "is_latin_square",
        "ops_coincide"), "structure"),
    **dict.fromkeys((
        "App", "Equation", "Op", "ParseError", "Term", "Var", "format_equation",
        "format_term", "parse_equation", "parse_term", "substitute", "variables_of"), "terms"),
}

_SUBMODULES = frozenset(("axioms", "cli", "consequence", "models", "power", "structure",
                         "terms"))

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Import the submodule ``name``, or the one that defines the exported
    ``name``, on first access (PEP 562)."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
