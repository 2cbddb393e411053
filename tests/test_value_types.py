"""The value types: how they are built, compared, hashed, printed and
guarded."""

import copy
import pickle

import pytest

from eqbench.axioms import AxiomSystem, builtin_system
from eqbench.consequence import (
    CandidateSpace,
    DerivationStep,
    DeriveBudgets,
    HoldsUpTo,
    Proved,
    Refuted,
    Unknown,
)
from eqbench.models import (
    EnumOptions,
    FiniteAlgebra,
    ResourceLimitError,
    ShapeTemplate,
    count_models,
    enumerate_vectors,
)
from eqbench.power import PowerReport, RankReport
from eqbench.structure import StructureReport, classify_structure
from eqbench.terms import OP_ORDER, App, Equation, Op, Var, parse_equation

EQ = parse_equation("ab = ba")
ALG = FiniteAlgebra(2, ((Op.PROD, ((0, 1), (1, 0))),), (("e", 0),))
STEP = DerivationStep("axiom-instance", (), EQ)
BUDGETS = (("max_vars", 2), ("max_depth", 1), ("model_size", 3))

#: (class, its fields in order with a value each, the fields that have a
#: default with that default)
CASES = [
    (AxiomSystem, {"name": "S", "equations": (EQ,), "constants": frozenset("e")},
     {"equations": (), "constants": frozenset()}),
    (FiniteAlgebra, {"size": 2, "tables": ALG.tables, "constants": ALG.constants},
     {"tables": (), "constants": ()}),
    (EnumOptions, {"up_to_iso": True, "max_results": 5, "ops": frozenset(OP_ORDER),
                   "allow_large": True},
     {"up_to_iso": False, "max_results": None, "ops": None, "allow_large": False}),
    (ShapeTemplate, {"size": 2, "ops": (Op.PROD,), "names": ("e",)}, {}),
    (DerivationStep, {"rule": "symmetry", "premises": (0,), "equation": EQ.flipped()}, {}),
    (Proved, {"derivation": (STEP,)}, {}),
    (Refuted, {"countermodel": ALG, "witness": (("a", 0), ("b", 1))}, {}),
    (HoldsUpTo, {"max_size": 3}, {}),
    (Unknown, {"bounds": (("max_nodes", 10),)}, {}),
    (CandidateSpace, {"max_vars": 3, "max_depth": 2}, {"max_vars": 2, "max_depth": 1}),
    (DeriveBudgets, {"max_term_depth": 4, "max_steps": 9, "max_nodes": 7},
     {"max_term_depth": 3, "max_steps": 8, "max_nodes": 50_000}),
    (PowerReport, {"relation": "first-stronger", "first": "C0", "second": "C1",
                   "witness_first_only": EQ, "witness_second_only": None,
                   "budgets": BUDGETS}, {}),
    (RankReport, {"systems": ("C0", "C1"), "classes": (("C0",), ("C1",)),
                  "edges": (("C0", "C1"),), "budgets": BUDGETS}, {}),
    (StructureReport, {"size": 2, "ops": ((Op.PROD, None),), "ops_coincide": None,
                       "ops_coincide_witness": None}, {}),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls,values,defaults", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, values, defaults):
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    assert by_position == by_keyword
    assert [getattr(by_keyword, f) for f in values] == list(values.values())
    required = {f: v for f, v in values.items() if f not in defaults}
    assert cls(**required) == cls(**required, **defaults)
    assert [getattr(cls(**required), f) for f in defaults] == list(defaults.values())


@pytest.mark.parametrize("cls,values,defaults", CASES, ids=IDS)
def test_equal_instances_are_equal_and_hash_as_their_fields(cls, values, defaults):
    one, two = cls(**values), cls(**dict(values))
    assert one == two and one is not two
    assert hash(one) == hash(two) == hash(tuple(values.values()))
    other = {**values, **defaults} if defaults else {**values, next(iter(values)): None}
    assert cls(**other) != one
    assert len({one, two}) == 1


@pytest.mark.parametrize("cls,values,defaults", CASES, ids=IDS)
def test_fields_cannot_be_assigned(cls, values, defaults):
    obj = cls(**values)
    for field in values:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    assert obj == cls(**values)


@pytest.mark.parametrize("cls,values,defaults", CASES, ids=IDS)
def test_repr_names_the_class_and_each_field(cls, values, defaults):
    fields = ", ".join(f"{f}={v!r}" for f, v in values.items())
    assert repr(cls(**values)) == f"{cls.__name__}({fields})"


def test_reprs_of_defaults():
    assert repr(CandidateSpace()) == "CandidateSpace(max_vars=2, max_depth=1)"
    assert repr(DeriveBudgets()) == "DeriveBudgets(max_term_depth=3, max_steps=8, max_nodes=50000)"
    assert repr(EnumOptions()) == \
        "EnumOptions(up_to_iso=False, max_results=None, ops=None, allow_large=False)"
    assert repr(HoldsUpTo(3)) == "HoldsUpTo(max_size=3)"
    assert repr(AxiomSystem("S")) == "AxiomSystem(name='S', equations=(), constants=frozenset())"


#: each construction, as source -> the message of the ValueError it raises
INVALID = {
    "CandidateSpace(0, 1)": "max_vars must be between 1 and 3",
    "CandidateSpace(4)": "max_vars must be between 1 and 3",
    "CandidateSpace(2, 3)": "max_depth must be between 0 and 2",
    "CandidateSpace(max_depth=-1)": "max_depth must be between 0 and 2",
    "DeriveBudgets(max_steps=0)": "budgets must be positive",
    "DeriveBudgets(max_term_depth=0)": "budgets must be positive",
    "EnumOptions(max_results=0)": "max_results must be >= 1",
}


@pytest.mark.parametrize("build", INVALID)
def test_invalid_fields_are_refused(build):
    with pytest.raises(ValueError) as exc:
        eval(build)
    assert str(exc.value) == INVALID[build]


def test_methods_and_cached_properties_survive():
    assert ALG.ops == (Op.PROD,) and ALG.cells == (0, 1, 1, 0)
    assert ALG.table(Op.PROD) == ((0, 1), (1, 0))
    assert Refuted(ALG, (("a", 1),)).witness_map() == {"a": 1}
    assert str(builtin_system("C1")) == "C1: {a b = b a; a:b = a/b}"
    report = classify_structure(ALG)
    assert isinstance(report, StructureReport)
    assert report.op_report(Op.PROD).commutative and report.op_report(Op.LDIV) is None


def test_count_models_up_to_iso_keeps_the_other_options():
    g3 = builtin_system("G3")
    ops = frozenset({Op.PROD, Op.RDIV})
    want = sum(1 for _ in enumerate_vectors(g3, 2, EnumOptions(up_to_iso=True, ops=ops)))
    assert count_models(g3, 2, up_to_iso=True, opts=EnumOptions(ops=ops)) == want
    assert want > count_models(g3, 2, up_to_iso=True)
    assert count_models(g3, 2, up_to_iso=False, opts=EnumOptions(up_to_iso=True)) == \
        count_models(g3, 2)
    with pytest.raises(ResourceLimitError):
        count_models(g3, 2, up_to_iso=True, opts=EnumOptions(max_results=1))


# ---------------------------------------------------------------------------
# the terms

A, B = Var("a"), Var("b")
AB = App(Op.PROD, A, B)

#: (class, its fields in order with a value each, its repr)
TERMS = [
    (Var, {"name": "a"}, "Var(name='a')"),
    (App, {"op": Op.LDIV, "left": AB, "right": B},
     "App(op=<Op.LDIV: 'ldiv'>, left=App(op=<Op.PROD: 'prod'>, left=Var(name='a'), "
     "right=Var(name='b')), right=Var(name='b'))"),
    (Equation, {"lhs": AB, "rhs": A},
     "Equation(lhs=App(op=<Op.PROD: 'prod'>, left=Var(name='a'), right=Var(name='b')), "
     "rhs=Var(name='a'))"),
]
TERM_IDS = [cls.__name__ for cls, _, _ in TERMS]


@pytest.mark.parametrize("cls,values,text", TERMS, ids=TERM_IDS)
def test_terms_are_built_by_position_or_keyword(cls, values, text):
    by_position = cls(*values.values())
    assert by_position == cls(**values)
    assert [getattr(by_position, f) for f in values] == list(values.values())
    assert repr(by_position) == text


@pytest.mark.parametrize("name", ["A", "ab", "", "1", 1])
def test_a_variable_is_one_lowercase_letter(name):
    with pytest.raises(ValueError) as exc:
        Var(name=name)
    assert str(exc.value) == f"variable must be a single lowercase letter, got {name!r}"


@pytest.mark.parametrize("cls,values,text", TERMS, ids=TERM_IDS)
def test_terms_equal_only_their_own_class_and_hash_as_their_fields(cls, values, text):
    one, two = cls(**values), cls(*values.values())
    fields = tuple(values.values())
    assert one == two and one is not two and not one != two
    assert hash(one) == hash(two) == hash(fields)
    assert one != fields and fields != one
    assert one != type("Sub", (cls,), {})(*fields)
    assert len({one, two, fields}) == 2


def test_terms_of_other_fields_differ():
    assert Var("a") != Var("b")
    assert App(Op.PROD, A, B) != App(Op.RDIV, A, B) != App(Op.RDIV, B, A)
    assert Equation(A, B) != Equation(B, A)
    assert Equation(A, B).flipped() == Equation(B, A)


@pytest.mark.parametrize("cls,values,text", TERMS, ids=TERM_IDS)
def test_term_fields_cannot_be_assigned_or_deleted(cls, values, text):
    term = cls(**values)
    for field in (*values, "other"):
        with pytest.raises(AttributeError):
            setattr(term, field, A)
    for field in values:
        with pytest.raises(AttributeError):
            delattr(term, field)
    assert term == cls(**values) and not hasattr(term, "other")


@pytest.mark.parametrize("cls,values,text", TERMS, ids=TERM_IDS)
def test_terms_copy_and_pickle(cls, values, text):
    term = cls(**values)
    for back in (copy.copy(term), copy.deepcopy(term),
                 *(pickle.loads(pickle.dumps(term, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(back) is cls and back == term and hash(back) == hash(term)
        assert repr(back) == text
