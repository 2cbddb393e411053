import pytest

from eqbench.axioms import (
    AxiomFileError,
    AxiomSystem,
    BUILTIN_NAMES,
    UnknownSystemError,
    builtin_system,
    empty_system,
    load_axioms,
    make_system,
    merge,
    normalize_equation,
    system_content,
    system_content_key,
    system_ops,
)
from eqbench.terms import Op, format_equation, parse_equation


def eqs(system):
    return [format_equation(e) for e in system.equations]


# ---------------------------------------------------------------------------
# built-in contents

def test_c1_exact_equations():
    assert eqs(builtin_system("C1")) == ["a b = b a", "a:b = a/b"]


def test_c2_exact_equations():
    assert eqs(builtin_system("C2")) == ["a:b = b:a", "b/a = b a"]


def test_c3_exact_equations():
    assert eqs(builtin_system("C3")) == ["a/b = b/a", "a b = b:a"]


def test_c0_has_three_chained_equations():
    c0 = builtin_system("C0")
    assert eqs(c0) == ["a b = a:b", "a:b = b/a", "b/a = a b"]
    # the transitivity chain: each equation starts where the previous ended
    eq1, eq2, eq3 = c0.equations
    assert eq2.lhs == eq1.rhs
    assert eq3.lhs == eq2.rhs
    assert eq3.rhs == eq1.lhs


def test_moduli_as_printed():
    assert eqs(builtin_system("Mx_as_printed")) == ["a a = b b"]
    assert eqs(builtin_system("Mldiv_as_printed")) == ["a:a = b:b"]
    assert eqs(builtin_system("Mrdiv_as_printed")) == ["a/b = b/a"]
    assert eqs(builtin_system("Mrdiv_diagonal")) == ["a/a = b/b"]


def test_neutral_readings_carry_constant_e():
    for name, op in (("Mx_neutral", " "), ("Mldiv_neutral", ":"), ("Mrdiv_neutral", "/")):
        sysm = builtin_system(name)
        assert sysm.constants == frozenset({"e"})
        glyph = op if op != " " else " "
        assert eqs(sysm) == [f"a{glyph}e = a", f"e{glyph}a = a"]


def test_g_presets_single_operation():
    assert system_ops(builtin_system("G1")) == frozenset({Op.PROD})
    assert system_ops(builtin_system("G2")) == frozenset({Op.LDIV})
    assert system_ops(builtin_system("G3")) == frozenset({Op.RDIV})
    assert system_ops(builtin_system("G0")) == frozenset({Op.PROD, Op.LDIV, Op.RDIV})
    assert eqs(builtin_system("G0")) == eqs(builtin_system("C0"))


def test_builtin_lookup_case_insensitive():
    assert builtin_system("c0") == builtin_system("C0")
    assert builtin_system("MX_NEUTRAL") == builtin_system("Mx_neutral")


def test_unknown_builtin_raises():
    with pytest.raises(UnknownSystemError):
        builtin_system("C4")


def test_every_builtin_equation_round_trips():
    for name in BUILTIN_NAMES:
        for eq in builtin_system(name).equations:
            assert parse_equation(format_equation(eq)) == eq


# ---------------------------------------------------------------------------
# merge

def test_merge_counts():
    c1 = builtin_system("C1")
    assert len(merge([c1, builtin_system("Mldiv_as_printed")]).equations) == 3
    assert len(merge([c1, c1]).equations) == 2
    merged = merge([builtin_system("C0"), builtin_system("Mx_neutral")])
    assert len(merged.equations) == 5
    assert merged.constants == frozenset({"e"})


def test_merge_is_idempotent_commutative_associative_up_to_content():
    c1, c2, mx = (builtin_system(n) for n in ("C1", "C2", "Mx_as_printed"))
    assert system_content_key(merge([c1, c2])) == system_content_key(merge([c2, c1]))
    assert system_content_key(merge([merge([c1, c2]), mx])) == \
        system_content_key(merge([c1, merge([c2, mx])]))
    assert system_content_key(merge([c1, c1])) == system_content_key(c1)


def test_merge_dedups_renamed_equations():
    xy = make_system("xy", [parse_equation("x y = y x")])
    ab = make_system("ab", [parse_equation("ab = ba")])
    assert len(merge([xy, ab]).equations) == 1


def test_normalize_keeps_constants_fixed():
    neutral = builtin_system("Mx_neutral")
    eq = neutral.equations[0]
    assert format_equation(normalize_equation(eq, neutral.constants)) == "a e = a"


# ---------------------------------------------------------------------------
# axiom files

def test_load_axioms(tmp_path):
    f = tmp_path / "commutative.eq"
    f.write_text("# a tiny theory\nab = ba\n\na:b = b:a  # with a comment\n")
    sysm = load_axioms(f)
    assert sysm.name == "commutative"
    assert eqs(sysm) == ["a b = b a", "a:b = b:a"]


def test_load_single_paper_equation(tmp_path):
    f = tmp_path / "one.eq"
    f.write_text("ab = ba\n")
    assert len(load_axioms(f).equations) == 1


def test_load_empty_file_gives_empty_system(tmp_path):
    f = tmp_path / "empty.eq"
    f.write_text("# nothing but comments\n\n")
    sysm = load_axioms(f)
    assert sysm.equations == ()


def test_load_reports_bad_line_number(tmp_path):
    f = tmp_path / "bad.eq"
    f.write_text("ab = ba\nab =\n")
    with pytest.raises(AxiomFileError) as err:
        load_axioms(f)
    assert err.value.lineno == 2


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        load_axioms(tmp_path / "missing.eq")


def test_empty_system_is_named_none():
    assert empty_system().name == "none"
    assert empty_system().equations == ()


def test_content_key_ignores_name_and_order():
    one = make_system("one", [parse_equation("ab = ba"), parse_equation("a:b = b:a")])
    two = make_system("two", [parse_equation("x:y = y:x"), parse_equation("xy = yx")])
    assert system_content_key(one) == system_content_key(two)


def test_content_is_what_the_content_key_hashes():
    one = make_system("one", [parse_equation("ab = ba"), parse_equation("a:b = b:a")])
    two = AxiomSystem("two", (parse_equation("x:y = y:x"), parse_equation("xy = yx"),
                              parse_equation("yx = xy")))
    assert system_content(one) == system_content(two)
    assert system_content_key(one) == system_content_key(two)
    with_e = make_system("e", one.equations, {"e"})
    assert system_content(with_e) != system_content(one)
    assert system_content_key(with_e) != system_content_key(one)
