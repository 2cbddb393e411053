import random

import pytest

from eqbench.terms import (
    MAX_TERM_DEPTH,
    App,
    Equation,
    Op,
    ParseError,
    Var,
    canonical_equation,
    format_equation,
    format_term,
    normalize_variables,
    parse_equation,
    parse_term,
    substitute,
    term_depth,
    term_size,
    variables_of,
)

a, b, c = Var("a"), Var("b"), Var("c")


def prod(l, r):
    return App(Op.PROD, l, r)


def ldiv(l, r):
    return App(Op.LDIV, l, r)


def rdiv(l, r):
    return App(Op.RDIV, l, r)


# ---------------------------------------------------------------------------
# parsing

def test_parse_single_variable():
    assert parse_term("a") == a


def test_parse_left_division():
    assert parse_term("a:b") == ldiv(a, b)


def test_parse_product_of_parenthesized_over_rdiv():
    assert parse_term("(a b)/c") == rdiv(prod(a, b), c)


def test_juxtaposition_star_and_dot_are_synonyms():
    want = prod(a, b)
    assert parse_term("ab") == want
    assert parse_term("a b") == want
    assert parse_term("a*b") == want
    assert parse_term("a.b") == want


def test_product_chains_left_associatively():
    assert parse_term("a b c") == prod(prod(a, b), c)


def test_division_binds_tighter_than_product():
    assert parse_term("a:b c") == prod(ldiv(a, b), c)
    assert parse_term("a b:c") == prod(a, ldiv(b, c))


def test_division_chains_need_parentheses():
    with pytest.raises(ParseError):
        parse_term("a:b:c")
    with pytest.raises(ParseError):
        parse_term("a:b/c")
    assert parse_term("a:(b:c)") == ldiv(a, ldiv(b, c))
    assert parse_term("(a:b):c") == ldiv(ldiv(a, b), c)


def test_whitespace_and_comments_ignored():
    assert parse_term("  a   b \t") == prod(a, b)
    assert parse_term("a b # trailing comment") == prod(a, b)
    assert parse_equation("ab = ba # the first law") == Equation(prod(a, b), prod(b, a))


@pytest.mark.parametrize("bad", ["", "(", "a)", "()", "a +", "A", "a (", "a:",
                                 pytest.param("(" * 5000 + "a" + ")" * 5000,
                                              id="nested-5000")])
def test_parse_errors_carry_position(bad):
    with pytest.raises(ParseError) as err:
        parse_term(bad)
    assert err.value.pos >= 0


def test_parse_depth_limit():
    chain = " ".join("a" * (MAX_TERM_DEPTH + 1))  # left-nested products
    assert term_depth(parse_term(chain)) == MAX_TERM_DEPTH
    nested = "a:(" * MAX_TERM_DEPTH + "a" + ")" * MAX_TERM_DEPTH
    assert term_depth(parse_term(nested)) == MAX_TERM_DEPTH
    with pytest.raises(ParseError, match="deeper than") as err:
        parse_term(chain + " a")
    assert err.value.pos == len(chain) + 2
    with pytest.raises(ParseError, match="deeper than"):
        parse_equation("a = (" + nested + ")/a")
    with pytest.raises(ParseError, match="deeper than"):
        parse_term(" ".join("a" * 1000))


def test_parse_equation_examples():
    assert parse_equation("ab = ba") == Equation(prod(a, b), prod(b, a))
    assert parse_equation("a = a") == Equation(a, a)
    assert parse_equation("a:b = b/a") == Equation(ldiv(a, b), rdiv(b, a))


def test_parse_equation_needs_exactly_one_equals():
    with pytest.raises(ParseError):
        parse_equation("ab")
    with pytest.raises(ParseError):
        parse_equation("a = b = c")
    with pytest.raises(ParseError):
        parse_equation("ab =")


# ---------------------------------------------------------------------------
# printing

def test_format_leaves_and_leaf_product():
    assert format_term(Var("x")) == "x"
    assert format_term(prod(a, b)) == "a b"


def test_format_parenthesizes_product_under_division():
    assert format_term(ldiv(prod(a, b), c)) == "(a b):c"


def test_format_minimal_parens():
    assert format_term(prod(prod(a, b), c)) == "a b c"
    assert format_term(prod(a, prod(b, c))) == "a (b c)"
    assert format_term(prod(ldiv(a, b), c)) == "a:b c"
    assert format_term(prod(a, ldiv(b, c))) == "a b:c"
    assert format_term(ldiv(a, ldiv(b, c))) == "a:(b:c)"
    assert format_term(rdiv(rdiv(a, b), c)) == "(a/b)/c"


# ---------------------------------------------------------------------------
# substitution and variables

def test_substitute_rename_and_duplicate():
    assert substitute(prod(a, b), {"a": c, "b": c}) == prod(c, c)
    assert substitute(a, {"a": ldiv(Var("x"), Var("y"))}) == ldiv(Var("x"), Var("y"))
    assert substitute(ldiv(a, a), {"a": prod(b, c)}) == ldiv(prod(b, c), prod(b, c))


def test_substitute_requires_total_assignment():
    with pytest.raises(KeyError):
        substitute(prod(a, b), {"a": c})


def test_variables_first_occurrence_order_and_dedup():
    assert variables_of(prod(a, b)) == ("a", "b")
    assert variables_of(a) == ("a",)
    assert variables_of(ldiv(prod(a, b), a)) == ("a", "b")
    assert variables_of(prod(b, a)) == ("b", "a")


def test_depth_and_size():
    assert term_depth(a) == 0 and term_size(a) == 1
    t = ldiv(prod(a, b), c)
    assert term_depth(t) == 2 and term_size(t) == 5


def test_normalize_variables_first_occurrence():
    eq = parse_equation("x y = y x")
    assert format_equation(normalize_variables(eq)) == "a b = b a"


def test_canonical_equation_orientation_and_renaming():
    one = canonical_equation(parse_equation("ab = b/a"))
    two = canonical_equation(parse_equation("b/a = ab"))
    three = canonical_equation(parse_equation("xy = y/x"))
    assert one == two == three


# ---------------------------------------------------------------------------
# properties (seeded generators, no randomness between runs)

LETTERS = "abcd"
OPS = (Op.PROD, Op.LDIV, Op.RDIV)


def random_term(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice(LETTERS))
    op = rng.choice(OPS)
    return App(op, random_term(rng, depth - 1), random_term(rng, depth - 1))


def sloppy_render(rng: random.Random, t) -> str:
    """Grammar-valid but messy rendering: random synonyms, spaces, and
    redundant parentheses."""
    def walk(u, level):
        if isinstance(u, Var):
            s = u.name
        elif u.op is Op.PROD:
            sep = rng.choice([" ", "*", ".", "  ", " * "])
            s = walk(u.left, "term") + sep + walk(u.right, "factor")
            if level in ("factor", "divisee"):
                s = "(" + s + ")"
        else:
            s = walk(u.left, "divisee") + u.op.glyph + walk(u.right, "divisee")
            if level == "divisee":
                s = "(" + s + ")"
        if rng.random() < 0.25:
            s = "( " + s + " )"
        return s

    return walk(t, "term")


def test_round_trip_property():
    rng = random.Random(1874)
    for _ in range(2000):
        t = random_term(rng, 4)
        assert parse_term(format_term(t)) == t


def test_fuzzed_grammar_valid_strings_always_parse():
    rng = random.Random(97)
    for _ in range(2000):
        t = random_term(rng, 3)
        text = sloppy_render(rng, t)
        assert parse_term(text) == t


def test_substitution_is_compositional():
    rng = random.Random(5)
    for _ in range(500):
        t = random_term(rng, 3)
        s1 = {x: random_term(rng, 1) for x in LETTERS}
        s2 = {x: random_term(rng, 1) for x in LETTERS}
        composed = {x: substitute(s1[x], s2) for x in LETTERS}
        assert substitute(substitute(t, s1), s2) == substitute(t, composed)
