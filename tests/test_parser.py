"""Polynomial string parser: grammar coverage and positional errors."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsegre.errors import ParseError, TooLarge
from toricsegre.exactpoly import Polynomial, RingContext, multidegree_of
from toricsegre import parser
from toricsegre.parser import MAX_POWER_TERMS, parse_polynomial

from test_segre import time_limit

F1 = RingContext(names=("x0", "x1", "y0", "y1"),
                 grading=((1, 1, 1, 0), (0, 0, 1, 1)))
P13 = RingContext(names=("x0", "x1", "y0", "y1", "z0", "z1"),
                  grading=((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0),
                           (0, 0, 0, 0, 1, 1)))


def test_example_generator_f1():
    f = parse_polynomial("x1^2*y0^2 + x0^3*x1*y1^2", F1)
    assert len(f.coeffs) == 2
    assert multidegree_of(f, F1) == (4, 2)


def test_example_generator_p13():
    f = parse_polynomial("x0*z0^2", P13)
    assert multidegree_of(f, P13) == (1, 0, 2)


def test_trailing_operator_offset():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x0 + ", F1)
    assert exc.value.details["offset"] == 5


def test_unknown_variable():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x0 + w^2", F1)
    assert "w" in str(exc.value)
    assert exc.value.details["offset"] == 5


def test_implicit_multiplication_and_coefficients():
    x0 = Polynomial.variable(4, 0)
    y1 = Polynomial.variable(4, 3)
    assert parse_polynomial("3 x0 y1", F1) == x0 * y1 * 3
    assert parse_polynomial("3x0(y1)", F1) == x0 * y1 * 3
    assert parse_polynomial("3*x0*y1", F1) == x0 * y1 * 3
    assert parse_polynomial("-2x0^2", F1) == x0 * x0 * -2
    assert parse_polynomial("7", F1) == Polynomial.constant(4, 7)


def test_parenthesized_sums():
    x0 = Polynomial.variable(4, 0)
    x1 = Polynomial.variable(4, 1)
    assert parse_polynomial("x0*(x0 + x1)", F1) == x0 * x0 + x0 * x1
    assert parse_polynomial("(x0 + x1)^2", F1) == \
        x0 * x0 + x0 * x1 * 2 + x1 * x1


def test_whitespace_insignificant():
    a = parse_polynomial("x1^2*y0^2+x0^3*x1*y1^2", F1)
    b = parse_polynomial("  x1 ^ 2 * y0 ^ 2   +   x0^3 x1 y1^2 ", F1)
    assert a == b


def test_leading_minus():
    x0 = Polynomial.variable(4, 0)
    assert parse_polynomial("-x0", F1) == -x0
    assert parse_polynomial("- x0 + x0", F1).is_zero()


def test_bad_exponent():
    for text in ("x0^", "x0^0", "x0^-2", "x0^x1"):
        with pytest.raises(ParseError):
            parse_polynomial(text, F1)


def test_unbalanced_paren():
    with pytest.raises(ParseError):
        parse_polynomial("(x0 + x1", F1)
    with pytest.raises(ParseError):
        parse_polynomial("x0 + x1)", F1)


def test_garbage_character():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x0 $ x1", F1)
    assert exc.value.details["offset"] == 3



def test_overlong_integer_literal_offset():
    """A literal past the interpreter's digit limit for int() (Python
    3.11 and later) is a ParseError at the literal, not a ValueError."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() has no digit limit on this Python")
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x0 + %s*x1" % ("7" * (limit + 1)), F1)
    assert exc.value.details["offset"] == 5


def test_power_term_bound():
    """A power of t > 1 terms to the e is expanded while C(e + t - 1,
    t - 1) is at most MAX_POWER_TERMS, and refused past it at the
    exponent; a power of a monomial is always taken."""
    assert MAX_POWER_TERMS == 1000
    assert len(parse_polynomial("(x0 + x1 + y0)^43", F1).coeffs) == 990
    for text in ("(x0 + x1 + y0)^44", "(x0 + x1)^1000", "x0 + (x1 - y0)^5000"):
        with pytest.raises(TooLarge) as exc:
            parse_polynomial(text, F1)
        assert exc.value.code == "E_TOO_LARGE"
        assert exc.value.details["offset"] == text.index("^") + 1
    assert parse_polynomial("(x0 - x0)^5000", F1).is_zero()
    assert parse_polynomial("(x0*y1)^100000000", F1).coeffs == {
        (100000000, 0, 0, 100000000): 1}


def test_power_refusal_within_1_s():
    """The bound is checked before any product, so a power of a binomial
    whose expansion would not finish is refused at once, even with an
    exponent of thousands of digits."""
    with time_limit(1, "refusing (x0 + x1)^100000"):
        for text in ("(x0 + x1)^100000", "(x0 + x1)^%s" % ("9" * 4000)):
            with pytest.raises(TooLarge):
                parse_polynomial(text, F1)


def test_product_term_bound(monkeypatch):
    """A product of factors with a and b terms is taken while a*b is at
    most half of MAX_POWER_TERMS squared, and refused past it at the
    factor that would pass it; monomial factors of a product within the
    bound are taken."""
    monkeypatch.setattr(parser, "MAX_POWER_TERMS", 10)
    text = "2*(x0 + x1)^4*x0*(y0 + y1)^9*y1"
    assert len(parse_polynomial(text, F1).coeffs) == 50
    text = "(x0 + x1)^4*(y0 + y1)^9*(x0 + y1)"
    with pytest.raises(TooLarge) as exc:
        parse_polynomial(text, F1)
    assert exc.value.code == "E_TOO_LARGE"
    assert exc.value.details["offset"] == text.rindex("(")


def test_product_refusal_within_1_s():
    """Four factors of 990 terms each: the second is refused before it
    is multiplied.  Unbounded, the parse and solve took 15.7 s."""
    text = "*".join(["(z0 + z1 + z2)^43"] * 4)
    with time_limit(1, "refusing a product of four 990-term factors"):
        with pytest.raises(TooLarge):
            parse_polynomial(text, RingContext(names=("z0", "z1", "z2"),
                                               grading=((1, 1, 1),)))


@st.composite
def random_polys(draw):
    monomial = st.tuples(*([st.integers(0, 3)] * 4))
    d = draw(st.dictionaries(monomial, st.integers(-9, 9).filter(bool),
                             min_size=1, max_size=5))
    return Polynomial(4, d)


@given(random_polys())
@settings(max_examples=60, deadline=None)
def test_format_parse_round_trip(f):
    assert parse_polynomial(f.format(F1.names), F1) == f
