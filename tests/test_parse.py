import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intersective.intpoly import IntPoly, multiply, to_text
from intersective.parse import (
    MAX_POLY_DEGREE,
    FormParseError,
    PolyParseError,
    parse_form,
    parse_poly,
    read_forms_file,
)
from intersective.quadcover import QuadForm


def test_coefficient_lists():
    assert parse_poly("[1,0,1]") == IntPoly((1, 0, 1))
    assert parse_poly("[ -2, 0, 0, 1 ]") == IntPoly((-2, 0, 0, 1))
    assert parse_poly("[0]") == IntPoly(())
    assert parse_poly("[]") == IntPoly(())
    assert parse_poly("[+3,-4]") == IntPoly((3, -4))


def test_expressions():
    assert parse_poly("x^2+1") == IntPoly((1, 0, 1))
    assert parse_poly("x**2 + 1") == IntPoly((1, 0, 1))
    assert parse_poly("x^3 - 2") == IntPoly((-2, 0, 0, 1))
    assert parse_poly("-x^2+3") == IntPoly((3, 0, -1))
    assert parse_poly("3x") == IntPoly((0, 3))
    assert parse_poly("(x-1)^2") == IntPoly((1, -2, 1))
    assert parse_poly("(x^2+1)(x^2+2)(x^2-2)") == IntPoly((-4, 0, -4, 0, 1, 0, 1))
    assert parse_poly("2(x+1) - 2x") == IntPoly((2,))
    assert parse_poly("x - x") == IntPoly(())
    assert parse_poly("X^2+1") == parse_poly("x^2+1")


def test_rational_coefficients_cleared():
    # denominators are cleared and content removed, sign of lc kept
    assert parse_poly("x^2 - 1/2") == IntPoly((-1, 0, 2))
    assert parse_poly("1/2 x^2 + 1/2") == IntPoly((1, 0, 1))
    assert parse_poly("2/4 x") == IntPoly((0, 1))
    assert parse_poly("-1/3 x + 1") == IntPoly((3, -1))


def cleared(coeffs):
    """A Fraction coefficient list times the lcm of its denominators,
    divided by its content only when that lcm exceeds 1."""
    m = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * m) for c in coeffs]
    ct = gcd(*ints)
    return IntPoly([c // ct for c in ints] if m > 1 and ct else ints)


def rational_text(coeffs):
    return "+".join(f"{c.numerator}/{c.denominator} x^{k}"
                    for k, c in enumerate(coeffs))


fraction = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(max_denominator=60),
)


@settings(max_examples=200, deadline=None)
@given(f=st.lists(fraction, min_size=1, max_size=6),
       g=st.lists(fraction, min_size=1, max_size=6))
def test_rational_expressions_clear_as_fractions_do(f, g):
    # the term "-3/4 x^2" is the negation of the product (3/4)(x^2)
    assert parse_poly(rational_text(f)) == cleared(f)
    product = [sum((f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g)),
                   Fraction(0)) for k in range(len(f) + len(g) - 1)]
    assert parse_poly(f"({rational_text(f)})({rational_text(g)})") == cleared(product)


def test_large_exponents_parse_by_squaring():
    start = time.perf_counter()
    f = parse_poly("x^20000-2")
    assert time.perf_counter() - start < 1
    assert f == IntPoly([-2] + [0] * 19999 + [1])
    g, power = IntPoly((-1, -1, 0, 1)), IntPoly((1,))
    for _ in range(20):
        power = multiply(power, g)
    assert parse_poly("(x^3-x-1)^20") == parse_poly("(x^3-x-1)**20") == power


def test_degree_bound_is_checked_before_building():
    # none of these builds a polynomial of degree above the bound first
    bound = MAX_POLY_DEGREE
    for bad in [f"x^{bound + 1}", f"(x^2)^{bound // 2 + 1}", "x^100000000",
                f"x^{bound // 2 + 1} * x^{bound // 2}",
                "2^100000000", f"0^{bound + 1}"]:
        with pytest.raises(PolyParseError, match="exceed"):
            parse_poly(bad)
    assert parse_poly(f"2^{bound}") == IntPoly((2**bound,))


coefficient = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(10**30), 10**30))


@settings(max_examples=200, deadline=None)
@example(coeffs=[10**30, -(10**30), 0, 1, -1, 10**30 - 1, 7, -8], lead=-(10**30))
@given(coeffs=st.lists(coefficient, max_size=8), lead=coefficient.filter(bool))
def test_expression_roundtrip(coeffs, lead):
    # degree 0 to 8; unit, negative and 31-digit leading coefficients
    f = IntPoly(coeffs + [lead])
    assert parse_poly(to_text(f)) == f


def test_product_roundtrip():
    rng = random.Random(74)
    for _ in range(100):
        f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 4))])
        g = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 4))])
        text = f"({to_text(f)})({to_text(g)})"
        assert parse_poly(text) == multiply(f, g)


def test_poly_parse_errors():
    for bad in ["", "  ", "x^", "x^-2", "(x+1", "x+1)", "[1,0", "[1,a]",
                "x + y", "1/0", "x/2", "3/", "**", "()"]:
        with pytest.raises(PolyParseError):
            parse_poly(bad)


def test_parse_form():
    assert parse_form("1,0,1") == QuadForm(1, 0, 1)
    assert parse_form(" 1 , -2 , 3 ") == QuadForm(1, -2, 3)
    assert parse_form("-1,+4,0") == QuadForm(-1, 4, 0)
    for bad in ["1,0", "1,0,1,2", "a,b,c", "1,0,", "0,0,0", "1;0;1", ""]:
        with pytest.raises(FormParseError):
            parse_form(bad)


def test_read_forms_file(tmp_path):
    path = tmp_path / "forms.txt"
    path.write_text("# three forms\n1,0,1\n\n1,0,2\n  1,0,-2\n")
    forms = read_forms_file(path)
    assert forms == [QuadForm(1, 0, 1), QuadForm(1, 0, 2), QuadForm(1, 0, -2)]
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    with pytest.raises(FormParseError):
        read_forms_file(empty)
    bad = tmp_path / "bad.txt"
    bad.write_text("1,0,1\n1,0\n")
    with pytest.raises(FormParseError):
        read_forms_file(bad)
    with pytest.raises(FormParseError):
        read_forms_file(tmp_path / "missing.txt")
