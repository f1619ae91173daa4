import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intersective.intpoly import (
    ONE,
    ZERO,
    IntPoly,
    canonical,
    content,
    derivative,
    discriminant,
    evaluate,
    exact_div,
    multiply,
    power,
    primitive_part,
    signed_terms,
    squarefree_part,
    to_text,
)
from oracles import poly_gcd, schoolbook_multiply, sylvester_resultant


def random_poly(rng, max_deg, max_coeff, nonzero=True):
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randint(-max_coeff, max_coeff) for _ in range(deg)]
    lead = rng.randint(1, max_coeff) * rng.choice([1, -1])
    coeffs.append(lead)
    return IntPoly(coeffs)


def test_canonical_form():
    assert IntPoly([1, 0, 1, 0]).coeffs == (1, 0, 1)
    assert IntPoly([0, 0, 0]).is_zero
    assert IntPoly([]).is_zero
    assert IntPoly([5]).degree == 0
    assert IntPoly([3, 2]).lc == 2


def test_zero_polynomial_has_no_degree():
    with pytest.raises(ValueError):
        ZERO.degree
    with pytest.raises(ValueError):
        ZERO.lc


def test_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        IntPoly([1.5, 1])
    with pytest.raises(TypeError):
        IntPoly([True])


def test_evaluate():
    f = IntPoly([1, 0, 1])  # x^2 + 1
    assert evaluate(f, 0) == 1
    assert evaluate(f, 2) == 5
    assert evaluate(f, -3) == 10
    assert evaluate(ZERO, 17) == 0
    big = IntPoly([1] * 9)
    assert evaluate(big, 10) == 111111111


def test_derivative():
    assert derivative(IntPoly([7])) == ZERO
    assert derivative(IntPoly([1, 2, 3])) == IntPoly([2, 6])
    assert derivative(IntPoly([-2, 0, 0, 1])) == IntPoly([0, 0, 3])


def test_multiply():
    f = IntPoly([1, 0, 1])
    g = IntPoly([-2, 0, 1])
    assert multiply(f, g) == IntPoly([-2, 0, -1, 0, 1])
    assert multiply(f, ZERO) == ZERO
    assert multiply(ONE, g) == g


def test_multiply_matches_evaluation():
    rng = random.Random(101)
    for _ in range(50):
        f = random_poly(rng, 5, 9)
        g = random_poly(rng, 5, 9)
        h = multiply(f, g)
        for x in (-3, -1, 0, 1, 2, 10):
            assert evaluate(h, x) == evaluate(f, x) * evaluate(g, x)


_COEFFS = st.lists(
    st.one_of(
        st.just(0),
        st.integers(-9, 9),
        st.integers(-(2**200), 2**200),
        st.sampled_from([2**64 - 1, 2**64, -(2**64), 2**64 + 1]),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@example(f=[], g=[1, -1])
@example(f=[0, 0, 3], g=[0, -(2**64) - 1, 0, 2**70])
@example(f=[127] * 3, g=[-127] * 5)  # the largest product coefficient, 3 * 127**2
@example(f=[-128, 127], g=[1, 1])
@given(f=_COEFFS, g=_COEFFS)
def test_multiply_matches_schoolbook_oracle(f, g):
    f, g = IntPoly(f), IntPoly(g)
    assert multiply(f, g) == schoolbook_multiply(f, g)
    assert multiply(g, f) == schoolbook_multiply(f, g)
    assert multiply(f, f) == schoolbook_multiply(f, f)


def test_discriminant_frozen_values():
    assert discriminant(IntPoly([1, 0, 1])) == -4  # x^2+1
    assert discriminant(IntPoly([-2, 0, 0, 1])) == -108  # x^3-2
    assert discriminant(IntPoly([2, 0, 1])) == -8
    assert discriminant(IntPoly([-2, 0, 1])) == 8
    assert discriminant(IntPoly([1, 1, 1])) == -3
    assert discriminant(IntPoly([3, 2])) == 1  # any linear
    # (x^2+1)(x^2+2)(x^2-2): product formula gives 2^16 * 3^4
    f = multiply(multiply(IntPoly([1, 0, 1]), IntPoly([2, 0, 1])), IntPoly([-2, 0, 1]))
    assert discriminant(f) == 5308416


def test_discriminant_zero_iff_repeated_root():
    f = IntPoly([1, 0, 1])
    assert discriminant(multiply(f, f)) == 0
    assert discriminant(multiply(f, IntPoly([-1, 1]))) != 0


def test_discriminant_rejects_constants():
    with pytest.raises(ValueError):
        discriminant(ZERO)
    with pytest.raises(ValueError):
        discriminant(IntPoly([3]))


@settings(max_examples=300, deadline=None)
@given(
    coeffs=st.lists(st.integers(-20, 20), min_size=1, max_size=6),
    lead=st.integers(-9, 9).filter(bool),
    scale=st.integers(1, 4),
    squared=st.lists(st.integers(-3, 3), max_size=2),
)
def test_discriminant_matches_sylvester_oracle(coeffs, lead, scale, squared):
    # degree 1 to 10: linear f, content up to 4, either sign of the
    # leading coefficient, and squared linear factors, which make it 0
    f = IntPoly([scale * c for c in coeffs] + [scale * lead])
    for r in squared:
        f = multiply(f, IntPoly([r * r, -2 * r, 1]))
    d = f.degree
    res = sylvester_resultant(f, derivative(f))
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    assert sign * res % f.lc == 0
    assert discriminant(f) == sign * res // f.lc
    if squared:
        assert discriminant(f) == 0


@pytest.mark.parametrize("n", [100, 922])
def test_discriminant_of_x_to_the_n_minus_2(n):
    # disc(x^n + a) = (-1)^(n(n-1)/2) n^n a^(n-1), at the CI polynomials
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    f = IntPoly([-2] + [0] * (n - 1) + [1])
    assert discriminant(f) == sign * n**n * (-2) ** (n - 1)


def test_canonical_divides_out_content_and_leads_positive():
    assert canonical(ZERO) == ZERO
    assert canonical(IntPoly([1, 0, -1])) == IntPoly([-1, 0, 1])
    assert canonical(IntPoly([4, 0, -6])) == IntPoly([-2, 0, 3])  # -6x^2+4
    assert canonical(IntPoly([-7])) == ONE
    f = IntPoly([-2, 0, 3])
    assert canonical(f) == f


def test_squarefree_part_examples():
    assert squarefree_part(IntPoly([-6, 0, 6])) == IntPoly([-1, 0, 1])
    f = IntPoly([1, 0, 1])
    assert squarefree_part(multiply(f, f)) == f
    assert squarefree_part(IntPoly([42])) == ONE
    assert squarefree_part(IntPoly([0, 0, 0, 5])) == IntPoly([0, 1])


def test_squarefree_part_positive_leading_coefficient():
    assert squarefree_part(IntPoly([1, 0, -1])).lc > 0
    assert squarefree_part(IntPoly([0, -3])).lc > 0


def test_squarefree_part_properties():
    rng = random.Random(31337)
    for _ in range(60):
        base = random_poly(rng, 3, 8)
        if base.degree == 0:
            continue
        k = rng.randint(1, 3)
        f = base
        for _ in range(k - 1):
            f = multiply(f, base)
        f = multiply(f, IntPoly([rng.choice([-3, -2, 2, 3])]))
        sq = squarefree_part(f)
        assert discriminant(sq) != 0
        assert content(sq) == 1
        assert sq.lc > 0
        # same root set: sq divides f and squarefree parts agree
        exact_div(primitive_part(f), sq)
        assert squarefree_part(sq) == sq
        assert squarefree_part(multiply(f, f)) == sq


def test_poly_gcd_basics():
    f = IntPoly([1, 0, 1])
    g = IntPoly([-2, 0, 1])
    assert poly_gcd(multiply(f, g), multiply(f, IntPoly([1, 1]))) == f
    assert poly_gcd(f, g) == ONE
    assert poly_gcd(ZERO, g) == g


def test_text_rendering():
    assert to_text(IntPoly([1, 0, 1])) == "x^2+1"
    assert to_text(IntPoly([-2, 0, 0, 1])) == "x^3-2"
    assert to_text(IntPoly([0, -1, 0, 2])) == "2x^3-x"
    assert to_text(IntPoly([5])) == "5"
    assert to_text(ZERO) == "0"
    assert to_text(IntPoly([1, 1, 1])) == "x^2+x+1"
    assert to_text(IntPoly([-1, 0, -1])) == "-x^2-1"
    assert to_text(IntPoly([1, -1])) == "-x+1"


def test_signed_terms():
    assert signed_terms([(1, "a"), (-1, "b"), (0, "c"), (-1, "")]) == "a-b-1"
    assert signed_terms([(0, "a"), (-3, "b"), (4, "")]) == "-3b+4"
    assert signed_terms([(0, "a")]) == ""


def test_power_matches_repeated_products():
    rng = random.Random(23)
    for _ in range(30):
        f = random_poly(rng, 3, 5)
        expected = ONE
        for k in range(9):
            assert power(f, k) == expected
            expected = multiply(expected, f)
    assert power(ZERO, 0) == ONE
    assert power(ZERO, 3) == ZERO
    assert power(IntPoly([0, 1]), 10**5) == IntPoly([0] * 10**5 + [1])
