import random

import pytest

from intersective.intpoly import (
    ONE,
    ZERO,
    IntPoly,
    content,
    derivative,
    discriminant,
    evaluate,
    exact_div,
    multiply,
    primitive_part,
    resultant,
    squarefree_part,
    to_text,
)
from oracles import poly_gcd


def sylvester_resultant(f: IntPoly, g: IntPoly) -> int:
    """Independent oracle: Bareiss fraction-free determinant of the
    Sylvester matrix."""
    m, n = f.degree, g.degree
    size = m + n
    if size == 0:
        return 1
    rows = [[0] * size for _ in range(size)]
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        for j, c in enumerate(fc):
            rows[i][i + j] = c
    for i in range(m):
        for j, c in enumerate(gc):
            rows[n + i][i + j] = c
    sign = 1
    prev = 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if rows[r][k] != 0), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[size - 1][size - 1]


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


def test_resultant_against_sylvester_oracle():
    rng = random.Random(2024)
    for _ in range(300):
        f = random_poly(rng, 6, 20)
        g = random_poly(rng, 6, 20)
        assert resultant(f, g) == sylvester_resultant(f, g), (f, g)


def test_resultant_shared_factor_vanishes():
    rng = random.Random(7)
    for _ in range(40):
        h = random_poly(rng, 3, 10)
        if h.degree == 0:
            continue
        f = multiply(h, random_poly(rng, 3, 10))
        g = multiply(h, random_poly(rng, 3, 10))
        assert resultant(f, g) == 0


def test_resultant_multiplicative_in_first_argument():
    rng = random.Random(8)
    for _ in range(40):
        f1 = random_poly(rng, 4, 10)
        f2 = random_poly(rng, 4, 10)
        g = random_poly(rng, 4, 10)
        assert resultant(multiply(f1, f2), g) == resultant(f1, g) * resultant(f2, g)


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
