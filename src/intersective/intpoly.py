"""Exact arithmetic on univariate integer polynomials.

The subresultant remainder sequence of f and f' gives f*, disc(f) and
the Sturm chain (sturm.py), and it is computed once per polynomial.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd as _int_gcd
from typing import Iterable


class IntPoly:
    """Integer-coefficient polynomial, coefficients ascending by degree.

    Canonical form: no trailing zero coefficient.  The zero polynomial is
    the empty tuple and has neither degree nor leading coefficient.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError("coefficients must be plain integers")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return to_text(self)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        return add(self, other)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return add(self, negate(other))

    def __neg__(self) -> "IntPoly":
        return negate(self)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        return multiply(self, other)


ZERO = IntPoly()
ONE = IntPoly((1,))
X = IntPoly((0, 1))


def evaluate(f: IntPoly, x: int) -> int:
    """f(x) by Horner's rule, exactly."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def derivative(f: IntPoly) -> IntPoly:
    return IntPoly([i * c for i, c in enumerate(f.coeffs)][1:])


def add(f: IntPoly, g: IntPoly) -> IntPoly:
    a, b = f.coeffs, g.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return IntPoly(out)


def negate(f: IntPoly) -> IntPoly:
    return IntPoly([-c for c in f.coeffs])


def multiply(f: IntPoly, g: IntPoly) -> IntPoly:
    """f * g by Kronecker substitution: one big-integer product.

    Each factor is packed into one integer of w-byte digits, w wide
    enough for the largest product coefficient and its sign; every digit
    carries an offset of half its range, so signed coefficients pack and
    unpack without borrows, and the product is read back by byte slices.
    The powers of x that divide f and g are split off first, so a
    monomial such as x**k costs no big product.
    """
    if f.is_zero or g.is_zero:
        return ZERO
    a, b = f.coeffs, g.coeffs
    square = a is b
    low = [next(i for i, c in enumerate(cs) if c) for cs in (a, b)]
    a, b = a[low[0] :], b[low[1] :]
    n = len(a) + len(b) - 1
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    w = bound.bit_length() // 8 + 1
    half = 1 << (8 * w - 1)  # > bound, so every digit lies in [1, 2 * half)
    offsets = half.to_bytes(w, "little")

    def evaluate_at_digit(cs: tuple[int, ...]) -> int:
        packed = b"".join((c + half).to_bytes(w, "little") for c in cs)
        return int.from_bytes(packed, "little") - int.from_bytes(offsets * len(cs), "little")

    fx = evaluate_at_digit(a)
    gx = fx if square else evaluate_at_digit(b)
    raw = (fx * gx + int.from_bytes(offsets * n, "little")).to_bytes(n * w, "little")
    return IntPoly(
        [0] * sum(low)
        + [int.from_bytes(raw[i : i + w], "little") - half for i in range(0, n * w, w)]
    )


def power(f: IntPoly, k: int) -> IntPoly:
    """f**k for k >= 0 by repeated squaring."""
    result = ONE
    while k:
        if k & 1:
            result = multiply(result, f)
        k >>= 1
        if k:
            f = multiply(f, f)
    return result


def content(f: IntPoly) -> int:
    """Nonnegative gcd of the coefficients; 0 for the zero polynomial."""
    g = 0
    for c in f.coeffs:
        g = _int_gcd(g, c)
        if g == 1:
            break
    return g


def primitive_part(f: IntPoly) -> IntPoly:
    """f divided by its content, sign preserved."""
    if f.is_zero:
        return ZERO
    ct = content(f)
    if ct == 1:
        return f
    return IntPoly([c // ct for c in f.coeffs])


def canonical(f: IntPoly) -> IntPoly:
    """f divided by its content, with lc > 0: the one form of a factor."""
    f = primitive_part(f)
    return negate(f) if not f.is_zero and f.lc < 0 else f


def prem(f: IntPoly, g: IntPoly) -> IntPoly:
    """Pseudo-remainder: lc(g)**(deg f - deg g + 1) * f modulo g.

    Requires deg f >= deg g and g nonzero; all arithmetic stays in Z[x].
    """
    if g.is_zero:
        raise ZeroDivisionError("pseudo-remainder by the zero polynomial")
    df, dg = f.degree, g.degree
    if df < dg:
        raise ValueError("prem requires deg f >= deg g")
    lg = g.lc
    r = list(f.coeffs)
    steps = df - dg + 1
    dr = df
    while dr >= dg and any(r):
        lead = r[dr]
        steps -= 1
        r = [lg * c for c in r]
        shift = dr - dg
        for i, c in enumerate(g.coeffs):
            r[shift + i] -= lead * c
        while len(r) > 1 and r[-1] == 0:
            r.pop()
        dr = len(r) - 1
        if r == [0]:
            r = []
            break
    if steps > 0 and r:
        m = lg**steps
        r = [m * c for c in r]
    return IntPoly(r)


def _div_coeffs(f: IntPoly, d: int) -> IntPoly:
    out = []
    for c in f.coeffs:
        q, rem = divmod(c, d)
        if rem:
            raise ArithmeticError("inexact scalar division in remainder sequence")
        out.append(q)
    return IntPoly(out)


def exact_div(f: IntPoly, g: IntPoly) -> IntPoly:
    """Quotient f / g when g divides f exactly in Z[x]."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return ZERO
    if f.degree < g.degree:
        raise ArithmeticError("inexact polynomial division")
    r = list(f.coeffs)
    q = [0] * (f.degree - g.degree + 1)
    lg = g.lc
    for k in range(len(q) - 1, -1, -1):
        lead = r[k + g.degree]
        qk, rem = divmod(lead, lg)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[k] = qk
        if qk:
            for i, c in enumerate(g.coeffs):
                r[k + i] -= qk * c
    if any(r[: g.degree]):
        raise ArithmeticError("inexact polynomial division")
    return IntPoly(q)


@lru_cache(maxsize=2)
def subresultant_prs(
    a: IntPoly, b: IntPoly
) -> tuple[tuple[IntPoly, ...], tuple[int, ...], int]:
    """Subresultant remainder sequence of a and b, deg a >= deg b, b nonzero.

    Returns the elements S_0 = a, S_1 = b, S_2, ..., a sign per element
    and the final scalar h (Collins 1967; Brown and Traub 1971).  S_{i+1}
    is prem(S_{i-1}, S_i) divided exactly by g * h**delta, delta =
    deg S_{i-1} - deg S_i.  The sequence stops at a constant, or at the
    last nonzero element, which is then gcd(a, b) up to a scalar.  With
    signs e_0 = e_1 = 1 and e_{i+1} = -e_{i-1} * sign(g) * sign(h)**delta
    * sign(lc S_i)**(delta + 1), e_i * S_i is a positive multiple of the
    i-th negated remainder of Euclid's algorithm on a and b.

    The last two results are kept: (f*, f*'), and (primitive f, its
    derivative) when f has a repeated factor.  They are read-only tuples.
    """
    seq, signs = [a, b], [1, 1]
    g = h = 1
    while seq[-1].degree > 0:
        A, B = seq[-2], seq[-1]
        delta = A.degree - B.degree
        r = prem(A, B)
        if r.is_zero:
            break
        seq.append(_div_coeffs(r, g * h**delta))
        flip = (g < 0) ^ (h < 0 and delta % 2 == 1) ^ (B.lc < 0 and delta % 2 == 0)
        signs.append(signs[-2] if flip else -signs[-2])
        g = B.lc
        if delta > 0:
            h, rem = divmod(g**delta, h ** (delta - 1))
            if rem:
                raise AssertionError("subresultant scalar h is not an integer")
    return tuple(seq), tuple(signs), h


def discriminant(f: IntPoly) -> int:
    """disc(f) = (-1)**(d(d-1)/2) Res(f, f') / lc(f) for d = deg f >= 1.

    Res(f, f') = (-1)**(sum of deg S_i * deg S_(i+1)) * lc(S_k)**e /
    h**(e - 1), e = deg S_(k-1), when the sequence of f and f' ends in a
    constant S_k, else 0 (Brown and Traub 1971; Cohen, GTM 138, 3.3.7).
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no discriminant")
    d = f.degree
    if d < 1:
        raise ValueError("discriminant requires degree at least 1")
    seq, _, h = subresultant_prs(f, derivative(f))
    last, e = seq[-1], seq[-2].degree
    if last.degree > 0:
        return 0
    res = last.lc**e
    if e > 1:
        res, rem = divmod(res, h ** (e - 1))
        if rem:
            raise AssertionError("resultant is not an integer")
    odd = d * (d - 1) // 2 + sum(A.degree * B.degree for A, B in zip(seq, seq[1:]))
    q, rem = divmod(-res if odd % 2 else res, f.lc)
    if rem:
        raise AssertionError("leading coefficient does not divide the resultant")
    return q


def squarefree_part(f: IntPoly) -> IntPoly:
    """f*: primitive, with positive leading coefficient and the complex
    roots of f, all simple; formed here and nowhere else.

    canonical(f), formed before its sequence with f' runs, divided by the
    primitive part of the sequence's last element, gcd(f, f') up to a
    scalar.  So for a squarefree f that sequence is (f*, f*').
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no squarefree part")
    fp = canonical(f)
    if fp.degree == 0:
        return ONE
    last = subresultant_prs(fp, derivative(fp))[0][-1]
    return canonical(exact_div(fp, primitive_part(last))) if last.degree > 0 else fp


def signed_terms(terms: Iterable[tuple[int, str]]) -> str:
    """Join (coefficient, monomial) pairs as in "2x^3-x+1": zero terms are
    skipped, a unit coefficient is dropped before a monomial, and the
    monomial "" is the constant term."""
    out = []
    for c, mono in terms:
        if c:
            mag = "" if abs(c) == 1 and mono else str(abs(c))
            out.append(("-" if c < 0 else "+" if out else "") + mag + mono)
    return "".join(out)


def to_text(f: IntPoly) -> str:
    """Human-readable rendering, e.g. "x^2+1" or "2x^3-x"."""
    if f.is_zero:
        return "0"
    return signed_terms(
        (f.coeffs[i], "" if i == 0 else "x" if i == 1 else f"x^{i}")
        for i in range(f.degree, -1, -1)
    )
