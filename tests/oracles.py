"""Scalar routines, the oracles the batched kernels and the remainder
sequence are tested against.

Root counts by deg gcd(x^p - x, f mod p), roots by brute force, cycle
types by distinct-degree factorization, the Jacobi symbol, and covering
of a prime by a quadratic form, one prime at a time on Python ints;
deterministic Miller-Rabin primality below 2**64; and over Z, the
schoolbook product, which the Kronecker product is tested against, the
primitive remainder sequence (gcd, squarefree part and Sturm chain) and
the Sylvester determinant of a resultant, which the subresultant
sequence is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from intersective.intpoly import (
    ONE,
    ZERO,
    IntPoly,
    derivative,
    discriminant,
    exact_div,
    negate,
    prem,
    primitive_part,
    squarefree_part,
)
from intersective.quadcover import QuadForm, form_discriminant

BRUTE_FORCE_MAX_P = 10**4

_U64 = 1 << 64

# Witness set with no strong pseudoprime below 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class FpPoly:
    """Dense polynomial over F_p, coefficients ascending and reduced."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError("modulus must be at least 2")
        if any(c < 0 or c >= self.p for c in self.coeffs):
            raise ValueError("coefficients must be reduced mod p")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no degree")
        return len(self.coeffs) - 1


def reduce(f: IntPoly, p: int) -> FpPoly:
    """Reduce f mod p; the zero FpPoly signals that f vanishes mod p."""
    if p < 2:
        raise ValueError("modulus must be at least 2")
    return FpPoly(p, tuple(_trim([c % p for c in f.coeffs])))


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n >= 1; the Legendre symbol for prime n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol requires a positive odd lower argument")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _fp_monic(a: list[int], p: int) -> list[int]:
    lead = a[-1]
    if lead == 1:
        return a
    inv = pow(lead, p - 2, p)
    return [c * inv % p for c in a]


def _fp_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a mod b over F_p; b must be monic."""
    r = list(a)
    db = len(b) - 1
    while len(r) - 1 >= db and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - db
            for i in range(db):
                r[shift + i] = (r[shift + i] - lead * b[i]) % p
        r.pop()
    return _trim(r)


def _fp_mulmod(a: list[int], b: list[int], g: list[int], p: int) -> list[int]:
    """a * b mod g over F_p; g monic."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    out = [c % p for c in out]
    return _fp_rem(out, g, p)


def _fp_gcd_monic(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p (a or b may be empty)."""
    while b:
        b = _fp_monic(b, p)
        a, b = b, _fp_rem(a, b, p)
    if not a:
        return []
    return _fp_monic(a, p)


def _fp_pow_x(e: int, g: list[int], p: int) -> list[int]:
    """x**e mod g over F_p; g monic of degree >= 1."""
    acc = [1]
    x = _fp_rem([0, 1], g, p)
    for bit in bin(e)[2:]:
        acc = _fp_mulmod(acc, acc, g, p)
        if bit == "1":
            acc = _fp_mulmod(acc, x, g, p)
    return acc


def _fp_powmod(a: list[int], e: int, g: list[int], p: int) -> list[int]:
    acc = [1]
    for bit in bin(e)[2:]:
        acc = _fp_mulmod(acc, acc, g, p)
        if bit == "1":
            acc = _fp_mulmod(acc, a, g, p)
    return acc


def count_roots_mod_p(f: IntPoly, p: int) -> int:
    """Number of distinct roots of f in F_p.

    Computed as deg gcd(x**p - x, f mod p); primes dividing lc(f) simply
    see the degree-dropped reduction.  Raises if f vanishes mod p.
    """
    g = reduce(f, p)
    if g.is_zero:
        raise ValueError(f"polynomial is identically zero mod {p}")
    if g.degree == 0:
        return 0
    gm = _fp_monic(list(g.coeffs), p)
    h = _fp_pow_x(p, gm, p)
    # subtract x inside the quotient ring
    xm = _fp_rem([0, 1], gm, p)
    diff = [0] * max(len(h), len(xm))
    for i, c in enumerate(h):
        diff[i] = c
    for i, c in enumerate(xm):
        diff[i] = (diff[i] - c) % p
    diff = _trim(diff)
    if not diff:
        return g.degree
    d = _fp_gcd_monic(gm, diff, p)
    return len(d) - 1


def roots_mod_p_bruteforce(f: IntPoly, p: int) -> set[int]:
    """All roots of f in F_p by direct evaluation; p capped for sanity."""
    if p > BRUTE_FORCE_MAX_P:
        raise ValueError(f"brute-force root search capped at p <= {BRUTE_FORCE_MAX_P}")
    g = reduce(f, p)
    if g.is_zero:
        raise ValueError(f"polynomial is identically zero mod {p}")
    roots = set()
    for x in range(p):
        acc = 0
        for c in reversed(g.coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.add(x)
    return roots


def cycle_type_of_good_prime(fstar: IntPoly, p: int) -> tuple[int, ...]:
    """Distinct-degree census for squarefree fstar at p not dividing
    lc(fstar) * disc(fstar); no validation, callers guarantee the input."""
    g = _fp_monic([c % p for c in fstar.coeffs], p)
    parts: list[int] = []
    r = g
    h = _fp_rem([0, 1], r, p)
    d = 0
    while len(r) - 1 > 0:
        d += 1
        deg_r = len(r) - 1
        if 2 * d > deg_r:
            parts.append(deg_r)
            break
        h = _fp_powmod(h, p, r, p)
        # gcd(h - x, r) collects every irreducible factor of degree d
        diff = list(h) + [0] * (2 - len(h)) if len(h) < 2 else list(h)
        diff[1] = (diff[1] - 1) % p
        diff = _trim(diff)
        gd = _fp_gcd_monic(r, diff, p) if diff else r
        if len(gd) - 1 > 0:
            parts.extend([d] * ((len(gd) - 1) // d))
            r = _fp_exact_div(r, gd, p)
            h = _fp_rem(h, r, p)
    return tuple(sorted(parts))


def _fp_exact_div(a: list[int], b: list[int], p: int) -> list[int]:
    """a / b over F_p when b divides a; b monic."""
    r = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        lead = r[k + db]
        q[k] = lead
        if lead:
            for i in range(db + 1):
                r[k + i] = (r[k + i] - lead * b[i]) % p
    assert not any(r[:db])
    return _trim(q)


def cycle_type_mod_p(f: IntPoly, p: int) -> tuple[int, ...]:
    """Multiset of irreducible factor degrees of squarefree_part(f) mod p.

    Requires p prime and coprime to lc(f*) * disc(f*), where f* is the
    squarefree part; such reductions stay squarefree of full degree.
    """
    fstar = squarefree_part(f)
    if fstar.degree == 0:
        raise ValueError("cycle type requires degree at least 1")
    if fstar.lc % p == 0 or discriminant(fstar) % p == 0:
        raise ValueError(f"{p} divides lc or disc of the squarefree part")
    return cycle_type_of_good_prime(fstar, p)


def form_covers_p_exhaustive(q: QuadForm, p: int) -> bool:
    """Nontrivial zero mod p by direct projective enumeration."""
    if q.a % p == 0:
        return True  # the point (1, 0)
    return any((q.a * x * x + q.b * x + q.c) % p == 0 for x in range(p))


def form_covers_p(q: QuadForm, p: int) -> bool:
    """Whether q has a nontrivial zero mod the prime p.

    For odd p with p not dividing a this is the residue test
    jacobi(b^2 - 4ac, p) != -1; the remaining cases fall back to
    exhaustive enumeration.
    """
    if p == 2 or q.a % p == 0:
        return form_covers_p_exhaustive(q, p)
    return jacobi(form_discriminant(q), p) != -1


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2**64.

    Miller-Rabin with a fixed witness set that is exact over the full
    64-bit range; larger inputs are rejected rather than answered
    probabilistically.
    """
    if n < 0:
        raise ValueError("primality is defined for nonnegative integers")
    if n >= _U64:
        raise ValueError("is_prime only certifies integers below 2**64")
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def schoolbook_multiply(f: IntPoly, g: IntPoly) -> IntPoly:
    if f.is_zero or g.is_zero:
        return ZERO
    a, b = f.coeffs, g.coeffs
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return IntPoly(out)


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd in Z[x] with positive leading coefficient."""

    def normalized(h: IntPoly) -> IntPoly:
        h = primitive_part(h)
        return negate(h) if not h.is_zero and h.lc < 0 else h

    if f.is_zero:
        return normalized(g)
    if g.is_zero:
        return normalized(f)
    a, b = primitive_part(f), primitive_part(g)
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        if b.degree == 0:
            return ONE
        a, b = b, primitive_part(prem(a, b))
    return normalized(a)


def squarefree_part_by_gcd(f: IntPoly) -> IntPoly:
    """Primitive polynomial with the same complex roots as f, all simple.

    Computed as primitive(f) / gcd(f, f'); the result has positive
    leading coefficient.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no squarefree part")
    fp = primitive_part(f)
    if fp.degree == 0:
        return ONE
    g = poly_gcd(fp, derivative(fp))
    q = exact_div(fp, g) if g.degree > 0 else fp
    if q.lc < 0:
        q = negate(q)
    return q


def _next_element(a: IntPoly, b: IntPoly) -> IntPoly:
    """Negated remainder of a by b under a positive scalar multiplier."""
    r = prem(a, b)
    if b.lc < 0 and (a.degree - b.degree + 1) % 2 == 1:
        r = negate(r)  # restore the sign lc(b)**odd would have flipped
    return primitive_part(negate(r))


def sturm_chain_by_primitive_prs(f: IntPoly) -> list[IntPoly]:
    """Sturm chain of squarefree_part(f); ends in a nonzero constant."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no Sturm chain")
    if f.degree < 1:
        raise ValueError("Sturm chain requires degree at least 1")
    fstar = squarefree_part_by_gcd(f)
    chain = [fstar, derivative(fstar)]
    while chain[-1].degree > 0:
        nxt = _next_element(chain[-2], chain[-1])
        assert not nxt.is_zero, "squarefree input produced a degenerate chain"
        chain.append(nxt)
    return chain


def sylvester_resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) as the Sylvester matrix's determinant, by Bareiss's
    fraction-free elimination."""
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
