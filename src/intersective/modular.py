"""Polynomial arithmetic mod p: root counts, Jacobi symbols, cycle types.

The root count of f mod p is deg gcd(x^p - x, f) over F_p, so only
distinct roots are seen.  Over a block of primes it comes from a batched
rank over F_p: d - rank of multiplication by x^p - x on F_p[x]/(f).  The
scalar gcd is kept as its oracle and int64 fallback.

The cycle type of a squarefree polynomial at a good prime is the multiset
of irreducible factor degrees.  Over a block of primes it comes from a
rank census: with Q the Berlekamp matrix of Frobenius on F_p[x]/(f),
dim ker(Q^k - I) = sum_i gcd(k, d_i) over the factor degrees d_i, and
Moebius inversion over k = 1..deg f recovers the degrees.  The scalar
distinct-degree factorization (no equal-degree splitting) is kept as its
oracle.  census_block gives root counts and cycle types from one powering
of x^p mod f.

Exact residues of big integers mod prime arrays (_residues) serve the
scanner's bad-prime filter and the batched Euler criterion of the
example-prime search that a fails-to-cover verdict runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .intpoly import IntPoly, discriminant, squarefree_part
from .primes import iter_prime_arrays

BRUTE_FORCE_MAX_P = 10**4

# Batched arithmetic keeps every int64 entry within deg * p**2 in absolute
# value (see _frobenius_block), so it stays exact while deg * p**2 < 2**63.
_INT64_LIMIT = 1 << 63

# Lanes per chunk times the entries per lane stays below this, so each array
# of a batched rank step holds at most 512 KiB whatever the number of
# primes: d**3 entries per lane for the d matrices Q^k - I of the cycle-type
# census, d**2 for the d x d matrix of the root count.
_RANK_CHUNK_ENTRIES = 1 << 16


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


def _batch_powmod(base: np.ndarray, exp: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Elementwise base**exp mod p on int64 arrays."""
    acc = np.ones_like(p)
    b = base % p
    e = exp.copy()
    while e.max() > 0:
        odd = (e & 1).astype(bool)
        acc[odd] = acc[odd] * b[odd] % p[odd]
        b = b * b % p
        e >>= 1
    return acc


def _residues(d: int, p: np.ndarray) -> np.ndarray:
    """d mod p for each prime p < 2**31, exactly for any integer d:
    Horner over the 30-bit limbs of |d|, every step below 2**62."""
    m = abs(d)
    r = np.zeros_like(p)
    for shift in range(30 * ((m.bit_length() - 1) // 30), -1, -30):
        r <<= 30
        r += (m >> shift) & 0x3FFFFFFF
        r %= p
    return (-r) % p if d < 0 else r


def _find_uncovered_prime(discs: list[int], bound: int) -> int | None:
    """Smallest odd prime up to bound where every discriminant is a
    nonresidue; such a prime divides no a_i and no disc_i.

    Euler's criterion d^((p-1)/2) = -1 mod p runs over arrays of primes,
    one discriminant at a time on the primes still in play.  The windows
    of primes grow by 16x, so an early example costs one small window.
    """
    if bound >= 1 << 31:
        raise ValueError("example prime bound must be below 2**31")
    lo, hi = 3, 1 << 10
    while lo <= bound:
        for p in iter_prime_arrays(lo, min(hi, bound)):
            for d in discs:
                if not p.size:
                    break
                p = p[_batch_powmod(_residues(d, p), p >> 1, p) == p - 1]
            if p.size:
                return int(p[0])
        lo, hi = hi + 1, hi << 4
    return None


def count_roots_block(f: IntPoly, primes: np.ndarray) -> np.ndarray:
    """count_roots_mod_p(f, p) for every p in primes, batched.

    Every prime must leave the degree intact (p does not divide lc(f)).
    The count is d - rank(M_h) over F_p, where M_h is multiplication by
    h = x^p - x on F_p[x]/(g), g = f mod p: its kernel has dimension
    deg gcd(g, h), so the count is exact for any g, squarefree or not.
    The ranks come from batched fraction-free elimination in lane
    chunks.  Falls back to the scalar routine when int64 cannot hold the
    intermediate products.
    """
    if f.is_zero:
        raise ValueError("polynomial is identically zero")
    d = f.degree
    n = int(primes.size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if d == 0:
        return np.zeros(n, dtype=np.int64)
    if not _fits_int64(d, primes):
        return np.array([count_roots_mod_p(f, int(p)) for p in primes], dtype=np.int64)
    if d == 1:
        return np.ones(n, dtype=np.int64)
    return _root_counts(*_frobenius_block(f, primes))


def cycle_types_block(f: IntPoly, primes: np.ndarray) -> np.ndarray:
    """Cycle types of squarefree f at every good prime in primes, batched.

    Entry [i, m - 1] is the number of irreducible factors of degree m of
    f mod primes[i], so row i is cycle_type_of_good_prime(f, primes[i])
    as counts per part.  Every prime must be good: p divides neither
    lc(f) nor disc(f).  Falls back to the scalar routine when int64
    cannot hold the intermediate products.

    The Berlekamp matrix Q of Frobenius on F_p[x]/(g) has columns
    x^(jp) mod g, and dim ker(Q^k - I) = sum_i gcd(k, d_i) over the
    factor degrees d_i; Moebius inversion over k = 1..d yields the
    counts.  Ranks come from fraction-free elimination, so no inverses
    are needed, and lanes run in chunks of bounded size.
    """
    if f.is_zero:
        raise ValueError("polynomial is identically zero")
    d = f.degree
    n = int(primes.size)
    if n == 0 or d < 2:
        return np.ones((n, d), dtype=np.int64)
    if not _fits_int64(d, primes):
        types = np.zeros((n, d), dtype=np.int64)
        for i, q in enumerate(primes.tolist()):
            for part in cycle_type_of_good_prime(f, q):
                types[i, part - 1] += 1
        return types
    return _cycle_types(*_frobenius_block(f, primes))


def census_block(f: IntPoly, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(count_roots_block(f, primes), cycle_types_block(f, primes)).

    Both come from one powering of x^p mod g.  The root count is the
    rank of multiplication by x^p - x and the cycle type comes from the
    ranks of Q^k - I, so comparing them still checks one matrix against
    another.  The primes must be good for squarefree f.
    """
    if f.is_zero:
        raise ValueError("polynomial is identically zero")
    if primes.size == 0 or f.degree < 2 or not _fits_int64(f.degree, primes):
        return count_roots_block(f, primes), cycle_types_block(f, primes)
    frob = _frobenius_block(f, primes)
    return _root_counts(*frob), _cycle_types(*frob)


def _fits_int64(d: int, primes: np.ndarray) -> bool:
    pmax = int(primes.max())
    return d * pmax * pmax < _INT64_LIMIT


def _frobenius_block(
    f: IntPoly, primes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monic reductions g and H = x^p mod g at every prime, batched.

    Returns (p, G, H) coefficient-major: g = x^d + sum G[j] x^j and
    H[j] is the coefficient of x^j, each row holding one value per
    prime.  Needs d >= 2, no prime dividing lc(f), and d * pmax**2 < 2**63.
    """
    d = f.degree
    n = int(primes.size)
    pmax = int(primes.max())
    # Lazy bound: an entry of a product sums at most d products of reduced
    # entries, each below p**2, and the lazy reduction (_reduce_mod_g)
    # subtracts at most d - 1 more, so entries stay within d * p**2.
    assert d * pmax * pmax < _INT64_LIMIT, "int64 products would overflow"
    p = primes.astype(np.int64)
    coeffs = f.coeffs
    if max(abs(c) for c in coeffs) < _INT64_LIMIT // 2:
        cols = [np.remainder(np.int64(c), p) for c in coeffs]
    else:
        plist = p.tolist()
        cols = [np.array([c % q for q in plist], dtype=np.int64) for c in coeffs]
    lead = cols[-1]
    assert int((lead == 0).sum()) == 0, "prime divides leading coefficient"
    inv = _batch_powmod(lead, p - 2, p)
    # monic reduction g = x^d + sum G[j] x^j
    G = np.stack([col * inv % p for col in cols[:-1]])

    def square(acc: np.ndarray) -> np.ndarray:
        t = np.empty((2 * d - 1, n), dtype=np.int64)
        t[0::2] = acc * acc
        t[1::2] = 0
        for i in range(d - 1):
            t[2 * i + 1 : i + d] += (2 * acc[i]) * acc[i + 1 :]
        return _reduce_mod_g(t, G, p)

    acc = np.zeros((d, n), dtype=np.int64)
    acc[0] = 1
    for k in range(pmax.bit_length() - 1, -1, -1):
        acc = square(acc)
        mask = ((p >> k) & 1).astype(bool)
        if mask.any():
            acc = np.where(mask, _mul_by_x(acc, G, p), acc)
    return p, G, acc


def _mul_by_x(a: np.ndarray, G: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x * a mod g per lane, coefficient-major, a reduced."""
    out = np.empty_like(a)
    out[1:] = a[:-1]
    out[0] = 0
    out -= a[-1] * G
    out %= p
    return out


def _mulmod(a: np.ndarray, b: np.ndarray, G: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a * b mod g per lane, coefficient-major, a and b reduced."""
    d, n = a.shape
    t = np.zeros((2 * d - 1, n), dtype=np.int64)
    for i in range(d):
        t[i : i + d] += a[i] * b
    return _reduce_mod_g(t, G, p)


def _reduce_mod_g(t: np.ndarray, G: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Reduce rows t of degree < 2d - 1 modulo monic g; t is consumed.

    Entries of t may be unreduced sums of at most d products below p**2.
    Reduction is lazy: each step takes % p of the leading row only and
    subtracts below p**2 from the d rows beneath it, so an entry gets at
    most d - 1 subtractions and stays within d * p**2 in absolute value.
    The remainder is reduced once at the end.
    """
    d = G.shape[0]
    for k in range(2 * d - 2, d - 1, -1):
        t[k - d : k] -= (t[k] % p) * G
    return t[:d] % p


def _root_counts(p: np.ndarray, G: np.ndarray, H: np.ndarray) -> np.ndarray:
    """d - rank(M_h) per lane, M_h with columns x^j * (H - x) mod g."""
    d, n = H.shape
    h = H.copy()
    h[1] = (h[1] - 1) % p  # x^p - x in the quotient ring
    counts = np.full(n, d, dtype=np.int64)
    rest = np.flatnonzero(h.any(axis=0))  # h = 0: g splits into distinct roots
    chunk = max(1, _RANK_CHUNK_ENTRIES // d**2)
    for lo in range(0, rest.size, chunk):
        idx = rest[lo : lo + chunk]
        q, g, col = p[idx], G[:, idx], h[:, idx]
        M = np.empty((idx.size, d, d), dtype=np.int64)
        for j in range(d):
            M[:, :, j] = col.T
            if j + 1 < d:
                col = _mul_by_x(col, g, q)
        counts[idx] = d - _batch_rank(M, q)
    return counts


def _cycle_types(p: np.ndarray, G: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Counts per factor degree from the ranks of Q^k - I, in lane chunks."""
    d, n = H.shape
    chunk = max(1, _RANK_CHUNK_ENTRIES // d**3)
    kernel_dims = np.concatenate([
        d - _frobenius_power_ranks(p[s], G[:, s], H[:, s])
        for s in (slice(lo, lo + chunk) for lo in range(0, n, chunk))
    ])
    return _moebius_counts(kernel_dims)


def _frobenius_power_ranks(p: np.ndarray, G: np.ndarray, H: np.ndarray) -> np.ndarray:
    """rank(Q^k - I) over F_p for k = 1..d per lane, as an n x d array."""
    d, n = H.shape
    Q = np.zeros((n, d, d), dtype=np.int64)
    Q[:, 0, 0] = 1
    col = H
    for j in range(1, d):
        Q[:, :, j] = col.T
        if j + 1 < d:
            col = _mulmod(col, H, G, p)
    P = p[:, None, None]
    eye = np.eye(d, dtype=np.int64)
    # column 0 of Q^k - I is zero (Q fixes the constant 1), so it is left out
    stack = np.empty((n, d, d, d - 1), dtype=np.int64)
    Qk = Q
    for k in range(d):
        if k:
            Qk = Qk @ Q % P
        stack[:, k] = (Qk[:, :, 1:] - eye[:, 1:]) % P
    return _batch_rank(stack.reshape(n * d, d, d - 1), np.repeat(p, d)).reshape(n, d)


def _batch_rank(M: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rank over F_p[i] of every matrix M[i] (entries reduced); M is consumed.

    Fraction-free Gauss-Jordan: a pivot a in row r clears column j from
    every other row as row <- a * row - row[j] * M[r], so entries stay
    below p**2 before reduction.  Columns up to j are never read again,
    so only the columns right of j are updated.
    """
    m, rows, cols = M.shape
    lanes = np.arange(m)
    used = np.zeros((m, rows), dtype=bool)
    rank = np.zeros(m, dtype=np.int64)
    P = p[:, None, None]
    for j in range(cols):
        col = M[:, :, j]
        cand = (col != 0) & ~used
        has = cand.any(axis=1)
        r = cand.argmax(axis=1)
        used[lanes, r] |= has
        rank += has
        if j + 1 == cols:
            break
        rest = M[:, :, j + 1 :]
        pivot_row = rest[lanes, r]
        coef = col * has[:, None]  # lanes without a pivot keep their rows
        rest *= np.where(has, col[lanes, r], 1)[:, None, None]
        rest -= coef[:, :, None] * pivot_row[:, None, :]
        rest %= P
        rest[lanes, r] = pivot_row
    return rank


def _moebius_counts(kernel_dims: np.ndarray) -> np.ndarray:
    """Counts c_m from N_k = sum_m c_m gcd(k, m), k, m = 1..d, per row.

    gcd(k, m) = sum over e dividing both of phi(e), so N_k sums
    phi(e) * A_e over e | k, where A_e counts the factors of degree
    divisible by e.  Moebius inversion over divisors gives A_e, and
    over multiples gives c_m.
    """
    d = kernel_dims.shape[1]
    mu = [0] + [_moebius(k) for k in range(1, d + 1)]
    A = np.empty_like(kernel_dims)
    for e in range(1, d + 1):
        divisors = [j for j in range(1, e + 1) if e % j == 0]
        phi = sum(mu[e // j] * j for j in divisors)
        A[:, e - 1] = sum(mu[e // j] * kernel_dims[:, j - 1] for j in divisors) // phi
    counts = np.empty_like(kernel_dims)
    for m in range(1, d + 1):
        counts[:, m - 1] = sum(mu[t] * A[:, t * m - 1] for t in range(1, d // m + 1))
    return counts


def _moebius(n: int) -> int:
    result, q = 1, 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            result = -result
        q += 1
    return -result if n > 1 else result
