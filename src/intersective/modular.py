"""Polynomial arithmetic mod p over blocks of primes: root counts and
cycle types.

Both come from one distinct-degree kernel, _distinct_degrees.  Over a
chunk of primes it powers H_1 = x^p mod f, takes H_k = x^(p^k) mod f
for k = 2..K from the Berlekamp matrix of Frobenius, and runs one
lockstep gcd-degree call on all the H_k - x side by side, giving the
distinct-degree counts D_k = deg gcd(f, x^(p^k) - x) = sum of m * c_m
over m dividing k, c_m the number of factors of degree m.

The root count of f mod p is D_1 = deg gcd(x^p - x, f) over F_p, so only
distinct roots are seen: count_roots_block runs the kernel with K = 1.
The cycle type of a squarefree polynomial at a good prime is the
multiset of irreducible factor degrees: census_block runs the kernel
with K = deg f / 2, a divisor sieve gives c_m for m <= deg f / 2, and
the degree left over is one factor.  Its 1-parts are the root counts.

Every gcd degree goes through one kernel, _gcd_degrees: the polynomial
divsteps of Bernstein and Yang ("Fast constant-time gcd computation and
modular inversion", TCHES 2019(3)), 2d - 1 branch-free steps run in
lockstep across the lanes, lanes innermost, O(d^2) per lane.  f is made
monic without a modular inverse: F(y) = c^(d-1) f(y/c), c = lc(f), has the
same root count and factor degrees at every p not dividing c.  The
powering is exact int64 while deg f * p**2 < 2**63; a block with a larger
prime is refused with a ValueError naming the degree and the prime
(_chunks), never answered another way.  The scalar routines the
kernels are checked against live with the tests, in tests/oracles.py.

Memory is bounded by the chunk, not by the block.  count_roots_block and
census_block share one chunk loop, _chunks: it checks the whole block
once, then takes its primes one lane chunk at a time through every
stage (coefficient reduction, monic g, powering, for a census the
Berlekamp matrix, and the gcd), and the callers write each chunk's
counts and types straight into the block's output.  One rule,
_chunk_lanes, sizes the chunks: (_CHUNK_ENTRIES >> 2) // d lanes for a
root count, _CHUNK_ENTRIES // d**2 for a census that builds a Berlekamp
matrix.  A scan's census takes its primes in slices of about as many
primes as a root-count chunk of deg f* has lanes (scanner._scan_block),
so no array of deg f times a block's primes exists, and a scan worker's
working set is a small multiple of _CHUNK_ENTRIES entries whatever the
block size.  Outside the kernels, the Euler criterion holds four arrays
of its primes' size, since _nonresidue squares its base and shifts its
exponent in place, and the example-prime search takes each sieve array
in slices of _CHUNK_ENTRIES >> 2 primes.

The kernels see only what a scan cannot count more cheaply: the scanner
counts the roots and parts of the factors of degree <= 2 of f* (the
forms' own, or factor.small_factors') by Euler's criterion
(scanner._good_prime_counts) and passes the cofactor, of degree >= 3,
to count_roots_block or census_block, which also takes a constant one.
So the int64 bound applies to the cofactor alone, the only polynomial
the kernels power, and a constant one gets no chunk.

Exact residues of big integers mod prime arrays (_residues) serve the
reduction of the coefficients and the scanner's bad-prime filter.  One
batched Euler criterion, _nonresidue, serves the scanner's root counts
of quadratic factors, its Stickelberger check, and the example-prime
search that a fails-to-cover verdict runs.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .intpoly import IntPoly
from .parse import InvariantViolation
from .primes import iter_prime_arrays

# The powering keeps every int64 entry within deg * p**2 in absolute value
# (see _chunks), and the gcd kernel within 2 * p**2, so batched
# arithmetic stays exact while deg * p**2 < 2**63.
_INT64_LIMIT = 1 << 63

# The entries of a chunk (_chunk_lanes): lanes times d**2, one Berlekamp
# matrix per lane, in a census of degree d >= 4, and lanes times 4d in a
# root count.  A chunk's arrays hold a small multiple of this, whatever
# the number of primes: the powering keeps about 5d + 7 rows of lanes
# live, the gcd kernel three arrays of d + 1 rows beside g and h, and a
# census its Berlekamp matrix, then the stack of H_k - x (about d**2 / 2
# per lane) in the gcd.  Beside its output, a kernel peaks (tracemalloc)
# near 0.8-1.0 MiB in a root count of degree 3 or 10, and 1.3-1.5 MiB in
# a census of degree 5 to 12.
_CHUNK_ENTRIES = 1 << 16


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


def _nonresidue(d: int, primes: np.ndarray) -> np.ndarray:
    """(d | p) = -1 for each odd prime p < 2**31, by Euler's criterion
    d^((p-1)/2) = -1 mod p; False where p divides d.  primes is left
    as it is.

    Square and multiply in place on residues in [0, p), so np.fmod never
    sees a negative entry; a lane whose exponent bit is clear multiplies
    by 1, branch-free.  A call holds four arrays of the primes' size: the
    base, the exponent, the power and the bit.
    """
    b = _residues(d, primes)
    e = primes >> 1
    acc = np.ones_like(primes)
    bit = np.empty_like(e)
    for _ in range(int(e.max()).bit_length()):
        np.bitwise_and(e, 1, out=bit)
        b -= 1
        bit *= b
        b += 1
        bit += 1
        acc *= bit
        np.fmod(acc, primes, out=acc)
        b *= b
        np.fmod(b, primes, out=b)
        e >>= 1
    acc += 1
    return acc == primes


def _find_uncovered_prime(discs: list[int], bound: int) -> int | None:
    """Smallest odd prime up to bound where every discriminant is a
    nonresidue; such a prime divides no a_i and no disc_i.

    Euler's criterion d^((p-1)/2) = -1 mod p runs over arrays of primes,
    one discriminant at a time on the primes still in play.  The windows
    of primes grow by 16x, so an early example costs one small window,
    and each sieve array is filtered in slices of _CHUNK_ENTRIES >> 2
    primes, so a search to 10**6 holds about 1 MiB whatever the window.
    """
    if bound >= 1 << 31:
        raise ValueError("example prime bound must be below 2**31")
    step = _CHUNK_ENTRIES >> 2
    lo, hi = 3, 1 << 10
    while lo <= bound:
        for arr in iter_prime_arrays(lo, min(hi, bound)):
            for i in range(0, arr.size, step):
                p = arr[i : i + step]
                for d in discs:
                    if not p.size:
                        break
                    p = p[_nonresidue(d, p)]
                if p.size:
                    return int(p[0])
        lo, hi = hi + 1, hi << 4
    return None


def count_roots_block(f: IntPoly, primes: np.ndarray) -> np.ndarray:
    """Number of distinct roots of f mod p for every p in primes, batched.

    Every prime must leave the degree intact (p does not divide lc(f));
    a ValueError names the first that does not.  The count is
    D_1 = deg gcd(g, x^p - x) over F_p, g the monic reduction of f
    (_frobenius), so it is exact for any g, squarefree or not: the
    distinct-degree kernel (_distinct_degrees) with K = 1, which builds
    no Berlekamp matrix.  The primes pass through in chunks of
    _chunk_lanes(d, 1) = (_CHUNK_ENTRIES >> 2) // d lanes.
    Raises ValueError when d >= 2 and d * pmax**2 >= 2**63.
    """
    chunks = _chunks(f, primes, 1)
    counts = np.full(primes.size, f.degree, dtype=np.int64)
    for lanes, D in chunks:
        counts[lanes] = D[0]
    return counts


def census_block(f: IntPoly, primes: np.ndarray) -> np.ndarray:
    """Cycle types of squarefree f at every good prime.

    Every prime must be good: p divides neither lc(f) nor disc(f).
    Entry [i, m - 1] is the number of irreducible factors of degree m
    of f mod primes[i], so column 0 holds the root counts.  All come
    from one powering of x^p mod g: the distinct-degree counts
    D_1..D_(d/2) come from one gcd call per chunk (_distinct_degrees,
    the kernel of count_roots_block with K = d // 2), and a divisor
    sieve yields the counts (see _cycle_types).  The primes pass
    through in chunks of _chunk_lanes(d, d // 2) lanes: _CHUNK_ENTRIES
    // d**2, the size of a Berlekamp matrix, or for d <= 3, which needs
    none, the root count's (_CHUNK_ENTRIES >> 2) // d.
    Raises ValueError when d >= 2 and d * pmax**2 >= 2**63.
    """
    d = f.degree
    chunks = _chunks(f, primes, d // 2)
    types = np.ones((primes.size, d), dtype=np.int64)
    for lanes, D in chunks:
        types[lanes] = _cycle_types(primes[lanes], D, d)
    return types


def _chunks(
    f: IntPoly, primes: np.ndarray, K: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """(lane slice, D_1..D_K) per lane chunk of primes (_distinct_degrees),
    once the whole block is checked; nothing when deg f < 2 or no primes.

    Raises ValueError for the zero polynomial, then, before any chunk is
    powered, naming the largest prime when d * pmax**2 >= 2**63, and else
    naming the first prime that divides lc(f).  A chunk holds
    _chunk_lanes(d, K) lanes.
    """
    if f.is_zero:
        raise ValueError("polynomial is identically zero")
    d = f.degree
    if d < 2 or not primes.size:
        return iter(())
    # Lazy bound: a product entry sums at most d products of residues in
    # [0, p), so it lies in [0, d * (p - 1)**2], and the reduction of the
    # square, or of x times the square (_reduce_mod_g), subtracts at most d
    # more, each in [0, (p - 1)**2].  Entries stay within d * p**2.
    pmax = int(primes.max())
    if d * pmax * pmax >= _INT64_LIMIT:
        raise ValueError(
            f"degree {d} at p={pmax} is beyond exact int64 arithmetic "
            "(needs deg * p**2 < 2**63)"
        )
    p = np.asarray(primes, dtype=np.int64)
    bad = np.flatnonzero(_residues(f.lc, p) == 0)
    if bad.size:
        raise ValueError(f"p={int(p[bad[0]])} divides the leading coefficient")
    step = _chunk_lanes(d, K)
    spans = (slice(lo, lo + step) for lo in range(0, p.size, step))
    return ((s, _distinct_degrees(p[s], *_frobenius(f, p[s], K))) for s in spans)


def _chunk_lanes(d: int, K: int) -> int:
    """Lanes per chunk of the distinct-degree kernel at degree d >= 1 with
    K counts: (_CHUNK_ENTRIES >> 2) // d for a root count (K = 1), whose
    powering keeps about 5d + 7 rows of lanes live, and _CHUNK_ENTRIES
    // d**2 when K > 1, one Berlekamp matrix per lane; at least one."""
    return max(1, (_CHUNK_ENTRIES >> 2) // d if K == 1 else _CHUNK_ENTRIES // (d * d))


def _frobenius(f: IntPoly, p: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Monic reductions g and a stack whose slab 0 holds H_1 = x^p mod g,
    at every prime, batched.

    g is F(y) = c^(d-1) f(y/c) mod p, c = lc(f), monic with coefficients
    a_j c^(d-1-j): no modular inverse is needed.  At p not dividing c its
    roots are c times those of f mod p, so it has the same root count,
    distinct-degree counts and cycle type.  Returns (G, stack)
    coefficient-major: g = x^d + sum G[j] x^j, and stack has shape
    (d, K, lanes), stack[j, 0] the coefficient of x^j in H_1, one value
    per prime; slabs 1..K-1 are left for _distinct_degrees.  Needs
    d >= 2 and primes that passed the checks of _chunks; it holds O(d)
    rows of lanes beside the stack, so _chunks passes one chunk at a time.
    """
    d = f.degree
    lead = _residues(f.lc, p)
    # G[j] = a_j * c^(d-1-j), by a running power of c, row by row in place
    G = np.empty((d, p.size), dtype=np.int64)
    G[d - 1] = _residues(f.coeffs[d - 1], p)
    power = lead.copy()
    for j in range(d - 2, -1, -1):
        row = G[j]
        row[:] = _residues(f.coeffs[j], p)
        row *= power
        row %= p
        power *= lead
        power %= p
    stack = np.empty((d, K, p.size), dtype=np.int64)
    _power_x(p, G, stack[:, 0])
    return G, stack


def _power_x(p: np.ndarray, G: np.ndarray, acc: np.ndarray) -> None:
    """x^p mod g per lane into acc, coefficient-major, by one product and
    one reduction per exponent bit.

    The powering starts from the monomial x^(p >> k0), k0 the least shift
    with p >> k0 < d in every lane, which needs no reduction.  Each lower
    bit squares, and where the bit is set the reduction takes x times
    the square (_reduce_mod_g's x_lanes).
    """
    d, n = G.shape
    pmax, k0 = int(p.max()), 0
    while pmax >> k0 >= d:
        k0 += 1
    acc[:] = 0
    acc[p >> k0, np.arange(n)] = 1
    t = np.empty((2 * d - 1, n), dtype=np.int64)
    w = np.empty((d - 1, n), dtype=np.int64)
    two = np.empty(n, dtype=np.int64)
    for k in range(k0 - 1, -1, -1):
        np.multiply(acc, acc, out=t[0::2])
        t[1::2] = 0
        for i in range(d - 1):
            np.add(acc[i], acc[i], out=two)
            np.multiply(acc[i + 1 :], two, out=w[i:])
            t[2 * i + 1 : i + d] += w[i:]
        x_lanes = -((p >> k) & 1)
        _reduce_mod_g(t, G, p, acc, x_lanes if x_lanes.any() else None)


def _mod(a: np.ndarray, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a mod p in [0, p), exact for any int64 a: a signed fmod, then p
    added where the residue is negative.  a is overwritten, and out must
    not share memory with it."""
    r = np.fmod(a, p, out=out)
    np.right_shift(r, 63, out=a)
    a &= p
    r += a
    return r


def _mulmod(a: np.ndarray, b: np.ndarray, G: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a * b mod g per lane, coefficient-major, a and b reduced."""
    d, n = a.shape
    t = np.zeros((2 * d - 1, n), dtype=np.int64)
    for i in range(d):
        t[i : i + d] += a[i] * b
    return _reduce_mod_g(t, G, p)


def _reduce_mod_g(
    t: np.ndarray,
    G: np.ndarray,
    p: np.ndarray,
    out: np.ndarray | None = None,
    x_lanes: np.ndarray | None = None,
) -> np.ndarray:
    """Rows t of degree < 2d - 1 modulo monic g, into [0, p); t is consumed,
    and out, when given, also holds the products of G until the end.

    x_lanes, when given, holds -1 (all bits set) in the lanes that are
    reduced as x * t and 0 in the others.  Entries of t may be unreduced
    sums of at most d products of residues in [0, p).  Reduction is lazy:
    each step takes the residue in [0, p) of the leading row only (_mod)
    and subtracts its products with G, each in [0, (p - 1)**2], from the
    d rows beneath it.  x * t has d leading rows (x^(2d - 1) down to x^d)
    and t has d - 1; coefficient m < d of the remainder gets at most
    m + 1 <= d subtractions, so every entry stays within d * p**2 in
    absolute value.  The remainder is reduced once at the end.
    """
    d = G.shape[0]
    r = np.empty_like(p)
    w = np.empty_like(G) if out is None else out  # the products of G
    for k in range(t.shape[0] - 1, d - 1, -1):
        np.multiply(G, _mod(t[k], p, out=r), out=w)
        t[k - d : k] -= w
    if x_lanes is not None:
        # row d - 1 of t is the lead row x^d of x * t, and in those lanes
        # the rows below it move up one (an xor blend)
        _mod(t[d - 1].copy(), p, out=r)
        r &= x_lanes
        np.multiply(G, r, out=w)
        for j in range(d - 1, 0, -1):
            np.bitwise_xor(t[j], t[j - 1], out=r)
            r &= x_lanes
            t[j] ^= r
        t[0] &= ~x_lanes
        t[:d] -= w
    return _mod(t[:d], p, out=out)


def _gcd_degrees(p: np.ndarray, G: np.ndarray, h: np.ndarray) -> np.ndarray:
    """deg gcd(g, h) per lane, g = x^d + sum G[j] x^j and deg h < d, the
    entries of h in (-p, p).

    h may hold several polynomials per prime side by side: its lane j
    goes with lane j mod n of p and G, n = p.size.  Lanes with h = 0 have
    gcd g; the others are gathered straight into the arrays of _divsteps,
    so neither G nor h is copied.
    """
    d, n = G.shape
    live = np.flatnonzero(h.any(axis=0))
    col = live % n
    f = np.empty((d + 1, live.size), dtype=np.int64)
    f[0] = 1
    # mode="clip" lets take write into out unbuffered; every index is valid
    np.take(G[::-1], col, axis=1, out=f[1:], mode="clip")
    g = np.zeros_like(f)  # row d stays 0, the coefficient past deg f
    np.take(h[::-1], live, axis=1, out=g[:d], mode="clip")
    degs = np.full(h.shape[1], d, dtype=np.int64)
    degs[live] = _divsteps(p[col], f, g)
    return degs


def _divsteps(p: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """deg gcd(g, h) per lane by 2d - 1 polynomial divsteps in lockstep.

    The arguments are the divstep pair, d + 1 rows each, and are consumed:
    f = x^d g(1/x), so f[0] = 1, and g' = x^(d-1) h(1/x), whose row d is 0.
    Bernstein-Yang: from delta = 1, where delta > 0 and g'[0] != 0 a step
    first swaps f and g' and negates delta; then it replaces g' by
    (f[0] g' - g'[0] f) / x of the pair as it now stands, and delta grows
    by 1.  After 2d - 1 steps g' = 0 and delta = 2 deg gcd(g, h).  Entries
    are fmod residues in (-p, p), so every product difference stays
    below 2 p**2 < 2**63.  A step reads the first 2d - 1 - step
    coefficients only, so rows are cut to that length.  The swap is an
    xor blend under a mask of -1 (all bits set) in the lanes that swap,
    as is the negation of delta.  Three arrays of d + 1 rows are live:
    f, g' and the next g', which is the scratch of the blend and of the
    products.
    """
    d, n = f.shape[0] - 1, f.shape[1]
    nxt = np.empty_like(g)
    delta = np.ones(n, dtype=np.int64)
    mask = np.empty(n, dtype=np.int64)
    for step in range(2 * d - 1):
        rows = min(d + 1, 2 * d - 1 - step)
        mask[:] = (delta > 0) & (g[0] != 0)
        np.negative(mask, out=mask)
        u = nxt[:rows]
        np.bitwise_xor(f[:rows], g[:rows], out=u)
        u &= mask
        f[:rows] ^= u
        g[:rows] ^= u
        delta ^= mask  # (delta ^ -1) - (-1) = -delta
        delta -= mask
        delta += 1
        u = nxt[: rows - 1]
        np.multiply(f[1:rows], g[0], out=u)
        t = g[1:rows]
        t *= f[0]
        np.subtract(t, u, out=u)
        np.fmod(u, p, out=u)
        nxt[rows - 1] = 0  # the coefficient past the new g', read while rows = d + 1
        g, nxt = nxt, g
    return delta >> 1


def _distinct_degrees(p: np.ndarray, G: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Distinct-degree counts D_k = deg gcd(g, x^(p^k) - x), k = 1..K, one
    row per k, from a (d, K, lanes) stack whose slab 0 holds H_1 = x^p
    mod g (_frobenius); the stack is consumed.

    For K > 1, H_k = x^(p^k) mod g is Q H_(k-1) with Q the Berlekamp
    matrix (columns x^(jp) mod g), written into slab k - 1.  Then x is
    subtracted from every slab, and the H_k - x stand side by side, lane
    j for D_(j // lanes + 1), in a single _gcd_degrees call.  The
    Berlekamp matrix holds d**2 entries per lane and the stack about
    d**2 / 2, so census_block passes chunks of _CHUNK_ENTRIES // d**2
    lanes (_chunk_lanes); K = 1, the root count, builds no matrix.
    """
    d, K, n = stack.shape
    if K > 1:
        H = stack[:, 0]
        Q = np.zeros((d, d, n), dtype=np.int64)
        Q[0, 0] = 1
        col = H
        for j in range(1, d):
            Q[:, j] = col
            if j + 1 < d:
                col = _mulmod(col, H, G, p)
        for k in range(1, K):
            # each sum holds d products below p**2
            Hk = np.einsum("ijl,jl->il", Q, stack[:, k - 1], out=stack[:, k])
            Hk %= p
        del Q  # freed before the gcd, so the two peaks do not add up
    stack[1] -= 1  # entries in (-p, p)
    return _gcd_degrees(p, G, stack.reshape(d, K * n)).reshape(K, n)


def _cycle_types(p: np.ndarray, D: np.ndarray, d: int) -> np.ndarray:
    """Counts per factor degree, one row per lane, from the distinct-degree
    counts D_k = sum of m * c_m over m dividing k, k <= d/2 (D[k - 1]).

    A divisor sieve gives m * c_m = D_m - sum of e * c_e over the proper
    divisors e of m, m ascending; the degree left over is either 0 or one
    factor of degree above d/2.  Raises InvariantViolation, naming the
    prime, when some m * c_m is negative or not a multiple of m, or the
    leftover degree is negative or at most d/2.
    """
    half, n = D.shape
    mc = D.copy()  # mc[m - 1] = m * c_m once the divisors of m are sieved
    for m in range(1, half // 2 + 1):
        mc[2 * m - 1 :: m] -= mc[m - 1]
    m_col = np.arange(1, half + 1)[:, None]
    left = d - mc.sum(axis=0)
    wrong = (mc < 0).any(axis=0) | (mc % m_col != 0).any(axis=0)
    wrong |= (left < 0) | ((left > 0) & (left <= half))
    if wrong.any():
        i = int(np.flatnonzero(wrong)[0])
        raise InvariantViolation(
            f"distinct-degree counts {D[:, i].tolist()} at p={int(p[i])} "
            f"fit no factorization of degree {d}"
        )
    types = np.zeros((n, d), dtype=np.int64)
    types[:, :half] = (mc // m_col).T
    big = np.flatnonzero(left)
    types[big, left[big] - 1] = 1
    return types
