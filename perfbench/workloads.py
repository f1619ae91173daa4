"""Seeded job lists for the three benchmark workloads.

Every job is one `python -m intersective.cli` invocation.  The inputs are
drawn from `random.Random(f"<workload>:<seed>")`, so a seed always gives
the same jobs.  Polynomials are built so that the benchmark knows their
shape without asking the code under test: every polynomial is squarefree
of full degree, and every product of quadratics has pairwise coprime
irreducible factors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from math import gcd, isqrt

# Forms coefficients stop at 10**7: at 10**9 about one discriminant in
# five is refused with "cannot certify the squarefree kernel".  Below 10**7
# about 0.2% still are; such a job counts as failed and is never redrawn.
FORM_COEFF_MAX = 10**7
POLY_COEFF_MAX = 10**3
SCAN_HI = 10**6
TOP_HI = 10**8
TOP_LO = TOP_HI - 10**6
CENSUS_HI = 2 * 10**5
CHECK_HI = 10**5
FORM_SET_SIZES = (3, 8, 14, 20)
CHECK_MAX_FORMS = 6
PRECISIONS = (40, 1000)


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what its output checks need to know."""

    command: str
    argv: tuple[str, ...]
    poly: tuple[int, ...] | None = None  # ascending coefficients
    forms: tuple[tuple[int, int, int], ...] | None = None
    lo: int | None = None
    hi: int | None = None
    precision: int | None = None
    real_roots: int | None = None  # distinct real roots, known by construction

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _poly_arg(coeffs) -> str:
    return "[" + ",".join(str(c) for c in coeffs) + "]"


def _poly_mul(a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _log_uniform(rng: random.Random, top: int) -> int:
    """Magnitude in [1, top), log-uniform, with a random sign."""
    mag = min(int(top ** rng.random()), top - 1)
    return rng.choice((-1, 1)) * mag


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_rem(a: list[int], b: list[int], p: int) -> list[int]:
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        q = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - q * c) % p
        _fp_trim(a)
    return a


def _is_squarefree(coeffs) -> bool:
    """Sufficient test: some small prime keeps the degree and leaves f
    coprime to f' over F_p, which forces f squarefree over Q."""
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    for p in (101, 103, 107, 109, 113):
        a = _fp_trim([c % p for c in coeffs])
        b = _fp_trim([c % p for c in deriv])
        if len(a) != len(coeffs) or not b:
            continue
        while b:
            a, b = b, _fp_rem(a, b, p)
        if len(a) == 1:
            return True
    return False


def _generic_poly(rng: random.Random, degree: int) -> tuple[int, ...]:
    while True:
        coeffs = [_log_uniform(rng, POLY_COEFF_MAX) for _ in range(degree)]
        coeffs.append(abs(_log_uniform(rng, POLY_COEFF_MAX)))
        if _is_squarefree(coeffs):
            return tuple(coeffs)


def _irreducible_quadratic(rng: random.Random, top: int) -> tuple[int, int, int]:
    """(a, b, c) with a, b, c nonzero and b^2 - 4ac not a square."""
    while True:
        a, b, c = (_log_uniform(rng, top) for _ in range(3))
        if not _is_square(b * b - 4 * a * c):
            return a, b, c


def _distinct_quadratics(rng: random.Random, n: int, top: int) -> list[tuple[int, int, int]]:
    """Irreducible quadratics, pairwise non-proportional, hence coprime."""
    out: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    while len(out) < n:
        q = _irreducible_quadratic(rng, top)
        if q[0] < 0:
            q = (-q[0], -q[1], -q[2])
        if _primitive(q) not in seen:
            seen.add(_primitive(q))
            out.append(q)
    return out


def _primitive(q: tuple[int, int, int]) -> tuple[int, int, int]:
    """The form divided by its content, with a positive leading coefficient."""
    a, b, c = (-x for x in q) if q[0] < 0 else q
    g = gcd(gcd(a, b), c)
    return a // g, b // g, c // g


def _planted_cover(rng: random.Random, n: int) -> list[tuple[int, int, int]]:
    """n forms containing x^2 - u y^2, x^2 - v y^2, x^2 - uv y^2, whose
    discriminants multiply to the square (8uv)^2, so the set covers."""
    while True:
        u, v = abs(_log_uniform(rng, 1000)), abs(_log_uniform(rng, 1000))
        if u != v and not any(_is_square(m) for m in (u, v, u * v)):
            break
    planted = [(1, 0, -u), (1, 0, -v), (1, 0, -u * v)]
    while True:
        rest = _distinct_quadratics(rng, n - 3, FORM_COEFF_MAX)
        forms = planted + rest
        if _pairwise_coprime(forms):
            break
    rng.shuffle(forms)
    return forms


def _pairwise_coprime(forms) -> bool:
    return len({_primitive(q) for q in forms}) == len(forms)


def _real_root_count(forms) -> int:
    """Distinct real roots of prod(a t^2 + b t + c) for pairwise coprime
    irreducible factors: two per positive discriminant."""
    return sum(2 for a, b, c in forms if b * b - 4 * a * c > 0)


def _product(forms) -> tuple[int, ...]:
    out: tuple[int, ...] = (1,)
    for a, b, c in forms:
        out = _poly_mul(out, (c, b, a))
    return out


def _range_job(command: str, coeffs, lo: int, hi: int, cap: int | None = None) -> Job:
    argv = [command, "--poly", _poly_arg(coeffs), "--from", str(lo), "--to", str(hi)]
    if cap is not None:
        argv += ["--cap", str(cap)]
    return Job(command, tuple(argv), poly=tuple(coeffs), lo=lo, hi=hi)


def _form_args(forms) -> list[str]:
    return [f"--form={a},{b},{c}" for a, b, c in forms]


def _realroots_job(coeffs, precision: int, real_roots: int) -> Job:
    argv = ("realroots", "--poly", _poly_arg(coeffs), "--precision", str(precision))
    return Job("realroots", argv, poly=tuple(coeffs), precision=precision,
               real_roots=real_roots)


WILKINSON_20 = reduce(_poly_mul, [(-k, 1) for k in range(1, 21)])


def scan_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"scan:{seed}")
    quad = _distinct_quadratics(rng, 1, POLY_COEFF_MAX)[0]
    polys = [
        (quad[2], quad[1], quad[0]),
        _generic_poly(rng, 3),
        _product(_distinct_quadratics(rng, 3, POLY_COEFF_MAX)),
        _product(_distinct_quadratics(rng, 5, POLY_COEFF_MAX)),
    ]
    jobs = [_range_job("scan", f, 2, SCAN_HI) for f in polys]
    jobs.append(_range_job("scan", _generic_poly(rng, 3), TOP_LO, TOP_HI, cap=TOP_HI))
    return jobs


def census_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"census:{seed}")
    return [_range_job("census", _generic_poly(rng, d), 2, CENSUS_HI) for d in (3, 5)]


def forms_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"forms:{seed}")
    jobs: list[Job] = []
    for planted in (False, True):
        for n in FORM_SET_SIZES:
            forms = (_planted_cover(rng, n) if planted
                     else _distinct_quadratics(rng, n, FORM_COEFF_MAX))
            forms_t = tuple(forms)
            for command in ("cover", "density"):
                jobs.append(Job(command, (command, *_form_args(forms)), forms=forms_t))
            if n <= CHECK_MAX_FORMS:
                argv = ("check", *_form_args(forms), "--to", str(CHECK_HI))
                jobs.append(Job("check", argv, forms=forms_t,
                                real_roots=_real_root_count(forms)))
                for k in PRECISIONS:
                    jobs.append(_realroots_job(_product(forms), k, _real_root_count(forms)))
    for k in PRECISIONS:
        jobs.append(_realroots_job(WILKINSON_20, k, 20))
    return jobs


WORKLOADS = {"scan": scan_jobs, "census": census_jobs, "forms": forms_jobs}
