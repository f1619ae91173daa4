#!/usr/bin/env python3
"""
Cycle types of polynomials mod p, censused over a prime range.

Reducing a squarefree polynomial mod a good prime factors it into
distinct irreducibles, and the multiset of their degrees (the cycle
type) is distributed like the cycle types of a uniformly random element
of the Galois group.  This script takes the census and compares it to
the group-theoretic prediction:

1. x^3 - 2 has group S_3 of order 6: types (1,1,1), (1,2), (3) should
   appear with frequencies 1/6, 1/2, 1/3
2. the multiquadratic (x^2+1)(x^2+2)(x^2-2) has an elementary abelian
   group of order 4 acting on 6 roots
3. the census is checked internally at every prime: parts must sum to
   the degree, no factor count may be negative, and Stickelberger's
   parity must match the discriminant's quadratic character
"""

from fractions import Fraction

from intersective import PrimeRange, parse_poly, scan, to_text

RANGE = PrimeRange(2, 10**5)

CASES = [
    ("x^3-2", {(1, 1, 1): Fraction(1, 6),
               (1, 2): Fraction(1, 2),
               (3,): Fraction(1, 3)}),
    ("(x^2+1)(x^2+2)(x^2-2)", {(1, 1, 1, 1, 1, 1): Fraction(1, 4),
                               (1, 1, 2, 2): Fraction(3, 4)}),
]


def main():
    for text, predicted in CASES:
        f = parse_poly(text)
        report = scan(f, RANGE, with_cycle_types=True)
        good = report.good_prime_count
        print(f"f = {to_text(f)}, {good} good primes in"
              f" [{RANGE.lo}, {RANGE.hi}]")
        print("cycle type      predicted  observed   primes")
        for ct, count in report.cycle_type_histogram.items():
            pred = predicted.get(ct)
            pred_txt = f"{float(pred):.6f}" if pred is not None else "?"
            print(f"{str(ct):<15} {pred_txt:>9}  {count / good:.6f}  {count:>6}")
        missing = set(predicted) - set(report.cycle_type_histogram)
        if missing:
            print(f"predicted types never observed: {sorted(missing)}")
        print()
    print("every census above already passed the per-prime checks:")
    print("parts sum to deg f, and Stickelberger's parity holds mod p")


if __name__ == "__main__":
    main()
