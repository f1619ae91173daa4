#!/usr/bin/env python3
"""
Which sets of binary quadratic forms cover all large primes?

A form q(x,y) = ax^2 + bxy + cy^2 "covers" an odd prime p when q has a
nontrivial zero mod p, which for p not dividing a*disc happens exactly
when the discriminant is a square mod p.  Covering by a finite set is
therefore a statement about quadratic characters, and it is decidable
by linear algebra over F_2 on the square classes of the discriminants.

1. decide covering for the classic triple {x^2+y^2, x^2+2y^2, x^2-2y^2}
   and print the certificate (an odd subset whose discriminant product
   is a perfect square)
2. decide two failing sets and print the exact uncovered density plus
   the smallest uncovered prime
3. show why no set of positive definite forms can ever cover
4. confirm the exact densities empirically over primes up to 10^5
"""

from intersective import (
    PrimeRange,
    QuadForm,
    decide_cover,
    exact_root_distribution,
    form_discriminant,
    scan,
    product_polynomial,
)

TRIPLE = [QuadForm(1, 0, 1), QuadForm(1, 0, 2), QuadForm(1, 0, -2)]


def describe(forms):
    print("forms:", "; ".join(str(q) for q in forms))
    print("discriminants:", [form_discriminant(q) for q in forms])
    verdict = decide_cover(forms)
    print(f"verdict: {verdict}")
    return verdict


def main():
    print("-- the covering triple --")
    verdict = describe(TRIPLE)
    prod = 1
    for i in verdict.witness:
        prod *= form_discriminant(TRIPLE[i])
    print(f"witness discriminant product: {prod} (a perfect square,")
    print("so the three characters multiply to +1 and cannot all be -1)\n")

    print("-- a single definite form --")
    describe([QuadForm(1, 0, 1)])
    print("primes with (-1|p) = -1, i.e. p = 3 mod 4, see no zero\n")

    print("-- two definite forms --")
    describe([QuadForm(1, 0, 1), QuadForm(1, 0, 2)])
    print()

    print("-- positive definite sets never cover --")
    forms = [QuadForm(2, 2, 3), QuadForm(1, 1, 5), QuadForm(3, -2, 4)]
    describe(forms)
    print("every positive definite form has negative discriminant, so the")
    print("sign coordinate of each square class is fixed and no odd subset can")
    print("multiply to a square: the all-(-1) character assignment survives\n")

    print("-- exact densities vs a scan up to 10^5 --")
    dist = exact_root_distribution(TRIPLE)
    report = scan(product_polynomial(TRIPLE), PrimeRange(2, 10**5))
    good = report.good_prime_count
    print("roots  exact   observed")
    for k, exact in dist.densities.items():
        observed = report.histogram.get(k, 0) / good
        print(f"{k:>5}  {str(exact):<6}  {observed:.4f}")


if __name__ == "__main__":
    main()
