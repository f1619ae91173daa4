"""Exact root counting for integer polynomials mod p and over R, and
covering analysis for binary quadratic forms."""

from .intpoly import (
    IntPoly,
    derivative,
    discriminant,
    evaluate,
    multiply,
    squarefree_part,
    to_text,
)
from .modular import (
    FpPoly,
    count_roots_mod_p,
    cycle_type_mod_p,
    jacobi,
    reduce,
    roots_mod_p_bruteforce,
)
from .primes import PrimeRange, is_prime, primes_in
from .quadcover import (
    Covers,
    FailsToCover,
    FrobeniusClass,
    QuadForm,
    SquareClass,
    build_square_classes,
    decide_cover,
    exact_root_distribution,
    form_covers_p,
    form_discriminant,
    is_positive_definite,
    product_polynomial,
)
from .scanner import (
    InvariantViolation,
    RealRootCheck,
    ScanReport,
    check_real_roots,
    check_real_roots_forms,
    compare_densities,
    scan,
)
from .sturm import Interval, count_real_roots, isolate_real_roots
from .parse import parse_form, parse_poly

__version__ = "0.1.0"

__all__ = [
    "IntPoly",
    "evaluate",
    "derivative",
    "multiply",
    "discriminant",
    "squarefree_part",
    "to_text",
    "PrimeRange",
    "primes_in",
    "is_prime",
    "FpPoly",
    "reduce",
    "jacobi",
    "count_roots_mod_p",
    "roots_mod_p_bruteforce",
    "cycle_type_mod_p",
    "Interval",
    "count_real_roots",
    "isolate_real_roots",
    "QuadForm",
    "SquareClass",
    "FrobeniusClass",
    "Covers",
    "FailsToCover",
    "form_discriminant",
    "is_positive_definite",
    "form_covers_p",
    "build_square_classes",
    "decide_cover",
    "exact_root_distribution",
    "product_polynomial",
    "ScanReport",
    "RealRootCheck",
    "InvariantViolation",
    "scan",
    "check_real_roots",
    "check_real_roots_forms",
    "compare_densities",
    "parse_poly",
    "parse_form",
    "__version__",
]
