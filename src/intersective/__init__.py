"""Exact root counting for integer polynomials mod p and over R, and
covering analysis for binary quadratic forms.

The exports load lazily (PEP 562): importing the package loads no
submodule, and numpy loads only with the first export that needs it.
"""

import importlib

__version__ = "0.1.0"

# module -> exported names, in the order of __all__
_EXPORTS = {
    "intpoly": (
        "IntPoly",
        "evaluate",
        "derivative",
        "multiply",
        "discriminant",
        "squarefree_part",
        "to_text",
    ),
    "primes": ("PrimeRange", "primes_in"),
    "sturm": ("Interval", "count_real_roots", "isolate_real_roots"),
    "quadcover": (
        "QuadForm",
        "SquareClass",
        "FrobeniusClass",
        "Covers",
        "FailsToCover",
        "form_discriminant",
        "is_positive_definite",
        "build_square_classes",
        "decide_cover",
        "exact_root_distribution",
        "product_polynomial",
    ),
    "scanner": ("ScanReport", "RealRootCheck", "scan", "check_real_roots"),
    # InvariantViolation is defined with the input errors, without numpy
    "parse": ("InvariantViolation", "parse_poly", "parse_form"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
