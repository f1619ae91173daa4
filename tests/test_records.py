"""The result records are read-only NamedTuples with fixed field order."""

from fractions import Fraction

import pytest

from intersective.intpoly import ONE, IntPoly
from intersective.primes import PrimeRange
from intersective.quadcover import (
    Covers,
    FailsToCover,
    FrobeniusClass,
    QuadForm,
    RootDistribution,
    SmallFactors,
    SquareClass,
)
from intersective.scanner import (
    DensityComparison,
    DensityRow,
    RealRootCheck,
    ScanReport,
)
from intersective.sturm import Interval

_CLASS = FrobeniusClass((-1, 2), (1, -1))
_ROW = DensityRow(0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))

# record type, field names in order, one value per field
RECORDS = [
    (QuadForm, ("a", "b", "c"), (1, -2, 3)),
    (SquareClass, ("kernel", "bits"), (-2, 3)),
    (FrobeniusClass, ("basis", "signs"), ((-1, 2), (1, -1))),
    (Covers, ("witness",), ((0, 2, 5),)),
    (FailsToCover, ("density", "rank", "witness_class", "example_prime"),
     (Fraction(1, 4), 2, _CLASS, 7)),
    (RootDistribution, ("densities", "min_roots", "rank"),
     ({0: Fraction(1, 2), 2: Fraction(1, 2)}, 0, 1)),
    (Interval, ("lo", "hi"), (Fraction(1, 3), Fraction(1, 2))),
    (PrimeRange, ("lo", "hi"), (3, 100)),
    (SmallFactors, ("linear", "quadratic", "cofactor"),
     ((IntPoly((1, 1)),), (IntPoly((1, 0, 1)),), ONE)),
    (ScanReport,
     ("polynomial", "range", "excluded_primes", "histogram",
      "min_roots_observed", "cycle_type_histogram",
      "empirical_density_with_root", "least_prime_with", "factors"),
     (IntPoly((1, 0, 1)), PrimeRange(2, 100), (2,), {0: 13, 2: 11}, 0,
      None, Fraction(11, 24), {0: 3, 2: 5},
      SmallFactors((), (IntPoly((1, 0, 1)),), ONE))),
    (RealRootCheck,
     ("min_roots_observed", "real_root_count", "exact_min_roots", "verdict",
      "mode"),
     (2, 2, None, "consistent", "empirical")),
    (DensityRow, ("root_count", "exact", "empirical", "abs_deviation"),
     (0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
    (DensityComparison, ("rows", "max_abs_deviation"), ([_ROW], Fraction(1, 6))),
]


@pytest.mark.parametrize("cls, names, values", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_builds_positionally_and_by_keyword(cls, names, values):
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    assert tuple(getattr(record, n) for n in names) == values
    assert tuple(record) == values


@pytest.mark.parametrize("cls, names, values", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_fields_are_read_only(cls, names, values):
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    assert tuple(record) == values


def test_validation_holds_for_keyword_construction():
    with pytest.raises(ValueError):
        QuadForm(a=0, b=0, c=0)
    with pytest.raises(ValueError):
        Interval(lo=Fraction(1), hi=Fraction(0))
    with pytest.raises(ValueError):
        PrimeRange(lo=10, hi=9)


def test_equal_forms_hash_alike():
    forms = [QuadForm(1, 0, 1), QuadForm(a=1, b=0, c=1), QuadForm(1, 0, 2)]
    assert hash(forms[0]) == hash(forms[1])
    assert len(set(forms)) == 2
    assert str(forms[2]) == "x^2+2y^2"
    assert str(QuadForm(0, -1, 5)) == "-xy+5y^2"


def test_form_text_signs_and_units():
    assert str(QuadForm(-1, 0, 1)) == "-x^2+y^2"
    assert str(QuadForm(-3, 0, -1)) == "-3x^2-y^2"
    assert str(QuadForm(1, 0, 0)) == "x^2"
    assert str(QuadForm(2, 1, -1)) == "2x^2+xy-y^2"
    assert str(QuadForm(0, 0, -7)) == "-7y^2"
    assert str(QuadForm(-1, -1, -1)) == "-x^2-xy-y^2"
