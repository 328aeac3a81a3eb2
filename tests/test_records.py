"""The record classes: immutable, checked on every construction, and
equal and hashed by value."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from longhop.bisection import BisectionReport
from longhop.compare import ComparisonRow, YieldRow, hypercube_row
from longhop.designer import DesignChoice
from longhop.ecc import EquivalenceMap, LinearCode, MinChangeResult
from longhop.errors import DisconnectedGraph, DomainError
from longhop.graph import DistanceProfile, GeneratorSet
from longhop.soldb import SolutionRecord


def fq3():
    return GeneratorSet(3, (1, 2, 4, 7))


def record():
    return SolutionRecord(fq3(), 2, 2, 10, "folded cube")


# One way to build an instance of each class; each call builds a new one.
EXAMPLES = {
    "GeneratorSet": fq3,
    "DistanceProfile": lambda: DistanceProfile((1, 4, 3)),
    "BisectionReport": lambda: BisectionReport(3, 2, 1),
    "SolutionRecord": record,
    "DesignChoice": lambda: DesignChoice(record(), 2, 16, Fraction(1), Fraction(0)),
    "LinearCode": lambda: LinearCode(4, (0b1100, 0b1010, 0b1001)),
    "EquivalenceMap": lambda: EquivalenceMap(3, (2, 1, 4)),
    "MinChangeResult": lambda: MinChangeResult(EquivalenceMap(3, (1, 2, 4)), fq3(), 0),
    "ComparisonRow": lambda: hypercube_row(3, 8),
    "YieldRow": lambda: YieldRow(d=3, n=8, m=7, lh_yield=4, cube_yield=1),
}


@pytest.mark.parametrize("make", EXAMPLES.values(), ids=EXAMPLES.keys())
def test_records_are_immutable(make):
    rec = make()
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert make() == rec


@pytest.mark.parametrize("make", EXAMPLES.values(), ids=EXAMPLES.keys())
def test_equal_records_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: GeneratorSet(3, (1, 2, 3)), DisconnectedGraph, "rank-2 subspace"),
        (lambda: GeneratorSet(3, ()), DomainError, "at least one hop"),
        (lambda: GeneratorSet(3, (1, 2, 4, 4)), DomainError, "distinct"),
        (lambda: GeneratorSet(25, (1,)), DomainError, "dimension"),
        (lambda: SolutionRecord(fq3(), 5, 2, 10, "x"), DomainError, r"b=5 .* \[1, 4\]"),
        (lambda: SolutionRecord(fq3(), 2, 4, 10, "x"), DomainError, "diam=4"),
        (lambda: SolutionRecord(fq3(), 2, 2, 6, "x"), DomainError, "avg=6/8"),
        (lambda: SolutionRecord(fq3(), 2, 2, 10, "a\nb"), DomainError, "line break"),
        (lambda: LinearCode(3, ()), DomainError, "at least one generator row"),
        (lambda: LinearCode(0, (1,)), DomainError, "width"),
        (lambda: LinearCode(3, (8,)), DomainError, "wider than 3 bits"),
        (lambda: EquivalenceMap(3, (1, 2, 3)), DomainError, "invertible"),
        (lambda: EquivalenceMap(3, (1, 2)), DomainError, "need 3 rows"),
        # Fields are integers: int() would truncate 4.9 and parse "4".
        (lambda: GeneratorSet(3, (1, 2, 4.9)), DomainError, "hops: 'float'"),
        (lambda: GeneratorSet(3, ("1", "2", "4")), DomainError, "hops: 'str'"),
        (lambda: GeneratorSet(3.5, (1, 2, 4)), DomainError,
         "dimension: 'float' object cannot be interpreted as an integer"),
        (lambda: GeneratorSet(True, (1,)), DomainError, r"in \[1, 24\], got True"),
        (lambda: LinearCode(4, (1.0,)), DomainError, "code rows: 'float'"),
        (lambda: LinearCode(4.0, (1,)), DomainError, "code width: 'float'"),
        (lambda: EquivalenceMap(3, (1, 2, 4.5)), DomainError, "map rows: 'float'"),
        (lambda: EquivalenceMap(3.0, (1, 2, 4)), DomainError, "^dimension: 'float'"),
    ],
)
def test_checking_records_refuse_bad_input(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_keyword_construction_checks_and_copies_round_trip():
    with pytest.raises(DomainError, match="b=5"):
        SolutionRecord(gens=fq3(), b=5, diameter=2, total=10, provenance="x")
    rec = record()
    assert copy.copy(rec) == pickle.loads(pickle.dumps(rec)) == rec


def test_numpy_ints_become_python_ints():
    gens = GeneratorSet(3, np.array([1, 2, 4]))
    code = LinearCode(4, np.array([0b1100, 0b1010, 0b1001]))
    emap = EquivalenceMap(3, np.array([2, 1, 4]))
    for values in (gens.hops, code.rows, emap.rows):
        assert type(values) is tuple
        assert {type(v) for v in values} == {int}
    assert gens == GeneratorSet(3, (1, 2, 4))
    assert hash(gens) == hash(GeneratorSet(3, [1, 2, 4]))


def test_numpy_integer_sizes_become_python_ints():
    gens = GeneratorSet(np.int8(3), (1, 2, 4))
    code = LinearCode(np.uint16(4), (0b1100,))
    emap = EquivalenceMap(np.int64(3), (2, 1, 4))
    assert [type(x) for x in (gens.d, code.width, emap.d)] == [int, int, int]
    assert (gens.d, code.width, emap.d) == (3, 4, 3)


def test_comparison_row_defaults_are_the_alternatives():
    row = ComparisonRow("t", 8, 8, Fraction(3), 8, 12, "f")
    assert (row.phi, row.ratio_vs_lh) == (Fraction(1), None)
