"""Closed-form constructions and their measured laws."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from longhop.bisection import bisection_fwht
from longhop.constructions import (
    augment_odd_b,
    b3_default_columns,
    b3_overhead,
    folded_cube,
    hd_ladder,
    hd_metrics,
    hypercube,
    lh_hd,
    low_density_b3,
    mesh,
    optimize_secondary,
)
from longhop.errors import DomainError
from longhop.graph import GeneratorSet, distance_profile


def test_basic_families():
    assert hypercube(4).hops == (1, 2, 4, 8)
    assert folded_cube(4).hops == (1, 2, 4, 8, 15)
    assert mesh(3).hops == tuple(range(1, 8))
    with pytest.raises(DomainError):
        mesh(15)


@pytest.mark.parametrize(
    "build",
    [
        lambda: hd_ladder(-3),
        lambda: hd_metrics(-3, 1),
        lambda: lh_hd(-3, 1),
        lambda: hd_metrics(25, 1 << 24),
        lambda: mesh(-1),
        lambda: folded_cube(-2),
    ],
)
def test_bad_dimensions_fail_before_building(build):
    with pytest.raises(DomainError):
        build()


def test_hd_ladder_values():
    assert hd_ladder(3) == (4, 6, 7)
    assert hd_ladder(4) == (8, 12, 14, 15)
    assert hd_ladder(6) == (32, 48, 56, 60, 62, 63)


def test_lh_hd_hops_descend_from_the_top():
    gens = lh_hd(4, 12)
    assert gens.hops == tuple(range(15, 3, -1))
    with pytest.raises(DomainError):
        lh_hd(4, 9)


def test_hd_metrics_closed_forms():
    assert hd_metrics(4, 8) == (4, 2, Fraction(22, 16))
    assert hd_metrics(3, 7) == (4, 1, Fraction(7, 8))
    with pytest.raises(DomainError):
        hd_metrics(4, 10)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_hd_law_measured(d):
    n = 1 << d
    for m in hd_ladder(d):
        gens = lh_hd(d, m)
        b, diameter, avg = hd_metrics(d, m)
        assert b == (m + 1) // 2
        assert bisection_fwht(gens).b == b
        prof = distance_profile(gens)
        assert prof.diameter == diameter
        assert prof.avg == avg == Fraction(2 * n - 2 - m, n)
        # The memorable "2 - m/n" form overshoots by exactly 2/n: it
        # books the origin at distance 2 instead of 0.
        assert Fraction(2) - Fraction(m, n) - prof.avg == Fraction(2, n)


def test_lh_hd_reduced_examples():
    # A rung with its last r hops dropped.
    base = lh_hd(4, 8)
    assert bisection_fwht(base).b == 4
    assert bisection_fwht(GeneratorSet(4, base.hops[:7])).b == 3
    assert bisection_fwht(GeneratorSet(4, base.hops[:6])).b == 2


@pytest.mark.parametrize("d", [3, 4, 5])
def test_lh_hd_reduced_law(d):
    # Dropping one hop lowers b by 1; dropping two lowers it by 2, except
    # on the m = n - 2 rung, whose two smallest hops are exactly what
    # separates it from the m = n - 4 rung, so b drops by 1 there.
    n = 1 << d
    for m in hd_ladder(d):
        base = lh_hd(d, m)
        b = (m + 1) // 2
        for r in (1, 2):
            if m - r < d:
                continue
            expect = b - 1 if (r == 2 and m == n - 2) else b - r
            assert bisection_fwht(GeneratorSet(d, base.hops[:m - r])).b == expect


def test_b3_overhead_values():
    assert [b3_overhead(d) for d in range(3, 13)] == [3, 3, 4, 4, 4, 4, 4, 4, 4, 5]
    with pytest.raises(DomainError):
        b3_overhead(0)


def test_b3_default_columns_smallest_valid():
    assert b3_default_columns(3) == (3, 5, 6)
    assert b3_default_columns(4) == (3, 5, 6, 7)
    # The naive smallest choice at d=5 would emit a duplicate weight-1
    # hop, so the default skips it.
    assert b3_default_columns(5) != (3, 5, 6, 7, 9)


@pytest.mark.parametrize(
    "d,hops",
    [
        (3, (1, 2, 4, 3, 5, 6)),
        (4, (1, 2, 4, 8, 7, 0xB, 0xD)),
        (5, (1, 2, 4, 8, 0x10, 3, 0xC, 0x15, 0x1A)),
        (6, (1, 2, 4, 8, 0x10, 0x20, 3, 0x1C, 0x2D, 0x36)),
        (8, tuple(1 << i for i in range(8)) + (0xF, 0x71, 0xB6, 0xDA)),
        (12, tuple(1 << i for i in range(12)) + (3, 0xFC, 0x71C, 0xB65, 0xDAA)),
    ],
)
def test_low_density_b3_goldens(d, hops):
    gens = low_density_b3(d)
    assert gens.hops == hops
    assert gens.m == d + b3_overhead(d)
    assert bisection_fwht(gens).b == 3


def test_low_density_b3_custom_columns():
    gens = low_density_b3(3, columns=(3, 5, 7))
    assert gens.hops == (1, 2, 4, 3, 5, 7)
    assert bisection_fwht(gens).b == 3


@pytest.mark.parametrize(
    "d,columns",
    [
        (3, (3, 5)),            # wrong count
        (3, (3, 3, 5)),         # duplicate pattern
        (3, (1, 3, 5)),         # weight-1 pattern
        (3, (3, 5, 9)),         # wider than L bits
        (5, (3, 5, 6, 7, 9)),   # collapses to a duplicate of hop 1
    ],
)
def test_low_density_b3_rejects_bad_columns(d, columns):
    with pytest.raises(DomainError):
        low_density_b3(d, columns=columns)


@pytest.mark.parametrize(
    "d,columns,message",
    [
        (3, (3, 5, 7.5), "column patterns: 'float'"),
        (3, ("3", "5", "7"), "column patterns: 'str'"),
        (3.0, (3, 5, 7), "dimension: 'float'"),
        (True, (3,), "covers d in"),
    ],
)
def test_low_density_b3_takes_integers_only(d, columns, message):
    # int() would truncate 7.5 to 7 and read the strings as decimal.
    with pytest.raises(DomainError, match=message):
        low_density_b3(d, columns=columns)
    assert low_density_b3(np.int64(3), columns=np.array([3, 5, 7])).hops == (1, 2, 4, 3, 5, 7)


def test_low_density_b3_dimension_guard():
    with pytest.raises(DomainError):
        low_density_b3(2)


def test_augment_lifts_odd_b():
    lifted = augment_odd_b(GeneratorSet(3, (1, 2, 4)))
    assert lifted.hops == (1, 2, 4, 7)
    assert bisection_fwht(lifted).b == 2

    code74_hops = GeneratorSet(4, (1, 2, 4, 8, 7, 0xE, 0xB))
    lifted = augment_odd_b(code74_hops)
    assert lifted.hops[-1] == 0xD
    assert bisection_fwht(lifted).b == 4


def test_augment_rejects_even_b():
    with pytest.raises(DomainError):
        augment_odd_b(GeneratorSet(3, (1, 2, 4, 7)))


def test_augment_rejects_xor_already_a_hop():
    gens = GeneratorSet(3, (1, 2, 3, 7))
    assert bisection_fwht(gens).b == 1
    with pytest.raises(DomainError):
        augment_odd_b(gens)


def test_optimize_secondary_reaches_the_folded_cube():
    start = GeneratorSet(4, (1, 2, 4, 8, 3))
    better = optimize_secondary(start, objective="diameter")
    assert distance_profile(better).diameter == 2
    assert bisection_fwht(better).b >= 1


def test_optimize_secondary_avg_objective():
    start = GeneratorSet(4, (1, 2, 4, 8, 3))
    better = optimize_secondary(start, objective="avg_hops")
    assert distance_profile(better).total < distance_profile(start).total


def test_optimize_secondary_holds_b():
    start = GeneratorSet(3, (1, 2, 4, 7))
    result = optimize_secondary(start, objective="diameter")
    assert bisection_fwht(result).b >= 2


def test_optimize_secondary_local_optimum_is_returned():
    # No single swap can beat diameter 4 at m = 4 on 16 nodes: three
    # hops reach at most 15 nodes in three steps.
    start = hypercube(4)
    assert optimize_secondary(start, objective="diameter") == start


def test_optimize_secondary_budget_and_validation():
    start = GeneratorSet(4, (1, 2, 4, 8, 3))
    assert optimize_secondary(start, budget=0) == start
    with pytest.raises(DomainError):
        optimize_secondary(start, objective="latency")
    with pytest.raises(DomainError):
        optimize_secondary(GeneratorSet(3, (1, 2, 3)))


# Recorded search outputs.  Each start is paired with the smallest budget
# at which the search takes its first step and the hops it then returns
# for every larger budget up to 2000 (None: the start is a local optimum).
# Both objectives give the same hops on these starts.
# The neighbourhoods hold non-spanning candidates (the 3-cube's holds
# (6, 2, 4)), which cost no budget, while b and the objective cost one
# unit each; the budgets just below each step pin that accounting.
SECONDARY_GOLDENS = [
    (hypercube(3), None, None),
    (hypercube(4), None, None),
    (folded_cube(4), None, None),
    (GeneratorSet(4, (1, 2, 4, 8, 6)), 25, (1, 11, 4, 8, 6)),
    (GeneratorSet(5, (3, 7, 5, 24, 10, 31)), 31, (3, 1, 5, 24, 10, 31)),
    (GeneratorSet(6, (5, 20, 28, 60, 16, 51, 29)), 17,
     (10, 20, 28, 60, 16, 51, 29)),
]


@pytest.mark.parametrize("start, first_step, after", SECONDARY_GOLDENS)
def test_optimize_secondary_goldens(start, first_step, after):
    for budget in (1, 7, 16, 17, 24, 25, 30, 31, 50, 2000):
        moved = first_step is not None and budget >= first_step
        want = after if moved else start.hops
        for objective in ("diameter", "avg_hops"):
            got = optimize_secondary(start, objective=objective, budget=budget)
            assert got.hops == want, (objective, budget)


@st.composite
def search_starts(draw):
    d = draw(st.integers(3, 8))
    m = draw(st.integers(d, min(d + 4, (1 << d) - 2)))
    hops = draw(st.lists(st.integers(1, (1 << d) - 1), min_size=m, max_size=m, unique=True))
    assume(oracle.gf2_rank(hops) == d)
    return GeneratorSet(d, tuple(hops))


@settings(max_examples=60, deadline=None)
@given(
    start=search_starts(),
    objective=st.sampled_from(["diameter", "avg_hops"]),
    budget=st.one_of(st.integers(0, 120), st.integers(121, 600)),
)
def test_optimize_secondary_matches_the_per_candidate_referee(start, objective, budget):
    # Small budgets run out part-way through a step; large ones let the
    # small starts reach a local optimum.
    got = optimize_secondary(start, objective=objective, budget=budget)
    want = oracle.optimize_secondary(start.d, start.hops, objective, budget)
    assert got.hops == want


def test_optimize_secondary_memory_per_node():
    gens = low_density_b3(16)
    tracemalloc.start()
    try:
        optimize_secondary(gens, budget=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Cut counts, one transform and uint8 distances: about 39 bytes per node.
    assert peak < 64 * gens.n
