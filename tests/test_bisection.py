"""Spectral bisection against the direct definition and the brute-force referee."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from longhop import bisection, gf2
from longhop.bisection import (
    bisection_fwht,
    brute_force_bisection,
    cut_counts,
    eigenvalues,
    optimize_direct,
)
from longhop.constructions import low_density_b3
from longhop.errors import BudgetExceeded, DomainError
from longhop.graph import GeneratorSet
from longhop.walsh import fwht

FQ3 = GeneratorSet(3, (1, 2, 4, 7))
FQ4 = GeneratorSet(4, (1, 2, 4, 8, 15))
TRANSLATED = GeneratorSet(4, (1, 2, 4, 8, 7, 0xE, 0xB))


def _random_spanning(rng, d, m=None):
    n = 1 << d
    while True:
        m_draw = m if m is not None else rng.randint(d, min(n - 1, d + 4))
        hops = tuple(rng.sample(range(1, n), m_draw))
        if gf2.spans(hops, d):
            return GeneratorSet(d, hops)


def test_eigenvalues_golden():
    assert eigenvalues(FQ3).tolist() == [4, 0, 0, 0, 0, 0, 0, -4]
    q3 = eigenvalues(GeneratorSet(3, (1, 2, 4)))
    assert sorted(q3.tolist()) == [-3, -1, -1, -1, 1, 1, 1, 3]


def test_eigenvalues_match_oracle():
    rng = random.Random(5)
    for _ in range(10):
        gens = _random_spanning(rng, rng.choice([3, 4, 5]))
        assert eigenvalues(gens).tolist() == oracle.eigenvalues(gens.d, gens.hops)


def test_eigen_equation_holds():
    # A U_k = lambda_k U_k, checked for every k at once.
    rng = random.Random(6)
    for _ in range(5):
        gens = _random_spanning(rng, rng.choice([3, 4, 5, 6]))
        A = np.array(oracle.adjacency(gens.d, gens.hops))
        H = np.stack([fwht(unit) for unit in np.eye(gens.n, dtype=np.int64)])
        lam = eigenvalues(gens)
        assert np.array_equal(A @ H.T, H.T * lam[None, :])


def test_cut_counts_golden():
    assert cut_counts(FQ3).tolist() == [0, 2, 2, 2, 2, 2, 2, 4]


def test_cut_counts_match_oracle():
    rng = random.Random(9)
    for _ in range(10):
        gens = _random_spanning(rng, rng.choice([3, 4]))
        assert cut_counts(gens).tolist() == oracle.cut_counts(gens.d, gens.hops)


def _transform_counts(gens):
    return (gens.m - eigenvalues(gens)) >> 1


@pytest.mark.parametrize("m", [63, 64, 65, 128, 129, 255])
def test_codeword_counts_across_word_boundaries(m):
    gens = _random_spanning(random.Random(m), 8, m)
    counts = cut_counts(gens)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, _transform_counts(gens))
    assert counts.tolist() == oracle.cut_counts(gens.d, gens.hops)


@pytest.mark.parametrize("m,transform_calls", [(640, 0), (641, 1)])
def test_engine_switch_at_d_words(monkeypatch, m, transform_calls):
    # At d = 10 the codewords serve up to 10 words of hops, m = 640.
    calls = []

    def counted(gens):
        calls.append(gens.m)
        return eigenvalues(gens)

    monkeypatch.setattr(bisection, "eigenvalues", counted)
    gens = _random_spanning(random.Random(m), 10, m)
    counts = cut_counts(gens)
    assert len(calls) == transform_calls
    assert counts.tolist() == oracle.cut_counts(gens.d, gens.hops)


@st.composite
def wide_spanning_sets(draw):
    d = draw(st.integers(1, 9))
    n = 1 << d
    m = draw(st.integers(d, n - 1))
    hops = random.Random(draw(st.integers(0, 2**32))).sample(range(1, n), m)
    assume(gf2.spans(hops, d))
    return GeneratorSet(d, tuple(hops))


@given(wide_spanning_sets())
def test_codeword_counts_match_transform(gens):
    assert np.array_equal(cut_counts(gens), _transform_counts(gens))


def test_cut_counts_memory_per_node():
    gens = low_density_b3(18)
    tracemalloc.start()
    try:
        cut_counts(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Codewords (8 bytes), uint16 totals and one uint8 popcount per node.
    assert peak < 16 * gens.n


def test_zero_xor_forces_even_cuts():
    rng = random.Random(13)
    checked = 0
    while checked < 10:
        gens = _random_spanning(rng, 4)
        x = gens.xor_all()
        if x == 0:
            closed = gens
        elif x not in gens.hops:
            closed = GeneratorSet(4, gens.hops + (x,))
        else:
            continue
        assert not (cut_counts(closed) & 1).any()
        checked += 1


def test_cut_value_equals_scaled_count():
    # The Walsh-k split cuts C_k links per node pair, counted edge by edge.
    rng = random.Random(21)
    for _ in range(5):
        gens = _random_spanning(rng, rng.choice([3, 4, 5]))
        counts = cut_counts(gens)
        for k in range(1, gens.n):
            cut = oracle.cut_edges(gens.d, gens.hops, oracle.walsh_side(gens.d, k))
            assert cut == int(counts[k]) * gens.n // 2


def test_bisection_fwht_golden():
    rep = bisection_fwht(FQ3)
    assert (rep.b, rep.B, rep.t) == (2, 8, 1)
    assert int(cut_counts(FQ3)[1:].max()) == 4
    assert bisection_fwht(FQ4).B == 16
    assert bisection_fwht(TRANSLATED).b == 3
    assert bisection_fwht(TRANSLATED).B == 24


def test_report_partition_achieves_the_optimum():
    rng = random.Random(31)
    for _ in range(8):
        gens = _random_spanning(rng, rng.choice([3, 4, 5]))
        rep = bisection_fwht(gens)
        side = oracle.walsh_side(gens.d, rep.t)
        assert oracle.cut_edges(gens.d, gens.hops, side) == rep.B


def test_t_is_the_smallest_minimizer():
    # The plain cube has C_k = popcount(k); 1, 2, 4 all reach b = 1.
    rep = bisection_fwht(GeneratorSet(3, (1, 2, 4)))
    assert rep.b == 1
    assert rep.t == 1


def test_engines_agree_with_brute_force():
    rng = random.Random(47)
    for _ in range(15):
        d = rng.choice([3, 4])
        gens = _random_spanning(rng, d)
        fast = bisection_fwht(gens)
        assert cut_counts(gens).tolist() == oracle.cut_counts(gens.d, gens.hops)
        B, side = brute_force_bisection(gens)
        assert B == fast.B
        assert side & 1 and side.bit_count() == gens.n // 2
        nodes = {v for v in range(gens.n) if side >> v & 1}
        assert oracle.cut_edges(gens.d, gens.hops, nodes) == B


def test_brute_force_matches_enumeration_oracle():
    rng = random.Random(53)
    for _ in range(5):
        gens = _random_spanning(rng, 3)
        # Both take the first optimum in the same order of sides.
        want, side = oracle.min_bisection(gens.d, gens.hops)
        assert brute_force_bisection(gens) == (want, sum(1 << v for v in side))


def test_brute_force_guard():
    with pytest.raises(DomainError):
        brute_force_bisection(GeneratorSet(5, (1, 2, 4, 8, 16)))


@st.composite
def codeword_sets(draw):
    # m up to 64 d, so the enumeration is in play; with or without the
    # unit hops, which make the change of basis a permutation.
    d = draw(st.integers(1, 10))
    n = 1 << d
    m = draw(st.integers(d, min(n - 1, 64 * d)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        units = [1 << i for i in range(d)]
        rest = rng.sample([x for x in range(1, n) if x & (x - 1)], m - d)
        hops = rest + units if draw(st.booleans()) else units + rest
    else:
        hops = rng.sample(range(1, n), m)
    assume(gf2.spans(hops, d))
    return GeneratorSet(d, tuple(hops))


@pytest.mark.parametrize("budget", [0, bisection._ENUM_BUDGET, float("inf")])
@given(codeword_sets())
@settings(deadline=None)
def test_bisection_is_the_first_minimum_of_the_cut_counts(budget, gens):
    # budget 0 always falls back, inf always enumerates (for m <= 64 d).
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bisection, "_ENUM_BUDGET", budget)
        rep = bisection_fwht(gens)
    counts = cut_counts(gens).tolist()
    want = oracle.cut_counts(gens.d, gens.hops)
    assert counts == want
    b = min(want[1:])
    assert (rep.b, rep.t) == (b, want.index(b, 1))


def _count_calls(monkeypatch, name):
    calls = []
    inner = getattr(bisection, name)

    def counted(gens):
        calls.append(gens.m)
        return inner(gens)

    monkeypatch.setattr(bisection, name, counted)
    return calls


def test_bisection_falls_back_past_the_budget(monkeypatch):
    gens = low_density_b3(12)
    want = bisection_fwht(gens)
    calls = _count_calls(monkeypatch, "cut_counts")
    monkeypatch.setattr(bisection, "_ENUM_BUDGET", 0)
    rep = bisection_fwht(gens)
    assert calls == [gens.m]
    assert (rep.b, rep.t) == (want.b, want.t) == (3, 1)


def test_bisection_enumerates_b3_d20(monkeypatch):
    calls = _count_calls(monkeypatch, "cut_counts")
    rep = bisection_fwht(low_density_b3(20))
    assert calls == []
    assert (rep.b, rep.t) == (3, 2)


def test_bisection_of_wide_sets_skips_the_enumeration(monkeypatch):
    # m = 641 > 64 d at d = 10: straight to the spectrum.
    gens = _random_spanning(random.Random(641), 10, 641)
    enumerations = _count_calls(monkeypatch, "_low_weight")
    spectra = _count_calls(monkeypatch, "cut_counts")
    rep = bisection_fwht(gens)
    assert enumerations == []
    assert spectra == [641]
    want = oracle.cut_counts(gens.d, gens.hops)
    assert (rep.b, rep.t) == (min(want[1:]), want.index(min(want[1:]), 1))


def test_every_seeded_record_enumerates_to_the_first_minimum(monkeypatch, seeded_db):
    # The records `lh db verify` and `lh design` measure, up to d = 16,
    # at the default budget: `lh design` never needs numpy.
    calls = _count_calls(monkeypatch, "cut_counts")
    found = [bisection_fwht(rec.gens) for rec in seeded_db.records()]
    assert calls == []
    for rec, rep in zip(seeded_db.records(), found):
        counts = cut_counts(rec.gens).tolist()
        b = min(counts[1:])
        assert (rep.b, rep.t) == (b, counts.index(b, 1))
    assert len(found) == 64


@st.composite
def design_sized_sets(draw):
    # Sizes `lh design` measures, where m in [2d, 4d] gives 2-4 disjoint
    # information sets.
    d = draw(st.integers(11, 16))
    m = draw(st.integers(2 * d, 4 * d))
    hops = random.Random(draw(st.integers(0, 2**32))).sample(range(1, 1 << d), m)
    assume(gf2.spans(hops, d))
    return GeneratorSet(d, tuple(hops))


@st.composite
def small_dense_sets(draw):
    # Small codes with 4-8 hops per dimension: most build several
    # information sets, and on most of those the rounds go on until the
    # first set's remaining levels cost no more than a round over all.
    d = draw(st.integers(7, 11))
    m = draw(st.integers(4 * d, min(8 * d, (1 << d) - 1)))
    hops = random.Random(draw(st.integers(0, 2**32))).sample(range(1, 1 << d), m)
    assume(gf2.spans(hops, d))
    return GeneratorSet(d, tuple(hops))


@given(st.one_of(design_sized_sets(), small_dense_sets()))
@settings(deadline=None, max_examples=75)
def test_several_information_sets_give_the_first_minimum(gens):
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_calls(mp, "cut_counts")
        rep = bisection_fwht(gens)
    assert calls == []
    counts = cut_counts(gens)
    t = int(counts[1:].argmin()) + 1
    assert (rep.b, rep.t) == (counts[t], t)


def test_information_sets_bound_every_codeword():
    # What the stopping bound rests on: each set maps the information
    # vectors one to one onto the codewords, and since the sets' pivots
    # are disjoint, a codeword weighs at least the total weight of its
    # information vectors.
    gens = _random_spanning(random.Random(3), 10, 40)
    units = gf2.transpose(gens.hops, gens.d)
    sets = list(bisection._information_sets(gens))
    assert len(sets) >= 3
    total = [0] * gens.n
    for rows, combos in sets:
        index = [gf2.apply(combos, x) for x in range(gens.n)]
        assert sorted(index) == list(range(gens.n))
        for x, k in enumerate(index):
            assert gf2.apply(rows, x) == gf2.apply(units, k)
            total[k] += x.bit_count()
    assert all(t <= gf2.apply(units, k).bit_count() for k, t in enumerate(total))


def test_bisect_memory_per_node():
    gens = low_density_b3(20)
    tracemalloc.start()
    try:
        bisection_fwht(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A few thousand codewords as Python ints, whatever n is.
    assert peak < 1 << 20


def test_optimize_direct_goldens():
    gens, rep = optimize_direct(3, 4)
    assert gens.hops == (1, 2, 4, 7)
    assert rep.b == 2
    gens, rep = optimize_direct(2, 3)
    assert gens.hops == (1, 2, 3)
    assert rep.b == 2
    gens, rep = optimize_direct(3, 3)
    assert gens.hops == (1, 2, 4)
    assert rep.b == 1


def test_optimize_direct_guards():
    with pytest.raises(DomainError):
        optimize_direct(7, 8)
    with pytest.raises(DomainError):
        optimize_direct(3, 2)
    with pytest.raises(DomainError):
        optimize_direct(3, 8)
    with pytest.raises(BudgetExceeded):
        optimize_direct(4, 7, budget=10)
    with pytest.raises(DomainError, match="dimension"):
        optimize_direct(-1, 3)
    with pytest.raises(DomainError, match="dimension"):
        optimize_direct(0, 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_optimize_direct_matches_the_per_candidate_referee(d):
    for m in range(d, 1 << d):
        gens, rep = optimize_direct(d, m)
        assert (gens.hops, rep.b) == oracle.optimize_direct(d, m), m
