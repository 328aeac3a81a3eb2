"""Generator sets, the hop-list file format, and BFS metrics."""

import io
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from longhop import gf2, graph
from longhop.constructions import hd_metrics, lh_hd, low_density_b3
from longhop.designer import WiringTable
from longhop.errors import DisconnectedGraph, DomainError, FormatError
from longhop.graph import (
    GeneratorSet,
    distance_profile,
    format_hops,
    hex_width,
    load_hops,
    parse_hops,
    spectrum_tails,
)

FQ3 = GeneratorSet(3, (1, 2, 4, 7))


@st.composite
def generator_sets(draw, min_d=2, max_d=6):
    d = draw(st.integers(min_d, max_d))
    n = 1 << d
    m = draw(st.integers(d, min(n - 1, d + 4)))
    hops = draw(
        st.lists(st.integers(1, n - 1), min_size=m, max_size=m, unique=True)
    )
    assume(gf2.spans(hops, d))
    return GeneratorSet(d, tuple(hops))


def test_generator_set_basics():
    assert FQ3.n == 8
    assert FQ3.m == 4
    assert FQ3.xor_all() == 0
    assert GeneratorSet(3, (1, 2, 4)).xor_all() == 7


@pytest.mark.parametrize(
    "d,hops",
    [
        (0, (1,)),
        (25, (1,) * 25),
        (3, ()),
        (3, (0, 1, 2)),
        (3, (1, 2, 8)),
        (3, (1, 2, 2)),
        (4, (1, 2, 4)),  # fewer hops than dimensions can never span
    ],
)
def test_generator_set_rejects(d, hops):
    with pytest.raises(DomainError):
        GeneratorSet(d, hops)


def test_neighbors_in_hop_order():
    # A wiring row lists the peers v XOR h_s in hop order.
    table = WiringTable(FQ3, radix=5)
    buf = io.StringIO()
    table.write(buf)
    rows = buf.getvalue().splitlines()[1:]
    assert rows[0] == "0:\t1\t2\t4\t7\t**"
    assert rows[5] == "5:\t4\t7\t1\t2\t**"
    with pytest.raises(DomainError):
        table.write(io.StringIO(), 8, 8)


def test_hex_width():
    assert hex_width(1) == 1
    assert hex_width(4) == 1
    assert hex_width(5) == 2
    assert hex_width(16) == 4


def test_format_hops_golden():
    assert format_hops(FQ3) == "d=3 q=2\n1\n2\n4\n7\n"
    wide = GeneratorSet(5, (1, 2, 4, 8, 16, 0x1F))
    assert format_hops(wide) == "d=5 q=2\n01\n02\n04\n08\n10\n1F\n"


def test_parse_hops_accepts_comments_and_blanks():
    text = "# header comment\nd=3 q=2\n\n1\n2  # inline\n4\n7\n"
    assert parse_hops(text) == FQ3


def test_parse_hops_accepts_lowercase_hex():
    gens = parse_hops("d=5 q=2\n01\n02\n04\n08\n10\n1f\n")
    assert gens.hops[-1] == 0x1F


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only comments\n",
        "d=3\n1\n2\n4\n",
        "d=3 q=3\n1\n2\n4\n",
        "d=x q=2\n1\n2\n4\n",
        "d=3 q=2\n1\n2\nzz\n",
        "d=3 q=2\n1\n2\n9\n",  # hop out of range: domain error surfaces as format
    ],
)
def test_parse_hops_rejects(text):
    with pytest.raises(FormatError):
        parse_hops(text)


@given(generator_sets())
def test_format_parse_round_trip(gens):
    assert parse_hops(format_hops(gens)) == gens


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "set.hops"
    path.write_text(format_hops(FQ3))
    assert load_hops(path) == FQ3


def test_adjacency_golden():
    # The referee's adjacency matrix of FQ3: node v links to all but
    # v ^ 3, v ^ 5 and v ^ 6, so its powers reach every node in 2 steps,
    # as the BFS profile says.
    A = np.array(oracle.adjacency(FQ3.d, FQ3.hops))
    want = [[int(u ^ v not in (0, 3, 5, 6)) for v in range(8)] for u in range(8)]
    assert A.tolist() == want
    reached = np.eye(8, dtype=np.int64)
    for steps in range(3):
        want_total = sum(distance_profile(FQ3).counts[:steps + 1])
        assert np.count_nonzero(reached[0]) == want_total
        reached = reached + A @ reached


@pytest.mark.parametrize(
    "gens,diameter,total",
    [
        (GeneratorSet(3, (1, 2, 4)), 3, 12),
        (GeneratorSet(4, tuple(1 << i for i in range(4))), 4, 32),
        (GeneratorSet(5, tuple(1 << i for i in range(5))), 5, 80),
        (GeneratorSet(6, tuple(1 << i for i in range(6))), 6, 192),
        (FQ3, 2, 10),
        (GeneratorSet(4, (1, 2, 4, 8, 15)), 2, 25),
        (GeneratorSet(5, (1, 2, 4, 8, 16, 31)), 3, 66),
        (GeneratorSet(6, (1, 2, 4, 8, 16, 32, 63)), 3, 154),
    ],
)
def test_distance_profile_goldens(gens, diameter, total):
    prof = distance_profile(gens)
    assert prof.diameter == diameter
    assert prof.total == total
    assert prof.n == gens.n
    assert prof.avg == Fraction(total, gens.n)


def test_distance_profile_details():
    prof = distance_profile(FQ3)
    assert prof.counts == (1, 4, 3)
    assert prof.far_count == 3


@given(generator_sets())
def test_distance_profile_matches_bfs_oracle(gens):
    prof = distance_profile(gens)
    want = oracle.distances(gens.d, gens.hops)
    assert prof.counts == tuple(np.bincount(want).tolist())
    assert prof.diameter == max(want)
    assert prof.total == sum(want)
    assert prof.far_count == want.count(max(want))


def test_distance_profile_disconnected():
    with pytest.raises(DisconnectedGraph, match="rank-2 subspace of d=3"):
        distance_profile(GeneratorSet(3, (1, 2, 3)))


# Sets that would reach the codeword enumeration, the spectrum (705 hops
# in a 10-dim subspace: m > 64 d) and the BFS pull step (2^13 reachable
# nodes, a frontier past n/32) if they could be built.
@pytest.mark.parametrize(
    "d,hops,rank",
    [
        (3, (1, 2, 3), 2),
        (11, tuple(random.Random(3).sample(range(1, 1 << 10), 705)), 10),
        (14, tuple(1 << i for i in range(13)) + (3,), 13),
    ] + [
        # The largest sets that do not span: every nonzero word of a
        # hyperplane, one short of the n/2 hops that always span.
        (d, tuple(range(1, 1 << (d - 1))), d - 1) for d in range(3, 7)
    ],
    ids=["d3", "d11-wide", "d14-pull"] + [f"d{d}-hyperplane" for d in range(3, 7)],
)
def test_generator_set_refuses_a_set_that_does_not_span(d, hops, rank):
    with pytest.raises(DisconnectedGraph) as exc:
        GeneratorSet(d, hops)
    assert str(exc.value) == f"hops span a rank-{rank} subspace of d={d}"


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_half_the_words_or_more_always_span(d):
    # A proper subspace holds at most n/2 - 1 nonzero words.
    words = range(1, 1 << d)
    for m in range(1 << (d - 1), 1 << d):
        for hops in combinations(words, m):
            assert GeneratorSet(d, hops).m == m


def test_half_distance_rungs_skip_the_span_scan(monkeypatch):
    def scanned(*args):
        raise AssertionError("m >= n/2 distinct hops span without a scan")

    monkeypatch.setattr(gf2, "spans", scanned)
    assert lh_hd(15, 16384).m == 16384


def test_distance_profile_memory_is_independent_of_m():
    # n = 8192 with m = 4096 hops: a frontier x m int64 block would be
    # 128 MB, while per-node state is a few tens of KB.
    gens = lh_hd(13, 4096)
    tracemalloc.start()
    try:
        prof = distance_profile(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (prof.diameter, prof.far_count) == (2, 4095)
    assert peak < 1 << 20


def test_spectrum_tails_memory_per_node():
    # The rung d = 16, m = 32768 has a tail table of n/2 + 1 rows of 14
    # bytes, built a block of strings at a time: it stays well under the
    # 24 bytes a node of the FWHT that gives that rung its cut counts.
    tracemalloc.start()
    try:
        tails = spectrum_tails(1 << 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tails.shape == ((1 << 15) + 1, 14)
    assert peak < 16 << 16


def test_distance_profile_memory_per_node():
    # b3(20) runs dense levels on packed words from level 5 on; the sparse
    # levels before them hold node lists of a few thousand entries.
    # Pushing all the way on bool masks, with int64 indices of frontiers
    # up to n/2, peaks near 8 bytes a node.
    gens = low_density_b3(20)
    tracemalloc.start()
    try:
        distance_profile(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * gens.n


def test_distance_profile_memory_per_node_at_d24():
    gens = low_density_b3(24)
    tracemalloc.start()
    try:
        prof = distance_profile(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (prof.diameter, prof.far_count) == (13, 1)
    assert peak < 1.5 * gens.n


def record_steps(mp, steps):
    """Patch graph._sparse_level and graph._dense_level so that each also
    notes in steps that it computed a level."""
    sparse, dense = graph._sparse_level, graph._dense_level

    def sparse_step(*args):
        steps.append("sparse")
        return sparse(*args)

    def dense_step(*args):
        steps.append("dense")
        return dense(*args)

    mp.setattr(graph, "_sparse_level", sparse_step)
    mp.setattr(graph, "_dense_level", dense_step)


def force_steps(mp, steps, step):
    """Record the steps, and make every level take `step`."""
    record_steps(mp, steps)
    mp.setattr(graph, "_SPARSE_COST", 0 if step == "sparse" else float("inf"))


@pytest.fixture()
def steps(monkeypatch):
    steps = []
    record_steps(monkeypatch, steps)
    return steps


def assert_matches_oracle(gens):
    prof = distance_profile(gens)
    want = oracle.distances(gens.d, gens.hops)
    assert prof.counts == tuple(np.bincount(want).tolist())
    assert prof.far_count == want.count(max(want))
    return prof


@given(generator_sets(min_d=2, max_d=10), st.sampled_from([1, 4]), st.booleans())
def test_pull_step_from_level_one_matches_bfs_oracle(gens, check_hops, listed):
    # The dense (pull) step on every level.  d < 6 leaves one partial word
    # and every hop with hi = 0; d > 6 has delayed sources.  The coverage
    # check runs after every hop or every 4, and gathers go into a list
    # of words whenever one is left or into all of them.
    entries = []
    with pytest.MonkeyPatch.context() as mp:
        force_steps(mp, entries, "dense")
        mp.setattr(graph, "_CHECK_HOPS", check_hops)
        mp.setattr(graph, "_SPARSE_WORDS", 0 if listed else float("inf"))
        prof = assert_matches_oracle(gens)
    assert entries == ["dense"] * prof.diameter


@given(generator_sets(min_d=2, max_d=10))
def test_sparse_step_from_level_one_matches_bfs_oracle(gens):
    # The sparse step on every level: it pushes from the frontier while
    # that is the shorter list and pulls into the unseen nodes after.
    entries = []
    with pytest.MonkeyPatch.context() as mp:
        force_steps(mp, entries, "sparse")
        prof = assert_matches_oracle(gens)
    assert entries == ["sparse"] * prof.diameter


@st.composite
def capped_sets(draw):
    """Spanning sets with d = 2..14 and r = m - d extra hops one below, at
    or one above the cap max(d - 6, 0) on the hops that become delayed
    sources."""
    d = draw(st.integers(2, 14))
    r = max(0, max(d - 6, 0) + draw(st.sampled_from([-1, 0, 1])))
    m = min(d + r, (1 << d) - 1)
    hops = draw(
        st.lists(st.integers(1, (1 << d) - 1), min_size=m, max_size=m, unique=True)
    )
    assume(gf2.spans(hops, d))
    return GeneratorSet(d, tuple(hops))


@given(capped_sets())
@settings(deadline=None, max_examples=60)
def test_distance_profile_around_the_source_cap_matches_bfs_oracle(gens):
    assert_matches_oracle(gens)


@given(capped_sets(), st.integers(0, 2**32))
@settings(deadline=None)
def test_distance_profile_is_invariant_under_invertible_maps(gens, seed):
    rows = gf2.random_invertible(gens.d, random.Random(seed))
    mapped = GeneratorSet(gens.d, tuple(gf2.apply(rows, h) for h in gens.hops))
    assert distance_profile(mapped) == distance_profile(gens)


def _every_lo_set():
    rng = random.Random(5)
    return GeneratorSet(
        14, tuple(rng.randrange(1, 256) << 6 | lo for lo in range(64))
    )


@pytest.mark.parametrize(
    "gens",
    [
        low_density_b3(14),
        GeneratorSet(14, tuple(1 << i for i in range(14))),
        # Beyond the six low unit vectors, every hop has lo = 0.
        GeneratorSet(
            14, (1, 2, 4, 8, 16, 32) + tuple(hi << 6 for hi in range(1, 256, 6))
        ),
        _every_lo_set(),
        low_density_b3(13),
    ],
    ids=["b3-14", "cube-14", "lo-zero", "every-lo", "b3-13"],
)
def test_pull_step_matches_bfs_oracle(gens, steps):
    assert_matches_oracle(gens)
    assert "dense" in steps


def test_pull_step_matches_hd_closed_form(steps):
    prof = distance_profile(lh_hd(14, 8192))
    _, diameter, avg = hd_metrics(14, 8192)
    assert (prof.diameter, prof.avg) == (diameter, avg)
    assert steps == ["sparse", "dense"]
