"""Bit-packed GF(2) linear algebra."""

import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from longhop import gf2
from longhop.errors import DomainError


def _apply(rows, x):
    """Image of x under the map whose unit images are `rows`."""
    out = 0
    for i, r in enumerate(rows):
        if x >> i & 1:
            out ^= r
    return out


def test_rank_known_values():
    assert gf2.rank([]) == 0
    assert gf2.rank([0]) == 0
    assert gf2.rank([1, 2, 4]) == 3
    assert gf2.rank([1, 2, 3]) == 2
    assert gf2.rank([7, 7, 7]) == 1
    assert gf2.rank([3, 5, 6]) == 2


@given(st.lists(st.integers(0, 2**10 - 1), max_size=12))
def test_rank_matches_oracle(vectors):
    assert gf2.rank(vectors) == oracle.gf2_rank(vectors)


def test_rank_rejects_negative():
    with pytest.raises(DomainError):
        gf2.rank([-3])


def test_spans():
    assert gf2.spans([1, 2, 4], 3)
    assert gf2.spans([1, 2, 4, 7], 3)
    assert not gf2.spans([1, 2, 3], 3)
    assert not gf2.spans([1, 2, 4], 4)


def test_random_invertible_is_seeded():
    a = gf2.random_invertible(6, random.Random(99))
    b = gf2.random_invertible(6, random.Random(99))
    assert a == b
    assert gf2.rank(a) == 6


def test_random_invertible_rejects_bad_dimension():
    with pytest.raises(DomainError):
        gf2.random_invertible(0, random.Random(1))


@st.composite
def bit_matrices(draw):
    width = draw(st.integers(1, 24))
    vectors = draw(st.lists(st.integers(0, 2**width - 1), max_size=70))
    return vectors, width


@given(bit_matrices())
def test_transpose_twice_is_the_identity(matrix):
    vectors, width = matrix
    rows = gf2.transpose(vectors, width)
    assert len(rows) == width
    for i in range(width):
        for s, v in enumerate(vectors):
            assert rows[i] >> s & 1 == v >> i & 1
    assert gf2.transpose(rows, len(vectors)) == vectors


@st.composite
def wide_bit_matrices(draw):
    # Up to 300 vectors of up to 200 bits: many narrow vectors make a few
    # wide rows, and a few wide vectors many narrow rows.
    width = draw(st.integers(0, 200))
    vectors = draw(st.lists(st.integers(0, 2**width - 1), max_size=300))
    return vectors, width


@given(wide_bit_matrices())
@settings(deadline=None, max_examples=60)
def test_transpose_matches_the_bit_loop_both_ways(matrix):
    vectors, width = matrix
    rows = gf2.transpose(vectors, width)
    assert rows == oracle.transpose(vectors, width)
    assert gf2.transpose(rows, len(vectors)) == oracle.transpose(rows, len(vectors))
    assert gf2.transpose(rows, len(vectors)) == vectors


def test_transpose_at_width_zero():
    assert gf2.transpose([], 0) == []
    assert gf2.transpose([0, 0, 0], 0) == []
    assert gf2.transpose([], 3) == [0, 0, 0]
    assert gf2.transpose([0, 0], 2) == [0, 0]


@pytest.mark.parametrize(
    "vectors, width", [([8], 3), ([1, 2, 4, 9], 3), ([1], 0), ([-1], 2), ([3, -2], 1)]
)
def test_transpose_refuses_a_vector_wider_than_the_width(vectors, width):
    # The string form would read such a vector's bits into the wrong rows.
    with pytest.raises(DomainError):
        gf2.transpose(vectors, width)


def test_transpose_takes_linear_time():
    # 2^17 vectors of 18 bits, the hops of hd(18, 2^17), and back: a loop
    # over the bits took 1.1 s one way and 4.8 s back (2-core Xeon,
    # Python 3.11), the string form about 0.15 s in all.
    rng = random.Random(18)
    vectors = [rng.getrandbits(18) for _ in range(1 << 17)]
    start = time.perf_counter()
    rows = gf2.transpose(vectors, 18)
    back = gf2.transpose(rows, len(vectors))
    assert time.perf_counter() - start < 2
    assert back == vectors


@given(st.lists(st.integers(0, 2**63 - 1), max_size=10))
def test_subset_xors_match_apply_on_int64(vectors):
    table = gf2.subset_xors(np.array(vectors, dtype=np.int64))
    assert table.dtype == np.int64
    assert table.tolist() == [gf2.apply(vectors, s) for s in range(1 << len(vectors))]


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=10))
def test_subset_xors_match_apply_on_uint64_rows(vectors):
    # The rows of one 64-hop chunk of cut_counts: bit 63 is a hop.
    vectors[0] |= 1 << 63
    table = gf2.subset_xors(np.array(vectors, dtype=np.uint64))
    assert table.dtype == np.uint64
    assert table.tolist() == [gf2.apply(vectors, s) for s in range(1 << len(vectors))]


@given(bit_matrices(), st.data())
def test_transvect_matches_a_bit_loop(matrix, data):
    vectors, width = matrix
    assume(width >= 2)
    src, dst = data.draw(st.permutations(range(width)))[:2]
    want = []
    for v in vectors:
        bits = [v >> i & 1 for i in range(width)]
        bits[dst] ^= bits[src]
        want.append(sum(bit << i for i, bit in enumerate(bits)))
    assert gf2.transvect(vectors, src, dst) == want


@given(st.lists(st.integers(0, 2**12 - 1), min_size=1, max_size=12), st.data())
def test_apply_matches_a_bit_loop(rows, data):
    x = data.draw(st.integers(0, 2 ** len(rows) - 1))
    assert gf2.apply(rows, x) == _apply(rows, x)


@given(st.lists(st.integers(0, 255), min_size=1, max_size=6), st.integers(0, 255))
def test_row_reduce_is_gauss_jordan(rows, free):
    # Input row i carries the tag 1 << 8 + i above the 8 columns.
    found = gf2.row_reduce([r | 1 << 8 + i for i, r in enumerate(rows)], free)
    # Restricted to the columns of free, the rows have full rank exactly
    # when the reduction finds a pivot for each.
    full = gf2.rank([r & free for r in rows]) == len(rows)
    assert (found is not None) == full
    if found is None:
        return
    out, left = found
    pivots = free & ~left
    assert left & pivots == 0 and pivots.bit_count() == len(rows)
    for r in out:
        # Each output row is the XOR of the input rows its tag names, and
        # holds exactly one pivot column, a different one for each row.
        assert r & 255 == _apply(rows, r >> 8)
        assert (r & pivots).bit_count() == 1
    assert gf2.rank([r & pivots for r in out]) == len(rows)
