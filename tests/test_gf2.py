"""Bit-packed GF(2) linear algebra."""

import random

import pytest
from hypothesis import assume, given
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
