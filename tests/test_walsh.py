"""Walsh layer: the transform, and the Hadamard rows it gives."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from longhop.errors import DomainError, LongHopError
from longhop.walsh import MAX_DIM, fwht, fwht_lanes


def hadamard(n):
    """The n x n Sylvester Hadamard matrix: row k is fwht of unit vector k."""
    return np.stack([fwht(unit) for unit in np.eye(n, dtype=np.int64)])


@pytest.mark.parametrize("n", [2, 8, 64])
def test_walsh_values_row(n):
    for k, row in enumerate(hadamard(n)):
        assert row.tolist() == [oracle.walsh_sign(k, x) for x in range(n)]


@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_walsh_values_entries_match_oracle(k, x):
    # Single entries of rows far wider than test_walsh_values_row lists.
    unit = np.zeros(1 << 16, dtype=np.int64)
    unit[k] = 1
    assert fwht(unit)[x] == oracle.walsh_sign(k, x)


def test_rows_are_orthogonal():
    n = 256
    H = hadamard(n)
    assert np.array_equal(H @ H.T, n * np.eye(n, dtype=np.int64))


def test_rows_multiply_by_xor_of_indices():
    n = 128
    H = hadamard(n)
    idx = np.arange(n)
    table = idx[:, None] ^ idx[None, :]
    assert np.array_equal(H[:, None, :] * H[None, :, :], H[table])


def test_nonzero_rows_are_balanced():
    assert (hadamard(256)[1:].sum(axis=1) == 0).all()


@pytest.mark.parametrize("n", [1, 2, 4, 16, 256])
def test_fwht_matches_naive_transform(n):
    rng = np.random.default_rng(n)
    f = rng.integers(-50, 50, size=n)
    want = oracle.transform(f.tolist())
    assert fwht(f).tolist() == want


def test_fwht_indicator_golden():
    # Hop indicator of {1, 2, 4, 7} on 8 points.
    f = np.zeros(8, dtype=np.int64)
    f[[1, 2, 4, 7]] = 1
    assert fwht(f).tolist() == [4, 0, 0, 0, 0, 0, 0, -4]


def test_fwht_is_an_involution_up_to_n():
    n = 4096
    rng = np.random.default_rng(42)
    f = rng.integers(-1000, 1000, size=n)
    assert np.array_equal(fwht(fwht(f.copy())), n * f)


def test_fwht_transforms_in_place():
    for dtype in (np.int8, np.int32, np.int64):
        f = np.array([1, 2, 3, 4, 0, -1, 5, 2], dtype=dtype)
        want = oracle.transform(f.tolist())
        assert fwht(f) is f
        assert f.dtype == dtype
        assert f.tolist() == want


def test_fwht_validation():
    with pytest.raises(DomainError):
        fwht(np.zeros(6, dtype=np.int64))
    with pytest.raises(DomainError):
        fwht(np.zeros(0, dtype=np.int64))
    with pytest.raises(DomainError):
        fwht(np.zeros(8, dtype=np.float64))
    with pytest.raises(DomainError):
        fwht(np.zeros((4, 4), dtype=np.int64))
    # Inputs that could only be transformed as a copy.
    with pytest.raises(DomainError):
        fwht([0, 1, 1, 0])
    with pytest.raises(DomainError):
        fwht(np.zeros(8, dtype=np.uint32))
    with pytest.raises(DomainError):
        fwht(np.zeros(16, dtype=np.int32)[::2])
    frozen = np.zeros(8, dtype=np.int32)
    frozen.flags.writeable = False
    with pytest.raises(DomainError):
        fwht(frozen)
    assert MAX_DIM == 24


def test_fwht_refuses_a_dtype_its_sums_would_overflow():
    # Every entry stays within n max|value|: 16 * 7 fits int8, 16 * 8 does
    # not, nor 2 * 128.  A refused input is left as it was.
    assert fwht(np.full(16, 7, dtype=np.int8)).tolist() == [112] + [0] * 15
    for values in (np.full(16, 8, dtype=np.int8), np.array([-128, 0], dtype=np.int8)):
        before = values.tolist()
        with pytest.raises(DomainError, match="overflow"):
            fwht(values)
        assert values.tolist() == before


@st.composite
def hop_sets(draw):
    # m from d to n - 1: at m = n - 1, lane 0 reaches its largest value,
    # 2n - 1.
    d = draw(st.integers(1, 10))
    n = 1 << d
    m = draw(st.one_of(st.sampled_from([d, n - 1]), st.integers(d, n - 1)))
    return d, random.Random(draw(st.integers(0, 2**32))).sample(range(1, n), m)


@given(hop_sets())
@example((10, list(range(1, 1 << 10))))
@example((10, [1 << i for i in range(10)]))
@settings(deadline=None, max_examples=60)
def test_lanes_match_oracle_eigenvalues(case):
    d, hops = case
    lanes = fwht_lanes(hops, d)
    assert lanes.itemsize == 4
    assert lanes.tolist() == [lam + (1 << d) for lam in oracle.eigenvalues(d, hops)]


def test_lanes_check_their_parity():
    # A repeated hop counts twice in m but sets its lane once, so every
    # lane has the wrong parity.
    with pytest.raises(LongHopError, match="parity"):
        fwht_lanes((3, 3), 2)
