"""Walsh functions on the Boolean cube and the fast transform.

Indices and arguments are integers in [0, 2^d) interpreted as bit
vectors over GF(2).  The Walsh function with index k evaluated at x is
the parity of the AND of the two words; the algebraic form maps that
bit through b -> (-1)^b.  All transform arithmetic is exact int64.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

# Largest supported cube dimension.  2^24 int64 eigenvalues is 128 MiB,
# which is as much as a single in-memory spectrum should ever need.
MAX_DIM = 24


def fwht(values) -> np.ndarray:
    """Walsh-Hadamard transform of an integer vector, exactly, in place order.

    The input length must be a power of two no larger than 2^MAX_DIM.
    Returns H_n @ values as int64 (Sylvester / natural ordering, no
    normalization), so applying it twice multiplies by n.
    """
    import numpy as np

    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DomainError("fwht expects a one-dimensional vector")
    if not np.issubdtype(arr.dtype, np.integer):
        raise DomainError("fwht operates on integer vectors only")
    n = arr.size
    if n == 0 or n & (n - 1):
        raise DomainError(f"fwht length must be a power of two, got {n}")
    if n > 1 << MAX_DIM:
        raise DomainError(f"fwht length {n} exceeds 2^{MAX_DIM}")
    out = arr.astype(np.int64, copy=True)
    h = 1
    while h < n:
        blocks = out.reshape(-1, 2 * h)
        left = blocks[:, :h].copy()
        right = blocks[:, h:]
        blocks[:, :h] = left + right
        blocks[:, h:] = left - right
        h *= 2
    return out
