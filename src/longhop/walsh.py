"""Walsh functions on the Boolean cube and the fast transform.

Indices and arguments are integers in [0, 2^d) interpreted as bit
vectors over GF(2).  The Walsh function with index k evaluated at x is
the parity of the AND of the two words; the algebraic form maps that
bit through b -> (-1)^b.  Both transforms are exact integer arithmetic.
"""
from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from .errors import DomainError, LongHopError

if TYPE_CHECKING:
    from array import array

    import numpy as np

# Largest supported cube dimension.  2^24 int64 eigenvalues is 128 MiB,
# which is as much as a single in-memory spectrum should ever need.
MAX_DIM = 24


def fwht(values) -> np.ndarray:
    """Walsh-Hadamard transform of an integer vector, exactly, as a copy.

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


def fwht_lanes(hops, d: int) -> array:
    """The Walsh transform of the `hops` indicator, plus n, as array('I').

    No numpy: the lanes are 32 bits of one Python int, biased so that no
    stage borrows.  Lane h starts at 2 for a hop, else 1, and stage s,
    pairing lane i with lane i + 2^s by whole-int masks, shifts and adds,
    lifts the bias 2^s to 2^(s + 1); |value| <= 2^s keeps every lane in
    [0, 2^(d + 2)).  One AND checks that every lane is m + n mod 2.
    """
    from array import array

    n = 1 << d
    ones = b"\x01\x00\x00\x00"
    start = bytearray(ones) * n
    for h in hops:
        start[4 * h] = 2
    x = int.from_bytes(start, "little")
    del start
    for s in range(d):
        low = int.from_bytes((ones * (1 << s) + bytes(4 << s)) * (n >> s + 1), "little")
        a = x & low * 0xFFFFFFFF
        x = x >> (32 << s) & low * 0xFFFFFFFF
        x = (a + x) | (a + (low << s + 1) - x) << (32 << s)
    every = int.from_bytes(ones * n, "little")
    if x & every != (every if (len(hops) + n) & 1 else 0):
        raise LongHopError("Walsh lane parity broke; fwht_lanes is miscounting")
    out = array("I", x.to_bytes(4 * n, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out
