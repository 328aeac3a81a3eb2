"""Walsh functions on the Boolean cube and the fast transform.

Indices and arguments are integers in [0, 2^d) interpreted as bit
vectors over GF(2).  The Walsh function with index k evaluated at x is
the parity of the AND of the two words; the algebraic form maps that
bit through b -> (-1)^b.  Both transforms are exact integer arithmetic;
`fwht` works in place, so a hop indicator takes 4 bytes per node.
"""
from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from .errors import DomainError, LongHopError

if TYPE_CHECKING:
    from array import array

    import numpy as np

# Largest supported cube dimension.  2^24 int32 eigenvalues is 64 MiB,
# which is as much as a single in-memory spectrum should ever need.
MAX_DIM = 24


def fwht(values: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform, exactly and in place: H_n @ values
    overwrites `values`, a one-dimensional, C-contiguous, writeable
    signed-integer numpy array of 2^d <= 2^MAX_DIM entries, and is
    returned (Sylvester / natural ordering, no normalization, so applying
    it twice multiplies by n).  Each stage is l += r, r *= -2, r += l on
    the halves of every block: no cast, no copy.  No partial sum passes
    n max|value|, so a 0/1 indicator fits int32; a dtype too narrow for
    that is refused."""
    import numpy as np

    if not isinstance(values, np.ndarray) or values.ndim != 1:
        raise DomainError("fwht expects a one-dimensional numpy array")
    signed = np.issubdtype(values.dtype, np.signedinteger)
    if not (signed and values.flags.c_contiguous and values.flags.writeable):
        raise DomainError("fwht works in place on contiguous, writeable signed ints")
    n = values.size
    if n == 0 or n & (n - 1) or n > 1 << MAX_DIM:
        raise DomainError(f"fwht length must be a power of two <= 2^{MAX_DIM}, got {n}")
    if n * max(int(values.max()), -int(values.min())) > np.iinfo(values.dtype).max:
        raise DomainError(f"fwht of length {n} would overflow {values.dtype}")
    h = 1
    while h < n:
        blocks = values.reshape(-1, 2 * h)
        left, right = blocks[:, :h], blocks[:, h:]
        if h < 8:
            # Down the columns: a row of h < 8 entries per call of numpy's
            # inner loop is slow (0.67 -> 0.55 s at d = 24).
            left, right = left.T, right.T
        np.add(left, right, out=left, order="C")
        np.multiply(right, -2, out=right, order="C")
        np.add(right, left, out=right, order="C")
        h *= 2
    return values


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
