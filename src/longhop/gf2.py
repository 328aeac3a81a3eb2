"""Bit-packed linear algebra over GF(2).

Vectors are Python ints (bit i = coordinate i) and a matrix is a list of
row ints.  Everything here is exact and allocation-light; dimensions in
this package never exceed 24 so dense elimination is always cheap.
`transpose` holds the generator-matrix bit layout for every module that
reads hops as a matrix: bit s of row i is bit i of hop s.  From those
rows, `information_sets` and `subset_xors` (which imports numpy as it
runs) build the codewords of every engine that enumerates them.
"""
from __future__ import annotations

import random
from itertools import islice

from .errors import DomainError


def independent(vectors):
    """Yield each vector that is independent of the ones before it, in
    order: the greedy basis of their span, read lazily."""
    basis: dict[int, int] = {}
    for v in vectors:
        if v < 0:
            raise DomainError("GF(2) vectors must be nonnegative integers")
        r = v
        while r:
            top = r.bit_length() - 1
            if top not in basis:
                basis[top] = r
                yield v
                break
            r ^= basis[top]


def rank(vectors) -> int:
    """Rank of the span of `vectors` (any iterable of nonnegative ints)."""
    return sum(1 for _ in independent(vectors))


def spans(vectors, d: int) -> bool:
    """True when `vectors`, each at most d bits wide, generate all of
    GF(2)^d; the scan stops at the d-th independent vector."""
    return sum(1 for _ in islice(independent(vectors), d)) == d


def transpose(vectors, width: int) -> list[int]:
    """The bit matrix read the other way: `width` row ints, bit s of row i
    being bit i of vectors[s]; DomainError unless each fits in `width`
    bits.  Linear in the bits: reversed, the string of every vector's
    bits holds row i in every width'th character from i."""
    spec = f"0{width}b"
    # At width 0 only a zero vector fits, as the empty string.
    words = [format(v, spec) if width or v else "" for v in vectors]
    bits = "".join(words)[::-1]
    if len(bits) != width * len(words) or "-" in bits:
        raise DomainError(f"a vector does not fit in {width} bits")
    return [int(bits[i::width] or "0", 2) for i in range(width)]


def transvect(vectors, src: int, dst: int) -> list[int]:
    """Each vector with coordinate src added into coordinate dst: the
    elementary map x_dst += x_src, invertible whenever src != dst."""
    return [v ^ ((v >> src & 1) << dst) for v in vectors]


def row_reduce(rows, free: int):
    """Gauss-Jordan on the row ints `rows`: row i takes its pivot at the
    lowest column of `free` it holds once rows 0..i-1 are reduced, and is
    cleared from every other row.  Bits above the columns of `free` follow
    the same XORs, so a tag kept there (row i | 1 << w + i, with free
    below bit w) tells which input rows make up each output row.
    Returns a new list of rows and `free` less the pivot columns, or None
    when some row holds no column of `free`: the rows restricted to those
    columns are then dependent.  len(rows)^2 XORs of row ints."""
    rows = list(rows)
    for i in range(len(rows)):
        pivot = rows[i] & free
        if not pivot:
            return None
        pivot &= -pivot
        free ^= pivot
        for j in range(len(rows)):
            if j != i and rows[j] & pivot:
                rows[j] ^= rows[i]
    return rows, free


def information_sets(rows, m: int):
    """Yield disjoint information sets of the code whose generator matrix
    has the d independent m-bit rows `rows`, each as the d rows that
    row_reduce gives with input row i tagged 1 << m + i: row i of a set
    reads 1 on its i'th pivot column and 0 on the others, and its tag
    names the input rows it is the XOR of.  Each set takes its pivots
    from columns no earlier set took, and the first that cannot ends
    them.  d^2 XORs of (m + d)-bit ints per set."""
    found = ([r | 1 << m + i for i, r in enumerate(rows)], (1 << m) - 1)
    while (found := row_reduce(*found)) is not None:
        yield found[0]


def apply(rows, x: int) -> int:
    """Image of x under the linear map sending unit i to rows[i]: the XOR
    of rows[i] over the set bits i of x."""
    out = 0
    i = 0
    while x:
        if x & 1:
            out ^= rows[i]
        x >>= 1
        i += 1
    return out


def subset_xors(vectors):
    """The numpy array of vectors' dtype whose entry S is the XOR of
    vectors[i] over the set bits i of S, for every S < 2^len(vectors)."""
    import numpy as np

    out = np.empty(1 << vectors.size, dtype=vectors.dtype)
    out[0] = 0
    for i, a in enumerate(vectors):
        np.bitwise_xor(out[: 1 << i], a, out=out[1 << i : 2 << i])
    return out


def random_invertible(d: int, rng: random.Random) -> list[int]:
    """Draw a uniformly random invertible d x d matrix by rejection."""
    if d <= 0:
        raise DomainError("dimension must be positive")
    while True:
        rows = [rng.getrandbits(d) for _ in range(d)]
        if rank(rows) == d:
            return rows
