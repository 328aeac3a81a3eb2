"""Bit-packed linear algebra over GF(2).

Vectors are Python ints (bit i = coordinate i) and a matrix is a list of
row ints.  Everything here is exact and allocation-light; dimensions in
this package never exceed 24 so dense elimination is always cheap.
`transpose` holds the generator-matrix bit layout for every module that
reads hops as a matrix: bit s of row i is bit i of hop s.
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
    being bit i of vectors[s].  Every vector must fit in `width` bits."""
    rows = [0] * width
    for s, v in enumerate(vectors):
        for i in range(v.bit_length()):
            if v >> i & 1:
                rows[i] |= 1 << s
    return rows


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


def random_invertible(d: int, rng: random.Random) -> list[int]:
    """Draw a uniformly random invertible d x d matrix by rejection."""
    if d <= 0:
        raise DomainError("dimension must be positive")
    while True:
        rows = [rng.getrandbits(d) for _ in range(d)]
        if rank(rows) == d:
            return rows
