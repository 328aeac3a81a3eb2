"""Translation between hop sets and binary linear block codes.

A d x m generator matrix over GF(2) and an m-hop set in Z_2^d are the
same object viewed sideways, with one orientation: the hops are
`gf2.transpose(rows[::-1], m)` and the rows are `gf2.transpose(hops,
d)[::-1]`.  So hop s is the (m - s)'th matrix column read top-to-bottom
as a d-bit word (top row = most significant bit).  Under that
correspondence the minimum codeword weight equals the per-node
bisection b of the hop graph, so code tables double as network designs.
`bisection.cut_blocks` computes the codeword weights for most hop sets;
`min_weight` here stays a separate, plain enumeration so the identity
can be checked against the Walsh transform.
"""
from __future__ import annotations

import random
from collections import namedtuple
from typing import TYPE_CHECKING, NamedTuple

from . import gf2
from .errors import DomainError, FormatError
from .graph import GeneratorSet, check_dim, integers, read_lines, read_text
from .walsh import MAX_DIM

if TYPE_CHECKING:
    from collections.abc import Iterable


class LinearCode(namedtuple("LinearCode", "width rows")):
    """Generator matrix: `rows` are width-bit ints, leftmost column = MSB."""

    __slots__ = ()

    def __new__(cls, width: int, rows: Iterable[int]):
        (width,) = integers([width], "code width")
        if width < 1:
            raise DomainError(f"code width must be at least 1, got {width}")
        rows = integers(rows, "code rows")
        if not rows:
            raise DomainError("a code needs at least one generator row")
        for r in rows:
            if not 0 <= r < 1 << width:
                raise DomainError(f"row {r:#x} wider than {width} bits")
        return super().__new__(cls, width, rows)

    @property
    def k(self) -> int:
        return len(self.rows)


def format_code(code: LinearCode) -> str:
    """One generator row per line as 0/1 characters."""
    return "\n".join(f"{r:0{code.width}b}" for r in code.rows) + "\n"


def parse_code(text: str) -> LinearCode:
    """Parse 0/1 rows; blank lines and `#` comments are ignored."""
    lines = read_lines(text)
    if not lines:
        raise FormatError("empty code matrix")
    for line in lines:
        if set(line) - {"0", "1"}:
            raise FormatError(f"bad matrix row: {line!r}")
        if len(line) != len(lines[0]):
            raise FormatError("matrix rows differ in length")
    try:
        return LinearCode(len(lines[0]), tuple(int(line, 2) for line in lines))
    except DomainError as exc:
        raise FormatError(str(exc)) from None


def load_code(path) -> LinearCode:
    return parse_code(read_text(path))


def code_to_hops(code: LinearCode) -> GeneratorSet:
    """Read the columns right-to-left as hops over Z_2^k.  Independent
    rows are exactly spanning hops, which GeneratorSet checks."""
    hops = tuple(gf2.transpose(code.rows[::-1], code.width))
    if 0 in hops:
        raise DomainError("a zero matrix column would be a zero hop")
    if len(set(hops)) != len(hops):
        raise DomainError("equal matrix columns would duplicate a hop")
    return GeneratorSet(code.k, hops)


def hops_to_code(gens: GeneratorSet) -> LinearCode:
    """Inverse of code_to_hops: hop s becomes column m-1-s.  The hops
    span, so the d rows are independent."""
    return LinearCode(gens.m, tuple(gf2.transpose(gens.hops, gens.d)[::-1]))


def min_weight(code: LinearCode) -> int:
    """Smallest Hamming weight over the nonzero codewords, from all 2^k
    of them as int64 (so width <= 63), by plain doubling.

    Whenever the rows are independent this equals the bisection b of
    code_to_hops(code), i.e. (m - max nonzero-index eigenvalue) / 2.
    """
    if code.width > 63:
        raise DomainError(f"codewords need width <= 63, got {code.width}")
    if code.k > MAX_DIM:
        raise DomainError(f"2^{code.k} codewords is past the supported limit")
    if not any(code.rows):
        raise DomainError("code has no nonzero codeword")
    import numpy as np

    words = np.zeros(1, dtype=np.int64)
    for r in code.rows:
        words = np.concatenate([words, words ^ r])
    return int(np.bitwise_count(words[words != 0]).min())


class EquivalenceMap(namedtuple("EquivalenceMap", "d rows")):
    """An invertible linear map on Z_2^d, stored as images of the units."""

    __slots__ = ()

    def __new__(cls, d: int, rows: Iterable[int]):
        d, rows = check_dim(d), integers(rows, "map rows")
        if len(rows) != d:
            raise DomainError(f"need {d} rows, got {len(rows)}")
        for r in rows:
            if not 0 <= r < 1 << d:
                raise DomainError(f"row {r:#x} out of range for d={d}")
        if gf2.rank(rows) != d:
            raise DomainError("equivalence map must be invertible")
        return super().__new__(cls, d, rows)

    def apply(self, x: int) -> int:
        if not 0 <= x < 1 << self.d:
            raise DomainError(f"word {x:#x} out of range for d={self.d}")
        return gf2.apply(self.rows, x)

    def apply_to(self, gens: GeneratorSet) -> GeneratorSet:
        if gens.d != self.d:
            raise DomainError("dimension mismatch")
        return GeneratorSet(self.d, tuple(self.apply(h) for h in gens.hops))


def diagonalize(gens: GeneratorSet) -> GeneratorSet:
    """An equivalent hop set whose first d hops are the units: the image
    of the hops under one invertible map, pivots moved to the front.
    Pivots are chosen lightest-first so the tail keeps low weight.
    """
    d = gens.d
    hops = list(gens.hops)
    for c in range(d):
        _, pivot = min((h.bit_count(), i) for i, h in enumerate(hops) if h >> c & 1)
        for c2 in range(d):
            if c2 != c and hops[pivot] >> c2 & 1:
                hops = gf2.transvect(hops, c, c2)
        hops[pivot], hops[c] = hops[c], hops[pivot]
    return GeneratorSet(d, tuple(hops))


class MinChangeResult(NamedTuple):
    emap: EquivalenceMap
    gens: GeneratorSet
    rewired: int


def min_change_expansion(
    old: GeneratorSet,
    new: GeneratorSet,
    budget: int = 2000,
    seed: int = 0,
) -> MinChangeResult:
    """Re-encode `new` to reuse as many of `old`'s hops as possible.

    Searches invertible maps M on Z_2^{new.d} minimizing how many hops
    of M(new) are absent from `old` (old hops are read zero-extended
    when old.d < new.d).  Greedy over elementary column additions with
    random restarts; `budget` caps candidate evaluations, so the result
    is the best map seen, not a certified optimum.  Candidates are only
    ever transvections of an invertible map or fresh `random_invertible`
    draws, so they are scored as bare rows and only the result is
    checked as an `EquivalenceMap`.  A transvection acts after the
    current map M, so each step maps the hops once, y_h = M(h), and
    scores every transvection from those images.
    """
    if old.d > new.d:
        raise DomainError("the old network cannot be wider than the new one")
    d = new.d
    old_set = set(old.hops)
    rng = random.Random(seed)

    def misses(images) -> int:
        return sum(1 for y in images if y not in old_set)

    def images(rows: list[int]) -> list[int]:
        return [gf2.apply(rows, h) for h in new.hops]

    current = [1 << i for i in range(d)]
    current_cost = misses(images(current))
    budget -= 1
    best_rows, best_cost = list(current), current_cost

    while budget > 0 and best_cost > 0:
        step = None
        ys = images(current)
        for src in range(d):
            for dst in range(d):
                if src == dst:
                    continue
                # Transvecting the rows transvects every image.
                c = misses(gf2.transvect(ys, src, dst))
                budget -= 1
                if c < current_cost and (step is None or c < step[0]):
                    step = (c, src, dst)
                if budget <= 0:
                    break
            if budget <= 0:
                break
        if step is not None:
            current_cost, src, dst = step
            current = gf2.transvect(current, src, dst)
            if current_cost < best_cost:
                best_cost, best_rows = current_cost, list(current)
        else:
            current = gf2.random_invertible(d, rng)
            current_cost = misses(images(current))
            budget -= 1
            if current_cost < best_cost:
                best_cost, best_rows = current_cost, list(current)

    emap = EquivalenceMap(d, tuple(best_rows))
    return MinChangeResult(emap=emap, gens=emap.apply_to(new), rewired=best_cost)
