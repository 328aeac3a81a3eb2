"""Exact bisection bandwidth of hop graphs via the Walsh spectrum.

The adjacency eigenvalues of a Cayley graph on Z_2^d are the Walsh
transform of the hop indicator vector, and every Walsh function with a
nonzero index splits the node set into two equal halves.  Such a split
cuts C_k = (m - lambda_k) / 2 links per node pair, i.e. C_k * n/2 links
in total, and no balanced split does better, so scanning the spectrum
yields the exact bisection.

C_k is also the Hamming weight of codeword k of the hop set's code
(bit s of codeword k is the parity of k & hop s), which is why b is the
code's minimum distance.  `cut_blocks`, the one engine of the cut
counts, yields them in k order: as codeword weights, 2^16 at a time in
cache (about 1.2 MB per 64 hops whatever n is), while the hops fit in
d 64-bit words (m <= 64 d), and else, as on the half-distance rungs,
from one in-place int32 FWHT of the hop indicator.  `cut_counts` joins
the blocks for the callers that need every count at once; `lh spectrum`
on more than 2^16 nodes writes each block as it comes.  An enumeration
oracle for tiny n keeps both honest.

`bisection_fwht` needs only the minimum, so when m <= 64 d it first runs
the Brouwer-Zimmermann minimum-distance algorithm (`_low_weight`;
Zimmermann 1996, Grassl 2006) on Python ints, some 45 bytes a codeword
whatever n is.  When m > 64 d, or past the budget, it takes the first
minimum of the whole spectrum: up to d n = 2^22 (d <= 17) from the
numpy-free `walsh.fwht_lanes`, and above that from `cut_blocks`.  numpy
is imported only by the functions that build arrays of n entries.
"""
from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, combinations, islice
from math import comb
from typing import TYPE_CHECKING, NamedTuple

from . import gf2
from .errors import BudgetExceeded, DomainError, LongHopError
from .graph import GeneratorSet, check_dim, distance_profile
from .walsh import fwht, fwht_lanes

if TYPE_CHECKING:
    import numpy as np


def eigenvalues(gens: GeneratorSet) -> np.ndarray:
    """All n adjacency eigenvalues, indexed by Walsh index k."""
    import numpy as np

    indicator = np.zeros(gens.n, dtype=np.int32)
    indicator[np.fromiter(gens.hops, np.int64, count=gens.m)] = 1
    return fwht(indicator)


# Walsh indices k = hi 2^L + lo go out in blocks of 2^L, L =
# min(d, _CUT_BITS): a 64-hop chunk's table of 2^L codeword words, the
# scratch words and the counts (512 KB, 512 KB and 128 KB at L = 16)
# stay in L2, and the scan needs O(2^L) bytes a chunk whatever n is.
# L = 16 scanned b3(24) in 15 ms and a random 256-hop d = 24 set in
# 70 ms; L = 18, whose tables spill out of a 2 MB L2, took 28 and 95 ms
# (2 cores, numpy 2.4).
_CUT_BITS = 16


def cut_blocks(gens: GeneratorSet) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, counts) in k order: counts[i] = C_{start + i}, the
    hops with odd overlap against start + i, as an integer array.

    C_k is the weight of codeword k.  For each chunk of 64 hops, with the
    chunk's d rows as uint64 words, codeword k = hi 2^L + lo is W[lo]
    XOR c[hi], where W = gf2.subset_xors of the low L rows (built once)
    and c[hi] the XOR of the high rows that hi selects; so a block costs
    one XOR, one bitwise_count and one add per chunk and entry.  The FWHT
    costs n operations per dimension instead, so it takes over once the
    hops fill more than d words: the eigenvalues, turned in place into
    (m - lambda) / 2, are one block of n.
    """
    import numpy as np

    d, m, n = gens.d, gens.m, gens.n
    if -(-m // 64) > d:
        counts = eigenvalues(gens)
        np.subtract(m, counts, out=counts)
        if np.bitwise_or.reduce(counts) & 1:
            raise LongHopError("spectrum parity broke; fwht is miscounting")
        yield 0, np.right_shift(counts, 1, out=counts)
        return
    low = min(d, _CUT_BITS)
    chunks = [
        np.array(gf2.transpose(gens.hops[a : a + 64], d), dtype=np.uint64)
        for a in range(0, m, 64)
    ]
    lows = [gf2.subset_xors(rows[:low]) for rows in chunks]
    highs = [gf2.subset_xors(rows[low:]) for rows in chunks]
    word = np.empty(1 << low, dtype=np.uint64)
    weight = np.empty(1 << low, dtype=np.uint8)
    for hi in range(n >> low):
        # m <= 64 d <= 1536, so a count fits in uint16.
        counts = np.zeros(1 << low, dtype=np.uint16)
        for table, high in zip(lows, highs):
            np.bitwise_xor(table, high[hi], out=word)
            counts += np.bitwise_count(word, out=weight)
        yield hi << low, counts


def cut_counts(gens: GeneratorSet) -> np.ndarray:
    """C_k for every k, as int32: the blocks of cut_blocks, joined.

    C_k * n/2 is the link count across the Walsh-k bisection."""
    import numpy as np

    return np.concatenate([counts for _, counts in cut_blocks(gens)], dtype=np.int32)


class BisectionReport(NamedTuple):
    """Exact bisection: b per node pair and the smallest Walsh index t
    that reaches it."""

    d: int
    b: int
    t: int

    @property
    def n(self) -> int:
        return 1 << self.d

    @property
    def B(self) -> int:
        """Total links across the optimal bisection, b * n/2."""
        return self.b * (self.n // 2)


# Codewords the low-weight enumeration may visit per element of the
# n * ceil(m/64) blocked pass that `cut_blocks` would run instead, plus
# 2^26 elements for the numpy import that pass pays on a cold start
# (0.09-0.1 s, about as long as a 2^26-element pass); below the lane
# bound, where `fwht_lanes` imports nothing, the 2^26 is scaled by
# d n / _LANES_WORK.  One enumerated codeword (an XOR of tagged Python
# ints, a mask and a bit_count) measured 0.15-0.27 us on random sets with
# d = 16..24 and m = 64..128, against 0.9-1.1 ns for one element of the
# blocked pass at d = 20..24 (2 cores, Python 3.11, numpy 2.4), so 1/256
# keeps the enumeration within about the time of its fallback: 2^18
# codewords (0.05 s, 12 MB) or more above d = 17, about 65,000 at
# d = 16, where record (16,38) needs 9,400.  A random 256-hop d = 24 set
# gives up after 2^19 codewords at 44 MB RSS end to end.
_ENUM_BUDGET = 1 / 256

# The largest d * n that goes to `fwht_lanes` (d stages over 4n bytes),
# not `cut_blocks`: on hd(d, n/2), d = 16..19, the lanes added 15, 33,
# 75, 156 ms to a cold process that loads the hops, importing numpy and
# `eigenvalues` 68, 70, 72, 80 ms (os.wait4 medians, 2 cores, numpy 2.4).
_LANES_WORK = 1 << 22


def _levels(rows: list[int]):
    """The tagged codewords of the information vectors of weight
    w = 1, 2, ..., d, one level per next().  A level is kept in groups
    by the vector's top bit, so level w is level w - 1 with rows[i] added
    to each vector whose top bit is below i: one XOR per codeword, which
    moves its Walsh index in the tag with it."""
    groups = [[0]]
    for _ in rows:
        groups = [[]] + [
            [x ^ r for x in chain.from_iterable(groups[:i + 1])]
            for i, r in enumerate(rows)
        ]
        yield chain.from_iterable(groups)


def _low_weight(gens: GeneratorSet, budget: float) -> tuple[int, int] | None:
    """(b, t) by the Brouwer-Zimmermann enumeration, or None once the
    next level would take it past `budget` codewords.

    With k disjoint information sets, round w visits level w of each set
    in turn.  Each set's pivots carry its information vector, so before
    level w of set j every codeword not yet met weighs at least
    j (w + 1) + (k - j) w = k w + j.  Once that bound passes the
    lightest weight b met, strictly, every codeword of weight b has been
    met, so t, the smallest of their Walsh indices, is the first minimum
    of the full spectrum.  The levels of one set visit every codeword, so
    where that costs no more than the first two rounds over every set,
    the other sets are never built.  The sets reduce the codeword rows
    of the Walsh units, gf2.transpose(gens.hops, d), so a reduced row's
    tag is its index.
    """
    d, m = gens.d, gens.m
    mask = (1 << m) - 1
    sets = gf2.information_sets(gf2.transpose(gens.hops, d), m)
    levels = [_levels(next(sets))]
    # At most m // d disjoint sets exist.  When the first set's levels,
    # all 2^d - 1 codewords, cost no more than rounds 1 and 2 over that
    # many sets, the other sets are not built: a small code is visited
    # once, by one set.
    if (1 << d) - 1 > m // d * (d + comb(d, 2)):
        levels += map(_levels, sets)
    k = len(levels)
    spent, best, t = 0, m + 1, 0
    for w in range(1, d + 1):
        for j, level in enumerate(levels):
            if k * w + j > best:
                return best, t
            spent += comb(d, w)
            if spent > budget:
                return None
            words = list(next(level))
            weights = [(x & mask).bit_count() for x in words]
            low = min(weights)
            if low <= best:
                first = min(x >> m for x, y in zip(words, weights) if y == low)
                best, t = (low, first) if low < best else (best, min(t, first))
    return best, t


def bisection_fwht(gens: GeneratorSet) -> BisectionReport:
    """Exact bisection b and its smallest Walsh index t.

    Three engines give the same (b, t).  When m <= 64 d, codewords are
    enumerated over k disjoint information sets (`_low_weight`), about
    k sum_{j <= b/k} C(d, j) of them, whatever n is, without numpy.
    Sets with m > 64 d, and enumerations that would pass their budget,
    take the first minimum over k >= 1 of `fwht_lanes` (no numpy) while
    d n <= _LANES_WORK, and else of the blocks of `cut_blocks`.
    """
    d, m, n = gens.d, gens.m, gens.n
    words, packed = -(-m // 64), d * n <= _LANES_WORK
    load = d * n / _LANES_WORK if packed else 1
    budget = _ENUM_BUDGET * (n * words + load * (1 << 26))
    found = _low_weight(gens, budget) if words <= d else None
    if found is not None:
        b, t = found
    elif packed:
        # The first largest lambda_k over k >= 1 is the first minimum.
        lanes = fwht_lanes(gens.hops, d)
        top = max(islice(lanes, 1, None))
        b, t = (m + n - top) // 2, lanes.index(top, 1)
    else:
        b, t = m + 1, 0
        for start, counts in cut_blocks(gens):
            # k = 0 cuts nothing; a strict < keeps the first minimum.
            skip = 1 if start == 0 else 0
            i = int(counts[skip:].argmin()) + skip
            if counts[i] < b:
                b, t = int(counts[i]), start + i
    if b == 0:
        raise LongHopError(
            "spanning hops gave a zero cut count; the spectrum is miscounting"
        )
    return BisectionReport(d=gens.d, b=b, t=t)


# n = 32 would mean C(31, 15), about 3e8 balanced partitions.
BRUTE_FORCE_MAX_NODES = 16


def brute_force_bisection(gens: GeneratorSet) -> tuple[int, int]:
    """Minimum cut over every balanced partition, by sheer enumeration.

    Independent of all Walsh machinery, so it can referee the
    transform.  Only sensible for tiny graphs; refuses n > BRUTE_FORCE_MAX_NODES.
    Returns (B, side): bit v of side is set when node v is on the side
    of node 0 in the first optimum, in lexicographic order of that side.
    """
    n = gens.n
    if n > BRUTE_FORCE_MAX_NODES:
        raise DomainError(f"brute force caps n at {BRUTE_FORCE_MAX_NODES}, got n={n}")
    best_cut, best_side = None, None
    for extra in combinations(range(1, n), n // 2 - 1):
        side = frozenset((0, *extra))
        cut = sum(v ^ h not in side for v in side for h in gens.hops)
        if best_cut is None or cut < best_cut:
            best_cut, best_side = cut, side
    return best_cut, sum(1 << v for v in best_side)


# m-subsets scored per block in optimize_direct: a block's subset-by-k
# table of AND-ed words is at most 4096 x 63 uint64, about 2 MB.
_DIRECT_BLOCK = 4096


def optimize_direct(d: int, m: int, budget: int = 100_000):
    """Exhaustively search all m-subsets of Z_2^d \\ {0} for the best b.

    Ties go to the smaller diameter, then to the lexicographically
    first hop list.  Returns (GeneratorSet, BisectionReport).  Only
    feasible for toy sizes; refuses n > 64 or more candidates than the
    budget allows.

    With n <= 64 each subset is a 64-bit mask over the n - 1 nonzero
    words (bit s for hop s + 1), and P_k marks the words that Walsh
    index k overlaps oddly (codeword k of the full word list).  Then
    C_k = popcount(mask & P_k), so b = min over k != 0 of
    popcount(mask & P_k): subsets are scored _DIRECT_BLOCK at a time as
    one table of popcounts.  Only the subsets with the largest b get a
    BFS, in lexicographic order, and the search stops at the first
    whose diameter meets the counting bound: no m hops reach more than
    sum_{j <= r} C(m, j) nodes within r steps, so no diameter is below
    the smallest r at which that sum reaches n.
    """
    import numpy as np

    check_dim(d)
    n = 1 << d
    if n > 64:
        raise DomainError("exhaustive search is capped at n=64")
    if not d <= m <= n - 1:
        raise DomainError(f"m must be in [{d}, {n - 1}] for d={d}")
    total = comb(n - 1, m)
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidate sets exceed the budget of {budget}"
        )
    rows = np.array(gf2.transpose(range(1, n), d), dtype=np.uint64)
    odd = gf2.subset_xors(rows)[1:]
    subsets = combinations(range(n - 1), m)
    best_b, survivors = 0, []
    while block := list(islice(subsets, _DIRECT_BLOCK)):
        bits = np.uint64(1) << np.array(block, dtype=np.uint64)
        masks = np.bitwise_or.reduce(bits, axis=1)
        b = np.bitwise_count(masks[:, None] & odd).min(axis=1)
        top = int(b.max())
        if top > best_b:
            best_b, survivors = top, []
        if top == best_b > 0:
            survivors.append(masks[b == top])
    low_diam = next(
        r for r in range(m + 1) if sum(comb(m, j) for j in range(r + 1)) >= n
    )
    best = None
    for mask in np.concatenate(survivors).tolist():
        cand = GeneratorSet(d, tuple(s + 1 for s in range(n - 1) if mask >> s & 1))
        diam = distance_profile(cand).diameter
        if best is None or diam < best[0]:
            best = (diam, cand)
            if diam == low_diam:
                break
    return best[1], bisection_fwht(best[1])
