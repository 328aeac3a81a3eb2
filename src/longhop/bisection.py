"""Exact bisection bandwidth of hop graphs via the Walsh spectrum.

The adjacency eigenvalues of a Cayley graph on Z_2^d are the Walsh
transform of the hop indicator vector, and every Walsh function with a
nonzero index splits the node set into two equal halves.  Such a split
cuts C_k = (m - lambda_k) / 2 links per node pair, i.e. C_k * n/2 links
in total, and no balanced split does better, so scanning the spectrum
yields the exact bisection.

C_k is also the Hamming weight of codeword k of the hop set's code
(bit s of codeword k is the parity of k & hop s), which is why b is the
code's minimum distance.  `cut_counts` uses that view whenever the
hops fit in at most d 64-bit words (m <= 64 d): it builds all n
codewords by doubling and counts their bits, peaking near 11 bytes per
node.  Wider sets, such as the half-distance rungs with m in the
thousands, take one FWHT of the hop indicator instead (24 bytes per
node).  An enumeration oracle for tiny n keeps both honest.

`bisection_fwht` needs only the minimum, so when m <= 64 d it first runs
the Brouwer-Zimmermann minimum-distance algorithm (`_low_weight`;
Zimmermann 1996, Grassl 2006) on Python ints: k disjoint information
sets, each a set of d hops whose d x d submatrix is invertible, and in
rounds w = 1, 2, ... every codeword whose information vector in a set
has weight w.  A codeword not yet met then weighs at least k w plus the
sets already done this round, so the enumeration stops once that bound
passes the lightest codeword met: about k sum_{j <= b/k} C(d, j)
codewords, some 70 bytes each, and not much over the 2^d the code holds
when k is large.  It falls back to the full `cut_counts` spectrum when
the next level would pass the budget `_ENUM_BUDGET` sets, and goes
straight there when m > 64 d.  numpy is imported by the functions that
build arrays of n entries, so an enumeration that finishes never loads
it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb
from typing import TYPE_CHECKING

from . import gf2
from .errors import BudgetExceeded, DomainError, LongHopError
from .graph import GeneratorSet, check_dim, distance_profile
from .walsh import fwht

if TYPE_CHECKING:
    import numpy as np


def eigenvalues(gens: GeneratorSet) -> np.ndarray:
    """All n adjacency eigenvalues, indexed by Walsh index k."""
    import numpy as np

    indicator = np.zeros(gens.n, dtype=np.int64)
    indicator[list(gens.hops)] = 1
    return fwht(indicator)


def cut_counts(gens: GeneratorSet) -> np.ndarray:
    """C_k for every k: hops with odd overlap against k.

    C_k * n/2 is the link count across the Walsh-k bisection.  It is the
    weight of codeword k, built for 64 hops at a time by doubling:
    codeword k + 2^i is codeword k XOR row i, so n word operations per
    64 hops.  The FWHT costs n operations per dimension instead, so it
    takes over once the hops fill more than d words.
    """
    import numpy as np

    d, m, n = gens.d, gens.m, gens.n
    if -(-m // 64) > d:
        diff = m - eigenvalues(gens)
        if (diff & 1).any():
            raise LongHopError("spectrum parity broke; fwht is miscounting")
        return diff >> 1
    # m <= 64 d <= 1536, so the per-k total fits in uint16.
    counts = np.zeros(n, dtype=np.uint16)
    words = np.empty(n, dtype=np.uint64)
    words[0] = 0
    for lo in range(0, m, 64):
        for i, row in enumerate(gf2.transpose(gens.hops[lo:lo + 64], d)):
            h = 1 << i
            np.bitwise_xor(words[:h], np.uint64(row), out=words[h:2 * h])
        counts += np.bitwise_count(words)
    del words  # before the int64 copy, so the peak stays near 11 bytes per node
    return counts.astype(np.int64)


@dataclass(frozen=True)
class BisectionReport:
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
# n * ceil(m/64) word pass that `cut_counts` would run instead, plus
# 2^25 elements for the numpy import that pass also pays on a cold
# start (0.17 s, as long as a 2^25-element pass).  One enumerated
# codeword (two XORs of Python ints and a bit_count) measured 0.24-0.32
# us, against 2.6-7.4 ns for one element of that pass at d = 16..24
# (2 cores, Python 3.11, numpy 2.4), hence 1/64: at least 2^19
# codewords (0.15 s, about 35 MB) on any set, where record (16,38)
# needs 9,400, b3(24) 2,324 and no other seeded record more than 664.
_ENUM_BUDGET = 1 / 64


def _information_sets(gens: GeneratorSet):
    """Yield disjoint information sets, one at a time, each as (rows,
    combos): rows[i] is the codeword that reads 1 on the set's i'th pivot
    hop and 0 on its other pivots, and combos[i] is its Walsh index.

    gf2.row_reduce on the d codeword rows of the Walsh units; each set
    takes its pivots from hops no earlier set used, and the first set
    that runs out of such hops ends them.  The hops span, so there is
    always one set.  Each costs d^2 XORs of m-bit ints."""
    d = gens.d
    found = (gf2.transpose(gens.hops, d), [1 << i for i in range(d)], (1 << gens.m) - 1)
    while (found := gf2.row_reduce(*found)) is not None:
        yield found[:2]


def _levels(rows: list[int], combos: list[int]):
    """(codewords, Walsh indices) of the information vectors of weight
    w = 1, 2, ..., d, one level per next().  A level is kept in groups
    by the vector's top bit, so level w is level w - 1 with rows[i] added
    to each vector whose top bit is below i: one XOR per codeword and one
    per index."""
    words, index = [[0]], [[0]]
    for _ in rows:
        words = [[]] + [
            [x ^ r for x in chain.from_iterable(words[:i + 1])]
            for i, r in enumerate(rows)
        ]
        index = [[]] + [
            [x ^ a for x in chain.from_iterable(index[:i + 1])]
            for i, a in enumerate(combos)
        ]
        yield chain.from_iterable(words), chain.from_iterable(index)


def _low_weight(gens: GeneratorSet) -> tuple[int, int] | None:
    """(b, t) by the Brouwer-Zimmermann enumeration, or None once the
    next level would take it past its budget.

    With k disjoint information sets, round w visits level w of each set
    in turn.  Each set's pivots carry its information vector, so before
    level w of set j every codeword not yet met weighs at least
    j (w + 1) + (k - j) w = k w + j.  Once that bound passes the
    lightest weight b met, strictly, every codeword of weight b has been
    met, so t, the smallest of their Walsh indices, is the first minimum
    of the full spectrum.  The levels of one set visit every codeword, so
    where that costs no more than the first two rounds over every set,
    the other sets are never built.  The budget caps the codewords
    visited at _ENUM_BUDGET (n ceil(m/64) + 2^25).
    """
    d, m = gens.d, gens.m
    sets = _information_sets(gens)
    levels = [_levels(*next(sets))]
    # At most m // d disjoint sets exist.  When the first set's levels,
    # all 2^d - 1 codewords, cost no more than rounds 1 and 2 over that
    # many sets, the other sets are not built: a small code is visited
    # once, by one set.
    if (1 << d) - 1 > m // d * (d + comb(d, 2)):
        levels += (_levels(*pair) for pair in sets)
    k = len(levels)
    # The fallback imports numpy too, as long as a 2^25-element word pass.
    budget = _ENUM_BUDGET * (gens.n * -(-m // 64) + (1 << 25))
    spent, best, t = 0, m + 1, 0
    for w in range(1, d + 1):
        for j, level in enumerate(levels):
            if k * w + j > best:
                return best, t
            spent += comb(d, w)
            if spent > budget:
                return None
            words, index = next(level)
            weights = list(map(int.bit_count, words))
            low = min(weights)
            if low <= best:
                first = min(i for x, i in zip(weights, index) if x == low)
                best, t = (low, first) if low < best else (best, min(t, first))
    return best, t


def bisection_fwht(gens: GeneratorSet) -> BisectionReport:
    """Exact bisection b and its smallest Walsh index t.

    Two engines give the same (b, t).  When m <= 64 d, codewords are
    enumerated over k disjoint information sets (`_low_weight`), about
    k sum_{j <= b/k} C(d, j) of them, whatever n is, without numpy.
    Sets with m > 64 d, and enumerations whose next level would pass
    their budget, scan the full spectrum from `cut_counts` instead and
    take its first minimum over k >= 1.
    """
    if -(-gens.m // 64) <= gens.d:
        found = _low_weight(gens)
        if found is not None:
            b, t = found
            return BisectionReport(d=gens.d, b=b, t=t)
    counts = cut_counts(gens)
    t = int(counts[1:].argmin()) + 1
    b = int(counts[t])
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
    best_cut = None
    best_side = None
    for extra in combinations(range(1, n), n // 2 - 1):
        side = frozenset((0, *extra))
        cut = 0
        for v in side:
            for h in gens.hops:
                if v ^ h not in side:
                    cut += 1
        if best_cut is None or cut < best_cut:
            best_cut = cut
            best_side = side
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
    rows = gf2.transpose(range(1, n), d)
    odd = np.array([gf2.apply(rows, k) for k in range(1, n)], dtype=np.uint64)
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
