"""Closed-form hop-set constructions and a greedy secondary optimizer."""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import gf2
from .bisection import bisection_fwht, cut_counts
from .errors import DomainError, LongHopError
from .graph import GeneratorSet, check_dim, distance_profile
from .walsh import MAX_DIM


def hypercube(d: int) -> GeneratorSet:
    """The d-cube: one hop per address bit."""
    return GeneratorSet(d, tuple(1 << i for i in range(d)))


def folded_cube(d: int) -> GeneratorSet:
    """The d-cube plus the all-ones diagonal hop; doubles b to 2."""
    n = 1 << d
    return GeneratorSet(d, tuple(1 << i for i in range(d)) + (n - 1,))


def mesh(d: int) -> GeneratorSet:
    """Full mesh: every nonzero word is a hop."""
    if not 1 <= d <= 14:
        raise DomainError(f"a full mesh covers d in [1, 14], got {d}")
    return GeneratorSet(d, tuple(range(1, 1 << d)))


def hd_ladder(d: int) -> tuple[int, ...]:
    """Valid hop counts for half-distance sets: n - n/2^j for j = 1..d."""
    check_dim(d)
    n = 1 << d
    return tuple(sorted({n - (n >> j) for j in range(1, d + 1)}))


def lh_hd(d: int, m: int) -> GeneratorSet:
    """Half-distance construction: the m largest words as hops.

    Every node reaches at least half the network in one hop, so the
    diameter is 2 (1 for the full mesh rung m = n-1) and the bisection
    grows with m as b = floor((m+1)/2).
    """
    ladder = hd_ladder(d)
    if m not in ladder:
        raise DomainError(
            f"m={m} is not on the d={d} ladder {list(ladder)}"
        )
    n = 1 << d
    return GeneratorSet(d, tuple(range(n - 1, n - m - 1, -1)))


def hd_metrics(d: int, m: int) -> tuple[int, int, Fraction]:
    """Closed-form (b, diameter, average distance) for lh_hd(d, m).

    The average counts all n nodes including the origin: m neighbors at
    distance 1 and the remaining n-1-m nodes at distance 2 give
    (2n - 2 - m) / n, i.e. 2 - (m+2)/n.
    """
    if m not in hd_ladder(d):
        raise DomainError(f"m={m} is not on the d={d} ladder")
    n = 1 << d
    b = (m + 1) // 2
    diameter = 1 if m == n - 1 else 2
    return b, diameter, Fraction(2 * n - 2 - m, n)


def lh_hd_reduced(gens: GeneratorSet, r: int) -> GeneratorSet:
    """Drop the last r hops (r = 1 or 2) from an unreduced lh_hd set.

    Removing one hop always lowers b by exactly 1.  Removing two lowers
    it by 2 on every ladder rung except m = n-2, where the two smallest
    hops are exactly what separates that rung from the m = n-4 rung, so
    b drops by only 1 there.
    """
    if r not in (1, 2):
        raise DomainError("r must be 1 or 2")
    d, m = gens.d, gens.m
    n = 1 << d
    if m not in hd_ladder(d) or gens.hops != tuple(range(n - 1, n - m - 1, -1)):
        raise DomainError("expects an unreduced lh_hd generator set")
    return GeneratorSet(d, gens.hops[: m - r])


def b3_overhead(d: int) -> int:
    """Smallest L with 2^L - L - 1 >= d: extra hops needed for b = 3."""
    if d < 1:
        raise DomainError("dimension must be positive")
    L = 1
    while (1 << L) - L - 1 < d:
        L += 1
    return L


def b3_default_columns(d: int) -> tuple[int, ...]:
    """Default check patterns: the smallest workable weight>=2 words.

    Prefers the d smallest patterns in increasing integer order, moving
    to the next combination when an assignment would collapse to an
    augmentation hop of weight < 2 or to duplicate hops (which happens
    for example at d=5, where the naive smallest choice emits hop 1
    twice).
    """
    L = b3_overhead(d)
    pool = [c for c in range(1 << L) if c.bit_count() >= 2]
    for cols in combinations(pool, d):
        rows = gf2.transpose(cols[::-1], L)[::-1]
        if len(set(rows)) == L and all(r.bit_count() >= 2 for r in rows):
            return cols
    raise DomainError(f"no valid default column assignment exists for d={d}")


def low_density_b3(d: int, columns: tuple[int, ...] | None = None) -> GeneratorSet:
    """b = 3 with only L extra hops beyond the d cube hops.

    Tags address bit mu with the L-bit check pattern columns[d-1-mu];
    augmentation hop j collects bit L-1-j of every tag.  Patterns must
    be distinct with weight >= 2, and so must the resulting hops, which
    makes every nonzero combination of hops at least 3 wide.
    """
    if not 3 <= d <= MAX_DIM:
        raise DomainError(f"low-density construction covers d in [3, {MAX_DIM}]")
    L = b3_overhead(d)
    if columns is None:
        columns = b3_default_columns(d)
    columns = tuple(int(c) for c in columns)
    if len(columns) != d:
        raise DomainError(f"need {d} column patterns, got {len(columns)}")
    if len(set(columns)) != d:
        raise DomainError("column patterns must be distinct")
    for c in columns:
        if not 0 <= c < 1 << L:
            raise DomainError(f"pattern {c:#x} wider than L={L} bits")
        if c.bit_count() < 2:
            raise DomainError(f"pattern {c:#x} needs weight >= 2")
    rows = gf2.transpose(columns[::-1], L)[::-1]
    if len(set(rows)) != L or any(r.bit_count() < 2 for r in rows):
        raise DomainError("column assignment yields an invalid augmentation hop")
    hops = tuple(1 << i for i in range(d)) + tuple(rows)
    return GeneratorSet(d, hops)


def augment_odd_b(gens: GeneratorSet) -> GeneratorSet:
    """Append the XOR of all hops, lifting an odd bisection b to b + 1.

    After the append the hop XOR is zero, which forces every Walsh cut
    count even; cuts only grow, so the old odd minimum lands on b + 1
    exactly.  Even-b sets are rejected.  A zero XOR cannot occur here:
    it would force every cut even, contradicting odd b, so only the
    (rare) case of the XOR already being a hop needs a real error.
    """
    b = bisection_fwht(gens).b
    if b % 2 == 0:
        raise DomainError(f"b={b} is even; augmentation would not raise it")
    x = gens.xor_all()
    if x == 0:
        raise LongHopError("odd b with zero hop XOR contradicts the parity identity")
    if x in gens.hops:
        raise DomainError(f"hop XOR {x:#x} is already in the set")
    return GeneratorSet(gens.d, gens.hops + (x,))


def optimize_secondary(
    gens: GeneratorSet,
    objective: str = "diameter",
    depth: int = 1,
    budget: int = 2000,
) -> GeneratorSet:
    """Local search on secondary metrics by swapping hops in and out.

    Never lets b fall below the b of `gens`.  `objective` is
    "diameter" (diameter first, then the count of nodes sitting at the
    diameter) or "avg_hops" (total distance).  Each step tries
    replacing up to `depth` hops (1 or 2) and takes the best strict
    improvement in lexicographic candidate order; stops at a local
    optimum or when `budget` runs out.  A candidate's b costs one unit
    of budget and its objective one more; a candidate that does not
    span (b = 0) is skipped free of charge.  A hill climber, not an
    exact optimizer.
    """
    if objective not in ("diameter", "avg_hops"):
        raise DomainError(f"unknown objective {objective!r}")
    if depth not in (1, 2):
        raise DomainError("depth must be 1 or 2")
    if not gens.spans():
        raise DomainError("secondary optimization needs a connected graph")

    def key(g: GeneratorSet):
        prof = distance_profile(g)
        if objective == "diameter":
            return (prof.diameter, prof.far_count)
        return (prof.total,)

    def candidates(hops: tuple[int, ...]):
        n = gens.n
        used = set(hops)
        free = [v for v in range(1, n) if v not in used]
        for i in range(len(hops)):
            for v in free:
                cand = list(hops)
                cand[i] = v
                yield tuple(cand)
        if depth == 2:
            for i, j in combinations(range(len(hops)), 2):
                for v, w in combinations(free, 2):
                    for a, b in ((v, w), (w, v)):
                        cand = list(hops)
                        cand[i], cand[j] = a, b
                        yield tuple(cand)

    floor_b = bisection_fwht(gens).b
    current = gens
    current_key = key(current)
    while budget > 0:
        step = None
        for hops in candidates(current.hops):
            if budget <= 0:
                break
            cand = GeneratorSet(gens.d, hops)
            # b is 0 exactly when the hops do not span.
            b = int(cut_counts(cand)[1:].min())
            if b == 0:
                continue
            budget -= 1
            if b < floor_b:
                continue
            budget -= 1
            k = key(cand)
            if k < current_key and (step is None or k < step[0]):
                step = (k, cand)
        if step is None:
            break
        current_key, current = step
    return current
