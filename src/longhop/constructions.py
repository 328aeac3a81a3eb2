"""Closed-form hop-set constructions and a greedy secondary optimizer."""
from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING

from . import gf2
from .bisection import bisection_fwht, cut_counts
from .errors import DomainError, LongHopError
from .graph import GeneratorSet, check_dim, integers
from .walsh import MAX_DIM, fwht

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np


def hypercube(d: int) -> GeneratorSet:
    """The d-cube: one hop per address bit."""
    return GeneratorSet(d, tuple(1 << i for i in range(d)))


def folded_cube(d: int) -> GeneratorSet:
    """The d-cube plus the all-ones diagonal hop; doubles b to 2."""
    check_dim(d)
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
    from fractions import Fraction

    if m not in hd_ladder(d):
        raise DomainError(f"m={m} is not on the d={d} ladder")
    n = 1 << d
    b = (m + 1) // 2
    diameter = 1 if m == n - 1 else 2
    return b, diameter, Fraction(2 * n - 2 - m, n)


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
    (d,) = integers([d], "dimension")
    if not 3 <= d <= MAX_DIM:
        raise DomainError(f"low-density construction covers d in [3, {MAX_DIM}]")
    L = b3_overhead(d)
    if columns is None:
        columns = b3_default_columns(d)
    columns = integers(columns, "column patterns")
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


# Distance of a node the hops do not reach.  One below the uint8 top, so
# adding a hop (+1) cannot wrap; real distances never exceed d <= 24.
_UNREACHED = 254
# Candidate distance rows scored per block: at most this many uint8
# entries (each gathered through an int32 index), about 0.5 MB a block.
_KEY_BLOCK = 1 << 16


def _with_hop(dist: np.ndarray, nodes: np.ndarray, h) -> np.ndarray:
    """Per-node distances once hop h joins: min(dist[x], 1 + dist[x ^ h]).

    Exact because a shortest walk uses each hop at most once (twice
    cancels).  A column of hops gives one row of distances per hop."""
    import numpy as np

    return np.minimum(dist, np.take(dist, nodes ^ h) + 1)


def _distances(hops, nodes: np.ndarray) -> np.ndarray:
    """uint8 distance from node 0 to every node over `hops`, _UNREACHED
    where they do not reach: the empty set's, one hop added at a time."""
    import numpy as np

    dist = np.full(nodes.size, _UNREACHED, dtype=np.uint8)
    dist[0] = 0
    for h in hops:
        dist = _with_hop(dist, nodes, h)
    return dist


def _scores(rows: np.ndarray, objective: str) -> np.ndarray:
    """The search key of each row of per-node distances as one int64:
    diameter * (n + 1) + far_count, or the total distance."""
    import numpy as np

    if objective == "avg_hops":
        return rows.sum(axis=1, dtype=np.int64)
    diameter = rows.max(axis=1)
    far = np.count_nonzero(rows == diameter[:, None], axis=1)
    return diameter.astype(np.int64) * (rows.shape[1] + 1) + far


def _lifted(base: np.ndarray) -> tuple[int, np.ndarray]:
    """(b0, lifted): b0 = min over k != 0 of base_k, and for every v
    whether min over k != 0 of base_k + parity(k & v) is b0 + 1.

    It is b0 + 1 exactly when v overlaps every minimizer k oddly, that
    is when the Walsh transform of the minimizers' indicator reads
    minus their count at v; otherwise it is b0."""
    b0 = int(base[1:].min())
    low = base == b0
    low[0] = False
    return b0, fwht(low.astype("i4")) == -int(low.sum())


def _first_best(
    dist: np.ndarray, nodes: np.ndarray, vs: np.ndarray, objective: str
) -> tuple[int, int]:
    """(key, v) for the first v in vs whose hop, added to the distances
    `dist`, gives the smallest key; _KEY_BLOCK distances per block."""
    rows = max(1, _KEY_BLOCK // nodes.size)
    best = None
    for a in range(0, vs.size, rows):
        keys = _scores(_with_hop(dist, nodes, vs[a:a + rows, None]), objective)
        i = int(keys.argmin())
        if best is None or keys[i] < best[0]:
            best = (int(keys[i]), int(vs[a + i]))
    return best


def _charge(cost: np.ndarray, budget: int) -> tuple[int, int]:
    """(candidates reached, budget left) when candidates costing `cost`
    are tried in order while budget is left.  The last try may overdraw
    it, as a key charged after its b can."""
    spent = cost.cumsum(dtype="i4")
    tried = int((spent - cost).searchsorted(budget))
    if tried:
        budget -= int(spent[tried - 1])
    return tried, budget


def optimize_secondary(
    gens: GeneratorSet, objective: str = "diameter", budget: int = 2000
) -> GeneratorSet:
    """Local search on secondary metrics by swapping one hop at a time.

    Never lets b fall below the b of `gens`.  `objective` is
    "diameter" (diameter first, then the count of nodes sitting at the
    diameter) or "avg_hops" (total distance).  Each step tries
    replacing each hop, in hop order, by each unused word in increasing
    order and takes the best strict improvement, the first one on ties;
    stops at a local optimum or when `budget` runs out.  A candidate's b
    costs one unit of budget and its objective one more; a candidate
    that does not span (b = 0) is skipped free of charge.  A hill
    climber, not an exact optimizer.

    Candidates are scored a neighbourhood at a time, through two
    identities of Cayley graphs over Z_2^d.  With C the cut counts of
    the current hops, replacing hop h by v gives C'_k = base_k +
    parity(k & v) for base = C - parity(k & h).  So with b0 the minimum
    of base over k != 0 and K0 the k that reach it, b(v) = b0 + 1 when
    FWHT(1_K0)[v] = -|K0| (v overlaps every k in K0 oddly) and b0
    otherwise: one transform gives b for every v, and b(v) = 0 marks the
    v that do not span.  For distances, a shortest walk uses each hop at
    most once, so with D_T the per-node distances of the hops T that
    stay, dist(T + v, x) = min(D_T[x], 1 + D_T[x ^ v]).  The cut counts
    are taken once per step, the transform once per position the budget
    reaches, and D_T, one hop at a time, once per position whose
    candidates get a key.
    """
    if objective not in ("diameter", "avg_hops"):
        raise DomainError(f"unknown objective {objective!r}")
    import numpy as np

    nodes = np.arange(gens.n, dtype=np.int32)

    def parity(h: int) -> np.ndarray:
        return np.bitwise_count(nodes & h) & 1

    floor_b = bisection_fwht(gens).b
    hops = gens.hops
    current_key = int(_scores(_distances(hops, nodes)[None], objective)[0])
    while budget > 0:
        step = None
        counts = cut_counts(GeneratorSet(gens.d, hops))
        unused = np.ones(gens.n, dtype=bool)
        unused[[0, *hops]] = False
        free = nodes[unused]
        for i, h in enumerate(hops):
            b0, lifted = _lifted(counts - parity(h))
            # Budget per candidate: one unit for b when it spans, one
            # more for its key when b holds the floor.
            cost = np.array(
                [(b > 0) + (b >= floor_b) for b in (b0, b0 + 1)], dtype=np.int8
            )[lifted[free].view(np.int8)]
            reached, budget = _charge(cost, budget)
            keyed = free[:reached][cost[:reached] == 2]
            if keyed.size:
                rest = hops[:i] + hops[i + 1:]
                k, v = _first_best(_distances(rest, nodes), nodes, keyed, objective)
                if k < current_key and (step is None or k < step[0]):
                    step = (k, hops[:i] + (v,) + hops[i + 1:])
            if budget <= 0:
                break
        if step is None:
            break
        current_key, hops = step
    return GeneratorSet(gens.d, hops)
