"""The distance profile without numpy, for graph.distance_profile up to
graph._PROFILE_INTS nodes: each node set is one Python int of n bits."""
from . import gf2
from .errors import LongHopError
from .graph import DistanceProfile, GeneratorSet


def profile_ints(gens: GeneratorSet) -> DistanceProfile:
    """Level 1 is the hop set, and level i + 1 the unseen nodes among
    frontier ^ h over the hops h of _systematic_ints.  After the units a
    level walks the shorter side, as the numpy BFS does: the other hops
    in _gray_chain's order, or, once fewer than (m - d) / d nodes are
    left, each of them, v, reached if frontier ^ v meets the hop set.  A
    walk stops once all are reached; the m = n/2 rungs stop at the units."""
    n, d = gens.n, gens.d
    hops = _systematic_ints(gens)
    # frontier ^ 2^j by (mask, 2^j): the mask marks the positions whose bit j is clear.
    swaps = [(int(("0" * (1 << j) + "1" * (1 << j)) * (n >> j + 1), 2), 1 << j) for j in range(d)]
    bits = bytearray(b"0") * n
    for h in hops:
        bits[h] = ord("1")
    frontier = hop_set = int(bits[::-1], 2)
    unseen = ((1 << n) - 2) ^ frontier
    counts, chain = [1, len(hops)], None
    while unseen:
        left = unseen
        for mask, s in swaps:
            left ^= left & ((frontier & mask) << s | (frontier >> s) & mask)
            if not left:
                break
        else:
            if left.bit_count() * d < len(hops) - d:
                rest = left
                while rest:
                    rest ^= 1 << (v := rest.bit_length() - 1)
                    image = frontier
                    for mask, s in swaps:
                        if v & s:
                            image = (image & mask) << s | (image >> s) & mask
                    if image & hop_set:
                        left ^= 1 << v
            else:
                image = frontier
                for step in chain or (chain := _gray_chain(hops, swaps)):
                    for mask, s in step:
                        image = (image & mask) << s | (image >> s) & mask
                    left ^= left & image
                    if not left:
                        break
        if not (level := unseen ^ left):
            reached = n - unseen.bit_count()
            raise LongHopError(f"BFS reached {reached} of {n} nodes over spanning hops")
        counts.append(level.bit_count())
        frontier, unseen = level, left
    return DistanceProfile(tuple(counts))


def _gray_chain(hops: list[int], swaps: list[tuple[int, int]]) -> list[list]:
    """The hops that are not units in Gray-code rank order (rank r has the
    code r ^ r >> 1), as the swaps from the image of the one before each."""
    ranks = [h for h in hops if h & (h - 1)]
    for s in (1, 2, 4, 8, 16)[: (len(swaps) - 1).bit_length()]:
        ranks = [r ^ r >> s for r in ranks]
    gray = [r ^ r >> 1 for r in sorted(ranks)]
    diffs = [a ^ b for a, b in zip([0, *gray], gray)]
    steps = {x: [swap for swap in swaps if x & swap[1]] for x in set(diffs)}
    return [steps[x] for x in diffs]


def _systematic_ints(gens: GeneratorSet) -> list[int]:
    """graph._systematic_hops as Python ints: the map applied one byte of
    each hop at a time through 256-entry tables of XORs built in Python."""
    rows = next(gf2.information_sets(gf2.transpose(gens.hops, gens.d), gens.m))
    images = gf2.transpose([r >> gens.m for r in rows], gens.d)
    out = [0] * gens.m
    for j in range(0, gens.d, 8):
        table = [0]
        for a in images[j : j + 8]:
            table += [t ^ a for t in table]
        out = [o ^ table[h >> j & 255] for o, h in zip(out, gens.hops)]
    return out
