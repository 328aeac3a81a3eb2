"""The distance profile: a direction-optimizing BFS (Beamer, Asanovic and
Patterson, SC 2012) from node 0 that keeps only the size of each level,
in the basis where d hops are the units (_unit_images; a graph
isomorphism).  graph.distance_profile picks profile_ints, each node set
one Python int of n bits, up to graph._PROFILE_INTS nodes, and
profile_words, on numpy words, above; numpy loads only inside the latter.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from . import gf2
from .errors import LongHopError
from .graph import DistanceProfile, GeneratorSet

if TYPE_CHECKING:
    import numpy as np


def profile_ints(gens: GeneratorSet) -> DistanceProfile:
    """Level 1 is the hop set, and level i + 1 the unseen nodes among
    frontier ^ h over the hops h of _systematic_ints: the units first,
    then the other hops in _gray_chain's order.  A walk stops once all
    are reached; the m = n/2 rungs stop at the units."""
    n, d = gens.n, gens.d
    hops = _systematic_ints(gens)
    # frontier ^ 2^j by (mask, 2^j): the mask marks the positions whose bit j is clear.
    swaps = [(int(("0" * (1 << j) + "1" * (1 << j)) * (n >> j + 1), 2), 1 << j) for j in range(d)]
    bits = bytearray(b"0") * n
    for h in hops:
        bits[h] = ord("1")
    frontier = int(bits[::-1], 2)
    unseen = ((1 << n) - 2) ^ frontier
    counts, chain = [1, len(hops)], None
    while unseen:
        left = unseen
        for mask, s in swaps:
            left ^= left & ((frontier & mask) << s | (frontier >> s) & mask)
            if not left:
                break
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


def _unit_images(rows: list[int], d: int, m: int) -> list[int]:
    """The image of each unit under the map that sends d of the hops to the
    units, from the rows of the hops' bit matrix: the tags of the first of
    gf2.information_sets on them are the rows of the map's matrix.  Hops
    that start with the d units map to themselves."""
    return gf2.transpose([r >> m for r in next(gf2.information_sets(rows, m))], d)


def _systematic_ints(gens: GeneratorSet) -> list[int]:
    """The hops as Python ints under the map of _unit_images: the rows
    from gf2.transpose, and the map applied one byte of each hop at a
    time through 256-entry tables of XORs built in Python."""
    images = _unit_images(gf2.transpose(gens.hops, gens.d), gens.d, gens.m)
    out = [0] * gens.m
    for j in range(0, gens.d, 8):
        table = [0]
        for a in images[j : j + 8]:
            table += [t ^ a for t in table]
        out = [o ^ table[h >> j & 255] for o, h in zip(out, gens.hops)]
    return out


def _systematic_hops(gens: GeneratorSet) -> np.ndarray:
    """The hops as int64 under the map of _unit_images, equal to
    _systematic_ints: numpy builds the rows from byte planes and applies
    the map one byte of each hop at a time, through gf2.subset_xors
    tables."""
    import numpy as np

    d, m = gens.d, gens.m
    hops = np.fromiter(gens.hops, "<i8", count=m)
    planes = np.ascontiguousarray(hops.view("u1").reshape(m, 8)[:, : -(-d // 8)].T)
    rows = [
        int.from_bytes(
            np.packbits(planes[i >> 3] & 1 << (i & 7), bitorder="little").tobytes(),
            "little",
        )
        for i in range(d)
    ]
    images = _unit_images(rows, d, m)
    out = np.zeros_like(hops)
    for j in range(0, d, 8):
        table = gf2.subset_xors(np.array(images[j : j + 8]))
        out ^= table[hops >> j & 255]
    return out


# Costs of a level, in word operations of the dense step (0.6-0.9 ns
# each at d >= 20 when they were fitted; 0.35-0.4 ns since the unit
# hops run in blocks that stay in L2; 2 cores, Python 3.11, numpy 2.4).
# A dense level costs _dense_ops per word, plus _LEVEL_OPS (about 60 us)
# for the numpy calls it makes beyond a sparse level's.  A sparse level
# costs _SPARSE_COST per candidate v ^ h (20-30 ns to push, 8-20 ns to
# pull).  A level takes the sparse step when that costs no more.  The
# constants were fitted to both steps' times on every level of the 64
# seeded records and of b3, half-distance and random sets at d = 12..24;
# on the records and on such sets up to d = 22, the steps the rule picks
# take within 2 % of the faster step's time summed over the levels.
# With the blocked dense step and sparse steps that touch only their own
# words, they take 1.6 % more (records 0.3 %, b3 2.2 %, half-distance 0,
# random 1.7 %), so the constants stand.
_SPARSE_COST = 33
_LEVEL_OPS = 80_000
# A gathered hop costs _GATHER_COST word operations per word.
_GATHER_COST = 6
# Candidates per block of the sparse step (128 KB of indices and of
# results).
_GATHER = 1 << 14
# Words per block of the dense step: 256 KB of each of the frontier,
# the level, the unseen words and the scratch, so that a block's passes
# run in L2 (2 MB a core where measured).  Blocks of 2^14, 2^15 and 2^16 words
# gave `lh metrics` on b3(24) medians of 219, 212 and 208 ms over 24
# rounds, against 258 ms for passes over whole arrays; smaller blocks
# pay more per numpy call, larger ones spill a smaller L2.
_BLOCK = 1 << 15
# _SWAP_MASKS[j] marks the bits of a 64-bit word whose position has bit j
# clear; the swap built from it exchanges bits p and p ^ 2^j.
_SWAP_MASKS = tuple(sum(1 << p for p in range(64) if not p >> j & 1) for j in range(6))


def profile_words(gens: GeneratorSet) -> DistanceProfile:
    """The profile on packed 64-node words, past graph._PROFILE_INTS nodes.

    The hops are first mapped by _systematic_hops so that d of them are
    unit vectors; the other r are the extras.  Unseen nodes and each
    level are kept as packed 64-node words, and each level takes the step
    the costs above rate cheaper:
    - the sparse step lists the frontier, or the unseen nodes once fewer,
      and tests v ^ h for each listed v and hop h;
    - the dense step ORs into the next level the level's delayed sources
      and, a block of words at a time, every unit hop's image of the
      frontier (in-word swaps for bits 0-5, word flips above) and the
      gathers of the extras beyond the first min(r, d - 6), which stop
      once every unseen node of the block is reached.
    The sources are exact because a shortest path uses each hop at most
    once, so dist(x) = min over subsets S of those extras of
    |S| + dist'(x ^ a_S), where a_S is the XOR of S and dist' uses the
    other hops: a_S seeds the search at level |S|, whichever step made
    the levels before.

    Two level buffers take turns as the frontier and the next level, and
    neither is ever cleared.  Besides its level, a buffer may hold nodes
    of earlier levels in words the level was not written to.  Those are
    seen, so every step's mask with the unseen words drops them, no
    unseen node neighbours them, and a push lists only the words its
    frontier's level was written to.
    Three word arrays, the 2^min(r, d - 6) <= n/64 sources and node
    lists that the cost rule keeps short hold the traced peak near 0.7
    bytes per node on b3(20) and 0.5 on b3(24).  Gathered extras add
    block-sized scratch: random 64-hop sets trace 0.66 bytes per node at
    d = 24 and 1.16 at d = 20, where one block is the whole array.  The
    m = n/2 rungs need one dense level, level 2, which the units and
    sources fill before any hop is gathered: 0.08 s in-process at d = 20
    (2 cores).
    """
    import numpy as np

    n, d, m = gens.n, gens.d, gens.m
    words = -(-n // 64)
    cap = min(m - d, max(d - 6, 0))
    dense_ops = words * _dense_ops(d, m - d - cap) + _LEVEL_OPS
    hops = _systematic_hops(gens)
    sources = None
    unseen = np.full(words, (1 << min(n, 64)) - 1, dtype="<u8")
    unseen[0] ^= 1
    frontier, spare = np.zeros(words, dtype="<u8"), np.zeros(words, dtype="<u8")
    frontier[0] = 1
    # The words the frontier's level was written to; None for every word.
    at = np.zeros(1, dtype=np.int64)
    counts = [1]
    reached = 1
    while reached < n:
        if min(counts[-1], n - reached) * m * _SPARSE_COST <= dense_ops:
            push = counts[-1] <= n - reached
            size, found = _sparse_level(frontier, at, spare, unseen, hops, push)
        else:
            if sources is None:
                extras = hops[hops & (hops - 1) != 0]
                sources = gf2.subset_xors(extras[:cap])
                sizes = np.bitwise_count(np.arange(sources.size))
                rest, his = extras[cap:], {}
            level = sources[sizes == len(counts)]
            size, found = _dense_level(frontier, spare, unseen, d, rest, his, level), None
        if not size:
            break
        frontier, spare, at = spare, frontier, found
        reached += size
        counts.append(size)
    if reached != n:
        raise LongHopError(f"BFS reached {reached} of {n} nodes over spanning hops")
    return DistanceProfile(tuple(counts))


def _by_lo(rest: np.ndarray) -> dict[int, np.ndarray]:
    """The hops h = hi << 6 | lo of rest as {lo: the his of that lo}, the
    los in Gray-code order, so that neighbours differ in few bits."""
    import numpy as np

    los = rest & 63
    rank = los ^ los >> 1
    rank ^= rank >> 2
    rank ^= rank >> 4
    rest = rest[np.argsort(rank, kind="stable")]
    los = rest & 63
    cuts = [0, *(np.flatnonzero(np.diff(los)) + 1).tolist(), rest.size]
    his = rest >> 6
    return {lo: his[a:b] for lo, a, b in zip(los[cuts[:-1]].tolist(), cuts, cuts[1:])}


def _dense_ops(d: int, gathered: int) -> int:
    """Word operations per word of one dense level: 6 per in-word unit
    swap, 2 per block flip, _GATHER_COST per gathered hop."""
    return 6 * min(d, 6) + 2 * max(d - 6, 0) + _GATHER_COST * gathered


def _get(words: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Bit v of the packed words for each node v in nodes, as 0 or 1."""
    return words.view("u1")[nodes >> 3] >> (nodes & 7) & 1


def _set(words: np.ndarray, nodes: np.ndarray) -> None:
    """Set bit v of the packed words for each node v in nodes."""
    import numpy as np

    np.bitwise_or.at(words.view("u1"), nodes >> 3, (1 << (nodes & 7)).astype("u1"))


def _nodes(words: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
    """The set bits of packed words as node indices, in order: of every
    word, or of the words at lists in order."""
    import numpy as np

    if at is None:
        at = np.flatnonzero(words)
    bits = np.unpackbits(words[at].view("u1"), bitorder="little").reshape(-1, 64)
    row, col = np.nonzero(bits)
    return at[row] << 6 | col


def _sparse_level(
    frontier: np.ndarray, at: np.ndarray | None, nxt: np.ndarray,
    unseen: np.ndarray, hops: np.ndarray, push: bool,
) -> tuple[int, np.ndarray | None]:
    """The next level into nxt from node lists: with push, every v ^ h
    for v in the frontier, whose level was written to the words at lists
    (None: every word); else each unseen node v with some v ^ h in the
    frontier.
    A level with fewer candidates v ^ h than words sorts the nodes it
    found, ORs each word's bits together and masks and counts only those
    words, so it costs its candidates and no pass over the words.  A
    larger one sets the nodes in blocks of about _GATHER candidates (one
    node's m, when m is more) and masks every word.  Returns the level's
    size and its words in order, or None when it masked them all."""
    import numpy as np

    nodes = _nodes(frontier, at) if push else _nodes(unseen)
    if nodes.size * hops.size >= nxt.size:
        rows = max(1, _GATHER // hops.size)
        for a in range(0, nodes.size, rows):
            found = nodes[a : a + rows, None] ^ hops
            if not push:
                found = nodes[a : a + rows][_get(frontier, found).any(axis=1)]
            _set(nxt, found.ravel())
        nxt &= unseen
        unseen ^= nxt
        return int(np.bitwise_count(nxt).sum()), None
    found = nodes[:, None] ^ hops
    if push:
        found = found.ravel()
        found.sort()
    else:
        found = nodes[_get(frontier, found).any(axis=1)]
    bits = (found & 63).astype(np.uint64)
    np.left_shift(np.uint64(1), bits, out=bits)
    found >>= 6  # the word of each node, in order
    first = np.flatnonzero(np.concatenate(([True], found[1:] != found[:-1])))
    at = found[first]
    level = np.bitwise_or.reduceat(bits, first)
    if push:
        level &= unseen[at]
    nxt[at] = level
    unseen[at] ^= level
    return int(np.bitwise_count(level).sum()), at


def _dense_level(
    frontier: np.ndarray, nxt: np.ndarray, unseen: np.ndarray, d: int,
    rest: np.ndarray, his: dict, sources: np.ndarray,
) -> int:
    """The next level into nxt on packed words: the level's delayed
    sources, then a block of _BLOCK words at a time the unit hops
    (_units) and the hops h = hi << 6 | lo of rest, one group of hops
    with the same lo at a time.  A hop's image of word w is word w ^ hi
    of the frontier permuted in-word by lo.  Rather than permute each
    gathered word, the block's `done` words (its nodes reached or seen)
    are kept permuted by the lo at hand, so that moving to the next group
    in _by_lo's order costs a swap or two; the groups stop once every
    node of the block is done.  Each block is masked and counted while
    it is still in cache.  The first block that gathers fills his with
    _by_lo(rest) for the blocks and levels after it.  Returns the
    level's size."""
    import numpy as np

    _set(nxt, sources)
    size = min(frontier.size, _BLOCK)
    tmp, done = np.empty((2, size), dtype=frontier.dtype)
    full = np.iinfo(frontier.dtype).max
    count = 0
    for a in range(0, frontier.size, size):
        out, left = nxt[a : a + size], unseen[a : a + size]
        _units(frontier, a, out, d, tmp, done)
        if rest.size:
            # The block's nodes that are reached or already seen.
            np.bitwise_not(left, out=done)
            done |= out
            if not his and done.min() != full:
                # Grouping sorts rest, so it waits for a gather: on the
                # m = n/2 rungs the units and sources reach every node
                # before any.
                his.update(_by_lo(rest))
            frame, offsets = 0, np.arange(size)
            for lo, group in his.items():
                if done.min() == full:
                    break
                _permute(done, frame ^ lo, done, tmp)
                frame = lo
                # (a + i) ^ hi = i ^ (a ^ hi), a being a multiple of size.
                for hi in (group ^ a).tolist():
                    done |= frontier[offsets ^ hi]
            _permute(done, frame, done, tmp)
            out |= done
        out &= left
        left ^= out
        count += int(np.bitwise_count(out).sum())
    return count


def _permute(words: np.ndarray, lo: int, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = words with bit p of each word moved to bit p ^ lo, where lo
    is not 0 or out is words: one swap of bit pairs per set bit of lo,
    by mask and shift for bits 0-2 and by rotating 16-, 32- and 64-bit
    lanes for bits 3-5."""
    import numpy as np

    for j in range(6):
        if lo >> j & 1:
            s = 1 << j
            if j < 3:
                mask = words.dtype.type(_SWAP_MASKS[j])
                np.right_shift(words, s, out=tmp)
                tmp &= mask
                np.bitwise_and(words, mask, out=out)
                out <<= s
                out |= tmp
            else:
                lane = f"<u{s >> 2}"
                src, dst, t = words.view(lane), out.view(lane), tmp.view(lane)
                np.right_shift(src, s, out=t)
                np.left_shift(src, s, out=dst)
                dst |= t
            words = out


def _units(
    frontier: np.ndarray, a: int, out: np.ndarray, d: int,
    tmp: np.ndarray, spare: np.ndarray,
) -> None:
    """out |= the image under each unit hop of the frontier's words that
    out stands for, a .. a + out.size - 1, where out.size is a power of
    two that a is a multiple of; tmp and spare are out-sized scratch.
    Bits 0-5 are a _permute within each word; a word bit j below
    log2(out.size) flips runs of 2^j words inside the block, and a higher
    one ORs in the block at a ^ 2^j whole.  Runs of one or two words go
    column by column, since numpy walks a reversed run of so few words
    slowly."""
    import numpy as np

    f = frontier[a : a + out.size]
    for j in range(min(d, 6)):
        _permute(f, 1 << j, tmp, spare)
        out |= tmp
    for j in range(d - 6):
        k = 1 << j
        if k >= out.size:
            out |= frontier[a ^ k : (a ^ k) + out.size]
        elif k <= 2:
            cols, src = out.reshape(-1, 2 * k), f.reshape(-1, 2 * k)
            for i in range(2 * k):
                cols[:, i] |= src[:, i ^ k]
        else:
            pairs = out.reshape(-1, 2, k)
            np.bitwise_or(pairs, f.reshape(-1, 2, k)[:, ::-1], out=pairs)
