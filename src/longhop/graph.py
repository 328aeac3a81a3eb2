"""Generator sets over Z_2^d and the graphs they induce.

A network here is a Cayley graph: nodes are the 2^d words of d bits and
node v links to v XOR h for every hop h in the generator set.  The set
is closed under nothing and ordered (hop s is "port s"), but as a graph
the edge set only depends on the set of hops.  It is connected exactly
when the hops span Z_2^d, and `GeneratorSet` refuses hops that do not.

The distance profile is a direction-optimizing BFS (Beamer, Asanovic and
Patterson, SC 2012) run in the systematic basis: the linear map that
sends d independent hops to the unit vectors is a graph isomorphism, so
it first maps the hops there.  Each level then takes the cheaper of two
steps.  The sparse step works from node lists: it pushes frontier ^ h
while the frontier is the shorter list, and pulls into the unseen nodes
once they are.  The dense step works on packed 64-node words: a unit hop
is a swap of bits within each word or a flip of word blocks, and the
first min(m - d, d - 6) other hops enter as delayed sources (every XOR
of j of them joins level j if still unseen), so only the hops beyond
those are gathered.
"""
from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import IO, TYPE_CHECKING

from . import gf2
from .errors import DisconnectedGraph, DomainError, FormatError, LongHopError
from .walsh import MAX_DIM

if TYPE_CHECKING:
    import numpy as np


def check_dim(d: int) -> None:
    """Raise DomainError unless 1 <= d <= MAX_DIM; call it before any 1 << d."""
    if not 1 <= d <= MAX_DIM:
        raise DomainError(f"dimension must be in [1, {MAX_DIM}], got {d}")


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered set of distinct nonzero hops that span Z_2^d, checked
    once, here: no engine that takes a GeneratorSet checks it again."""

    d: int
    hops: tuple[int, ...]

    def __post_init__(self):
        check_dim(self.d)
        object.__setattr__(self, "hops", tuple(int(h) for h in self.hops))
        if not self.hops:
            raise DomainError("a generator set needs at least one hop")
        n = 1 << self.d
        for h in self.hops:
            if not 0 < h < n:
                raise DomainError(f"hop {h:#x} out of range for d={self.d}")
        if len(set(self.hops)) != len(self.hops):
            raise DomainError("hops must be distinct")
        # A proper subspace holds at most n/2 - 1 nonzero words, so m >= n/2
        # distinct nonzero hops span without a scan (every lh_hd rung).
        if self.m < n >> 1 and not gf2.spans(self.hops, self.d):
            raise DisconnectedGraph(
                f"hops span a rank-{gf2.rank(self.hops)} subspace of d={self.d}"
            )

    @property
    def n(self) -> int:
        """Number of nodes, 2^d."""
        return 1 << self.d

    @property
    def m(self) -> int:
        """Number of hops, i.e. ports used per node."""
        return len(self.hops)

    def xor_all(self) -> int:
        """XOR of every hop; zero here forces every bisection cut even."""
        acc = 0
        for h in self.hops:
            acc ^= h
        return acc


@dataclass(frozen=True)
class DistanceProfile:
    """How many nodes sit at each distance from node 0 (all nodes look alike)."""

    counts: tuple[int, ...]

    @property
    def diameter(self) -> int:
        return len(self.counts) - 1

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def total(self) -> int:
        """Sum of the distances from node 0 to every node."""
        return sum(dist * c for dist, c in enumerate(self.counts))

    @property
    def avg(self) -> Fraction:
        """Average distance over all n nodes, the origin included."""
        return Fraction(self.total, self.n)

    @property
    def far_count(self) -> int:
        """How many nodes sit at exactly the diameter."""
        return self.counts[-1]


def hex_width(d: int) -> int:
    """Digits needed to print a d-bit word in hex."""
    return (d + 3) // 4


# A table goes out in blocks of at most _ROWS_PER_WRITE rows and, past
# one row, at most _BYTES_PER_WRITE bytes, so the text and the arrays
# behind one block do not grow with n or with the row width (a radix of
# 100000 makes 300 KB wiring rows).
_ROWS_PER_WRITE = 2048
_BYTES_PER_WRITE = 1 << 16


def write_table(
    stream: IO[str],
    rows: range,
    digits: int,
    tails: np.ndarray,
    keys: np.ndarray | None = None,
    hops: Sequence[int] = (),
    colon: bool = False,
) -> None:
    """Write one line per v in rows: a hex label for v, then a tab and
    v ^ h in `digits` hex digits for each h in hops, then row keys[v] of
    the uint8 table `tails` (row 0 when keys is None), NUL bytes dropped.
    The label is v zero-padded to `digits` digits, or with colon v at its
    own width and a `:`.

    Each block is a uint8 array, one line per row: every hex digit is a
    16-entry lookup of (x >> 4 i) & 15 and every tail a gathered row of
    the table.  The label width changes only at powers of 16, so a block
    is built in groups of rows that share it, then written with one
    stream.write.
    """
    import numpy as np

    # A bytes search, not tails.all(): the reduction would fault in
    # about 200 KB more of numpy's code (peak RSS).
    ragged = b"\0" in tails.tobytes()
    hop_words = np.array(hops, dtype=np.uint32).reshape(1, -1)
    cells_len = len(hops) * (1 + digits)
    tail_len = tails.shape[1]
    longest = len(f"{rows[-1]:X}") + 1 if colon else digits
    step = _BYTES_PER_WRITE // (longest + cells_len + tail_len)
    step = max(1, min(_ROWS_PER_WRITE, step))
    for start in range(rows.start, rows.stop, step):
        stop = min(start + step, rows.stop)
        parts = []
        while start < stop:
            label = len(f"{start:X}") if colon else digits
            end = min(stop, 16**label) if colon else stop
            v = np.arange(start, end, dtype=np.uint32)
            block = np.empty((v.size, label + colon + cells_len + tail_len), np.uint8)
            _hex_digits(v, block[:, :label])
            if colon:
                block[:, label] = ord(":")
            if hops:
                cells = block[:, label + colon : -tail_len]
                cells = cells.reshape(v.size, len(hops), 1 + digits)
                cells[:, :, 0] = ord("\t")
                _hex_digits(v[:, None] ^ hop_words, cells[:, :, 1:])
            block[:, -tail_len:] = tails[0] if keys is None else tails[keys[start:end]]
            parts.append((block[block != 0] if ragged else block).tobytes())
            start = end
        stream.write(b"".join(parts).decode("ascii"))


def spectrum_tails(m: int) -> np.ndarray:
    r"""The write_table tails of a spectrum: row c is `\t{m - 2c}\t{c}\n`
    for c in 0..m, in ASCII padded with NUL; m - 2c is negative past m/2.
    Built _ROWS_PER_WRITE rows at a time, so that on the m = n/2 rungs few
    Python strings are alive at once."""
    import numpy as np

    width = 2 * len(str(m)) + 4
    tails = np.zeros((m + 1, width), np.uint8)
    for lo in range(0, m + 1, _ROWS_PER_WRITE):
        hi = min(lo + _ROWS_PER_WRITE, m + 1)
        text = [f"\t{m - 2 * c}\t{c}\n".encode("ascii") for c in range(lo, hi)]
        tails[lo:hi] = np.array(text, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return tails


def _hex_digits(x: np.ndarray, out: np.ndarray) -> None:
    """out[..., i] = the i-th of out.shape[-1] hex digits of x, most
    significant first, in ASCII."""
    import numpy as np

    lookup = np.frombuffer(b"0123456789ABCDEF", dtype=np.uint8)
    places = out.shape[-1]
    for i in range(places):
        out[..., i] = lookup[(x >> 4 * (places - 1 - i)) & 15]


def read_lines(text: str) -> list[str]:
    """The lines of a text file with `#` comments, surrounding blanks and
    empty lines dropped; splitlines() also takes CRLF."""
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in lines if line]


def format_hop_lines(gens: GeneratorSet) -> list[str]:
    """One fixed-width hex hop per line: the body of hop files and store records."""
    w = hex_width(gens.d)
    return [f"{h:0{w}X}" for h in gens.hops]


def parse_hop_lines(d: int, lines: Iterable[str]) -> GeneratorSet:
    """Inverse of format_hop_lines; any fault is a FormatError."""
    hops = []
    for line in lines:
        try:
            hops.append(int(line, 16))
        except ValueError:
            raise FormatError(f"bad hop line: {line!r}") from None
    try:
        return GeneratorSet(d, tuple(hops))
    except DomainError as exc:
        raise FormatError(str(exc)) from None


def format_hops(gens: GeneratorSet) -> str:
    """Render a generator set in the hop-list file format."""
    return "\n".join([f"d={gens.d} q=2", *format_hop_lines(gens)]) + "\n"


def parse_hops(text: str) -> GeneratorSet:
    """Parse the hop-list format: a `d=<dim> q=2` header, then one hex hop
    per line.  Blank lines and `#` comments are ignored."""
    lines = read_lines(text)
    if not lines:
        raise FormatError("empty hop list")
    head = re.fullmatch(r"d=([-+]?\d+)\s+q=2", lines[0])
    if head is None:
        raise FormatError(f"bad hop-list header: {lines[0]!r}")
    return parse_hop_lines(int(head[1]), lines[1:])


def load_hops(path) -> GeneratorSet:
    return parse_hops(Path(path).read_text())


# Costs of a level, in word operations of the dense step (0.6-0.9 ns
# each at d >= 20; 2 cores, Python 3.11, numpy 2.4).  A dense level
# costs _dense_ops per word, plus _LEVEL_OPS (about 60 us) for the numpy
# calls it makes beyond a sparse level's.  A sparse level costs
# _SPARSE_COST per candidate v ^ h (20-30 ns to push, 8-20 ns to pull).
# A level takes the sparse step when that costs no more.  The constants
# were fitted to both steps' times on every level of the 64 seeded
# records and of b3, half-distance and random sets at d = 12..24; on the
# records and on such sets up to d = 22, the steps the rule picks take
# within 2 % of the faster step's time summed over the levels.
_SPARSE_COST = 33
_LEVEL_OPS = 80_000
# A gathered hop costs _GATHER_COST word operations per word.
_GATHER_COST = 6
# The dense step checks which words still need a gather every
# _CHECK_HOPS gathered hops, and gathers only into those once they are
# at most 1/_SPARSE_WORDS of the words.
_CHECK_HOPS = 4
_SPARSE_WORDS = 8
# Candidates per block of the sparse step, and words per gather in the
# dense step (128 KB of indices and of results).
_GATHER = 1 << 14
# _SWAP_MASKS[j] marks the bits of a 64-bit word whose position has bit j
# clear; the swap built from it exchanges bits p and p ^ 2^j.
_SWAP_MASKS = tuple(
    sum(1 << p for p in range(64) if not p >> j & 1) for j in range(6)
)


def distance_profile(gens: GeneratorSet) -> DistanceProfile:
    """Level-synchronous BFS from node 0 that keeps only the size of each
    level; O(n) bytes whatever m is.

    The hops are first mapped so that d of them are unit vectors; the
    other r are the extras.  Unseen nodes and each level are kept as
    packed 64-node words, and each level takes the step the costs above
    rate cheaper (when no level can be dense, the hops are not mapped):
    - the sparse step lists the frontier, or the unseen nodes once fewer,
      and tests v ^ h for each listed v and hop h;
    - the dense step ORs into the next level every unit hop's image of
      the frontier (in-word swaps for bits 0-5, block flips above), then
      the gathers of the extras beyond the first min(r, d - 6), in blocks
      that stop once every unseen node is reached, then the level's
      delayed sources.
    The sources are exact because a shortest path uses each hop at most
    once, so dist(x) = min over subsets S of those extras of
    |S| + dist'(x ^ a_S), where a_S is the XOR of S and dist' uses the
    other hops: a_S seeds the search at level |S|, whichever step made
    the levels before.

    Three word arrays, a scratch array, the 2^min(r, d - 6) <= n/64
    sources and node lists that the cost rule keeps short hold the traced
    peak near 0.7 bytes per node on b3(20) and 0.5 on b3(24); gathered
    extras add up to 7 word arrays of in-word variants, 1.4-1.8 bytes per
    node on random 64-hop sets.  The m = n/2 rungs need one dense level,
    level 2, which the units and sources fill before any hop is
    gathered: 0.08 s in-process at d = 20 (2 cores).
    """
    import numpy as np

    n, d, m = gens.n, gens.d, gens.m
    words = -(-n // 64)
    cap = min(m - d, max(d - 6, 0))
    dense_ops = words * _dense_ops(d, m - d - cap) + _LEVEL_OPS
    if (n >> 1) * m * _SPARSE_COST <= dense_ops:
        # No list is longer than n/2, so every level is sparse, and the
        # sparse step needs no basis.
        hops = np.array(gens.hops, dtype="<i8")
    else:
        hops = _systematic_hops(gens)
    his = None
    unseen = np.full(words, (1 << min(n, 64)) - 1, dtype="<u8")
    unseen[0] ^= 1
    frontier = np.zeros(words, dtype="<u8")
    frontier[0] = 1
    counts = [1]
    reached = 1
    while reached < n:
        if min(counts[-1], n - reached) * m * _SPARSE_COST <= dense_ops:
            push = counts[-1] <= n - reached
            frontier = _sparse_level(frontier, unseen, hops, push)
        else:
            if his is None:
                extras = hops[hops & (hops - 1) != 0]
                sources = _subset_xors(extras[:cap])
                sizes = np.bitwise_count(np.arange(sources.size))
                his = _by_lo(extras[cap:])
            level = sources[sizes == len(counts)]
            frontier = _dense_level(frontier, unseen, d, his, level)
        size = int(np.bitwise_count(frontier).sum())
        if not size:
            break
        reached += size
        counts.append(size)
    if reached != n:
        raise LongHopError(f"BFS reached {reached} of {n} nodes over spanning hops")
    return DistanceProfile(tuple(counts))


def _systematic_hops(gens: GeneratorSet) -> np.ndarray:
    """The hops, as int64, under the linear map that sends d independent
    hops to the unit vectors: a graph isomorphism, so the profile is the
    same.  Hops that hold all d units are kept as they are.  Otherwise
    gf2.row_reduce on the d rows of the hops' bit matrix finds the map;
    numpy builds those rows from byte planes and applies the map one byte
    of each hop at a time, through 256-entry tables."""
    import numpy as np

    d, m = gens.d, gens.m
    hops = np.array(gens.hops, dtype="<i8")
    # The hops are distinct, so d powers of two among them are the units.
    if np.count_nonzero(hops & (hops - 1) == 0) == d:
        return hops
    planes = np.ascontiguousarray(hops.view("u1").reshape(m, 8)[:, : -(-d // 8)].T)
    rows = [
        int.from_bytes(
            np.packbits(planes[i >> 3] & 1 << (i & 7), bitorder="little").tobytes(),
            "little",
        )
        for i in range(d)
    ]
    combos = gf2.row_reduce(rows, [1 << i for i in range(d)], (1 << m) - 1)[1]
    # The image of unit j: bit i is bit j of combos[i].
    images = [sum((c >> j & 1) << i for i, c in enumerate(combos)) for j in range(d)]
    out = np.zeros_like(hops)
    for j in range(0, d, 8):
        table = _subset_xors(np.array(images[j : j + 8]))
        out ^= table[hops >> j & 255]
    return out


def _subset_xors(extras: np.ndarray) -> np.ndarray:
    """XOR of extras[i] over the set bits i of S, for every S < 2^len."""
    import numpy as np

    out = np.zeros(1 << extras.size, dtype=np.int64)
    for i, a in enumerate(extras.tolist()):
        np.bitwise_xor(out[: 1 << i], a, out=out[1 << i : 2 << i])
    return out


def _by_lo(rest: np.ndarray) -> dict[int, np.ndarray]:
    """The hops h = hi << 6 | lo of rest as {lo: the his of that lo}."""
    import numpy as np

    if not rest.size:
        return {}
    rest = rest[np.argsort(rest & 63, kind="stable")]
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


def _nodes(words: np.ndarray) -> np.ndarray:
    """The set bits of packed words as node indices, in order."""
    import numpy as np

    at = np.flatnonzero(words)
    bits = np.unpackbits(words[at].view("u1"), bitorder="little").reshape(-1, 64)
    row, col = np.nonzero(bits)
    return at[row] << 6 | col


def _sparse_level(
    frontier: np.ndarray, unseen: np.ndarray, hops: np.ndarray, push: bool
) -> np.ndarray:
    """The next level from node lists: with push, every v ^ h for v in
    the frontier; else each unseen node v with some v ^ h in the
    frontier.  The listed nodes go in blocks of about _GATHER candidates
    (one node's m, when m is more)."""
    import numpy as np

    nxt = np.zeros_like(frontier)
    nodes = _nodes(frontier if push else unseen)
    rows = max(1, _GATHER // hops.size)
    for a in range(0, nodes.size, rows):
        found = nodes[a : a + rows, None] ^ hops
        if not push:
            found = nodes[a : a + rows][_get(frontier, found).any(axis=1)]
        _set(nxt, found.ravel())
    nxt &= unseen
    unseen ^= nxt
    return nxt


def _dense_level(
    frontier: np.ndarray, unseen: np.ndarray, d: int, his: dict, sources: np.ndarray
) -> np.ndarray:
    """The next level on packed words: unit hops as in-word swaps (bits
    0-5) and block flips (bits 6 up); every other hop h = hi << 6 | lo as
    an in-word permutation shared by the hops with that lo, then a word
    gather; then the level's delayed sources."""
    import numpy as np

    nxt = np.zeros_like(frontier)
    tmp = np.empty_like(frontier)
    for j in range(min(d, 6)):
        s, mask = 1 << j, frontier.dtype.type(_SWAP_MASKS[j])
        np.bitwise_and(frontier, mask, out=tmp)
        np.left_shift(tmp, s, out=tmp)
        nxt |= tmp
        np.right_shift(frontier, s, out=tmp)
        tmp &= mask
        nxt |= tmp
    for j in range(6, d):
        k = 1 << (j - 6)
        pairs = nxt.reshape(-1, 2, k)
        np.bitwise_or(pairs, frontier.reshape(-1, 2, k)[:, ::-1], out=pairs)
    _set(nxt, sources)
    # The other hops go in blocks, and after every _CHECK_HOPS or more
    # hops the words that still hold an unseen node not reached are
    # counted: the gathers stop once there are none, and go only into
    # those words once they are few.
    chunk = max(_CHECK_HOPS, _GATHER // frontier.size)
    idx, since = None, _CHECK_HOPS
    for lo, variant in _in_word_variants(frontier, list(his)):
        for i in range(0, his[lo].size, chunk):
            if since >= _CHECK_HOPS:
                np.bitwise_not(nxt, out=tmp)
                tmp &= unseen
                pending = np.count_nonzero(tmp)
                if not pending:
                    break
                if pending * _SPARSE_WORDS <= tmp.size:
                    idx = np.flatnonzero(tmp)
                since = 0
            block = his[lo][i : i + chunk]
            _or_gathered(variant, block, nxt, idx)
            since += block.size
        else:
            continue
        break
    nxt &= unseen
    unseen ^= nxt
    return nxt


def _in_word_variants(
    words: np.ndarray, los: list[int], bit: int = 0
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, words with bit p of each word taken from bit p ^ lo) for
    each lo in los, all of which agree below `bit` and whose shared low
    bits `words` is already permuted by.  Depth-first over the bits, one
    mask-and-shift swap per set bit, so at most 7 arrays are alive."""
    if bit == 6:
        yield los[0], words
        return
    clear = [lo for lo in los if not lo >> bit & 1]
    flipped = [lo for lo in los if lo >> bit & 1]
    if clear:
        yield from _in_word_variants(words, clear, bit + 1)
    if flipped:
        s, mask = 1 << bit, words.dtype.type(_SWAP_MASKS[bit])
        swapped = ((words & mask) << s) | ((words >> s) & mask)
        yield from _in_word_variants(swapped, flipped, bit + 1)


def _or_gathered(variant, his, out, idx=None) -> None:
    """out[w] |= variant[w ^ hi] for every hi in his and every word w, or
    every w in idx, in gathers of at most _GATHER words: several hops per
    gather when the words are few, word chunks of one hop when they are
    many."""
    import numpy as np

    size = out.size if idx is None else idx.size
    step = min(size, _GATHER)
    rows = _GATHER // step
    for a in range(0, size, step):
        words = np.arange(a, min(a + step, size)) if idx is None else idx[a : a + step]
        acc = np.bitwise_or.reduce(variant[words ^ his[:rows, None]], axis=0)
        for i in range(rows, his.size, rows):
            acc |= np.bitwise_or.reduce(variant[words ^ his[i : i + rows, None]], axis=0)
        if idx is None:
            out[a : a + step] |= acc
        else:
            out[words] |= acc
