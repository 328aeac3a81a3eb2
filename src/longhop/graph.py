"""Generator sets over Z_2^d and the graphs they induce.

A network here is a Cayley graph: nodes are the 2^d words of d bits and
node v links to v XOR h for every hop h in the generator set.  The set
is closed under nothing and ordered (hop s is "port s"), but as a graph
the edge set only depends on the set of hops.  It is connected exactly
when the hops span Z_2^d, and `GeneratorSet` refuses hops that do not.

The distance profile is a direction-optimizing BFS (Beamer, Asanovic and
Patterson, SC 2012).  While the frontier is small it pushes: frontier ^ h
is scattered into a bool mask per node.  Once the frontier holds n/32
nodes, on graphs of n >= 2^13, it pulls for the rest of the search: node
v is reached when frontier[v ^ h] holds for some hop h, and on packed
64-node words that is a permutation of bits within each word followed by
a gather of words.  On b3(24) (d = 24, 29 hops) this takes the profile
from about 2.5 s to about 0.45 s on 2 cores, and its traced peak from
8.0 to 2.45 bytes per node.
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


def save_hops(gens: GeneratorSet, path) -> None:
    Path(path).write_text(format_hops(gens))


# The BFS switches from the push step to the pull step once the frontier
# holds at least n >> _PULL_SHIFT nodes, on graphs of at least _PULL_MIN_N
# nodes; below that the per-level cost of the packed words never pays off.
_PULL_MIN_N = 1 << 13
_PULL_SHIFT = 5
# Words per gather in the pull step (128 KB of indices and of results).
_GATHER = 1 << 14
# _SWAP_MASKS[j] marks the bits of a 64-bit word whose position has bit j
# clear; the swap built from it exchanges bits p and p ^ 2^j.
_SWAP_MASKS = tuple(
    sum(1 << p for p in range(64) if not p >> j & 1) for j in range(6)
)


def distance_profile(gens: GeneratorSet) -> DistanceProfile:
    """Level-synchronous BFS from node 0 that keeps only the size of each
    level; O(n) bytes whatever m is.

    Each level runs one of two steps, chosen from the frontier size.  The
    push step scatters frontier ^ h into a bool mask, one hop at a time, or
    hops ^ v, one frontier node at a time, whichever list is shorter; it
    runs while the frontier holds fewer than n/32 nodes, and always when
    n < 2^13.  From then on the pull step runs on packed 64-node words:
    node v joins the next level when frontier[v ^ h] holds for some hop h.
    The push step holds two bool masks (2 bytes per node), 8 bytes per hop
    and 16 bytes per frontier node, and its frontier stays below n/32, so
    the traced peak stays under 2.5 bytes per node at d >= 20; below that,
    fixed buffers of a few hundred KB dominate.  The search stops once
    every node is reached.  Time is another matter: a pull level gathers
    n/64 words per hop, about m n / 64 word operations, so on the m = n/2
    rungs it grows about 4x per step in d (`lh metrics`: 30 s at d = 20).
    """
    n = gens.n
    counts = [1]
    handover = _push_levels(gens, counts)
    if handover is not None:
        _pull_levels(gens, *handover, counts)
    if sum(counts) != n:
        raise LongHopError(
            f"BFS reached {sum(counts)} of {n} nodes over spanning hops"
        )
    return DistanceProfile(tuple(counts))


def _push_levels(
    gens: GeneratorSet, counts: list[int]
) -> tuple[np.ndarray, np.ndarray] | None:
    """Top-down levels, appending each level's size to counts.  Returns the
    packed (unseen, frontier) words once the frontier is large enough for
    the pull step, or None when the search is over."""
    import numpy as np

    n = gens.n
    hops = np.array(gens.hops)
    unseen = np.ones(n, dtype=bool)
    unseen[0] = False
    nxt = ~unseen
    size = reached = 1
    while size and reached < n:
        if n >= _PULL_MIN_N and size << _PULL_SHIFT >= n:
            return _pack(unseen), _pack(nxt)
        frontier = np.flatnonzero(nxt)
        nxt.fill(False)
        # XOR commutes, so scatter once per entry of the shorter list; level
        # 1 (frontier {0}) is the single scatter nxt[hops] = True.
        few, many = sorted((frontier, hops), key=len)
        for x in few.tolist():
            nxt[many ^ x] = True
        # None of these is alive while the masks are packed at handover.
        del frontier, few, many
        nxt &= unseen
        unseen ^= nxt
        size = int(np.count_nonzero(nxt))
        reached += size
        if size:
            counts.append(size)
    return None


def _pack(mask: np.ndarray) -> np.ndarray:
    """Bool node mask as '<u8' words: node v at bit v & 63 of word v >> 6
    (one zero-padded word when n < 64)."""
    import numpy as np

    packed = np.packbits(mask, bitorder="little")
    return np.pad(packed, (0, -packed.size % 8)).view("<u8")


def _pull_levels(
    gens: GeneratorSet, unseen: np.ndarray, frontier: np.ndarray, counts: list[int]
) -> None:
    """Bottom-up levels on packed words, appending each level's size to
    counts.  Hop h = hi << 6 | lo reads frontier bit (v & 63) ^ lo of word
    (v >> 6) ^ hi: an in-word permutation shared by every hop with that lo,
    then a word gather."""
    import numpy as np

    n = gens.n
    groups: dict[int, list[int]] = {}
    for h in gens.hops:
        groups.setdefault(h & 63, []).append(h >> 6)
    his = {lo: np.array(group) for lo, group in groups.items()}
    idx = np.arange(unseen.size)
    reached = sum(counts)
    while reached < n:
        nxt = np.zeros_like(unseen)
        for lo, variant in _in_word_variants(frontier, list(his)):
            _or_gathered(variant, his[lo], idx, nxt)
        nxt &= unseen
        unseen ^= nxt
        size = int(np.bitwise_count(nxt).sum())
        if not size:
            return
        reached += size
        counts.append(size)
        frontier = nxt


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


def _or_gathered(variant, his, idx, out) -> None:
    """out |= variant[idx ^ hi] for every hi in his, in gathers of at most
    _GATHER words: several hops per gather when the words are few, word
    chunks of one hop when they are many."""
    import numpy as np

    step = min(idx.size, _GATHER)
    rows = _GATHER // step
    for i in range(0, his.size, rows):
        block = his[i : i + rows, None]
        for a in range(0, idx.size, step):
            gathered = variant[idx[a : a + step] ^ block]
            out[a : a + step] |= np.bitwise_or.reduce(gathered, axis=0)
