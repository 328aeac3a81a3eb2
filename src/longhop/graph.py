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
once they are.  The dense step works on packed 64-node words, a block
that stays in cache at a time: a unit hop is a swap of bits within each
word or a flip of word blocks, and the first min(m - d, d - 6) other
hops enter as delayed sources (every XOR of j of them joins level j if
still unseen), so only the hops beyond those are gathered.
"""
from __future__ import annotations

import operator
import re
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import islice, product
from pathlib import Path
from typing import IO, TYPE_CHECKING, NamedTuple

from . import gf2
from .errors import DisconnectedGraph, DomainError, FormatError, LongHopError
from .walsh import MAX_DIM

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np


def integers(values: Iterable, what: str) -> tuple[int, ...]:
    """values as ints; a float or a string is a DomainError, not truncated."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise DomainError(f"{what}: {exc}") from None


def check_dim(d: int) -> int:
    """d as an int, if an integer (not a bool) in [1, MAX_DIM]; call it before 1 << d."""
    if isinstance(d, bool) or not 1 <= integers([d], "dimension")[0] <= MAX_DIM:
        raise DomainError(f"dimension must be in [1, {MAX_DIM}], got {d}")
    return operator.index(d)


class GeneratorSet(namedtuple("GeneratorSet", "d hops")):
    """An ordered set of distinct nonzero hops that span Z_2^d, checked
    once, here: no engine that takes a GeneratorSet checks it again.
    Like every record class of the package it is an immutable named
    tuple, and the checking ones check in __new__."""

    __slots__ = ()

    def __new__(cls, d: int, hops: Iterable[int]):
        d, hops = check_dim(d), integers(hops, "hops")
        if not hops:
            raise DomainError("a generator set needs at least one hop")
        n = 1 << d
        for h in hops:
            if not 0 < h < n:
                raise DomainError(f"hop {h:#x} out of range for d={d}")
        if len(set(hops)) != len(hops):
            raise DomainError("hops must be distinct")
        # A proper subspace holds at most n/2 - 1 nonzero words, so m >= n/2
        # distinct nonzero hops span without a scan (every lh_hd rung).
        if len(hops) < n >> 1 and not gf2.spans(hops, d):
            raise DisconnectedGraph(
                f"hops span a rank-{gf2.rank(hops)} subspace of d={d}"
            )
        return super().__new__(cls, d, hops)

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


class DistanceProfile(NamedTuple):
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
        from fractions import Fraction

        return Fraction(self.total, self.n)


def hex_width(d: int) -> int:
    """Digits needed to print a d-bit word in hex."""
    return (d + 3) // 4


# A table goes out in blocks of at most _ROWS_PER_WRITE rows and, past
# one row, at most _BYTES_PER_WRITE bytes, so the text and the arrays
# behind one block do not grow with n or with the row width (a radix of
# 100000 makes 300 KB wiring rows).  The template of one period of rows
# fits the same byte budget.
_ROWS_PER_WRITE = 2048
_BYTES_PER_WRITE = 1 << 16


def write_table(
    stream: IO[str],
    rows: range,
    digits: int,
    tails: np.ndarray,
    keys: Iterable[tuple[int, np.ndarray]] | None = None,
    hops: Sequence[int] = (),
) -> None:
    """Write one line per v in rows: a hex label for v, then a tab and
    v ^ h in `digits` hex digits for each h in hops, then row key(v) of
    the C-contiguous uint8 table `tails` (row 0 when keys is None), NUL
    bytes dropped.  keys yields (start, array) blocks that cover rows in
    order, with key(start + i) = array[i], so that the keys of n rows
    need not be held at once.
    The label is v zero-padded to `digits` digits when there are no hops
    (a spectrum), else v at its own width and a `:` (a wiring table).

    The low k hex digits of v and of every v ^ h repeat with period 16^k,
    so one period is rendered once, as a template of rows: the label's
    low k digits, the colon, and each cell's tab and low k digits.  k is
    the largest, at most `digits`, whose template fits _BYTES_PER_WRITE,
    and at least 1.  Rows that share v >> 4k then take a slice of the
    template plus constants: the label's high digits, and each cell's
    high digits from (v ^ h) >> 4k.  Labels narrower than k digits (in
    the first period, with colon) are the template's label with its
    leading zeros cut off.  Tails are gathered as whole rows; a block is
    written with one stream.write.
    """
    import numpy as np

    colon = bool(hops)
    # A bytes search, not tails.all(): the reduction would fault in
    # about 200 KB more of numpy's code (peak RSS).
    ragged = b"\0" in tails.tobytes()
    tail_len = tails.shape[1]
    tail_rows = _runs(tails, 0, tail_len)
    cells_len = len(hops) * (1 + digits)
    k = 1
    while k < digits and 16 ** (k + 1) * (k + 1 + colon + cells_len) <= _BYTES_PER_WRITE:
        k += 1
    template = _template(k, digits, hops, colon)
    hop_highs = np.array(hops, dtype=np.int64) >> 4 * k
    high_cells = np.empty((len(hops), digits - k), np.uint8)
    longest = len(f"{rows[-1]:X}") + 1 if colon else digits
    step = _BYTES_PER_WRITE // (longest + cells_len + tail_len)
    step = max(1, min(_ROWS_PER_WRITE, step))
    blocks = [(rows.start, None)] if keys is None else keys
    for origin, row_keys in blocks:
        hi = rows.stop if row_keys is None else origin + row_keys.size
        for start in range(origin, hi, step):
            stop = min(start + step, hi)
            parts = []
            while start < stop:
                base, low = divmod(start, 16**k)
                label = len(f"{start:X}") if colon else digits
                end = min(stop, (base + 1) * 16**k, 16**label)
                skip, high = max(k - label, 0), max(label - k, 0)
                width = template.shape[1] - skip
                block = np.empty((end - start, high + width + tail_len), np.uint8)
                if high:
                    _runs(block, 0, high)[...] = np.void(f"{base:0{high}X}".encode())
                _runs(block, high, width)[...] = (
                    _runs(template, skip, width)[low : low + end - start]
                )
                if high_cells.size:
                    _hex_digits(base ^ hop_highs, high_cells)
                    first = high + k - skip + colon + 1
                    cells = _runs(block, first, digits - k, len(hops), 1 + digits)
                    cells[...] = _runs(high_cells, 0, digits - k)[:, 0]
                _runs(block, high + width, tail_len)[...] = (
                    tail_rows[0] if row_keys is None
                    else tail_rows[row_keys[start - origin : end - origin]]
                )
                parts.append(block.tobytes())
                start = end
            text = b"".join(parts)
            stream.write((text.translate(None, b"\0") if ragged else text).decode("ascii"))


def _template(k: int, digits: int, hops: Sequence[int], colon: bool) -> np.ndarray:
    """The write_table rows of v = 0..16^k - 1 with only the low k digits
    of the label and of each cell filled in; the high digits of each cell
    are left for the writer."""
    import numpy as np

    period = 16**k
    v = np.arange(period, dtype=np.int64)
    template = np.empty((period, k + colon + len(hops) * (1 + digits)), np.uint8)
    _hex_digits(v, template[:, :k])
    if colon:
        template[:, k] = ord(":")
    if hops:
        cells = template[:, k + colon :].reshape(period, len(hops), 1 + digits)
        cells[:, :, 0] = ord("\t")
        lows = np.array(hops, dtype=np.int64) & period - 1
        _hex_digits(v[:, None] ^ lows, cells[:, :, 1 + digits - k :])
    return template


def _runs(table: np.ndarray, at: int, width: int, count: int = 1, gap: int = 0) -> np.ndarray:
    """Bytes at .. at + width - 1 of each row of the C-contiguous uint8
    table as one void item per row, or `count` such runs per row, `gap`
    bytes apart: a view, so one copy moves each run as a whole."""
    import numpy as np

    return np.ndarray(
        (table.shape[0], count), f"V{width}", table, at, (table.shape[1], gap)
    )


def spectrum_tails(m: int) -> np.ndarray:
    r"""The write_table tails of a spectrum: row c reads `\t{m - 2c}\t{c}\n`
    for c in 0..m once its NUL bytes are dropped; m - 2c is negative past
    m/2.  Each number sits right-aligned after NULs in a field as wide as
    its widest value (-m and m), so a row is 2 len(str(m)) + 4 bytes.
    Built from digit arrays _ROWS_PER_WRITE rows at a time, so that on
    the m = n/2 rungs the temporaries stay small."""
    import numpy as np

    places = len(str(m))
    tails = np.zeros((m + 1, 2 * places + 4), np.uint8)
    tails[:, 0] = tails[:, places + 2] = ord("\t")
    tails[:, -1] = ord("\n")
    for lo in range(0, m + 1, _ROWS_PER_WRITE):
        c = np.arange(lo, min(lo + _ROWS_PER_WRITE, m + 1))
        _decimal(m - 2 * c, tails[lo : lo + c.size, 1 : places + 2])
        _decimal(c, tails[lo : lo + c.size, places + 3 : -1])
    return tails


def _decimal(x: np.ndarray, out: np.ndarray) -> None:
    """out[i] = x[i] in ASCII decimal, right-aligned after NULs, with a
    `-` before a negative x[i]; out has a column for each digit and sign."""
    import numpy as np

    q = np.abs(x)
    sign = x < 0
    out[:, -1] = q % 10 + ord("0")
    for col in range(out.shape[1] - 2, -1, -1):
        q //= 10
        out[:, col] = np.where(q > 0, q % 10 + ord("0"), np.where(sign, ord("-"), 0))
        sign &= q > 0


def _hex_digits(x: np.ndarray, out: np.ndarray) -> None:
    """out[..., i] = the i-th of out.shape[-1] hex digits of x, most
    significant first, in ASCII."""
    import numpy as np

    lookup = np.frombuffer(b"0123456789ABCDEF", dtype=np.uint8)
    places = out.shape[-1]
    for i in range(places):
        out[..., i] = lookup[(x >> 4 * (places - 1 - i)) & 15]


def write_lanes(stream: IO[str], d: int, m: int, lanes: Sequence[int]) -> None:
    r"""Write the spectrum rows `{k}\t{lambda_k}\t{C_k}\n`, k in hex as wide
    as hex_width(d), from lanes[k] = lambda_k + n as `walsh.fwht_lanes`
    gives them, without numpy: the rows of write_table with spectrum_tails.

    A row's tail depends on its lane alone, so the tail of each of the
    m + 1 lane values n - m, n - m + 2, ..., n + m is built once; the
    labels are the first n of the product of hex_width(d) hex digits,
    which comes in order.  Rows go out _ROWS_PER_WRITE at a time."""
    n, width = 1 << d, hex_width(d)
    tails = {n + m - 2 * c: f"\t{m - 2 * c}\t{c}\n" for c in range(m + 1)}
    labels = map("".join, product("0123456789ABCDEF", repeat=width))
    for start in range(0, n, _ROWS_PER_WRITE):
        stop = min(start + _ROWS_PER_WRITE, n)
        row_tails = map(tails.__getitem__, lanes[start:stop])
        stream.write("".join(map(str.__add__, islice(labels, stop - start), row_tails)))


def read_text(path) -> str:
    """A hop, code or store file as UTF-8 text; a byte that is not UTF-8
    is a FormatError naming the file and the byte's offset."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: byte {exc.start} is not UTF-8") from None


def read_lines(text: str) -> list[str]:
    """The lines of a text file with `#` comments, surrounding blanks and
    empty lines dropped; splitlines() also takes CRLF."""
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in lines if line]


def format_hop_lines(gens: GeneratorSet) -> list[str]:
    """One fixed-width hex hop per line: the body of hop files and store records."""
    w = hex_width(gens.d)
    return [f"{h:0{w}X}" for h in gens.hops]


_HEX = re.compile("[0-9A-Fa-f]+")


def parse_hex(text: str) -> int:
    """The word that text spells in _HEX, the one grammar of hop lines and
    hex options, or a FormatError (int(text, 16) also takes 0x7, +7, 7_0)."""
    if _HEX.fullmatch(text) is None:
        raise FormatError(f"bad hex word: {text!r}")
    return int(text, 16)


def parse_hop_lines(d: int, lines: Sequence[str]) -> GeneratorSet:
    """Inverse of format_hop_lines; any fault is a FormatError."""
    all_hex = all(lines) and _HEX.fullmatch("".join(lines)) is not None
    try:
        return GeneratorSet(d, [int(x, 16) if all_hex else parse_hex(x) for x in lines])
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
    head = re.fullmatch(r"d=([-+]?[0-9]+)\s+q=2", lines[0])
    if head is None:
        raise FormatError(f"bad hop-list header: {lines[0]!r}")
    return parse_hop_lines(int(head[1]), lines[1:])


def load_hops(path) -> GeneratorSet:
    return parse_hops(read_text(path))


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
# run in L2 (2 MB a core here).  Blocks of 2^14, 2^15 and 2^16 words
# gave `lh metrics` on b3(24) medians of 219, 212 and 208 ms over 24
# rounds, against 258 ms for passes over whole arrays; smaller blocks
# pay more per numpy call, larger ones spill a smaller L2.
_BLOCK = 1 << 15
# _SWAP_MASKS[j] marks the bits of a 64-bit word whose position has bit j
# clear; the swap built from it exchanges bits p and p ^ 2^j.
_SWAP_MASKS = tuple(
    sum(1 << p for p in range(64) if not p >> j & 1) for j in range(6)
)


def distance_profile(gens: GeneratorSet) -> DistanceProfile:
    """Level-synchronous BFS from node 0 that keeps only the size of each
    level; O(n) bytes whatever m is.

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


def _systematic_hops(gens: GeneratorSet) -> np.ndarray:
    """The hops, as int64, under the linear map that sends d independent
    hops to the unit vectors: a graph isomorphism, so the profile is the
    same.  The tags of the first of gf2.information_sets on the d rows
    of the hops' bit matrix are the rows of the map's matrix, so
    gf2.transpose of them gives the image of each unit.  numpy builds the
    rows from byte planes and applies the map one byte of each hop at a
    time, through gf2.subset_xors tables.  Hops that start with the d
    units map to themselves."""
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
    images = gf2.transpose([r >> m for r in next(gf2.information_sets(rows, m))], d)
    out = np.zeros_like(hops)
    for j in range(0, d, 8):
        table = gf2.subset_xors(np.array(images[j : j + 8]))
        out ^= table[hops >> j & 255]
    return out


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
