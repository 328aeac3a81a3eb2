"""Generator sets over Z_2^d and the graphs they induce.

A network here is a Cayley graph: nodes are the 2^d words of d bits and
node v links to v XOR h for every hop h in the generator set.  The set
is closed under nothing and ordered (hop s is "port s"), but as a graph
the edge set only depends on the set of hops.  It is connected exactly
when the hops span Z_2^d, and `GeneratorSet` refuses hops that do not.

distance_profile counts the nodes at each distance from node 0 on one of
the two engines of `bitsets`, chosen by n.  Besides the records, this
module holds the hop-list codec and the table writers of `lh spectrum`
and `lh wire`.
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
from .errors import DisconnectedGraph, DomainError, FormatError
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
            stream.write((text.translate(None, b"\0") if b"\0" in text else text).decode("ascii"))


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


# The largest n whose profile runs on Python ints: at 2^17, `lh metrics`
# on b3(17), hd(17, 65536) and random 256- and 1024-hop sets ran 24-60 ms
# faster than through numpy; at 2^18, hd(18, 2^17) and a random 1024-hop
# set ran 10-32 ms slower (os.wait4, medians of 11, 2 cores).
_PROFILE_INTS = 1 << 17


def distance_profile(gens: GeneratorSet) -> DistanceProfile:
    """How many nodes sit at each distance from node 0: bitsets.profile_ints
    up to _PROFILE_INTS nodes, else bitsets.profile_words.  bitsets loads
    here, so that a command that runs no profile does not compile it."""
    from . import bitsets

    if gens.n <= _PROFILE_INTS:
        return bitsets.profile_ints(gens)
    return bitsets.profile_words(gens)
