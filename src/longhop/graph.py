"""Generator sets over Z_2^d and the graphs they induce.

A network here is a Cayley graph: nodes are the 2^d words of d bits and
node v links to v XOR h for every hop h in the generator set.  The set
is closed under nothing and ordered (hop s is "port s"), but as a graph
the edge set only depends on the set of hops.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import gf2
from .errors import DisconnectedGraph, DomainError, FormatError
from .walsh import MAX_DIM


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered set of distinct nonzero hops in Z_2^d."""

    d: int
    hops: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.d <= MAX_DIM:
            raise DomainError(f"dimension must be in [1, {MAX_DIM}], got {self.d}")
        object.__setattr__(self, "hops", tuple(int(h) for h in self.hops))
        if not self.hops:
            raise DomainError("a generator set needs at least one hop")
        n = 1 << self.d
        for h in self.hops:
            if not 0 < h < n:
                raise DomainError(f"hop {h:#x} out of range for d={self.d}")
        if len(set(self.hops)) != len(self.hops):
            raise DomainError("hops must be distinct")
        if len(self.hops) < self.d:
            raise DomainError(
                f"{len(self.hops)} hops cannot span d={self.d} dimensions"
            )

    @property
    def n(self) -> int:
        """Number of nodes, 2^d."""
        return 1 << self.d

    @property
    def m(self) -> int:
        """Number of hops, i.e. ports used per node."""
        return len(self.hops)

    def spans(self) -> bool:
        """True when the hops generate all of Z_2^d (connected graph)."""
        return gf2.spans(self.hops, self.d)

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

    def histogram(self) -> list[int]:
        """Node counts per distance, index 0 .. diameter."""
        return list(self.counts)


def neighbors(gens: GeneratorSet, v: int) -> list[int]:
    """Peers of node v in hop order: v XOR h for each hop."""
    if not 0 <= v < gens.n:
        raise DomainError(f"node {v} out of range for d={gens.d}")
    return [v ^ h for h in gens.hops]


def hex_width(d: int) -> int:
    """Digits needed to print a d-bit word in hex."""
    return (d + 3) // 4


def format_hops(gens: GeneratorSet) -> str:
    """Render a generator set in the hop-list file format."""
    w = hex_width(gens.d)
    lines = [f"d={gens.d} q=2"]
    lines.extend(f"{h:0{w}X}" for h in gens.hops)
    return "\n".join(lines) + "\n"


def parse_hops(text: str) -> GeneratorSet:
    """Parse the hop-list format: a `d=<dim> q=2` header, then one hex hop
    per line.  Blank lines and `#` comments are ignored."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise FormatError("empty hop list")
    head = lines[0].split()
    if len(head) != 2 or not head[0].startswith("d=") or head[1] != "q=2":
        raise FormatError(f"bad hop-list header: {lines[0]!r}")
    try:
        d = int(head[0][2:])
    except ValueError:
        raise FormatError(f"bad dimension in header: {lines[0]!r}") from None
    hops = []
    for line in lines[1:]:
        try:
            hops.append(int(line, 16))
        except ValueError:
            raise FormatError(f"bad hop line: {line!r}") from None
    try:
        return GeneratorSet(d, tuple(hops))
    except DomainError as exc:
        raise FormatError(str(exc)) from None


def load_hops(path) -> GeneratorSet:
    return parse_hops(Path(path).read_text())


def save_hops(gens: GeneratorSet, path) -> None:
    Path(path).write_text(format_hops(gens))


def adjacency(gens: GeneratorSet, cap: int = 1 << 14) -> np.ndarray:
    """Dense 0/1 adjacency matrix.  Refuses to materialize past `cap` nodes."""
    n = gens.n
    if n > cap:
        raise DomainError(f"adjacency matrix for n={n} exceeds cap {cap}")
    a = np.zeros((n, n), dtype=np.uint8)
    v = np.arange(n)
    for h in gens.hops:
        a[v, v ^ h] = 1
    return a


def distance_profile(gens: GeneratorSet) -> DistanceProfile:
    """Level-synchronous BFS from node 0, one hop at a time, keeping only
    the size of each level; O(n) bytes whatever m is.  Raises
    DisconnectedGraph if the hops do not span."""
    n = gens.n
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    nxt = np.empty(n, dtype=bool)
    frontier = np.zeros(1, dtype=np.int64)
    counts = [1]
    while True:
        nxt.fill(False)
        for h in gens.hops:
            nxt[frontier ^ h] = True
        nxt &= ~seen
        frontier = np.flatnonzero(nxt)
        if not frontier.size:
            break
        seen |= nxt
        counts.append(frontier.size)
    if sum(counts) != n:
        raise DisconnectedGraph(
            f"hops span a rank-{gf2.rank(gens.hops)} subspace of d={gens.d}"
        )
    return DistanceProfile(tuple(counts))
