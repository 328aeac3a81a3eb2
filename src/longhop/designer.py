"""Requirement matching and deployment wiring tables.

A requirement names the external port count P, the switch radix R, and
the tolerable oversubscription phi.  Against a solution store, every
record (d, m) offers E = R - m free ports per switch, hence P' = 2^d E
external ports at phi' = E/b; the designer scores records by weighted
relative error against the request and emits the per-switch wiring for
the winner.
"""
from __future__ import annotations

from typing import IO, TYPE_CHECKING, NamedTuple

from .bisection import bisection_fwht
from .errors import DomainError, LongHopError
from .graph import GeneratorSet, hex_width, write_table
from .soldb import SolutionDB, SolutionRecord

if TYPE_CHECKING:
    from fractions import Fraction

# As text, which find_solution reads with Fraction, so that importing
# the module (`lh wire` does) loads no fractions.
DEFAULT_WEIGHTS = ("7/10", "3/10")
# The wiring header goes out this many `\t#s` port cells per write, so a
# huge radix holds a block of them at a time, not one string per port.
_PORTS_PER_WRITE = 4096
# The largest radix of a wiring table, whose rows are then about 3 MB of
# text; at a radix of 10^8 the header alone would be 1 GB.
MAX_WIRE_RADIX = 1 << 20


class DesignChoice(NamedTuple):
    """A scored match between a requirement and a stored record."""

    record: SolutionRecord
    free_ports: int
    ports: int
    phi: Fraction
    score: Fraction


def find_solution(
    db: SolutionDB,
    ports: int,
    radix: int,
    phi: Fraction | int = 1,
    at_least_ports: bool = False,
    weights: tuple[Fraction | str, Fraction | str] = DEFAULT_WEIGHTS,
) -> DesignChoice:
    """Best stored record for (ports, radix, phi), by weighted error.

    Scores wP * |P'-P|/P + wPhi * |phi'-phi|/phi over all records with
    m < radix; at_least_ports additionally drops records below the
    requested port count.  Ties go to the smaller network, then to the
    smaller hop count (scan order makes that the first minimum seen).
    The winner's b is measured again from its hops, so a store edited by
    hand cannot pass off a wrong b; a mismatch raises LongHopError.
    """
    from fractions import Fraction

    if ports < 1:
        raise DomainError("target port count must be at least 1")
    if radix < 2:
        raise DomainError("radix must be at least 2")
    if phi <= 0:
        raise DomainError("target oversubscription must be positive")
    w_ports, w_phi = (Fraction(w) for w in weights)
    if w_ports < 0 or w_phi < 0 or w_ports + w_phi != 1:
        raise DomainError("weights must be nonnegative and sum to 1")
    if len(db) == 0:
        raise DomainError("solution store is empty")

    best: DesignChoice | None = None
    for rec in db.records():
        E = radix - rec.m
        if E <= 0:
            continue
        achieved_ports = rec.n * E
        if at_least_ports and achieved_ports < ports:
            continue
        achieved_phi = Fraction(E, rec.b)
        err_ports = Fraction(abs(achieved_ports - ports), ports)
        err_phi = abs(achieved_phi - phi) / phi
        score = w_ports * err_ports + w_phi * err_phi
        if best is None or score < best.score:
            best = DesignChoice(rec, E, achieved_ports, achieved_phi, score)
    if best is None:
        raise DomainError(
            "no stored record is admissible for this requirement"
        )
    rec = best.record
    b = bisection_fwht(rec.gens).b
    if b != rec.b:
        raise LongHopError(
            f"record (d={rec.d}, m={rec.m}) stores b={rec.b} but its hops "
            f"give b={b}; run `lh db verify`"
        )
    return best


class WiringTable:
    """Per-switch port assignments: row v, port s holds peer v XOR h_s.

    Both ends of a cable use the same port number, so row x lists y at
    port s exactly when row y lists x there.  Ports past m are free for
    external attachment and render as `**`.
    """

    def __init__(self, gens: GeneratorSet, radix: int):
        if radix <= gens.m:
            raise DomainError(
                f"radix {radix} leaves no free ports over m={gens.m} hops"
            )
        if radix > MAX_WIRE_RADIX:
            raise DomainError(f"a wiring table takes a radix of at most {MAX_WIRE_RADIX}")
        self.gens = gens
        self.radix = radix

    @property
    def n(self) -> int:
        return self.gens.n

    def write(self, stream: IO[str], lo: int = 0, hi: int | None = None) -> None:
        """Stream header plus rows lo..hi (inclusive, hi defaulting to the
        last row) in label order; DomainError when the range leaves the
        table."""
        hi = self.n - 1 if hi is None else hi
        if not 0 <= lo <= hi < self.n:
            raise DomainError(f"row range {lo}..{hi} out of [0, {self.n - 1}]")
        import numpy as np

        head = "Sw/Pt:"
        for first in range(1, self.radix + 1, _PORTS_PER_WRITE):
            stop = min(first + _PORTS_PER_WRITE, self.radix + 1)
            cells = "".join(f"\t#{s}" for s in range(first, stop))
            stream.write(head + cells + "\n" * (stop > self.radix))
            head = ""
        hops = self.gens.hops
        free = "\t**" * (self.radix - len(hops)) + "\n"
        tails = np.frombuffer(free.encode("ascii"), dtype=np.uint8).reshape(1, -1)
        write_table(
            stream, range(lo, hi + 1), hex_width(self.gens.d), tails, hops=hops
        )
