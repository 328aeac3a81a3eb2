"""A small text-file store of verified hop-set solutions, keyed by (d, m).

Records carry measured metrics, never transcribed ones: every metric is
recomputed from the hop list on ingest, and `verify` can recheck the
whole store at any time.  The file format is line-oriented and diffable
so the seed set can live in version control.  `seed_defaults` and
`ingest_code_file` import `constructions` and `ecc` when they run, so
commands that only read the store load neither.
"""
from __future__ import annotations

import re
from collections import namedtuple
from itertools import groupby
from pathlib import Path

from .bisection import bisection_fwht
from .errors import DomainError, FormatError
from .graph import (
    GeneratorSet, distance_profile, format_hop_lines, integers, parse_hop_lines,
    read_text,
)

MIN_D = 3
MAX_M = 256

REFERENCE_EXAMPLES = (
    (
        "reference example 1",
        GeneratorSet(5, (0x1, 0x2, 0x4, 0x8, 0x10, 0xE, 0xF, 0x14, 0x19)),
    ),
    (
        "reference example 2",
        GeneratorSet(
            8,
            (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80,
             0x1A, 0x2D, 0x47, 0x78, 0x7E, 0x8E, 0x9D, 0xB2, 0xD1, 0xFB),
        ),
    ),
    (
        "reference example 3",
        GeneratorSet(
            16,
            tuple(1 << j for j in range(16))
            + (0x06F2, 0x1BD0, 0x1F3D, 0x3D72, 0x6B64, 0x775C, 0x893A,
               0x8B81, 0x9914, 0xA4C2, 0xA750, 0xB70E, 0xBFF1, 0xC57D,
               0xD0A6, 0xD1CA, 0xE6B5, 0xEAB9, 0xF2E8, 0xF313, 0xF9BF,
               0xFC31),
        ),
    ),
)


class SolutionRecord(namedtuple("SolutionRecord", "gens b diameter total provenance")):
    """One verified solution: a hop set plus its measured metrics, which
    must be possible for it: integers (2.5 is refused, not truncated) with
    1 <= b <= m, 1 <= diameter <= d (the hops hold a basis) and
    n - 1 <= total <= diameter (n - 1).  The provenance
    is one line, as the store writes it on the record's header."""

    __slots__ = ()

    def __new__(
        cls, gens: GeneratorSet, b: int, diameter: int, total: int, provenance: str
    ):
        m, d, n = gens.m, gens.d, gens.n
        b, diameter, total = integers((b, diameter, total), "record metrics")
        if not 1 <= b <= m:
            raise DomainError(f"b={b} is outside [1, {m}]")
        if not 1 <= diameter <= d:
            raise DomainError(f"diam={diameter} is outside [1, {d}]")
        top = diameter * (n - 1)
        if not n - 1 <= total <= top:
            raise DomainError(f"avg={total}/{n} is outside [{n - 1}/{n}, {top}/{n}]")
        _check_provenance(provenance)
        return super().__new__(cls, gens, b, diameter, total, provenance)

    @property
    def d(self) -> int:
        return self.gens.d

    @property
    def m(self) -> int:
        return self.gens.m

    @property
    def n(self) -> int:
        return self.gens.n


def make_record(gens: GeneratorSet, provenance: str) -> SolutionRecord:
    """Measure a hop set and wrap it as a record."""
    report = bisection_fwht(gens)
    prof = distance_profile(gens)
    return SolutionRecord(gens, report.b, prof.diameter, prof.total, provenance)


def _check_bounds(gens: GeneratorSet) -> None:
    """Raise DomainError unless MIN_D <= d and m <= MAX_M, the sizes the
    store holds; ingest calls it before anything is measured."""
    if gens.d < MIN_D:
        raise DomainError(f"d={gens.d} is below the store bound {MIN_D}")
    if gens.m > MAX_M:
        raise DomainError(f"m={gens.m} is above the store bound {MAX_M}")


def _check_provenance(provenance: str) -> None:
    """Raise DomainError unless the provenance fits on one line and
    encodes as UTF-8, the store's encoding: an argument that is not valid
    in the locale's encoding reaches Python as lone surrogates."""
    if "".join(provenance.splitlines()) != provenance:
        raise DomainError(f"provenance {provenance!r} holds a line break")
    try:
        provenance.encode("utf-8")
    except UnicodeEncodeError:
        raise DomainError(f"provenance {provenance!r} is not UTF-8 text") from None


class SolutionDB:
    """In-memory (d, m) -> SolutionRecord map with text persistence."""

    def __init__(self):
        self._records: dict[tuple[int, int], SolutionRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def add(self, rec: SolutionRecord, replace: bool = False) -> None:
        _check_bounds(rec.gens)
        self._check_key(rec.gens, replace)
        self._records[rec.d, rec.m] = rec

    def _check_key(self, gens: GeneratorSet, replace: bool) -> None:
        """Raise DomainError if the (d, m) key of gens is taken and may
        not be replaced."""
        if not replace and (gens.d, gens.m) in self._records:
            raise DomainError(f"record (d={gens.d}, m={gens.m}) already present")

    def query(self, d: int, m: int) -> SolutionRecord | None:
        """Exact-key lookup; absence is a normal outcome."""
        return self._records.get((d, m))

    def records(self) -> list[SolutionRecord]:
        """All records, ordered by (d, m)."""
        return [self._records[k] for k in sorted(self._records)]

    def verify(self) -> list[str]:
        """Recompute every record's metrics; return mismatch descriptions."""
        problems = []
        for rec in self.records():
            fresh = make_record(rec.gens, rec.provenance)
            for name in ("b", "diameter", "total"):
                got, want = getattr(rec, name), getattr(fresh, name)
                if got != want:
                    problems.append(
                        f"(d={rec.d}, m={rec.m}) {name}: stored {got}, "
                        f"recomputed {want}"
                    )
        return problems


def ingest_code_file(db: SolutionDB, path, provenance: str | None = None,
                     replace: bool = False) -> SolutionRecord:
    """Translate a generator-matrix file into a measured record and store
    it.  A record the store would refuse is refused before it is measured."""
    from .ecc import code_to_hops, load_code

    code = load_code(path)
    gens = code_to_hops(code)
    if provenance is None:
        provenance = f"code translation: {Path(path).name}"
    _check_bounds(gens)
    _check_provenance(provenance)
    db._check_key(gens, replace)
    rec = make_record(gens, provenance)
    db.add(rec, replace=replace)
    return rec


def seed_defaults(db: SolutionDB) -> int:
    """Reference examples plus construction families for d up to 12.

    Construction rungs whose m exceeds the store bound are skipped, as
    is any (d, m) key already present (reference records win ties).
    """
    from . import constructions

    families = list(REFERENCE_EXAMPLES)
    for d in range(3, 13):
        families.append(("hypercube", constructions.hypercube(d)))
        families.append(("folded cube", constructions.folded_cube(d)))
    for d in range(3, 13):
        for m in constructions.hd_ladder(d):
            if m <= MAX_M:
                families.append(("half-distance ladder", constructions.lh_hd(d, m)))
    for d in range(3, 13):
        families.append(("low-density b=3", constructions.low_density_b3(d)))
    added = 0
    for provenance, gens in families:
        if db.query(gens.d, gens.m) is None:
            db.add(make_record(gens, provenance))
            added += 1
    return added


def record_line(rec: SolutionRecord) -> str:
    """A record's metrics on one line, as `lh db list` prints it; the store
    writes it after `record ` as the record's header."""
    return (
        f"d={rec.d} m={rec.m} b={rec.b} diam={rec.diameter} "
        f"avg={rec.total}/{rec.n} prov={rec.provenance}"
    )


# A record header as dumps writes it: `record ` and then record_line(rec).
_HEADER = re.compile(
    r"record +d=([-+]?[0-9]+) +m=([-+]?[0-9]+) +b=([-+]?[0-9]+)"
    r" +diam=([-+]?[0-9]+) +avg=([-+]?[0-9]+)/([-+]?[0-9]+) +prov=(.*)"
)


def dumps(db: SolutionDB) -> str:
    """Render the whole store in the record-block text format."""
    blocks = [
        "\n".join([f"record {record_line(rec)}", *format_hop_lines(rec.gens)])
        for rec in db.records()
    ]
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def loads(text: str) -> SolutionDB:
    """Parse the record-block format.  A record whose hops or metrics
    no record can have is a FormatError that names it; whether possible
    metrics are the right ones is a verify() concern."""
    db = SolutionDB()
    # Records are runs of non-blank lines; splitlines() also takes CRLF.
    runs = groupby(text.splitlines(), key=lambda ln: bool(ln.strip()))
    for filled, group in runs:
        if not filled:
            continue
        head, *body = group
        match = _HEADER.fullmatch(head)
        if match is None:
            raise FormatError(f"bad record header: {head!r}")
        d, m, b, diam, total, n = map(int, match.groups()[:6])
        if len(body) != m:
            raise FormatError(f"record (d={d}, m={m}) lists {len(body)} hops")
        try:
            gens = parse_hop_lines(d, body)
            if n != gens.n:
                raise FormatError(f"avg denominator {n} is not 2^{d}")
            rec = SolutionRecord(gens, b, diam, total, match[7])
        except (DomainError, FormatError) as exc:
            raise FormatError(f"record (d={d}, m={m}): {exc}") from None
        db.add(rec)
    return db


def load(path) -> SolutionDB:
    return loads(read_text(path))
