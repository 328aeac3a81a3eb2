"""Ports/switch and cables/port series for topology comparisons.

Every row is computed from the closed-form parameterization documented
in docs/methodology.md and carries its formula string, so the numbers
are auditable rather than asserted.  All ratios are exact fractions;
the CSV emits both the exact and a decimal rendering per column.
"""
from __future__ import annotations

import csv
import io
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError

if TYPE_CHECKING:
    from .soldb import SolutionDB, SolutionRecord

class ComparisonRow(NamedTuple):
    """One topology instance sized for a given switch radix.  The
    alternatives to LH all run at phi = 1 and have no LH ratio."""

    topology: str
    n: int
    radix: int
    degree: Fraction
    ports: int
    cables: int
    formula: str
    phi: Fraction = Fraction(1)
    ratio_vs_lh: Fraction | None = None

    @property
    def ports_per_switch(self) -> Fraction:
        return Fraction(self.ports, self.n)

    @property
    def cables_per_port(self) -> Fraction:
        return Fraction(self.cables, self.ports)


def lh_series(records: list[SolutionRecord], radix: int) -> list[ComparisonRow]:
    """One row per record with m < radix: P = n(R-m), phi = (R-m)/b."""
    rows = []
    for rec in records:
        E = radix - rec.m
        if E <= 0:
            raise DomainError(
                f"record (d={rec.d}, m={rec.m}) needs radix > {rec.m}"
            )
        rows.append(
            ComparisonRow(
                topology=f"lh d={rec.d} m={rec.m}",
                n=rec.n,
                radix=radix,
                degree=Fraction(rec.m),
                ports=rec.n * E,
                cables=rec.n * rec.m // 2,
                phi=Fraction(E, rec.b),
                ratio_vs_lh=Fraction(1),
                formula="P=n(R-m); C=nm/2; phi=(R-m)/b",
            )
        )
    return rows


def hypercube_row(d: int, radix: int) -> ComparisonRow:
    """d-cube run at phi=1: b=1 caps the yield at one port per switch."""
    if not 0 <= d < radix:
        raise DomainError(f"hypercube d={d} needs 0 <= d < R, got R={radix}")
    n = 1 << d
    return ComparisonRow(
        topology=f"hypercube d={d}",
        n=n,
        radix=radix,
        degree=Fraction(d),
        ports=n,
        cables=n * d // 2,
        formula="P=n (E=b=1); C=nd/2",
    )


def folded_cube_row(d: int, radix: int) -> ComparisonRow:
    """Folded cube at phi=1: the diagonal hop doubles b, so E=2."""
    if not 0 <= d <= radix - 3:
        raise DomainError(f"folded cube d={d} needs 0 <= d <= R-3, got R={radix}")
    n = 1 << d
    return ComparisonRow(
        topology=f"folded_cube d={d}",
        n=n,
        radix=radix,
        degree=Fraction(d + 1),
        ports=2 * n,
        cables=n * (d + 1) // 2,
        formula="P=2n (E=b=2); C=n(d+1)/2",
    )


def flattened_butterfly_row(dims: int, radix: int) -> ComparisonRow:
    """All-to-all in each of `dims` dimensions of an even-ary cube.

    Picks the largest even arity q with (q-1)*dims + q/2 <= radix, so
    the q/2 per-switch external ports ride at phi = 1 (b = q/2).  With
    q = 2p that reads p (2 dims + 1) <= radix + dims.
    """
    if dims < 1:
        raise DomainError("flattened butterfly needs at least one dimension")
    q = 2 * ((radix + dims) // (2 * dims + 1))
    if q < 2:
        raise DomainError(
            f"radix {radix} cannot host a {dims}-dimension flattened butterfly"
        )
    n = q**dims
    m = (q - 1) * dims
    return ComparisonRow(
        topology=f"flattened_butterfly q={q} dims={dims}",
        n=n,
        radix=radix,
        degree=Fraction(m),
        ports=n * (q // 2),
        cables=n * m // 2,
        formula="n=q^D; P=nq/2 (E=b=q/2); C=n(q-1)D/2",
    )


def fat_tree2_row(radix: int) -> ComparisonRow:
    """Two-level fat tree: R leaves over R/2 spines, yield R/3 per switch."""
    if radix < 2 or radix % 2:
        raise DomainError("two-level fat tree needs an even radix >= 2")
    n = 3 * radix // 2
    ports = radix * radix // 2
    cables = radix * radix // 2
    return ComparisonRow(
        topology="fat_tree2",
        n=n,
        radix=radix,
        degree=Fraction(2 * cables, n),
        ports=ports,
        cables=cables,
        formula="n=3R/2; P=R^2/2 (R/3 per switch); C=R^2/2",
    )


def fat_tree3_row(radix: int) -> ComparisonRow:
    """Three-level fat tree: 5R^2/4 switches, yield R/5 per switch."""
    if radix < 2 or radix % 2:
        raise DomainError("three-level fat tree needs an even radix >= 2")
    n = 5 * radix * radix // 4
    ports = radix**3 // 4
    cables = radix**3 // 2
    return ComparisonRow(
        topology="fat_tree3",
        n=n,
        radix=radix,
        degree=Fraction(2 * cables, n),
        ports=ports,
        cables=cables,
        formula="n=5R^2/4; P=R^3/4 (R/5 per switch); C=R^3/2",
    )


def dragonfly_row(radix: int) -> ComparisonRow:
    """Balanced dragonfly a=2p, h=p: radix must be 4p-1."""
    if radix % 4 != 3:
        raise DomainError("balanced dragonfly needs radix = 4p-1")
    p = (radix + 1) // 4
    a = 2 * p
    groups = a * p + 1
    n = a * groups
    ports = n * p
    cables = n * (3 * p - 1) // 2
    return ComparisonRow(
        topology=f"dragonfly p={p}",
        n=n,
        radix=radix,
        degree=Fraction(3 * p - 1),
        ports=ports,
        cables=cables,
        formula="a=2p h=p; n=2p(2p^2+1); P=np; C=n(3p-1)/2",
    )


def alternative_series(
    family: str, radix: int, sizes: range | None = None
) -> list[ComparisonRow]:
    """Comparison rows for one non-LH family across its size parameter."""
    if family == "hypercube":
        sizes = sizes if sizes is not None else range(3, 13)
        return [hypercube_row(d, radix) for d in sizes if radix >= d + 1]
    if family == "folded_cube":
        sizes = sizes if sizes is not None else range(3, 13)
        return [folded_cube_row(d, radix) for d in sizes if radix >= d + 3]
    if family == "flattened_butterfly":
        sizes = sizes if sizes is not None else range(1, 5)
        return [flattened_butterfly_row(dims, radix) for dims in sizes]
    if family == "fat_tree2":
        return [fat_tree2_row(radix)]
    if family == "fat_tree3":
        return [fat_tree3_row(radix)]
    if family == "dragonfly":
        return [dragonfly_row(radix)]
    raise DomainError(f"unknown topology family {family!r}")


class YieldRow(NamedTuple):
    """Usable ports per switch at full bisection, LH vs the plain cube."""

    d: int
    n: int
    m: int
    lh_yield: int
    cube_yield: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.lh_yield, self.cube_yield)


def versus_hypercube(
    db: SolutionDB, radix: int, dims: range | None = None
) -> list[YieldRow]:
    """Best seeded LH yield against the hypercube, per dimension.

    The yield of a record at radix R is min(R - m, b): free ports per
    switch, capped by the bisection when selling them at phi <= 1.  The
    hypercube's b = 1 pins its yield at one port per switch.
    """
    dims = dims if dims is not None else range(3, 9)
    rows = []
    for d in dims:
        if radix < d + 1:
            continue
        best = None
        for rec in db.records():
            if rec.d != d:
                continue
            y = min(radix - rec.m, rec.b)
            if y >= 1 and (best is None or y > best[0]):
                best = (y, rec.m)
        if best is None:
            continue
        rows.append(YieldRow(d=d, n=1 << d, m=best[1], lh_yield=best[0], cube_yield=1))
    return rows


def _exact(value: Fraction | None) -> tuple[str, str]:
    if value is None:
        return "", ""
    return f"{value.numerator}/{value.denominator}", repr(
        value.numerator / value.denominator
    )


CSV_COLUMNS = (
    "topology", "n", "radix", "degree", "ports",
    "ports_per_switch", "ports_per_switch_dec",
    "cables", "cables_per_port", "cables_per_port_dec",
    "phi", "phi_dec", "ratio_vs_lh", "ratio_vs_lh_dec", "formula",
)


def to_csv(rows: list[ComparisonRow]) -> str:
    """Render comparison rows with exact and decimal columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        pps, pps_dec = _exact(row.ports_per_switch)
        cpp, cpp_dec = _exact(row.cables_per_port)
        phi, phi_dec = _exact(row.phi)
        ratio, ratio_dec = _exact(row.ratio_vs_lh)
        deg, _ = _exact(row.degree)
        writer.writerow([
            row.topology, row.n, row.radix, deg, row.ports,
            pps, pps_dec, row.cables, cpp, cpp_dec,
            phi, phi_dec, ratio, ratio_dec, row.formula,
        ])
    return buf.getvalue()


def yield_csv(rows: list[YieldRow]) -> str:
    """Render the versus-hypercube yield table."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["d", "n", "m", "lh_yield", "cube_yield", "ratio", "ratio_dec"]
    )
    for row in rows:
        ratio, ratio_dec = _exact(row.ratio)
        writer.writerow(
            [row.d, row.n, row.m, row.lh_yield, row.cube_yield, ratio, ratio_dec]
        )
    return buf.getvalue()
