"""Topology comparison rows, CSV rendering, and the yield table."""

import csv
import io
from fractions import Fraction

import pytest

from longhop.compare import (
    CSV_COLUMNS,
    alternative_series,
    dragonfly_row,
    fat_tree2_row,
    fat_tree3_row,
    flattened_butterfly_row,
    folded_cube_row,
    hypercube_row,
    lh_series,
    to_csv,
    versus_hypercube,
    yield_csv,
)
from longhop.errors import DomainError


def _check_cable_identity(row):
    # Every port-for-port comparison rests on C/P == (n * degree / 2) / P,
    # i.e. the cable count always equals half the total fabric degree.
    assert Fraction(row.cables) == Fraction(row.n) * row.degree / 2
    assert row.cables_per_port == Fraction(row.cables, row.ports)
    assert row.ports_per_switch == Fraction(row.ports, row.n)


def test_lh_series(seeded_db):
    rec = seeded_db.query(5, 9)
    (row,) = lh_series([rec], radix=12)
    assert row.topology == "lh d=5 m=9"
    assert row.ports == 96
    assert row.cables == 144
    assert row.phi == Fraction(1)
    assert row.ratio_vs_lh == Fraction(1)
    _check_cable_identity(row)
    with pytest.raises(DomainError):
        lh_series([rec], radix=9)


def test_hypercube_row():
    row = hypercube_row(3, 256)
    assert (row.n, row.ports, row.cables) == (8, 8, 12)
    assert row.cables_per_port == Fraction(3, 2)
    _check_cable_identity(row)
    with pytest.raises(DomainError):
        hypercube_row(8, 8)
    with pytest.raises(DomainError):
        hypercube_row(-1, 16)


def test_folded_cube_row():
    row = folded_cube_row(4, 256)
    assert (row.n, row.ports, row.cables) == (16, 32, 40)
    _check_cable_identity(row)
    with pytest.raises(DomainError):
        folded_cube_row(4, 6)
    with pytest.raises(DomainError):
        folded_cube_row(-1, 16)


def test_flattened_butterfly_row():
    row = flattened_butterfly_row(2, 16)
    # Largest even q with (q-1)*2 + q/2 <= 16 is q=6.
    assert row.topology == "flattened_butterfly q=6 dims=2"
    assert (row.n, row.ports, row.cables) == (36, 108, 180)
    _check_cable_identity(row)
    with pytest.raises(DomainError):
        flattened_butterfly_row(2, 2)
    with pytest.raises(DomainError):
        flattened_butterfly_row(0, 16)


def _arity_by_search(dims, radix):
    """The largest even q with (q-1)*dims + q/2 <= radix, tried one by one."""
    fits = [q for q in range(2, radix + 2, 2) if (q - 1) * dims + q // 2 <= radix]
    return fits[-1] if fits else None


def test_flattened_butterfly_arity_matches_the_search():
    for dims in range(1, 30):
        for radix in range(-1, 600):
            q = _arity_by_search(dims, radix)
            if q is None:
                with pytest.raises(DomainError):
                    flattened_butterfly_row(dims, radix)
            else:
                row = flattened_butterfly_row(dims, radix)
                assert row.topology == f"flattened_butterfly q={q} dims={dims}"


def test_fat_tree_rows():
    row2 = fat_tree2_row(24)
    assert (row2.n, row2.ports, row2.cables) == (36, 288, 288)
    _check_cable_identity(row2)
    row3 = fat_tree3_row(24)
    assert (row3.n, row3.ports, row3.cables) == (720, 3456, 6912)
    _check_cable_identity(row3)
    with pytest.raises(DomainError):
        fat_tree2_row(7)
    with pytest.raises(DomainError):
        fat_tree3_row(7)


def test_dragonfly_row():
    row = dragonfly_row(7)
    assert row.topology == "dragonfly p=2"
    assert (row.n, row.ports, row.cables) == (36, 72, 90)
    _check_cable_identity(row)
    with pytest.raises(DomainError):
        dragonfly_row(8)


def test_alternative_series_dispatch():
    rows = alternative_series("hypercube", 8)
    # Default range covers d=3..12 but the radix admits only d <= 7.
    assert [row.topology for row in rows] == [
        f"hypercube d={d}" for d in range(3, 8)
    ]
    assert len(alternative_series("flattened_butterfly", 32)) == 4
    assert len(alternative_series("fat_tree2", 8)) == 1
    assert len(alternative_series("dragonfly", 11)) == 1
    with pytest.raises(DomainError):
        alternative_series("torus", 8)


def test_cable_identity_across_families(seeded_db):
    rows = []
    rows += lh_series(seeded_db.records(), radix=300)
    rows += alternative_series("hypercube", 256)
    rows += alternative_series("folded_cube", 256)
    rows += alternative_series("flattened_butterfly", 24)
    rows += alternative_series("fat_tree2", 16)
    rows += alternative_series("fat_tree3", 16)
    rows += alternative_series("dragonfly", 19)
    assert len(rows) > 70
    for row in rows:
        _check_cable_identity(row)


def test_versus_hypercube_yield_series(seeded_db):
    rows = versus_hypercube(seeded_db, 256, range(3, 9))
    assert [(r.d, r.lh_yield) for r in rows] == [
        (3, 4), (4, 8), (5, 16), (6, 32), (7, 64), (8, 64),
    ]
    assert all(r.cube_yield == 1 for r in rows)
    assert all(r.ratio == r.lh_yield for r in rows)
    yields = [r.lh_yield for r in rows]
    assert yields == sorted(yields)


def test_versus_hypercube_skips_infeasible_dimensions(seeded_db):
    rows = versus_hypercube(seeded_db, 8, range(3, 9))
    assert all(row.d + 1 <= 8 for row in rows)


def test_to_csv_round_trips_through_the_csv_module(seeded_db):
    rows = lh_series([seeded_db.query(5, 9)], radix=12)
    text = to_csv(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == list(CSV_COLUMNS)
    assert len(parsed) == 2
    record = dict(zip(CSV_COLUMNS, parsed[1]))
    assert record["topology"] == "lh d=5 m=9"
    assert record["ports"] == "96"
    assert record["phi"] == "1/1"
    assert record["phi_dec"] == "1.0"
    assert record["cables_per_port"] == "3/2"
    assert record["cables_per_port_dec"] == "1.5"


def test_to_csv_blank_ratio_for_alternatives():
    text = to_csv([hypercube_row(3, 256)])
    row = list(csv.reader(io.StringIO(text)))[1]
    record = dict(zip(CSV_COLUMNS, row))
    assert record["ratio_vs_lh"] == ""
    assert record["ratio_vs_lh_dec"] == ""


def test_yield_csv(seeded_db):
    text = yield_csv(versus_hypercube(seeded_db, 256, range(3, 5)))
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["d", "n", "m", "lh_yield", "cube_yield", "ratio", "ratio_dec"]
    assert parsed[1] == ["3", "8", "7", "4", "1", "4/1", "4.0"]
