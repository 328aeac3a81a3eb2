"""Requirement matching and wiring-table output."""

import io
import random
from fractions import Fraction

import pytest

from longhop import gf2, graph, soldb
from longhop.designer import WiringTable, find_solution
from longhop.errors import DomainError, LongHopError
from longhop.graph import GeneratorSet
from longhop.soldb import SolutionDB, make_record


@pytest.mark.parametrize(
    "ports,radix,d,m",
    [
        (96, 12, 5, 9),
        (1536, 24, 8, 18),
        (655360, 48, 16, 38),
    ],
)
def test_find_solution_reference_requirements(seeded_db, ports, radix, d, m):
    choice = find_solution(seeded_db, ports, radix)
    assert (choice.record.d, choice.record.m) == (d, m)
    assert choice.ports == ports
    assert choice.phi == Fraction(1)
    assert choice.score == 0
    assert choice.free_ports == radix - m


def test_find_solution_at_least_ports(seeded_db):
    relaxed = find_solution(seeded_db, 100, 12)
    assert (relaxed.record.d, relaxed.record.m) == (5, 9)
    assert relaxed.ports == 96
    strict = find_solution(seeded_db, 100, 12, at_least_ports=True)
    assert strict.ports >= 100
    assert (strict.record.d, strict.record.m) == (6, 10)


def test_find_solution_weights_change_the_pick(seeded_db):
    # All weight on the oversubscription error: the first phi = 1
    # record in (d, m) order wins regardless of port count.
    choice = find_solution(
        seeded_db, 96, 12, weights=(Fraction(0), Fraction(1))
    )
    assert (choice.record.d, choice.record.m) == (4, 8)
    assert choice.phi == Fraction(1)


def test_find_solution_ties_prefer_smaller_networks():
    db = SolutionDB()
    db.add(make_record(GeneratorSet(3, (1, 2, 4, 7)), "small"))
    db.add(make_record(GeneratorSet(4, (1, 2, 4, 8)), "large"))
    # At radix 8 both offer E=4, so a 48-port target sits exactly
    # between their 32 and 64 achievable ports; pure-ports weights make
    # it a genuine tie and the smaller network must win it.
    choice = find_solution(db, 48, 8, weights=(Fraction(1), Fraction(0)))
    assert choice.record.provenance == "small"


def test_find_solution_validation(seeded_db):
    with pytest.raises(DomainError):
        find_solution(seeded_db, 0, 12)
    with pytest.raises(DomainError):
        find_solution(seeded_db, 96, 1)
    with pytest.raises(DomainError):
        find_solution(seeded_db, 96, 12, phi=Fraction(0))
    with pytest.raises(DomainError):
        find_solution(seeded_db, 96, 12, weights=(Fraction(1), Fraction(1)))
    with pytest.raises(DomainError):
        find_solution(SolutionDB(), 96, 12)
    # Radix 3 leaves no record with free ports: every stored m >= 3.
    with pytest.raises(DomainError):
        find_solution(seeded_db, 96, 3)


def test_find_solution_remeasures_the_chosen_b(seeded_db):
    # Reference example 2 (d=8, m=18) has b=6.  A hand edit to b=18 stays
    # in range (b <= m), so the store loads, and the record is still the
    # pick at phi = 1, on a score built on the wrong b.
    text = soldb.dumps(seeded_db)
    assert text.count("record d=8 m=18 b=6 ") == 1
    edited = soldb.loads(text.replace("record d=8 m=18 b=6 ", "record d=8 m=18 b=18 "))
    with pytest.raises(LongHopError) as exc:
        find_solution(edited, 1536, 24)
    assert str(exc.value) == (
        "record (d=8, m=18) stores b=18 but its hops give b=6; run `lh db verify`"
    )
    # The true b=6 record is the pick, at phi = 1 and a score of 0.
    choice = find_solution(seeded_db, 1536, 24)
    assert (choice.record.d, choice.record.m, choice.record.b) == (8, 18, 6)
    assert (choice.phi, choice.score) == (Fraction(1), Fraction(0))


def written(table, lo=0, hi=None):
    buf = io.StringIO()
    table.write(buf, lo, hi)
    return buf.getvalue().splitlines()


def test_wiring_table_golden():
    lines = written(WiringTable(GeneratorSet(3, (1, 2, 4, 7)), radix=6))
    assert len(lines) == 9
    assert lines[0] == "Sw/Pt:\t#1\t#2\t#3\t#4\t#5\t#6"
    # Peers come in hop order, v XOR h_s at port s.
    assert lines[1] == "0:\t1\t2\t4\t7\t**\t**"
    assert lines[6] == "5:\t4\t7\t1\t2\t**\t**"


def test_wiring_table_reference_row(seeded_db):
    rec = seeded_db.query(5, 9)
    table = WiringTable(rec.gens, 12)
    assert written(table, 5, 5)[1] == (
        "5:\t04\t07\t01\t0D\t15\t0B\t0A\t11\t1C\t**\t**\t**"
    )


def test_wiring_ports_pair_up(monkeypatch):
    # 32 rows written in blocks of 3, so the last block is short.
    monkeypatch.setattr(graph, "_ROWS_PER_WRITE", 3)
    rng = random.Random(17)
    while True:
        hops = tuple(rng.sample(range(1, 32), 7))
        if gf2.spans(hops, 5):
            break
    gens = GeneratorSet(5, hops)
    lines = written(WiringTable(gens, radix=9))
    rows = [[int(c, 16) for c in line.split("\t")[1:8]] for line in lines[1:]]
    assert len(rows) == gens.n
    for v, row in enumerate(rows):
        for s, peer in enumerate(row):
            assert rows[peer][s] == v


class Chunks(list):
    """A text stream that keeps each write as one item."""

    write = list.append


@pytest.mark.parametrize("lo,hi", [(0, 0), (2, 9), (5, 0x1F), (0x1F, 0x1F)])
def test_wiring_table_blocks_match_rows_one_at_a_time(
    seeded_db, monkeypatch, lo, hi
):
    monkeypatch.setattr(graph, "_ROWS_PER_WRITE", 3)
    gens = seeded_db.query(5, 9).gens
    stream = Chunks()
    WiringTable(gens, 12).write(stream, lo, hi)
    expected = "Sw/Pt:" + "".join(f"\t#{s}" for s in range(1, 13)) + "\n"
    for v in range(lo, hi + 1):
        cells = [f"{v ^ h:02X}" for h in gens.hops] + ["**"] * 3
        expected += f"{v:X}:\t" + "\t".join(cells) + "\n"
    assert "".join(stream) == expected
    assert len(stream) == 1 + -(-(hi - lo + 1) // 3)


def test_wiring_table_write_ranges():
    table = WiringTable(GeneratorSet(3, (1, 2, 4, 7)), radix=5)
    buf = io.StringIO()
    table.write(buf, 2, 3)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("Sw/Pt:")
    assert lines[1].startswith("2:")
    assert lines[2].startswith("3:")
    assert len(lines) == 3
    with pytest.raises(DomainError):
        table.write(io.StringIO(), 5, 9)
    with pytest.raises(DomainError):
        table.write(io.StringIO(), 3, 2)


def test_wiring_table_needs_free_ports():
    with pytest.raises(DomainError):
        WiringTable(GeneratorSet(3, (1, 2, 4, 7)), radix=4)
