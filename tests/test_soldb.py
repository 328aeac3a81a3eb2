"""Solution store: records, seeding, persistence, and verification."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from longhop import gf2
from longhop.constructions import lh_hd
from longhop.ecc import format_code, hops_to_code
from longhop.errors import DomainError, FormatError
from longhop.graph import GeneratorSet
from longhop.soldb import (
    REFERENCE_EXAMPLES,
    SolutionDB,
    SolutionRecord,
    dumps,
    ingest_code_file,
    load,
    loads,
    make_record,
    seed_defaults,
)

CODE74_TEXT = "1101000\n0110100\n1110010\n1010001\n"


def test_make_record_measures():
    rec = make_record(GeneratorSet(3, (1, 2, 4, 7)), "folded cube")
    assert (rec.d, rec.m, rec.n) == (3, 4, 8)
    assert (rec.b, rec.diameter, rec.total) == (2, 2, 10)
    assert Fraction(rec.total, rec.n) == Fraction(10, 8)
    assert rec.provenance == "folded cube"


def test_reference_example_metrics():
    want = {5: (3, 3, 54), 8: (6, 3, 585), 16: (10, 5, 266187)}
    for provenance, gens in REFERENCE_EXAMPLES:
        rec = make_record(gens, provenance)
        assert (rec.b, rec.diameter, rec.total) == want[rec.d]


def test_add_and_query():
    db = SolutionDB()
    rec = make_record(GeneratorSet(3, (1, 2, 4, 7)), "x")
    db.add(rec)
    assert db.query(3, 4) is rec
    assert db.query(3, 5) is None
    with pytest.raises(DomainError):
        db.add(rec)
    newer = SolutionRecord(rec.gens, rec.b, rec.diameter, rec.total, "y")
    db.add(newer, replace=True)
    assert db.query(3, 4).provenance == "y"


def test_add_bounds():
    db = SolutionDB()
    with pytest.raises(DomainError):
        db.add(make_record(GeneratorSet(2, (1, 2, 3)), "tiny"))
    with pytest.raises(DomainError):
        db.add(make_record(lh_hd(9, 384), "wide"))


def test_records_sorted():
    db = SolutionDB()
    db.add(make_record(GeneratorSet(4, (1, 2, 4, 8, 15)), "b"))
    db.add(make_record(GeneratorSet(3, (1, 2, 4, 7)), "a"))
    db.add(make_record(GeneratorSet(3, (1, 2, 4)), "c"))
    assert [(r.d, r.m) for r in db.records()] == [(3, 3), (3, 4), (4, 5)]


def test_verify_flags_corruption():
    db = SolutionDB()
    good = make_record(GeneratorSet(3, (1, 2, 4, 7)), "ok")
    db.add(good)
    assert db.verify() == []
    wrong = SolutionRecord(
        good.gens, good.b + 1, good.diameter, good.total, good.provenance
    )
    db.add(wrong, replace=True)
    problems = db.verify()
    assert len(problems) == 1
    assert "b: stored 3" in problems[0]


def test_dumps_golden():
    db = SolutionDB()
    db.add(make_record(GeneratorSet(3, (1, 2, 4, 7)), "folded cube"))
    assert dumps(db) == (
        "record d=3 m=4 b=2 diam=2 avg=10/8 prov=folded cube\n1\n2\n4\n7\n"
    )
    assert dumps(SolutionDB()) == ""


def test_dump_load_round_trip(seeded_db, tmp_path):
    text = dumps(seeded_db)
    again = loads(text)
    assert dumps(again) == text
    path = tmp_path / "round.db"
    path.write_text(text)
    loaded = load(path)
    assert len(loaded) == len(seeded_db)
    assert loaded.verify() == []


def test_loads_accepts_crlf(seeded_db):
    text = dumps(seeded_db)
    again = loads(text.replace("\n", "\r\n"))
    assert again.records() == seeded_db.records()
    assert dumps(again) == text


@pytest.mark.parametrize(
    "text",
    [
        "banana d=3 m=4\n1\n2\n4\n7\n",
        "record d=3 m=4 b=2 diam=2 avg=10/8\n1\n2\n4\n7\n",  # missing prov
        "record d=3 m=4 b=2 diam=2 avg=10/9 prov=x\n1\n2\n4\n7\n",
        "record d=3 m=4 b=2 diam=2 avg=10/8 prov=x\n1\n2\n4\n",  # hop count
        "record d=3 m=4 b=2 diam=2 avg=10/8 prov=x\n1\n2\n4\nzz\n",
        "record d=3 m=q b=2 diam=2 avg=10/8 prov=x\n1\n2\n4\n7\n",
    ],
)
def test_loads_rejects(text):
    with pytest.raises(FormatError):
        loads(text)


@pytest.mark.parametrize(
    "old,new",
    [
        ("\n7\n", "\n0x7\n"),
        ("\n7\n", "\n+7\n"),
        ("\n7\n", "\n\uff17\n"),
        ("\n4\n", "\n0_4\n"),
        ("record d=3 ", "record d=\uff13 "),
        (" m=4 ", " m=\u0664 "),
        (" b=2 ", " b=\u0662 "),
        ("avg=10/8", "avg=\uff11\uff10/8"),
    ],
)
def test_loads_reads_ascii_hex_hops_and_decimal_metrics_only(old, new):
    text = "record d=3 m=4 b=2 diam=2 avg=10/8 prov=x\n1\n2\n4\n7\n"
    assert loads(text).query(3, 4).gens.hops == (1, 2, 4, 7)
    edited = text.replace(old, new, 1)
    assert edited != text
    with pytest.raises(FormatError, match="bad hex word|bad record header"):
        loads(edited)


@pytest.mark.parametrize(
    "header,hops,problem",
    [
        ("b=0 diam=2 avg=10/8", "1247", "b=0 is outside [1, 4]"),
        ("b=5 diam=2 avg=10/8", "1247", "b=5 is outside [1, 4]"),
        ("b=2 diam=0 avg=10/8", "1247", "diam=0 is outside [1, 3]"),
        ("b=2 diam=4 avg=10/8", "1247", "diam=4 is outside [1, 3]"),
        ("b=2 diam=2 avg=6/8", "1247", "avg=6/8 is outside [7/8, 14/8]"),
        ("b=2 diam=2 avg=15/8", "1247", "avg=15/8 is outside [7/8, 14/8]"),
        ("b=1 diam=3 avg=12/8", "123", "hops span a rank-2 subspace of d=3"),
    ],
    ids=["b-0", "b-above-m", "diam-0", "diam-above-d", "avg-low", "avg-high",
         "not-spanning"],
)
def test_loads_rejects_a_record_no_hop_set_can_have(header, hops, problem):
    m = len(hops)
    text = f"record d=3 m={m} {header} prov=x\n" + "".join(f"{h}\n" for h in hops)
    with pytest.raises(FormatError) as exc:
        loads(text)
    assert str(exc.value) == f"record (d=3, m={m}): {problem}"


@pytest.mark.parametrize(
    "metrics", [(2.5, 2, 10), (2, 2.0, 10), (2, 2, 10.0), (2, 2, "10")],
    ids=["b", "diameter", "total", "text"],
)
def test_a_record_takes_integer_metrics_only(metrics):
    # loads reads decimal digits only, so a record built with 2.5 could
    # be written to a store but never read back.
    with pytest.raises(DomainError, match="record metrics"):
        SolutionRecord(GeneratorSet(3, (1, 2, 4, 7)), *metrics, "x")


def test_ingest_code_file(tmp_path):
    path = tmp_path / "code74.code"
    path.write_text(CODE74_TEXT)
    db = SolutionDB()
    rec = ingest_code_file(db, path)
    assert (rec.d, rec.m, rec.b) == (4, 7, 3)
    assert rec.provenance == "code translation: code74.code"
    with pytest.raises(DomainError):
        ingest_code_file(db, path)
    rec2 = ingest_code_file(db, path, provenance="named", replace=True)
    assert db.query(4, 7).provenance == "named"
    assert rec2.b == 3


@given(st.text())
@example("x\ny")
@example("a b")
@example("tail\n")
@example("")
def test_a_provenance_is_refused_or_round_trips(prov):
    # The header holds the provenance, so a line break in it would split
    # the record; such a provenance is refused where the record is built.
    try:
        rec = make_record(GeneratorSet(3, (1, 2, 4, 7)), prov)
    except DomainError:
        assert "".join(prov.splitlines()) != prov
        return
    db = SolutionDB()
    db.add(rec)
    assert loads(dumps(db)).records() == [rec]


def test_ingest_a_code_wider_than_63_columns(tmp_path):
    gens = GeneratorSet(7, tuple(range(1, 81)))
    path = tmp_path / "wide.code"
    path.write_text(format_code(hops_to_code(gens)))
    rec = ingest_code_file(SolutionDB(), path)
    assert (rec.gens, rec.m) == (gens, 80)
    words = [0]
    for row in hops_to_code(gens).rows:
        words += [w ^ row for w in words]
    assert rec.b == min(w.bit_count() for w in words[1:])


def test_reference_examples_win_key_ties_and_reseeding_adds_nothing(seeded_db):
    # seed_defaults adds the reference designs before the construction
    # families, so a family rung with the same (d, m) never displaces one.
    for provenance, gens in REFERENCE_EXAMPLES:
        assert seeded_db.query(gens.d, gens.m).provenance == provenance
    db = loads(dumps(seeded_db))
    assert seed_defaults(db) == 0
    assert dumps(db) == dumps(seeded_db)


def test_seed_defaults_population(seeded_db):
    assert len(seeded_db) == 64
    rec = seeded_db.query(5, 9)
    assert rec.provenance == "reference example 1"
    assert seeded_db.query(8, 18).provenance == "reference example 2"
    assert seeded_db.query(16, 38).provenance == "reference example 3"
    # Family coverage for every dimension in the seeded range.
    for d in range(3, 13):
        assert seeded_db.query(d, d) is not None
        assert seeded_db.query(d, d + 1) is not None
    # Ladder rungs past the m bound stay out.
    assert all(r.m <= 256 for r in seeded_db.records())


def test_seed_defaults_is_idempotent(seeded_db):
    db = SolutionDB()
    first = seed_defaults(db)
    assert first == len(db) == 64
    assert seed_defaults(db) == 0
    assert len(db) == 64
    assert dumps(db) == dumps(seeded_db)


@st.composite
def stores(draw):
    # Hops that do not span are drawn and dropped before they are built;
    # metrics are drawn from the ranges a record admits, not measured.
    db = SolutionDB()
    for d in draw(st.lists(st.integers(3, 9), max_size=4)):
        n = 1 << d
        m = draw(st.integers(d, min(n - 1, 24)))
        hops = draw(st.lists(st.integers(1, n - 1), min_size=m,
                             max_size=m, unique=True))
        if db.query(d, m) is not None or not gf2.spans(hops, d):
            continue
        prov = draw(st.text(st.characters(
            blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=20))
        diameter = draw(st.integers(1, d))
        db.add(SolutionRecord(
            gens=GeneratorSet(d, tuple(hops)),
            b=draw(st.integers(1, m)),
            diameter=diameter,
            total=draw(st.integers(n - 1, diameter * (n - 1))),
            provenance=prov,
        ))
    return db


@given(stores())
def test_dumps_loads_round_trip(db):
    text = dumps(db)
    again = loads(text)
    assert again.records() == db.records()
    assert dumps(again) == text
