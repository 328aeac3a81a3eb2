"""Command-line behavior: golden output, files, exit codes, determinism."""

import hashlib
import io
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

# Loaded before any test traces memory, so no traced peak counts its import.
import numpy  # noqa: F401
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import longhop
import oracle
from longhop import bisection, cli, designer, gf2, graph, soldb
from longhop.cli import main
from longhop.constructions import lh_hd, low_density_b3
from longhop.designer import WiringTable
from longhop.ecc import format_code, hops_to_code
from longhop.graph import GeneratorSet, format_hops

FQ3_TEXT = "d=3 q=2\n1\n2\n4\n7\n"
CODE74_TEXT = "1101000\n0110100\n1110010\n1010001\n"


@pytest.fixture()
def fq3_file(tmp_path):
    path = tmp_path / "fq3.hops"
    path.write_text(FQ3_TEXT)
    return str(path)


# b3(18) is the smallest b3 set above graph._PROFILE_INTS, so its
# profile comes from the numpy BFS.
B3_18_METRICS = "diam=10 avg=1702800/262144 (6.49566650390625)\n"


@pytest.fixture()
def b3_18_file(tmp_path):
    path = tmp_path / "b3_18.hops"
    path.write_text(format_hops(low_density_b3(18)))
    return str(path)


@pytest.fixture()
def code74_file(tmp_path):
    path = tmp_path / "code74.code"
    path.write_text(CODE74_TEXT)
    return str(path)


class Chunks(list):
    """A text stream that keeps each write as one item."""

    write = list.append


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bisect(capsys, fq3_file):
    code, out, err = run(capsys, "bisect", fq3_file)
    assert (code, out, err) == (0, "b=2 B=8 t=1\n", "")


def test_bisect_missing_file(capsys):
    code, out, err = run(capsys, "bisect", "no-such-file.hops")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_out_of_memory_is_an_error_line(capsys, monkeypatch, fq3_file):
    def exhausted(args):
        raise MemoryError("Unable to allocate 128. MiB")

    monkeypatch.setattr(cli, "cmd_bisect", exhausted)
    code, out, err = run(capsys, "bisect", fq3_file)
    assert code == 1
    assert out == ""
    assert err == "error: out of memory (Unable to allocate 128. MiB)\n"


def test_bisect_bad_format(capsys, tmp_path):
    bad = tmp_path / "bad.hops"
    bad.write_text("d=3 q=2\n1\n2\n9\n")
    code, _, err = run(capsys, "bisect", str(bad))
    assert code == 1
    assert "error:" in err


def test_oracle(capsys, fq3_file):
    code, out, _ = run(capsys, "oracle", fq3_file)
    assert (code, out) == (0, "B=8 b=2 side=0F\n")


def test_oracle_node_cap_is_fixed(capsys, tmp_path):
    cube5 = tmp_path / "cube5.hops"
    cube5.write_text("d=5 q=2\n1\n2\n4\n8\n10\n")
    code, out, err = run(capsys, "oracle", str(cube5))
    assert (code, out, err) == (1, "", "error: brute force caps n at 16, got n=32\n")
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--max-nodes", "64", str(cube5)])
    assert exc.value.code == 2


def test_metrics(capsys, fq3_file):
    code, out, _ = run(capsys, "metrics", fq3_file)
    assert (code, out) == (0, "diam=2 avg=10/8 (1.25)\n")


def test_spectrum(capsys, fq3_file, tmp_path):
    code, out, _ = run(capsys, "spectrum", fq3_file)
    lines = out.splitlines()
    assert lines[0] == "# k\tlambda\tcut"
    assert lines[1] == "0\t4\t0"
    assert lines[2] == "1\t0\t2"
    assert lines[8] == "7\t-4\t4"
    out_file = tmp_path / "spectrum.tsv"
    code, stdout, _ = run(capsys, "spectrum", fq3_file, "-o", str(out_file))
    assert code == 0
    assert stdout == ""
    assert out_file.read_text() == out


def test_spectrum_blocks_match_rows_one_at_a_time(monkeypatch, tmp_path):
    monkeypatch.setattr(graph, "_ROWS_PER_WRITE", 3)
    hops = (1, 2, 4, 8, 16, 0x1F, 0x0B)
    path = tmp_path / "d5.hops"
    path.write_text("d=5 q=2\n" + "".join(f"{h:X}\n" for h in hops))
    expected = "# k\tlambda\tcut\n" + "".join(
        f"{k:02X}\t{len(hops) - 2 * c}\t{c}\n"
        for k, c in enumerate(oracle.cut_counts(5, hops))
    )
    stdout = Chunks()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["spectrum", str(path)]) == 0
    assert "".join(stdout) == expected
    # The header, then 32 rows in blocks of 3.
    assert len(stdout) == 1 + 11
    out_file = tmp_path / "d5.tsv"
    assert main(["spectrum", str(path), "-o", str(out_file)]) == 0
    assert out_file.read_text() == expected


def test_spectrum_memory_per_node(tmp_path):
    # The counts come from cut_blocks 2^16 at a time, and rows are built
    # as bytes from a template and written one block at a time, so nothing
    # grows with n; holding the whole table as ints or text would.
    path = tmp_path / "b3_18.hops"
    path.write_text(format_hops(low_density_b3(18)))
    out_file = tmp_path / "b3_18.tsv"
    tracemalloc.start()
    try:
        code = main(["spectrum", str(path), "-o", str(out_file)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 << 18
    with open(out_file) as fh:
        assert sum(1 for _ in fh) == 1 + (1 << 18)


# sha256 of the bytes `lh spectrum` and `lh wire` printed with one `%`
# template per row, before the byte-table emitter replaced it; those of
# hd(14, 8192) and b3(17) are of the byte-table emitter's output, before
# the sets up to cli._SPECTRUM_LANES nodes took the lanes.
TABLE_DIGESTS = {
    "spectrum b3(16)":
        "bc5a6e7cafd54fcfe06da99fdd3c944c0c19181300a3e44ed270eda1c929cf18",
    "spectrum (16,38)":
        "fce946163d2a8f6149e4170ddc81f49d6b521238782cf97769f424896b25d775",
    "spectrum hd(14, 8192)":
        "a92f10e1b6e09dcf1dd472fcc7f5a4b40b2373776ab271a45333a4e658325ab5",
    "spectrum b3(17)":
        "00fa4926209dca44c2f2647fc229323a5f745e0a703852fd2a6931509b1bc63f",
    "wire (16,38) -R 48":
        "c8b2ad42be75c49ebeedc8cdd46aab2f5923f41affe8bf733f2bb999cab175b2",
}


@pytest.mark.parametrize("table", TABLE_DIGESTS)
def test_table_digests(capsys, seeded_db, db_path, tmp_path, table):
    hops_file = tmp_path / "set.hops"
    if table == "spectrum b3(16)":
        gens = low_density_b3(16)
    elif table == "spectrum hd(14, 8192)":
        gens = lh_hd(14, 8192)
    elif table == "spectrum b3(17)":
        gens = low_density_b3(17)
    else:
        gens = seeded_db.query(16, 38).gens
    hops_file.write_text(format_hops(gens))
    if table.startswith("spectrum"):
        argv = ["spectrum", str(hops_file)]
    else:
        argv = ["wire", "--record", "16,38", "-R", "48", "--db", str(db_path)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    out_file = tmp_path / "table.tsv"
    assert main([*argv, "-o", str(out_file)]) == 0
    assert out_file.read_bytes() == out.encode()
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == TABLE_DIGESTS[table]


@pytest.mark.parametrize("d", range(1, cli._SPECTRUM_LANES.bit_length()))
def test_the_lane_writer_matches_the_numpy_writer(capsys, monkeypatch, tmp_path, d):
    # Up to the bound, a seeded random spanning set and every nonzero
    # word (m = n - 1, where lambda_k = -1 for every k but 0), through
    # the lanes and through cut_blocks and write_table, to stdout and -o.
    n, lanes = 1 << d, cli._SPECTRUM_LANES
    rng = random.Random(d)
    while True:
        hops = rng.sample(range(1, n), rng.randint(d, n - 1))
        if gf2.spans(hops, d):
            break
    for gens in (GeneratorSet(d, hops), GeneratorSet(d, range(1, n))):
        hops_file = tmp_path / "set.hops"
        hops_file.write_text(format_hops(gens))
        tables = []
        for bound in (lanes, 0):
            monkeypatch.setattr(cli, "_SPECTRUM_LANES", bound)
            code, out, err = run(capsys, "spectrum", str(hops_file))
            assert (code, err) == (0, "")
            out_file = tmp_path / f"{bound}.tsv"
            assert main(["spectrum", str(hops_file), "-o", str(out_file)]) == 0
            assert out_file.read_bytes() == out.encode()
            tables.append(out)
        assert tables[0] == tables[1]
        assert tables[0].count("\n") == 1 + n


# sha256 of the bytes `lh diag` printed on each family, one run after
# another, while diagonalize also built the map it used.
DIAG_DIGESTS = {
    "b3(3..24)":
        "7a0482a31e0add0ccb42908669905e18edbddc79312b154f5e4909e26ba3614d",
    "seeded records":
        "f59500b45fcf7bf051f0c312088320fb42053bbf0edcbc6fb04bd69112121eb7",
}


@pytest.mark.parametrize("family", DIAG_DIGESTS)
def test_diag_digests(capsys, seeded_db, tmp_path, family):
    if family == "b3(3..24)":
        sets = [low_density_b3(d) for d in range(3, 25)]
    else:
        sets = [rec.gens for rec in seeded_db.records()]
        assert len(sets) == 64
    digest = hashlib.sha256()
    hops_file = tmp_path / "set.hops"
    for gens in sets:
        hops_file.write_text(format_hops(gens))
        code, out, err = run(capsys, "diag", str(hops_file))
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest() == DIAG_DIGESTS[family]


@pytest.mark.parametrize("rows", ["F..10", "FF..100", "FFF..1000"])
def test_wire_rows_across_label_widths(capsys, seeded_db, db_path, tmp_path, rows):
    argv = ["wire", "--record", "16,38", "-R", "48", "--rows", rows, "--db", str(db_path)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    lo, hi = (int(x, 16) for x in rows.split(".."))
    assert out == oracle.wiring_table(16, seeded_db.query(16, 38).gens.hops, 48, lo, hi)
    out_file = tmp_path / "rows.tsv"
    assert main([*argv, "-o", str(out_file)]) == 0
    assert out_file.read_bytes() == out.encode()


@st.composite
def table_cases(draw):
    """A spanning set with d = 1..12, a radix of m + 1..m + 40, a row
    range, and a write budget.  The range crosses a multiple of 16^j
    when the table has one: a label-width boundary at 16^j, else a
    boundary of the template's period where the high digits change.  The
    budget is often small enough that the template holds fewer than n
    rows, so that spectrum labels have high digits, which at the default
    they have only past d = 12."""
    d = draw(st.integers(1, 12))
    n = 1 << d
    m = draw(st.integers(d, min(n - 1, d + 24)))
    hops = draw(st.lists(st.integers(1, n - 1), min_size=m, max_size=m, unique=True))
    assume(gf2.spans(hops, d))
    radix = draw(st.integers(m + 1, m + 40))
    edges = [q << 4 * j for j in (1, 2, 3) for q in range(1, 16) if q << 4 * j < n]
    if edges and draw(st.booleans()):
        edge = draw(st.sampled_from(edges))
        lo = draw(st.integers(max(0, edge - 20), edge - 1))
        hi = draw(st.integers(edge, min(n - 1, edge + 20)))
    else:
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo, n - 1))
    budget = draw(st.sampled_from([graph._BYTES_PER_WRITE, 1 << 12, 1 << 9, 64, 1]))
    return GeneratorSet(d, tuple(hops)), radix, lo, hi, budget


# No shrink phase: every example writes whole tables through main, so
# shrinking a failure would run for many minutes; the first failing
# example is reported as drawn.
@settings(
    deadline=None, max_examples=80,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(table_cases())
def test_tables_match_the_percent_referee(tmp_path_factory, case):
    # Odd and even m, and cuts past m/2, so lambda = m - 2 cut goes negative.
    # The stdout table comes from the lanes, the -o table from write_table.
    gens, radix, lo, hi, budget = case
    work = tmp_path_factory.mktemp("tables")
    hops_file = work / "set.hops"
    hops_file.write_text(format_hops(gens))
    stdout, wiring = io.StringIO(), io.StringIO()
    with mock.patch.object(graph, "_ROWS_PER_WRITE", 3), \
            mock.patch.object(graph, "_BYTES_PER_WRITE", budget):
        with redirect_stdout(stdout):
            assert main(["spectrum", str(hops_file)]) == 0
        with mock.patch.object(cli, "_SPECTRUM_LANES", 0):
            assert main(["spectrum", str(hops_file), "-o", str(work / "s.tsv")]) == 0
        WiringTable(gens, radix).write(wiring, lo, hi)
    cuts = oracle.cut_counts(gens.d, gens.hops)
    want = oracle.spectrum_table(gens.d, gens.m, cuts)
    assert stdout.getvalue() == want
    assert (work / "s.tsv").read_bytes() == want.encode()
    assert wiring.getvalue() == oracle.wiring_table(gens.d, gens.hops, radix, lo, hi)


def traced_peak(argv):
    """Exit code and tracemalloc peak of main(argv)."""
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wire_memory_does_not_grow_with_n(db_path, tmp_path):
    # The 65,536-row table is 14.8 MB; it goes out in blocks of at most
    # graph._BYTES_PER_WRITE bytes, so the store and a few blocks make
    # the peak, as they would at any n.
    out_file = tmp_path / "wires.tsv"
    code, peak = traced_peak([
        "wire", "--record", "16,38", "-R", "48", "--db", str(db_path), "-o", str(out_file),
    ])
    assert code == 0
    assert out_file.stat().st_size > 14 << 20
    assert peak < 1 << 20


def test_spectrum_memory_does_not_grow_with_n(tmp_path):
    # lh spectrum writes each block of cut counts as it is counted, so
    # its peak is a block's arrays and a write's rows at d = 18 as at
    # d = 20 (the full spectrum traced 2.9 and 11 MB).
    for d in (18, 20):
        hops_file = tmp_path / f"b3_{d}.hops"
        hops_file.write_text(format_hops(low_density_b3(d)))
        code, peak = traced_peak(["spectrum", str(hops_file), "-o", str(tmp_path / "s.tsv")])
        assert code == 0
        assert peak < 2 << 20


@pytest.mark.parametrize("bits", [1, 2, 4])
def test_spectrum_streams_cut_blocks_of_any_size(monkeypatch, tmp_path, bits):
    # Blocks of 2, 4 or 16 cut counts against writes of 3 rows: the
    # writes start over at each block.  n = 128 would take the lanes.
    monkeypatch.setattr(cli, "_SPECTRUM_LANES", 0)
    monkeypatch.setattr(bisection, "_CUT_BITS", bits)
    monkeypatch.setattr(graph, "_ROWS_PER_WRITE", 3)
    gens = low_density_b3(7)
    hops_file = tmp_path / "b3_7.hops"
    hops_file.write_text(format_hops(gens))
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main(["spectrum", str(hops_file)]) == 0
    cuts = oracle.cut_counts(gens.d, gens.hops)
    assert stdout.getvalue() == oracle.spectrum_table(gens.d, gens.m, cuts)


def test_wire_blocks_are_bounded_in_bytes(db_path, tmp_path):
    # At radix 100000 a row of record (5,9) is 300 KB and its 32 rows are
    # 9.6 MB.  A block holds one such row, so the whole table peaks no
    # higher than its first row alone.  The 690 KB header goes out 4096
    # ports at a time; one string per port would trace about 7 MB.
    peaks = {}
    for rows in ("0..1F", "0..0"):
        code, peaks[rows] = traced_peak([
            "wire", "--record", "5,9", "-R", "100000", "--rows", rows,
            "--db", str(db_path), "-o", str(tmp_path / f"{rows}.tsv"),
        ])
        assert code == 0
    assert (tmp_path / "0..1F.tsv").stat().st_size > 32 * 300_000
    assert peaks["0..1F"] < peaks["0..0"] + (1 << 20)
    assert peaks["0..0"] < 3 << 20


def test_translate_both_ways(capsys, code74_file, tmp_path):
    code, out, _ = run(capsys, "translate", "--to-hops", code74_file)
    assert code == 0
    assert out == "d=4 q=2\n1\n2\n4\n8\n7\nE\nB\n"
    hops_file = tmp_path / "code74.hops"
    hops_file.write_text(out)
    code, out, _ = run(capsys, "translate", "--to-code", str(hops_file))
    assert (code, out) == (0, CODE74_TEXT)


def test_translate_codes_wider_than_63_columns(capsys, tmp_path):
    rung = tmp_path / "hd8.hops"
    rung.write_text(format_hops(lh_hd(8, 128)))
    matrix = tmp_path / "hd8.code"
    code, out, err = run(capsys, "translate", "--to-code", str(rung), "-o", str(matrix))
    assert (code, out, err) == (0, "", "")
    assert [len(row) for row in matrix.read_text().splitlines()] == [128] * 8
    code, out, _ = run(capsys, "translate", "--to-hops", str(matrix))
    assert (code, out) == (0, rung.read_text())


def test_translate_needs_exactly_one_direction(code74_file):
    with pytest.raises(SystemExit) as exc:
        main(["translate", "--to-hops", code74_file, "--to-code", code74_file])
    assert exc.value.code == 2


def test_build_hd(capsys):
    code, out, _ = run(capsys, "build", "hd", "-d", "3", "-m", "4")
    assert (code, out) == (0, "d=3 q=2\n7\n6\n5\n4\n")


def test_build_b3(capsys):
    code, out, _ = run(capsys, "build", "b3", "-d", "4")
    assert (code, out) == (0, "d=4 q=2\n1\n2\n4\n8\n7\nB\nD\n")
    code, out, _ = run(capsys, "build", "b3", "-d", "3", "--columns", "3,5,7")
    assert (code, out) == (0, "d=3 q=2\n1\n2\n4\n3\n5\n7\n")


def test_build_mesh(capsys):
    code, out, _ = run(capsys, "build", "mesh", "-d", "2")
    assert (code, out) == (0, "d=2 q=2\n1\n2\n3\n")


def test_build_augment(capsys, tmp_path):
    cube = tmp_path / "cube.hops"
    cube.write_text("d=3 q=2\n1\n2\n4\n")
    code, out, _ = run(capsys, "build", "augment", str(cube))
    assert (code, out) == (0, "d=3 q=2\n1\n2\n4\n7\n")


def test_build_augment_rejects_even_b(capsys, fq3_file):
    code, _, err = run(capsys, "build", "augment", fq3_file)
    assert code == 1
    assert "even" in err


def test_diag(capsys, tmp_path):
    scrambled = tmp_path / "scrambled.hops"
    scrambled.write_text("d=3 q=2\n7\n6\n5\n3\n")
    code, out, _ = run(capsys, "diag", str(scrambled))
    assert code == 0
    lines = out.splitlines()
    assert lines[1:4] == ["1", "2", "4"]


def test_compare_keeps_the_d0_rows(capsys):
    code, out, _ = run(
        capsys, "compare", "--family", "hypercube", "-R", "16", "--sizes", "0..0"
    )
    assert (code, out.splitlines()[1]) == (
        0, "hypercube d=0,1,16,0/1,1,1/1,1.0,0,0/1,0.0,1/1,1.0,,,P=n (E=b=1); C=nd/2"
    )
    code, out, _ = run(
        capsys, "compare", "--family", "folded_cube", "-R", "16", "--sizes", "0..0"
    )
    assert (code, out.splitlines()[1]) == (
        0, "folded_cube d=0,1,16,1/1,2,2/1,2.0,0,0/1,0.0,1/1,1.0,,,P=2n (E=b=2); C=n(d+1)/2"
    )


def test_db_seed_list_verify(capsys, tmp_path):
    db = tmp_path / "lh.db"
    code, out, _ = run(capsys, "db", "seed", "--db", str(db))
    assert code == 0
    assert out == f"seeded 64 records into {db}\n"

    code, _, err = run(capsys, "db", "seed", "--db", str(db))
    assert code == 1
    assert "--force" in err
    code, _, _ = run(capsys, "db", "seed", "--db", str(db), "--force")
    assert code == 0

    code, out, _ = run(capsys, "db", "list", "--db", str(db))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 64
    assert lines[0] == "d=3 m=3 b=1 diam=3 avg=12/8 prov=hypercube"

    code, out, _ = run(capsys, "db", "verify", "--db", str(db))
    assert (code, out) == (0, "ok: 64 records verified\n")


def test_db_verify_catches_tampering(capsys, tmp_path):
    db = tmp_path / "lh.db"
    db.write_text("record d=3 m=4 b=3 diam=2 avg=10/8 prov=wrong\n1\n2\n4\n7\n")
    code, out, err = run(capsys, "db", "verify", "--db", str(db))
    assert code == 1
    assert err == "error: (d=3, m=4) b: stored 3, recomputed 2\n"


def test_db_env_variable(capsys, tmp_path, monkeypatch):
    db = tmp_path / "env.db"
    monkeypatch.setenv("LH_DB", str(db))
    code, _, _ = run(capsys, "db", "seed")
    assert code == 0
    assert db.exists()
    code, out, _ = run(capsys, "db", "list")
    assert code == 0
    assert len(out.splitlines()) == 64


def test_db_ingest(capsys, tmp_path, code74_file):
    db = tmp_path / "lh.db"
    code, out, _ = run(capsys, "db", "ingest", code74_file, "--db", str(db))
    assert code == 0
    assert out == f"ingested d=4 m=7 b=3 into {db}\n"
    code, _, err = run(capsys, "db", "ingest", code74_file, "--db", str(db))
    assert code == 1
    assert "already present" in err
    code, _, _ = run(
        capsys, "db", "ingest", code74_file, "--db", str(db),
        "--replace", "--prov", "renamed",
    )
    assert code == 0
    _, out, _ = run(capsys, "db", "list", "--db", str(db))
    assert out == "d=4 m=7 b=3 diam=3 avg=24/16 prov=renamed\n"


def test_db_ingest_refuses_a_provenance_with_a_line_break(
    capsys, tmp_path, code74_file
):
    db = tmp_path / "lh.db"
    run(capsys, "db", "ingest", code74_file, "--db", str(db))
    before = db.read_bytes()
    code, out, err = run(
        capsys, "db", "ingest", code74_file, "--db", str(db),
        "--replace", "--prov", "x\ny",
    )
    assert (code, out) == (1, "")
    assert err == "error: provenance 'x\\ny' holds a line break\n"
    assert db.read_bytes() == before
    code, out, _ = run(capsys, "db", "list", "--db", str(db))
    assert code == 0
    assert out == "d=4 m=7 b=3 diam=3 avg=24/16 prov=code translation: code74.code\n"


CODE74_HOPS = graph.GeneratorSet(4, (1, 2, 4, 8, 7, 0xE, 0xB))


@pytest.mark.parametrize("gens, line, options", [
    (graph.GeneratorSet(9, tuple(range(1, 258))), "m=257 is above the store bound 256", ()),
    (graph.GeneratorSet(2, (1, 2, 3)), "d=2 is below the store bound 3", ()),
    # The store already holds (4, 7): the code is refused for its key, or
    # for its provenance even where it may replace the record.
    (CODE74_HOPS, "record (d=4, m=7) already present", ()),
    (CODE74_HOPS, "provenance 'x\\ny' holds a line break", ("--replace", "--prov", "x\ny")),
])
def test_db_ingest_refuses_out_of_bounds_codes_before_measuring(
    capsys, monkeypatch, tmp_path, code74_file, gens, line, options
):
    db = tmp_path / "lh.db"
    run(capsys, "db", "ingest", code74_file, "--db", str(db))
    before = db.read_bytes()
    path = tmp_path / "wide.code"
    path.write_text(format_code(hops_to_code(gens)))

    def unmeasured(*args):
        raise AssertionError("make_record ran for a code the store refuses")

    monkeypatch.setattr(soldb, "make_record", unmeasured)
    code, out, err = run(capsys, "db", "ingest", str(path), "--db", str(db), *options)
    assert (code, out, err) == (1, "", f"error: {line}\n")
    assert db.read_bytes() == before


def test_design(capsys, db_path):
    code, out, _ = run(
        capsys, "design", "-P", "96", "-R", "12", "--db", str(db_path)
    )
    assert code == 0
    assert out == (
        "d=5 m=9 b=3 n=32 prov=reference example 1\n"
        "ports=96 free=3 phi=1/1 (1.0) score=0/1 (0.0)\n"
    )


def test_design_missing_db(capsys, tmp_path):
    code, _, err = run(
        capsys, "design", "-P", "96", "-R", "12",
        "--db", str(tmp_path / "absent.db"),
    )
    assert code == 1
    assert "db seed" in err


def test_wire(capsys, db_path, tmp_path):
    code, out, _ = run(
        capsys, "wire", "--record", "5,9", "-R", "12",
        "--rows", "5..5", "--db", str(db_path),
    )
    assert code == 0
    assert out == (
        "Sw/Pt:\t#1\t#2\t#3\t#4\t#5\t#6\t#7\t#8\t#9\t#10\t#11\t#12\n"
        "5:\t04\t07\t01\t0D\t15\t0B\t0A\t11\t1C\t**\t**\t**\n"
    )
    out_file = tmp_path / "wires.tsv"
    code, stdout, _ = run(
        capsys, "wire", "--record", "5,9", "-R", "12",
        "--rows", "5..5", "--db", str(db_path), "-o", str(out_file),
    )
    assert (code, stdout) == (0, "")
    assert out_file.read_text() == out


def test_wire_errors(capsys, db_path):
    code, _, err = run(
        capsys, "wire", "--record", "5;9", "-R", "12", "--db", str(db_path)
    )
    assert code == 1 and "d,m" in err
    code, _, err = run(
        capsys, "wire", "--record", "5,7", "-R", "12", "--db", str(db_path)
    )
    assert code == 1 and "no record" in err
    code, _, err = run(
        capsys, "wire", "--record", "5,9", "-R", "12",
        "--rows", "banana", "--db", str(db_path),
    )
    assert code == 1 and "range" in err


def test_wire_bad_rows_leave_the_output_file_alone(capsys, db_path, tmp_path):
    out_file = tmp_path / "wires.tsv"
    out_file.write_text("keep")
    code, out, err = run(
        capsys, "wire", "--record", "5,9", "-R", "12", "--rows", "0..FF",
        "--db", str(db_path), "-o", str(out_file),
    )
    assert (code, out, err) == (1, "", "error: row range 0..255 out of [0, 31]\n")
    assert out_file.read_text() == "keep"


class FailingStream:
    """Passes the first `left` writes on to `stream`, then runs out of memory."""

    def __init__(self, stream, left):
        self.stream, self.left = stream, left

    def write(self, text):
        if not self.left:
            raise MemoryError
        self.left -= 1
        self.stream.write(text)


@pytest.mark.parametrize("command", ["spectrum", "wire"])
def test_output_file_is_replaced_only_once_complete(
    capsys, monkeypatch, db_path, fq3_file, tmp_path, command
):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out_file = out_dir / "table.tsv"
    out_file.write_text("keep")
    out_file.chmod(0o640)
    argv = {
        "spectrum": ["spectrum", fq3_file],
        "wire": ["wire", "--record", "5,9", "-R", "12", "--db", str(db_path)],
    }[command]
    # Three rows per write; the third block of rows fails.
    monkeypatch.setattr(graph, "_ROWS_PER_WRITE", 3)
    # cmd_spectrum looks its writer up in graph when it runs; fq3 takes
    # the lanes.
    if command == "spectrum":
        owner, name = graph, "write_lanes"
    else:
        owner, name = designer, "write_table"
    write = getattr(owner, name)
    with monkeypatch.context() as patch:
        patch.setattr(owner, name, lambda stream, *args, **kwargs: write(
            FailingStream(stream, 2), *args, **kwargs
        ))
        code, out, err = run(capsys, *argv, "-o", str(out_file))
    assert (code, out, err) == (1, "", "error: out of memory\n")
    assert out_file.read_text() == "keep"
    assert os.listdir(out_dir) == ["table.tsv"]
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert main([*argv, "-o", str(out_file)]) == 0
    assert out_file.read_text() == out
    assert os.listdir(out_dir) == ["table.tsv"]
    assert out_file.stat().st_mode & 0o777 == 0o640
    # A new file gets the permissions open() would give it.
    new_file = out_dir / "new.tsv"
    assert main([*argv, "-o", str(new_file)]) == 0
    umask = os.umask(0)
    os.umask(umask)
    assert new_file.stat().st_mode & 0o777 == 0o666 & ~umask
    # A device cannot be replaced, so it is written in place.
    assert main([*argv, "-o", os.devnull]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "-P", "96", "-R", "12", "--phi", "abc"],
        ["design", "-P", "96", "-R", "12", "--phi", "1/0"],
        ["design", "-P", "96", "-R", "12", "--weights", "a,b"],
        ["build", "b3", "-d", "5", "--columns", "zz,3"],
        # int(x, 16) takes each of these; the hex grammar does not.
        ["build", "b3", "-d", "3", "--columns", "0x3,5,6"],
        ["build", "b3", "-d", "3", "--columns", "3,+5,6"],
        ["build", "b3", "-d", "3", "--columns", "3,5,\uff16"],
        ["wire", "--record", "5,9", "-R", "12", "--rows", "0x0..0x1"],
        ["wire", "--record", "5,9", "-R", "12", "--rows", "0..1_0"],
        ["build", "hd", "-d", "-3", "-m", "1"],
        # Refused before 2^24 hops are built.
        ["build", "hd", "-d", "25", "-m", str(1 << 24)],
        ["build", "mesh", "-d", "-1"],
        ["compare", "--family", "hypercube", "-R", "16", "--sizes=-1..2"],
        ["compare", "--family", "folded_cube", "-R", "16", "--sizes=-1..2"],
        # int() reads each of these; the decimal options take ASCII digits
        # alone.
        ["build", "hd", "-d", "\uff13", "-m", "4"],
        ["build", "hd", "-d", "3", "-m", "4_0"],
        ["build", "mesh", "-d", "+3"],
        ["design", "-P", " 96", "-R", "12"],
        ["design", "-P", "96", "-R", "1_2"],
        ["wire", "--record", "5,\uff19", "-R", "12"],
        ["wire", "--record", "5, 9", "-R", "12"],
        ["wire", "--record", "5,9", "-R", "+12"],
        ["compare", "--family", "hypercube", "-R", "1_6"],
        ["compare", "--family", "hypercube", "-R", "16", "--sizes", "1..\uff12"],
    ],
)
def test_bad_numeric_options_are_error_lines(db_path, argv):
    if argv[0] in ("design", "wire"):
        argv = [*argv, "--db", str(db_path)]
    proc = child([sys.executable, "-m", "longhop.cli", *argv])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_design_rejects_a_hand_edited_b(capsys, db_path, tmp_path):
    edited = tmp_path / "edited.db"
    text = db_path.read_text()
    edited.write_text(text.replace("record d=8 m=18 b=6 ", "record d=8 m=18 b=18 "))
    code, out, err = run(
        capsys, "design", "-P", "1536", "-R", "24", "--db", str(edited)
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: record (d=8, m=18) stores b=18 but its hops give b=6; "
        "run `lh db verify`\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["bisect"],
        ["metrics"],
        ["spectrum"],
        ["oracle"],
        ["diag"],
        ["translate", "--to-code"],
        ["build", "augment"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_every_command_refuses_hops_that_do_not_span(capsys, tmp_path, argv):
    path = tmp_path / "split.hops"
    path.write_text("d=3 q=2\n1\n2\n3\n")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out, err) == (
        1, "", "error: hops span a rank-2 subspace of d=3\n"
    )


# Seeded-store edits to metrics or hops that no record can have, and the
# one error line that loading the edited store gives.
IMPOSSIBLE_RECORDS = [
    ("record d=3 m=7 b=4 ", "record d=3 m=7 b=0 ",
     "record (d=3, m=7): b=0 is outside [1, 7]"),
    ("record d=3 m=7 b=4 ", "record d=3 m=7 b=-4 ",
     "record (d=3, m=7): b=-4 is outside [1, 7]"),
    ("record d=8 m=18 b=6 ", "record d=8 m=18 b=60 ",
     "record (d=8, m=18): b=60 is outside [1, 18]"),
    ("m=7 b=4 diam=1 ", "m=7 b=4 diam=-1 ",
     "record (d=3, m=7): diam=-1 is outside [1, 3]"),
    ("m=7 b=4 diam=1 avg=7/8 ", "m=7 b=4 diam=1 avg=-5/8 ",
     "record (d=3, m=7): avg=-5/8 is outside [7/8, 7/8]"),
    ("m=3 b=1 diam=3 avg=12/8 prov=hypercube\n1\n2\n4\n",
     "m=3 b=1 diam=3 avg=12/8 prov=hypercube\n1\n2\n3\n",
     "record (d=3, m=3): hops span a rank-2 subspace of d=3"),
]


@pytest.mark.parametrize(
    "argv",
    [
        ["db", "list"],
        ["db", "verify"],
        ["design", "-P", "96", "-R", "12"],
        ["compare", "--family", "lh", "-R", "16"],
        ["compare", "--family", "lh_vs_hypercube", "-R", "16"],
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_impossible_stored_records_are_load_errors(capsys, db_path, tmp_path, argv):
    text = db_path.read_text()
    for old, new, problem in IMPOSSIBLE_RECORDS:
        assert text.count(old) == 1
        edited = tmp_path / "edited.db"
        edited.write_text(text.replace(old, new))
        code, out, err = run(capsys, *argv, "--db", str(edited))
        assert (code, out, err) == (1, "", f"error: {problem}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["bisect"], ["metrics"], ["spectrum"], ["oracle"], ["diag"],
        ["translate", "--to-code"], ["build", "augment"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_a_hop_file_that_is_not_utf8_is_an_error_line(capsys, tmp_path, argv):
    path = tmp_path / "bom.hops"
    path.write_bytes(b"\xff\xfe" + FQ3_TEXT.encode())
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out, err) == (1, "", f"error: {path}: byte 0 is not UTF-8\n")


@pytest.mark.parametrize("argv", [["translate", "--to-hops"], ["db", "ingest"]])
def test_a_code_file_that_is_not_utf8_is_an_error_line(capsys, tmp_path, argv):
    path = tmp_path / "bom.code"
    path.write_bytes(b"\xff\xfe" + CODE74_TEXT.encode())
    db = tmp_path / "lh.db"
    extra = ["--db", str(db)] if argv[0] == "db" else []
    code, out, err = run(capsys, *argv, str(path), *extra)
    assert (code, out, err) == (1, "", f"error: {path}: byte 0 is not UTF-8\n")
    assert not db.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["db", "list"],
        ["db", "verify"],
        ["db", "ingest", "CODE"],
        ["design", "-P", "96", "-R", "12"],
        ["wire", "--record", "5,9", "-R", "12"],
        ["compare", "--family", "lh", "-R", "16"],
        ["compare", "--family", "lh_vs_hypercube", "-R", "16"],
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_a_store_that_is_not_utf8_is_an_error_line(
    capsys, db_path, code74_file, tmp_path, argv
):
    # One Latin-1 byte typed into a hand-edited store.
    edited = tmp_path / "edited.db"
    edited.write_bytes(db_path.read_bytes() + b"\xff")
    argv = [code74_file if a == "CODE" else a for a in argv]
    code, out, err = run(capsys, *argv, "--db", str(edited))
    offset = len(db_path.read_bytes())
    assert (code, out, err) == (1, "", f"error: {edited}: byte {offset} is not UTF-8\n")


def test_the_store_is_read_and_written_as_utf8_whatever_the_locale(
    db_path, tmp_path, code74_file
):
    # Under the C locale, with UTF-8 mode and locale coercion off, open()
    # reads and writes ASCII; a store whose provenance holds an accented
    # letter is read and written back as UTF-8 all the same.
    edited = tmp_path / "edited.db"
    text = db_path.read_text()
    edited.write_bytes(text.replace("prov=hypercube\n", "prov=caf\u00e9\n", 1).encode())
    env = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = child([
        sys.executable, "-m", "longhop.cli", "db", "ingest", code74_file,
        "--prov", "Hamming", "--replace", "--db", str(edited),
    ], env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert edited.read_bytes().count("prov=caf\u00e9\n".encode()) == 1


def test_a_provenance_that_is_not_utf8_is_an_error_line(db_path, code74_file):
    # Under the C locale, with UTF-8 mode off, Python turns the bytes of
    # an accented argument into lone surrogates, which no UTF-8 store can
    # hold: one error line, and the store keeps its bytes.
    before = db_path.read_bytes()
    env = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = child([
        sys.executable, "-m", "longhop.cli", "db", "ingest", code74_file,
        "--prov", "caf\u00e9", "--replace", "--db", str(db_path),
    ], env=env)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: provenance ")
    assert proc.stderr.endswith(" is not UTF-8 text\n")
    assert proc.stderr.count("\n") == 1
    assert db_path.read_bytes() == before


def test_compare_family_csv(capsys):
    code, out, _ = run(
        capsys, "compare", "--family", "hypercube", "-R", "256",
        "--sizes", "3..4",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("topology,n,radix")
    assert lines[1].startswith("hypercube d=3,8,256")
    assert len(lines) == 3


@pytest.mark.parametrize(
    "family,radix,sizes",
    [
        # Each would print a number past Python's 4,300-digit str limit.
        ("hypercube", "20000", "14300..14300"),
        ("folded_cube", "20000", "14300..14300"),
        ("flattened_butterfly", "100000", "5000..5000"),
        # A hundred million rows.
        ("hypercube", "16", "1..100000000"),
        ("lh", "16", "25..25"),
        ("hypercube", "16", "-1..3"),
    ],
)
def test_compare_refuses_sizes_past_the_dimension_cap(capsys, family, radix, sizes):
    argv = ["compare", "--family", family, "-R", radix, f"--sizes={sizes}"]
    code, out, err = run(capsys, *argv)
    want = f"error: --sizes must lie in 0..24, got {sizes}\n"
    assert (code, out, err) == (1, "", want)


@pytest.mark.parametrize(
    "family,radix,sizes",
    [
        # A float overflow in the decimal columns.
        ("fat_tree3", "1" + "0" * 400, None),
        # 24 dimensions of q = 4 10^198 switches: a 4,767-digit n.
        ("flattened_butterfly", "1" + "0" * 200, "24..24"),
        ("lh", "1" + "0" * 100 + "1", None),
    ],
)
def test_compare_refuses_a_radix_too_long_to_print(capsys, family, radix, sizes):
    argv = ["compare", "--family", family, "-R", radix]
    code, out, err = run(capsys, *argv, *(["--sizes", sizes] if sizes else []))
    want = "error: -R above 10^100 gives numbers too long to print\n"
    assert (code, out, err) == (1, "", want)


def test_compare_prints_every_family_at_the_largest_radix(capsys, db_path):
    radix = str(10**100)
    runs = [
        [family, "-R", radix]
        for family in ("hypercube", "folded_cube", "fat_tree2", "fat_tree3")
    ] + [
        ["flattened_butterfly", "-R", radix, "--sizes", "1..24"],
        # A balanced dragonfly needs a radix of 3 mod 4.
        ["dragonfly", "-R", str(10**100 - 1)],
        ["lh", "-R", radix, "--db", str(db_path)],
        ["lh_vs_hypercube", "-R", radix, "--db", str(db_path)],
    ]
    for family, *argv in runs:
        code, out, err = run(capsys, "compare", "--family", family, *argv)
        assert (code, err) == (0, "") and out.count("\n") > 1


@pytest.mark.parametrize(
    "option,want",
    [
        # Past them the achieved phi or the score overflowed a float.
        (["-R", "1" + "0" * 400], "-R above 10^100 gives numbers too long to print"),
        (["-R", "1" + "0" * 100 + "1"], "-R above 10^100 gives numbers too long to print"),
        (["-R", "12", "--phi", "1/1" + "0" * 400],
         "--phi below 10^-100 gives numbers too long to print"),
        (["-R", "12", "--phi", f"1/{10**100 + 1}"],
         "--phi below 10^-100 gives numbers too long to print"),
        # Not positive: the designer's own check.
        (["-R", "12", "--phi", "0"], "target oversubscription must be positive"),
    ],
)
def test_design_refuses_numbers_too_long_to_print(capsys, db_path, option, want):
    code, out, err = run(capsys, "design", "-P", "96", *option, "--db", str(db_path))
    assert (code, out, err) == (1, "", f"error: {want}\n")


def test_design_prints_at_the_bounds(capsys, db_path):
    # The largest radix with the smallest phi: a score near 10^197.
    code, out, err = run(
        capsys, "design", "-P", "96", "-R", str(10**100), "--phi", f"1/{10**100}",
        "--db", str(db_path),
    )
    assert (code, err) == (0, "")
    assert re.search(r" score=\d+/\d+ \(\d\.\d+e\+197\)\n$", out)


def test_wire_refuses_a_radix_past_its_bound(db_path, tmp_path):
    # At radix 10^8 the header alone is 10^8 cells, which takes minutes to
    # write; the bound is checked before the -o file is touched.  A child
    # process with a timeout, so that a missing check fails, not hangs.
    out_file = tmp_path / "wires.tsv"
    out_file.write_text("keep")
    for radix in (str(designer.MAX_WIRE_RADIX + 1), "100000000", "1" + "0" * 400):
        proc = child([
            sys.executable, "-m", "longhop.cli", "wire", "--record", "8,18",
            "-R", radix, "--rows", "0..0", "--db", str(db_path), "-o", str(out_file),
        ], timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: a wiring table takes a radix of at most 1048576\n"
    assert out_file.read_text() == "keep"


def test_a_numpy_command_without_numpy_is_an_error_line(capsys, monkeypatch, b3_18_file):
    # None in sys.modules makes `import numpy` raise ModuleNotFoundError.
    monkeypatch.setitem(sys.modules, "numpy", None)
    code, out, err = run(capsys, "metrics", b3_18_file)
    assert (code, out) == (1, "")
    assert err.startswith("error: lh metrics needs numpy: ") and err.count("\n") == 1


def test_compare_lh_and_yield(capsys, db_path):
    code, out, _ = run(
        capsys, "compare", "--family", "lh", "-R", "12",
        "--sizes", "5..5", "--db", str(db_path),
    )
    assert code == 0
    assert "lh d=5 m=9" in out
    code, out, _ = run(
        capsys, "compare", "--family", "lh_vs_hypercube", "-R", "256",
        "--sizes", "3..8", "--db", str(db_path),
    )
    assert code == 0
    assert out.splitlines()[1:] == [
        "3,8,7,4,1,4/1,4.0",
        "4,16,15,8,1,8/1,8.0",
        "5,32,31,16,1,16/1,16.0",
        "6,64,63,32,1,32/1,32.0",
        "7,128,127,64,1,64/1,64.0",
        "8,256,128,64,1,64/1,64.0",
    ]


def test_compare_writes_file(capsys, tmp_path):
    out_file = tmp_path / "out.csv"
    code, stdout, _ = run(
        capsys, "compare", "--family", "dragonfly", "-R", "7",
        "-o", str(out_file),
    )
    assert (code, stdout) == (0, "")
    assert out_file.read_text().splitlines()[1].startswith("dragonfly p=2,36,7")


def test_identical_runs_are_byte_identical(capsys, tmp_path):
    a = tmp_path / "a.db"
    b = tmp_path / "b.db"
    assert run(capsys, "db", "seed", "--db", str(a))[0] == 0
    assert run(capsys, "db", "seed", "--db", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    first = run(capsys, "compare", "--family", "fat_tree3", "-R", "32")
    second = run(capsys, "compare", "--family", "fat_tree3", "-R", "32")
    assert first == second


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def child(argv, env=None, timeout=None):
    """Run argv with the package under test importable, and with `env`
    over the environment."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = str(Path(longhop.__file__).parents[1])
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=timeout)


def run_child(argv):
    """Run argv as `child` does, check it succeeded, and return stdout."""
    proc = child(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


# A child that may not grow any file past argv[1] bytes, and gets EFBIG
# instead of SIGXFSZ when it tries, runs `lh` on the rest of argv.
FSIZE_SCRIPT = """
import resource, signal, sys
from longhop.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux file-size limit")
def test_a_failed_store_write_leaves_the_store_alone(capsys, tmp_path):
    # The limit applies to the child alone: its ingest of a d = 12,
    # 256-hop code cannot write the grown store, and the store it read
    # keeps its bytes.
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    db = store_dir / "lh.db"
    assert run(capsys, "db", "seed", "--db", str(db))[0] == 0
    before = db.read_bytes()
    rng = random.Random(12)
    gens = GeneratorSet(12, rng.sample(range(1, 1 << 12), 256))
    wide = tmp_path / "wide.code"
    wide.write_text(format_code(hops_to_code(gens)))
    proc = child([
        sys.executable, "-B", "-c", FSIZE_SCRIPT, str(len(before) + 200),
        "db", "ingest", str(wide), "--db", str(db),
    ], timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert re.fullmatch(r"error: .*File too large\n", proc.stderr)
    assert db.read_bytes() == before
    assert os.listdir(store_dir) == ["lh.db"]
    code, out, _ = run(capsys, "db", "list", "--db", str(db))
    assert code == 0 and len(out.splitlines()) == 64


def test_installed_entry_point(fq3_file):
    """`lh` as installed or, when it is not on PATH, the console-script
    target that pyproject.toml declares for it."""
    if shutil.which("lh"):
        argv = ["lh"]
    else:
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        target = re.search(r'^lh = "([\w.]+):(\w+)"$', pyproject, re.M)
        module, func = target.groups()
        script = f"import sys; from {module} import {func}; sys.exit({func}())"
        argv = [sys.executable, "-c", script]
    assert run_child([*argv, "bisect", fq3_file]) == "b=2 B=8 t=1\n"


def test_module_entry_point(fq3_file, tmp_path):
    lh = [sys.executable, "-m", "longhop.cli"]
    assert run_child([*lh, "bisect", fq3_file]) == "b=2 B=8 t=1\n"
    # The d = 14 cube reaches the BFS pull step at level 4.
    cube = tmp_path / "cube14.hops"
    cube.write_text("d=14 q=2\n" + "".join(f"{1 << i:04X}\n" for i in range(14)))
    assert run_child([*lh, "metrics", str(cube)]) == "diam=14 avg=114688/16384 (7.0)\n"


def test_importing_the_cli_loads_no_command_module():
    # Each cmd_* function imports what it runs, so importing the CLI and
    # building its parser loads no other longhop module.
    script = (
        "import sys, longhop.cli\n"
        "longhop.cli._build_parser()\n"
        "print(*sorted(m for m in sys.modules if m.startswith('longhop')))\n"
    )
    out = run_child([sys.executable, "-c", script])
    assert out == "longhop longhop.cli longhop.errors\n"


# Runs `main` in a fresh process (pytest itself has numpy and every
# longhop module loaded) and tells on stderr which longhop modules were
# loaded by the end, then which of numpy and the costly standard modules.
COLD_SCRIPT = (
    "import sys\n"
    "from longhop.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(*sorted(m for m in sys.modules if m.startswith('longhop.')), file=sys.stderr)\n"
    "heavy = ('dataclasses', 'fractions', 'inspect', 'numpy')\n"
    "print(*[m for m in heavy if m in sys.modules], file=sys.stderr)\n"
    "sys.exit(code)\n"
)
# The cold commands that print a fraction, and so load `fractions`.
PRINT_FRACTIONS = ("design", "compare", "oracle", "metrics")

# Commands that never load numpy, each with the longhop modules it loads
# besides cli and errors: only what it runs.
STORE_MODULES = "bisection gf2 graph soldb walsh"
HOP_MODULES = "gf2 graph walsh"
# Store commands that measure records load the numpy-free BFS, as
# `lh metrics` does.
MEASURE_MODULES = f"bitsets {STORE_MODULES}"
COLD = [
    (["design", "-P", "96", "-R", "12", "--db", "{db}"], f"designer {STORE_MODULES}"),
    (["db", "list", "--db", "{db}"], STORE_MODULES),
    (["db", "verify", "--db", "{db}"], MEASURE_MODULES),
    (["db", "seed", "--db", "{seeded}"], f"constructions {MEASURE_MODULES}"),
    (["db", "ingest", "{code}", "--db", "{seeded}"], f"ecc {MEASURE_MODULES}"),
    (["compare", "--family", "lh_vs_hypercube", "-R", "24", "--db", "{db}"],
     f"compare {STORE_MODULES}"),
    (["compare", "--family", "dragonfly", "-R", "15"], "compare"),
    (["translate", "--to-hops", "{code}"], f"ecc {HOP_MODULES}"),
    (["translate", "--to-code", "{record}"], f"ecc {HOP_MODULES}"),
    (["build", "hd", "-d", "15", "-m", "16384"], f"bisection constructions {HOP_MODULES}"),
    (["build", "b3", "-d", "24"], f"bisection constructions {HOP_MODULES}"),
    (["build", "mesh", "-d", "10"], f"bisection constructions {HOP_MODULES}"),
    (["build", "augment", "{b3_12}"], f"bisection constructions {HOP_MODULES}"),
    (["diag", "{record}"], f"ecc {HOP_MODULES}"),
    (["bisect", "{record}"], f"bisection {HOP_MODULES}"),
    (["bisect", "{b3_24}"], f"bisection {HOP_MODULES}"),
    (["bisect", "{hd15}"], f"bisection {HOP_MODULES}"),
    (["oracle", "{fq3}"], f"bisection {HOP_MODULES}"),
    (["metrics", "{record}"], f"bitsets {HOP_MODULES}"),
    (["metrics", "{hd15}"], f"bitsets {HOP_MODULES}"),
    (["metrics", "{b3_17}"], f"bitsets {HOP_MODULES}"),
    (["spectrum", "{hd14}"], HOP_MODULES),
    (["spectrum", "{record}"], HOP_MODULES),
]


# Runs `main` in a fresh process and tells on stderr how many threads
# the process has at the end and what OPENBLAS_NUM_THREADS is.
THREADS_SCRIPT = (
    "import os, sys\n"
    "from longhop.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "threads = open('/proc/self/status').read().split('Threads:')[1].split()[0]\n"
    "print(threads, os.environ.get('OPENBLAS_NUM_THREADS'), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux /proc")
@pytest.mark.parametrize("setting", [None, "2"])
def test_numpy_commands_run_one_blas_thread_unless_told(b3_18_file, setting):
    # OpenBLAS reads its thread count from these when numpy loads; the
    # child gets none of them from this process, only `setting`.
    blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {key: value for key, value in os.environ.items() if key not in blas}
    env["PYTHONPATH"] = str(Path(longhop.__file__).parents[1])
    if setting:
        env["OPENBLAS_NUM_THREADS"] = setting
    proc = subprocess.run(
        [sys.executable, "-c", THREADS_SCRIPT, "metrics", b3_18_file],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, B3_18_METRICS)
    # OpenBLAS runs at most one thread per CPU it may use.
    threads = min(int(setting or 1), len(os.sched_getaffinity(0)))
    assert proc.stderr == f"{threads} {setting or 1}\n"


def test_main_leaves_the_environment_alone_once_numpy_is_loaded(
    capsys, monkeypatch, fq3_file
):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert "numpy" in sys.modules
    assert run(capsys, "metrics", fq3_file)[0] == 0
    assert dict(os.environ) == before


@pytest.mark.parametrize("argv,modules", COLD, ids=[" ".join(argv) for argv, _ in COLD])
def test_cold_commands_do_not_import_numpy(
    tmp_path, seeded_db, db_path, code74_file, fq3_file, argv, modules
):
    # Record (16,38) and b3(24) need the codeword enumeration to finish;
    # hd(15, 16384), with m > 64 d, the packed transform.  The spectra of
    # n <= 2^16 nodes come from the packed transform too, and distance
    # profiles of n <= 2^17 nodes from Python-int bitsets.
    files = {
        "db": db_path, "code": code74_file, "fq3": fq3_file,
        "seeded": tmp_path / "seeded.db",
    }
    for name, gens in [
        ("record", seeded_db.query(16, 38).gens),
        ("b3_12", low_density_b3(12)),
        ("b3_17", low_density_b3(17)),
        ("b3_24", low_density_b3(24)),
        ("hd14", lh_hd(14, 8192)),
        ("hd15", lh_hd(15, 16384)),
    ]:
        files[name] = tmp_path / f"{name}.hops"
        files[name].write_text(format_hops(gens))
    proc = child([sys.executable, "-c", COLD_SCRIPT, *(a.format(**files) for a in argv)])
    loaded = sorted(f"longhop.{m}" for m in ["cli", "errors", *modules.split()])
    heavy = "fractions" if argv[0] in PRINT_FRACTIONS else ""
    assert (proc.returncode, proc.stderr) == (0, " ".join(loaded) + f"\n{heavy}\n")


def test_metrics_above_the_bitset_bound_loads_numpy(b3_18_file):
    # bitsets holds the numpy BFS as well as the Python-int one.
    proc = child([sys.executable, "-c", COLD_SCRIPT, "metrics", b3_18_file])
    loaded = sorted(f"longhop.{m}" for m in f"cli errors bitsets {HOP_MODULES}".split())
    modules, heavy = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout) == (0, B3_18_METRICS)
    assert modules == " ".join(loaded)
    assert "numpy" in heavy.split()


@pytest.mark.parametrize("command", ["bisect", "spectrum"])
def test_commands_that_run_no_profile_do_not_load_the_bfs(tmp_path, b3_18_file, command):
    # Above both numpy-free bounds as well: the profile engines sit in
    # bitsets, which only distance_profile loads.
    out = ["-o", str(tmp_path / "b3_18.tsv")] if command == "spectrum" else []
    proc = child([sys.executable, "-c", COLD_SCRIPT, command, b3_18_file, *out])
    modules = proc.stderr.splitlines()[0].split()
    assert proc.returncode == 0
    assert "longhop.graph" in modules and "longhop.bitsets" not in modules


def test_a_spectrum_above_the_lane_bound_loads_numpy(tmp_path):
    hops_file = tmp_path / "b3_17.hops"
    hops_file.write_text(format_hops(low_density_b3(17)))
    argv = ["spectrum", str(hops_file), "-o", str(tmp_path / "b3_17.tsv")]
    proc = child([sys.executable, "-c", COLD_SCRIPT, *argv])
    loaded = sorted(f"longhop.{m}" for m in f"cli errors bisection {HOP_MODULES}".split())
    modules, heavy = proc.stderr.splitlines()
    assert (proc.returncode, modules) == (0, " ".join(loaded))
    assert "numpy" in heavy.split()
