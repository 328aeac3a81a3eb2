"""Command-line behavior: golden output, files, exit codes, determinism."""

import hashlib
import io
import os
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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import longhop
import oracle
from longhop import cli, designer, gf2, graph, soldb
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
    # The int64 counts take 8 bytes a node.  Rows are turned into ints,
    # formatted and written one block at a time, so nothing else grows
    # with n; holding the whole table as ints or text would.
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
# template per row, before the byte-table emitter replaced it.
TABLE_DIGESTS = {
    "spectrum b3(16)":
        "bc5a6e7cafd54fcfe06da99fdd3c944c0c19181300a3e44ed270eda1c929cf18",
    "spectrum (16,38)":
        "fce946163d2a8f6149e4170ddc81f49d6b521238782cf97769f424896b25d775",
    "wire (16,38) -R 48":
        "c8b2ad42be75c49ebeedc8cdd46aab2f5923f41affe8bf733f2bb999cab175b2",
}


@pytest.mark.parametrize("table", TABLE_DIGESTS)
def test_table_digests(capsys, seeded_db, db_path, tmp_path, table):
    hops_file = tmp_path / "set.hops"
    if table == "spectrum b3(16)":
        hops_file.write_text(format_hops(low_density_b3(16)))
    else:
        hops_file.write_text(format_hops(seeded_db.query(16, 38).gens))
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
    """A spanning set with d = 1..12, a radix of m + 1..m + 40 and a row
    range, one that crosses a label-width boundary when the table has one."""
    d = draw(st.integers(1, 12))
    n = 1 << d
    m = draw(st.integers(d, min(n - 1, d + 24)))
    hops = draw(st.lists(st.integers(1, n - 1), min_size=m, max_size=m, unique=True))
    assume(gf2.spans(hops, d))
    radix = draw(st.integers(m + 1, m + 40))
    edges = [edge for edge in (0x10, 0x100, 0x1000) if edge < n]
    if edges and draw(st.booleans()):
        edge = draw(st.sampled_from(edges))
        lo = draw(st.integers(max(0, edge - 20), edge - 1))
        hi = draw(st.integers(edge, min(n - 1, edge + 20)))
    else:
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo, n - 1))
    return GeneratorSet(d, tuple(hops)), radix, lo, hi


@settings(deadline=None, max_examples=60)
@given(table_cases())
def test_tables_match_the_percent_referee(tmp_path_factory, case):
    # Odd and even m, and cuts past m/2, so lambda = m - 2 cut goes negative.
    gens, radix, lo, hi = case
    work = tmp_path_factory.mktemp("tables")
    hops_file = work / "set.hops"
    hops_file.write_text(format_hops(gens))
    stdout, wiring = io.StringIO(), io.StringIO()
    with mock.patch.object(graph, "_ROWS_PER_WRITE", 3):
        with redirect_stdout(stdout):
            assert main(["spectrum", str(hops_file)]) == 0
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
    # cmd_spectrum imports write_table from graph when it runs.
    owner = graph if command == "spectrum" else designer
    write_table = owner.write_table
    with monkeypatch.context() as patch:
        patch.setattr(owner, "write_table", lambda stream, *args, **kwargs: write_table(
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
        ["build", "hd", "-d", "-3", "-m", "1"],
        # Refused before 2^24 hops are built.
        ["build", "hd", "-d", "25", "-m", str(1 << 24)],
        ["build", "mesh", "-d", "-1"],
        ["compare", "--family", "hypercube", "-R", "16", "--sizes=-1..2"],
        ["compare", "--family", "folded_cube", "-R", "16", "--sizes=-1..2"],
    ],
)
def test_bad_numeric_options_are_error_lines(db_path, argv):
    if argv[0] == "design":
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


def child(argv):
    """Run argv with the package under test importable."""
    env = {**os.environ, "PYTHONPATH": str(Path(longhop.__file__).parents[1])}
    return subprocess.run(argv, capture_output=True, text=True, env=env)


def run_child(argv):
    """Run argv as `child` does, check it succeeded, and return stdout."""
    proc = child(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


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
# loaded by the end, then whether numpy was.
COLD_SCRIPT = (
    "import sys\n"
    "from longhop.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(*sorted(m for m in sys.modules if m.startswith('longhop.')), file=sys.stderr)\n"
    "print('numpy' in sys.modules, file=sys.stderr)\n"
    "sys.exit(code)\n"
)

# Commands that never load numpy, each with the longhop modules it loads
# besides cli and errors: only what it runs.
STORE_MODULES = "bisection gf2 graph soldb walsh"
HOP_MODULES = "gf2 graph walsh"
COLD = [
    (["design", "-P", "96", "-R", "12", "--db", "{db}"], f"designer {STORE_MODULES}"),
    (["db", "list", "--db", "{db}"], STORE_MODULES),
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
    (["oracle", "{fq3}"], f"bisection {HOP_MODULES}"),
]


@pytest.mark.parametrize("argv,modules", COLD, ids=[" ".join(argv) for argv, _ in COLD])
def test_cold_commands_do_not_import_numpy(
    tmp_path, seeded_db, db_path, code74_file, fq3_file, argv, modules
):
    # Record (16,38) and b3(24) need the codeword enumeration to finish.
    files = {"db": db_path, "code": code74_file, "fq3": fq3_file}
    for name, gens in [
        ("record", seeded_db.query(16, 38).gens),
        ("b3_12", low_density_b3(12)),
        ("b3_24", low_density_b3(24)),
    ]:
        files[name] = tmp_path / f"{name}.hops"
        files[name].write_text(format_hops(gens))
    proc = child([sys.executable, "-c", COLD_SCRIPT, *(a.format(**files) for a in argv)])
    loaded = sorted(f"longhop.{m}" for m in ["cli", "errors", *modules.split()])
    assert (proc.returncode, proc.stderr) == (0, " ".join(loaded) + "\nFalse\n")
