"""Command-line front end; every subcommand is plumbing over the library.

All output is deterministic: identical invocations produce identical
bytes.  Rationals are always shown as num/den with a decimal rendering
in parentheses, never decimal-only.  Each `cmd_*` function imports
the library modules it runs, so building the parser loads none of them
and a command loads only its own.
"""
from __future__ import annotations

import argparse
import os
import stat
import sys
import tempfile
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import LongHopError

if TYPE_CHECKING:
    from fractions import Fraction

    from .soldb import SolutionDB

DEFAULT_DB = "lh.db"
# The `lh compare --family` choices; "lh" and "lh_vs_hypercube" read the store.
FAMILIES = (
    "lh", "hypercube", "folded_cube", "flattened_butterfly",
    "fat_tree2", "fat_tree3", "dragonfly", "lh_vs_hypercube",
)
# The largest radix `lh compare` and `lh design` take, and 1/MAX_RADIX
# the smallest `lh design --phi`.  Within them every number they print
# fits: ratios and scores stay far inside the float range, and a
# 24-dimension butterfly has q^24 switches and at most 2,467 digits,
# under the 4,300 digits Python turns an int into.
MAX_RADIX = 10**100
# The largest n whose `lh spectrum` rows come from `walsh.fwht_lanes`,
# without numpy (graph.write_lanes), not from `cut_blocks` and
# write_table.  On hd(14, 8192), record (16,38) and hd(16, 32768) the
# lanes took 0.076, 0.095 and 0.118 s end to end, against 0.138, 0.131
# and 0.149 s through numpy; at n = 2^17, on b3(17) and hd(17, 65536),
# the two tied within 5 ms (os.wait4, best of 11, 2 cores, numpy 2.4).
_SPECTRUM_LANES = 1 << 16


def _fmt_fraction(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator} ({float(fr)!r})"


def _db_path(args) -> Path:
    if args.db:
        return Path(args.db)
    return Path(os.environ.get("LH_DB", DEFAULT_DB))


def _load_db(args) -> SolutionDB:
    from .soldb import load

    path = _db_path(args)
    if not path.exists():
        raise LongHopError(f"database {path} not found; run `lh db seed`")
    return load(path)


@contextmanager
def _output(path):
    """The stream a command writes to: stdout when path is None, else the
    file at path (the `-o` file or the store).  A regular file is written
    to a temporary file beside it, which replaces it only once the command
    has written everything; on any error the file keeps its old bytes and
    the temporary file is removed."""
    if not path:
        yield sys.stdout
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        # A device or a FIFO (-o /dev/stdout) cannot be replaced.
        with open(target, "w", encoding="utf-8") as fh:
            yield fh
        return
    head, name = os.path.split(target)
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=head)
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.chmod(tmp, _file_mode(target))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _file_mode(path: str) -> int:
    """The permissions open(path, "w") would leave: the file's own if it
    exists, else 0o666 less the umask."""
    if os.path.exists(path):
        return stat.S_IMODE(os.stat(path).st_mode)
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


def _emit(path, text: str) -> None:
    with _output(path) as out:
        out.write(text)


def _fraction(option: str, text: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise LongHopError(f"{option} takes a fraction like 3/2, got {text!r}") from None


def _check_radix(radix: int) -> None:
    if radix > MAX_RADIX:
        raise LongHopError("-R above 10^100 gives numbers too long to print")


def _decimal(text: str, signed: bool = False) -> int:
    """text as an int, if it is ASCII digits alone, after a `-` when
    signed; int() also reads full-width digits, 4_0, +4 and blanks
    around the digits."""
    digits = text.removeprefix("-") if signed else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected decimal digits, got {text!r}")
    return int(text)


def _count(text: str) -> int:
    """The type of the decimal options: _decimal, with a fault raised as
    a LongHopError, which argparse passes on to main (it turns only a
    ValueError or a TypeError into a usage message)."""
    try:
        return _decimal(text)
    except ValueError as exc:
        raise LongHopError(str(exc)) from None


def _parse_range(spec: str, parse) -> tuple[int, int]:
    lo, sep, hi = spec.partition("..")
    if not sep:
        raise LongHopError(f"expected a range like 3..8, got {spec!r}")
    try:
        return parse(lo), parse(hi)
    except ValueError:
        raise LongHopError(f"bad range {spec!r}") from None


def cmd_bisect(args) -> int:
    from .bisection import bisection_fwht
    from .graph import load_hops

    gens = load_hops(args.file)
    rep = bisection_fwht(gens)
    print(f"b={rep.b} B={rep.B} t={rep.t:X}")
    return 0


def cmd_oracle(args) -> int:
    from fractions import Fraction

    from .bisection import brute_force_bisection
    from .graph import hex_width, load_hops

    gens = load_hops(args.file)
    B, side = brute_force_bisection(gens)
    b = Fraction(B, gens.n // 2)
    b_text = str(b.numerator) if b.denominator == 1 else _fmt_fraction(b)
    print(f"B={B} b={b_text} side={side:0{hex_width(gens.n)}X}")
    return 0


def cmd_spectrum(args) -> int:
    from . import graph

    gens = graph.load_hops(args.file)
    d, m, n = gens.d, gens.m, gens.n
    # The rows' source is ready before the header goes out, so a process
    # without numpy prints nothing above the bound: spectrum_tails loads it.
    if n <= _SPECTRUM_LANES:
        from .walsh import fwht_lanes

        rows = partial(graph.write_lanes, d=d, m=m, lanes=fwht_lanes(gens.hops, d))
    else:
        from .bisection import cut_blocks

        rows = partial(
            graph.write_table, rows=range(n), digits=graph.hex_width(d),
            tails=graph.spectrum_tails(m), keys=cut_blocks(gens),
        )
    with _output(args.out) as out:
        out.write("# k\tlambda\tcut\n")
        rows(out)
    return 0


def cmd_metrics(args) -> int:
    from .graph import distance_profile, load_hops

    gens = load_hops(args.file)
    prof = distance_profile(gens)
    print(f"diam={prof.diameter} avg={prof.total}/{prof.n} ({float(prof.avg)!r})")
    return 0


def cmd_translate(args) -> int:
    from . import ecc
    from .graph import format_hops, load_hops

    if args.to_hops:
        code = ecc.load_code(args.to_hops)
        _emit(args.out, format_hops(ecc.code_to_hops(code)))
    else:
        gens = load_hops(args.to_code)
        _emit(args.out, ecc.format_code(ecc.hops_to_code(gens)))
    return 0


def cmd_build(args) -> int:
    from . import constructions
    from .graph import format_hops, load_hops, parse_hex

    if args.kind == "hd":
        gens = constructions.lh_hd(args.dim, args.hops)
    elif args.kind == "b3":
        columns = None
        if args.columns:
            try:
                columns = tuple(parse_hex(c) for c in args.columns.split(","))
            except ValueError:
                raise LongHopError(
                    f"--columns takes comma-separated hex patterns, got {args.columns!r}"
                ) from None
        gens = constructions.low_density_b3(args.dim, columns)
    elif args.kind == "mesh":
        gens = constructions.mesh(args.dim)
    else:
        gens = constructions.augment_odd_b(load_hops(args.file))
    _emit(args.out, format_hops(gens))
    return 0


def cmd_diag(args) -> int:
    from .ecc import diagonalize
    from .graph import format_hops, load_hops

    gens = load_hops(args.file)
    _emit(args.out, format_hops(diagonalize(gens)))
    return 0


def cmd_design(args) -> int:
    from . import designer

    _check_radix(args.radix)
    phi = _fraction("--phi", args.phi)
    if 0 < phi * MAX_RADIX < 1:
        raise LongHopError("--phi below 10^-100 gives numbers too long to print")
    db = _load_db(args)
    weights = designer.DEFAULT_WEIGHTS
    if args.weights:
        parts = args.weights.split(",")
        if len(parts) != 2:
            raise LongHopError("--weights takes two comma-separated values")
        weights = tuple(_fraction("--weights", part) for part in parts)
    choice = designer.find_solution(
        db, args.ports, args.radix, phi=phi,
        at_least_ports=args.at_least, weights=weights,
    )
    rec = choice.record
    print(f"d={rec.d} m={rec.m} b={rec.b} n={rec.n} prov={rec.provenance}")
    print(
        f"ports={choice.ports} free={choice.free_ports} "
        f"phi={_fmt_fraction(choice.phi)} score={_fmt_fraction(choice.score)}"
    )
    return 0


def cmd_wire(args) -> int:
    from .designer import WiringTable
    from .graph import parse_hex

    try:
        d_text, m_text = args.record.split(",")
        d, m = _decimal(d_text), _decimal(m_text)
    except ValueError:
        raise LongHopError("--record takes d,m (decimal)") from None
    db = _load_db(args)
    rec = db.query(d, m)
    if rec is None:
        raise LongHopError(f"no record (d={d}, m={m}) in the database")
    table = WiringTable(rec.gens, args.radix)
    lo, hi = _parse_range(args.rows, parse_hex) if args.rows else (0, None)
    # write() checks the range; on a bad one _output leaves the -o file alone.
    with _output(args.out) as out:
        table.write(out, lo, hi)
    return 0


def cmd_db(args) -> int:
    from . import soldb

    path = _db_path(args)
    if args.action == "seed":
        if path.exists() and not args.force:
            raise LongHopError(f"{path} exists; use --force to reseed")
        db = soldb.SolutionDB()
        count = soldb.seed_defaults(db)
        _emit(path, soldb.dumps(db))
        print(f"seeded {count} records into {path}")
        return 0
    if args.action == "list":
        db = _load_db(args)
        for rec in db.records():
            print(soldb.record_line(rec))
        return 0
    if args.action == "verify":
        db = _load_db(args)
        problems = db.verify()
        if problems:
            for p in problems:
                print(f"error: {p}", file=sys.stderr)
            return 1
        print(f"ok: {len(db)} records verified")
        return 0
    db = soldb.load(path) if path.exists() else soldb.SolutionDB()
    rec = soldb.ingest_code_file(
        db, args.file, provenance=args.prov, replace=args.replace
    )
    _emit(path, soldb.dumps(db))
    print(f"ingested d={rec.d} m={rec.m} b={rec.b} into {path}")
    return 0


def cmd_compare(args) -> int:
    from . import compare

    _check_radix(args.radix)
    sizes = None
    if args.sizes:
        from .walsh import MAX_DIM

        # Signed, so that the bounds check names a negative size.
        lo, hi = _parse_range(args.sizes, partial(_decimal, signed=True))
        # Past it, sizes mean numbers too long to print or too many rows.
        if not (0 <= lo <= MAX_DIM and 0 <= hi <= MAX_DIM):
            raise LongHopError(f"--sizes must lie in 0..{MAX_DIM}, got {args.sizes}")
        sizes = range(lo, hi + 1)
    if args.family == "lh":
        db = _load_db(args)
        records = [
            rec for rec in db.records()
            if rec.m < args.radix and (sizes is None or rec.d in sizes)
        ]
        text = compare.to_csv(compare.lh_series(records, args.radix))
    elif args.family == "lh_vs_hypercube":
        db = _load_db(args)
        rows = compare.versus_hypercube(db, args.radix, sizes)
        text = compare.yield_csv(rows)
    else:
        text = compare.to_csv(
            compare.alternative_series(args.family, args.radix, sizes)
        )
    _emit(args.out, text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lh",
        description="Cayley-graph network toolkit over Z_2^d",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bisect", help="exact bisection of a hop-list file")
    p.add_argument("file")
    p.set_defaults(func=cmd_bisect)

    p = sub.add_parser("oracle", help="brute-force bisection (tiny n only)")
    p.add_argument("file")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("spectrum", help="eigenvalues and cut counts per k")
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("metrics", help="diameter and average distance")
    p.add_argument("file")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("translate", help="convert between code and hop files")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-hops", metavar="CODEFILE")
    group.add_argument("--to-code", metavar="HOPFILE")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("build", help="emit a constructed hop set")
    kinds = p.add_subparsers(dest="kind", required=True)
    hd = kinds.add_parser("hd", help="half-distance ladder set")
    hd.add_argument("-d", "--dim", type=_count, required=True)
    hd.add_argument("-m", "--hops", type=_count, required=True)
    b3 = kinds.add_parser("b3", help="low-density b=3 set")
    b3.add_argument("-d", "--dim", type=_count, required=True)
    b3.add_argument("--columns", help="comma-separated hex check patterns")
    mesh_p = kinds.add_parser("mesh", help="full mesh")
    mesh_p.add_argument("-d", "--dim", type=_count, required=True)
    aug = kinds.add_parser("augment", help="append the hop XOR (odd b only)")
    aug.add_argument("file")
    for sp in (hd, b3, mesh_p, aug):
        sp.add_argument("-o", "--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("diag", help="rewrite a hop set in systematic form")
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_diag)

    p = sub.add_parser("design", help="match a (ports, radix, phi) requirement")
    p.add_argument("-P", "--ports", type=_count, required=True)
    p.add_argument("-R", "--radix", type=_count, required=True)
    p.add_argument("--phi", default="1")
    p.add_argument("--at-least", action="store_true")
    p.add_argument("--weights", help="wP,wPhi (default 7/10,3/10)")
    p.add_argument("--db")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("wire", help="emit the per-switch wiring table")
    p.add_argument("--record", required=True, metavar="D,M")
    p.add_argument("-R", "--radix", type=_count, required=True)
    p.add_argument("--rows", help="hex row range like 0..F")
    p.add_argument("--db")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_wire)

    p = sub.add_parser("db", help="solution store maintenance")
    actions = p.add_subparsers(dest="action", required=True)
    seed = actions.add_parser("seed", help="write the default seed records")
    seed.add_argument("--force", action="store_true")
    listing = actions.add_parser("list", help="one line per record")
    verify = actions.add_parser("verify", help="recompute all stored metrics")
    ingest = actions.add_parser("ingest", help="add a code-matrix file")
    ingest.add_argument("file")
    ingest.add_argument("--prov")
    ingest.add_argument("--replace", action="store_true")
    for sp in (seed, listing, verify, ingest):
        sp.add_argument("--db")
    p.set_defaults(func=cmd_db)

    p = sub.add_parser("compare", help="ports/switch and cables/port series")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("-R", "--radix", type=_count, required=True)
    p.add_argument("--sizes", help="size range like 3..8")
    p.add_argument("--db")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    # numpy's OpenBLAS starts a worker thread as it loads, and that thread
    # spins for 70-90 ms of CPU, though no command calls BLAS.  One thread
    # unless the environment names a count; a process that has numpy
    # loaded already keeps its environment as it is.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (LongHopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(f"error: lh {args.command} needs numpy: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
