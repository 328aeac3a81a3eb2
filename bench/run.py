#!/usr/bin/env python3
"""longhop benchmark: time `lh` end to end and each library layer from outside.

Run from the repository root:

    python3 bench/run.py --workload large_sparse --seed 1 --seconds 40 --trace 0

The workloads are `large_sparse`, `dense_hd` and `design_flow`; README.md
beside this file says why each exists.  With `--trace 0` every command runs
as its own `lh` process (`python -m longhop.cli`, PYTHONPATH=src) and the
run reports end-to-end metrics.  With `--trace 1` the same commands run in
this process through `longhop.cli.main`, with span wrappers on each layer
(layers.py), and the run reports per-layer metrics.

Stdout ends with two JSON lines: a detail line (machine, computed array
sizes, every metric with its sample count, failures) and the result line.
Wrong outputs and failed commands count in `failed`; the exit code is
nonzero only when the benchmark itself cannot run.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

RUN_BUDGET_S = 170.0  # a run must end within 180 s, set-up included
SETUP_REPEATS = 7
IMPORT_REPEATS = 5

# End-to-end metrics every workload reports (BENCHMARK.json gates these).
E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bisect_s": "s",
    "metrics_s": "s",
    "spectrum_s": "s",
}
# End-to-end metrics only design_flow's commands produce; printed on the
# detail line.
DESIGN_UNITS = {"wire_s": "s", "design_s": "s", "db_verify_s": "s", "search_s": "s"}
# How one pass's samples of a metric become that pass's value (default: sum).
PASS_REDUCE = {"design_s": statistics.median}


class Wrong(Exception):
    """An operation ran but did not give the right answer."""


@dataclass
class Op:
    """One user-visible operation: an `lh` command or an in-process call."""

    metric: str | None  # end-to-end metric this op's wall time counts toward
    check: Callable[[object], None]  # raises Wrong unless the output is right
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    # Back-to-back runs per end-to-end pass; the op's time is the fastest.
    # Interference from other tenants only ever slows a run, and it comes
    # in bursts of a second or two that swing a 0.2 s command by 30%, so
    # short commands take the best of several runs.
    repeat: int = 1

    @property
    def label(self) -> str:
        return "lh " + " ".join(self.argv) if self.argv else self.metric or "call"


@dataclass
class Result:
    op: Op
    wall_s: float
    rss_mb: float  # the child's own peak RSS; 0 for in-process work
    output: object
    error: str | None


@dataclass
class Workload:
    setup: list[list[str]]  # `lh` commands that build the inputs
    referees: list[Op]  # checked once after set-up, outside the passes
    ops: list[Op]  # one pass
    inputs: dict[str, tuple[int, int]]  # label -> (d, m) of each input


def _ok(_output) -> None:
    pass


def _exact(want: str) -> Callable[[object], None]:
    def check(out):
        if out != want:
            raise Wrong(f"printed {out!r}, want {want!r}")
    return check


def _frac(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator} ({float(fr)!r})"


# ---------------------------------------------------------------- checks

def check_bisect(path: Path, want_b: Callable[[], int]) -> Callable[[object], None]:
    """`b=.. B=.. t=..`: b as the referee says, B = b n/2, and the Walsh-t
    cut counted hop by hop equals b."""
    def check(out):
        match = re.fullmatch(r"b=(\d+) B=(\d+) t=([0-9A-F]+)\n", out)
        if not match:
            raise Wrong(f"unparsable bisect output {out!r}")
        b, B, t = int(match[1]), int(match[2]), int(match[3], 16)
        gens = load_hops(path)
        if b != want_b() or B != b * gens.n // 2:
            raise Wrong(f"b={b} B={B}, want b={want_b()}")
        if not 0 < t < gens.n or sum((h & t).bit_count() & 1 for h in gens.hops) != b:
            raise Wrong(f"the Walsh-{t:X} cut is not {b}")
    return check


class FileCheck:
    """Checks an `lh ... -o FILE` output in full on the first pass, then
    that every later pass writes the same bytes."""

    def __init__(self, path: Path):
        self.path = path
        self.digest = None

    def __call__(self, out):
        if out:
            raise Wrong(f"-o {self.path.name} also wrote to stdout")
        data = self.path.read_bytes()
        digest = hashlib.sha256(data).digest()
        if self.digest is None:
            self.check_text(data.decode())
            self.digest = digest
        elif digest != self.digest:
            raise Wrong(f"{self.path.name} differs from the first pass")

    def check_text(self, text: str) -> None:
        raise NotImplementedError


class SpectrumCheck(FileCheck):
    """A `lh spectrum` table: k counts up, lambda = m - 2 cut, cut[0] = 0
    and the smallest other cut is the referee's b."""

    def __init__(self, path: Path, hops: Path, want_b: Callable[[], int]):
        super().__init__(path)
        self.hops, self.want_b = hops, want_b

    def check_text(self, text: str) -> None:
        gens = load_hops(self.hops)
        n, w = gens.n, (gens.d + 3) // 4
        head, _, body = text.partition("\n")
        cells = body.split()
        if head != "# k\tlambda\tcut" or len(cells) != 3 * n or not body.endswith("\n"):
            raise Wrong("spectrum table has the wrong shape")
        if cells[0::3] != [f"{k:0{w}X}" for k in range(n)]:
            raise Wrong("spectrum k column is not 0..n-1")
        lam = np.array(cells[1::3], dtype=np.int64)
        cut = np.array(cells[2::3], dtype=np.int64)
        if not (lam + 2 * cut == gens.m).all():
            raise Wrong("spectrum row breaks lambda = m - 2 cut")
        if cut[0] != 0 or int(cut[1:].min()) != self.want_b():
            raise Wrong(f"min cut {int(cut[1:].min())}, want b={self.want_b()}")


class WireCheck(FileCheck):
    """A full `lh wire` table: header, one row per switch, `**` on free
    ports, and on seeded sample rows x lists y at port s iff y lists x at
    port s."""

    def __init__(self, path: Path, n: int, m: int, radix: int, rows: list[int]):
        super().__init__(path)
        self.n, self.m, self.radix, self.rows = n, m, radix, rows

    def check_text(self, text: str) -> None:
        lines = text.split("\n")
        header = "Sw/Pt:\t" + "\t".join(f"#{s}" for s in range(1, self.radix + 1))
        if lines[0] != header or len(lines) != self.n + 2 or lines[-1]:
            raise Wrong("wiring table has the wrong shape")
        for x in self.rows:
            cells = lines[1 + x].split("\t")
            if cells[0] != f"{x:X}:" or len(cells) != 1 + self.radix:
                raise Wrong(f"wiring row {x:X} is malformed")
            if any(c != "**" for c in cells[1 + self.m:]):
                raise Wrong(f"wiring row {x:X} uses a free port")
            for s, cell in enumerate(cells[1 : 1 + self.m]):
                y = int(cell, 16)
                if int(lines[1 + y].split("\t")[1 + s], 16) != x:
                    raise Wrong(f"port {s + 1}: {x:X} lists {y:X}, not back")


def rescore_design(records, ports: int, radix: int) -> str:
    """What `lh design -P ports -R radix` must print, scored independently
    of the designer: weights 7/10 on port error and 3/10 on phi error
    (target phi 1), first minimum in (d, m) order."""
    best = None
    for rec in records:
        free = radix - rec.m
        if free <= 0 or rec.b < 1:
            continue
        got_ports = rec.n * free
        phi = Fraction(free, rec.b)
        score = (Fraction(7, 10) * Fraction(abs(got_ports - ports), ports)
                 + Fraction(3, 10) * abs(phi - 1))
        if best is None or score < best[0]:
            best = (score, rec, got_ports, free, phi)
    score, rec, got_ports, free, phi = best
    return (f"d={rec.d} m={rec.m} b={rec.b} n={rec.n} prov={rec.provenance}\n"
            f"ports={got_ports} free={free} phi={_frac(phi)} score={_frac(score)}\n")


def versus_hypercube_csv(records, radix: int) -> str:
    """What `lh compare --family lh_vs_hypercube` must print: per d in 3..8,
    the first record with the largest min(R - m, b) against the cube's 1."""
    lines = ["d,n,m,lh_yield,cube_yield,ratio,ratio_dec"]
    for d in range(3, 9):
        if radix < d + 1:
            continue
        best = None
        for rec in records:
            y = min(radix - rec.m, rec.b)
            if rec.d == d and y >= 1 and (best is None or y > best[0]):
                best = (y, rec.m)
        if best:
            lines.append(f"{d},{1 << d},{best[1]},{best[0]},1,{best[0]}/1,{float(best[0])!r}")
    return "\n".join(lines) + "\n"


def _apply(rows, x: int) -> int:
    out, i = 0, 0
    while x:
        if x & 1:
            out ^= rows[i]
        x >>= 1
        i += 1
    return out


def _min_weight(gens) -> int:
    return ecc.min_weight(ecc.hops_to_code(gens))


# ------------------------------------------------------------- workloads

def large_sparse(work: Path, rng: random.Random) -> Workload:
    b24, b20 = work / "b3_d24.hops", work / "b3_d20.hops"
    s20 = work / "spectrum_b3_d20.tsv"
    b = {}

    def referee(key, path):
        def check(weight):
            b[key] = weight
            if weight != 3:
                raise Wrong(f"min codeword weight {weight} for a b=3 set")
        return Op(None, check, call=lambda: _min_weight(load_hops(path)))

    return Workload(
        setup=[["build", "b3", "-d", "24", "-o", str(b24)],
               ["build", "b3", "-d", "20", "-o", str(b20)]],
        referees=[referee(24, b24), referee(20, b20)],
        ops=[
            Op("bisect_s", check_bisect(b24, lambda: b[24]), ["bisect", str(b24)]),
            Op("metrics_s", _exact(EXPECTED["b3_d24_metrics"]), ["metrics", str(b24)]),
            Op("spectrum_s", SpectrumCheck(s20, b20, lambda: b[20]),
               ["spectrum", str(b20), "-o", str(s20)], repeat=2),
        ],
        inputs={"b3_d24": (24, 29), "b3_d20": (20, 25)},
    )


def _hd_metrics_line(d: int, m: int) -> str:
    _, diameter, avg = constructions.hd_metrics(d, m)
    n = 1 << d
    return f"diam={diameter} avg={avg * n}/{n} ({float(avg)!r})\n"


def dense_hd(work: Path, rng: random.Random) -> Workload:
    hd15, hd14 = work / "hd_d15_m16384.hops", work / "hd_d14_m8192.hops"
    s14 = work / "spectrum_hd_d14.tsv"

    def closed_b(d, m):
        return lambda: constructions.hd_metrics(d, m)[0]

    return Workload(
        setup=[["build", "hd", "-d", "15", "-m", "16384", "-o", str(hd15)],
               ["build", "hd", "-d", "14", "-m", "8192", "-o", str(hd14)]],
        referees=[],
        ops=[
            Op("metrics_s", _exact(_hd_metrics_line(15, 16384)), ["metrics", str(hd15)]),
            Op("bisect_s", check_bisect(hd15, closed_b(15, 16384)), ["bisect", str(hd15)],
               repeat=5),
            Op("metrics_s", _exact(_hd_metrics_line(14, 8192)), ["metrics", str(hd14)]),
            Op("spectrum_s", SpectrumCheck(s14, hd14, closed_b(14, 8192)),
               ["spectrum", str(hd14), "-o", str(s14)], repeat=5),
        ],
        inputs={"hd_d15_m16384": (15, 16384), "hd_d14_m8192": (14, 8192)},
    )


def design_flow(work: Path, rng: random.Random) -> Workload:
    db, ref = work / "lh.db", work / "record_16_38.hops"
    s16, wired = work / "spectrum_16_38.tsv", work / "wire_16_38_R48.tsv"
    grid = [(rng.randint(64, 1 << 17), rng.randint(12, 64)) for _ in range(8)]
    compare_radix = rng.randint(16, 64)
    sample_rows = sorted(rng.sample(range(1 << 16), 1024))
    expansions = [
        (constructions.low_density_b3(12), constructions.low_density_b3(16),
         rng.randrange(1 << 31)),
        (constructions.low_density_b3(16), soldb.REFERENCE_EXAMPLES[2][1],
         rng.randrange(1 << 31)),
    ]
    small_b3 = [constructions.low_density_b3(d) for d in range(8, 13)]
    store = {}
    record = EXPECTED["record_16_38"]

    def export_record():
        # The record to check and wire, pulled from the seeded store.
        store["records"] = soldb.load(db).records()
        rec = next(r for r in store["records"] if (r.d, r.m) == (16, 38))
        ref.write_text(graph.format_hops(rec.gens))
        return rec.b, _min_weight(rec.gens)

    def check_record(bs):
        if bs != (record["b"], record["b"]):
            raise Wrong(f"stored and codeword b are {bs}, want {record['b']}")

    def search():
        return (
            [bisection.optimize_direct(4, m) for m in range(5, 9)],
            [constructions.optimize_secondary(g, objective=obj, budget=2000)
             for g in small_b3 for obj in ("diameter", "avg_hops")],
            [ecc.min_change_expansion(old, new, seed=seed)
             for old, new, seed in expansions],
        )

    def check_search(results):
        direct, secondary, expanded = results
        got = {str(m): {"hops": list(g.hops), "b": rep.b}
               for m, (g, rep) in zip(range(5, 9), direct)}
        if got != EXPECTED["optimize_direct"]:
            raise Wrong("optimize_direct differs from its recorded output")
        got = {f"{g.d},{obj}": list(r.hops) for (g, obj), r in zip(
            ((g, obj) for g in small_b3 for obj in ("diameter", "avg_hops")), secondary)}
        if got != EXPECTED["optimize_secondary"]:
            raise Wrong("optimize_secondary differs from its recorded output")
        for (old, new, _), res in zip(expansions, expanded):
            rows = res.emap.rows
            if gf2.rank(rows) != new.d:
                raise Wrong("min_change_expansion map is singular")
            if res.gens.hops != tuple(_apply(rows, h) for h in new.hops):
                raise Wrong("min_change_expansion hops are not the mapped set")
            if res.rewired != sum(h not in set(old.hops) for h in res.gens.hops):
                raise Wrong("min_change_expansion miscounts rewired hops")
            if _min_weight(res.gens) != _min_weight(new):
                raise Wrong("min_change_expansion changed b")

    def check_design(ports, radix):
        def check(out):
            want = rescore_design(store["records"], ports, radix)
            if out != want:
                raise Wrong(f"design printed {out!r}, rescoring gives {want!r}")
        return check

    def check_compare(out):
        want = versus_hypercube_csv(store["records"], compare_radix)
        if out != want:
            raise Wrong("compare table differs from the recomputed yields")

    dbarg = ["--db", str(db)]
    ops = [Op("db_verify_s", _exact("ok: 64 records verified\n"), ["db", "verify", *dbarg],
              repeat=3)]
    ops += [Op("design_s", check_design(p, r), ["design", "-P", str(p), "-R", str(r), *dbarg])
            for p, r in grid]
    ops += [
        Op(None, check_compare,
           ["compare", "--family", "lh_vs_hypercube", "-R", str(compare_radix), *dbarg]),
        Op("bisect_s", check_bisect(ref, lambda: record["b"]), ["bisect", str(ref)], repeat=5),
        Op("metrics_s", _exact(record["metrics"]), ["metrics", str(ref)], repeat=5),
        Op("spectrum_s", SpectrumCheck(s16, ref, lambda: record["b"]),
           ["spectrum", str(ref), "-o", str(s16)], repeat=5),
        Op("wire_s", WireCheck(wired, 1 << 16, 38, 48, sample_rows),
           ["wire", "--record", "16,38", "-R", "48", *dbarg, "-o", str(wired)]),
        Op("search_s", check_search, call=search),
    ]
    return Workload(
        setup=[["db", "seed", *dbarg]],
        referees=[Op(None, check_record, call=export_record)],
        ops=ops,
        inputs={"record_16_38": (16, 38), "b3_d12": (12, 17), "b3_d16": (16, 21)},
    )


WORKLOADS = {"large_sparse": large_sparse, "dense_hd": dense_hd, "design_flow": design_flow}


# ---------------------------------------------------------------- running

class Runner:
    """Runs operations one at a time and counts attempts and failures."""

    def __init__(self, in_process: bool, deadline: float):
        self.in_process = in_process
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        WORK.mkdir(exist_ok=True)
        self._launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.wait()

    def execute(self, op: Op) -> Result:
        if op.call is not None:
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation, counted below
                return Result(op, time.perf_counter() - t0, 0.0, None, repr(exc))
            return Result(op, time.perf_counter() - t0, 0.0, out, None)
        if self.in_process:
            return self._call_main(op)
        return self.spawn(op, [sys.executable, "-m", "longhop.cli", *op.argv])

    def _call_main(self, op: Op) -> Result:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf):
                rc = cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        wall = time.perf_counter() - t0
        return Result(op, wall, 0.0, buf.getvalue(), None if rc == 0 else f"exit {rc}")

    def spawn(self, op: Op, argv: list[str]) -> Result:
        """Run argv as a child of the launcher (spawn.py), which reports
        the child's own wall time and peak RSS."""
        out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
        request = {
            "argv": argv, "cwd": str(WORK), "stdout": str(out_path),
            "stderr": str(err_path), "timeout": max(self.deadline - time.monotonic(), 1.0),
        }
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        error = None
        if reply["rc"] != 0:
            error = f"exit {reply['rc']}: {err_path.read_text()[-300:]!r}"
        return Result(op, reply["wall_s"], reply["rss_mb"], out_path.read_text(), error)

    def judge(self, res: Result) -> None:
        self.attempted += 1
        try:
            if res.error:
                raise Wrong(res.error)
            res.op.check(res.output)
        except Exception as exc:  # a check that cannot parse the output fails it
            self.failed += 1
            self.errors.append(f"{res.op.label}: {exc!r}")


def fresh_workdir(name: str) -> Path:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def run_setup(runner: Runner, wl: Workload) -> float:
    results = [runner.execute(Op(None, _ok, argv)) for argv in wl.setup]
    for res in results:
        runner.judge(res)
    return sum(r.wall_s for r in results)


def run_referees(runner: Runner, wl: Workload) -> None:
    for res in [runner.execute(op) for op in wl.referees]:
        runner.judge(res)


def run_pass(runner: Runner, wl: Workload, tracer=None, repeat=False) -> list[Result]:
    """One pass over the workload's operations, each `op.repeat` times when
    `repeat` is set; outputs are checked after the tracer is removed, so
    checks add no spans."""
    with tracer or nullcontext():
        results = [runner.execute(op) for op in wl.ops
                   for _ in range(op.repeat if repeat else 1)]
    for res in results:
        runner.judge(res)
    return results


def measure_e2e(runner: Runner, name: str, seed: int, seconds: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        work = fresh_workdir(name)
        wl = WORKLOADS[name](work, random.Random(seed))
        setups.append(run_setup(runner, wl))
    run_referees(runner, wl)

    samples: dict[str, list[float]] = defaultdict(list)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = run_pass(runner, wl, repeat=True)
        walls = defaultdict(list)
        for res in results:
            walls[id(res.op)].append(res.wall_s)
        op_times = [(op.metric, min(walls[id(op)])) for op in wl.ops]
        per_metric = defaultdict(list)
        for metric, op_s in op_times:
            if metric:
                per_metric[metric].append(op_s)
        for metric, op_s in per_metric.items():
            samples[metric].append(PASS_REDUCE.get(metric, sum)(op_s))
        samples["wall_s"].append(sum(op_s for _, op_s in op_times))
        samples["peak_rss_mb"].append(max(r.rss_mb for r in results))
        pass_s = time.perf_counter() - t0
        if (time.perf_counter() - start + pass_s > seconds
                or time.monotonic() + pass_s > runner.deadline):
            break
    samples["setup_s"] = setups
    samples["fail_frac"] = [runner.failed / runner.attempted]
    units = {**E2E_UNITS, **DESIGN_UNITS, "fail_frac": "ratio"}
    detail = {k: _summary(v, units[k]) for k, v in samples.items()}
    result = {k: {"value": detail[k]["value"], "unit": u} for k, u in E2E_UNITS.items()}
    return wl, detail, result


def measure_layers(runner: Runner, name: str, seed: int, seconds: float):
    work = fresh_workdir(name)
    wl = WORKLOADS[name](work, random.Random(seed))
    with layers.Tracer() as setup_tracer:
        run_setup(runner, wl)
        run_referees(runner, wl)

    untraced, traced, per_pass = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(sum(r.wall_s for r in run_pass(runner, wl)))
        tracer = layers.Tracer()
        traced.append(sum(r.wall_s for r in run_pass(runner, wl, tracer)))
        per_pass.append(layers.layer_metrics(setup_tracer.merged(tracer)))
        pair_s = time.perf_counter() - t0
        if (time.perf_counter() - start + pair_s > seconds
                or time.monotonic() + pair_s > runner.deadline):
            break
    values = layers.median_metrics(per_pass)
    values["cli.import_s"] = statistics.median(import_times(runner))
    values["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    result = {k: {"value": values[k], "unit": u} for k, u in layers.PER_LAYER_UNITS.items()}
    detail = {k: {**v, "samples": len(per_pass)} for k, v in result.items()}
    detail["cli.import_s"]["samples"] = IMPORT_REPEATS
    return wl, detail, result


def import_times(runner: Runner) -> list[float]:
    """Wall time of fresh processes that only import longhop.cli."""
    probe = Op(None, _ok)
    cmd = [sys.executable, "-c", "import longhop.cli"]
    times = []
    for _ in range(IMPORT_REPEATS):
        res = runner.spawn(probe, cmd)
        runner.judge(res)
        times.append(res.wall_s)
    return times


def _summary(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "samples": len(values)}


# ----------------------------------------------------------- the machine

def machine() -> dict:
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    try:
        meminfo = Path("/proc/meminfo").read_text()
        info["ram_mb"] = int(re.search(r"MemTotal:\s+(\d+) kB", meminfo)[1]) // 1024
        cpuinfo = Path("/proc/cpuinfo").read_text()
        info["cpu"] = re.search(r"model name\s*:\s*(.*)", cpuinfo)[1]
    except (OSError, TypeError):
        pass
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    for key in ("L1d", "L2", "L3"):
        match = re.search(rf"^{key} cache:\s*(.*)$", lscpu, re.M)
        if match:
            info[f"{key}_cache"] = match[1].strip()
    return info


def array_bytes(d: int, m: int) -> dict:
    """Sizes of the arrays the engines allocate for one input, computed
    from d and m (not measured)."""
    n = 1 << d
    return {
        "n": n,
        "m": m,
        "fwht_int64_bytes": 8 * n,
        "bfs_state_bytes": 6 * n,  # int32 distances plus two bool masks
        # frontier x m int64 neighbour block; the first frontier holds m
        # nodes, later ones at most n - 1 - m, and rows are capped at 2^18
        "bfs_block_bytes_bound": min(max(m, n - 1 - m), 1 << 18) * m * 8,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    measure = measure_layers if args.trace else measure_e2e
    runner = Runner(in_process=bool(args.trace), deadline=time.monotonic() + RUN_BUDGET_S)
    try:
        wl, detail, metrics = measure(runner, args.workload, args.seed, args.seconds)
    finally:
        runner.close()
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"detail": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "computed_array_bytes": {k: array_bytes(*dm) for k, dm in wl.inputs.items()},
        "metrics": detail,
        "errors": runner.errors[:20],
    }}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "longhop" / "cli.py").is_file():
        sys.exit(f"error: {SRC} holds no longhop package; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import numpy as np

    from longhop import (bisection, cli, constructions, ecc, gf2, graph,
                         soldb)
    from longhop.graph import load_hops

    import layers

    EXPECTED = json.loads((BENCH / "expected.json").read_text())
    sys.exit(main())
