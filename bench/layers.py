"""Span wrappers that time longhop's layers from outside the package.

`Tracer.install()` (or entering `with tracer:`) replaces each public
function named in `LAYERS` with a wrapper that records a span (start, end,
parent) and counts calls.  The
wrapper is written into every loaded `longhop` module that holds the
function under its own name (for example `longhop.cli.cut_counts` as well
as `longhop.bisection.cut_counts`), so calls made through an import are
traced too.  `Tracer.remove()` restores the originals.

A span's self time is its duration minus the time covered by its child
spans.  Spans live in memory; `layer_metrics` turns them into the
per-layer metrics the benchmark prints.
"""
from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict


def _fwht_bytes(values) -> int:
    # Each of the log2(n) butterfly stages reads and writes the n-entry
    # int64 vector once: 16 * n * log2(n) bytes, computed, not measured.
    n = len(values)
    return 16 * n * int(math.log2(n)) if n > 1 else 0


def _bfs_edges(gens) -> int:
    return gens.n * gens.m


def _wire_rows(table, stream, lo=0, hi=None) -> int:
    hi = table.n - 1 if hi is None else hi
    return hi - lo + 1


# (module, qualified name, work counter or None, track memory)
LAYERS = (
    ("walsh", "fwht", _fwht_bytes, False),
    ("bisection", "eigenvalues", None, False),
    ("bisection", "cut_counts", None, False),
    ("bisection", "optimize_direct", None, False),
    ("graph", "distance_profile", _bfs_edges, True),
    ("graph", "load_hops", None, False),
    ("gf2", "rank", None, False),
    ("ecc", "min_weight", None, False),
    ("ecc", "min_change_expansion", None, False),
    ("constructions", "low_density_b3", None, False),
    ("constructions", "lh_hd", None, False),
    ("constructions", "optimize_secondary", None, False),
    ("soldb", "seed_defaults", None, False),
    ("soldb", "make_record", None, False),
    ("soldb", "loads", None, False),
    ("soldb", "SolutionDB.verify", None, False),
    ("designer", "find_solution", None, False),
    ("designer", "WiringTable.write", _wire_rows, False),
    ("compare", "versus_hypercube", None, False),
    ("cli", "cmd_spectrum", None, False),
)


class _Stat:
    __slots__ = ("calls", "s", "self_s", "work", "peak_bytes")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.work = 0
        self.peak_bytes = 0


class Tracer:
    """In-memory spans and counters for one traced stretch of work."""

    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        # (ancestor span name, callee name) -> calls made under that ancestor
        self.nested: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[list] = []  # [name, seconds covered by children]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, work, track_memory):
        stats, nested, stack = self.stats, self.nested, self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            for ancestor in {frame[0] for frame in stack}:
                nested[ancestor, name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            measure = track_memory and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                st = stats[name]
                if measure:
                    st.peak_bytes = max(st.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                st.calls += 1
                st.s += dt
                st.self_s += dt - frame[1]
                if work is not None:
                    st.work += work(*args, **kwargs)

        return span

    def install(self) -> None:
        for mod_name, qualname, work, track_memory in LAYERS:
            module = importlib.import_module(f"longhop.{mod_name}")
            name = f"{mod_name}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(name, original, work, track_memory))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, work, track_memory)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("longhop") and (
                    mod.__dict__.get(attr) is original
                ):
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def merged(self, other: "Tracer") -> "Tracer":
        """A tracer holding the spans and counts of both."""
        out = Tracer()
        for src in (self, other):
            for name, st in src.stats.items():
                dst = out.stats[name]
                dst.calls += st.calls
                dst.s += st.s
                dst.self_s += st.self_s
                dst.work += st.work
                dst.peak_bytes = max(dst.peak_bytes, st.peak_bytes)
            for key, calls in src.nested.items():
                out.nested[key] += calls
        return out


# Per-layer metric -> unit.  Every workload reports all of them; a layer
# its commands never reach reads 0.
PER_LAYER_UNITS = {
    "walsh.fwht.self_s": "s",
    "walsh.fwht.bytes_computed": "bytes",
    "bisection.cut_counts.self_s": "s",
    "bisection.cut_counts.calls": "count",
    "bisection.optimize_direct.s": "s",
    "bisection.optimize_direct.survivor_ratio": "ratio",
    "graph.distance_profile.s": "s",
    "graph.distance_profile.edges": "count",
    "graph.distance_profile.traced_peak_mb": "MB",
    "graph.load_hops.s": "s",
    "ecc.min_weight.s": "s",
    "ecc.min_change_expansion.s": "s",
    "gf2.rank.calls": "count",
    "constructions.optimize_secondary.s": "s",
    "constructions.optimize_secondary.bfs_calls": "count",
    "constructions.optimize_secondary.fwht_calls": "count",
    "constructions.low_density_b3.s": "s",
    "constructions.lh_hd.s": "s",
    "soldb.seed_defaults.s": "s",
    "soldb.SolutionDB.verify.s": "s",
    "soldb.make_record.calls": "count",
    "soldb.loads.s": "s",
    "designer.find_solution.s": "s",
    "designer.WiringTable.write.s": "s",
    "designer.WiringTable.write.rows_per_s": "1/s",
    "cli.cmd_spectrum.self_s": "s",
    "compare.versus_hypercube.s": "s",
    "cli.import_s": "s",
    "trace_overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer values from one tracer (cli.import_s and the overhead
    come from elsewhere)."""
    st = tr.stats
    out = {}
    for name in PER_LAYER_UNITS:
        layer, _, stat = name.rpartition(".")
        if stat in ("s", "self_s", "calls"):
            out[name] = float(getattr(st[layer], stat))
    out.update({
        "walsh.fwht.bytes_computed": float(st["walsh.fwht"].work),
        "bisection.optimize_direct.survivor_ratio": _ratio(
            tr.nested["bisection.optimize_direct", "graph.distance_profile"],
            tr.nested["bisection.optimize_direct", "bisection.cut_counts"],
        ),
        "graph.distance_profile.edges": float(st["graph.distance_profile"].work),
        "graph.distance_profile.traced_peak_mb":
            st["graph.distance_profile"].peak_bytes / 2**20,
        "constructions.optimize_secondary.bfs_calls": float(
            tr.nested["constructions.optimize_secondary", "graph.distance_profile"]
        ),
        "constructions.optimize_secondary.fwht_calls": float(
            tr.nested["constructions.optimize_secondary", "walsh.fwht"]
        ),
        "designer.WiringTable.write.rows_per_s": _ratio(
            st["designer.WiringTable.write"].work, st["designer.WiringTable.write"].s
        ),
    })
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over several traced passes."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
