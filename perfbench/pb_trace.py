"""Span tracing of the antipodal package from outside it.

A `Tracer` replaces each public function named in `TARGETS` by a wrapper
that records a span (name, start, end, parent) and, through a hook, the
sizes of the work it did.  Wrappers are installed where callers look the
function up: the defining module's attribute and every other ``antipodal``
namespace that imported the same object (``harness`` imports most of its
callees by name).  Leaving the ``with`` block restores the originals.

A target the program no longer has is recorded in `Tracer.absent` and its
metrics are reported as absent; tracing carries on without it.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field


def _points(args, kwargs, result):
    return {"n": result.n}


def _first_arg_points(args, kwargs, result):
    return {"n": args[0].n}


def _boxing(args, kwargs, result):
    return {"k": result.k}


def _graph(args, kwargs, result):
    return {"k": result.k, "nnz": 2 * result.edge_count}


def _tail(args, kwargs, result):
    return {"k": args[0].k}


def _csr(args, kwargs, result):
    return {"k": args[0].shape[0] - 1, "nnz": args[1].shape[0]}


def _grid(args, kwargs, result):
    res = args[8] if len(args) > 8 else kwargs.get("res", 8)
    return {"cells": result.size, "occupied": int(result.sum()), "res": res}


GENERATORS = ("circle_config", "arc_center_config", "random_disk_config",
              "reuleaux_boundary_config", "make_config")
DISPATCHERS = ("pair_threshold_counts", "max_pairwise_distance_sq",
               "box_adjacency_csr", "annuli_occupancy_grid", "csr_matvec",
               "common_neighbor_counts")

# span name ("<module>.<attribute path>") -> hook returning the span's sizes
TARGETS = {
    **{f"generators.{g}": _points for g in GENERATORS},
    "geometry.diameter": _first_arg_points,
    "geometry.convex_hull": None,
    "geometry.read_points": None,
    "geometry.pair_counts": _first_arg_points,
    "boundary.discretize_boundary": _boxing,
    "boundary.build_graph": _graph,
    "boundary.max_scaled_tail": _tail,
    "boundary.max_neighborhood_degree_sum": None,
    "boundary.AntipodalGraph.matvec": None,
    "spectral.bound_chain": None,
    "spectral.lambda1": None,
    "spectral.collatz_wielandt_bound": None,
    "spectral.sqrt_degree_bound": None,
    "spectral.trace_bound": None,
    "annuli.spans": None,
    "annuli.cover_count": None,
    "annuli.thickened_cover_count": None,
    **{f"kernels.{k}": None for k in DISPATCHERS},
    "kernels.csr_matvec": _csr,
    "kernels.common_neighbor_counts": _csr,
    "kernels.annuli_occupancy_grid": _grid,
    "harness.sweep_spectral": None,
    "harness.sweep_ratio": None,
    "harness.theorem_margin_report": None,
    "harness.fit_exponent": None,
    "harness.spectral_csv_rows": None,
    "harness.ratio_csv_rows": None,
    "cli.main": None,
}

ROOT_SPAN = "bench.pass"


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = math.nan
    attrs: dict | None = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that installs span wrappers and collects spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for name, hook in TARGETS.items():
            self._install(name, hook)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span of its own (the benchmark's root span)."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _install(self, name, hook):
        module_name, _, path = name.partition(".")
        try:
            owner = importlib.import_module(f"antipodal.{module_name}")
        except ImportError:
            self.absent.add(name)
            return
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.add(name)
            return
        wrapper = self._wrap(name, original, hook)
        if owner_path:
            self._rebind(owner, attr, wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "antipodal" or mod_name.startswith("antipodal."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    span.attrs = hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    span.attrs = None  # the program changed shape: sizes unknown
            return result

        return traced


class Absent(Exception):
    """A metric's span or size is not available from this program."""


class Profile:
    """Queries over one traced pass: inclusive and self times, call counts
    and size totals."""

    def __init__(self, spans: list[Span], absent: set[str]):
        self.spans = spans
        self.absent = absent
        self.child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                self.child_time[span.parent] += span.duration

    def _need(self, names):
        missing = self.absent.intersection(names)
        if missing:
            raise Absent(", ".join(sorted(missing)))

    def _inside(self, i: int, names) -> bool:
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False

    def inclusive(self, *names) -> float:
        """Time inside any of `names`, nested calls counted once."""
        self._need(names)
        return sum(s.duration for i, s in enumerate(self.spans)
                   if s.name in names and not self._inside(i, names))

    def self_time(self, *names) -> float:
        self._need(names)
        return sum(s.duration - self.child_time[i]
                   for i, s in enumerate(self.spans) if s.name in names)

    def calls(self, name, within=()) -> int:
        self._need((name, *within))
        return sum(1 for i, s in enumerate(self.spans)
                   if s.name == name and (not within or self._inside(i, within)))

    def total(self, names, size) -> list:
        """The `size` attribute of every outermost span in `names` (one name
        or a tuple of names)."""
        names = (names,) if isinstance(names, str) else names
        self._need(names)
        out = []
        for i, s in enumerate(self.spans):
            if s.name in names and not self._inside(i, names):
                if s.attrs is None or size not in s.attrs:
                    raise Absent(f"{s.name}.{size}")
                out.append(s.attrs[size])
        return out

    def module_self_times(self) -> dict[str, float]:
        """Self time per module; the values add up to the root span."""
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            module = s.name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + s.duration - self.child_time[i]
        return out

    def wall(self) -> float:
        return sum(s.duration for s in self.spans if s.parent < 0)


def _ratio(num, den):
    return num / den if den else 0.0


def _pairs(ns):
    return sum(n * (n - 1) // 2 for n in ns)


def _layer_table():
    gens = tuple(f"generators.{g}" for g in GENERATORS)
    grid = "kernels.annuli_occupancy_grid"
    table = {
        "generators.config_s": ("s", lambda p: p.inclusive(*gens)),
        "generators.points": ("count", lambda p: sum(p.total(gens, "n"))),
        "geometry.diameter_s": ("s", lambda p: p.inclusive("geometry.diameter")),
        "geometry.diameter_pairs": ("count", lambda p: _pairs(p.total("geometry.diameter", "n"))),
        "geometry.hull_s": ("s", lambda p: p.inclusive("geometry.convex_hull")),
        "geometry.read_points_s": ("s", lambda p: p.inclusive("geometry.read_points")),
        "geometry.pair_counts_s": ("s", lambda p: p.inclusive("geometry.pair_counts")),
        "geometry.pair_counts_calls": ("count", lambda p: p.calls("geometry.pair_counts")),
        "geometry.pairs_evaluated": ("count", lambda p: _pairs(p.total("geometry.pair_counts", "n"))),
        "boundary.discretize_s": ("s", lambda p: p.inclusive("boundary.discretize_boundary")),
        "boundary.boxes": ("count", lambda p: sum(p.total("boundary.discretize_boundary", "k"))),
        "boundary.build_graph_s": ("s", lambda p: p.inclusive("boundary.build_graph")),
        "boundary.nnz": ("count", lambda p: sum(p.total("boundary.build_graph", "nnz"))),
        "boundary.box_pairs_tested": ("count", lambda p: sum(
            k * k for k in p.total("boundary.build_graph", "k"))),
        "boundary.edge_frac": ("frac", lambda p: _ratio(
            sum(p.total("boundary.build_graph", "nnz")),
            sum(k * k for k in p.total("boundary.build_graph", "k")))),
        "boundary.tail_s": ("s", lambda p: p.inclusive("boundary.max_scaled_tail")),
        "boundary.tail_rows": ("count", lambda p: sum(p.total("boundary.max_scaled_tail", "k"))),
        "boundary.nds_s": ("s", lambda p: p.inclusive("boundary.max_neighborhood_degree_sum")),
        "spectral.bound_chain_s": ("s", lambda p: p.inclusive("spectral.bound_chain")),
        "spectral.lambda1_s": ("s", lambda p: p.inclusive("spectral.lambda1")),
        "spectral.matvecs": ("count", lambda p: p.calls(
            "boundary.AntipodalGraph.matvec", within=("spectral.lambda1",))),
        "spectral.bounds_s": ("s", lambda p: p.inclusive(
            "spectral.collatz_wielandt_bound", "spectral.sqrt_degree_bound",
            "spectral.trace_bound")),
    }
    for k in DISPATCHERS:
        table[f"kernels.{k}_s"] = ("s", lambda p, k=k: p.inclusive(f"kernels.{k}"))
        table[f"kernels.{k}_calls"] = ("count", lambda p, k=k: p.calls(f"kernels.{k}"))
    # computed, not measured: an int64 index and a gathered float64 per stored
    # entry, plus the indptr and output vectors
    for k in ("csr_matvec", "common_neighbor_counts"):
        table[f"kernels.{k}_bytes"] = ("bytes", lambda p, k=k: sum(
            16 * n + 16 * m for n, m in zip(p.total(f"kernels.{k}", "nnz"),
                                            p.total(f"kernels.{k}", "k"))))
    table.update({
        "kernels.annuli_occupancy_grid_samples": ("count", lambda p: sum(
            c * r * r for c, r in zip(p.total(grid, "cells"), p.total(grid, "res")))),
        "annuli.cover_s": ("s", lambda p: p.inclusive("annuli.cover_count")),
        "annuli.thickened_s": ("s", lambda p: p.inclusive("annuli.thickened_cover_count")),
        "annuli.spans_s": ("s", lambda p: p.inclusive("annuli.spans")),
        "annuli.cells_tested": ("count", lambda p: sum(p.total(grid, "cells"))),
        "annuli.occupied_frac": ("frac", lambda p: _ratio(
            sum(p.total(grid, "occupied")), sum(p.total(grid, "cells")))),
        "harness.self_s": ("s", lambda p: p.self_time(
            "harness.sweep_spectral", "harness.sweep_ratio",
            "harness.theorem_margin_report")),
        "harness.csv_s": ("s", lambda p: p.inclusive(
            "harness.spectral_csv_rows", "harness.ratio_csv_rows")),
        "harness.fit_s": ("s", lambda p: p.inclusive("harness.fit_exponent")),
        "cli.self_s": ("s", lambda p: p.self_time("cli.main")),
    })
    return table


LAYER_METRICS = _layer_table()


def layer_metrics(profile: Profile) -> dict[str, float | None]:
    """Every metric of `LAYER_METRICS` for one traced pass; None = absent."""
    out = {}
    for name, (_, fn) in LAYER_METRICS.items():
        try:
            out[name] = float(fn(profile))
        except Absent:
            out[name] = None
    return out
