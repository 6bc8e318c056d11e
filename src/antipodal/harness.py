"""Sweep driver: ε grids over generators and boundary graphs, power-law
exponent fits, margin tracking, CSV emission.

ε grids are geometric (default factor 2) so that log-log exponent fits see
evenly spaced abscissae.  Sweeps are deterministic given specs and seeds and
rerunning writes byte-identical CSV.  Rows with zero antipodes are flagged
vacuous and excluded from fits; rows with n*eps < 10 are kept but a warning
is logged (counts track the continuum heuristics poorly below that).  Messages
go to the ``antipodal`` logger.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .boundary import build_graph, discretize_boundary
from .generators import GeneratorSpec, circle_config, make_config
from .geometry import (
    ConvexPolygon,
    PairCounts,
    PointSet,
    VacuousMarginError,
    _check_epsilon,
    convex_hull,
    pair_counts,
    pair_counts_grid,
    ratio_margin,
)
from .spectral import bound_chain

log = logging.getLogger("antipodal")
DEFAULT_RATIO_GRID = (0.08, 0.04, 0.02, 0.01, 0.005)
DEFAULT_SPECTRAL_GRID = (1 / 64, 1 / 128, 1 / 256, 1 / 512, 1 / 1024)
SPECTRAL_HULL_POINTS = 10_000

RATIO_COLUMNS = ("epsilon", "n", "neighbors", "antipodes", "ratio", "margin")
SPECTRAL_COLUMNS = ("epsilon", "k", "lambda1", "cw", "sqrtdeg", "trace")


@dataclass(frozen=True)
class RatioRecord:
    """One ratio-sweep row: the pair counts measured at one ε.  A row with no
    antipodes is vacuous, and its ratio and margin are None."""

    epsilon: float
    size: int
    neighbors: int
    antipodes: int

    @property
    def vacuous(self) -> bool:
        return self.antipodes == 0

    @property
    def ratio(self) -> float | None:
        return None if self.vacuous else self.neighbors / self.antipodes

    @property
    def margin(self) -> float | None:
        if self.vacuous:
            return None
        return ratio_margin(PairCounts(self.neighbors, self.antipodes, self.epsilon))


@dataclass(frozen=True)
class SpectralRecord:
    """One spectral-sweep row: the box count k and the bound chain at one ε."""

    epsilon: float
    size: int
    lambda1: float
    cw: float
    sqrtdeg: float
    trace: float


@dataclass(frozen=True)
class ExponentFit:
    alpha: float
    intercept: float
    residual: float
    points_used: int


class SweepAborted(RuntimeError):
    """A row failed; carries the rows completed before the failure."""

    def __init__(self, message: str, partial: list):
        super().__init__(message)
        self.partial = partial


def _check_ratio_grid(epsilons) -> list[float]:
    eps = [float(e) for e in epsilons]
    if any(not 0.0 < e <= 0.1 for e in eps):
        raise ValueError("ratio sweep epsilons must lie in (0, 0.1]")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    return eps


def sweep_ratio(spec: GeneratorSpec, epsilons) -> list[RatioRecord]:
    """Pair counts, ratio, and margin for one generator across an ε grid.

    arc_center is regenerated and counted at every ε (its construction
    consumes ε); other generators are built once, and the whole grid is
    counted on that fixed point set in one pass.
    """
    eps_list = _check_ratio_grid(epsilons)
    records: list[RatioRecord] = []
    base: PointSet | None = None
    grid: list[PairCounts] = []
    if spec.kind != "arc_center":
        base = make_config(spec)
    for i, eps in enumerate(eps_list):
        try:
            if base is None:
                ps = make_config(spec, eps)
                counts = pair_counts(ps, eps)
            else:
                ps = base
                grid = grid or pair_counts_grid(ps, eps_list)
                counts = grid[i]
        except Exception as exc:
            raise SweepAborted(
                f"{spec.label()} failed at eps={eps}: {exc}", records
            ) from exc
        if ps.n * eps < 10.0:
            log.warning("%s at eps=%s: n*eps = %.3g < 10, counts may not track "
                        "continuum behavior", spec.label(), eps, ps.n * eps)
        records.append(RatioRecord(eps, ps.n, counts.neighbors, counts.antipodes))
    return records


def spectral_record(hull: ConvexPolygon, epsilon: float) -> SpectralRecord:
    """The bound chain of the antipodal box graph of `hull` at ε, as one row."""
    boxing = discretize_boundary(hull, epsilon)
    report = bound_chain(build_graph(boxing))
    return SpectralRecord(epsilon, boxing.k, report.lambda1, report.cw_bound,
                          report.sqrt_degree_bound, report.trace_bound)


def sweep_spectral(epsilons, hull_points: int = SPECTRAL_HULL_POINTS) -> list[SpectralRecord]:
    """Bound chain across an ε grid on the fixed diameter-1 circle boundary.

    The hull source is the convex hull of circle_config(hull_points).
    """
    eps_list = [_check_epsilon(e) for e in epsilons]
    hull = convex_hull(circle_config(hull_points))
    records: list[SpectralRecord] = []
    for eps in eps_list:
        try:
            records.append(spectral_record(hull, eps))
        except Exception as exc:
            raise SweepAborted(f"spectral sweep failed at eps={eps}: {exc}",
                               records) from exc
    return records


def fit_exponent(records: list, fit_field: str) -> ExponentFit:
    """OLS of log(field) against log(ε) over the non-vacuous records."""
    if fit_field not in RATIO_COLUMNS[2:] + SPECTRAL_COLUMNS[2:]:
        raise ValueError(f"unknown fit field {fit_field!r}")
    usable = [r for r in records if not getattr(r, "vacuous", False)
              and getattr(r, fit_field, None) is not None]
    if len(usable) < 3:
        raise ValueError(f"need at least 3 non-vacuous records, have {len(usable)}")
    values = np.array([getattr(r, fit_field) for r in usable], dtype=np.float64)
    if (values <= 0.0).any():
        raise ValueError(f"field {fit_field!r} must be positive for a log-log fit")
    x = np.log([r.epsilon for r in usable])
    y = np.log(values)
    alpha, intercept = np.polyfit(x, y, 1)
    residual = float(np.abs(y - (alpha * x + intercept)).max())
    return ExponentFit(
        alpha=float(alpha),
        intercept=float(intercept),
        residual=residual,
        points_used=len(usable),
    )


def theorem_margin_report(specs: list[GeneratorSpec], epsilons) -> float:
    """Smallest ratio margin over all non-vacuous rows of all sweeps.

    This is the largest universal proportionality constant consistent with
    every configuration examined; per-spec minima are logged at INFO.
    """
    if not specs:
        raise ValueError("at least one generator spec is required")
    overall = math.inf
    any_rows = False
    for spec in specs:
        margins = [
            r.margin for r in sweep_ratio(spec, epsilons) if not r.vacuous
        ]
        if not margins:
            log.warning("%s: all rows vacuous", spec.label())
            continue
        any_rows = True
        m = min(margins)
        log.info("%s: min margin %.6g", spec.label(), m)
        overall = min(overall, m)
    if not any_rows:
        raise VacuousMarginError("every sweep row was vacuous")
    return overall


# ---------------------------------------------------------------------------
# CSV emission: '.' decimal point, repr round-trip floats, header mandatory
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _csv_rows(columns: tuple[str, ...], records: list) -> list[str]:
    # the second column is each record's size, named n or k
    fields = ("epsilon", "size") + columns[2:]
    return [",".join(columns)] + [
        ",".join(_fmt(getattr(r, f)) for f in fields) for r in records
    ]


def ratio_csv_rows(records: list[RatioRecord]) -> list[str]:
    return _csv_rows(RATIO_COLUMNS, records)


def spectral_csv_rows(records: list[SpectralRecord]) -> list[str]:
    return _csv_rows(SPECTRAL_COLUMNS, records)


def write_csv(path, lines: list[str]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def geometric_grid(start: float, factor: float, count: int) -> list[float]:
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 < factor < 1.0:
        raise ValueError("factor must lie in (0, 1) so the grid decreases")
    return [start * factor**t for t in range(count)]
