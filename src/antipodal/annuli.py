"""Thin-annuli intersection geometry: closed-form vertices, spans, and
sampled box-cover counts.

Two congruent annuli with inner radius 1 - eps and outer radius 1 are placed
with centers (-d/2, 0) and (d/2, 0).  For 4*eps <= d <= 1 their intersection
is two mirror-image curvilinear quadrilaterals; all operations here work on
the upper one.  The region is represented implicitly by the membership
predicate "inside both annuli" plus its four corner vertices; a cover counts
the ε/2 cells with an interior sample point inside both annuli (res x res
samples per cell), rather than clipping arc polygons.  Each sample column's
inside samples form one run of rows; `kernels` guesses the run's ends with
`np.searchsorted`, certifies them with the membership expressions and paints
the runs into the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .geometry import Point, _check_epsilon

RADICAND_CLAMP = -1e-14
# samples per block of the height bound in `spans`
_SPAN_BLOCK = 64


class NegativeRadicandError(ValueError):
    """A vertex radicand is negative: the configuration is outside the
    admissible range (the circles fail to cross as required)."""


@dataclass(frozen=True)
class AnnulusPairConfig:
    """Two annuli, radii [1 - epsilon, 1], centers (-d/2, 0) and (d/2, 0).

    Construction validates basic ranges (0 < d <= 1, 0 < epsilon < 1/2);
    the hypothesis 4*epsilon <= d needed for the span/cover guarantees is
    reported by `meets_hypothesis` and surfaces as NegativeRadicandError
    from vertex computations when violated badly (d < epsilon).
    """

    d: float
    epsilon: float

    def __post_init__(self):
        d = float(self.d)
        if not 0.0 < d <= 1.0:
            raise ValueError(f"center distance d must lie in (0, 1], got {d}")
        eps = _check_epsilon(self.epsilon)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "epsilon", eps)

    @property
    def meets_hypothesis(self) -> bool:
        return 4.0 * self.epsilon <= self.d


class IntersectionVertices(NamedTuple):
    """The four corners of the upper intersection region.

    axis_outer / axis_inner sit on the y-axis (outer-outer and inner-inner
    circle crossings); side_pos / side_neg are the mirror-image outer-inner
    crossings with side_pos.x > 0.
    """

    axis_outer: Point
    axis_inner: Point
    side_pos: Point
    side_neg: Point


def _sqrt_clamped(radicand: float, what: str) -> float:
    if radicand < 0.0:
        if radicand >= RADICAND_CLAMP:
            return 0.0
        raise NegativeRadicandError(
            f"{what} radicand {radicand} is negative: configuration outside range"
        )
    return math.sqrt(radicand)


def intersection_vertices(cfg: AnnulusPairConfig) -> IntersectionVertices:
    """Closed-form circle-crossing corners of the upper intersection region."""
    d = cfg.d
    e = cfg.epsilon
    y_outer = _sqrt_clamped(4.0 - d * d, "axis_outer") / 2.0
    y_inner = _sqrt_clamped(4.0 - d * d + 4.0 * e * e - 8.0 * e, "axis_inner") / 2.0
    sx = (2.0 * e - e * e) / (2.0 * d)
    rad = (
        -(d ** 4)
        + 2.0 * d * d * e * e
        - 4.0 * d * d * e
        + 4.0 * d * d
        - e ** 4
        + 4.0 * e ** 3
        - 4.0 * e * e
    )
    sy = _sqrt_clamped(rad, "side") / (2.0 * d)
    return IntersectionVertices(
        axis_outer=Point(0.0, y_outer),
        axis_inner=Point(0.0, y_inner),
        side_pos=Point(sx, sy),
        side_neg=Point(-sx, sy),
    )


def _band_heights(d: float, eps: float, xs: np.ndarray):
    """Top and bottom of the upper intersection at abscissae xs.

    Top is the lower of the two outer circles (the farther center); bottom is
    the higher of the two inner circles (the nearer center).
    """
    ax = np.abs(xs)
    top_off = ax + d / 2.0
    bot_off = np.abs(ax - d / 2.0)
    y_top = np.sqrt(np.maximum(1.0 - top_off * top_off, 0.0))
    r_in = 1.0 - eps
    y_bot = np.sqrt(np.maximum(r_in * r_in - bot_off * bot_off, 0.0))
    return y_top, y_bot


def spans(cfg: AnnulusPairConfig) -> tuple[float, float]:
    """(width, height) of the upper intersection region.

    width is the horizontal extent between the side vertices; height is the
    maximum vertical thickness over samples of the x-range at step
    <= epsilon/100.  The samples are cut into blocks of _SPAN_BLOCK on each
    side of x = 0, and a block is evaluated in full only where a bound from
    its two end samples exceeds the best end value: within a block |x| is
    monotone, y_top does not rise with |x|, y_bot rises then falls, and each
    rounded step of `_band_heights` is monotone, so no sample's thickness
    exceeds fl(max of the end y_tops - min of the end y_bots).  The height
    equals the maximum over all the samples bit for bit.
    """
    verts = intersection_vertices(cfg)
    width = 2.0 * verts.side_pos.x
    step = cfg.epsilon / 100.0
    nsteps = max(2, int(math.ceil(width / step)) + 1)
    xs = np.linspace(-verts.side_pos.x, verts.side_pos.x, nsteps)
    neg = int(np.searchsorted(xs, 0.0))
    starts = np.concatenate([np.arange(0, neg, _SPAN_BLOCK),
                             np.arange(neg, nsteps, _SPAN_BLOCK)])
    stops = np.append(starts[1:], nsteps)
    y_top, y_bot = _band_heights(cfg.d, cfg.epsilon, xs[[starts, stops - 1]])
    best = max(float((y_top - y_bot).max()), 0.0)
    undecided = y_top.max(axis=0) - y_bot.min(axis=0) > best
    if undecided.any():
        inner = kernels.expand_runs(starts[undecided], stops[undecided])
        y_top, y_bot = _band_heights(cfg.d, cfg.epsilon, xs[inner])
        best = max(float((y_top - y_bot).max()), best)
    return width, best


def _occupancy(d, r_in, r_out, epsilon, x_extent, y_low, y_high, resolution):
    """Occupied cells of the annuli of radii [r_in, r_out] on the ε/2 grid
    anchored at the origin, over the cell window covering |x| <= x_extent,
    y_low <= y <= y_high, padded by one cell."""
    pitch = epsilon / 2.0
    ix0 = math.floor(-x_extent / pitch) - 1
    ix1 = math.floor(x_extent / pitch) + 1
    iy0 = math.floor(y_low / pitch) - 1
    iy1 = math.floor(y_high / pitch) + 1
    return kernels.annuli_occupancy_grid(d, r_in, r_out, pitch, ix0, ix1, iy0, iy1, resolution)


def occupancy_grid(cfg: AnnulusPairConfig, resolution: int = 8) -> np.ndarray:
    """Occupied ε/2 cells of the upper region (boolean grid over the window)."""
    verts = intersection_vertices(cfg)
    return _occupancy(cfg.d, 1.0 - cfg.epsilon, 1.0, cfg.epsilon, verts.side_pos.x,
                      min(verts.axis_inner.y, verts.side_pos.y), verts.axis_outer.y,
                      resolution)


def cover_count(cfg: AnnulusPairConfig, resolution: int = 8) -> int:
    """Number of ε/2 x ε/2 grid cells (anchored at the origin) meeting the
    upper intersection region, by resolution x resolution membership samples
    per cell (8 x 8 by default).  A cell the region meets only between its
    samples is not counted, so the count can fall short of the true cover."""
    return int(occupancy_grid(cfg, resolution).sum())


def _circle_cross_upper(c1x: float, r1: float, c2x: float, r2: float):
    """Upper crossing of two circles with centers on the x-axis (a/h form)."""
    d = abs(c2x - c1x)
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    h = math.sqrt(h2) if h2 > 0.0 else 0.0
    direction = 1.0 if c2x >= c1x else -1.0
    return c1x + direction * a, h


def thickened_cover_count(d: float, epsilon: float, resolution: int = 8) -> int:
    """Cover count for the intersection of the two *thickened* annuli.

    The thickened annuli have inner radius 1 - 2*eps and outer radius
    1 + eps (they contain every annulus of radii [1-eps, 1] whose center
    lies in an eps/2 box at the respective center).  Cells are sampled on
    the same origin-anchored ε/2 grid used by cover_count.
    """
    d = float(d)
    epsilon = _check_epsilon(epsilon)
    if not 12.0 * epsilon <= d <= 1.0:
        raise ValueError(
            f"thickened cover needs 12*eps <= d <= 1, got d={d}, eps={epsilon}"
        )
    r_in = 1.0 - 2.0 * epsilon
    r_out = 1.0 + epsilon
    x_side, y_side = _circle_cross_upper(-d / 2.0, r_out, d / 2.0, r_in)
    _, y_top = _circle_cross_upper(-d / 2.0, r_out, d / 2.0, r_out)
    _, y_bot = _circle_cross_upper(-d / 2.0, r_in, d / 2.0, r_in)
    grid = _occupancy(d, r_in, r_out, epsilon, abs(x_side), min(y_bot, y_side), y_top,
                      resolution)
    return int(grid.sum())
