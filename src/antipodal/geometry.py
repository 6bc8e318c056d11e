"""Planar primitives: pair counts at both distance thresholds (a whole ε
grid in one pass), diameter, convex hull, boundary bands, and the
neighbor/antipode ratio margin.

Conventions used throughout the package:

* a *neighbor* pair is at distance <= epsilon, an *antipode* pair at
  distance >= 1 - epsilon, both thresholds inclusive;
* epsilon must lie in the open interval (0, 1/2) -- beyond that the two
  thresholds lose meaning for diameter-1 sets (fitted constants are only
  meaningful for epsilon <= 0.1, see README);
* natural logarithm everywhere.

All operations are pure functions of immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from . import kernels


class Point(NamedTuple):
    x: float
    y: float


class DegenerateHullError(ValueError):
    """All input points are collinear; no 2D convex hull exists."""


class VacuousMarginError(ValueError):
    """No antipodal pairs: the ratio margin is vacuous for this configuration."""


def _as_coords(points) -> np.ndarray:
    arr = np.ascontiguousarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) array of points, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("point coordinates must be finite")
    return arr


@dataclass(frozen=True)
class PointSet:
    """Ordered finite list of planar points, optionally certified diameter <= 1."""

    coords: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        arr = _as_coords(self.coords)
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)
        if self.normalized and self.n >= 2:
            if diameter(self) > 1.0 + 1e-9:
                raise ValueError("normalized point set has diameter > 1 + 1e-9")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def points(self) -> list[Point]:
        return [Point(float(x), float(y)) for x, y in self.coords]

    @classmethod
    def from_points(cls, pts: Iterable[tuple[float, float]], normalized: bool = False):
        return cls(np.asarray(list(pts), dtype=np.float64).reshape(-1, 2), normalized)


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon, vertices in counterclockwise order."""

    vertices: np.ndarray
    perimeter: float = field(init=False)

    def __post_init__(self):
        verts = _as_coords(self.vertices)
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        edges = np.diff(np.vstack([verts, verts[:1]]), axis=0)
        peri = float(np.hypot(edges[:, 0], edges[:, 1]).sum())
        object.__setattr__(self, "perimeter", peri)

    @property
    def m(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True)
class PairCounts:
    neighbors: int
    antipodes: int
    epsilon: float


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    return epsilon


def pair_counts_grid(ps: PointSet, epsilons) -> list[PairCounts]:
    """Exact counts of neighbor and antipode pairs at every ε of a grid, from
    one pass of the chunk engine (`kernels.pair_grid_counts`) over the points.

    neighbors = #{i<j : ||x_i - x_j|| <= epsilon},
    antipodes = #{i<j : ||x_i - x_j|| >= 1 - epsilon}.
    """
    eps_list = [_check_epsilon(e) for e in epsilons]
    if ps.n < 2:
        raise ValueError("pair counting needs at least two points")
    total = ps.n * (ps.n - 1) // 2
    out = []
    for eps, (near, far) in zip(eps_list, kernels.pair_grid_counts(ps.coords, eps_list)):
        assert near + far <= total
        out.append(PairCounts(neighbors=near, antipodes=far, epsilon=eps))
    return out


def pair_counts(ps: PointSet, epsilon: float) -> PairCounts:
    """Exact counts of neighbor and antipode pairs at one ε."""
    return pair_counts_grid(ps, [epsilon])[0]


def diameter(ps: PointSet) -> float:
    """Maximum pairwise distance; exact, over the chunk pairs that can hold it."""
    if ps.n < 2:
        raise ValueError("diameter needs at least two points")
    return math.sqrt(kernels.max_pairwise_distance_sq(ps.coords))


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _sorted_distinct(coords: np.ndarray) -> np.ndarray:
    """Rows sorted by x, then y, each kept once (0.0 and -0.0 are equal): one
    argsort of x when no two x are equal, which leaves nothing to break ties
    or merge, and a lexsort of (x, y) otherwise."""
    x = coords[:, 0]
    c = coords[np.argsort(x)]
    if (c[1:, 0] != c[:-1, 0]).all():
        return c
    c = coords[np.lexsort((coords[:, 1], x))]
    distinct = np.ones(c.shape[0], bool)
    distinct[1:] = (c[1:] != c[:-1]).any(axis=1)
    return c[distinct]


def _monotone_chain(P: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain (1979) over sorted distinct rows, in Python
    floats: the hull vertices counterclockwise, collinear ones pruned."""
    pts = P.tolist()

    def half(chain_pts):
        out = []
        for p in chain_pts:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out

    return np.array(half(pts)[:-1] + half(pts[::-1])[:-1])


# The chain's half over sorted distinct P pushes every point once and pops
# while `_cross(out[-2], out[-1], p) <= 0`.  Guess its output C: P[0], the
# points strictly right of the chord P[0] -> P[-1], and P[-1].  Every other
# point q follows some C[j], the last point of C before it.  Then, by
# induction over P, the stack is C[:j+1] after C[j] and C[:j+1] + [q] after q
# whenever
#   (a) _cross(C[j-1], C[j], C[j+1]) > 0: C[j+1] pops nothing;
#   (b) _cross(C[j-1], C[j], q) > 0 for j >= 1: q does not pop C[j];
#   (c) _cross(C[j], q, p) <= 0 for the point p after q: p pops q, and then
#       by (a) or (b) nothing more.
# The checks call `_cross` itself on float64 arrays of x and y, which NumPy
# rounds as Python rounds floats (one rounding per operation, no fused
# multiply-add), so they are the chain's own comparisons and it returns C.
def _replayed_half(x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """Indices into the points (x, y) of the chain's half hull over them, or
    None when the replay cannot certify the guess."""
    def at(i):
        return x[i], y[i]

    on = _cross(at(0), at(-1), (x, y)) < 0.0
    on[[0, -1]] = True
    c = np.flatnonzero(on)
    q = np.flatnonzero(~on)
    j = np.cumsum(on)[q] - 1
    jb, qb = j[j >= 1], q[j >= 1]
    if ((_cross(at(c[:-2]), at(c[1:-1]), at(c[2:])) > 0.0).all()
            and (_cross(at(c[jb - 1]), at(c[jb]), at(qb)) > 0.0).all()
            and (_cross(at(c[j]), at(q), at(q + 1)) <= 0.0).all()):
        return c
    return None


def convex_hull(ps: PointSet) -> ConvexPolygon:
    """Convex hull by Andrew's monotone chain; collinear vertices are pruned.

    The vertices are the Python chain's, bit for bit: they come from a NumPy
    guess that a vectorised replay of the chain's own float comparisons
    certifies for both halves, or from the chain itself when the replay fails
    (interior points usually make it fail).  Both halves replay on contiguous
    copies of x and y, the upper one over the points reversed.  Raises
    DegenerateHullError when all points are collinear.
    """
    if ps.n < 3:
        raise ValueError("convex hull needs at least three points")
    P = _sorted_distinct(ps.coords)
    n = P.shape[0]
    if n < 3:
        raise DegenerateHullError("fewer than three distinct points")
    x, y = np.array(P.T)
    with np.errstate(over="ignore", invalid="ignore"):
        lower, upper = _replayed_half(x, y), _replayed_half(x[::-1].copy(), y[::-1].copy())
    if lower is None or upper is None or lower.size + upper.size < 5:
        hull = _monotone_chain(P)
    else:
        hull = P[np.concatenate([lower[:-1], n - 1 - upper[:-1]])]
    if hull.shape[0] < 3:
        raise DegenerateHullError("all points are collinear")
    return ConvexPolygon(hull)


def point_segment_distance(px, py, ax, ay, bx, by):
    """Distance from (px, py) to segment (a, b); vectorized over the points."""
    abx = bx - ax
    aby = by - ay
    ab2 = abx * abx + aby * aby
    apx = px - ax
    apy = py - ay
    if ab2 == 0.0:
        return np.hypot(apx, apy)
    t = np.clip((apx * abx + apy * aby) / ab2, 0.0, 1.0)
    return np.hypot(apx - t * abx, apy - t * aby)


def distance_to_boundary(hull: ConvexPolygon, coords: np.ndarray) -> np.ndarray:
    """Distance of each point to the polygon boundary (min over edges)."""
    v = hull.vertices
    w = np.roll(v, -1, axis=0)
    best = np.full(coords.shape[0], np.inf)
    px = coords[:, 0]
    py = coords[:, 1]
    for (ax, ay), (bx, by) in zip(v, w):
        d = point_segment_distance(px, py, ax, ay, bx, by)
        np.minimum(best, d, out=best)
    return best


def boundary_band(ps: PointSet, hull: ConvexPolygon, epsilon: float) -> PointSet:
    """Subset of points within distance epsilon of the hull boundary."""
    epsilon = _check_epsilon(epsilon)
    keep = distance_to_boundary(hull, ps.coords) <= epsilon
    return PointSet(ps.coords[keep].copy(), normalized=False)


def ratio_margin(counts: PairCounts) -> float:
    """Empirical neighbor/antipode margin for one configuration.

    Returns neighbors * sqrt(log(1/eps)) / (antipodes * sqrt(eps)) -- the
    largest proportionality constant this configuration permits between the
    two counts.  Raises VacuousMarginError when there are no antipodes.
    """
    if counts.antipodes < 1:
        raise VacuousMarginError("no antipodal pairs; margin is vacuous")
    eps = counts.epsilon
    return counts.neighbors * math.sqrt(math.log(1.0 / eps)) / (
        counts.antipodes * math.sqrt(eps)
    )


# ---------------------------------------------------------------------------
# point-set text format: one "x y" pair per line, '#' starts a comment line
# ---------------------------------------------------------------------------

def write_points(path, ps: PointSet) -> None:
    # one joined string per block of rows: a write per row is ~1.6x slower,
    # and one string for the whole file adds its size and a list per row to
    # the peak memory
    with open(path, "w", encoding="ascii") as fh:
        for i in range(0, ps.n, 1024):
            fh.write("".join(f"{x!r} {y!r}\n" for x, y in ps.coords[i : i + 1024].tolist()))


# the bytes of a plain file: printable ASCII, tab, LF and CR
_PLAIN = bytes(range(0x20, 0x7F)) + b"\t\n\r"


def read_points(path, normalized: bool = False) -> PointSet:
    """Points from the text format.  A plain file (only `_PLAIN` bytes) is
    cut into lines where text mode cuts them (LF, CRLF or CR), its comment
    lines are dropped, and what remains, if not blank, is parsed in one pass
    by ``np.loadtxt``, whose float parser is Python's, so the values are
    bit-identical to ``float``'s; any other file, or one loadtxt rejects (a
    trailing comment, say) or reads other than as two columns, goes line by
    line, so that an error names its line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = []
    if not raw.translate(None, _PLAIN):
        lines = raw.decode("ascii").splitlines()
        if b"#" in raw:
            lines = [line for line in lines if not line.lstrip().startswith("#")]
    if any(line.strip() for line in lines):
        try:
            xy = np.loadtxt(lines, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if xy.shape[1] == 2:
                return PointSet(xy, normalized=normalized)
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two reals per line")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return PointSet.from_points(rows, normalized=normalized)
