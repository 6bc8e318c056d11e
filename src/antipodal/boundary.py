"""Boundary discretization into ε/2 boxes and the antipodal box graph.

The convex hull boundary is marched by arc length in steps of ε/2 and an
axis-aligned square box of side ε/2 is centered at every sample point.  Two
boxes are adjacent when their maximum point-to-point distance reaches
1 - ε.  On top of the graph: degrees, common neighborhoods, the near-set W
of a vertex, and the tail counts T_s used to probe how common-neighborhood
sizes decay for far-apart boxes.

The graph is stored as runs of consecutive boxes: boxes are numbered in
arc-length order, so each box's antipodes form an arc, one run (two where
the arc wraps past the last box).  Products with a vector cost O(k + runs)
through prefix sums.  Common-neighbor counts are entries of A·A: a single
row is A @ 1_{N(i)}; the tail constant builds rows of A·A a block at a time
from the runs, as piecewise-constant segments, with each block cut so that
it holds at most ``kernels._BLOCK_ELEMS`` entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernels
from .geometry import ConvexPolygon, Point


class IsolatedVertexError(ValueError):
    """The requested vertex has no neighbors."""


class Box(NamedTuple):
    center: Point
    side: float

    def corners(self) -> list[Point]:
        h = self.side / 2.0
        cx, cy = self.center
        return [
            Point(cx - h, cy - h),
            Point(cx + h, cy - h),
            Point(cx + h, cy + h),
            Point(cx - h, cy + h),
        ]


@dataclass(frozen=True)
class BoundaryBoxing:
    """Ordered chain of side-(ε/2) boxes along a hull boundary."""

    centers: np.ndarray
    epsilon: float

    def __post_init__(self):
        c = np.ascontiguousarray(self.centers, dtype=np.float64)
        c.setflags(write=False)
        object.__setattr__(self, "centers", c)
        if self.k < 3:
            raise ValueError("boundary boxing needs at least 3 boxes")

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def side(self) -> float:
        return self.epsilon / 2.0

    def box(self, i: int) -> Box:
        cx, cy = self.centers[i]
        return Box(Point(float(cx), float(cy)), self.side)


def discretize_boundary(hull: ConvexPolygon, epsilon: float) -> BoundaryBoxing:
    """March the polygon boundary at arc-length steps of ε/2.

    Produces k = ceil(perimeter / (ε/2)) boxes; the final gap (back to the
    start vertex) may be shorter than ε/2.
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    if epsilon >= hull.perimeter / 3.0:
        raise ValueError(
            f"epsilon {epsilon} too coarse for perimeter {hull.perimeter:.6g}"
        )
    step = epsilon / 2.0
    k = math.ceil(hull.perimeter / step)

    verts = hull.vertices
    edges = np.roll(verts, -1, axis=0) - verts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(lengths)])

    s = np.arange(k) * step
    edge_idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(lengths) - 1)
    local = (s - cum[edge_idx]) / lengths[edge_idx]
    centers = verts[edge_idx] + local[:, None] * edges[edge_idx]
    return BoundaryBoxing(centers, epsilon)


def box_max_distance(a: Box, b: Box) -> float:
    """Exact max distance between two closed squares: max over corner pairs."""
    best = 0.0
    for pa in a.corners():
        for pb in b.corners():
            d = math.hypot(pa.x - pb.x, pa.y - pb.y)
            if d > best:
                best = d
    return best


def box_min_distance(a: Box, b: Box) -> float:
    """Exact min distance between two closed axis-aligned squares."""
    h = (a.side + b.side) / 2.0
    gx = max(0.0, abs(a.center.x - b.center.x) - h)
    gy = max(0.0, abs(a.center.y - b.center.y) - h)
    return math.hypot(gx, gy)


@dataclass(frozen=True)
class AntipodalGraph:
    """Symmetric 0/1 box adjacency stored as maximal runs of consecutive boxes.

    Run r says that vertex ``row[r]`` is adjacent to every j with
    ``lo[r] <= j < hi[r]``.  The three int64 arrays are sorted by row, then by
    lo; a row may hold several runs (an arc that wraps past box k - 1 holds
    two), so any graph has this form.  Degrees and the edge count come from
    the run lengths.  `matvec` costs O(k + runs); the CSR views `indptr`,
    `indices` and `row_index` are expanded on first use and cached, and
    `adjacency` builds a dense uint8 matrix on each access.
    """

    k: int
    row: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    degrees: np.ndarray = field(init=False)
    edge_count: int = field(init=False)

    def __post_init__(self):
        deg = np.zeros(self.k, np.int64)
        np.add.at(deg, self.row, self.hi - self.lo)
        object.__setattr__(self, "degrees", deg)
        object.__setattr__(self, "edge_count", int(deg.sum()) // 2)

    @cached_property
    def run_ptr(self) -> np.ndarray:
        """The runs of row i are run_ptr[i] .. run_ptr[i + 1] - 1."""
        return np.searchsorted(self.row, np.arange(self.k + 1))

    @cached_property
    def indptr(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.degrees)))

    @cached_property
    def indices(self) -> np.ndarray:
        """Sorted neighbor lists, concatenated (CSR column indices)."""
        return kernels.expand_runs(self.lo, self.hi)

    @cached_property
    def row_index(self) -> np.ndarray:
        """Per-CSR-entry row number (companion to `indices`)."""
        return np.repeat(np.arange(self.k, dtype=np.int64), self.degrees)

    @cached_property
    def neighborhood_degree_sums(self) -> np.ndarray:
        """sum_{j in N(i)} d_j for every i, exact int64."""
        return self.matvec(self.degrees)

    @property
    def adjacency(self) -> np.ndarray:
        dense = np.zeros((self.k, self.k), dtype=np.uint8)
        dense[self.row_index, self.indices] = 1
        return dense

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x: a prefix-sum difference per run, summed per row.

        Integer x gives an exact int64 product; any other x is taken as
        float64.  ``np.add.at`` sums each row's runs in order, in the prefix
        sums' dtype.
        """
        x = np.asarray(x)
        dtype = np.int64 if x.dtype.kind in "biu" else np.float64
        prefix = np.zeros(self.k + 1, dtype)
        np.cumsum(x, out=prefix[1:])
        y = np.zeros(self.k, dtype)
        np.add.at(y, self.row, prefix[self.hi] - prefix[self.lo])
        return y

    @classmethod
    def from_csr(cls, k: int, indptr, indices) -> "AntipodalGraph":
        """The graph whose row i lists neighbors indices[indptr[i]:indptr[i + 1]]."""
        indptr = np.asarray(indptr, dtype=np.int64)
        rows = np.repeat(np.arange(k, dtype=np.int64), np.diff(indptr))
        order = np.lexsort((indices, rows))
        cols = np.asarray(indices, dtype=np.int64)[order]
        return cls(k, *kernels.join_runs(rows[order], cols, cols + 1))

    @classmethod
    def from_dense(cls, matrix) -> "AntipodalGraph":
        m = np.asarray(matrix)
        k = m.shape[0]
        if m.shape != (k, k):
            raise ValueError("adjacency must be square")
        if (m != m.T).any() or np.diagonal(m).any():
            raise ValueError("adjacency must be symmetric with zero diagonal")
        rows, cols = np.nonzero(m)
        indptr = np.zeros(k + 1, np.int64)
        indptr[1:] = np.cumsum(np.bincount(rows, minlength=k))
        return cls.from_csr(k, indptr, cols)


def build_graph(boxing: BoundaryBoxing) -> AntipodalGraph:
    """Adjacency over boxes: i ~ j iff box_max_distance(B_i, B_j) >= 1 - ε."""
    row, lo, hi = kernels.box_adjacency_runs(
        boxing.centers[:, 0].copy(),
        boxing.centers[:, 1].copy(),
        boxing.side,
        boxing.epsilon,
    )
    return AntipodalGraph(k=boxing.k, row=row, lo=lo, hi=hi)


def near_set_W(boxing: BoundaryBoxing, i: int, factor: float = 100.0) -> np.ndarray:
    """Vertices whose box lies within min-distance factor*ε of box i.

    The threshold is inclusive, so i itself is always a member.
    """
    near = _box_gaps(boxing, i, slice(None)) <= factor * boxing.epsilon
    return np.nonzero(near)[0]


def _box_gaps(boxing: BoundaryBoxing, i, j) -> np.ndarray:
    """Min distances between boxes i and j (indices broadcast elementwise)."""
    c = boxing.centers
    gx = np.maximum(np.abs(c[j, 0] - c[i, 0]) - boxing.side, 0.0)
    gy = np.maximum(np.abs(c[j, 1] - c[i, 1]) - boxing.side, 0.0)
    return np.hypot(gx, gy)


def common_neighbors(G: AntipodalGraph, i: int, j: int) -> int:
    """|N(i) & N(j)| via sorted neighbor-list intersection."""
    if i == j:
        raise ValueError("common_neighbors requires distinct vertices")
    a = G.neighbors(i)
    b = G.neighbors(j)
    return int(np.intersect1d(a, b, assume_unique=True).size)


def common_neighbor_row(G: AntipodalGraph, i: int) -> np.ndarray:
    """Vector of |N(i) & N(j)| over all j (j = i entry equals d_i): row i of A·A."""
    mark = np.zeros(G.k, dtype=np.int64)
    mark[G.neighbors(i)] = 1
    return G.matvec(mark)


def tail_counts(G: AntipodalGraph, i: int, W: np.ndarray) -> np.ndarray:
    """T_s = #{j in V \\ W : |N(i) & N(j)| >= s} for s = 1..k.

    sum(T_s) over s equals the direct sum of common-neighbor counts over
    V \\ W (layer-cake identity).
    """
    counts = common_neighbor_row(G, i)
    mask = np.ones(G.k, dtype=bool)
    mask[np.asarray(W, dtype=np.int64)] = False
    vals = counts[mask]
    hist = np.bincount(vals, minlength=G.k + 1)
    # T_s = number of vals >= s; hist[0] never contributes
    tail = np.cumsum(hist[::-1])[::-1]
    return tail[1 : G.k + 1].astype(np.int64)


def neighborhood_degree_sum(G: AntipodalGraph, i: int) -> int:
    """Sum of degrees over N(i); equals sum_j |N(j) & N(i)| by double counting."""
    if G.degrees[i] < 1:
        raise IsolatedVertexError(f"vertex {i} is isolated")
    return int(G.neighborhood_degree_sums[i])


def _common_neighbor_block(G: AntipodalGraph, i0: int, i1: int):
    """Rows i0 .. i1 - 1 of A·A as entries (row - i0, j, count > 0).

    Every run of every m in N(i) adds +1 at its lo and -1 at its hi to row i;
    sorted, the running sum of these events is the row as piecewise-constant
    segments, and only the positive ones are expanded.
    """
    k = G.k
    ptr = G.run_ptr
    r0, r1 = ptr[i0], ptr[i1]
    mid = kernels.expand_runs(G.lo[r0:r1], G.hi[r0:r1])
    owner = np.repeat(G.row[r0:r1] - i0, G.hi[r0:r1] - G.lo[r0:r1])
    runs = kernels.expand_runs(ptr[mid], ptr[mid + 1])
    base = np.repeat(owner * (k + 1), ptr[mid + 1] - ptr[mid])
    # key = 2 * (row * (k + 1) + position) + 1 for an opening, + 0 for a closing
    events = np.sort(np.concatenate([(base + G.lo[runs]) * 2 + 1,
                                     (base + G.hi[runs]) * 2]))
    count = np.cumsum((events & 1) * 2 - 1)[:-1]
    key = events >> 1
    # a row's events end with a closing that brings its count back to 0, so
    # a positive segment never crosses into the next row
    pos = count > 0
    length = np.diff(key)[pos]
    row, start = np.divmod(key[:-1][pos], k + 1)
    return (np.repeat(row, length), kernels.expand_runs(start, start + length),
            np.repeat(count[pos], length))


def max_scaled_tail(boxing: BoundaryBoxing, G: AntipodalGraph,
                    factor: float = 100.0) -> float:
    """max over vertices i and s of s * T_s / k (the tail-bound constant).

    T_s counts the j outside near_set_W(boxing, i, factor) with
    |N(i) & N(j)| >= s.  The counts are rows of A·A, built a block of rows
    at a time from the runs of the neighbors' neighbor lists, without
    forming A·A; entries near their row's box are dropped by the same test
    as `near_set_W`, and one ``bincount`` gives each row's histogram of the
    rest, whose reversed cumulative sum is T_s.  By the layer-cake identity
    max_s s * T_s equals the max over ranks r of r times the r-th largest
    count, and both are exact integers.

    Row i of A·A holds at most sum_{j in N(i)} d_j positive entries, built
    from at most twice as many events, so blocks are cut on the running sum
    of `neighborhood_degree_sums` to hold at most ``kernels._BLOCK_ELEMS``
    entries (a one-row block may hold more), and to at most
    ``kernels._BLOCK_ELEMS // (max degree + 1)`` rows, which caps the
    histogram: it is as wide as the block's largest far count plus one, and
    no count exceeds the max degree.
    """
    if boxing.k != G.k:
        raise ValueError(f"boxing has {boxing.k} boxes but the graph has {G.k} vertices")
    near = factor * boxing.epsilon
    top = int(G.degrees.max()) + 1
    budget = kernels._BLOCK_ELEMS
    max_rows = max(1, budget // top)
    bound = np.zeros(G.k + 1, dtype=np.int64)
    np.cumsum(G.neighborhood_degree_sums, out=bound[1:])
    best = 0
    i0 = 0
    while i0 < G.k:
        i1 = int(np.searchsorted(bound, bound[i0] + budget, side="right")) - 1
        i1 = max(i0 + 1, min(i1, i0 + max_rows, G.k))
        rows, cols, counts = _common_neighbor_block(G, i0, i1)
        far = ~(_box_gaps(boxing, i0 + rows, cols) <= near)
        vals = counts[far]
        width = int(vals.max(initial=0)) + 1
        hist = np.bincount(rows[far] * width + vals, minlength=(i1 - i0) * width)
        tails = np.cumsum(hist.reshape(i1 - i0, width)[:, ::-1], axis=1)[:, ::-1]
        best = max(best, int((tails * np.arange(width)).max()))
        i0 = i1
    return best / G.k


def max_neighborhood_degree_sum(G: AntipodalGraph) -> int:
    """max over non-isolated i of sum of degrees over N(i)."""
    return int(G.neighborhood_degree_sums.max())
