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
row is A @ 1_{N(i)}.  The tail constant never forms an entry of A·A: the
near sets W are runs too, built once by the same pair descent, and one
running sum over the sorted events of the neighbors' runs (±1) and of the
near runs (∓(k + 1)) yields each row of A·A outside W as piecewise-constant
segments, a block of rows at a time.  A graph run's neighbors hold one range
of run indices, so the sweep never lists them one by one.  When the runs
show that every row and every near set is one cyclic arc, monotone in the
row, a row's count at any column is three `searchsorted` counts, and the
sweep visits only the events outside W.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .geometry import ConvexPolygon, _as_coords, _check_epsilon


# relative slack on r**2 in the near-set pruning, which covers the rounding of
# the squared gap bounds and of hypot (not guaranteed monotone); below the
# normal range of r**2 the pruning decides nothing
_SLACK = 1e-9


class IsolatedVertexError(ValueError):
    """The requested vertex has no neighbors."""


def _vertex(i, k: int) -> int:
    """i as a vertex index of a k-vertex graph; IndexError unless 0 <= i < k."""
    i = operator.index(i)
    if not 0 <= i < k:
        raise IndexError(f"vertex {i} out of range for {k} vertices")
    return i


@dataclass(frozen=True)
class BoundaryBoxing:
    """Ordered chain of side-(ε/2) boxes along a hull boundary."""

    centers: np.ndarray
    epsilon: float

    def __post_init__(self):
        c = _as_coords(self.centers)
        c.setflags(write=False)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "epsilon", _check_epsilon(self.epsilon))
        if self.k < 3:
            raise ValueError("boundary boxing needs at least 3 boxes")

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def side(self) -> float:
        return self.epsilon / 2.0


def discretize_boundary(hull: ConvexPolygon, epsilon: float) -> BoundaryBoxing:
    """March the polygon boundary at arc-length steps of ε/2.

    Produces k = ceil(perimeter / (ε/2)) boxes; the final gap (back to the
    start vertex) may be shorter than ε/2.
    """
    epsilon = _check_epsilon(epsilon)
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


@dataclass(frozen=True)
class AntipodalGraph:
    """Symmetric 0/1 box adjacency stored as maximal runs of consecutive boxes.

    Run r says that vertex ``row[r]`` is adjacent to every j with
    ``lo[r] <= j < hi[r]``; a row may hold several runs (an arc that wraps
    past box k - 1 holds two), so any graph has this form.  The constructor
    checks in O(runs) that row, lo and hi are integer arrays of one length
    (kept as read-only int64), 0 <= row < k, 0 <= lo < hi <= k, no run covers
    its own row, and the runs are sorted by row, each after the row's previous
    one ends (lo[r] > hi[r - 1]), so they are disjoint and maximal; the
    ValueError names the first bad run.  Full symmetry costs O(nnz) and is
    checked by `from_dense`; the constructor checks in O(k + runs) that
    A·x = Aᵀ·x for x = 1 (each vertex's in-degree equals its degree) and for
    x = 1 … k, which one-way edges break unless they balance each other in
    both sums: the checks are necessary, not sufficient.  Degrees and the edge count come
    from the run lengths; `matvec` costs O(k + runs) and `neighbors(i)`
    O(d_i).
    """

    k: int
    row: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    degrees: np.ndarray = field(init=False)
    edge_count: int = field(init=False)

    def __post_init__(self):
        runs = [np.asarray(a) for a in (self.row, self.lo, self.hi)]
        if any(a.shape != (runs[0].size,) or (a.size and a.dtype.kind not in "iu") for a in runs):
            raise ValueError("row, lo and hi must be integer arrays of one length, got "
                             + ", ".join(f"{a.dtype} {a.shape}" for a in runs))
        row, lo, hi = runs = [np.ascontiguousarray(a, dtype=np.int64) for a in runs]
        for name, a in zip(("row", "lo", "hi"), runs):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        k = self.k
        ok = (0 <= row) & (row < k) & (0 <= lo) & (lo < hi) & (hi <= k)
        ok &= (row < lo) | (hi <= row)
        ok[1:] &= (row[1:] > row[:-1]) | ((row[1:] == row[:-1]) & (lo[1:] > hi[:-1]))
        if not ok.all():
            r = int(np.argmin(ok))
            raise ValueError(f"run {r} (row {row[r]}, lo {lo[r]}, hi {hi[r]}) for k = {k} is out "
                             "of range, a loop, or not after the row's previous run")
        deg = np.bincount(row, hi - lo, k).astype(np.int64)
        # a symmetric graph has A·x = Aᵀ·x for every x: for x = 1 its
        # in-degrees are its degrees, and for x = 1 … k it is checked in int64,
        # A·x from the prefix sums m(m + 1)/2 of x (not `matvec`, which a
        # subclass may count) and Aᵀ·x a difference array over the runs
        # weighted by x[row]
        a_x = np.zeros(k, np.int64)
        np.add.at(a_x, row, (hi * (hi + 1) - lo * (lo + 1)) // 2)
        for ax, w, what in ((deg, np.ones_like(row), "degree {} but in-degree {}"),
                            (a_x, row + 1, "(A·x) {} but (Aᵀ·x) {} for x = 1 … k")):
            diff = np.zeros(k + 1, np.int64)
            np.add.at(diff, lo, w)
            np.add.at(diff, hi, -w)
            atx = np.cumsum(diff[:k])
            if (atx != ax).any():
                j = int(np.argmax(atx != ax))
                raise ValueError(f"vertex {j} has {what.format(ax[j], atx[j])}: "
                                 "the runs are not symmetric")
        object.__setattr__(self, "degrees", deg)
        object.__setattr__(self, "edge_count", int(deg.sum()) // 2)

    @cached_property
    def run_ptr(self) -> np.ndarray:
        """The runs of row i are run_ptr[i] .. run_ptr[i + 1] - 1."""
        return np.searchsorted(self.row, np.arange(self.k + 1))

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

    def neighbors(self, i: int) -> np.ndarray:
        i = _vertex(i, self.k)
        r = slice(self.run_ptr[i], self.run_ptr[i + 1])
        return kernels.expand_runs(self.lo[r], self.hi[r])

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
    def from_dense(cls, matrix) -> "AntipodalGraph":
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {m.shape}")
        if ((m != 0) & (m != 1)).any() or (m != m.T).any():
            raise ValueError("adjacency must be a symmetric 0/1 matrix")
        rows, cols = np.nonzero(m)  # row-major: sorted by row, then column
        return cls(m.shape[0], *kernels.join_runs(rows, cols, cols + 1))


def build_graph(boxing: BoundaryBoxing) -> AntipodalGraph:
    """Adjacency over boxes: i ~ j (i != j) iff their largest point-to-point
    distance reaches 1 - ε, that is (|dx| + s)² + (|dy| + s)² >= (1 - ε)² for
    centres |dx|, |dy| apart and side s = ε/2, evaluated in that form
    (`kernels.box_adjacency_runs`)."""
    row, lo, hi = kernels.box_adjacency_runs(boxing.centers[:, 0], boxing.centers[:, 1],
                                             boxing.side, boxing.epsilon)
    return AntipodalGraph(k=boxing.k, row=row, lo=lo, hi=hi)


def _near_radius(boxing: BoundaryBoxing, factor: float) -> float:
    """r = factor·ε of the near sets; ValueError when it is NaN."""
    r = factor * boxing.epsilon
    if math.isnan(r):
        raise ValueError(f"near-set factor must be a number, got {factor!r}")
    return r


def near_set_W(boxing: BoundaryBoxing, i: int, factor: float = 100.0) -> np.ndarray:
    """Vertices whose box lies within min-distance factor*ε of box i.

    The threshold is inclusive, so i itself is always a member unless the
    factor is negative, which makes W empty; a NaN factor raises ValueError.
    """
    i = _vertex(i, boxing.k)
    r = _near_radius(boxing, factor)
    c = boxing.centers
    gap = _box_gap(np.abs(c[:, 0] - c[i, 0]), np.abs(c[:, 1] - c[i, 1]), boxing.side)
    return np.nonzero(gap <= r)[0]


def _box_gap(ax, ay, side: float):
    """Min distance between two side-s boxes whose centers are |dx|, |dy| apart:
    hypot(max(|dx| - s, 0), max(|dy| - s, 0)), the near sets' relation."""
    return np.hypot(np.maximum(ax - side, 0.0), np.maximum(ay - side, 0.0))


def near_runs(boxing: BoundaryBoxing, factor: float = 100.0):
    """The near sets as maximal runs (row, lo, hi), int64, sorted by row then
    lo: near_set_W(boxing, row, factor) is the union of its row's [lo, hi).

    Built by `kernels.box_pair_runs` over leaves of 4 boxes, with r = factor·ε:
    a node pair is all far when its lower gap bounds give gx² + gy² >
    r²(1 + _SLACK), all near when its upper ones give < r²(1 - _SLACK), and
    the leaf pairs of neither are evaluated with the `near_set_W` expression.
    For r < 0 every near set is empty; a NaN r raises ValueError."""
    r = _near_radius(boxing, factor)
    if r < 0.0:
        none = np.empty(0, np.int64)
        return none, none, none
    r2 = r * r
    if 0.0 < r2 < np.finfo(float).tiny:
        far2, near2 = np.inf, -np.inf
    else:
        far2, near2 = r2 * (1.0 + _SLACK), r2 * (1.0 - _SLACK)
    side = boxing.side

    def gap2(ax, ay):
        gx = np.maximum(ax - side, 0.0)
        gy = np.maximum(ay - side, 0.0)
        return gx * gx + gy * gy

    def decide(level, a, b, lx, ux, ly, uy):
        return gap2(lx, ly) > far2, gap2(ux, uy) < near2

    def holds(ax, ay):
        return _box_gap(ax, ay, side) <= r

    return kernels.box_pair_runs(boxing.centers[:, 0], boxing.centers[:, 1], 4, decide, holds)


def common_neighbors(G: AntipodalGraph, i: int, j: int) -> int:
    """|N(i) & N(j)| via sorted neighbor-list intersection."""
    i, j = _vertex(i, G.k), _vertex(j, G.k)
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
    V \\ W (layer-cake identity).  W must hold integer vertex ids 0 <= w < k.
    """
    W = np.asarray(W)
    if W.size and W.dtype.kind not in "iu":
        raise ValueError(f"W must hold integer vertex ids, got dtype {W.dtype}")
    out = W[(W < 0) | (W >= G.k)]
    if out.size:
        raise IndexError(f"W entry {out[0]} out of range for {G.k} vertices")
    counts = common_neighbor_row(G, i)
    mask = np.ones(G.k, dtype=bool)
    mask[W.astype(np.int64)] = False
    vals = counts[mask]
    hist = np.bincount(vals, minlength=G.k + 1)
    # T_s = number of vals >= s; hist[0] never contributes
    tail = np.cumsum(hist[::-1])[::-1]
    return tail[1 : G.k + 1].astype(np.int64)


def neighborhood_degree_sum(G: AntipodalGraph, i: int) -> int:
    """Sum of degrees over N(i); equals sum_j |N(j) & N(i)| by double counting."""
    i = _vertex(i, G.k)
    if G.degrees[i] < 1:
        raise IsolatedVertexError(f"vertex {i} is isolated")
    return int(G.neighborhood_degree_sums[i])


def _cyclic_arcs(row, lo, hi, ptr, k: int):
    """Each row's runs as one cyclic arc (start, length), int64: no run gives
    (0, 0), one run [lo, hi) gives (lo, hi - lo) and the two runs [0, x) and
    [y, k) give (y, x + k - y); None when a row holds other runs."""
    n = np.diff(ptr)
    one, two = ptr[:-1][n == 1], ptr[:-1][n == 2]
    if (n > 2).any() or (lo[two] != 0).any() or (hi[two + 1] != k).any():
        return None
    start = np.zeros(k, np.int64)
    length = np.zeros(k, np.int64)
    start[n == 1], length[n == 1] = lo[one], hi[one] - lo[one]
    start[n == 2], length[n == 2] = lo[two + 1], hi[two] + k - lo[two + 1]
    return start, length


def _arc_plan(G: AntipodalGraph, near):
    """The far intervals of every row when every graph row is a nonempty
    cyclic arc [s_i, s_i + d_i) and every near set W_i a cyclic arc, and the
    unrolled arcs are monotone; None otherwise.  O(k + runs), from the runs
    alone.

    S unrolls the arc starts (k added at each backward step) and E = S + d;
    on the doubled index axis (S and E again, plus k) both must never step
    back.  Row i's neighbors are then the index range s_i .. s_i + d_i - 1 of
    that axis, and when the last one's start is below x_i + k, x_i = S[s_i],
    every neighbor m covers [S[m], E[m]) of row i's window [x_i, x_i + k),
    wrapping to [x_i, E[m] - k) once E[m] passes the window end.  So the
    count of column x of the window, |N(i) & N(x mod k)|, is
    #{S[m] <= x} - #{E[m] <= x} + #{E[m] - k > x}, three `searchsorted`
    counts over sorted ranges.  W_i leaves one or two intervals [a, b) of the
    window; each gets its count at a, the index ranges of the opens S[m],
    closes E[m] and wrapped closes E[m] - k strictly inside it, and its count
    at b - 1.
    """
    k = G.k
    nrow, nlo, nhi, nptr = near
    arcs = _cyclic_arcs(G.row, G.lo, G.hi, G.run_ptr, k)
    warcs = _cyclic_arcs(nrow, nlo, nhi, nptr, k)
    if arcs is None or warcs is None or (arcs[1] == 0).any():
        return None
    s, d = arcs
    S = s.copy()
    S[1:] += k * np.cumsum(s[1:] < s[:-1])
    S = np.concatenate([S, S + k])
    E = S + np.concatenate([d, d])
    if (np.diff(S) < 0).any() or (np.diff(E) < 0).any():
        return None
    x = S[s]
    if (S[s + d - 1] >= x + k).any():
        return None
    ws, wl = warcs
    wa = np.where(wl > 0, x + (ws - x) % k, x)
    we = wa + wl
    # the window minus W: [x, wa) and [we, x + k), or [we - k, wa) when W wraps
    a = np.column_stack([np.where(we > x + k, we - k, x), we]).ravel()
    b = np.column_stack([wa, x + k]).ravel()
    keep = a < b
    row = np.repeat(np.arange(k), 2)[keep]
    a, b = a[keep], b[keep]
    lo, hi = s[row], s[row] + d[row]

    def count(v, at, side):
        return np.clip(np.searchsorted(v, at, side), lo, hi)

    opens = count(S, a, "right"), count(S, b, "left")
    closes = count(E, a, "right"), count(E, b, "left")
    wraps = count(E, a + k, "right"), count(E, b + k, "left")
    first = opens[0] - closes[0] + hi - wraps[0]
    inside = [r1 - r0 for r0, r1 in (opens, closes, wraps)]
    last = first + inside[0] - inside[1] - inside[2]
    items = np.bincount(row, 2 + sum(inside), k).astype(np.int64)
    ptr = np.searchsorted(row, np.arange(k + 1))
    return S, E, ptr, row, x[row], a, b, opens, closes, wraps, first, last, items


def _arc_segments(k: int, plan, i0: int, i1: int):
    """`_far_segments` from an `_arc_plan`: a start marker (the count at a)
    and an end marker (minus the count at b - 1) per far interval, and ±1 at
    the opens and closes inside it, sorted by one key per block."""
    S, E, ptr, row, x, a, b, opens, closes, wraps, first, last, _ = plan
    t = slice(ptr[i0], ptr[i1])
    base = (row[t] - i0) * (k + 1) - x[t]
    # key = 4 * (row * (k + 1) + position - x) + kind: 0 / 1 close / open,
    # 2 / 3 start / end marker
    parts = [(base + a[t]) * 4 + 2, (base + b[t]) * 4 + 3]
    for v, shift, kind, (r0, r1) in ((S, 0, 1, opens), (E, 0, 0, closes), (E, k, 0, wraps)):
        idx = kernels.expand_runs(r0[t], r1[t])
        parts.append((np.repeat(base - shift, r1[t] - r0[t]) + v[idx]) * 4 + kind)
    events = np.concatenate(parts)
    events.sort()
    kind = events & 3
    steps = np.array([-1, 1, 0, 0])[kind]
    # the markers sort in interval order
    steps[kind == 2] = first[t]
    steps[kind == 3] = -last[t]
    return _positive_segments(events, steps, k)


def _positive_segments(events, steps, k: int):
    """The segments (row, count, length) between consecutive sorted keys
    4 * (row * (k + 1) + position) + kind where the running sum of the steps
    is positive; a row's steps end with the sum back at 0, so a segment never
    crosses into the next row."""
    count = np.cumsum(steps)[:-1]
    key = events >> 2
    length = np.diff(key)
    far = (count > 0) & (length > 0)
    return key[:-1][far] // (k + 1), count[far], length[far]


def _far_segments(G: AntipodalGraph, near, i0: int, i1: int):
    """Rows i0 .. i1 - 1 of A·A outside the near sets, as segments
    (row - i0, count, length) of consecutive j with one count > 0, in row
    order.  ``near`` is (row, lo, hi, ptr, plan) of the near runs; with an
    `_arc_plan` only the events inside the far intervals are swept
    (`_arc_segments`): an event inside W_i moves only the count that enters a
    far interval, and that count is computed at the interval's start.

    Otherwise every run of every m in N(i) steps row i's running sum by +1 at
    its lo and -1 at its hi, and every near run of i by -(k + 1) at its lo
    and +(k + 1) at its hi.  A count is at most k and a row's near runs are
    disjoint, so the sorted sum is positive exactly where j is outside W
    with a count > 0, and there it is the count.  The runs are sorted by
    row, so the runs of the neighbors lo .. hi - 1 of a graph run are the
    run indices run_ptr[lo] .. run_ptr[hi] - 1, one range per graph run.
    """
    k = G.k
    nrow, nlo, nhi, nptr, plan = near
    if plan is not None:
        return _arc_segments(k, plan, i0, i1)
    ptr = G.run_ptr
    r0, r1 = ptr[i0], ptr[i1]
    first, last = ptr[G.lo[r0:r1]], ptr[G.hi[r0:r1]]
    runs = kernels.expand_runs(first, last)
    base = np.repeat((G.row[r0:r1] - i0) * (k + 1), last - first)
    n = slice(nptr[i0], nptr[i1])
    nbase = (nrow[n] - i0) * (k + 1)
    # key = 4 * (row * (k + 1) + position) + kind: 0 / 1 close / open a
    # neighbor's run, 2 / 3 close / open a near run, and steps[kind] is its step
    steps = np.array([-1, 1, k + 1, -(k + 1)])
    parts = [(base + G.hi[runs]) * 4, (base + G.lo[runs]) * 4 + 1,
             (nbase + nhi[n]) * 4 + 2, (nbase + nlo[n]) * 4 + 3]
    events = np.concatenate(parts)
    events.sort()
    return _positive_segments(events, steps[events & 3], k)


def max_scaled_tail(boxing: BoundaryBoxing, G: AntipodalGraph,
                    factor: float = 100.0) -> float:
    """max over vertices i and s of s * T_s / k (the tail-bound constant).

    T_s counts the j outside near_set_W(boxing, i, factor) with
    |N(i) & N(j)| >= s.  The near sets come once, as runs (`near_runs`), and
    the counts as rows of A·A, built a block of rows at a time by a running
    sum over sorted events, without forming A·A or expanding a single entry
    (`_far_segments`).  T_s is piecewise constant in s: sorted by count,
    largest first, each row's far segments give T at each count as the
    cumulative length, so by the layer-cake identity max_s s * T_s is the
    max of count times that cumulative length, an exact integer.

    When the runs certify that every row and every near set is one cyclic
    arc, monotone in i (`_arc_plan`, checked once in O(k + runs)), row i
    sweeps only the events inside its far intervals and two markers per
    interval, and blocks hold at most ``kernels._per_block(2)`` of them.
    Otherwise row i sweeps two events per run of each m in N(i) and two per
    near run of i, and blocks hold at most ``kernels._per_block()`` events.
    Either way a one-row block may hold more, and the value is the same.
    """
    if boxing.k != G.k:
        raise ValueError(f"boxing has {boxing.k} boxes but the graph has {G.k} vertices")
    k = G.k
    nrow, nlo, nhi = near_runs(boxing, factor)
    nptr = np.searchsorted(nrow, np.arange(k + 1))
    plan = _arc_plan(G, (nrow, nlo, nhi, nptr))
    near = nrow, nlo, nhi, nptr, plan
    if plan is None:
        items, budget = 2 * (G.matvec(np.diff(G.run_ptr)) + np.diff(nptr)), kernels._per_block()
    else:
        items, budget = plan[-1], kernels._per_block(2)
    bound = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(items, out=bound[1:])
    best = 0
    i0 = 0
    while i0 < k:
        i1 = int(np.searchsorted(bound, bound[i0] + budget, side="right")) - 1
        i1 = max(i0 + 1, min(i1, k))
        row, count, length = _far_segments(G, near, i0, i1)
        # by row, then by count from the largest down (0 < count <= k); the
        # rows come in order, so the sort moves segments within rows only
        order = np.argsort(row * (k + 1) + (k - count), kind="stable")
        count, length = count[order], length[order]
        total = np.cumsum(length)
        # the cumulative length before each row's first segment
        first = np.ones(row.shape[0], bool)
        first[1:] = row[1:] != row[:-1]
        before = np.maximum.accumulate(np.where(first, total - length, 0))
        best = max(best, int((count * (total - before)).max(initial=0)))
        i0 = i1
    return best / k


def max_neighborhood_degree_sum(G: AntipodalGraph) -> int:
    """max over non-isolated i of sum of degrees over N(i)."""
    return int(G.neighborhood_degree_sums.max())
