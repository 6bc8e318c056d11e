"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (pure-Python loops, textbook algebra)
and shares no code with the library paths it checks.
"""

import math
from fractions import Fraction

import numpy as np


def pair_counts_brute(points, eps):
    """O(n^2) loop count of pairs at distance <= eps and >= 1 - eps."""
    n = len(points)
    near = 0
    far = 0
    for i in range(n):
        xi, yi = points[i]
        for j in range(i + 1, n):
            d = math.hypot(xi - points[j][0], yi - points[j][1])
            if d <= eps:
                near += 1
            if d >= 1.0 - eps:
                far += 1
    return near, far


def diameter_brute(points):
    n = len(points)
    best = 0.0
    for i in range(n):
        xi, yi = points[i]
        for j in range(i + 1, n):
            d = math.hypot(xi - points[j][0], yi - points[j][1])
            if d > best:
                best = d
    return best


def gift_wrap_hull(points):
    """Quadratic-time gift wrapping; returns CCW hull vertices as tuples."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) < 3:
        raise ValueError("need at least 3 distinct points")
    start = min(pts)  # lowest x, then lowest y

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull = [start]
    current = start
    while True:
        candidate = pts[0] if pts[0] != current else pts[1]
        for p in pts:
            if p == current:
                continue
            c = cross(current, candidate, p)
            if c < 0.0 or (
                c == 0.0
                and math.hypot(p[0] - current[0], p[1] - current[1])
                > math.hypot(candidate[0] - current[0], candidate[1] - current[1])
            ):
                candidate = p
        if candidate == start:
            break
        hull.append(candidate)
        current = candidate
        if len(hull) > len(pts):
            raise RuntimeError("gift wrapping failed to close")
    return hull


def point_in_hull(vertices, x, y, tol=1e-12):
    """Signed-area test against every CCW edge."""
    m = len(vertices)
    for i in range(m):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % m]
        if (bx - ax) * (y - ay) - (by - ay) * (x - ax) < -tol:
            return False
    return True


def two_circle_upper(c1x, r1, c2x, r2):
    """Upper intersection of circles centered on the x-axis (a/h algebra)."""
    d = abs(c2x - c1x)
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    if h2 < 0:
        raise ValueError("circles do not intersect")
    sign = 1.0 if c2x >= c1x else -1.0
    return c1x + sign * a, math.sqrt(h2)


def band_height_dense(d, eps, side_x):
    """Largest thickness of the upper two-annuli region over every sample.

    The samples and the band expression are those of `annuli.spans`
    (linspace over [-side_x, side_x] at step <= eps/100; top from the farther
    outer circle, bottom from the nearer inner one), evaluated at all of them.
    """
    nsteps = max(2, int(math.ceil(2.0 * side_x / (eps / 100.0))) + 1)
    ax = np.abs(np.linspace(-side_x, side_x, nsteps))
    top_off = ax + d / 2.0
    bot_off = np.abs(ax - d / 2.0)
    y_top = np.sqrt(np.maximum(1.0 - top_off * top_off, 0.0))
    r_in = 1.0 - eps
    y_bot = np.sqrt(np.maximum(r_in * r_in - bot_off * bot_off, 0.0))
    return float(np.maximum(y_top - y_bot, 0.0).max())


def box_corners(cx, cy, side):
    h = side / 2.0
    return [(cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h), (cx - h, cy + h)]


def box_max_distance_brute(a, b):
    """Max distance between two axis-aligned squares via the 16 corner pairs.

    a and b are (cx, cy, side) triples.
    """
    best = 0.0
    for pa in box_corners(*a):
        for pb in box_corners(*b):
            d = math.hypot(pa[0] - pb[0], pa[1] - pb[1])
            if d > best:
                best = d
    return best


def box_graph_brute(centers, side, eps):
    """Adjacency sets of the box graph from 16-corner max distances."""
    k = len(centers)
    adj = [set() for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            d = box_max_distance_brute(
                (centers[i][0], centers[i][1], side),
                (centers[j][0], centers[j][1], side),
            )
            if d >= 1.0 - eps:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def box_adjacency_brute(cx, cy, side, eps):
    """CSR (indptr, indices) of the box graph over the full k x k grid.

    Evaluates the package's corner expression (|dx| + s)**2 + (|dy| + s)**2
    >= (1 - eps)**2 for every ordered pair i != j; `box_graph_brute` takes
    hypot of the 16 corner differences instead, which can round the other
    way at an exact tie.
    """
    cx = np.asarray(cx, dtype=np.float64)
    cy = np.asarray(cy, dtype=np.float64)
    k = cx.shape[0]
    dx = np.abs(cx[:, None] - cx[None, :]) + side
    dy = np.abs(cy[:, None] - cy[None, :]) + side
    adj = dx * dx + dy * dy >= (1.0 - eps) * (1.0 - eps)
    np.fill_diagonal(adj, False)
    indptr = np.zeros(k + 1, np.int64)
    indptr[1:] = np.cumsum(adj.sum(axis=1))
    return indptr, np.nonzero(adj)[1].astype(np.int64)


def graph_dense(g):
    """The k x k uint8 0/1 matrix of a run-stored graph, one run at a time."""
    m = np.zeros((g.k, g.k), dtype=np.uint8)
    for i, lo, hi in zip(g.row.tolist(), g.lo.tolist(), g.hi.tolist()):
        m[i, lo:hi] = 1
    return m


def graph_csr(g):
    """CSR (indptr, indices) of a run-stored graph, each row's neighbors
    listed in Python and sorted."""
    rows = [[] for _ in range(g.k)]
    for i, lo, hi in zip(g.row.tolist(), g.lo.tolist(), g.hi.tolist()):
        rows[i].extend(range(lo, hi))
    indptr = np.zeros(g.k + 1, np.int64)
    indptr[1:] = np.cumsum([len(r) for r in rows])
    return indptr, np.array([j for r in rows for j in sorted(r)], dtype=np.int64)


def common_neighbors_brute(adj, i, j):
    return len(adj[i] & adj[j])


def max_scaled_tail_brute(centers, side, epsilon, adj, factor=100.0):
    """Tail constant vertex by vertex: max over i and ranks r of r times the
    r-th largest |N(i) & N(j)| over the j whose box lies farther than
    factor * epsilon (min distance) from box i, divided by k."""
    a = np.asarray(adj, dtype=np.float64)
    k = a.shape[0]
    best = 0
    for i in range(k):
        row = (a @ a[i]).astype(np.int64)
        gx = np.maximum(np.abs(centers[:, 0] - centers[i, 0]) - side, 0.0)
        gy = np.maximum(np.abs(centers[:, 1] - centers[i, 1]) - side, 0.0)
        vals = np.sort(row[~(np.hypot(gx, gy) <= factor * epsilon)])[::-1]
        if vals.size:
            best = max(best, int((vals * np.arange(1, vals.size + 1)).max()))
    return best / k


def occupancy_raster_brute(d, r_in, r_out, pitch, ix0, ix1, iy0, iy1, res=8):
    """Occupancy grid from every res x res interior sample of every cell.

    Evaluates the package's membership expressions xa*xa + y*y and
    xb*xb + y*y (sample coordinates built as in the kernel) against
    [r_in**2, r_out**2] at every sample, one cell row at a time.
    """
    ncol = ix1 - ix0 + 1
    nrow = iy1 - iy0 + 1
    sub = (np.arange(res) + 0.5) / res
    xs = ((ix0 + np.arange(ncol))[:, None] + sub[None, :]).reshape(-1) * pitch
    xa = xs + 0.5 * d
    xb = xs - 0.5 * d
    ri2 = r_in * r_in
    ro2 = r_out * r_out
    occ = np.zeros((nrow, ncol), np.bool_)
    for r in range(nrow):
        ys = (iy0 + r + sub) * pitch
        y2 = (ys * ys)[:, None]
        a2 = (xa * xa)[None, :] + y2
        b2 = (xb * xb)[None, :] + y2
        inside = (a2 >= ri2) & (a2 <= ro2) & (b2 >= ri2) & (b2 <= ro2)
        occ[r] = inside.reshape(res, ncol, res).any(axis=(0, 2))
    return occ


def occupancy_exact_brute(d, r_in, r_out, pitch, ix0, ix1, iy0, iy1, res=8):
    """Occupancy grid with every membership test decided exactly.

    The samples are the kernel's floats, (i + (s + 1/2) / res) * pitch
    rounded once.  From there on (x + d/2)**2 + y**2 and (x - d/2)**2 + y**2
    are compared with r_in**2 and r_out**2 as `Fraction`s, so no rounding of
    a sum or a square can move a sample across a circle.
    """
    ri2 = Fraction(r_in) ** 2
    ro2 = Fraction(r_out) ** 2
    hx = Fraction(d) / 2
    subs = [(s + 0.5) / res for s in range(res)]
    # per sample column: its cell and both squared center offsets
    cols = []
    for c in range(ix1 - ix0 + 1):
        for sub in subs:
            x = Fraction((ix0 + c + sub) * pitch)
            cols.append((c, (x + hx) ** 2, (x - hx) ** 2))
    occ = np.zeros((iy1 - iy0 + 1, ix1 - ix0 + 1), np.bool_)
    for r in range(occ.shape[0]):
        for sub in subs:
            y2 = Fraction((iy0 + r + sub) * pitch) ** 2
            for c, a2, b2 in cols:
                if not occ[r, c] and ri2 <= a2 + y2 <= ro2 and ri2 <= b2 + y2 <= ro2:
                    occ[r, c] = True
    return occ
