"""Hot numeric kernels, each with a numba ``@njit`` path and a pure-NumPy path.

The numba path is used by default when numba imports cleanly.  Set the
environment variable ``ANTIPODAL_DISABLE_NUMBA=1`` before import to force the
pure-NumPy fallback (the flag is also exposed as the module global
``USE_NUMBA`` so tests and benchmarks can flip paths at runtime).

Both paths of every kernel evaluate the same floating-point expressions in
the same order wherever a comparison against a threshold is made, so integer
outputs (pair counts, adjacency, occupancy grids) are identical between
paths; float accumulations agree to roundoff.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

_ENV_DISABLED = os.environ.get("ANTIPODAL_DISABLE_NUMBA", "").strip().lower() in {
    "1",
    "true",
    "yes",
}

USE_NUMBA = HAVE_NUMBA and not _ENV_DISABLED

# elements per block for the chunked NumPy paths: each float64 temporary of a
# block is 8 MB, which bounds their peak memory at a few tens of MB
_BLOCK_ELEMS = 1_000_000


# ---------------------------------------------------------------------------
# pair counting at the two distance thresholds
# ---------------------------------------------------------------------------

def _pair_counts_loop(xy, near_sq, far_sq):
    n = xy.shape[0]
    near = 0
    far = 0
    for i in range(n):
        xi = xy[i, 0]
        yi = xy[i, 1]
        for j in range(i + 1, n):
            dx = xi - xy[j, 0]
            dy = yi - xy[j, 1]
            d2 = dx * dx + dy * dy
            if d2 <= near_sq:
                near += 1
            if d2 >= far_sq:
                far += 1
    return near, far


def _pair_counts_numpy(xy, near_sq, far_sq):
    n = xy.shape[0]
    block = max(1, _BLOCK_ELEMS // max(n, 1))
    cols = np.arange(n)
    near = 0
    far = 0
    for i0 in range(0, n, block):
        i1 = min(n, i0 + block)
        dx = xy[i0:i1, 0:1] - xy[None, :, 0]
        dy = xy[i0:i1, 1:2] - xy[None, :, 1]
        d2 = dx * dx + dy * dy
        upper = cols[None, :] > np.arange(i0, i1)[:, None]
        near += int(np.count_nonzero((d2 <= near_sq) & upper))
        far += int(np.count_nonzero((d2 >= far_sq) & upper))
    return near, far


# ---------------------------------------------------------------------------
# maximum pairwise squared distance
# ---------------------------------------------------------------------------

def _max_dist_sq_loop(xy):
    n = xy.shape[0]
    best = 0.0
    for i in range(n):
        xi = xy[i, 0]
        yi = xy[i, 1]
        for j in range(i + 1, n):
            dx = xi - xy[j, 0]
            dy = yi - xy[j, 1]
            d2 = dx * dx + dy * dy
            if d2 > best:
                best = d2
    return best


def _max_dist_sq_numpy(xy):
    n = xy.shape[0]
    block = max(1, _BLOCK_ELEMS // max(n, 1))
    best = 0.0
    for i0 in range(0, n, block):
        i1 = min(n, i0 + block)
        dx = xy[i0:i1, 0:1] - xy[None, :, 0]
        dy = xy[i0:i1, 1:2] - xy[None, :, 1]
        d2 = dx * dx + dy * dy
        m = float(d2.max())
        if m > best:
            best = m
    return best


# ---------------------------------------------------------------------------
# antipodal adjacency over equal axis-aligned boxes (CSR)
# ---------------------------------------------------------------------------
# For two axis-aligned squares of side s the maximum point-to-point distance
# is hypot(|dcx| + s, |dcy| + s), attained at corners.

def _box_adjacency_loop(cx, cy, side, eps):
    k = cx.shape[0]
    thr2 = (1.0 - eps) * (1.0 - eps)
    counts = np.zeros(k, np.int64)
    for i in range(k):
        c = 0
        for j in range(k):
            if i == j:
                continue
            dx = abs(cx[i] - cx[j]) + side
            dy = abs(cy[i] - cy[j]) + side
            if dx * dx + dy * dy >= thr2:
                c += 1
        counts[i] = c
    indptr = np.zeros(k + 1, np.int64)
    for i in range(k):
        indptr[i + 1] = indptr[i] + counts[i]
    indices = np.empty(indptr[k], np.int64)
    for i in range(k):
        p = indptr[i]
        for j in range(k):
            if i == j:
                continue
            dx = abs(cx[i] - cx[j]) + side
            dy = abs(cy[i] - cy[j]) + side
            if dx * dx + dy * dy >= thr2:
                indices[p] = j
                p += 1
    return indptr, indices


def _box_adjacency_numpy(cx, cy, side, eps):
    k = cx.shape[0]
    thr2 = (1.0 - eps) * (1.0 - eps)
    block = max(1, _BLOCK_ELEMS // max(k, 1))
    indptr = np.zeros(k + 1, np.int64)
    chunks = []
    for i0 in range(0, k, block):
        i1 = min(k, i0 + block)
        dx = np.abs(cx[i0:i1, None] - cx[None, :]) + side
        dy = np.abs(cy[i0:i1, None] - cy[None, :]) + side
        adj = dx * dx + dy * dy >= thr2
        adj[np.arange(i1 - i0), np.arange(i0, i1)] = False
        rows, cols = np.nonzero(adj)
        chunks.append(cols.astype(np.int64))
        indptr[i0 + 1 : i1 + 1] = np.bincount(rows, minlength=i1 - i0)
    indices = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
    np.cumsum(indptr, out=indptr)
    return indptr, indices


# ---------------------------------------------------------------------------
# rasterized occupancy of a two-annuli intersection
# ---------------------------------------------------------------------------
# Grid of the given pitch anchored at the origin; cell (ix, iy) is occupied
# when any of its res x res interior sample points lies inside both annuli
# (centers (-d/2, 0) and (d/2, 0), radii [r_in, r_out]).

def _occupancy_loop(d, r_in, r_out, pitch, ix0, ix1, iy0, iy1, res):
    ncol = ix1 - ix0 + 1
    nrow = iy1 - iy0 + 1
    hx = 0.5 * d
    ri2 = r_in * r_in
    ro2 = r_out * r_out
    occ = np.zeros((nrow, ncol), np.bool_)
    for r in range(nrow):
        iy = iy0 + r
        for c in range(ncol):
            ix = ix0 + c
            hit = False
            for my in range(res):
                y = (iy + (my + 0.5) / res) * pitch
                y2 = y * y
                for mx in range(res):
                    x = (ix + (mx + 0.5) / res) * pitch
                    xa = x + hx
                    xb = x - hx
                    a2 = xa * xa + y2
                    if a2 < ri2 or a2 > ro2:
                        continue
                    b2 = xb * xb + y2
                    if ri2 <= b2 <= ro2:
                        hit = True
                        break
                if hit:
                    break
            occ[r, c] = hit
    return occ


def _occupancy_numpy(d, r_in, r_out, pitch, ix0, ix1, iy0, iy1, res):
    ncol = ix1 - ix0 + 1
    nrow = iy1 - iy0 + 1
    sub = (np.arange(res) + 0.5) / res
    xs = ((ix0 + np.arange(ncol))[:, None] + sub[None, :]).reshape(-1) * pitch
    ys = ((iy0 + np.arange(nrow))[:, None] + sub[None, :]).reshape(-1) * pitch
    hx = 0.5 * d
    ri2 = r_in * r_in
    ro2 = r_out * r_out
    xa = xs + hx
    xb = xs - hx
    y2 = (ys * ys)[:, None]
    a2 = (xa * xa)[None, :] + y2
    b2 = (xb * xb)[None, :] + y2
    inside = (a2 >= ri2) & (a2 <= ro2) & (b2 >= ri2) & (b2 <= ro2)
    return inside.reshape(nrow, res, ncol, res).any(axis=(1, 3))


# ---------------------------------------------------------------------------
# CSR matrix-vector product and common-neighbor row
# ---------------------------------------------------------------------------

def _csr_matvec_loop(indptr, indices, x):
    k = indptr.shape[0] - 1
    y = np.zeros(k)
    for i in range(k):
        s = 0.0
        for p in range(indptr[i], indptr[i + 1]):
            s += x[indices[p]]
        y[i] = s
    return y


def _csr_matvec_numpy(indptr, indices, rows, x, k):
    return np.bincount(rows, weights=x[indices], minlength=k)


def _common_counts_loop(indptr, indices, k, i):
    mark = np.zeros(k, np.uint8)
    for p in range(indptr[i], indptr[i + 1]):
        mark[indices[p]] = 1
    out = np.empty(k, np.int64)
    for j in range(k):
        c = 0
        for p in range(indptr[j], indptr[j + 1]):
            c += mark[indices[p]]
        out[j] = c
    return out


def _common_counts_numpy(indptr, indices, rows, k, i):
    mark = np.zeros(k, np.float64)
    mark[indices[indptr[i] : indptr[i + 1]]] = 1.0
    counts = np.bincount(rows, weights=mark[indices], minlength=k)
    return counts.astype(np.int64)


if HAVE_NUMBA:
    _pair_counts_nb = njit(cache=True)(_pair_counts_loop)
    _max_dist_sq_nb = njit(cache=True)(_max_dist_sq_loop)
    _box_adjacency_nb = njit(cache=True)(_box_adjacency_loop)
    _occupancy_nb = njit(cache=True)(_occupancy_loop)
    _csr_matvec_nb = njit(cache=True)(_csr_matvec_loop)
    _common_counts_nb = njit(cache=True)(_common_counts_loop)


# ---------------------------------------------------------------------------
# dispatchers
# ---------------------------------------------------------------------------

def pair_threshold_counts(xy: np.ndarray, epsilon: float) -> tuple[int, int]:
    """Count unordered pairs at distance <= epsilon and >= 1 - epsilon."""
    near_sq = epsilon * epsilon
    far = 1.0 - epsilon
    far_sq = far * far
    if USE_NUMBA:
        near, anti = _pair_counts_nb(xy, near_sq, far_sq)
        return int(near), int(anti)
    return _pair_counts_numpy(xy, near_sq, far_sq)


def max_pairwise_distance_sq(xy: np.ndarray) -> float:
    if USE_NUMBA:
        return float(_max_dist_sq_nb(xy))
    return _max_dist_sq_numpy(xy)


def box_adjacency_csr(cx, cy, side: float, epsilon: float):
    """CSR (indptr, indices) of the box graph: i~j iff max box distance >= 1 - eps."""
    if USE_NUMBA:
        return _box_adjacency_nb(cx, cy, side, epsilon)
    return _box_adjacency_numpy(cx, cy, side, epsilon)


def annuli_occupancy_grid(d, r_in, r_out, pitch, ix0, ix1, iy0, iy1, res=8):
    """Boolean occupancy grid of the annuli intersection over the cell window."""
    if USE_NUMBA:
        return _occupancy_nb(
            d, r_in, r_out, pitch, int(ix0), int(ix1), int(iy0), int(iy1), int(res)
        )
    return _occupancy_numpy(
        d, r_in, r_out, pitch, int(ix0), int(ix1), int(iy0), int(iy1), int(res)
    )


def csr_matvec(indptr, indices, rows, x):
    """y = A @ x for the 0/1 CSR matrix; `rows` is the per-entry row index.

    The package's own products go through ``AntipodalGraph.matvec`` (SciPy
    CSR); this kernel stays as a standalone NumPy/numba reference.
    """
    if USE_NUMBA:
        return _csr_matvec_nb(indptr, indices, x)
    return _csr_matvec_numpy(indptr, indices, rows, x, indptr.shape[0] - 1)


def common_neighbor_counts(indptr, indices, rows, i: int):
    """Vector of |N(i) & N(j)| over all j for the 0/1 CSR adjacency.

    The package's own rows and tails come from SciPy products with the
    adjacency (``boundary.common_neighbor_row``, ``boundary.max_scaled_tail``);
    this kernel stays as a standalone NumPy/numba reference.
    """
    k = indptr.shape[0] - 1
    if USE_NUMBA:
        return _common_counts_nb(indptr, indices, k, int(i))
    return _common_counts_numpy(indptr, indices, rows, k, int(i))
