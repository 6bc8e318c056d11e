"""Brute-force NumPy references the benchmark checks the program against.

Every integer here is evaluated with the same floating-point expressions the
package uses at its inclusive thresholds (``dx*dx + dy*dy`` against a squared
threshold, the box-max ``|dc| + side`` form, ``hypot`` for the near set), so
exact equality is the right test.  Nothing here calls the package's counting,
graph or spectral code: inputs (point sets, box centres) may come from the
package, outputs never do.  Work is chunked by rows to keep memory small.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

ROW_BLOCK = 512


def pair_counts(xy: np.ndarray, epsilons) -> list[tuple[int, int]]:
    """(neighbors, antipodes) for every ε: pairs i<j with d² <= ε² and
    d² >= (1-ε)², both inclusive."""
    n = xy.shape[0]
    chunks = []
    for i0 in range(0, n, ROW_BLOCK):
        i1 = min(n, i0 + ROW_BLOCK)
        dx = xy[i0:i1, 0:1] - xy[None, :, 0]
        dy = xy[i0:i1, 1:2] - xy[None, :, 1]
        d2 = dx * dx + dy * dy
        upper = np.arange(n)[None, :] > np.arange(i0, i1)[:, None]
        chunks.append(d2[upper])
    d2 = np.concatenate(chunks)
    out = []
    for eps in epsilons:
        far = 1.0 - eps
        out.append((int(np.count_nonzero(d2 <= eps * eps)),
                    int(np.count_nonzero(d2 >= far * far))))
    return out


def box_adjacency(centers: np.ndarray, side: float, epsilon: float) -> sp.csr_array:
    """0/1 adjacency: i ~ j (i != j) iff the box-max distance reaches 1 - ε."""
    cx = centers[:, 0]
    cy = centers[:, 1]
    k = cx.shape[0]
    thr2 = (1.0 - epsilon) * (1.0 - epsilon)
    rows, cols = [], []
    for i0 in range(0, k, ROW_BLOCK):
        i1 = min(k, i0 + ROW_BLOCK)
        dx = np.abs(cx[i0:i1, None] - cx[None, :]) + side
        dy = np.abs(cy[i0:i1, None] - cy[None, :]) + side
        adj = dx * dx + dy * dy >= thr2
        adj[np.arange(i1 - i0), np.arange(i0, i1)] = False
        r, c = np.nonzero(adj)
        rows.append(r + i0)
        cols.append(c)
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    return sp.csr_array((np.ones(r.size, np.int64), (r, c)), shape=(k, k))


def box_count(vertices: np.ndarray, epsilon: float) -> int:
    """ceil(perimeter / (ε/2)) for the closed polygon through `vertices`."""
    edges = np.roll(vertices, -1, axis=0) - vertices
    return math.ceil(float(np.hypot(edges[:, 0], edges[:, 1]).sum()) / (epsilon / 2.0))


def max_scaled_tail(centers: np.ndarray, side: float, epsilon: float,
                    adj: sp.csr_array, factor: float = 100.0) -> float:
    """max over i and s of s * T_s / k, with T_s over j outside the near set
    of i (box min-distance <= factor * ε)."""
    k = adj.shape[0]
    common = (adj @ adj).tocsr()
    ranks = np.arange(1, k + 1, dtype=np.int64)
    best = 0
    block = 256
    for i0 in range(0, k, block):
        i1 = min(k, i0 + block)
        c = common[i0:i1].toarray()
        gx = np.maximum(np.abs(centers[:, 0][None, :] - centers[i0:i1, 0:1]) - side, 0.0)
        gy = np.maximum(np.abs(centers[:, 1][None, :] - centers[i0:i1, 1:2]) - side, 0.0)
        c[np.hypot(gx, gy) <= factor * epsilon] = 0
        c = -np.sort(-c, axis=1)
        best = max(best, int((c * ranks[None, :]).max()))
    return best / k


def perron_bracket(adj: sp.csr_array) -> tuple[float, float]:
    """Collatz–Wielandt bracket [min (Av)_i/v_i, max (Av)_i/v_i] over the
    non-isolated vertices, from a Lanczos Perron vector v.  For a connected
    nonnegative matrix and any positive v the bracket contains λ1."""
    a = adj.astype(np.float64)
    live = np.flatnonzero(np.asarray(a.sum(axis=1)).ravel() > 0)
    a = a[live][:, live]
    _, vecs = eigsh(a, k=1, which="LA", v0=np.ones(a.shape[0]))
    v = np.abs(vecs[:, 0])
    if (v <= 0.0).any():
        raise ValueError("Perron vector is not strictly positive")
    ratio = (a @ v) / v
    return float(ratio.min()), float(ratio.max())


def circle_crossing(c1x: float, r1: float, c2x: float, r2: float) -> tuple[float, float]:
    """Upper crossing point of two circles centred on the x-axis."""
    dist = abs(c2x - c1x)
    a = (dist * dist + r1 * r1 - r2 * r2) / (2.0 * dist)
    h = math.sqrt(max(r1 * r1 - a * a, 0.0))
    return c1x + math.copysign(a, c2x - c1x), h


def sampled_cover(d: float, epsilon: float, r_in: float, r_out: float,
                  res: int = 8) -> int:
    """Lower bound on the number of origin-anchored ε/2 cells meeting the
    upper intersection of the two annuli [r_in, r_out] centred at (∓d/2, 0):
    cells that contain one of res×res interior sample points lying in both
    annuli.  The window comes from the circle crossings, padded by two cells.
    """
    pitch = epsilon / 2.0
    hx = 0.5 * d
    x_side, y_side = circle_crossing(-hx, r_out, hx, r_in)
    _, y_top = circle_crossing(-hx, r_out, hx, r_out)
    _, y_bot = circle_crossing(-hx, r_in, hx, r_in)
    ix = np.arange(math.floor(-abs(x_side) / pitch) - 2, math.floor(abs(x_side) / pitch) + 3)
    iy = np.arange(math.floor(min(y_bot, y_side) / pitch) - 2, math.floor(y_top / pitch) + 3)
    sub = (np.arange(res) + 0.5) / res
    xs = (ix[:, None] + sub[None, :]).reshape(-1) * pitch
    xa = xs + hx
    xb = xs - hx
    xa2 = xa * xa
    xb2 = xb * xb
    ri2 = r_in * r_in
    ro2 = r_out * r_out
    occupied = 0
    for row in iy:
        ys = (row + sub) * pitch
        y2 = (ys * ys)[:, None]
        a2 = xa2[None, :] + y2
        b2 = xb2[None, :] + y2
        inside = (a2 >= ri2) & (a2 <= ro2) & (b2 >= ri2) & (b2 <= ro2) & (ys[:, None] > 0.0)
        occupied += int(inside.reshape(res, ix.size, res).any(axis=(0, 2)).sum())
    return occupied
