"""The kernels must equal the brute-force oracles: exactly on all integer
outputs and maxima, and on the float accumulations of 0/1 matrix products."""

import math

import numpy as np

from antipodal import kernels

from oracles import (
    box_adjacency_brute,
    common_neighbors_brute,
    diameter_brute,
    occupancy_raster_brute,
    pair_counts_brute,
)


def test_pair_counts_agree(rng):
    xy = rng.random((600, 2)) * 0.9 - 0.45
    for eps in (0.02, 0.1, 0.3):
        assert kernels.pair_threshold_counts(xy, eps) == pair_counts_brute(xy.tolist(), eps)


def test_max_distance_agrees(rng):
    xy = rng.random((500, 2))
    got = kernels.max_pairwise_distance_sq(xy)
    dx = xy[:, None, 0] - xy[None, :, 0]
    dy = xy[:, None, 1] - xy[None, :, 1]
    assert got == float((dx * dx + dy * dy).max())
    assert math.sqrt(got) == diameter_brute(xy.tolist())


def test_adjacency_agrees(rng):
    ang = rng.random(300) * 2 * np.pi
    cx, cy = 0.5 * np.cos(ang), 0.5 * np.sin(ang)
    ia, ja = kernels.box_adjacency_csr(cx, cy, 0.01, 0.05)
    ib, jb = box_adjacency_brute(cx, cy, 0.01, 0.05)
    assert np.array_equal(ia, ib)
    assert np.array_equal(ja, jb)


def _circle_boxes(k):
    ang = np.linspace(0, 2 * np.pi, k, endpoint=False)
    cx, cy = 0.5 * np.cos(ang), 0.5 * np.sin(ang)
    indptr, indices = box_adjacency_brute(cx, cy, 0.02, 0.08)
    rows = np.repeat(np.arange(k), np.diff(indptr))
    adj = np.zeros((k, k), np.uint8)
    adj[rows, indices] = 1
    return indptr, indices, rows, adj


def test_matvec_agrees(rng):
    indptr, indices, rows, adj = _circle_boxes(200)
    x = rng.random(200)
    assert np.allclose(kernels.csr_matvec(indptr, indices, rows, x), adj @ x,
                       rtol=1e-12, atol=0)


def test_common_counts_agree():
    indptr, indices, rows, adj = _circle_boxes(150)
    sets = [set(np.flatnonzero(r).tolist()) for r in adj]
    for i in (0, 42, 149):
        got = kernels.common_neighbor_counts(indptr, indices, rows, i)
        assert got.tolist() == [common_neighbors_brute(sets, i, j) for j in range(150)]


def test_occupancy_agrees_exactly():
    for d, eps in [(0.5, 0.01), (1.0, 0.01), (0.04, 0.01), (0.02, 0.005)]:
        args = (d, 1 - eps, 1.0, eps / 2, -80, 80, 150, 220)
        assert np.array_equal(
            kernels.annuli_occupancy_grid(*args), occupancy_raster_brute(*args)
        )
