"""Kernels with a numba twin must agree with it: exactly on all integer
outputs, to roundoff on float accumulations.  Single-path kernels are compared
with the brute-force oracles instead."""

import os
import subprocess
import sys

import numpy as np
import pytest

from antipodal import kernels

from oracles import box_adjacency_brute, occupancy_raster_brute

needs_numba = pytest.mark.skipif(
    not kernels.HAVE_NUMBA, reason="numba not importable"
)


@pytest.fixture
def both_paths(monkeypatch):
    def run(fn, *args):
        out = {}
        for flag in (False, True):
            monkeypatch.setattr(kernels, "USE_NUMBA", flag)
            out[flag] = fn(*args)
        return out[False], out[True]

    return run


@needs_numba
def test_pair_counts_agree(both_paths, rng):
    xy = rng.random((600, 2)) * 0.9 - 0.45
    for eps in (0.02, 0.1, 0.3):
        a, b = both_paths(kernels.pair_threshold_counts, xy, eps)
        assert a == b


@needs_numba
def test_max_distance_agrees(both_paths, rng):
    xy = rng.random((500, 2))
    a, b = both_paths(kernels.max_pairwise_distance_sq, xy)
    assert a == b


def test_adjacency_agrees(rng):
    ang = rng.random(300) * 2 * np.pi
    cx, cy = 0.5 * np.cos(ang), 0.5 * np.sin(ang)
    ia, ja = kernels.box_adjacency_csr(cx, cy, 0.01, 0.05)
    ib, jb = box_adjacency_brute(cx, cy, 0.01, 0.05)
    assert np.array_equal(ia, ib)
    assert np.array_equal(ja, jb)


@needs_numba
def test_matvec_agrees(both_paths, rng):
    ang = np.linspace(0, 2 * np.pi, 200, endpoint=False)
    cx, cy = 0.5 * np.cos(ang), 0.5 * np.sin(ang)
    indptr, indices = kernels.box_adjacency_csr(cx, cy, 0.02, 0.08)
    rows = np.repeat(np.arange(200), np.diff(indptr))
    x = rng.random(200)
    a, b = both_paths(kernels.csr_matvec, indptr, indices, rows, x)
    assert np.allclose(a, b, rtol=1e-12, atol=0)


@needs_numba
def test_common_counts_agree(both_paths, rng):
    ang = np.linspace(0, 2 * np.pi, 150, endpoint=False)
    cx, cy = 0.5 * np.cos(ang), 0.5 * np.sin(ang)
    indptr, indices = kernels.box_adjacency_csr(cx, cy, 0.02, 0.08)
    rows = np.repeat(np.arange(150), np.diff(indptr))
    for i in (0, 42, 149):
        a, b = both_paths(kernels.common_neighbor_counts, indptr, indices, rows, i)
        assert np.array_equal(a, b)


def test_occupancy_agrees_exactly():
    for d, eps in [(0.5, 0.01), (1.0, 0.01), (0.04, 0.01), (0.02, 0.005)]:
        args = (d, 1 - eps, 1.0, eps / 2, -80, 80, 150, 220)
        assert np.array_equal(
            kernels.annuli_occupancy_grid(*args), occupancy_raster_brute(*args)
        )


def test_env_flag_disables_numba():
    code = (
        "from antipodal import kernels; "
        "print(kernels.USE_NUMBA)"
    )
    env = dict(os.environ, ANTIPODAL_DISABLE_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "False"
