import numpy as np
import pytest

from antipodal import AntipodalGraph, kernels

# the annuli-covers benchmark lattice: thickened covers where d >= 12*eps
LATTICE = [(d, eps) for eps in (0.0005, 0.001, 0.002, 0.005, 0.01)
           for d in (4 * eps, 0.05, 0.1, 0.25, 0.5, 1.0)]


def deep_descent(mp):
    """Shrink the block budget to 997 elements: 3 node pairs split in one
    block, so every pair engine's hierarchy grows up to one top node, and a
    set of more than `kernels._FAN` leaves descends at least three levels."""
    mp.setattr(kernels, "_BLOCK_ELEMS", 997)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def complete_graph(k: int) -> AntipodalGraph:
    m = np.ones((k, k), dtype=np.uint8)
    np.fill_diagonal(m, 0)
    return AntipodalGraph.from_dense(m)


def cycle_graph(k: int) -> AntipodalGraph:
    m = np.zeros((k, k), dtype=np.uint8)
    idx = np.arange(k)
    m[idx, (idx + 1) % k] = 1
    m[(idx + 1) % k, idx] = 1
    return AntipodalGraph.from_dense(m)


def star_graph(m_leaves: int) -> AntipodalGraph:
    m = np.zeros((m_leaves + 1, m_leaves + 1), dtype=np.uint8)
    m[0, 1:] = 1
    m[1:, 0] = 1
    return AntipodalGraph.from_dense(m)


def random_graph(k: int, p: float, seed: int) -> AntipodalGraph:
    gen = np.random.default_rng(seed)
    upper = np.triu(gen.random((k, k)) < p, 1)
    return AntipodalGraph.from_dense((upper | upper.T).astype(np.uint8))
