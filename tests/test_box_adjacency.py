"""The chunk-pruned box adjacency is exact: its CSR equals the full k x k
evaluation of the same expression entry for entry, on boundary boxes in
arc-length order, on the same boxes shuffled, at exact ties with the
threshold, and at every chunk size."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (
    arc_center_config,
    circle_config,
    convex_hull,
    discretize_boundary,
    kernels,
    random_disk_config,
    reuleaux_boundary_config,
)

from oracles import box_adjacency_brute

HULLS = {
    "circle": lambda: convex_hull(circle_config(2000)),
    "reuleaux": lambda: convex_hull(reuleaux_boundary_config(2000, seed=1)),
    "random-disk": lambda: convex_hull(random_disk_config(2000, seed=1)),
    "arc-center": lambda: convex_hull(arc_center_config(2000, 1 / 64)),
}
EPSILONS = [1 / 16, 1 / 64, 1 / 256]


def _assert_matches_brute(cx, cy, side, eps):
    indptr, indices = kernels.box_adjacency_csr(cx, cy, side, eps)
    b_indptr, b_indices = box_adjacency_brute(cx, cy, side, eps)
    assert indptr.dtype == np.int64 and indices.dtype == np.int64
    assert np.array_equal(indptr, b_indptr)
    assert np.array_equal(indices, b_indices)
    return indptr, indices


def _with_chunk(monkeypatch, chunk):
    """Cut the box graph into chunks of `chunk` boxes."""
    monkeypatch.setattr(kernels, "_GRAPH_CHUNK", chunk)


@pytest.fixture(scope="module")
def boxings():
    cache = {}

    def get(hull, eps):
        if (hull, eps) not in cache:
            cache[hull, eps] = discretize_boundary(HULLS[hull](), eps)
        return cache[hull, eps]

    return get


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("hull", sorted(HULLS))
def test_hull_boxes_match_brute(boxings, hull, eps):
    boxing = boxings(hull, eps)
    cx = boxing.centers[:, 0].copy()
    cy = boxing.centers[:, 1].copy()
    indptr, _ = _assert_matches_brute(cx, cy, boxing.side, eps)
    assert indptr[-1] > 0


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("hull", sorted(HULLS))
def test_shuffled_boxes_match_brute(boxings, hull, eps):
    # shuffled chunks have wide bounding boxes, so little is pruned
    boxing = boxings(hull, eps)
    perm = np.random.default_rng(5).permutation(boxing.k)
    cx = boxing.centers[perm, 0].copy()
    cy = boxing.centers[perm, 1].copy()
    _assert_matches_brute(cx, cy, boxing.side, eps)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 32])
def test_every_chunk_size_matches_brute(monkeypatch, boxings, chunk):
    boxing = boxings("reuleaux", 1 / 64)
    _with_chunk(monkeypatch, chunk)
    cx = boxing.centers[:, 0].copy()
    cy = boxing.centers[:, 1].copy()
    _assert_matches_brute(cx, cy, boxing.side, boxing.epsilon)


# Centres on the lattice j/64 with side 1/64 and ε = 1/16: a centre offset
# (a, b)/64 gives ((a+1)**2 + (b+1)**2) / 4096 against (15/16)**2 =
# 3600/4096, all exact, so offsets (35, 47) and (47, 35) (36² + 48² = 60²)
# sit exactly on the inclusive threshold.
_TIES = [(35, 47), (47, 35), (-35, 47), (47, -35)]
_lattice = st.lists(st.tuples(st.integers(0, 80), st.integers(0, 80)), min_size=1,
                    max_size=30)


@given(_lattice, st.lists(st.tuples(st.integers(0, 29), st.sampled_from(_TIES)),
                          max_size=10),
       st.sampled_from([1, 2, 3, 5, 32]), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_lattice_ties_match_brute(base, ties, chunk, rnd):
    pts = list(base)
    for i, (a, b) in ties:
        x, y = pts[i % len(base)]
        pts.append((x + a, y + b))
    rnd.shuffle(pts)
    xy = np.array(pts, dtype=np.float64) / 64
    with pytest.MonkeyPatch.context() as mp:
        _with_chunk(mp, chunk)
        _assert_matches_brute(xy[:, 0].copy(), xy[:, 1].copy(), 1 / 64, 1 / 16)


@pytest.mark.parametrize("chunk", [1, 2, 32])
def test_lattice_tie_is_an_edge(monkeypatch, chunk):
    # one-box chunks make the chunk bound equal the tie itself
    xy = np.array([[0, 0], [35, 47], [47, 35], [35, 46]], dtype=np.float64) / 64
    _with_chunk(monkeypatch, chunk)
    indptr, indices = kernels.box_adjacency_csr(xy[:, 0].copy(), xy[:, 1].copy(),
                                                1 / 64, 1 / 16)
    assert indptr.tolist() == [0, 2, 3, 4, 4]
    assert indices.tolist() == [1, 2, 0, 0]


@given(st.lists(st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)), min_size=1,
                max_size=50),
       st.floats(0.0, 1.0), st.floats(0.01, 0.49), st.sampled_from([1, 2, 5, 32]))
@settings(max_examples=100, deadline=None)
def test_any_side_matches_brute(pts, side, eps, chunk):
    # sides near 1 make every pair an edge, and i ~ i would be one too
    xy = np.array(pts, dtype=np.float64)
    with pytest.MonkeyPatch.context() as mp:
        _with_chunk(mp, chunk)
        _assert_matches_brute(xy[:, 0].copy(), xy[:, 1].copy(), side, eps)


def test_duplicate_centres():
    xy = np.array([[0.0, 0.0]] * 5 + [[0.9, 0.3]] * 4 + [[0.2, 0.1]] * 3)
    indptr, indices = _assert_matches_brute(xy[:, 0].copy(), xy[:, 1].copy(),
                                            0.02, 0.05)
    assert indptr[-1] == 2 * 5 * 4


def test_large_side_has_no_self_loops():
    xy = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.2]])
    indptr, indices = _assert_matches_brute(xy[:, 0].copy(), xy[:, 1].copy(),
                                            0.9, 0.1)
    assert indptr.tolist() == [0, 2, 4, 6]
    assert indices.tolist() == [1, 2, 0, 2, 0, 1]


def test_graph_chunk_does_not_follow_the_block_budget(monkeypatch):
    """The box graph is cut into chunks of `_GRAPH_CHUNK` boxes at any block
    budget; a chunk size taken from the budget gave these 403 boxes 2."""
    boxing = discretize_boundary(convex_hull(circle_config(600)), 1 / 64)
    assert boxing.k == 403
    sizes = []
    box_pair_runs = kernels.box_pair_runs

    def spy(cx, cy, size, *args, **kwargs):
        sizes.append(size)
        return box_pair_runs(cx, cy, size, *args, **kwargs)

    monkeypatch.setattr(kernels, "box_pair_runs", spy)
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", 1000)
    _assert_matches_brute(boxing.centers[:, 0].copy(), boxing.centers[:, 1].copy(),
                          boxing.side, boxing.epsilon)
    assert sizes == [kernels._GRAPH_CHUNK] == [32]


@pytest.mark.parametrize("k", [3, 31])
def test_fewer_boxes_than_a_chunk(k):
    ang = np.linspace(0.0, 2 * np.pi, k, endpoint=False)
    cx, cy = 0.5 * np.cos(ang), 0.5 * np.sin(ang)
    _assert_matches_brute(cx, cy, 0.05, 0.1)
