"""The box graph stored as runs of consecutive boxes: the runs are sorted,
non-empty and maximal, they expand to the full k x k evaluation, the run
product is exact on integers, and the tail constant built from runs equals
the vertex-by-vertex oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (
    AntipodalGraph,
    arc_center_config,
    build_graph,
    circle_config,
    convex_hull,
    discretize_boundary,
    kernels,
    random_disk_config,
    reuleaux_boundary_config,
)
from antipodal.boundary import (
    BoundaryBoxing,
    common_neighbor_row,
    common_neighbors,
    max_scaled_tail,
    tail_counts,
)
from conftest import complete_graph, deep_descent, random_graph, star_graph

from oracles import box_adjacency_brute, graph_csr, graph_dense, max_scaled_tail_brute

HULLS = {
    "circle": lambda: convex_hull(circle_config(2000)),
    "reuleaux": lambda: convex_hull(reuleaux_boundary_config(2000, seed=1)),
    "random-disk": lambda: convex_hull(random_disk_config(2000, seed=1)),
    "arc-center": lambda: convex_hull(arc_center_config(2000, 1 / 64)),
}
EPSILONS = [1 / 16, 1 / 64, 1 / 256]
_boxings = {}


def _boxing(hull, eps, shuffle_seed=None):
    """Boundary boxes in arc-length order, or shuffled by the given seed."""
    key = hull, eps, shuffle_seed
    if key not in _boxings:
        boxing = discretize_boundary(HULLS[hull](), eps)
        if shuffle_seed is not None:
            perm = np.random.default_rng(shuffle_seed).permutation(boxing.k)
            boxing = BoundaryBoxing(boxing.centers[perm], eps)
        _boxings[key] = boxing
    return _boxings[key]


def _assert_runs_valid(k, row, lo, hi):
    assert row.dtype == lo.dtype == hi.dtype == np.int64
    assert ((0 <= row) & (row < k) & (0 <= lo) & (lo < hi) & (hi <= k)).all()
    same = row[1:] == row[:-1]
    assert (row[1:] >= row[:-1]).all()
    # sorted by lo within a row, disjoint, and no two runs meet
    assert (lo[1:][same] > hi[:-1][same]).all()


def _assert_matches_brute(cx, cy, side, eps):
    runs = kernels.box_adjacency_runs(cx, cy, side, eps)
    _assert_runs_valid(cx.shape[0], *runs)
    g = AntipodalGraph(cx.shape[0], *runs)
    b_indptr, b_indices = box_adjacency_brute(cx, cy, side, eps)
    indptr, indices = graph_csr(g)
    assert np.array_equal(indptr, b_indptr)
    assert np.array_equal(indices, b_indices)
    assert np.array_equal(g.degrees, np.diff(b_indptr))
    return runs


@given(st.sampled_from(sorted(HULLS)), st.sampled_from(EPSILONS),
       st.one_of(st.none(), st.integers(0, 3)), st.booleans())
@settings(max_examples=40, deadline=None)
def test_hull_runs_match_brute(hull, eps, shuffle_seed, deep):
    """Also down every level from one top node (`conftest.deep_descent`),
    on boxes in arc-length order, where most node pairs are settled."""
    boxing = _boxing(hull, eps, shuffle_seed)
    cx = boxing.centers[:, 0].copy()
    cy = boxing.centers[:, 1].copy()
    if deep and shuffle_seed is None:
        with pytest.MonkeyPatch.context() as mp:
            deep_descent(mp)
            _assert_matches_brute(cx, cy, boxing.side, eps)
    row, lo, hi = _assert_matches_brute(cx, cy, boxing.side, eps)
    g = build_graph(boxing)
    assert np.array_equal(g.row, row) and np.array_equal(g.lo, lo)
    assert np.array_equal(g.hi, hi)
    assert g.degrees.sum() == 2 * g.edge_count == (hi - lo).sum()
    if shuffle_seed is None:
        # in arc-length order a box's antipodes are few arcs of consecutive boxes
        assert row.shape[0] <= 2 * boxing.k


def test_circle_rows_are_one_cyclic_run():
    boxing = _boxing("circle", 1 / 64)
    g = build_graph(boxing)
    runs = np.bincount(g.row, minlength=g.k)
    assert (runs >= 1).all() and (runs <= 2).all()
    wraps = np.flatnonzero(runs == 2)
    assert wraps.size > 0
    # a wrapping row's two runs are [0, hi) and [lo, k)
    first = g.run_ptr[wraps]
    assert (g.lo[first] == 0).all() and (g.hi[first + 1] == g.k).all()


def test_shuffled_boxes_give_many_runs_per_row():
    g = build_graph(_boxing("reuleaux", 1 / 64, shuffle_seed=0))
    assert g.row.shape[0] > 4 * g.k


# Centres on the lattice j/64 with side 1/64 and ε = 1/16: offsets (35, 47)
# and (47, 35) sit exactly on the inclusive threshold (36² + 48² = 60²).
_TIES = [(35, 47), (47, 35), (-35, 47), (47, -35)]
_lattice = st.lists(st.tuples(st.integers(0, 80), st.integers(0, 80)), min_size=1,
                    max_size=30)


@given(_lattice, st.lists(st.tuples(st.integers(0, 29), st.sampled_from(_TIES)),
                          max_size=10),
       st.sampled_from([1, 2, 3, 5, 32]), st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=150, deadline=None)
def test_lattice_tie_runs_match_brute(base, ties, chunk, rnd, deep):
    pts = list(base)
    for i, (a, b) in ties:
        x, y = pts[i % len(base)]
        pts.append((x + a, y + b))
    rnd.shuffle(pts)
    xy = np.array(pts, dtype=np.float64) / 64
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_GRAPH_CHUNK", chunk)
        if deep:
            deep_descent(mp)
        _assert_matches_brute(xy[:, 0].copy(), xy[:, 1].copy(), 1 / 64, 1 / 16)


def test_from_dense_gives_the_same_runs():
    boxing = _boxing("random-disk", 1 / 64, shuffle_seed=1)
    g = build_graph(boxing)
    other = AntipodalGraph.from_dense(graph_dense(g))
    for name in ("row", "lo", "hi", "degrees"):
        assert np.array_equal(getattr(other, name), getattr(g, name))


@pytest.mark.parametrize("matrix,match", [
    (np.zeros((2, 3), np.uint8), "square"),
    (np.zeros(4, np.uint8), "square"),
    ([[0, 2], [2, 0]], "0/1"),
    ([[0, -1], [-1, 0]], "0/1"),
    ([[0, 0.5], [0.5, 0]], "0/1"),
    ([[0, 1, 0], [0, 0, 1], [0, 1, 0]], "symmetric"),
    ([[1, 1], [1, 0]], r"run 0 \(row 0, lo 0, hi 2\).*a loop"),
], ids=["non-square", "flat", "two", "minus-one", "half", "asymmetric", "diagonal"])
def test_from_dense_rejects_what_is_not_a_simple_graph(matrix, match):
    """A weight of 2, -1 or 0.5 once became an unweighted edge, whose λ1
    belongs to a different graph; a diagonal entry is a loop run."""
    with pytest.raises(ValueError, match=match):
        AntipodalGraph.from_dense(matrix)


# (k, row, lo, hi) that break the run contract, and the error each one names
_BAD_RUNS = {
    # the runs are unsorted: neighbors(0) read [0, 1]
    "unsorted-rows": ((3, [1, 0], [0, 1], [1, 2]), r"run 1 \(row 0, lo 1, hi 2\)"),
    "descending-rows": ((4, [2, 0], [0, 2], [1, 3]), r"run 1 \(row 0, lo 2, hi 3\)"),
    # a run past k: degrees [4, 0, 0] and an IndexError in matvec
    "past-k": ((3, [0], [1], [5]), r"run 0 \(row 0, lo 1, hi 5\) for k = 3"),
    "row-negative": ((3, [-1], [1], [2]), r"run 0 \(row -1"),
    "row-k": ((3, [3], [0], [1]), r"run 0 \(row 3"),
    "lo-negative": ((3, [1], [-1], [0]), r"run 0 \(row 1, lo -1"),
    "empty-run": ((3, [0], [2], [2]), r"run 0 \(row 0, lo 2, hi 2\)"),
    "lo-above-hi": ((3, [0], [2], [1]), r"run 0 \(row 0, lo 2, hi 1\)"),
    "loop": ((3, [1], [0], [2]), r"run 0 \(row 1, lo 0, hi 2\)"),
    "overlapping": ((5, [0, 0], [1, 2], [3, 4]), r"run 1 \(row 0, lo 2, hi 4\)"),
    "touching": ((4, [0, 0], [1, 2], [2, 3]), r"run 1 \(row 0, lo 2, hi 3\)"),
    "unsorted-lo": ((5, [0, 0, 1], [3, 1, 2], [4, 2, 4]), r"run 1 \(row 0, lo 1, hi 2\)"),
    "two-bad-runs": ((4, [0, 2, 3], [2, 3, 0], [2, 4, 5]), r"run 0 \(row 0, lo 2, hi 2\)"),
    "lengths": ((3, [0], [1, 2], [2, 3]), "integer arrays of one length"),
    "float": ((3, [0.0], [1.0], [2.0]), "integer arrays of one length"),
    "bool": ((3, [False], [True], [True]), "integer arrays of one length"),
    "two-d": ((3, [[0]], [[1]], [[2]]), "integer arrays of one length"),
    # one-way edges: edge_count 0 with degrees [1, 0], and an eigensolver
    # started from a zero vector
    "one-way": ((2, [0], [1], [2]), "vertex 0 has degree 1 but in-degree 0"),
    "one-way-pair": ((3, [0], [1], [3]), "vertex 0 has degree 2 but in-degree 0"),
    # a directed 3-cycle: every in-degree is its degree, and edge_count read 1
    "three-cycle": ((3, [0, 1, 2], [1, 2, 0], [2, 3, 1]),
                    r"vertex 0 has \(A·x\) 2 but \(Aᵀ·x\) 3"),
}


@pytest.mark.parametrize("name", sorted(_BAD_RUNS))
def test_constructor_rejects_runs_that_break_the_contract(name):
    args, match = _BAD_RUNS[name]
    with pytest.raises(ValueError, match=match):
        AntipodalGraph(*args)


def test_constructor_keeps_valid_runs_read_only_int64():
    """Any integer dtype and empty runs of any dtype pass."""
    g = AntipodalGraph(5, np.array([0, 0, 1, 3, 4], np.uint8), [1, 3, 0, 0, 0], [2, 5, 1, 1, 1])
    assert g.degrees.tolist() == [3, 1, 0, 1, 1] and g.edge_count == 3
    for a in (g.row, g.lo, g.hi):
        assert a.dtype == np.int64 and not a.flags.writeable
    assert g.neighbors(0).tolist() == [1, 3, 4]
    empty = AntipodalGraph(3, [], [], [])
    assert empty.degrees.tolist() == [0, 0, 0] and empty.row.dtype == np.int64


@given(st.sampled_from(sorted(HULLS)), st.sampled_from(EPSILONS),
       st.one_of(st.none(), st.integers(0, 3)), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_join_runs_takes_runs_in_any_order(hull, eps, shuffle_seed, seed):
    """Maximal runs cut into touching pieces and shuffled join back into
    themselves."""
    g = build_graph(_boxing(hull, eps, shuffle_seed))
    rng = np.random.default_rng(seed)
    cut = (rng.random(g.row.shape[0]) < 0.5) & (g.hi - g.lo >= 2)
    mid = g.lo[cut] + rng.integers(1, (g.hi - g.lo)[cut])
    row = np.concatenate([g.row, g.row[cut]])
    lo = np.concatenate([g.lo, mid])
    hi = g.hi.copy()
    hi[cut] = mid
    hi = np.concatenate([hi, g.hi[cut]])
    perm = rng.permutation(row.shape[0])
    joined = kernels.join_runs(row[perm], lo[perm], hi[perm])
    for got, want in zip(joined, (g.row, g.lo, g.hi)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("make", [
    lambda: build_graph(_boxing("circle", 1 / 64)),
    lambda: build_graph(_boxing("random-disk", 1 / 64, 2)),
    lambda: star_graph(6),
    lambda: complete_graph(5),
    lambda: random_graph(40, 0.05, 3),
], ids=["circle", "shuffled-random-disk", "star", "complete", "random"])
def test_neighbors_read_the_row_runs_only(make):
    """neighbors(i) is the CSR slice of row i, and neither it nor the
    common-neighbor counts expand the whole-graph `indices`."""
    g = make()
    rows = [g.neighbors(i) for i in range(g.k)]
    common_neighbors(g, 0, 1)
    common_neighbor_row(g, 0)
    tail_counts(g, 0, np.array([0]))
    assert "indices" not in vars(g)
    indptr, indices = graph_csr(g)
    for i, got in enumerate(rows):
        assert got.dtype == np.int64
        assert np.array_equal(got, indices[indptr[i] : indptr[i + 1]])


@pytest.mark.parametrize("shuffle_seed", [None, 2])
@pytest.mark.parametrize("hull", ["circle", "random-disk"])
def test_matvec_matches_dense_product(hull, shuffle_seed):
    g = build_graph(_boxing(hull, 1 / 64, shuffle_seed))
    dense = graph_dense(g).astype(np.int64)
    rng = np.random.default_rng(3)
    x = rng.integers(-10**6, 10**6, g.k)
    got = g.matvec(x)
    assert got.dtype == np.int64 and np.array_equal(got, dense @ x)
    assert np.array_equal(g.neighborhood_degree_sums, dense @ g.degrees)
    assert np.array_equal(g.matvec(g.degrees > 3), dense @ (g.degrees > 3))
    for x in (rng.standard_normal(g.k), rng.random(g.k)):
        got = g.matvec(x)
        assert got.dtype == np.float64
        assert (np.abs(got - dense @ x) <= 1e-12 * (dense @ np.abs(x))).all()


_tails = {}


@pytest.mark.parametrize("block_elems", [1, 997, 123_457])
@pytest.mark.parametrize("factor", [0.0, 1.0, 3.0, 100.0])
@pytest.mark.parametrize("hull,eps,shuffle_seed", [("random-disk", 1 / 16, None),
                                                   ("random-disk", 1 / 64, None),
                                                   ("reuleaux", 1 / 16, 4),
                                                   ("circle", 1 / 64, 5)])
def test_tail_matches_oracle(monkeypatch, hull, eps, shuffle_seed, factor, block_elems):
    boxing = _boxing(hull, eps, shuffle_seed)
    g = build_graph(boxing)
    key = hull, eps, shuffle_seed, factor
    if key not in _tails:
        _tails[key] = max_scaled_tail_brute(boxing.centers, boxing.side,
                                            boxing.epsilon, graph_dense(g), factor)
    expected = _tails[key]
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block_elems)
    assert max_scaled_tail(boxing, g, factor) == expected
