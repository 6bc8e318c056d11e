import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (
    IsolatedVertexError,
    build_graph,
    circle_config,
    common_neighbors,
    convex_hull,
    discretize_boundary,
    near_set_W,
    neighborhood_degree_sum,
    tail_counts,
)
from antipodal.boundary import (
    BoundaryBoxing,
    _box_gap,
    common_neighbor_row,
    max_scaled_tail,
    near_runs,
)
from antipodal.geometry import PointSet, distance_to_boundary
from conftest import complete_graph, random_graph, star_graph

from oracles import (
    box_graph_brute,
    box_max_distance_brute,
    common_neighbors_brute,
    graph_dense,
)


@pytest.fixture(scope="module")
def circle_hull():
    return convex_hull(circle_config(10_000))


@pytest.fixture(scope="module")
def circle64(circle_hull):
    boxing = discretize_boundary(circle_hull, 1 / 64)
    return boxing, build_graph(boxing)


# ---------------------------------------------------------------------------
# discretize_boundary
# ---------------------------------------------------------------------------

def test_box_count_circle(circle_hull):
    boxing = discretize_boundary(circle_hull, 0.1)
    assert abs(boxing.k - 63) <= 1  # ceil(pi / 0.05), hull slightly under pi
    assert boxing.k == math.ceil(circle_hull.perimeter / 0.05)


def test_box_count_square():
    h = math.sqrt(2) / 4  # diagonal-1 square, perimeter 2*sqrt(2)
    hull = convex_hull(PointSet.from_points([(h, h), (-h, h), (-h, -h), (h, -h)]))
    boxing = discretize_boundary(hull, 0.1)
    assert boxing.k == 57


def test_box_centers_on_boundary(circle_hull):
    boxing = discretize_boundary(circle_hull, 0.05)
    d = distance_to_boundary(circle_hull, boxing.centers)
    assert float(d.max()) < 1e-12


def test_box_count_order(circle_hull):
    for eps in (0.1, 0.05, 1 / 64):
        boxing = discretize_boundary(circle_hull, eps)
        assert boxing.k <= 2 * circle_hull.perimeter / eps + 1


@pytest.mark.parametrize("epsilon", [math.nan, -0.1, 0.7])
def test_boxing_rejects_epsilon_outside_the_open_half_interval(epsilon):
    """A boxing is built only at an epsilon in (0, 1/2), as
    `discretize_boundary` requires.  On these 202 boxes NaN once gave an
    empty graph, on which `max_scaled_tail` raised "near-set factor must be a
    number, got 100.0", -0.1 an empty graph and a tail of 0.0, and 0.7 a
    graph of 40,602 entries."""
    centers = discretize_boundary(convex_hull(circle_config(400)), 1 / 32).centers
    with pytest.raises(ValueError, match="epsilon must lie in"):
        BoundaryBoxing(centers, epsilon)


@pytest.mark.parametrize("centers,match", [
    (np.zeros((5, 3)), r"\(n, 2\) array"),
    (np.zeros(6), r"\(n, 2\) array"),
    (np.array([[0.0, 0.0], [0.5, math.nan], [1.0, 0.0]]), "finite"),
    (np.zeros((2, 2)), "at least 3 boxes"),
], ids=["three-columns", "flat", "nan", "two-boxes"])
def test_boxing_rejects_centers_that_are_not_three_finite_points(centers, match):
    """The first two were taken as 5 boxes (the third column ignored) and as
    6, and a NaN centre's box silently got degree 0."""
    with pytest.raises(ValueError, match=match):
        BoundaryBoxing(centers, 0.1)


def test_discretize_rejects_coarse_epsilon():
    tri = convex_hull(
        PointSet.from_points([(0, 0), (0.5, 0), (0.25, 0.4)])
    )
    with pytest.raises(ValueError):
        discretize_boundary(tri, tri.perimeter / 2.9)


# ---------------------------------------------------------------------------
# box distances
# ---------------------------------------------------------------------------

@given(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1),
    st.floats(0.001, 0.2), st.floats(0.001, 0.2),
)
@settings(max_examples=80, deadline=None)
def test_box_distances_vs_corner_oracle(ax, ay, bx, by, sa, sb):
    oracle = box_max_distance_brute((ax, ay, sa), (bx, by, sb))
    # closed form used by the adjacency kernel
    h = (sa + sb) / 2
    closed = math.hypot(abs(ax - bx) + h, abs(ay - by) + h)
    assert closed == pytest.approx(oracle, abs=1e-12)
    # the near sets' min distance
    assert _box_gap(abs(ax - bx), abs(ay - by), h) <= closed


# ---------------------------------------------------------------------------
# build_graph
# ---------------------------------------------------------------------------

def test_graph_no_self_loops(circle64):
    _, g = circle64
    assert np.diagonal(graph_dense(g)).sum() == 0


def test_graph_matches_brute_force_oracle(circle_hull):
    boxing = discretize_boundary(circle_hull, 1 / 32)
    g = build_graph(boxing)
    adj = box_graph_brute([tuple(c) for c in boxing.centers], boxing.side, 1 / 32)
    for i in range(boxing.k):
        assert set(g.neighbors(i).tolist()) == adj[i]


def test_graph_circle_degrees_regularish(circle64):
    _, g = circle64
    assert int(g.degrees.min()) >= 1
    med = float(np.median(g.degrees))
    assert float(g.degrees.max()) <= 3 * med
    assert float(g.degrees.min()) >= med / 3


def test_opposite_boxes_adjacent(circle64):
    boxing, g = circle64
    # two boxes centered at hull points at distance ~1 must be adjacent
    i = 0
    j = int(np.argmax(np.hypot(*(boxing.centers - boxing.centers[0]).T)))
    assert j in g.neighbors(i)


def test_graph_degree_arc_relation(circle64):
    boxing, g = circle64
    eps = boxing.epsilon
    for i in range(0, g.k, 37):
        nbrs = np.sort(g.neighbors(i))
        gaps = np.diff(np.concatenate([nbrs, [nbrs[0] + g.k]]))
        span_boxes = g.k - int(gaps.max()) + 1  # circular span of the window
        arc_len = span_boxes * boxing.side
        ratio = g.degrees[i] * eps / arc_len
        assert 0.5 <= ratio <= 2.0 + 1e-9


def test_dense_and_csr_agree(circle64):
    _, g = circle64
    dense = graph_dense(g)
    assert dense.dtype == np.uint8 and dense.shape == (g.k, g.k)
    assert np.array_equal(np.asarray(dense.sum(axis=1), dtype=np.int64), g.degrees)
    for i in (0, 5, 101):
        row = common_neighbor_row(g, i)
        dense_row = (dense.astype(np.int64) @ dense[i].astype(np.int64))
        assert np.array_equal(row, dense_row)


def test_graph_edge_count_consistent(circle64):
    _, g = circle64
    assert 2 * g.edge_count == int(g.degrees.sum())


# ---------------------------------------------------------------------------
# near-set W
# ---------------------------------------------------------------------------

def test_w_contains_self(circle64):
    boxing, _ = circle64
    for i in (0, 17, 200):
        assert i in near_set_W(boxing, i)


def test_w_symmetric(circle64):
    boxing, _ = circle64
    sets = [set(near_set_W(boxing, i).tolist()) for i in range(0, boxing.k, 29)]
    idxs = list(range(0, boxing.k, 29))
    for a, i in zip(sets, idxs):
        for b, j in zip(sets, idxs):
            assert (j in a) == (i in b)


def test_w_size_bounded(circle_hull):
    for eps in (1 / 64, 1 / 128, 1 / 256):
        boxing = discretize_boundary(circle_hull, eps)
        w = near_set_W(boxing, 0)
        assert w.size <= 1000
        assert w.size * eps <= 7.0  # frozen calibration: 6.3, 3.6, 1.6


# ---------------------------------------------------------------------------
# common neighborhoods and tails
# ---------------------------------------------------------------------------

def test_common_neighbors_edge_cases():
    g = star_graph(6)
    assert common_neighbors(g, 1, 2) == 1  # two leaves share the center
    assert common_neighbors(g, 0, 1) == 0
    gk = complete_graph(7)
    for i, j in [(0, 1), (2, 5)]:
        assert common_neighbors(gk, i, j) == 5
    with pytest.raises(ValueError):
        common_neighbors(g, 3, 3)


VERTEX_CALLS = {
    "neighbors": lambda boxing, g, i: g.neighbors(i),
    "common_neighbors": lambda boxing, g, i: common_neighbors(g, i, 3),
    "common_neighbors_second": lambda boxing, g, i: common_neighbors(g, 3, i),
    "common_neighbor_row": lambda boxing, g, i: common_neighbor_row(g, i),
    "tail_counts": lambda boxing, g, i: tail_counts(g, i, np.empty(0, np.int64)),
    "neighborhood_degree_sum": lambda boxing, g, i: neighborhood_degree_sum(g, i),
    "near_set_W": lambda boxing, g, i: near_set_W(boxing, i),
}


@pytest.mark.parametrize("name", sorted(VERTEX_CALLS))
def test_vertex_out_of_range_raises(name):
    """-1 and k are not vertices: each raises IndexError naming i and k
    instead of wrapping to vertex k - 1 (or reading an empty row)."""
    boxing = discretize_boundary(convex_hull(circle_config(400)), 1 / 32)
    g = build_graph(boxing)
    assert g.k == 202
    call = VERTEX_CALLS[name]
    for i in (-1, g.k):
        with pytest.raises(IndexError, match=rf"vertex {i} .* 202 vertices"):
            call(boxing, g, i)
    call(boxing, g, g.k - 1)
    assert common_neighbors(g, g.k - 1, 3) == 38


@pytest.fixture(scope="module")
def circle400():
    boxing = discretize_boundary(convex_hull(circle_config(400)), 1 / 32)
    return boxing, build_graph(boxing)


@pytest.mark.parametrize("w", [-1, 202])
def test_tail_counts_rejects_a_w_entry_out_of_range(circle400, w):
    """-1 would wrap to vertex k - 1 (a sum of 1,724 where an empty W gives
    1,766) and k would raise NumPy's bare IndexError: both name w and k."""
    boxing, g = circle400
    assert g.k == 202
    assert int(tail_counts(g, 0, []).sum()) == 1766
    assert int(tail_counts(g, 0, [201]).sum()) == 1724
    with pytest.raises(IndexError, match=rf"W entry {w} .* 202 vertices"):
        tail_counts(g, 0, [3, w])


@pytest.mark.parametrize("W", [[0.5], np.array([3.0]), np.array([True, False])])
def test_tail_counts_rejects_non_integer_w(circle400, W):
    """0.5 would truncate to vertex 0, and a boolean mask would read as
    vertices 0 and 1."""
    boxing, g = circle400
    with pytest.raises(ValueError, match="integer vertex ids"):
        tail_counts(g, 0, W)


def test_nan_factor_raises_and_negative_factor_empties_w(circle400):
    """A NaN factor once read as an empty W, below even vertex i itself, and
    `max_scaled_tail` returned its value at factor -1."""
    boxing, g = circle400
    calls = [lambda f: near_set_W(boxing, 0, f), lambda f: near_runs(boxing, f),
             lambda f: max_scaled_tail(boxing, g, f)]
    for call in calls:
        with pytest.raises(ValueError, match="factor must be a number, got nan"):
            call(math.nan)
    assert near_set_W(boxing, 0, -1.0).size == 0
    assert all(r.size == 0 for r in near_runs(boxing, -1.0))
    assert max_scaled_tail(boxing, g, -1.0) == 4.574257425742574


def test_common_neighbors_matches_naive_oracle(circle64):
    boxing, g = circle64
    adj = [set(g.neighbors(i).tolist()) for i in range(g.k)]
    i = 0
    j = g.k // 2  # diametrically opposite box
    assert common_neighbors(g, i, j) == common_neighbors_brute(adj, i, j)
    for j2 in range(1, g.k, 47):
        assert common_neighbors(g, 0, j2) == common_neighbors_brute(adj, 0, j2)


def test_tail_counts_properties(circle64):
    boxing, g = circle64
    for i in (0, 31):
        W = near_set_W(boxing, i)
        ts = tail_counts(g, i, W)
        assert ts.shape == (g.k,)
        assert (np.diff(ts) <= 0).all()  # nonincreasing in s
        mask = np.ones(g.k, dtype=bool)
        mask[W] = False
        direct = int(common_neighbor_row(g, i)[mask].sum())
        assert int(ts.sum()) == direct  # layer-cake identity


def test_tail_zero_on_circle_at_default_factor(circle64):
    # with the 100*eps near-set every common-neighbor pair is inside W
    boxing, g = circle64
    assert max_scaled_tail(boxing, g) == 0.0


def test_tail_nonzero_with_smaller_factor(circle64):
    boxing, g = circle64
    assert max_scaled_tail(boxing, g, factor=1.0) > 0.0


def test_split_bound_exact(circle64):
    boxing, g = circle64
    for i in (3, 99):
        W = near_set_W(boxing, i)
        lhs = neighborhood_degree_sum(g, i)
        mask = np.ones(g.k, dtype=bool)
        mask[W] = False
        far_sum = int(common_neighbor_row(g, i)[mask].sum())
        assert lhs <= int(W.size) * int(g.degrees[i]) + far_sum


# ---------------------------------------------------------------------------
# neighborhood degree sums
# ---------------------------------------------------------------------------

def test_neighborhood_degree_sum_star():
    g = star_graph(9)
    assert neighborhood_degree_sum(g, 0) == 9  # nine degree-1 leaves
    assert neighborhood_degree_sum(g, 4) == 9  # the center's degree


def test_neighborhood_degree_sum_isolated_vertex_error():
    m = np.zeros((4, 4), dtype=np.uint8)
    m[0, 1] = m[1, 0] = 1
    from antipodal import AntipodalGraph

    g = AntipodalGraph.from_dense(m)
    with pytest.raises(IsolatedVertexError):
        neighborhood_degree_sum(g, 2)


def test_double_counting_identity(circle64):
    _, g = circle64
    for i in (0, 57, 200):
        direct = neighborhood_degree_sum(g, i)
        via_commons = int(common_neighbor_row(g, i).sum())
        assert direct == via_commons


def test_double_counting_identity_random_graphs():
    for seed in range(5):
        g = random_graph(30, 0.3, seed)
        for i in range(g.k):
            if g.degrees[i] == 0:
                continue
            assert neighborhood_degree_sum(g, i) == int(common_neighbor_row(g, i).sum())


def test_max_degree_sum_tracks_k_log_k(circle_hull):
    from antipodal.boundary import max_neighborhood_degree_sum

    scaled = []
    for eps in (1 / 64, 1 / 128, 1 / 256, 1 / 512, 1 / 1024):
        g = build_graph(discretize_boundary(circle_hull, eps))
        scaled.append(max_neighborhood_degree_sum(g) / (g.k * math.log(g.k)))
    for a, b in zip(scaled, scaled[1:]):
        assert max(a, b) / min(a, b) < 2.0
