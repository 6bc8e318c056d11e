"""The tail constant max_{i,s} s * T_s / k, computed by one event sweep over
the runs of A·A and of the near sets, against a vertex-by-vertex oracle,
across block sizes, and against `tail_counts`; each row's far segments
against the dense row of A·A; the near sets as runs against `near_set_W`;
and the arc path's far counts against the events path's, with the inputs
that take each path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (
    AntipodalGraph,
    arc_center_config,
    boundary,
    build_graph,
    circle_config,
    convex_hull,
    discretize_boundary,
    kernels,
    near_set_W,
    random_disk_config,
    reuleaux_boundary_config,
    tail_counts,
)
from antipodal.boundary import BoundaryBoxing, max_scaled_tail, near_runs
from antipodal.geometry import PointSet
from conftest import deep_descent, random_graph, star_graph

from oracles import graph_dense, max_scaled_tail_brute

def thin_ellipse_config(n: int) -> PointSet:
    """A convex curve 1 wide and 0.02 high: boxes on one long side are near
    boxes on the other, so most near sets are two arcs."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return PointSet(np.column_stack([0.5 * np.cos(t), 0.01 * np.sin(t)]))


HULLS = {
    "circle": lambda: convex_hull(circle_config(10_000)),
    "reuleaux": lambda: convex_hull(reuleaux_boundary_config(2000, seed=1)),
    "reuleaux-2": lambda: convex_hull(reuleaux_boundary_config(2000, seed=2)),
    "reuleaux-3": lambda: convex_hull(reuleaux_boundary_config(2000, seed=3)),
    "random-disk": lambda: convex_hull(random_disk_config(2000, seed=1)),
    "thin": lambda: convex_hull(thin_ellipse_config(400)),
}
FACTORS = [-1.0, 0.0, 0.5, 3.0, 100.0]


_BOXINGS = {}


def _boxing(hull, eps):
    if (hull, eps) not in _BOXINGS:
        _BOXINGS[hull, eps] = discretize_boundary(HULLS[hull](), eps)
    return _BOXINGS[hull, eps]


@pytest.fixture(scope="module")
def graphs():
    cache = {}

    def get(hull, eps):
        if (hull, eps) not in cache:
            boxing = _boxing(hull, eps)
            cache[hull, eps] = boxing, build_graph(boxing)
        return cache[hull, eps]

    return get


def _brute(boxing, g, factor):
    return max_scaled_tail_brute(boxing.centers, boxing.side, boxing.epsilon,
                                 graph_dense(g), factor)


@pytest.mark.parametrize("factor", [0.0, 1.0, 3.0, 100.0])
@pytest.mark.parametrize("eps", [1 / 64, 1 / 128])
@pytest.mark.parametrize("hull", ["circle", "reuleaux", "thin"])
def test_matches_vertex_by_vertex_oracle(graphs, hull, eps, factor):
    boxing, g = graphs(hull, eps)
    assert max_scaled_tail(boxing, g, factor) == _brute(boxing, g, factor)


SMALL_BOXING = discretize_boundary(convex_hull(circle_config(400)), 1 / 16)
K = SMALL_BOXING.k

small_graphs = st.one_of(
    st.builds(random_graph, st.just(K), st.sampled_from([0.02, 0.1, 0.3, 0.7]),
              st.integers(0, 10_000)),
    st.just(AntipodalGraph.from_dense(np.zeros((K, K), dtype=np.uint8))),
    st.just(star_graph(K - 1)),
)


@given(small_graphs, st.sampled_from([0.0, 0.5, 1.0, 3.0, 100.0]))
@settings(max_examples=80, deadline=None)
def test_random_graphs_match_oracle(g, factor):
    assert max_scaled_tail(SMALL_BOXING, g, factor) == _brute(SMALL_BOXING, g, factor)


def test_edgeless_and_star_values():
    edgeless = AntipodalGraph.from_dense(np.zeros((K, K), dtype=np.uint8))
    assert max_scaled_tail(SMALL_BOXING, edgeless, 0.0) == 0.0
    # with no near set a leaf's row holds K - 1 ones (the other leaves share
    # the center, and its own degree is 1) and the center's row holds K - 1
    assert max_scaled_tail(SMALL_BOXING, star_graph(K - 1), -1.0) == (K - 1) / K


@pytest.mark.parametrize("block_elems", [1, 997, 123_457])
def test_block_size_does_not_change_the_value(graphs, monkeypatch, block_elems):
    boxing, g = graphs("reuleaux", 1 / 128)
    expected = max_scaled_tail(boxing, g)
    assert expected > 0.0
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block_elems)
    assert max_scaled_tail(boxing, g) == expected


@pytest.mark.parametrize("factor", [1.0, 100.0])
def test_agrees_with_tail_counts(graphs, factor):
    boxing, g = graphs("reuleaux", 1 / 64)
    s = np.arange(1, g.k + 1)
    best = max(
        int((s * tail_counts(g, i, near_set_W(boxing, i, factor))).max())
        for i in range(g.k)
    )
    assert max_scaled_tail(boxing, g, factor) == best / g.k


def test_mismatched_boxing_and_graph_raise(graphs):
    boxing, _ = graphs("circle", 1 / 64)
    _, g = graphs("circle", 1 / 128)
    with pytest.raises(ValueError, match="boxes"):
        max_scaled_tail(boxing, g)


# ---------------------------------------------------------------------------
# near sets as runs
# ---------------------------------------------------------------------------

def _expanded_near_runs(boxing, factor):
    """near_runs(boxing, factor) as one sorted index array per row, after
    checking that the runs are sorted, nonempty and maximal."""
    row, lo, hi = near_runs(boxing, factor)
    assert (lo < hi).all()
    same = row[1:] == row[:-1]
    assert (row[1:] >= row[:-1]).all() and (lo[1:][same] > hi[:-1][same]).all()
    ptr = np.searchsorted(row, np.arange(boxing.k + 1))
    return [kernels.expand_runs(lo[ptr[i]:ptr[i + 1]], hi[ptr[i]:ptr[i + 1]])
            for i in range(boxing.k)]


def _assert_near_runs_match(boxing, factor):
    for i, got in enumerate(_expanded_near_runs(boxing, factor)):
        assert np.array_equal(got, near_set_W(boxing, i, factor)), i


@given(st.sampled_from(sorted(HULLS)), st.sampled_from([1 / 32, 1 / 64, 1 / 128]),
       st.sampled_from(FACTORS))
@settings(max_examples=40, deadline=None)
def test_near_runs_expand_to_near_sets(hull, eps, factor):
    _assert_near_runs_match(_boxing(hull, eps), factor)


def test_thin_hull_has_rows_with_two_near_runs():
    boxing = _boxing("thin", 1 / 64)
    row, _, _ = near_runs(boxing, 3.0)
    assert np.bincount(row, minlength=boxing.k).max() >= 2
    _assert_near_runs_match(boxing, 3.0)


# Box centres on a 1/32 grid with side 1/32 and ε = 1/16: gaps are multiples of
# 1/32 and land exactly on factor·ε for factors 0.5, 1 and 3, and a nudge of
# one ulp puts a coordinate on either side of such a tie.  The boxes are in no
# particular order, so a near set may be any union of runs.
@st.composite
def grid_boxings(draw):
    k = draw(st.integers(3, 48))
    cells = draw(st.lists(st.integers(-8, 8), min_size=2 * k, max_size=2 * k))
    nudges = draw(st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=2 * k, max_size=2 * k))
    c = np.array(cells, dtype=np.float64) / 32.0
    c = np.where(np.array(nudges) > 0, np.nextafter(c, np.inf),
                 np.where(np.array(nudges) < 0, np.nextafter(c, -np.inf), c))
    return BoundaryBoxing(c.reshape(k, 2), 1 / 16)


@given(grid_boxings(), st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0, 100.0]), st.booleans())
@settings(max_examples=150, deadline=None)
def test_near_runs_at_ulp_ties(boxing, factor, deep):
    """Also down every level from one top node (`conftest.deep_descent`)."""
    with pytest.MonkeyPatch.context() as mp:
        if deep:
            deep_descent(mp)
        _assert_near_runs_match(boxing, factor)


@given(grid_boxings(), st.sampled_from([0.1, 0.3, 0.7]), st.integers(0, 10_000),
       st.sampled_from([0.0, 0.5, 1.0, 3.0]))
@settings(max_examples=80, deadline=None)
def test_random_graphs_at_ulp_ties_match_oracle(boxing, p, seed, factor):
    g = random_graph(boxing.k, p, seed)
    assert max_scaled_tail(boxing, g, factor) == _brute(boxing, g, factor)


def _far_segment_rows(boxing, g, factor, block_elems):
    """Each row's far segments as (count, length) arrays, recorded from the
    blocks that `max_scaled_tail` cuts at the given `_BLOCK_ELEMS`, after
    checking that the blocks tile the rows in order."""
    calls = []
    sweep = boundary._far_segments

    def spy(G, near, i0, i1):
        out = sweep(G, near, i0, i1)
        calls.append((i0, i1) + out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK_ELEMS", block_elems)
        mp.setattr(boundary, "_far_segments", spy)
        max_scaled_tail(boxing, g, factor)
    assert [c[0] for c in calls] == [0] + [c[1] for c in calls[:-1]]
    assert calls[-1][1] == g.k
    rows = [[] for _ in range(g.k)]
    for i0, i1, row, count, length in calls:
        assert ((row >= 0) & (row < i1 - i0)).all()
        assert (count > 0).all() and (length > 0).all()
        for i in range(i0, i1):
            rows[i].append((count[row == i - i0], length[row == i - i0]))
    return [tuple(np.concatenate(part) for part in zip(*r)) for r in rows]


# the random, star and edgeless graphs on the small circle, and random graphs
# on the lattice boxes with ulp ties
tail_inputs = st.one_of(
    st.tuples(st.just(SMALL_BOXING), small_graphs),
    grid_boxings().flatmap(lambda boxing: st.tuples(
        st.just(boxing),
        st.builds(random_graph, st.just(boxing.k), st.sampled_from([0.1, 0.3, 0.7]),
                  st.integers(0, 10_000)))),
)


@given(tail_inputs, st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0, 100.0]),
       st.sampled_from([1, 997, kernels._BLOCK_ELEMS]))
@settings(max_examples=100, deadline=None)
def test_far_segments_match_dense_rows(inputs, factor, block_elems):
    """Each row's far segments give, count by count, the number of j outside
    W whose entry of A·A is that count, which the maximum alone can hide."""
    boxing, g = inputs
    k = g.k
    a = graph_dense(g).astype(np.int64)
    counts = a @ a
    for i, (count, length) in enumerate(_far_segment_rows(boxing, g, factor, block_elems)):
        far = np.ones(k, bool)
        far[near_set_W(boxing, i, factor)] = False
        vals = counts[i][far]
        expected = np.bincount(vals[vals > 0], minlength=k + 1)
        got = np.bincount(count, weights=length, minlength=k + 1)
        assert np.array_equal(got, expected), i


def test_near_runs_below_the_normal_range():
    # r² = (2.5e-162)² and each gap² round to the same subnormal, so the
    # squared bounds would call two near chunks far
    eps = 2e-170
    centers = np.zeros((32, 2))
    centers[16:] = 1.7e-162 + eps / 2
    boxing = BoundaryBoxing(centers, eps)
    assert near_set_W(boxing, 0, 2.5e-162 / eps).size == 32
    _assert_near_runs_match(boxing, 2.5e-162 / eps)


# ---------------------------------------------------------------------------
# the arc path
# ---------------------------------------------------------------------------

ARC_HULLS = ["circle", "reuleaux", "reuleaux-2", "reuleaux-3", "random-disk"]
ARC_EPSILONS = [1 / 64, 1 / 128, 1 / 256, 1 / 512, 1 / 1024]


def _merged(row, count, length, k):
    """Far segments as sorted (row, count) keys and the total length of each:
    a row's far counts, each as many times as the columns that hold it."""
    key, inverse = np.unique(row * (k + 1) + count, return_inverse=True)
    return key, np.bincount(inverse, length)


def _sweep_paths(boxing, g, factor, block_elems=kernels._BLOCK_ELEMS):
    """The value of `max_scaled_tail`, whether each of its blocks took the
    arc path, and, for each arc block, its merged segments from the arc
    path and from the events path over the same rows."""
    paths, pairs = [], []
    sweep = boundary._far_segments

    def spy(G, near, i0, i1):
        out = sweep(G, near, i0, i1)
        paths.append(near[4] is not None)
        if near[4] is not None:
            pairs.append((_merged(*out, G.k), _merged(*sweep(G, near[:4] + (None,), i0, i1), G.k)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK_ELEMS", block_elems)
        mp.setattr(boundary, "_far_segments", spy)
        value = max_scaled_tail(boxing, g, factor)
    return value, paths, pairs


# (hull, ε) -> whether `max_scaled_tail` takes the arc path, at every factor
ARC_PATHS = {
    **{("circle", eps): True for eps in ARC_EPSILONS},
    **{("reuleaux", eps): True for eps in ARC_EPSILONS},
    **{("reuleaux-3", eps): True for eps in ARC_EPSILONS},
    **{("reuleaux-2", eps): True for eps in ARC_EPSILONS[:-1]},
    # a row of three runs: the hull's 2,000 vertices make some antipodal
    # sets two arcs
    ("reuleaux-2", 1 / 1024): False,
    ("random-disk", 1 / 64): True,
    **{("random-disk", eps): False for eps in ARC_EPSILONS[1:]},
}
_ARC_VALUES = {}


# small blocks are kept to k <= 1609, block size 1 (a block per row) to
# k <= 805
@pytest.mark.parametrize("hull, eps, block_elems", [
    (hull, eps, block_elems) for hull in ARC_HULLS for eps in ARC_EPSILONS
    for block_elems in [1, 997, kernels._BLOCK_ELEMS]
    if block_elems == kernels._BLOCK_ELEMS or eps >= (1 / 128 if block_elems == 1 else 1 / 256)])
def test_arc_path_matches_events_path(graphs, hull, eps, block_elems):
    """The arc path is taken where `ARC_PATHS` says, at every factor; row by
    row, its far counts are the events path's, and the value does not depend
    on the block size."""
    boxing, g = graphs(hull, eps)
    for factor in FACTORS:
        value, paths, pairs = _sweep_paths(boxing, g, factor, block_elems)
        assert paths == [ARC_PATHS[hull, eps]] * len(paths)
        assert len(pairs) == (len(paths) if ARC_PATHS[hull, eps] else 0)
        for (key, length), (want_key, want_length) in pairs:
            assert np.array_equal(key, want_key) and np.array_equal(length, want_length)
        assert _ARC_VALUES.setdefault((hull, eps, factor), value) == value


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("eps", [1 / 64, 1 / 128])
@pytest.mark.parametrize("hull", ARC_HULLS)
def test_arc_path_matches_vertex_by_vertex_oracle(graphs, hull, eps, factor):
    boxing, g = graphs(hull, eps)
    assert max_scaled_tail(boxing, g, factor) == _brute(boxing, g, factor)


def circulant_graph(k: int, gap: int) -> AntipodalGraph:
    """i ~ j iff gap <= (j - i) mod k <= k - gap: row i is one cyclic arc of
    k - 2 gap + 1 boxes, so for a small gap the neighbors' arcs run past the
    end of row i's window and close again inside it."""
    d = (np.arange(k)[None, :] - np.arange(k)[:, None]) % k
    return AntipodalGraph.from_dense(((gap <= d) & (d <= k - gap)).astype(np.uint8))


@pytest.mark.parametrize("block_elems", [1, 997, kernels._BLOCK_ELEMS])
@pytest.mark.parametrize("gap", [1, 2, 5, K // 4, K // 2])
def test_arc_path_on_long_arcs(gap, block_elems):
    """Complete (gap 1) and circulant graphs on the small circle's boxes take
    the arc path; their far counts are the events path's and the value is the
    oracle's."""
    g = circulant_graph(K, gap)
    for factor in FACTORS:
        value, paths, pairs = _sweep_paths(SMALL_BOXING, g, factor, block_elems)
        assert paths and all(paths) and len(pairs) == len(paths)
        for (key, length), (want_key, want_length) in pairs:
            assert np.array_equal(key, want_key) and np.array_equal(length, want_length)
        assert value == _brute(SMALL_BOXING, g, factor)


@pytest.mark.parametrize("eps", [1 / 64, 1 / 256, 1 / 1024])
def test_arc_center_hulls_take_the_events_path(eps):
    """Most boxes have no antipodal box (empty rows), and a few rows hold
    three runs."""
    boxing = discretize_boundary(convex_hull(arc_center_config(2000, eps)), eps)
    g = build_graph(boxing)
    _, paths, _ = _sweep_paths(boxing, g, 100.0)
    assert paths and not any(paths)
