"""The pruned box adjacency is exact: its CSR equals the full k x k
evaluation of the same expression entry for entry, on boundary boxes in
arc-length order, on the same boxes shuffled, at exact ties with the
threshold, at every leaf size, and down every level of the descent.  The
chord bound that decides node pairs whole holds on both sides for every pair,
and is tight enough that fewer box pairs are evaluated than the graph has
entries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (
    arc_center_config,
    build_graph,
    circle_config,
    convex_hull,
    discretize_boundary,
    kernels,
    random_disk_config,
    reuleaux_boundary_config,
)

from antipodal.boundary import near_runs, near_set_W
from conftest import deep_descent
from oracles import box_adjacency_brute, pair_counts_brute

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


def _with_chunk(monkeypatch, chunk, deep=False):
    """Cut the box graph into leaves of `chunk` boxes, under the deep block
    budget (`conftest.deep_descent`) if `deep`."""
    monkeypatch.setattr(kernels, "_GRAPH_CHUNK", chunk)
    if deep:
        deep_descent(monkeypatch)


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


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 7, 12, 32])
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
       st.sampled_from([1, 2, 3, 5, 8, 12, 32]), st.randoms(use_true_random=False),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_lattice_ties_match_brute(base, ties, chunk, rnd, deep):
    pts = list(base)
    for i, (a, b) in ties:
        x, y = pts[i % len(base)]
        pts.append((x + a, y + b))
    rnd.shuffle(pts)
    xy = np.array(pts, dtype=np.float64) / 64
    with pytest.MonkeyPatch.context() as mp:
        _with_chunk(mp, chunk, deep)
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
       st.floats(0.0, 1.0), st.floats(0.01, 0.49), st.sampled_from([1, 2, 5, 32]),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_any_side_matches_brute(pts, side, eps, chunk, deep):
    # sides near 1 make every pair an edge, and i ~ i would be one too
    xy = np.array(pts, dtype=np.float64)
    with pytest.MonkeyPatch.context() as mp:
        _with_chunk(mp, chunk, deep)
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
    """The box graph's leaves, the box pairs evaluated together, hold
    `_GRAPH_CHUNK` boxes at any block budget; a leaf size taken from the
    budget gave these 403 boxes 2."""
    boxing = discretize_boundary(convex_hull(circle_config(600)), 1 / 64)
    assert boxing.k == 403
    sizes = []
    chunk_gaps = kernels._chunk_gaps

    def spy(px, py, i0, j0, size):
        sizes.append(size)
        return chunk_gaps(px, py, i0, j0, size)

    monkeypatch.setattr(kernels, "_chunk_gaps", spy)
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", 1000)
    _assert_matches_brute(boxing.centers[:, 0].copy(), boxing.centers[:, 1].copy(),
                          boxing.side, boxing.epsilon)
    assert sizes and set(sizes) == {kernels._GRAPH_CHUNK} == {8}


@pytest.mark.parametrize("k", [1, 2, 3, 31])
def test_fewer_boxes_than_a_chunk(k):
    ang = np.linspace(0.0, 2 * np.pi, k, endpoint=False)
    cx, cy = 0.5 * np.cos(ang), 0.5 * np.sin(ang)
    _assert_matches_brute(cx, cy, 0.05, 0.1)


def _assert_graph_bounds_hold(cx, cy, side, eps, size=32, bounds=None):
    """Every computed (|dx| + s)**2 + (|dy| + s)**2 of a pair of centres lies
    inside `kernels._chord_bounds` of their two chunks of `size` consecutive
    centres, both sides; `bounds` stands in for `_chord_bounds`."""
    starts = np.arange(0, cx.shape[0], size)
    chunks = kernels._chord_chunks(cx, cy, size, side, (1.0 - eps) * (1.0 - eps))
    assert chunks is not None
    m = starts.shape[0]
    a, b = np.divmod(np.arange(m * m), m)
    lo, hi = (bounds or kernels._chord_bounds)(chunks, side, a, b)
    group = np.arange(cx.shape[0]) // size
    pair = group[:, None] * m + group
    ax = np.abs(cx[:, None] - cx) + side
    ay = np.abs(cy[:, None] - cy) + side
    reach2 = ax * ax + ay * ay
    assert (lo[pair] <= reach2).all()
    assert (reach2 <= hi[pair]).all()


def _lattice_tie_set(seed):
    """Centres on the lattice j/64 with offsets that tie the threshold at
    side 1/64 and ε = 1/16 (see `_TIES`), shuffled."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 81, (60, 2))
    ties = base[rng.integers(0, 60, 40)] + np.array(_TIES)[rng.integers(0, 4, 40)]
    return rng.permutation(np.vstack([base, ties])) / 64


@pytest.mark.parametrize("size", [1, 5, 8, 32])
@pytest.mark.parametrize("eps", [1 / 64, 1 / 128])
@pytest.mark.parametrize("hull", ["circle", "reuleaux", "random-disk"])
def test_graph_bounds_hold_every_pair(boxings, hull, eps, size):
    boxing = boxings(hull, eps)
    perm = np.random.default_rng(3).permutation(boxing.k)
    for order in (np.arange(boxing.k), perm):
        _assert_graph_bounds_hold(boxing.centers[order, 0].copy(),
                                  boxing.centers[order, 1].copy(), boxing.side, eps, size)


@pytest.mark.parametrize("size", [1, 2, 5, 32])
def test_graph_bounds_hold_at_lattice_ties(size):
    for seed in range(4):
        xy = _lattice_tie_set(seed)
        _assert_graph_bounds_hold(xy[:, 0].copy(), xy[:, 1].copy(), 1 / 64, 1 / 16, size)


def _antipodal_chunks():
    """Eight 32-box chunks (nodes of level 1) of the 10 000-point circle hull
    at ε = 1/1024 and the eight chunks across from them, where the bound is
    second-order tight."""
    boxing = discretize_boundary(convex_hull(circle_config(10_000)), 1 / 1024)
    half = boxing.k // 2 // 32 * 32
    pick = np.r_[0:256, half : half + 256]
    return boxing.centers[pick, 0].copy(), boxing.centers[pick, 1].copy(), boxing.side, 1 / 1024


def test_graph_bounds_hold_across_antipodal_chunks():
    _assert_graph_bounds_hold(*_antipodal_chunks())


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_shrunk_graph_bound_fails(side):
    """The check above sees either side moved 1e-3 inward: across the
    circle's antipodal 32-box chunks both sides are that tight."""
    def shrunk(*args):
        lo, hi = kernels._chord_bounds(*args)
        return (lo * (1.0 + 1e-3), hi) if side == "lower" else (lo, hi * (1.0 - 1e-3))

    with pytest.raises(AssertionError):
        _assert_graph_bounds_hold(*_antipodal_chunks(), bounds=shrunk)


def _stand_down_sets():
    ang = np.linspace(0.0, 2.0 * np.pi, 90, endpoint=False)
    ring = 0.5 * np.column_stack([np.cos(ang), np.sin(ang)])
    # spans the bound stands down at, and tiny ones it still takes
    for span in (1e-300, 1e-150, 1e-8, 30.0, 1e150, 1e300):
        yield f"ring-{span:g}", span * ring, 0.05, 0.1
    yield "offset-1e12", ring + 1e12, 0.05, 0.1
    yield "coincident", np.full((70, 2), 0.3), 0.05, 0.1
    yield "coincident-chunks", np.repeat(ring[::9], 32, axis=0), 0.05, 0.1
    yield "huge-side", ring, 1e200, 0.1
    yield "eps-near-1", 1e-200 * ring, 1e-201, 1.0 - 1e-250


@pytest.mark.parametrize("name, xy, side, eps", list(_stand_down_sets()),
                         ids=[s[0] for s in _stand_down_sets()])
def test_graph_bound_stand_down_matches_brute(name, xy, side, eps):
    """Where the chord bound does not hold (huge spans or sides, thr2 out of
    range) the box bound works alone; at tiny spans and coincident centres
    (whole chunks of them too) it still holds.  Either way the runs are
    exact."""
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_matches_brute(xy[:, 0].copy(), xy[:, 1].copy(), side, eps)


def _evaluated_per_entry(monkeypatch, hull, eps):
    """Box pairs that `build_graph` on `hull` at `eps` evaluates, and the
    graph's entries (a spy on `kernels._chunk_gaps`)."""
    evaluated = []
    chunk_gaps = kernels._chunk_gaps

    def spy(px, py, i0, j0, size):
        evaluated.append(i0.shape[0] * size * size)
        return chunk_gaps(px, py, i0, j0, size)

    monkeypatch.setattr(kernels, "_chunk_gaps", spy)
    G = build_graph(discretize_boundary(hull, eps))
    return sum(evaluated), int(G.degrees.sum())


def test_circle_graph_evaluates_fewer_pairs_than_entries(monkeypatch):
    """With the chord bound at every level down to the 8-box leaves,
    `build_graph` on the 10 000-point circle hull at ε = 1/1024 evaluates
    0.13 box pairs per entry of the graph; the chord bound on 32-box chunks
    alone evaluated 0.66, and the box bound alone 2.56."""
    evaluated, nnz = _evaluated_per_entry(monkeypatch, convex_hull(circle_config(10_000)),
                                          1 / 1024)
    assert nnz == 1_490_370
    assert 0 < evaluated < nnz


def test_reuleaux_graph_evaluates_fewer_pairs_than_entries(monkeypatch):
    """On the 10 000-point Reuleaux hull at ε = 1/1024 the 32-box nodes that
    straddle the three corners stay undecided against most of the opposite
    arc; split into 8-box leaves, only those at the corners are evaluated:
    0.65 box pairs per entry, where 32-box leaves took 2.74."""
    evaluated, nnz = _evaluated_per_entry(
        monkeypatch, convex_hull(reuleaux_boundary_config(10_000, 1)), 1 / 1024)
    assert nnz == 310_550
    assert 0 < evaluated < nnz


def _near_run_rows(boxing, factor):
    """Each vertex's near set, expanded from `near_runs`."""
    row, lo, hi = near_runs(boxing, factor)
    ptr = np.searchsorted(row, np.arange(boxing.k + 1))
    return [kernels.expand_runs(lo[ptr[i] : ptr[i + 1]], hi[ptr[i] : ptr[i + 1]])
            for i in range(boxing.k)]


def _relation(name):
    """(output, oracle) of a relation on an input that descends at least
    three levels under the deep block budget."""
    if name == "adjacency":
        boxing = discretize_boundary(convex_hull(circle_config(2000)), 1 / 256)
        cx = boxing.centers[:, 0].copy()
        cy = boxing.centers[:, 1].copy()
        return (lambda: kernels.box_adjacency_csr(cx, cy, boxing.side, boxing.epsilon),
                lambda: box_adjacency_brute(cx, cy, boxing.side, boxing.epsilon))
    if name == "near-runs":
        boxing = discretize_boundary(convex_hull(circle_config(600)), 1 / 64)
        return (lambda: _near_run_rows(boxing, 20.0),
                lambda: [near_set_W(boxing, i, 20.0) for i in range(boxing.k)])
    # 64 points on each of five sites, 1/16, 15/16 or 1 apart on an axis
    points = [site for site in [(0.0, 0.0), (1 / 16, 0.0), (0.5, 0.5), (15 / 16, 0.0),
                                (1.0, 0.0)] for _ in range(64)]
    epsilons = (0.3, 0.08, 0.02)
    return (lambda: kernels.pair_grid_counts(np.array(points), epsilons),
            lambda: [pair_counts_brute(points, e) for e in epsilons])


def _same(got, want):
    return len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


# a pair that counts for no threshold adds nothing when taken whole, so the
# counts flip "every" only
@pytest.mark.parametrize("relation, flip", [
    ("adjacency", "none"), ("adjacency", "every"), ("near-runs", "none"),
    ("near-runs", "every"), ("pair-counts", "every"),
], ids=["none", "every", "near-runs-none", "near-runs-every", "pair-counts-every"])
def test_flipped_sub_chunk_verdict_is_caught(monkeypatch, relation, flip):
    """Mutation gate for the descent: `decide` wrapped to flip its first
    settled verdict off the diagonal at a level above the leaves ("none" to
    "every", or back) gives an output that differs from the relation's
    oracle, so a wrong node-pair decision cannot pass the comparisons with
    brute force."""
    output, oracle = _relation(relation)
    want = oracle()
    flipped = []
    descend = kernels._descend

    def spy(levels, decide, whole, leaf, width, upper=False):
        def mutant(level, a, b):
            none, every = decide(level, a, b)
            if level >= 1 and not flipped:
                settled = np.flatnonzero((none if flip == "none" else every) & (a != b))
                if settled.size:
                    p = settled[0]
                    none[p], every[p] = every[p], none[p]
                    flipped.append(level)
            return none, every

        return descend(levels, mutant, whole, leaf, width, upper)

    deep_descent(monkeypatch)
    assert _same(output(), want)
    monkeypatch.setattr(kernels, "_descend", spy)
    got = output()
    assert flipped
    assert not _same(got, want)


@pytest.mark.parametrize("block_elems", [1, 997, kernels._BLOCK_ELEMS])
def test_leaf_layout_runs_match_the_oracles(monkeypatch, block_elems):
    """With the pair axis innermost in the leaf blocks, the adjacency and the
    near sets equal their oracles at any block size: on 13 boxes around a
    circle, where the boxes of one 8-box leaf are adjacent to each other but
    not to themselves, and on the 403 boxes of a circle hull at 1/64, whose
    last 8-box and 4-box leaves are padded by NaN."""
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block_elems)
    ang = np.linspace(0.0, 2 * np.pi, 13, endpoint=False)
    indptr, _ = _assert_matches_brute(0.5 * np.cos(ang), 0.5 * np.sin(ang), 0.05, 0.1)
    assert indptr[-1] > 0
    boxing = discretize_boundary(convex_hull(circle_config(600)), 1 / 64)
    assert boxing.k % kernels._GRAPH_CHUNK and boxing.k % 4
    _assert_matches_brute(boxing.centers[:, 0].copy(), boxing.centers[:, 1].copy(),
                          boxing.side, boxing.epsilon)
    row, lo, hi = near_runs(boxing, 3.0)
    ptr = np.searchsorted(row, np.arange(boxing.k + 1))
    for i in range(boxing.k):
        r = slice(ptr[i], ptr[i + 1])
        assert np.array_equal(kernels.expand_runs(lo[r], hi[r]), near_set_W(boxing, i, 3.0))
