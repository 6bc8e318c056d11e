"""The chunk pair engines are exact: every count equals brute force, ties at
both inclusive thresholds included, also where a whole chunk pair is counted
at once, the maximum pairwise distance is the identical float, and neither
depends on the ε grid it is counted with or on the block size."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (
    PairCounts,
    PointSet,
    diameter,
    pair_counts,
    pair_counts_grid,
    random_disk_config,
    reuleaux_boundary_config,
)
from antipodal import kernels
from antipodal.harness import DEFAULT_RATIO_GRID

from conftest import deep_descent
from oracles import diameter_brute, pair_counts_brute


def _brute_grid(points, epsilons):
    return [PairCounts(*pair_counts_brute(points, e), e) for e in epsilons]


def _dense_d2(xy):
    """d2 of every pair i<j by the brute-force expression dx*dx + dy*dy."""
    i, j = np.triu_indices(xy.shape[0], 1)
    dx = xy[i, 0] - xy[j, 0]
    dy = xy[i, 1] - xy[j, 1]
    return dx * dx + dy * dy


def _dense_counts(xy, epsilons):
    """(near, far) of every epsilon by counting `_dense_d2`."""
    d2 = _dense_d2(xy)
    return [(int(np.count_nonzero(d2 <= e * e)), int(np.count_nonzero(d2 >= (1.0 - e) * (1.0 - e))))
            for e in epsilons]


# coordinates on the lattice k/64 in [0, 1.25]; the coarse multiples of 4/64
# make exact distances 1/16 and 15/16 common, the ties at ε = 1/16
_coord = st.one_of(st.integers(0, 20).map(lambda k: 4 * k), st.integers(0, 80))
lattice_points = st.lists(st.tuples(_coord, _coord), min_size=2, max_size=40).map(
    lambda pts: [(a / 64, b / 64) for a, b in pts]
)
lattice_grids = st.sets(st.integers(1, 31), max_size=4).map(
    lambda ks: sorted({k / 64 for k in ks} | {1 / 16}, reverse=True)
)


@given(lattice_points, lattice_grids)
@settings(max_examples=150, deadline=None)
def test_lattice_counts_and_diameter_match_brute_force(points, epsilons):
    ps = PointSet.from_points(points)
    brute = _brute_grid(points, epsilons)
    assert pair_counts_grid(ps, epsilons) == brute
    assert diameter(ps) == diameter_brute(points)
    with pytest.MonkeyPatch.context() as mp:
        assert _deep_descent(mp, ps.coords)[0] == _brute_max_d2(ps.coords)
        # the counts of one-point chunks, down every level from one top node
        assert pair_counts_grid(ps, epsilons) == brute


def _deep_counts(xy, epsilons, chunk):
    """`pair_grid_counts` with chunks of `chunk` points under the deep block
    budget (`conftest.deep_descent`)."""
    with pytest.MonkeyPatch.context() as mp:
        deep_descent(mp)
        mp.setattr(kernels, "_CHUNK", chunk)
        return kernels.pair_grid_counts(xy, epsilons)


def test_whole_chunk_pairs_count_their_ties():
    """Chunk pairs whose bounds equal a threshold exactly: 1 500 points on
    the 17 x 4 lattice sites 1/16 apart in [0, 1] x [0, 3/16], about 22 on
    each, make chunks of one or two sites, with chunk pairs at exactly 1/16
    and 15/16 that are counted whole."""
    xy = _tie_sites()
    epsilons = (1 / 8, 1 / 16, 1 / 32)
    want = _dense_counts(xy, epsilons)
    assert kernels.pair_grid_counts(xy, epsilons) == want
    # node pairs above the chunks are counted whole too
    assert _deep_counts(xy, epsilons, kernels._CHUNK) == want


def _tie_sites():
    rng = np.random.default_rng(7)
    sites = np.column_stack([rng.integers(0, 17, 1_500), rng.integers(0, 4, 1_500)]) / 16.0
    return np.vstack([sites, [(15 / 16, 0.0), (1.0, 0.0), (9 / 16, 12 / 16)]])


def test_exact_ties_at_both_thresholds_count():
    # three pairs at exactly 1/16; four at exactly 15/16 (on an axis or a
    # 9-12-15 triangle) and one beyond it
    points = [(0.0, 0.0), (1 / 16, 0.0), (15 / 16, 0.0), (9 / 16, 12 / 16),
              (1 / 16, 1 / 16), (1.0, 0.0)]
    counts = pair_counts(PointSet.from_points(points), 1 / 16)
    assert (counts.neighbors, counts.antipodes) == pair_counts_brute(points, 1 / 16)
    assert (counts.neighbors, counts.antipodes) == (3, 5)
    assert _deep_counts(np.array(points), [1 / 16], 1) == [(3, 5)]


_DEGENERATE = {
    # a single occupied cell
    "one-cell": [(0.001 * i, 0.002 * (i % 3)) for i in range(12)],
    # two points, at each threshold and between them
    "two-near": [(0.0, 0.0), (0.05, 0.0)],
    "two-far": [(0.0, 0.0), (0.0, 0.95)],
    "two-between": [(0.2, 0.3), (0.5, 0.7)],
    # coincident points
    "coincident": [(0.25, 0.25)] * 5,
    # collinear points
    "collinear-slope": [(i / 40, 0.5 * i / 40) for i in range(50)],
    "collinear-axis": [(0.0, i / 64) for i in range(70)],
    # a set wider than 1
    "wider-than-1": [(3.0 * math.cos(t), 0.4 * math.sin(3 * t)) for t in np.linspace(0, 6.0, 90)],
}


@pytest.mark.parametrize("points", list(_DEGENERATE.values()), ids=list(_DEGENERATE))
def test_small_and_degenerate_sets_match_brute_force(points):
    ps = PointSet.from_points(points)
    epsilons = [0.3, 0.1, 0.05, 0.01]
    assert pair_counts_grid(ps, epsilons) == _brute_grid(ps.points, epsilons)
    d2 = _dense_d2(ps.coords)
    assert kernels.max_pairwise_distance_sq(ps.coords) == float(d2.max())
    assert diameter(ps) == pytest.approx(diameter_brute(ps.points), rel=1e-15)


@pytest.mark.parametrize("ps", [random_disk_config(700, seed=3),
                                reuleaux_boundary_config(700, seed=4)],
                         ids=["disk", "reuleaux"])
def test_grid_equals_one_call_per_epsilon(ps):
    grid = pair_counts_grid(ps, DEFAULT_RATIO_GRID)
    assert grid == [pair_counts(ps, e) for e in DEFAULT_RATIO_GRID]
    assert [(c.neighbors, c.antipodes) for c in grid] == _dense_counts(ps.coords,
                                                                       DEFAULT_RATIO_GRID)
    assert kernels.max_pairwise_distance_sq(ps.coords) == float(_dense_d2(ps.coords).max())


def _block_outputs():
    rng = np.random.default_rng(5)
    xy = np.vstack([rng.random((300, 2)) - 0.5,
                    reuleaux_boundary_config(300, seed=6).coords])
    return (kernels.pair_grid_counts(xy, (0.3, 0.08, 0.02)),
            kernels.max_pairwise_distance_sq(xy))


@pytest.mark.parametrize("block_elems", [1, 997, 123_457])
def test_block_size_does_not_change_counts_or_diameter(monkeypatch, block_elems):
    counts, dmax = _block_outputs()
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block_elems)
    assert _block_outputs() == (counts, dmax)


def _assert_gap_bounds_hold(x, y, starts):
    """Every computed |dx|, |dy| and d2 of a pair of the groups of consecutive
    points that begin at `starts` lies inside `kernels._gap_bounds` of its
    two groups."""
    group = np.repeat(np.arange(starts.shape[0]), np.diff(np.append(starts, x.shape[0])))
    lx, ux, ly, uy = (v[group][:, group] for v in kernels._gap_bounds(
        kernels._group((x, x, y, y), starts), np.s_[:, None], slice(None)))
    ax = np.abs(x[:, None] - x[None, :])
    ay = np.abs(y[:, None] - y[None, :])
    d2 = ax * ax + ay * ay
    assert (lx <= ax).all() and (ax <= ux).all()
    assert (ly <= ay).all() and (ay <= uy).all()
    assert (lx * lx + ly * ly <= d2).all() and (d2 <= ux * ux + uy * uy).all()


def test_gap_bounds_hold_every_pair_at_cell_edges():
    """Points on a lattice of cell edges, nudged by a few ulps: the
    bounding-box bounds hold every computed pair of the chunks of the pair
    counts (sort-tile-recursive order) and of chunks of consecutive points in
    the given order, as `box_pair_runs` cuts them."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        side = float(rng.choice([0.1, 0.16, 0.03, 1 / 3, 0.07, 0.2]))
        x0 = float(rng.choice([0.0, 0.1, -0.3, 1e3 + 0.1, 0.7]))
        xy = x0 + rng.integers(0, 12, (60, 2)) * side
        for step in rng.integers(-1, 2, (3,) + xy.shape):
            xy = np.where(step == 0, xy, np.nextafter(xy, np.copysign(np.inf, step)))
        order = kernels._tile_order(xy[:, 0], xy[:, 1])
        _assert_gap_bounds_hold(xy[order, 0], xy[order, 1], np.arange(0, xy.shape[0], kernels._CHUNK))
        size = int(rng.integers(1, 9))
        _assert_gap_bounds_hold(xy[:, 0], xy[:, 1], np.arange(0, xy.shape[0], size))


def _assert_polar_bounds_hold(xy, size=16):
    """Every computed d2 of a pair of points lies below `kernels._polar_bounds`
    of their two groups, for groups of `size` consecutive points both in
    angle order about the bounding-box centre, as the diameter engine cuts
    them, and in the given order."""
    centre = 0.5 * xy.min(axis=0) + 0.5 * xy.max(axis=0)
    r, t = kernels._polar_coords(xy, centre)
    for order in (np.argsort(t), np.arange(xy.shape[0])):
        starts = np.arange(0, xy.shape[0], size)
        group = np.repeat(np.arange(starts.shape[0]), np.diff(np.append(starts, xy.shape[0])))
        x, y = xy[order].T
        boxes = kernels._group((x, x, y, y, r[order], t[order], t[order]), starts)
        bound = kernels._polar_bounds(boxes[4:], group[:, None], group[None, :])
        ax = xy[order, 0, None] - xy[order, 0]
        ay = xy[order, 1, None] - xy[order, 1]
        assert (ax * ax + ay * ay <= bound).all()


def _polar_sets():
    rng = np.random.default_rng(1)
    angle = rng.random(300) * 2.0 * np.pi
    circle = 0.5 * np.column_stack([np.cos(angle), np.sin(angle)])
    yield circle
    yield reuleaux_boundary_config(400, seed=2).coords
    yield random_disk_config(400, seed=3).coords
    # lattice sets: exact ties in angle and in distance, and repeated points
    yield rng.integers(0, 6, (200, 2)) / 4.0
    yield rng.integers(-3, 4, (150, 2)).astype(float)
    # offset far from the origin, and scaled
    yield circle + 100.0
    yield 3.7 * circle + np.array([1e6, -2e5])
    yield 1e-30 * random_disk_config(300, seed=4).coords


def test_polar_bounds_hold_every_pair():
    for xy in _polar_sets():
        for size in (1, 5, 16):
            _assert_polar_bounds_hold(xy, size)


def test_shrunk_polar_bound_fails(monkeypatch):
    """The check above sees a bound 1e-3 too small: near-antipodal chunk
    pairs of the circle reach their bound to second order."""
    monkeypatch.setattr(kernels, "_POLAR_PAD", -1e-3)
    with pytest.raises(AssertionError):
        _assert_polar_bounds_hold(next(_polar_sets()))


def _scaled_sets():
    rng = np.random.default_rng(2)
    angle = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
    ring = np.column_stack([np.cos(angle), np.sin(angle)])
    disk = rng.random((60, 2)) - 0.5
    for span in (1e-300, 1e-160, 1.0, 1e150, 1e160):
        yield f"ring-{span:g}", span * ring
        yield f"disk-{span:g}", span * disk
    # a point exactly at the centre, where the radius is 0
    yield "centre", np.vstack([ring, [[0.0, 0.0]]])
    yield "centre-only", np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [-1.0, -1.0]])
    # one chunk, exactly one, and one more point
    for n in (15, 16, 17):
        yield f"n{n}", disk[:n]
    yield "coincident", np.full((40, 2), 0.3)
    yield "coincident-far", np.full((20, 2), 1e200)
    yield "offset-100", ring + 100.0
    yield "subnormal", np.array([[0.0, 0.0], [5e-324, 0.0], [0.0, 1e-323], [2e-323, 5e-324]])


@pytest.mark.parametrize("name, xy", list(_scaled_sets()), ids=[n for n, _ in _scaled_sets()])
def test_diameter_at_extreme_scales_matches_brute_force(name, xy):
    """Spans outside the range where the polar bound is used (1e-300,
    1e-160, 1e150 and 1e160, where d2 overflows to inf) and the edge cases
    of the angle order give the brute-force float."""
    with np.errstate(over="ignore", under="ignore"):
        want = float(_dense_d2(xy).max())
        assert kernels.max_pairwise_distance_sq(xy) == want


def _brute_max_d2(xy, rows=256):
    """The largest d2 over all pairs by the brute-force expression
    dx*dx + dy*dy, a block of rows at a time."""
    best = 0.0
    with np.errstate(over="ignore", under="ignore"):
        for i in range(0, xy.shape[0], rows):
            dx = xy[i : i + rows, None, 0] - xy[None, :, 0]
            dy = xy[i : i + rows, None, 1] - xy[None, :, 1]
            best = max(best, float((dx * dx + dy * dy).max()))
    return best


def _deep_descent(mp, xy, chunk=1):
    """`max_pairwise_distance_sq` with chunks of `chunk` points under the
    deep block budget (`conftest.deep_descent`), so that it descends through
    every level of groups of four from one top node, and the number of levels
    it built."""
    built = []
    group = kernels._group
    mp.setattr(kernels, "_CHUNK", chunk)
    deep_descent(mp)
    mp.setattr(kernels, "_group", lambda *args: built.append(args) or group(*args))
    return kernels.max_pairwise_distance_sq(xy), len(built)


def _ties_repeated():
    return np.repeat(reuleaux_boundary_config(250, seed=5).coords, 16, axis=0)


def _just_above_l():
    """Six sites, 16 points on each, so that every chunk holds one site and
    its box bound is exact.  P = (0, 0) and Q = (1, 0) are the one maximal
    pair, at d2 = 1, and no point's neighbours about its antipodal angle pair
    them; L is P with A, on the ray from P through the bounding-box centre
    (0.5, 0.25), at d2 = 1 - 2**-40 to rounding."""
    ray = np.array([0.5, 0.25]) / math.hypot(0.5, 0.25)
    turn = math.radians(160)
    sites = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.5), ray * math.sqrt(1.0 - 2.0**-40),
             (0.5 + 0.3 * math.cos(turn), 0.25 + 0.3 * math.sin(turn)), (0.6, 0.25)]
    return np.repeat(np.array(sites), 16, axis=0)


def test_maximum_just_above_l_is_found():
    """Pruning keeps every chunk pair whose bound reaches the best so far:
    one that asks for 1e-7 relative more, at the box bound or after the
    polar bound, returns L here."""
    xy = _just_above_l()
    assert kernels.max_pairwise_distance_sq(xy) == _brute_max_d2(xy) == 1.0


def _deep_sets():
    for name, points in _DEGENERATE.items():
        yield f"degenerate-{name}", np.array(points, dtype=float), 1
    for name, xy in _scaled_sets():
        yield name, xy, 1
    yield "tie-sites", _tie_sites(), 1
    yield "just-above-l", _just_above_l(), 1
    # coincident points fill whole chunks, whose bounds are exact
    yield "ties-x16", _ties_repeated(), 1
    yield "ties-x16-chunk16", _ties_repeated(), 16


_DEEP_SETS = list(_deep_sets())


@pytest.mark.parametrize("name, xy, chunk", _DEEP_SETS, ids=[n for n, _, _ in _DEEP_SETS])
def test_deep_descent_matches_brute_force(monkeypatch, name, xy, chunk):
    """With one node at the top, every set of five or more points descends at
    least three levels (chunks, groups of four chunks and the top), and the
    maximum is still the brute-force float."""
    with np.errstate(over="ignore", under="ignore"):
        got, levels = _deep_descent(monkeypatch, xy, chunk)
    assert got == _brute_max_d2(xy)
    assert levels >= 3 or -(-xy.shape[0] // chunk) <= 4


def _reuleaux_5000(degrees=0):
    c, s = np.cos(np.radians(degrees)), np.sin(np.radians(degrees))
    return reuleaux_boundary_config(5000, seed=1).coords @ np.array([[c, s], [-s, c]])


@pytest.mark.parametrize("degrees", [0, 210])
def test_5000_points_match_blocked_brute_force(degrees):
    """The Reuleaux sample has one maximal pair, which L misses; turned by
    210 degrees, one of its points is the last in the angle order."""
    xy = _reuleaux_5000(degrees)
    assert kernels.max_pairwise_distance_sq(xy) == _brute_max_d2(xy)


def test_dropping_the_node_pair_of_the_maximum_changes_the_diameter(monkeypatch):
    """A mutation check of the test above: the 5000 points make 313 chunks,
    79 nodes at level 1 and 20 at the top, level 2.  Zeroing the box bound
    of the level-1 node pair that holds the set's one maximal pair drops
    that pair, and the result then differs from brute force: the lower bound
    L does not find the maximum on this set, the descent does."""
    xy = _reuleaux_5000()
    want = _brute_max_d2(xy)
    pairs = []
    for i0 in range(0, xy.shape[0], 256):
        dx = xy[i0 : i0 + 256, None, 0] - xy[None, :, 0]
        dy = xy[i0 : i0 + 256, None, 1] - xy[None, :, 1]
        i, j = np.nonzero(dx * dx + dy * dy == want)
        pairs += [(a, b) for a, b in zip(i + i0, j) if a < b]
    assert len(pairs) == 1
    # the two points' level-1 nodes, in the kernel's angle order
    centre = 0.5 * xy.min(axis=0) + 0.5 * xy.max(axis=0)
    rank = np.argsort(np.argsort(kernels._polar_coords(xy, centre)[1]))
    node = np.sort(rank[list(pairs[0])] // (kernels._CHUNK * kernels._FAN))
    gap_upper = kernels._gap_upper
    dropped = []

    def drop(boxes, a, b):
        ux, uy = gap_upper(boxes, a, b)
        if len(boxes[0]) == 79:
            hit = (a == node[0]) & (b == node[1])
            ux[hit] = uy[hit] = 0.0
            dropped.append(int(hit.sum()))
        return ux, uy

    monkeypatch.setattr(kernels, "_gap_upper", drop)
    assert kernels.max_pairwise_distance_sq(xy) < want
    assert sum(dropped) == 1


def test_descent_counts_stay_linear_on_a_reuleaux_sample(monkeypatch):
    """On reuleaux_boundary_config(10**5, 1), m = 6,250 chunks, the descent
    bounds at most 32 m node pairs and evaluates at most 8 m chunk pairs
    (measured: 116,749 and 27,120)."""
    xy = reuleaux_boundary_config(10**5, seed=1).coords
    counts = {"bounded": 0, "evaluated": 0}
    gap_upper, chunk_d2 = kernels._gap_upper, kernels._chunk_d2

    def bounded(boxes, a, b):
        ux, uy = gap_upper(boxes, a, b)
        counts["bounded"] += ux.size
        return ux, uy

    def evaluated(px, py, i0, j0):
        counts["evaluated"] += i0.shape[0]
        return chunk_d2(px, py, i0, j0)

    monkeypatch.setattr(kernels, "_gap_upper", bounded)
    monkeypatch.setattr(kernels, "_chunk_d2", evaluated)
    kernels.max_pairwise_distance_sq(xy)
    m = 6250
    assert counts["bounded"] <= 32 * m
    assert counts["evaluated"] <= 8 * m


def test_counts_bound_each_node_pair_once(monkeypatch):
    """`pair_grid_counts` hands each node pair it visits to `_gap_bounds`
    once: the bounds that settle a pair are the ones it is counted from.  On
    this sample and grid the descent settles chunk pairs whole."""
    xy = reuleaux_boundary_config(600, seed=4).coords
    epsilons = (0.3, 0.1, 0.02)
    deep_descent(monkeypatch)
    gap_bounds = kernels._gap_bounds
    # per level (its node count): the keys a * nodes + b of the pairs bounded
    bounded = {}

    def spy(boxes, a, b):
        nodes = boxes[0].shape[0]
        bounded.setdefault(nodes, []).append(a * nodes + b)
        return gap_bounds(boxes, a, b)

    monkeypatch.setattr(kernels, "_gap_bounds", spy)
    points = [tuple(p) for p in xy.tolist()]
    assert kernels.pair_grid_counts(xy, epsilons) == [pair_counts_brute(points, e)
                                                       for e in epsilons]
    assert len(bounded) >= 3
    for keys in bounded.values():
        keys = np.concatenate(keys)
        assert np.unique(keys).size == keys.size


def test_grid_validation():
    ps = PointSet.from_points([(0.0, 0.0), (1.0, 0.0)])
    for eps in (0.0, 0.5, -0.1, float("nan")):
        with pytest.raises(ValueError):
            pair_counts_grid(ps, [0.1, eps])
    with pytest.raises(ValueError):
        pair_counts_grid(PointSet.from_points([(0.0, 0.0)]), [0.1])
    assert pair_counts_grid(ps, []) == []


def _lattice_with_ties(n, seed):
    """n points on the lattice k/64 (n not a multiple of `kernels._CHUNK`, so
    the last chunk is padded by NaN), with pairs exactly 1/16 and 15/16
    apart: ties at a near and at a far threshold of ε = 1/16."""
    rng = np.random.default_rng(seed)
    xy = rng.integers(0, 16, (n - 4, 2)) * 4 / 64
    return np.vstack([xy, [(0.0, 0.0), (1 / 16, 0.0), (15 / 16, 0.0), (9 / 16, 12 / 16)]])


@pytest.mark.parametrize("block_elems", [1, 997, kernels._BLOCK_ELEMS])
@pytest.mark.parametrize("n", [37, 150])
def test_leaf_layout_counts_and_diameter_match_brute_force(monkeypatch, block_elems, n):
    """The leaf blocks (the pair axis innermost) count every pair once, ties
    at both thresholds included, at any block size."""
    xy = _lattice_with_ties(n, n)
    assert n % kernels._CHUNK
    epsilons = (1 / 4, 1 / 16, 3 / 64)
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block_elems)
    points = [tuple(p) for p in xy.tolist()]
    assert kernels.pair_grid_counts(xy, epsilons) == [pair_counts_brute(points, e)
                                                       for e in epsilons]
    assert kernels.max_pairwise_distance_sq(xy) == _brute_max_d2(xy)


def test_chunk_gaps_put_the_pair_axis_last():
    """[s, t, p] of `_chunk_gaps` is point i0[p] + s less point j0[p] + t,
    and the NaN point past the last stands in for the points past n."""
    x = np.arange(20.0) ** 2
    px, py = np.append(x, np.nan), np.append(-x, np.nan)
    i0, j0 = np.array([0, 16, 4]), np.array([16, 0, 8])
    dx, dy = kernels._chunk_gaps(px, py, i0, j0, 8)
    assert dx.shape == dy.shape == (8, 8, 3)
    for s in range(8):
        for t in range(8):
            for p in range(3):
                i, j = i0[p] + s, j0[p] + t
                inside = max(i, j) < 20
                np.testing.assert_equal(dx[s, t, p], x[i] - x[j] if inside else np.nan)
                np.testing.assert_equal(dy[s, t, p], -x[i] + x[j] if inside else np.nan)
