"""The block size of the NumPy kernels caps their temporaries only: any
block size gives the same integers and floats.  The block sizes below change
how many node pairs a block holds, from one up, and how many levels the
descent builds; the leaf sizes themselves are fixed.  A repeated call does
not fault its blocks' temporaries in anew, whatever ran before it."""

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import antipodal
from antipodal import (
    AntipodalGraph,
    circle_config,
    convex_hull,
    discretize_boundary,
    kernels,
    near_set_W,
    reuleaux_boundary_config,
)
from antipodal.boundary import near_runs

from oracles import box_adjacency_brute, graph_csr


def _outputs():
    rng = np.random.default_rng(11)
    xy = rng.random((700, 2)) - 0.5
    boxing = discretize_boundary(convex_hull(circle_config(600)), 1 / 64)
    cx = boxing.centers[:, 0].copy()
    cy = boxing.centers[:, 1].copy()
    indptr, indices = kernels.box_adjacency_csr(cx, cy, boxing.side, boxing.epsilon)
    b_indptr, b_indices = box_adjacency_brute(cx, cy, boxing.side, boxing.epsilon)
    assert np.array_equal(indptr, b_indptr)
    assert np.array_equal(indices, b_indices)
    counts = [kernels.pair_threshold_counts(xy, eps) for eps in (0.02, 0.1, 0.3)]
    # the circle keeps few node pairs, and on the Reuleaux boundary the best
    # d2 grows from block to block at small block sizes; chunks of coincident
    # points have exact bounds, so a pruning tighter than the best so far
    # drops the maximum of the last set
    ties = reuleaux_boundary_config(250, seed=5).coords
    d = ties[:, None] - ties[None]
    dmax = [kernels.max_pairwise_distance_sq(p) for p in
            (xy, circle_config(2000).coords, reuleaux_boundary_config(2000, seed=1).coords,
             np.repeat(ties, kernels._CHUNK, axis=0))]
    assert dmax[-1] == (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]).max()
    return indptr, indices, counts, dmax


@pytest.mark.parametrize("block_elems", [1, 997, 123_457])
def test_block_size_does_not_change_outputs(monkeypatch, block_elems):
    """At 997 elements (`conftest.deep_descent`) every engine descends from
    one top node through at least three levels."""
    indptr, indices, counts, dmax = _outputs()
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block_elems)
    built = []
    levels = kernels._levels
    monkeypatch.setattr(kernels, "_levels", lambda boxes: built.append(levels(boxes)) or built[-1])
    b_indptr, b_indices, b_counts, b_dmax = _outputs()
    if block_elems == 997:
        assert [len(lv[-1][0]) for lv in built] == [1] * len(built)
        assert min(len(lv) for lv in built) >= 3
    assert np.array_equal(indptr, b_indptr)
    assert np.array_equal(indices, b_indices)
    assert counts == b_counts
    assert dmax == b_dmax



@pytest.fixture
def joins(monkeypatch):
    """The rows of every `join_runs` call, at a block budget of 16 elements,
    under which the rows are joined as soon as more than one run piece of
    final rows is held."""
    calls = []
    join_runs = kernels.join_runs

    def spy(row, lo, hi):
        calls.append(row.copy())
        return join_runs(row, lo, hi)

    monkeypatch.setattr(kernels, "join_runs", spy)
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", 16)
    return calls


def _assert_whole_rows_per_join(calls, k):
    """The calls see whole consecutive rows, in order, each row in exactly one
    call (every row here holds a run), and the rows are joined in several
    calls as the descent goes."""
    rows = [np.unique(c) for c in calls]
    assert len([r for r in rows if r.size]) > 5
    assert np.array_equal(np.concatenate(rows), np.arange(k))


def test_adjacency_runs_are_joined_one_row_block_at_a_time(joins):
    boxing = discretize_boundary(convex_hull(circle_config(600)), 1 / 64)
    cx = boxing.centers[:, 0].copy()
    cy = boxing.centers[:, 1].copy()
    g = AntipodalGraph(boxing.k, *kernels.box_adjacency_runs(cx, cy, boxing.side,
                                                             boxing.epsilon))
    _assert_whole_rows_per_join(joins, boxing.k)
    b_indptr, b_indices = box_adjacency_brute(cx, cy, boxing.side, boxing.epsilon)
    indptr, indices = graph_csr(g)
    assert np.array_equal(indptr, b_indptr)
    assert np.array_equal(indices, b_indices)


def test_near_runs_are_joined_one_row_block_at_a_time(joins):
    boxing = discretize_boundary(convex_hull(circle_config(600)), 1 / 64)
    row, lo, hi = near_runs(boxing, 3.0)
    _assert_whole_rows_per_join(joins, boxing.k)
    ptr = np.searchsorted(row, np.arange(boxing.k + 1))
    for i in range(boxing.k):
        r = slice(ptr[i], ptr[i + 1])
        assert np.array_equal(kernels.expand_runs(lo[r], hi[r]), near_set_W(boxing, i, 3.0))


_FAULT_PROBE = """
import resource
from antipodal import build_graph, circle_config, convex_hull, discretize_boundary
from antipodal.boundary import max_scaled_tail

def second_call_faults(call):
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

boxing = discretize_boundary(convex_hull(circle_config(4000)), 1 / 4096)
print(second_call_faults(lambda: build_graph(boxing)))
g = build_graph(boxing)
print(second_call_faults(lambda: max_scaled_tail(boxing, g)))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="probes glibc's malloc")
def test_repeated_calls_do_not_fault_their_blocks_in_anew():
    """The second `build_graph` and the second `max_scaled_tail` on the hull of
    circle_config(4000) at 1/4096 (k = 25,736), in a fresh interpreter with no
    MALLOC_* variables, each take fewer than 2,000 minor page faults.  Without
    the 16 MB array that `kernels` makes and drops at import, glibc maps and
    unmaps every block's temporaries, and these calls take 6,971-12,714 and
    85,313-98,459 faults on a 2-vCPU Linux VM: this test fails there."""
    src = str(Path(antipodal.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE], capture_output=True, text=True,
                          env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                          timeout=120, check=True)
    graph_faults, tail_faults = map(int, done.stdout.split())
    assert graph_faults < 2000
    assert tail_faults < 2000


@pytest.mark.parametrize("block_elems", [1, 997, kernels._BLOCK_ELEMS])
def test_leaf_layout_matches_brute_force_at_any_block_size(monkeypatch, block_elems):
    """Every pair engine reads its leaf blocks with the pair axis innermost:
    the counts (n = 700 and 2003, so the last 16-point chunk is padded by
    NaN) and the diameters equal the dense evaluation at every block size."""
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block_elems)
    rng = np.random.default_rng(3)
    for xy in (rng.random((700, 2)) - 0.5, reuleaux_boundary_config(2003, seed=2).coords):
        assert xy.shape[0] % kernels._CHUNK
        i, j = np.triu_indices(xy.shape[0], 1)
        dx, dy = xy[i, 0] - xy[j, 0], xy[i, 1] - xy[j, 1]
        d2 = dx * dx + dy * dy
        epsilons = (0.3, 0.05, 0.01)
        want = [(int(np.count_nonzero(d2 <= e * e)),
                 int(np.count_nonzero(d2 >= (1.0 - e) * (1.0 - e)))) for e in epsilons]
        assert kernels.pair_grid_counts(xy, epsilons) == want
        assert kernels.max_pairwise_distance_sq(xy) == float(d2.max())


@pytest.mark.parametrize("upper", [False, True], ids=["all-pairs", "upper"])
@pytest.mark.parametrize("leaves, block_elems, width", [
    (1, 997, 1), (37, 997, 4), (37, 997, 1000), (300, kernels._BLOCK_ELEMS, 64),
])
def test_descent_covers_every_leaf_pair_once(monkeypatch, upper, leaves, block_elems, width):
    """The contract of `kernels._descend`, with a `settle` that settles a
    random third of each block it is handed: every leaf pair (a <= b if
    `upper`) lies in exactly one settled node pair or in exactly one `leaf`
    call, a leaf call holds at most `_per_block(width)` pairs, and the rows
    it yields never fall and are never reached again by a later block."""
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block_elems)
    rng = np.random.default_rng(leaves)
    x = rng.random(leaves)
    levels = kernels._levels(kernels._group((x, x, x, x), np.arange(leaves)))
    cover = np.zeros((leaves, leaves), np.int64)
    final = [0]

    def settle(level, a, b):
        assert not upper or (a <= b).all()
        settled = rng.random(a.shape[0]) < 1 / 3
        w = kernels._FAN**level
        for i, j in zip(a[settled] * w, b[settled] * w):
            assert i >= final[0]
            cover[i : i + w, j : j + w] += 1
        return ~settled

    def leaf(a, b):
        assert 0 < a.shape[0] <= kernels._per_block(width)
        assert (a >= final[0]).all()
        np.add.at(cover, (a, b), 1)

    for row in kernels._descend(levels, settle, leaf, width, upper):
        assert row >= final[0]
        final[0] = row
    assert final[0] == leaves
    assert (cover[np.triu_indices(leaves)] == 1).all() if upper else (cover == 1).all()
