"""The row-block size of the NumPy kernels caps their temporaries only: any
block size gives the same integers and floats.  The block sizes below change
how many chunks and chunk pairs a block holds, from one up; the chunk sizes
themselves are fixed."""

import numpy as np
import pytest

from antipodal import circle_config, convex_hull, discretize_boundary, kernels

from oracles import box_adjacency_brute


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
    return indptr, indices, counts, kernels.max_pairwise_distance_sq(xy)


@pytest.mark.parametrize("block_elems", [1, 997, 123_457])
def test_block_size_does_not_change_outputs(monkeypatch, block_elems):
    indptr, indices, counts, dmax = _outputs()
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block_elems)
    b_indptr, b_indices, b_counts, b_dmax = _outputs()
    assert np.array_equal(indptr, b_indptr)
    assert np.array_equal(indices, b_indices)
    assert counts == b_counts
    assert dmax == b_dmax
