"""The tail constant max_{i,s} s * T_s / k, computed from row blocks of A·A,
against a vertex-by-vertex oracle, across block sizes, and against
`tail_counts`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (
    AntipodalGraph,
    build_graph,
    circle_config,
    convex_hull,
    discretize_boundary,
    kernels,
    near_set_W,
    reuleaux_boundary_config,
    tail_counts,
)
from antipodal.boundary import max_scaled_tail
from conftest import random_graph, star_graph

from oracles import max_scaled_tail_brute

HULLS = {
    "circle": lambda: convex_hull(circle_config(10_000)),
    "reuleaux": lambda: convex_hull(reuleaux_boundary_config(2000, seed=1)),
}


@pytest.fixture(scope="module")
def graphs():
    cache = {}

    def get(hull, eps):
        if (hull, eps) not in cache:
            boxing = discretize_boundary(HULLS[hull](), eps)
            cache[hull, eps] = boxing, build_graph(boxing)
        return cache[hull, eps]

    return get


def _brute(boxing, g, factor):
    return max_scaled_tail_brute(boxing.centers, boxing.side, boxing.epsilon,
                                 g.adjacency, factor)


@pytest.mark.parametrize("factor", [0.0, 1.0, 3.0, 100.0])
@pytest.mark.parametrize("eps", [1 / 64, 1 / 128])
@pytest.mark.parametrize("hull", sorted(HULLS))
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
