"""λ1 by Lanczos against the power-iteration oracle, its certificate and
determinism, and the lazy SciPy import."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antipodal
from antipodal import AntipodalGraph, PowerIterationError, lambda1, power_iteration
from antipodal.harness import spectral_csv_rows, sweep_spectral
from antipodal.spectral import DEFAULT_TOL, perron_pair
from conftest import complete_graph, cycle_graph, random_graph, star_graph

from oracles import graph_dense


def _embed(graph: AntipodalGraph, isolated: int, seed: int) -> AntipodalGraph:
    """The graph plus `isolated` edgeless vertices, randomly relabelled."""
    k = graph.k + isolated
    m = np.zeros((k, k), dtype=np.uint8)
    m[: graph.k, : graph.k] = graph_dense(graph)
    perm = np.random.default_rng(seed).permutation(k)
    return AntipodalGraph.from_dense(m[np.ix_(perm, perm)])


def _base_graphs():
    return st.one_of(
        st.builds(random_graph, st.integers(2, 40), st.sampled_from([0.1, 0.3, 0.6, 0.9]),
                  st.integers(0, 10_000)),
        st.builds(cycle_graph, st.integers(3, 40)),
        st.builds(star_graph, st.integers(1, 30)),
        # k_eff = 2 (an edge) and 3 (a path or a triangle)
        st.sampled_from([complete_graph(2), star_graph(2), complete_graph(3)]),
    )


graphs = st.builds(_embed, _base_graphs(), st.integers(0, 12), st.integers(0, 10_000)) \
    .filter(lambda g: g.edge_count > 0)


@given(graphs)
@settings(max_examples=120, deadline=None)
def test_lanczos_matches_power_iteration_oracle(g):
    lam, v, _ = perron_pair(g)
    ref, _ = power_iteration(g)
    assert lam == pytest.approx(ref, rel=1e-9)
    assert lambda1(g) == lam
    assert v.shape == (g.k,)
    assert (v >= 0.0).all()
    assert (v[g.degrees == 0] == 0.0).all()
    resid = float(np.linalg.norm(g.matvec(v) - lam * v))
    assert resid <= 10 * DEFAULT_TOL * lam * float(np.linalg.norm(v))


def test_budget_counts_matvecs():
    g = random_graph(60, 0.2, seed=5)
    calls = []

    class Counting(AntipodalGraph):
        def matvec(self, x):
            calls.append(1)
            return super().matvec(x)

    counted = Counting(g.k, g.row, g.lo, g.hi)
    lam = lambda1(counted)
    used = len(calls) - 1  # the certificate's own product is outside the budget
    assert lam == pytest.approx(lambda1(g), rel=1e-12)
    with pytest.raises(PowerIterationError) as exc:
        lambda1(g, max_iter=used - 1)
    assert math.isfinite(exc.value.estimate)
    assert exc.value.estimate <= lam * (1 + 1e-12)
    assert lambda1(g, max_iter=used) == lam


def test_spectral_sweep_is_byte_identical_across_runs():
    grid = (1 / 64, 1 / 128, 1 / 256)
    first = spectral_csv_rows(sweep_spectral(grid))
    second = spectral_csv_rows(sweep_spectral(grid))
    assert "\n".join(first).encode() == "\n".join(second).encode()


def test_import_does_not_load_scipy():
    src = str(Path(antipodal.__file__).resolve().parents[1])
    code = ("import sys, antipodal; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
