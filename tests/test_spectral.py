import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (
    AntipodalGraph,
    NoEdgesError,
    PowerIterationError,
    bound_chain,
    build_graph,
    circle_config,
    collatz_wielandt_bound,
    convex_hull,
    discretize_boundary,
    lambda1,
    lambda1_bracket,
    power_iteration,
    sqrt_degree_bound,
    trace_bound,
)
from antipodal.spectral import DEFAULT_MAX_ITER, perron_pair, sqrt_degree_certificate
from conftest import complete_graph, cycle_graph, random_graph, star_graph

from oracles import graph_dense


def test_lambda1_known_spectra():
    assert lambda1(complete_graph(5)) == pytest.approx(4.0, abs=1e-6)
    assert lambda1(cycle_graph(8)) == pytest.approx(2.0, abs=1e-6)
    assert lambda1(star_graph(9)) == pytest.approx(3.0, abs=1e-6)


def test_lambda1_residual_contract():
    g = star_graph(12)
    lam, v = power_iteration(g)
    mv = g.matvec(v)
    assert float(np.linalg.norm(mv - lam * v)) <= 10 * 1e-9 * lam * float(
        np.linalg.norm(v)
    )


def test_lambda1_no_edges_error():
    g = AntipodalGraph.from_dense(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(NoEdgesError):
        lambda1(g)


def test_lambda1_nonconvergence_carries_estimate():
    with pytest.raises(PowerIterationError) as exc:
        lambda1(star_graph(9), max_iter=1)
    assert math.isfinite(exc.value.estimate)
    with pytest.raises(PowerIterationError) as exc:
        power_iteration(complete_graph(2), max_iter=1)
    assert exc.value.estimate == pytest.approx(1.0, rel=1e-15)


def test_lambda1_permutation_invariance():
    g = random_graph(40, 0.3, seed=17)
    perm = np.random.default_rng(0).permutation(40)
    m = graph_dense(g)[np.ix_(perm, perm)]
    g2 = AntipodalGraph.from_dense(m)
    assert lambda1(g2) == pytest.approx(lambda1(g), abs=1e-8)


def test_cw_star_sqrt_degree_is_tight():
    m = 9
    g = star_graph(m)
    bound = collatz_wielandt_bound(g, sqrt_degree_certificate(g))
    assert bound == pytest.approx(math.sqrt(m), rel=1e-12)
    assert bound == pytest.approx(lambda1(g), abs=1e-6)


def test_cw_with_perron_vector_is_lambda1():
    g = random_graph(35, 0.3, seed=3)
    lam, v = power_iteration(g)
    live = g.degrees > 0
    x = np.where(live, v, 1.0)  # strictly positive everywhere
    assert collatz_wielandt_bound(g, x) == pytest.approx(lam, abs=1e-6)


def test_cw_all_ones_on_regular_graph():
    g = complete_graph(4)
    assert collatz_wielandt_bound(g, np.ones(4)) == pytest.approx(3.0, rel=1e-12)


def test_cw_is_a_bound_or_raises_where_prefix_sums_swamp_x():
    """K4 plus an isolated vertex 0, where λ1 = 3: the prefix sums of
    x = (1e20, 1, 1, 1, 1) lose every small entry, and the quotient read 0.0;
    x = (1e6, 1, 1, 1, 1) is within the rounding bound."""
    g = AntipodalGraph.from_dense(np.pad(np.ones((4, 4), np.uint8) - np.eye(4, dtype=np.uint8),
                                         ((1, 0), (1, 0))))
    with pytest.raises(ValueError, match="range"):
        collatz_wielandt_bound(g, np.array([1e20, 1.0, 1.0, 1.0, 1.0]))
    assert collatz_wielandt_bound(g, np.array([1e6, 1.0, 1.0, 1.0, 1.0])) >= 3.0


def test_cw_rejects_nonpositive_x():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        collatz_wielandt_bound(g, np.array([1.0, 0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        collatz_wielandt_bound(g, -np.ones(4))


def test_cw_rejects_x_of_the_wrong_shape():
    g = complete_graph(4)
    for x in (np.ones(3), np.ones(5), np.ones((4, 1))):
        with pytest.raises(ValueError, match=r"shape \(4,\)"):
            collatz_wielandt_bound(g, x)


@given(st.integers(0, 50), st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
@settings(max_examples=30, deadline=None)
def test_cw_invariant_under_power_of_two_rescaling(seed, alpha):
    g = random_graph(20, 0.35, seed)
    if g.edge_count == 0:
        return
    x = np.abs(np.random.default_rng(seed).random(20)) + 0.5
    assert collatz_wielandt_bound(g, alpha * x) == collatz_wielandt_bound(g, x)


def test_sqrt_degree_bound_examples():
    assert sqrt_degree_bound(star_graph(9)) == pytest.approx(3.0, rel=1e-12)
    assert sqrt_degree_bound(complete_graph(6)) == pytest.approx(5.0, rel=1e-12)
    assert sqrt_degree_bound(cycle_graph(10)) == pytest.approx(2.0, rel=1e-12)


def test_trace_bound_examples():
    assert trace_bound(AntipodalGraph.from_dense(np.array([[0, 1], [1, 0]]))) == (
        pytest.approx(math.sqrt(2), rel=1e-12)
    )
    assert trace_bound(star_graph(9)) == pytest.approx(math.sqrt(18), rel=1e-12)
    # K_5 has 10 edges, so sqrt(2|E|) = sqrt(20)
    assert trace_bound(complete_graph(5)) == pytest.approx(math.sqrt(20), rel=1e-12)


def test_bound_chain_star_and_cycle():
    r = bound_chain(star_graph(9))
    assert (r.lambda1, r.cw_bound, r.sqrt_degree_bound) == pytest.approx(
        (3.0, 3.0, 3.0), abs=1e-6
    )
    assert r.trace_bound == pytest.approx(math.sqrt(18), rel=1e-12)
    for k in (4, 9, 16):
        r = bound_chain(cycle_graph(k))
        assert (r.lambda1, r.cw_bound, r.sqrt_degree_bound) == pytest.approx(
            (2.0, 2.0, 2.0), abs=1e-6
        )
        assert r.trace_bound == pytest.approx(math.sqrt(2 * k), rel=1e-12)


def test_bound_chain_refuses_an_out_of_order_chain(monkeypatch):
    """A λ1 above CW(√d) = 3 on the star K1,9 means a number is wrong, and
    the chain raises rather than report it."""
    monkeypatch.setattr("antipodal.spectral.lambda1", lambda G, tol, max_iter: 4.0)
    with pytest.raises(RuntimeError, match="ordering violated"):
        bound_chain(star_graph(9))


def test_perron_pair_refuses_a_vector_that_fails_the_certificate(monkeypatch):
    """A solver answer that is not an eigenvector (the start vector of the
    path P3) fails ||Mv - λv|| <= 10·tol·λ·||v||."""
    monkeypatch.setattr("scipy.sparse.linalg.eigsh",
                        lambda op, **kw: (np.ones(1), kw["v0"][:, None]))
    with pytest.raises(PowerIterationError, match="fails the certificate") as exc:
        perron_pair(star_graph(2))
    assert exc.value.estimate == pytest.approx(4 / 3, rel=1e-15)


def test_bound_chain_ordering_random_graphs():
    slack = 1 + 1e-9
    for seed in range(25):
        g = random_graph(5 + seed, 0.3, seed)
        if g.edge_count == 0:
            continue
        r = bound_chain(g)
        assert r.lambda1 <= r.cw_bound * slack
        assert r.cw_bound <= r.sqrt_degree_bound * slack
        assert r.sqrt_degree_bound <= r.trace_bound * slack


def test_bound_chain_circle_boundary_gap():
    hull = convex_hull(circle_config(10_000))
    g = build_graph(discretize_boundary(hull, 1 / 256))
    r = bound_chain(g)
    slack = 1 + 1e-9
    assert r.lambda1 <= r.cw_bound * slack <= r.sqrt_degree_bound * slack**2
    assert r.sqrt_degree_bound <= r.trace_bound * slack
    assert r.trace_bound / r.cw_bound > 2.0
    assert r.k_effective == g.k  # circle boundary has no isolated boxes


def test_isolated_vertices_are_restricted_away():
    m = np.zeros((6, 6), dtype=np.uint8)
    m[0, 1] = m[1, 0] = m[1, 2] = m[2, 1] = 1
    g = AntipodalGraph.from_dense(m)
    r = bound_chain(g)
    assert r.k_effective == 3
    assert r.lambda1 == pytest.approx(math.sqrt(2), abs=1e-6)  # path P3


def test_power_iteration_argument_validation():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        lambda1(g, tol=0.0)
    with pytest.raises(ValueError):
        lambda1(g, max_iter=0)


@pytest.mark.parametrize("solver", [lambda1, lambda1_bracket, perron_pair, power_iteration])
@pytest.mark.parametrize("bad", [{"max_iter": 3.5}, {"max_iter": 3.0}, {"max_iter": True},
                                 {"tol": math.inf}, {"tol": math.nan}],
                         ids=["iter3.5", "iter3.0", "iterTrue", "tolinf", "tolnan"])
def test_solver_rejects_bad_arguments(solver, bad):
    """max_iter is an integer >= 1 and tol finite and positive: a fractional
    budget never meets the matvec count, and tol = inf certifies nothing."""
    with pytest.raises(ValueError, match="max_iter|tol"):
        solver(random_graph(60, 0.2, seed=5), **bad)


def test_numpy_integer_budget_is_accepted():
    g = random_graph(60, 0.2, seed=5)
    assert lambda1(g, max_iter=np.int64(DEFAULT_MAX_ITER)) == lambda1(g)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cw_rejects_nonfinite_x(bad):
    g = complete_graph(4)
    x = np.ones(4)
    x[2] = bad
    with pytest.raises(ValueError, match="finite"):
        collatz_wielandt_bound(g, x)
    # on an isolated vertex too: the prefix sums of the product carry it
    g = AntipodalGraph.from_dense(np.pad(np.ones((3, 3), np.uint8) - np.eye(3, dtype=np.uint8),
                                         ((0, 1), (0, 1))))
    x = np.ones(4)
    assert collatz_wielandt_bound(g, x) == 2.0
    x[3] = bad
    with pytest.raises(ValueError, match="finite"):
        collatz_wielandt_bound(g, x)


# relative rounding allowed at either end of the bracket
BRACKET_ROUNDING = 1e-12


def _k4_and_k3():
    m = np.zeros((7, 7), np.uint8)
    m[:4, :4] = m[4:, 4:] = 1
    return AntipodalGraph.from_dense(m - np.eye(7, dtype=np.uint8))


@pytest.mark.parametrize("g", [complete_graph(5), complete_graph(40), cycle_graph(8),
                               cycle_graph(9), star_graph(9), star_graph(30),
                               _k4_and_k3()],
                         ids=["K5", "K40", "C8", "C9", "S9", "S30", "K4+K3"])
def test_lambda1_bracket_is_tight_on_known_spectra(g):
    """K4+K3: the Perron vector is ~3e-16 on K3, and floored at the smallest
    positive float it spanned too wide a range for the prefix sums."""
    lower, upper, residual = lambda1_bracket(g)
    lam, _ = power_iteration(g)
    assert lower * (1.0 - BRACKET_ROUNDING) <= lam <= upper * (1.0 + BRACKET_ROUNDING)
    assert abs(upper - lower) <= 1e-9 * lower
    assert residual <= 1e-9 * lower


def test_lambda1_bracket_contains_the_dense_eigenvalue():
    boxing = discretize_boundary(convex_hull(circle_config(2000)), 1 / 32)
    for g in (build_graph(boxing), random_graph(60, 0.2, seed=5)):
        lower, upper, residual = lambda1_bracket(g)
        exact = float(np.linalg.eigvalsh(graph_dense(g).astype(np.float64)).max())
        assert lower * (1.0 - BRACKET_ROUNDING) <= exact <= upper * (1.0 + BRACKET_ROUNDING)
        assert abs(exact - lower) <= residual + BRACKET_ROUNDING * exact
        assert upper <= collatz_wielandt_bound(g, sqrt_degree_certificate(g)) * (
            1.0 + BRACKET_ROUNDING)
