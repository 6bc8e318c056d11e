"""Spectral-radius machinery for the antipodal box graph.

Four quantities, ordered λ1 <= CW(sqrt(d)) <= max_i sqrt(sum_{j~i} d_j)
<= sqrt(2|E|) on every graph with an edge:

* λ1 by implicitly restarted Lanczos (ARPACK through SciPy's ``eigsh``;
  Lehoucq, Sorensen & Yang 1998), started deterministically from the
  indicator of the non-isolated vertices and certified by its eigen-residual
  ||M v - λ v|| <= 10 * tol * λ * ||v||, with ``max_iter`` a budget on the
  solver's matvecs; shifted power iteration stays as the reference it is
  checked against;
* the Collatz-Wielandt certificate max_i (Mx)_i / x_i for a positive x,
  evaluated at x_i = sqrt(d_i);
* the Cauchy-Schwarz relaxation of that certificate;
* the trace bound sqrt(tr(M^T M)) = sqrt(2|E|).

One function solves and certifies λ1: `perron_pair` returns (λ1, Perron
vector, residual), and `lambda1` and `lambda1_bracket` read from it.  The
bracket is two-sided: the Rayleigh quotient of the Perron vector below, the
Collatz-Wielandt bound at that vector above.

Isolated vertices are removed inside each operation (restriction), so the
stored graph stays faithful to the raw discretization.  Every operation
applies the adjacency through ``AntipodalGraph.matvec``.  SciPy is imported
on first use, not with the package.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .boundary import AntipodalGraph

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000


class NoEdgesError(ValueError):
    """The graph has no edges; every spectral quantity is degenerate."""


class PowerIterationError(RuntimeError):
    """The eigensolver failed to converge or to certify; carries the last
    estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class BoundChainReport:
    lambda1: float
    cw_bound: float
    sqrt_degree_bound: float
    trace_bound: float
    k_effective: int


def _require_edges(G: AntipodalGraph):
    if G.edge_count < 1:
        raise NoEdgesError("graph has no edges")


def _nonisolated(G: AntipodalGraph) -> np.ndarray:
    return np.nonzero(G.degrees > 0)[0]


def _check_solver_args(tol: float, max_iter: int) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")


def power_iteration(
    G: AntipodalGraph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[float, np.ndarray]:
    """Top eigenvalue and Perron iterate of the adjacency matrix.

    The reference solver that `perron_pair` is tested against.  Iterates on
    M + I (standard shift: it preserves the top eigenpair of a nonnegative
    symmetric M while breaking the ±λ1 oscillation of bipartite graphs) from
    the all-ones vector.  Convergence requires both successive Rayleigh
    estimates within tol relative and the eigen-residual
    ||M v - λ v|| <= 10 * tol * λ * ||v||.

    Returns (λ1 estimate, iterate on the full vertex set; isolated vertices
    carry zero).
    """
    _require_edges(G)
    _check_solver_args(tol, max_iter)
    live = _nonisolated(G)
    k_eff = live.size
    # matvec on the full graph: isolated rows stay zero and do not interact
    v = np.zeros(G.k)
    v[live] = 1.0 / math.sqrt(k_eff)
    lam_prev = math.inf
    for _ in range(max_iter):
        w = G.matvec(v) + v
        lam_shift = float(v @ w)  # Rayleigh quotient of M + I (v is unit)
        lam = lam_shift - 1.0
        resid = float(np.linalg.norm(w - lam_shift * v))
        if (
            math.isfinite(lam_prev)
            and abs(lam - lam_prev) < tol * abs(lam)
            and resid <= 10.0 * tol * lam
        ):
            return lam, v
        lam_prev = lam
        v = w / float(np.linalg.norm(w))
    raise PowerIterationError(
        f"no convergence within {max_iter} iterations (last estimate {lam})",
        estimate=lam,
    )


class _BudgetExhausted(Exception):
    pass


def perron_pair(
    G: AntipodalGraph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[float, np.ndarray, float]:
    """Top eigenvalue, nonnegative Perron vector and eigen-residual by Lanczos.

    ARPACK's implicitly restarted Lanczos (``eigsh``, which="LA") runs on
    ``G.matvec`` from the indicator of the non-isolated vertices, with a
    fixed generator for any restart vector, so the result is reproducible.
    ``max_iter`` budgets the solver's matvecs; when it runs out, the error
    carries the Rayleigh quotient of the last vector applied.  The returned
    pair must pass ||M v - λ v|| <= 10 * tol * λ * ||v||, where λ is the
    Rayleigh quotient of v, or `PowerIterationError` is raised.

    Returns (λ1, nonnegative vector on the full vertex set with isolated
    vertices at zero, the residual ||M v - λ v|| / ||v|| that certified it).
    """
    _require_edges(G)
    _check_solver_args(tol, max_iter)
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    live = G.degrees > 0
    calls = 0
    # the last vector applied and its product (NaN before the first product)
    last = np.full(1, math.nan), np.full(1, math.nan)

    def apply(x):
        nonlocal calls, last
        if calls == max_iter:
            raise _BudgetExhausted
        calls += 1
        y = G.matvec(x)
        # ARPACK reuses x's buffer, so keep a copy for the estimate
        last = x.copy(), y
        return y

    op = LinearOperator((G.k, G.k), matvec=apply, dtype=np.float64)
    try:
        _, vecs = eigsh(op, k=1, which="LA", v0=live.astype(np.float64),
                        tol=tol, maxiter=int(max_iter), rng=0)
    except (_BudgetExhausted, ArpackNoConvergence):
        x, y = last
        estimate = float(x @ y) / float(x @ x)
        raise PowerIterationError(
            f"no convergence within {max_iter} matvecs (last estimate {estimate})",
            estimate=estimate,
        ) from None
    v = vecs[:, 0]
    if v.sum() < 0.0:
        v = -v
    # the Perron vector is nonnegative; clear roundoff below zero
    v = np.where(live, np.maximum(v, 0.0), 0.0)
    mv = G.matvec(v)
    vv = float(v @ v)
    lam = float(v @ mv) / vv
    resid = float(np.linalg.norm(mv - lam * v))
    if not resid <= 10.0 * tol * lam * math.sqrt(vv):
        raise PowerIterationError(
            f"eigen-residual {resid:.3g} fails the certificate at λ = {lam!r}",
            estimate=lam,
        )
    return lam, v, resid / math.sqrt(vv)


def lambda1(
    G: AntipodalGraph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Largest adjacency eigenvalue, certified by its eigen-residual.

    Computed by `perron_pair` (Lanczos); ``max_iter`` is a budget on matvecs.
    """
    return perron_pair(G, tol, max_iter)[0]


def lambda1_bracket(
    G: AntipodalGraph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[float, float, float]:
    """Two-sided certificate (lower, upper, residual) for λ1.

    With v the Perron vector of `perron_pair`: lower is its Rayleigh
    quotient, which is at most λ1; upper is `collatz_wielandt_bound` at v
    floored at 2**-20 max(v), which keeps the near-zero entries off v's
    support (on a graph of two components) within the rounding range of the
    prefix sums (any positive x gives a bound, so the floor only loosens it);
    residual is ||M v - lower v|| / ||v||, within which of lower an
    eigenvalue lies.  Both ends hold up to the rounding of the products, so
    on a graph whose v is exact (a regular graph, say) lower may exceed
    upper by a few ulps.
    """
    lower, v, residual = perron_pair(G, tol, max_iter)
    upper = collatz_wielandt_bound(G, np.maximum(v, 2.0**-20 * v.max()))
    return lower, upper, residual


def collatz_wielandt_bound(G: AntipodalGraph, x: np.ndarray) -> float:
    """max_i (Mx)_i / x_i over non-isolated i, for finite x that is strictly
    positive there (a non-finite entry anywhere spoils the prefix sums of
    ``G.matvec``).

    For nonnegative M this dominates λ1(M) for every admissible x; the
    package's standard certificate is x_i = sqrt(d_i).  ``G.matvec`` sums a
    run as a difference of prefix sums, each within γ_n·Σ|x| (Higham, 2002,
    §4.2), so a large entry can swamp small ones: ValueError where that
    rounding over x_i could exceed 1e-6 of the value, which is otherwise at
    least λ1 / (1 + 1e-6 + 2**-53).
    """
    _require_edges(G)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (G.k,):
        raise ValueError(f"x must have shape ({G.k},)")
    live = _nonisolated(G)
    if not (np.isfinite(x).all() and (x[live] > 0.0).all()):
        raise ValueError("x must be finite, and strictly positive on non-isolated vertices")
    bound = float((G.matvec(x)[live] / x[live]).max())
    # row i takes two prefix sums per run and adds its runs: (3 runs + 1) γ_n
    runs = np.diff(G.run_ptr)[live]
    nu = (G.k + runs + 2) * (np.finfo(np.float64).eps / 2)
    if not ((3 * runs + 1) * nu / (1.0 - nu) * np.abs(x).sum() / x[live]).max() <= 1e-6 * bound:
        raise ValueError("x spans too wide a range for the prefix sums of G.matvec")
    return bound


def sqrt_degree_certificate(G: AntipodalGraph) -> np.ndarray:
    """The vector x with x_i = sqrt(d_i) (zero on isolated vertices)."""
    return np.sqrt(G.degrees.astype(np.float64))


def sqrt_degree_bound(G: AntipodalGraph) -> float:
    """max_i sqrt(sum of degrees over N(i)), non-isolated i only."""
    _require_edges(G)
    live = _nonisolated(G)
    return float(np.sqrt(G.neighborhood_degree_sums[live].max()))


def trace_bound(G: AntipodalGraph) -> float:
    """sqrt(2 |E|) = sqrt(tr(M^T M)) for a 0/1 symmetric adjacency."""
    _require_edges(G)
    return math.sqrt(2.0 * G.edge_count)


CHAIN_SLACK = 1e-9


def bound_chain(
    G: AntipodalGraph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BoundChainReport:
    """All four quantities plus the ordering sanity check."""
    _require_edges(G)
    lam = lambda1(G, tol, max_iter)
    cw = collatz_wielandt_bound(G, sqrt_degree_certificate(G))
    sdb = sqrt_degree_bound(G)
    trb = trace_bound(G)
    chain = (lam, cw, sdb, trb)
    for lo, hi in zip(chain, chain[1:]):
        if lo > hi * (1.0 + CHAIN_SLACK):
            raise RuntimeError(f"bound chain ordering violated: {chain}")
    return BoundChainReport(
        lambda1=lam,
        cw_bound=cw,
        sqrt_degree_bound=sdb,
        trace_bound=trb,
        k_effective=int(_nonisolated(G).size),
    )
