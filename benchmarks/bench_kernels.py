"""Wall-clock comparison of the numba kernels against the pure-NumPy fallback.

Runs every hot kernel on acceptance-scale inputs under both paths and prints
a table with the speedup.  Kernels with a single NumPy path read the same in
both columns.  The numba path gets one unmeasured warm-up call so
JIT compilation is excluded from the timings.

Run:

    python benchmarks/bench_kernels.py

If numba is unavailable only the NumPy column is reported.  The "csr matvec"
row times `AntipodalGraph.matvec`, the SciPy product the package runs, and the
"max_scaled_tail" row times the tail constant from row blocks of the sparse
product A·A, so both read the same under both paths, as does the "box
adjacency" row: one NumPy path on the spectral sweep's largest graph (circle,
ε = 1/1024, k = 6434).  The "annuli occupancy" rows time the bisected 8×8
sampled occupancy grid on a 641×25-cell window and on the cover window at
d = 4e-4, ε = 1e-4 (10002×639 cells).
"""

import statistics
import time

import numpy as np

from antipodal import kernels
from antipodal.annuli import AnnulusPairConfig, occupancy_grid
from antipodal.boundary import build_graph, discretize_boundary, max_scaled_tail
from antipodal.generators import circle_config
from antipodal.geometry import convex_hull
from antipodal.harness import DEFAULT_RATIO_GRID

REPEATS = 3


def _make_inputs():
    rng = np.random.default_rng(42)
    pts = rng.random((4000, 2)) - 0.5
    circle = circle_config(10_000)
    hull = convex_hull(circle)
    boxing = discretize_boundary(hull, 1 / 512)
    graph = build_graph(boxing)
    graph.csr  # build the SciPy matrix outside the timings
    x = rng.random(graph.k)
    return {
        "points": pts,
        "circle": circle.coords,
        "boxing": boxing,
        "adjacency_boxing": discretize_boundary(hull, 1 / 1024),
        "graph": graph,
        "x": x,
    }


def _benchmarks(data):
    boxing = data["boxing"]
    graph = data["graph"]
    big = data["adjacency_boxing"]

    def pair_counts():
        return kernels.pair_grid_counts(data["points"], DEFAULT_RATIO_GRID)

    def diameter():
        return kernels.max_pairwise_distance_sq(data["circle"])

    def adjacency():
        return kernels.box_adjacency_csr(
            big.centers[:, 0].copy(), big.centers[:, 1].copy(),
            big.side, big.epsilon,
        )

    def matvec_x200():
        y = data["x"]
        for _ in range(200):
            y = graph.matvec(y)
            y = y / np.linalg.norm(y)
        return y

    def scaled_tail():
        return max_scaled_tail(boxing, graph)

    def occupancy():
        return kernels.annuli_occupancy_grid(
            0.05, 1 - 0.005, 1.0, 0.0025, -320, 320, 380, 404, 8
        )

    def occupancy_small_eps():
        return occupancy_grid(AnnulusPairConfig(d=4e-4, epsilon=1e-4))

    return {
        "pair counts, 5-ε grid (n=4000)": pair_counts,
        "diameter (circle, n=10000)": diameter,
        f"box adjacency (k={big.k})": adjacency,
        "csr matvec x200": matvec_x200,
        f"max_scaled_tail (k={graph.k})": scaled_tail,
        "annuli occupancy (d=0.05)": occupancy,
        "annuli occupancy (d=4e-4, ε=1e-4)": occupancy_small_eps,
    }


def _time(fn):
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def main():
    data = _make_inputs()
    benches = _benchmarks(data)

    timings = {}
    for use_numba in (False, True):
        if use_numba and not kernels.HAVE_NUMBA:
            print("numba not importable; skipping the jit column")
            continue
        kernels.USE_NUMBA = use_numba
        label = "numba" if use_numba else "numpy"
        if use_numba:
            for fn in benches.values():
                fn()  # warm-up: trigger compilation outside the timer
        timings[label] = {name: _time(fn) for name, fn in benches.items()}

    width = max(map(len, benches)) + 2
    header = f"{'kernel':{width}s} {'numpy (s)':>12s} {'numba (s)':>12s} {'speedup':>9s}"
    print(header)
    print("-" * len(header))
    for name in benches:
        t_np = timings["numpy"][name]
        if "numba" in timings:
            t_nb = timings["numba"][name]
            print(f"{name:{width}s} {t_np:12.5f} {t_nb:12.5f} {t_np / t_nb:8.1f}x")
        else:
            print(f"{name:{width}s} {t_np:12.5f} {'-':>12s} {'-':>9s}")


if __name__ == "__main__":
    main()
