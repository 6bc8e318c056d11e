"""The certified occupancy grid equals the full res x res sample evaluation
(`oracles.occupancy_raster_brute`) cell for cell, on cover windows, on
arbitrary windows and radii, and on windows with sample rows below y = 0;
near the smallest admissible ε it also equals the same samples decided in
exact arithmetic (`oracles.occupancy_exact_brute`)."""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import AnnulusPairConfig, cover_count, kernels
from antipodal.annuli import occupancy_grid, thickened_cover_count

from conftest import LATTICE
from oracles import occupancy_exact_brute, occupancy_raster_brute


@contextlib.contextmanager
def recorded_windows():
    """Record the kernel arguments of every occupancy grid the package asks for."""
    calls = []
    kernel = kernels.annuli_occupancy_grid

    def record(*args):
        calls.append(args)
        return kernel(*args)

    kernels.annuli_occupancy_grid = record
    try:
        yield calls
    finally:
        kernels.annuli_occupancy_grid = kernel


def _assert_matches_oracle(args):
    grid = kernels.annuli_occupancy_grid(*args)
    want = occupancy_raster_brute(*args)
    assert grid.dtype == np.bool_
    assert np.array_equal(grid, want), args


def test_benchmark_lattice_windows():
    with recorded_windows() as windows:
        for d, eps in LATTICE:
            cover_count(AnnulusPairConfig(d=d, epsilon=eps))
            if d >= 12 * eps:
                thickened_cover_count(d, eps)
    assert len(windows) == 52
    for args in windows:
        _assert_matches_oracle(args)


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(0.004, 0.49),
    frac=st.floats(0.0, 1.0),
    res=st.sampled_from([1, 2, 3, 4, 8, 16]),
)
def test_cover_windows_at_every_resolution(eps, frac, res):
    d = min(1.0, 4 * eps + frac * (1.0 - 4 * eps))
    with recorded_windows() as windows:
        occupancy_grid(AnnulusPairConfig(d=d, epsilon=eps), res)
    _assert_matches_oracle(windows[0])


@settings(max_examples=150, deadline=None)
@given(
    d=st.floats(0.0, 2.0),
    r_in=st.floats(0.0, 1.5),
    width=st.floats(0.0, 1.0),
    pitch=st.floats(0.01, 0.3),
    ix0=st.integers(-30, 10),
    iy0=st.integers(-30, 10),
    ncol=st.integers(1, 30),
    nrow=st.integers(1, 30),
    res=st.sampled_from([1, 2, 3, 4, 8, 16]),
    symmetric=st.booleans(),
)
def test_arbitrary_windows(d, r_in, width, pitch, ix0, iy0, ncol, nrow, res, symmetric):
    """A symmetric window (ix0 = -ix1 - 1) at a power-of-two res is painted
    for its right half and mirrored; every other window in full."""
    if symmetric:
        ix0, ncol = -ncol, 2 * ncol
    _assert_matches_oracle(
        (d, r_in, r_in + width, pitch, ix0, ix0 + ncol - 1, iy0, iy0 + nrow - 1, res)
    )


def test_float_membership_matches_exact_arithmetic():
    # at eps = 3.2e-15 the squared radii are a few dozen ulps apart, and the
    # cover is 12 against 10 at 1e-14: the samples decide that, not rounding
    with recorded_windows() as windows:
        for eps in (3.2e-15, 5e-15, 1e-14, 1e-13, 1e-12, 0.01, 0.05):
            cover_count(AnnulusPairConfig(d=1.0, epsilon=eps))
        for d, eps in [(1.0, 0.01), (0.5, 0.01), (1.0, 1e-14)]:
            thickened_cover_count(d, eps)
    covers = [int(kernels.annuli_occupancy_grid(*args).sum()) for args in windows]
    assert covers[:3] == [12, 10, 10]
    for args in windows:
        assert np.array_equal(kernels.annuli_occupancy_grid(*args),
                              occupancy_exact_brute(*args)), args


@pytest.mark.parametrize("d,r_in,r_out", [(1.25, 0.625, 2.0), (0.75, 0.0, 0.625)])
def test_inclusive_radii(d, r_in, r_out):
    # pitch 1/4, one sample per cell: the samples (+-1/8, +-3/8) lie exactly
    # 5/8 from one center, on the inner (first case) or outer circle
    args = (d, r_in, r_out, 0.25, -4, 4, -4, 4, 1)
    grid = kernels.annuli_occupancy_grid(*args)
    assert grid[[5, 5, 2, 2], [3, 4, 3, 4]].all()
    _assert_matches_oracle(args)


def test_symmetric_window_at_res_3_is_painted_in_full():
    """At res 3 the samples of column -1 are not those of column 0 negated:
    fl(1/6) * 0.1 = 0.016666666666666666 but (-1 + fl(5/6)) * 0.1 =
    -0.016666666666666663.  A ring (d = 0) through the first one occupies
    cell column 0 only, which a mirrored window would copy to column -1."""
    args = (0.0, 0.023570226039551584, 0.023570226039551584, 0.1, -1, 0, 0, 0, 3)
    assert kernels.annuli_occupancy_grid(*args).tolist() == [[False, True]]
    _assert_matches_oracle(args)


@pytest.mark.parametrize("res", [1, 3, 8, 16])
def test_windows_below_the_axis(res):
    with recorded_windows() as windows:
        for d in (0.9, 1.0):
            for eps in (0.3, 0.45, 0.49):
                occupancy_grid(AnnulusPairConfig(d=d, epsilon=eps), res)
    assert any(args[6] < 0 for args in windows)
    for args in windows:
        _assert_matches_oracle(args)


@pytest.mark.parametrize("res", [1, 3, 16])
def test_padded_window_with_empty_columns(res):
    # res 8 is test_kernels.py::test_occupancy_agrees_exactly
    for d, eps in [(0.5, 0.01), (1.0, 0.01), (0.04, 0.01), (0.02, 0.005)]:
        _assert_matches_oracle((d, 1 - eps, 1.0, eps / 2, -80, 80, 150, 220, res))


def test_small_epsilon_cover_stays_small():
    """At (d, eps) = (4e-4, 1e-4) the window holds 6.39 M cells; the full
    8 x 8 evaluation would need two 3 GiB sample arrays."""
    cfg = AnnulusPairConfig(d=4e-4, epsilon=1e-4)
    tracemalloc.start()
    try:
        with recorded_windows() as windows:
            count = cover_count(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20
    d, r_in, r_out, pitch, ix0, ix1, iy0, iy1, res = windows[0]
    grid = kernels.annuli_occupancy_grid(*windows[0])
    assert grid.size > 6_000_000
    assert int(grid.sum()) == count
    assert np.array_equal(grid, grid[:, ::-1])
    mid = (ix0 + ix1) // 2
    for a, b in [(ix0, ix0 + 40), (mid - 20, mid + 20), (ix1 - 40, ix1)]:
        want = occupancy_raster_brute(d, r_in, r_out, pitch, a, b, iy0, iy1, res)
        assert want.any()
        assert np.array_equal(grid[:, a - ix0 : b - ix0 + 1], want)


def test_small_epsilon_cover_memory_is_the_grid():
    """At (d, eps) = (4e-4, 1e-4) the grid takes 6.1 MiB, and the tracemalloc
    peak of building it stays within twice that plus 1 MiB: the runs are
    painted straight into the boolean grid, and the transient sample columns
    and runs of one half window take less than the grid.  The int32
    difference array the grid was once summed from peaked at 6x the grid."""
    cfg = AnnulusPairConfig(d=4e-4, epsilon=1e-4)
    tracemalloc.start()
    try:
        grid = occupancy_grid(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * grid.nbytes + 2**20


@pytest.mark.parametrize("pitch", [-0.005, 0.0, float("nan"), float("inf")])
def test_pitch_must_be_finite_and_positive(pitch):
    """At pitch -0.005 the sample ordinates fall with the row index, and the
    window below counted 0 cells where the samples hold 18."""
    with pytest.raises(ValueError, match="pitch"):
        kernels.annuli_occupancy_grid(0.5, 0.99, 1.0, pitch, -12, 12, -210, -150)


@pytest.mark.parametrize("which", [0, 1, 2])
def test_nan_center_distance_and_radii_are_refused(which):
    """A NaN outer radius marked cells that no sample lies in."""
    args = [0.5, 0.99, 1.0]
    args[which] = float("nan")
    with pytest.raises(ValueError, match="NaN"):
        kernels.annuli_occupancy_grid(*args, 0.005, -12, 12, 150, 210)


def _first_rows_brute(seg, c, r, side):
    hit = np.greater_equal if side == "left" else np.greater
    return np.array([next((t for t, s in enumerate(seg) if hit(cj + s, r)), len(seg))
                     for cj in c])


def _check_first_rows(seg, c, r, side):
    seg = np.asarray(seg, np.float64)
    c = np.asarray(c, np.float64)
    got = kernels._first_rows(seg, c, r, side)
    assert got.tolist() == _first_rows_brute(seg, c, r, side).tolist()
    return got - np.searchsorted(seg, r - c, side)


def test_walk_moves_a_late_guess_down():
    # fl(1 + 2**-53) == 1 < r, but fl(1 + 1.5 * 2**-53) == r: row 1, not 2
    seg = [2.0**-53, 1.5 * 2.0**-53]
    assert _check_first_rows(seg, [1.0], 1.0 + 2.0**-52, "left").tolist() == [-1]


def test_walk_moves_an_early_guess_up():
    # s = fl(r - c), but fl(c + s) rounds to just below r
    r, c = 0.5218788976852041, 0.012791715885056398
    s = r - c
    assert s == 0.5090871818001477 and c + s < r
    seg = [0.0, s, np.nextafter(s, 1.0), 1.0]
    assert _check_first_rows(seg, [c], r, "left").tolist() == [1]


def test_first_rows_at_both_ends_and_on_an_empty_segment():
    seg = np.linspace(0.0, 1.0, 7) ** 2
    for side in ("left", "right"):
        assert kernels._first_rows(seg, np.array([0.0, 0.5]), 5.0, side).tolist() == [7, 7]
        assert kernels._first_rows(seg, np.array([0.0, 0.5]), -1.0, side).tolist() == [0, 0]
        assert kernels._first_rows(np.empty(0), np.array([0.0, 0.5]), 0.5, side).tolist() == [0, 0]
        _check_first_rows(seg, [0.0, 0.5, 1.0], 1.0, side)


@pytest.mark.parametrize("side", ["left", "right"])
def test_walk_on_rounding_ties(side):
    """Segments of the few floats about fl(r - c): the walk moves guesses
    both ways and lands on the brute-force first row."""
    rng = np.random.default_rng(7)
    moves = set()
    for _ in range(200):
        r = rng.uniform(0.25, 1.0)
        c = rng.uniform(0.0, 0.25, 4)
        near = [np.nextafter(r - cj, k * np.inf) for cj in c for k in (-1, 1)]
        seg = np.unique(np.concatenate([r - c, near]))
        moves.update(_check_first_rows(seg, c, r, side).tolist())
    assert {-1, 1} <= moves


def test_walk_is_short_and_live_on_the_cover_windows():
    """Over the lattice, below-the-axis and smallest-ε windows at res 1, 3,
    8 and 16, each guess moves at most one row (two rounds per call), and
    some guesses do move."""
    with recorded_windows() as windows:
        for d, eps in LATTICE:
            cover_count(AnnulusPairConfig(d=d, epsilon=eps))
            if d >= 12 * eps:
                thickened_cover_count(d, eps)
        for d in (0.9, 1.0):
            for eps in (0.3, 0.45, 0.49):
                occupancy_grid(AnnulusPairConfig(d=d, epsilon=eps))
        for eps in (3.2e-15, 5e-15, 1e-14):
            occupancy_grid(AnnulusPairConfig(d=1.0, epsilon=eps))
    helper = kernels._first_rows
    moved = []

    def spy(seg, c, r, side):
        t = helper(seg, c, r, side)
        moved.append(np.abs(t - np.searchsorted(seg, r - c, side)))
        return t

    kernels._first_rows = spy
    try:
        for res in (1, 3, 8, 16):
            for args in windows:
                if max(map(abs, args[4:8])) * 2 * res < 2**53:
                    kernels.annuli_occupancy_grid(*args[:8], res)
    finally:
        kernels._first_rows = helper
    assert max(int(m.max()) for m in moved) <= 1
    assert sum(int(np.count_nonzero(m)) for m in moved) > 0
