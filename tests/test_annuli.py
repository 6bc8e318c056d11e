import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antipodal import (
    AnnulusPairConfig,
    NegativeRadicandError,
    cover_count,
    intersection_vertices,
    spans,
    thickened_cover_count,
)
from antipodal import annuli, kernels
from antipodal.annuli import occupancy_grid

from conftest import LATTICE
from oracles import band_height_dense, two_circle_upper

LEMMA_GRID = [
    (d, eps)
    for eps in (0.001, 0.005, 0.01)
    for d in (4 * eps, 0.05, 0.1, 0.25, 0.5, 1.0)
    if d >= 4 * eps
]


def test_config_validation_errors():
    for d, eps in [(0.0, 0.01), (-0.5, 0.01), (1.5, 0.01), (0.5, 0.0), (0.5, 0.6)]:
        with pytest.raises(ValueError):
            AnnulusPairConfig(d=d, epsilon=eps)
    with pytest.raises(ValueError):
        AnnulusPairConfig(d=float("nan"), epsilon=0.01)


def test_negative_radicand_is_distinct_from_config_error():
    # d < eps: circles of the mixed pair no longer cross
    cfg = AnnulusPairConfig(d=0.005, epsilon=0.01)
    assert not cfg.meets_hypothesis
    with pytest.raises(NegativeRadicandError):
        intersection_vertices(cfg)


def test_vertices_frozen_values():
    v = intersection_vertices(AnnulusPairConfig(d=0.5, epsilon=0.01))
    assert v.axis_outer.y == pytest.approx(math.sqrt(3.75) / 2, abs=1e-15)
    assert v.axis_inner.y == pytest.approx(math.sqrt(3.6704) / 2, abs=1e-15)
    assert v.side_pos.x == pytest.approx(0.0199, abs=1e-15)
    v1 = intersection_vertices(AnnulusPairConfig(d=1.0, epsilon=0.01))
    assert v1.side_pos.x == pytest.approx(0.00995, abs=1e-15)


def test_side_vertices_mirror_exactly():
    for d, eps in LEMMA_GRID:
        v = intersection_vertices(AnnulusPairConfig(d=d, epsilon=eps))
        assert v.side_pos.x + v.side_neg.x == 0.0
        assert v.side_pos.y == v.side_neg.y


@pytest.mark.parametrize("d,eps", LEMMA_GRID)
def test_vertices_match_two_circle_oracle(d, eps):
    v = intersection_vertices(AnnulusPairConfig(d=d, epsilon=eps))
    x, y = two_circle_upper(-d / 2, 1.0, d / 2, 1.0)
    assert abs(v.axis_outer.x - x) < 1e-10 and abs(v.axis_outer.y - y) < 1e-10
    x, y = two_circle_upper(-d / 2, 1.0 - eps, d / 2, 1.0 - eps)
    assert abs(v.axis_inner.x - x) < 1e-10 and abs(v.axis_inner.y - y) < 1e-10
    x, y = two_circle_upper(-d / 2, 1.0, d / 2, 1.0 - eps)
    assert abs(v.side_pos.x - x) < 1e-10 and abs(v.side_pos.y - y) < 1e-10


@pytest.mark.parametrize("d,eps", LEMMA_GRID)
def test_vertices_lie_on_their_circles(d, eps):
    v = intersection_vertices(AnnulusPairConfig(d=d, epsilon=eps))

    def r(pt, cx):
        return math.hypot(pt.x - cx, pt.y)

    assert abs(r(v.axis_outer, -d / 2) - 1.0) < 1e-10
    assert abs(r(v.axis_outer, d / 2) - 1.0) < 1e-10
    assert abs(r(v.axis_inner, -d / 2) - (1 - eps)) < 1e-10
    assert abs(r(v.axis_inner, d / 2) - (1 - eps)) < 1e-10
    # side_pos: outer circle of the far (left) center, inner of the near one
    assert abs(r(v.side_pos, -d / 2) - 1.0) < 1e-10
    assert abs(r(v.side_pos, d / 2) - (1 - eps)) < 1e-10


def test_spans_frozen_width():
    w, h = spans(AnnulusPairConfig(d=0.5, epsilon=0.01))
    assert w == pytest.approx(0.0398, abs=1e-15)
    assert h == pytest.approx(0.010331, abs=1e-5)


@pytest.mark.parametrize("d,eps", LEMMA_GRID)
def test_spans_bounds_across_grid(d, eps):
    w, h = spans(AnnulusPairConfig(d=d, epsilon=eps))
    assert h < 1.2 * eps
    assert 1.9 <= w * d / eps <= 2.1


def _assert_height_is_dense_max(d, eps):
    cfg = AnnulusPairConfig(d=d, epsilon=eps)
    got = spans(cfg)[1]
    assert got == band_height_dense(d, eps, intersection_vertices(cfg).side_pos.x), (d, eps)


@pytest.mark.parametrize("d,eps", LATTICE)
def test_height_equals_the_dense_maximum_on_the_lattice(d, eps):
    _assert_height_is_dense_max(d, eps)


@settings(max_examples=150, deadline=None)
@given(eps=st.floats(1e-4, 0.49), frac=st.floats(0.0, 1.0, exclude_min=True))
def test_height_equals_the_dense_maximum(eps, frac):
    """The blocks left unevaluated never held the maximum: eps < d <= 1."""
    _assert_height_is_dense_max(eps + frac * (1.0 - eps), eps)


@pytest.mark.parametrize("seed", range(20))
def test_height_bound_holds_for_any_band_of_the_same_shape(monkeypatch, seed):
    """The region's own band thins away from x = 0, so its thickest samples
    sit at or next to the block ends nearest x = 0.  This band has the same
    shape (its top falls with |x|, its bottom rises to |x| = c and falls
    after) but is thickest at |x| = u, inside a block, so spans must skip
    only blocks that cannot hold the maximum."""
    cfg = AnnulusPairConfig(d=0.5, epsilon=0.01)
    side_x = intersection_vertices(cfg).side_pos.x
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.1, 1.0) * side_x
    c = rng.uniform(0.0, u / 4.0)

    def band(d, eps, xs):
        ax = np.abs(xs)
        return 1.0 - ax * ax, -2.0 * u * np.abs(ax - c)

    n = max(2, int(math.ceil(2.0 * side_x / (cfg.epsilon / 100.0))) + 1)
    top, bot = band(cfg.d, cfg.epsilon, np.linspace(-side_x, side_x, n))
    monkeypatch.setattr(annuli, "_band_heights", band)
    assert spans(cfg)[1] == float(np.maximum(top - bot, 0.0).max())


def _assert_spans_reads_linspace(monkeypatch, d, eps):
    """spans computes only the samples it reads, and they are those of the
    whole np.linspace bit for bit: every sample of `annuli._linspace`, and
    the block ends of the linspace cut at its first sample >= 0 (the first
    abscissae spans hands `_band_heights`).  Returns that first index less
    the middle one."""
    cfg = AnnulusPairConfig(d=d, epsilon=eps)
    side_x = intersection_vertices(cfg).side_pos.x
    n = max(2, int(math.ceil(2.0 * side_x / (eps / 100.0))) + 1)
    xs = np.linspace(-side_x, side_x, n)
    assert annuli._linspace(-side_x, side_x, n)(np.arange(n)).tobytes() == xs.tobytes()
    neg = int(np.searchsorted(xs, 0.0))
    starts = np.concatenate([np.arange(0, neg, annuli._SPAN_BLOCK),
                             np.arange(neg, n, annuli._SPAN_BLOCK)])
    stops = np.append(starts[1:], n)
    read = []
    band_heights = annuli._band_heights

    def spy(d, eps, x):
        read.append(x)
        return band_heights(d, eps, x)

    monkeypatch.setattr(annuli, "_band_heights", spy)
    spans(cfg)
    assert read[0].tobytes() == xs[[starts, stops - 1]].tobytes()
    for x in read[1:]:
        assert xs[np.searchsorted(xs, x)].tobytes() == x.tobytes()
    return neg - n // 2


@pytest.mark.parametrize("d,eps", LATTICE)
def test_spans_reads_linspace_samples_on_the_lattice(monkeypatch, d, eps):
    assert _assert_spans_reads_linspace(monkeypatch, d, eps) == 0


@pytest.mark.parametrize("d,eps", [(0.13728619793023444, 0.014848319190131389),
                                   (0.46300794971696024, 0.42960078886643416)])
def test_spans_steps_past_a_middle_sample_below_zero(monkeypatch, d, eps):
    """An odd sample count whose middle sample rounds below 0: the first
    sample >= 0 is the next one."""
    assert _assert_spans_reads_linspace(monkeypatch, d, eps) == 1


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.integers(2, 5000))
def test_linspace_samples_match_numpy(start, stop, num):
    """`annuli._linspace` equals np.linspace bit for bit at every index,
    wherever the step is nonzero."""
    assume((stop - start) / (num - 1) != 0.0)
    want = np.linspace(start, stop, num)
    assert annuli._linspace(start, stop, num)(np.arange(num)).tobytes() == want.tobytes()
    i = int(num // 3)
    assert float(annuli._linspace(start, stop, num)(i)) == want[i]


@pytest.mark.parametrize("d,eps", LEMMA_GRID)
def test_cover_nonempty_when_circles_cross(d, eps):
    assert cover_count(AnnulusPairConfig(d=d, epsilon=eps)) >= 1


def test_cover_frozen_values():
    # rasterization oracle outputs, pinned (origin-anchored cells, 8x8
    # interior samples)
    assert cover_count(AnnulusPairConfig(d=0.5, epsilon=0.01)) == 18
    assert cover_count(AnnulusPairConfig(d=0.25, epsilon=0.01)) == 32
    assert cover_count(AnnulusPairConfig(d=1.0, epsilon=0.001)) == 10


@pytest.mark.parametrize("res", [0, -3, 2.9, 8.0, True], ids=["0", "-3", "2.9", "8.0", "True"])
def test_resolution_must_be_an_integer_at_least_one(res):
    """A resolution of 0 or below counted 0 cells, and 2.9 counted at 2."""
    cfg = AnnulusPairConfig(0.5, 0.01)
    for count in (lambda: cover_count(cfg, res), lambda: occupancy_grid(cfg, res),
                  lambda: thickened_cover_count(0.5, 0.01, res),
                  lambda: kernels.annuli_occupancy_grid(0.5, 0.99, 1.0, 0.005, -1, 1, 0, 1, res)):
        with pytest.raises(ValueError, match="resolution"):
            count()


def test_integer_resolutions_still_count():
    cfg = AnnulusPairConfig(0.5, 0.01)
    assert cover_count(cfg, 8) == cover_count(cfg, np.int64(8)) == 18
    assert cover_count(cfg, 1) >= 1
    assert thickened_cover_count(0.5, 0.01, 8) == 102


def test_cover_stable_under_epsilon_doubling():
    a = cover_count(AnnulusPairConfig(d=0.5, epsilon=0.005))
    b = cover_count(AnnulusPairConfig(d=0.5, epsilon=0.01))
    assert 1 / 3 <= b / a <= 3


def test_occupancy_grid_mirror_symmetric():
    for d, eps in [(0.5, 0.01), (0.1, 0.005), (0.04, 0.01)]:
        grid = occupancy_grid(AnnulusPairConfig(d=d, epsilon=eps))
        assert np.array_equal(grid, grid[:, ::-1])


def test_thickened_contains_lemma_region():
    for d, eps in [(0.5, 0.005), (0.25, 0.01), (1.0, 0.001), (0.5, 0.01)]:
        t = thickened_cover_count(d, eps)
        c = cover_count(AnnulusPairConfig(d=d, epsilon=eps))
        assert t >= c


def test_thickened_frozen_values_and_scaling():
    # same ε/2 raster as cover_count; the thickened band is ~3x wider and
    # ~3x taller, so the per-1/d constant lands near 50-60 (not the lemma's 10)
    assert thickened_cover_count(0.5, 0.005) == 100
    assert thickened_cover_count(1.0, 0.001) == 58
    for d, eps in [(0.5, 0.005), (0.25, 0.01), (0.12, 0.01), (1.0, 0.001)]:
        assert thickened_cover_count(d, eps) * d <= 65.0


def test_thickened_hypothesis_rejection():
    with pytest.raises(ValueError):
        thickened_cover_count(0.1, 0.01)  # d < 12*eps
    with pytest.raises(ValueError):
        thickened_cover_count(1.2, 0.01)


def test_thickened_union_containment_sampling():
    # any annulus with center in the ε/2 box around (-d/2, 0) and radii
    # [1-eps, 1] stays inside the thickened annulus (radii [1-2eps, 1+eps])
    gen = np.random.default_rng(123)
    for d, eps in [(0.5, 0.01), (0.25, 0.02), (0.9, 0.005)]:
        half = eps / 4  # box side eps/2
        centers = np.column_stack(
            [
                -d / 2 + gen.uniform(-half, half, 10_000),
                gen.uniform(-half, half, 10_000),
            ]
        )
        radii = gen.uniform(1 - eps, 1.0, 10_000)
        angles = gen.uniform(0, 2 * math.pi, 10_000)
        pts = centers + np.column_stack(
            [radii * np.cos(angles), radii * np.sin(angles)]
        )
        dist = np.hypot(pts[:, 0] + d / 2, pts[:, 1])
        assert float(dist.min()) >= 1 - 2 * eps
        assert float(dist.max()) <= 1 + eps
