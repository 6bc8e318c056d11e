import math

import numpy as np
import pytest

from antipodal import (
    GeneratorSpec,
    arc_center_config,
    circle_config,
    diameter,
    make_config,
    pair_counts,
    random_disk_config,
    ratio_margin,
    reuleaux_boundary_config,
)
from antipodal.generators import GENERATOR_KINDS


def test_circle_two_points():
    ps = circle_config(2)
    assert ps.coords[0] == pytest.approx((0.5, 0.0), abs=1e-12)
    assert ps.coords[1] == pytest.approx((-0.5, 0.0), abs=1e-12)


def test_circle_square_distance_multiset():
    ps = circle_config(4)
    d = sorted(
        math.dist(ps.points[i], ps.points[j]) for i in range(4) for j in range(i + 1, 4)
    )
    assert d[:4] == pytest.approx([math.sqrt(2) / 2] * 4, abs=1e-12)
    assert d[4:] == pytest.approx([1.0, 1.0], abs=1e-12)


def test_circle_mean_neighbor_count():
    c = pair_counts(circle_config(2000), 0.01)
    per_point = 2 * c.neighbors / 2000
    # frozen: 12.0 exactly (6 lattice steps per side); the continuum estimate
    # 2*eps*n/pi = 12.73 overshoots by the floor quantization
    assert per_point == 12.0
    assert abs(per_point - 2 * 0.01 * 2000 / math.pi) / (2 * 0.01 * 2000 / math.pi) < 0.08


def test_arc_center_split_counts():
    ps = arc_center_config(100, 0.04)
    assert ps.n == 100
    near_origin = np.hypot(ps.coords[:, 0], ps.coords[:, 1]) < 0.5
    assert int(near_origin.sum()) == 20  # floor(0.2 * 100)
    assert int((~near_origin).sum()) == 80


def test_arc_center_diameter_pinned_by_endpoint_chord():
    for n, eps in [(100, 0.04), (500, 0.01), (2000, 0.08)]:
        assert abs(diameter(arc_center_config(n, eps)) - 1.0) <= 1e-9


def test_arc_center_antipode_structure():
    n, eps = 2000, 0.01
    ps = arc_center_config(n, eps)
    m = int(math.floor(math.sqrt(eps) * n))
    c = pair_counts(ps, eps)
    # every center-arc pair is antipodal; a small sliver of arc-arc pairs adds on top
    assert c.antipodes >= m * (n - m)
    assert c.antipodes == 360210  # frozen oracle value
    margin = ratio_margin(c)
    assert margin == pytest.approx(2.9994434226031967, rel=1e-12)
    assert 0.5 <= margin <= 3.0


def test_arc_center_cluster_pairs_are_neighbors():
    n, eps = 400, 0.02
    ps = arc_center_config(n, eps)
    m = int(math.floor(math.sqrt(eps) * n))
    cluster = ps.coords[:m]
    d = np.sqrt(((cluster[:, None] - cluster[None, :]) ** 2).sum(-1))
    assert float(d.max()) <= eps


def test_arc_center_degenerate_when_no_cluster():
    with pytest.raises(ValueError):
        arc_center_config(20, 0.0001)  # floor(sqrt(eps)*n) = 0


def test_arc_center_degenerate_when_no_arc_is_left():
    with pytest.raises(ValueError, match="only 1 arc point"):
        arc_center_config(2, 0.3)  # floor(sqrt(eps)*n) = 1 cluster point of 2


def test_random_disk_deterministic_and_contained():
    a = random_disk_config(1000, seed=42)
    b = random_disk_config(1000, seed=42)
    assert np.array_equal(a.coords, b.coords)
    assert diameter(a) <= 1.0
    assert float(np.hypot(a.coords[:, 0], a.coords[:, 1]).max()) <= 0.5


def test_random_disk_margin_respects_frozen_floor():
    ps = random_disk_config(1000, seed=42)
    c = pair_counts(ps, 0.05)
    assert c.antipodes >= 1
    assert ratio_margin(c) >= 0.05  # the acceptance floor


def test_reuleaux_width_one_and_deterministic():
    for seed in (0, 3, 9):
        ps = reuleaux_boundary_config(800, seed=seed)
        assert diameter(ps) <= 1.0 + 1e-9
    a = reuleaux_boundary_config(300, seed=5)
    b = reuleaux_boundary_config(300, seed=5)
    assert np.array_equal(a.coords, b.coords)


def test_reuleaux_margin_positive_and_finite():
    c = pair_counts(reuleaux_boundary_config(1500, seed=3), 0.02)
    m = ratio_margin(c)
    assert m > 0.0 and math.isfinite(m)


def test_every_generator_respects_diameter_bound():
    configs = [
        circle_config(251),
        arc_center_config(300, 0.03),
        random_disk_config(400, seed=8),
        reuleaux_boundary_config(400, seed=8),
    ]
    for ps in configs:
        assert diameter(ps) <= 1.0 + 1e-9


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("spiral", 100)
    with pytest.raises(ValueError):
        GeneratorSpec("circle", 1)
    with pytest.raises(ValueError):
        GeneratorSpec("arc_center", 100)  # missing epsilon
    with pytest.raises(ValueError):
        GeneratorSpec("random_disk", 100)  # missing seed


GENERATORS = {
    "circle": circle_config,
    "arc_center": lambda n: arc_center_config(n, 0.04),
    "random_disk": lambda n: random_disk_config(n, 1),
    "reuleaux_boundary": lambda n: reuleaux_boundary_config(n, 1),
}


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_size_must_be_an_integer_of_at_least_two(kind):
    """circle_config(2.5) once returned 3 unevenly spaced points, and
    GeneratorSpec("circle", 2.5) was accepted: a non-integer n raises
    TypeError, an n below 2 ValueError, and an integer of any type is taken
    as a Python int."""
    knobs = {"arc_center": {"epsilon": 0.04}, "random_disk": {"seed": 1},
             "reuleaux_boundary": {"seed": 1}}.get(kind, {})
    for bad in (2.5, 100.0, "100", None):
        with pytest.raises(TypeError):
            GENERATORS[kind](bad)
        with pytest.raises(TypeError):
            GeneratorSpec(kind, bad, **knobs)
    for bad in (1, 0, -3, False):
        with pytest.raises(ValueError):
            GENERATORS[kind](bad)
        with pytest.raises(ValueError):
            GeneratorSpec(kind, bad, **knobs)
    spec = GeneratorSpec(kind, np.int64(100), **knobs)
    assert type(spec.n) is int and spec.n == 100
    assert make_config(spec).n == GENERATORS[kind](np.int64(100)).n == 100


def test_make_config_dispatch():
    assert make_config(GeneratorSpec("circle", 10)).n == 10
    assert make_config(GeneratorSpec("arc_center", 100, epsilon=0.04)).n == 100
    assert make_config(GeneratorSpec("random_disk", 10, seed=1)).n == 10
    assert make_config(GeneratorSpec("reuleaux_boundary", 10, seed=1)).n == 10
