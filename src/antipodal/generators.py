"""Deterministic constructors for extremal and stress point configurations.

All generators return a PointSet certified to have diameter <= 1 + 1e-9.
Randomized generators draw from numpy's PCG64 (`numpy.random.default_rng`),
a documented counter-based generator, so outputs are reproducible functions
of (n, seed) across platforms.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .geometry import PointSet, _check_epsilon

GENERATOR_KINDS = ("circle", "arc_center", "random_disk", "reuleaux_boundary")


def _check_n(n, who: str) -> int:
    """n as a point count: TypeError unless an integer, ValueError below 2."""
    n = operator.index(n)
    if n < 2:
        raise ValueError(f"{who} needs n >= 2")
    return n


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one configuration: kind, size, and kind-specific knobs.

    epsilon is consumed only by arc_center (its construction depends on the
    threshold); seed only by the randomized kinds.
    """

    kind: str
    n: int
    epsilon: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        object.__setattr__(self, "n", _check_n(self.n, "a generator"))
        if self.kind == "arc_center" and self.epsilon is None:
            raise ValueError("arc_center requires epsilon")
        if self.kind in ("random_disk", "reuleaux_boundary") and self.seed is None:
            raise ValueError(f"{self.kind} requires a seed")

    def label(self) -> str:
        if self.seed is not None:
            return f"{self.kind}(n={self.n},seed={self.seed})"
        return f"{self.kind}(n={self.n})"


def circle_config(n: int) -> PointSet:
    """n points evenly spaced on the circle of diameter 1 (radius 1/2)."""
    n = _check_n(n, "circle_config")
    t = np.arange(n, dtype=np.float64)
    ang = 2.0 * np.pi * t / n
    coords = np.column_stack([0.5 * np.cos(ang), 0.5 * np.sin(ang)])
    return PointSet(coords, normalized=True)


def arc_center_config(n: int, epsilon: float) -> PointSet:
    """floor(sqrt(eps)*n) clustered center points plus an arc of the rest.

    The arc has radius 1, angular width pi/3, and is centered on the positive
    x-axis; its endpoints are included, so the endpoint chord pins the
    diameter at exactly 1.  The m cluster points sit on a micro-grid of pitch
    <= eps/100 near the circle center, nudged slightly toward the arc so that
    every cluster point stays within distance 1 of every arc point while all
    cluster-arc pairs remain antipodal (>= 1 - eps) and all cluster pairs
    remain neighbors (<= eps).
    """
    n = _check_n(n, "arc_center_config")
    epsilon = _check_epsilon(epsilon)
    m = int(math.floor(math.sqrt(epsilon) * n))
    if m < 1:
        raise ValueError(
            f"floor(sqrt(eps)*n) = 0 for n={n}, eps={epsilon}: configuration degenerates"
        )
    arc_n = n - m
    if arc_n < 2:
        raise ValueError(
            f"only {arc_n} arc point(s) left for n={n}, eps={epsilon}: "
            "configuration degenerates"
        )

    q = math.ceil(math.sqrt(m))
    pitch = min(epsilon / 100.0, epsilon / (8.0 * q))
    # offsetting the grid center by 3*pitch*q keeps every cluster point inside
    # the unit disk around every arc point while |cluster point| <= 0.47*eps
    x0 = 3.0 * pitch * q
    idx = np.arange(m)
    gx = (idx % q) - (q - 1) / 2.0
    gy = (idx // q) - (q - 1) / 2.0
    cluster = np.column_stack([x0 + gx * pitch, gy * pitch])

    ang = -np.pi / 6.0 + (np.pi / 3.0) * np.arange(arc_n) / (arc_n - 1)
    arc = np.column_stack([np.cos(ang), np.sin(ang)])
    return PointSet(np.vstack([cluster, arc]), normalized=True)


def random_disk_config(n: int, seed: int) -> PointSet:
    """n i.i.d. uniform points in the closed disk of diameter 1."""
    n = _check_n(n, "random_disk_config")
    rng = np.random.default_rng(seed)
    r = 0.5 * np.sqrt(rng.random(n))
    ang = 2.0 * np.pi * rng.random(n)
    coords = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    return PointSet(coords, normalized=True)


_REULEAUX_VERTICES = np.array(
    [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]
)
_REULEAUX_CENTROID = _REULEAUX_VERTICES.mean(axis=0)


def reuleaux_boundary_config(n: int, seed: int) -> PointSet:
    """n points uniform by arc length on the width-1 Reuleaux triangle boundary.

    The boundary is three radius-1 arcs of angle pi/3, each centered at one
    vertex of a unit equilateral triangle and joining the other two; total
    length pi.  The body is recentered at its centroid.
    """
    n = _check_n(n, "reuleaux_boundary_config")
    rng = np.random.default_rng(seed)
    u = rng.random(n) * np.pi
    arc_idx = np.minimum((u // (np.pi / 3.0)).astype(np.int64), 2)
    local = u - arc_idx * (np.pi / 3.0)
    # arc centered at vertex v runs from vertex v+1 to vertex v+2; the start
    # angle is the direction from v to v+1
    starts = np.empty(3)
    for v in range(3):
        a = _REULEAUX_VERTICES[(v + 1) % 3] - _REULEAUX_VERTICES[v]
        starts[v] = math.atan2(a[1], a[0])
    ang = starts[arc_idx] + local
    centers = _REULEAUX_VERTICES[arc_idx]
    coords = centers + np.column_stack([np.cos(ang), np.sin(ang)])
    coords -= _REULEAUX_CENTROID
    return PointSet(coords, normalized=True)


def make_config(spec: GeneratorSpec, epsilon: float | None = None) -> PointSet:
    """Instantiate a GeneratorSpec; epsilon overrides its stored value for
    arc_center."""
    if spec.kind == "circle":
        return circle_config(spec.n)
    if spec.kind == "arc_center":
        eps = epsilon if epsilon is not None else spec.epsilon
        return arc_center_config(spec.n, eps)
    if spec.kind == "random_disk":
        return random_disk_config(spec.n, spec.seed)
    return reuleaux_boundary_config(spec.n, spec.seed)
