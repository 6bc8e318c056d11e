import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antipodal import (
    AnnulusPairConfig,
    DegenerateHullError,
    PointSet,
    VacuousMarginError,
    boundary_band,
    circle_config,
    convex_hull,
    diameter,
    discretize_boundary,
    pair_counts,
    random_disk_config,
    ratio_margin,
    read_points,
    reuleaux_boundary_config,
    sweep_spectral,
    thickened_cover_count,
    write_points,
)
from antipodal import geometry, kernels
from antipodal.generators import arc_center_config
from antipodal.geometry import distance_to_boundary, point_segment_distance

from oracles import diameter_brute, gift_wrap_hull, pair_counts_brute, point_in_hull

SQUARE_PLUS_CENTER = PointSet.from_points(
    [(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5), (0.25, 0.25)]
)


# ---------------------------------------------------------------------------
# pair_counts
# ---------------------------------------------------------------------------

def test_pair_counts_two_points_at_distance_one():
    ps = PointSet.from_points([(0.0, 0.0), (1.0, 0.0)])
    c = pair_counts(ps, 0.1)
    assert (c.neighbors, c.antipodes) == (0, 1)  # threshold inclusive: 1 >= 0.9


def test_pair_counts_three_collinear():
    ps = PointSet.from_points([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)])
    c = pair_counts(ps, 0.1)
    assert (c.neighbors, c.antipodes) == (0, 1)


def test_pair_counts_circle_2000_against_brute_force():
    ps = circle_config(2000)
    c = pair_counts(ps, 0.01)
    # frozen from the pure-python oracle; lattice quantization puts the
    # neighbor count 5.8% under the continuum value eps*n^2/pi, while the
    # antipode count sits within 0.6% of sqrt(2 eps)*n^2/pi
    assert (c.neighbors, c.antipodes) == (12000, 181000)
    near, far = pair_counts_brute(ps.points, 0.01)
    assert (near, far) == (c.neighbors, c.antipodes)
    assert abs(far - math.sqrt(2 * 0.01) * 2000**2 / math.pi) / far < 0.05


def test_pair_counts_rejects_bad_epsilon():
    ps = PointSet.from_points([(0.0, 0.0), (1.0, 0.0)])
    for eps in (0.0, 0.5, 0.7, -0.1, float("nan")):
        with pytest.raises(ValueError):
            pair_counts(ps, eps)


# every public function that takes ε checks it with geometry._check_epsilon
_EPSILON_ENTRY_POINTS = {
    "discretize_boundary": lambda eps: discretize_boundary(convex_hull(circle_config(400)), eps),
    "AnnulusPairConfig": lambda eps: AnnulusPairConfig(d=0.5, epsilon=eps),
    "thickened_cover_count": lambda eps: thickened_cover_count(0.5, eps),
    "arc_center_config": lambda eps: arc_center_config(100, eps),
    "sweep_spectral": lambda eps: sweep_spectral([eps], hull_points=400),
}


@pytest.mark.parametrize("eps", [0.0, 0.5, -0.1, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(_EPSILON_ENTRY_POINTS))
def test_entry_points_reject_bad_epsilon(entry, eps):
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1/2\), got"):
        _EPSILON_ENTRY_POINTS[entry](eps)


def test_pair_counts_rejects_nonfinite_coordinates():
    with pytest.raises(ValueError):
        PointSet.from_points([(0.0, 0.0), (float("inf"), 0.0)])


def test_pair_counts_needs_two_points():
    with pytest.raises(ValueError):
        pair_counts(PointSet.from_points([(0.0, 0.0)]), 0.1)


@pytest.mark.parametrize("coords", [np.zeros((3, 3)), np.zeros(4), np.zeros((2, 2, 2))],
                         ids=["three-columns", "flat", "three-d"])
def test_point_set_rejects_coordinates_that_are_not_n_by_2(coords):
    with pytest.raises(ValueError, match=r"\(n, 2\) array"):
        PointSet(coords)


def test_normalized_point_set_is_checked_against_diameter_one():
    assert PointSet.from_points([(0.0, 0.0), (1.0, 0.0)], normalized=True).n == 2
    with pytest.raises(ValueError, match="diameter > 1"):
        PointSet.from_points([(0.0, 0.0), (0.5, 0.0), (1.0 + 1e-8, 0.0)], normalized=True)


def test_diameter_needs_two_points():
    one = PointSet.from_points([(0.3, 0.4)])
    with pytest.raises(ValueError, match="at least two points"):
        diameter(one)
    assert kernels.max_pairwise_distance_sq(one.coords) == 0.0


def test_point_segment_distance_to_a_zero_length_segment():
    px, py = np.array([3.0, 0.0, -1.0]), np.array([4.0, 0.0, 0.0])
    got = point_segment_distance(px, py, 0.0, 0.0, 0.0, 0.0)
    assert got.tolist() == [5.0, 0.0, 1.0]
    want = [math.hypot(2.0, 4.0), 0.0, 1.0]
    assert point_segment_distance(px, py, 0.0, 0.0, 1.0, 0.0).tolist() == want


@st.composite
def points_and_safe_epsilon(draw):
    n = draw(st.integers(4, 30))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = gen.random((n, 2)) * 0.8 - 0.4
    eps = draw(st.floats(0.02, 0.45))
    d = np.sqrt(
        ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)[
            np.triu_indices(n, 1)
        ]
    )
    # keep both thresholds clear of every pairwise distance so that rigid
    # motions cannot flip any inclusion decision
    if min(np.abs(d - eps).min(), np.abs(d - (1 - eps)).min()) < 1e-6:
        eps = float(np.clip(eps + 3e-6, 0.02, 0.45))
    return pts, eps


@given(points_and_safe_epsilon(), st.floats(0, 2 * math.pi), st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=60, deadline=None)
def test_pair_counts_rigid_motion_invariance(pe, theta, tx, ty):
    pts, eps = pe
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)[np.triu_indices(len(pts), 1)])
    if min(np.abs(d - eps).min(), np.abs(d - (1 - eps)).min()) < 1e-7:
        return  # degenerate draw, thresholds not separable
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    moved = pts @ rot.T + np.array([tx, ty])
    a = pair_counts(PointSet(pts), eps)
    b = pair_counts(PointSet(moved), eps)
    assert (a.neighbors, a.antipodes) == (b.neighbors, b.antipodes)


@given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.2), st.floats(0.21, 0.45))
@settings(max_examples=40, deadline=None)
def test_pair_counts_monotone_in_epsilon(seed, eps1, eps2):
    gen = np.random.default_rng(seed)
    ps = PointSet(gen.random((25, 2)))
    a = pair_counts(ps, eps1)
    b = pair_counts(ps, eps2)
    assert a.neighbors <= b.neighbors
    assert a.antipodes <= b.antipodes


def test_pair_counts_sum_bounded_by_total_pairs():
    ps = random_disk_config(300, seed=5)
    c = pair_counts(ps, 0.3)
    assert c.neighbors + c.antipodes <= 300 * 299 // 2


# ---------------------------------------------------------------------------
# diameter
# ---------------------------------------------------------------------------

def test_diameter_equilateral_triangle():
    s = 0.7
    ps = PointSet.from_points([(0, 0), (s, 0), (s / 2, s * math.sqrt(3) / 2)])
    assert diameter(ps) == pytest.approx(s, rel=1e-12)


@pytest.mark.parametrize("n", [2, 4, 10, 1000])
def test_diameter_circle_even_n(n):
    assert abs(diameter(circle_config(n)) - 1.0) < 1e-12


def test_diameter_matches_brute_force():
    ps = random_disk_config(500, seed=1)
    d = diameter(ps)
    assert 0 < d <= 1
    assert d == pytest.approx(diameter_brute(ps.points), rel=1e-12)


# ---------------------------------------------------------------------------
# convex_hull
# ---------------------------------------------------------------------------

def test_hull_square_plus_center():
    hull = convex_hull(SQUARE_PLUS_CENTER)
    assert hull.m == 4
    assert sorted(map(tuple, hull.vertices)) == [
        (0.0, 0.0),
        (0.0, 0.5),
        (0.5, 0.0),
        (0.5, 0.5),
    ]


def test_hull_circle_points_all_on_hull():
    hull = convex_hull(circle_config(100))
    assert hull.m == 100


def test_hull_matches_gift_wrapping_oracle():
    ps = random_disk_config(200, seed=7)
    hull = convex_hull(ps)
    expected = gift_wrap_hull(ps.points)
    assert sorted(map(tuple, hull.vertices)) == sorted(expected)


def test_hull_contains_every_point_and_permutation_invariant():
    ps = random_disk_config(150, seed=3)
    hull = convex_hull(ps)
    for x, y in ps.points:
        assert point_in_hull([tuple(v) for v in hull.vertices], x, y)
    perm = np.random.default_rng(0).permutation(ps.n)
    hull2 = convex_hull(PointSet(ps.coords[perm]))
    assert sorted(map(tuple, hull.vertices)) == sorted(map(tuple, hull2.vertices))


def test_hull_perimeter_is_edge_sum():
    hull = convex_hull(random_disk_config(60, seed=9))
    v = hull.vertices
    w = np.roll(v, -1, axis=0)
    assert hull.perimeter == pytest.approx(
        float(np.hypot(*(w - v).T).sum()), rel=1e-12
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hull_ignores_duplicate_rows_and_signed_zeros(seed):
    gen = np.random.default_rng(seed)
    base = np.vstack([random_disk_config(300, seed=seed).coords,
                      [[0.0, 0.5], [0.5, 0.0], [0.0, -0.5], [-0.5, 0.0], [0.0, 0.0]]])
    flipped = np.where(base == 0.0, -base, base)  # 0.0 <-> -0.0
    coords = np.vstack([base, base[gen.integers(0, base.shape[0], 200)], flipped])
    coords = coords[gen.permutation(coords.shape[0])]
    distinct = np.unique(coords, axis=0)
    assert distinct.shape[0] == base.shape[0]
    assert np.array_equal(convex_hull(PointSet(coords)).vertices,
                          convex_hull(PointSet(distinct)).vertices)


@st.composite
def _hull_inputs(draw):
    """Point sets on which float rounding decides the chain's pops: nearly
    collinear points, circles with 1e-16 jitter or rounded to a lattice,
    flattened circles, rectangles with points on their sides, convex and
    mostly interior sets, small grids; with duplicate rows and signed zeros
    mixed in."""
    kind = draw(st.sampled_from(
        ["collinear", "jitter", "lattice", "flat", "sides", "convex", "interior", "grid"]))
    n = draw(st.integers(3, 200))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = gen.uniform(0.0, 2.0 * math.pi, n)
    circle = 0.5 * np.column_stack([np.cos(t), np.sin(t)])
    if kind == "collinear":
        s = gen.uniform(-1.0, 1.0, n)
        xy = np.column_stack([s, gen.uniform(-1.0, 1.0) * s + gen.uniform(-1.0, 1.0)])
        xy += gen.integers(-3, 4, (n, 2)) * np.spacing(np.abs(xy))
    elif kind == "jitter":
        xy = circle + gen.uniform(-1e-16, 1e-16, (n, 2))
    elif kind == "lattice":
        scale = draw(st.sampled_from([4.0, 16.0, 100.0, 2.0**20]))
        xy = np.round(circle * scale) / scale
    elif kind == "flat":
        xy = circle * [1.0, 1e-15]
    elif kind == "sides":
        s, side = gen.uniform(-1.0, 1.0, n), gen.integers(0, 2, n)
        xy = np.vstack([np.column_stack([s, np.where(side, 0.5, -0.5)]),
                        np.column_stack([np.where(side, 1.0, -1.0), s / 2])[: n // 2],
                        [[-1.0, -0.5], [1.0, -0.5], [1.0, 0.5], [-1.0, 0.5]]])
    elif kind == "convex":
        xy = circle
    elif kind == "interior":
        xy = np.vstack([circle[:4], gen.uniform(-0.3, 0.3, (n, 2))])
    else:
        xy = gen.integers(-2, 3, (n, 2)) * draw(st.sampled_from([0.5, 0.1, 1 / 3]))
    if draw(st.booleans()):
        xy = np.vstack([xy, xy[gen.integers(0, xy.shape[0], n // 2)]])
    if draw(st.booleans()):
        r = 0.5
        xy = np.vstack([xy, [[0.0, r], [-0.0, r], [r, -0.0], [0.0, -r], [-r, 0.0], [-0.0, 0.0]]])
    flip = (xy == 0.0) & (gen.random(xy.shape) < 0.5)
    xy = np.where(flip, -xy, xy)
    return xy[gen.permutation(xy.shape[0])]


@given(_hull_inputs())
# nearly collinear: the chain pops (-0.378..., -0.186...) off the upper half at
# a cross product that rounds to exactly 0, a tie the replay's check (b) rejects
@example(np.array([[-0.7681761853813037, -0.5576181053972075],
                   [-0.6939269821046359, -0.48700797105195726],
                   [-0.37822792853189396, -0.18678181909748068],
                   [0.2525443098909898, 0.41307529088837225]]))
@settings(max_examples=300, deadline=None)
def test_hull_is_the_monotone_chain(xy):
    ps = PointSet(xy)
    P = geometry._sorted_distinct(ps.coords)
    want = geometry._monotone_chain(P) if P.shape[0] >= 3 else np.empty((0, 2))
    if want.shape[0] < 3:
        with pytest.raises(DegenerateHullError):
            convex_hull(ps)
    else:
        got = convex_hull(ps).vertices
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("make", [
    lambda: circle_config(10_000),
    lambda: reuleaux_boundary_config(10_000, seed=1),
    # (0.5, 0) and (1, 0) lie on the chord; (1, 0) pops (0.5, 0) off (0, 0)
    # at a cross product of exactly 0
    lambda: PointSet.from_points([(0, 0), (0.5, 0), (1, 0), (1.5, -1), (1.5, 1), (3, 0)]),
])
def test_hull_of_convex_inputs_skips_the_python_chain(make):
    ps = make()
    want = geometry._monotone_chain(geometry._sorted_distinct(ps.coords))

    def refuse(P):
        raise AssertionError("the replay should have certified this hull")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_monotone_chain", refuse)
        got = convex_hull(ps).vertices
    assert got.tobytes() == want.tobytes()


def _lexsorted_distinct(coords):
    """The rows sorted by x, then y, by one stable lexsort, each kept once."""
    c = coords[np.lexsort((coords[:, 1], coords[:, 0]))]
    distinct = np.ones(c.shape[0], bool)
    distinct[1:] = (c[1:] != c[:-1]).any(axis=1)
    return c[distinct]


@pytest.mark.parametrize("make, ties", [
    (lambda: reuleaux_boundary_config(10_000, seed=1).coords, False),
    (lambda: np.random.default_rng(3).normal(size=(500, 2)), False),
    # the circle's mirror images share x, and so do a grid's columns
    (lambda: circle_config(10_000).coords, True),
    (lambda: np.array([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 2], [0, 0]], float), True),
    # 0.0 and -0.0 are one x; the duplicate row keeps its first sign
    (lambda: np.array([[0.0, 1.0], [-0.0, -1.0], [1.0, 0.0], [-1.0, 0.5]]), True),
    (lambda: np.array([[-0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.5]]), True),
], ids=["reuleaux", "normal", "circle", "grid", "signed-zero-x", "signed-zero-row"])
def test_hull_sorts_by_x_and_lexsorts_only_ties(make, ties):
    """One argsort of x orders distinct x; a lexsort runs only when two x
    are equal, and either way the rows and the hull are the lexsort's."""
    coords = make()
    calls = []
    lexsort = np.lexsort
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "lexsort", lambda keys: calls.append(keys) or lexsort(keys))
        got = geometry._sorted_distinct(coords)
    assert bool(calls) == ties
    want = _lexsorted_distinct(coords)
    assert got.tobytes() == want.tobytes()
    hull = convex_hull(PointSet(coords)).vertices
    assert hull.tobytes() == geometry._monotone_chain(want).tobytes()


def test_hull_collinear_is_distinct_error():
    ps = PointSet.from_points([(0, 0), (0.3, 0.3), (0.7, 0.7), (1, 1)])
    with pytest.raises(DegenerateHullError):
        convex_hull(ps)


def test_hull_needs_three_points():
    with pytest.raises(ValueError):
        convex_hull(PointSet.from_points([(0, 0), (1, 1)]))


# ---------------------------------------------------------------------------
# boundary_band
# ---------------------------------------------------------------------------

def test_boundary_band_keeps_hull_vertices():
    ps = random_disk_config(80, seed=11)
    hull = convex_hull(ps)
    band = boundary_band(ps, hull, 0.01)
    kept = {tuple(p) for p in band.coords}
    for v in hull.vertices:
        assert tuple(v) in kept


def test_boundary_band_excludes_deep_center():
    hull = convex_hull(SQUARE_PLUS_CENTER)
    band = boundary_band(SQUARE_PLUS_CENTER, hull, 0.1)
    assert band.n == 4  # the center sits 0.25 from the boundary
    assert (0.25, 0.25) not in {tuple(p) for p in band.coords}


def test_boundary_band_arc_center_keeps_everything():
    ps = arc_center_config(1000, 0.01)
    hull = convex_hull(ps)
    band = boundary_band(ps, hull, 0.01)
    assert band.n == ps.n
    # ... because the cluster is tiny: the whole configuration hugs the hull
    assert float(distance_to_boundary(hull, ps.coords).max()) <= 0.01


# ---------------------------------------------------------------------------
# ratio_margin
# ---------------------------------------------------------------------------

def test_margin_zero_when_no_neighbors():
    from antipodal.geometry import PairCounts

    assert ratio_margin(PairCounts(0, 5, 0.02)) == 0.0
    assert ratio_margin(PairCounts(0, 1, 0.1)) == 0.0


def test_margin_circle_2000():
    c = pair_counts(circle_config(2000), 0.01)
    m = ratio_margin(c)
    assert m == pytest.approx(1.422739906932164, rel=1e-12)  # frozen oracle value
    assert abs(m - math.sqrt(math.log(100.0) / 2.0)) / m < 0.10


def test_margin_vacuous_is_an_error():
    from antipodal.geometry import PairCounts

    with pytest.raises(VacuousMarginError):
        ratio_margin(PairCounts(3, 0, 0.05))


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_point_io_roundtrip(tmp_path):
    ps = random_disk_config(50, seed=2)
    path = tmp_path / "pts.txt"
    write_points(path, ps)
    back = read_points(path)
    assert np.array_equal(back.coords, ps.coords)


def test_point_io_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# header comment\n0.25 -0.5\n\n# more\n0.125 0.375\n")
    ps = read_points(path)
    assert ps.points == [(0.25, -0.5), (0.125, 0.375)]


def test_point_io_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.1 0.2 0.3\n")
    with pytest.raises(ValueError):
        read_points(path)


def _read_both_ways(path):
    """read_points as it is, and with every file sent line by line: each is
    the coordinates read or the (type, message) of the error raised."""
    out = []
    for plain in (geometry._PLAIN, b""):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_PLAIN", plain)
            try:
                out.append(read_points(path).coords)
            except ValueError as exc:
                out.append((type(exc), str(exc)))
    return out


_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1_0", "-0.0", "+.5", "1e-3", "nan", "inf", "-inf", "x", "1__0"]),
)
_LINES = st.one_of(
    st.tuples(_TOKENS, _TOKENS).map(" ".join),
    st.tuples(st.sampled_from(["", " ", "\t"]), _TOKENS, st.sampled_from([" ", "\t", " \t "]),
              _TOKENS, st.sampled_from(["", " ", "\t"])).map("".join),
    st.sampled_from(["", " ", "\t ", "# comment", "1 2 3", "7", " 0.5 ", "1 2\r", "1\x0c2",
                     "1 2\x0c3 4", "1\x0b2", "1.5.3 2", "1-2 3", "0x1p3 1", "1d5 2",
                     "Infinity 1", "4.9e-324 2.5e-324", " \t# indented", "#1 2", "1 2 # x",
                     "1 2#", "1 #2"]),
)


@given(st.lists(_LINES, max_size=12), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
@settings(max_examples=150, deadline=None)
def test_point_io_fast_path_reads_like_the_line_loop(tmp_path_factory, lines, end, final_newline):
    path = tmp_path_factory.mktemp("pts") / "pts.txt"
    path.write_bytes((end.join(lines) + (end if final_newline else "")).encode("ascii"))
    fast, slow = _read_both_ways(path)
    if isinstance(slow, tuple):
        assert fast == slow
    else:
        assert fast.tobytes() == slow.tobytes() and fast.shape == slow.shape


@pytest.mark.parametrize("content", [b"", b" \n\t\n\n"], ids=["empty", "blank"])
def test_point_io_file_without_points(tmp_path, content):
    path = tmp_path / "pts.txt"
    path.write_bytes(content)
    fast, slow = _read_both_ways(path)
    assert fast.shape == slow.shape == (0, 2)


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_point_io_comment_lines_and_crlf_take_the_fast_path(tmp_path, monkeypatch, end):
    """A written file with comment lines, and CRLF line ends, is read by
    loadtxt (the line loop's PointSet.from_points is never called) into the
    line loop's exact floats; a trailing comment still goes to the line loop
    and fails there, naming its line."""
    path = tmp_path / "pts.txt"
    write_points(path, reuleaux_boundary_config(2000, seed=5))
    body = path.read_text().splitlines()
    path.write_bytes(end.join(["# reuleaux, n = 2000", *body[:1000], "  # half way",
                               *body[1000:], ""]).encode("ascii"))
    fast, slow = _read_both_ways(path)
    assert fast.tobytes() == slow.tobytes() and fast.shape == slow.shape == (2000, 2)
    with monkeypatch.context() as mp:
        mp.setattr(geometry.PointSet, "from_points", None)
        assert read_points(path).coords.tobytes() == fast.tobytes()
    path.write_bytes(end.join(["# c", "0.25 -0.5", "0.125 0.5 # x", ""]).encode("ascii"))
    fast, slow = _read_both_ways(path)
    assert fast == slow == (ValueError, f"{path}:3: expected two reals per line")


def test_point_io_errors_name_their_line(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("0.25 -0.5\n\n0.125\n")
    fast, slow = _read_both_ways(path)
    assert fast == slow == (ValueError, f"{path}:3: expected two reals per line")
    path.write_text("0.25 -0.5\n0.125 abc\n")
    fast, slow = _read_both_ways(path)
    assert fast == slow == (
        ValueError, f"{path}:2: could not convert string to float: 'abc'")


def _float_reference(text):
    """The file read line by line with `float`: its points, the number of
    the first line that is neither blank, a comment nor two reals, or
    "nonfinite" when every line reads but a coordinate is not finite."""
    rows = []
    for lineno, line in enumerate(re.split(r"\r\n|\r|\n", text), 1):
        line = line.strip(" \t")
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if len(parts) != 2:
                raise ValueError
            rows.append([float(part) for part in parts])
        except ValueError:
            return lineno
    xy = np.array(rows, dtype=np.float64).reshape(-1, 2)
    return xy if np.isfinite(xy).all() else "nonfinite"


_JUNK = st.sampled_from(["1_0", "0x10", "nan", "-inf", "1e400", "#", "1#", "abc", "-0.0", "+.5"])


@st.composite
def _fuzz_lines(draw):
    blanks = st.text(" \t", max_size=2)
    kind = draw(st.sampled_from(["points", "points", "points", "blank", "comment"]))
    if kind == "blank":
        return draw(blanks)
    if kind == "comment":
        return draw(blanks) + "#" + draw(st.sampled_from(["", " c", "1 2", "#"]))
    tokens = [draw(_JUNK) if draw(st.integers(0, 7)) == 0 else repr(draw(st.floats()))
              for _ in range(draw(st.sampled_from([2, 2, 2, 1, 3])))]
    seps = [draw(st.text(" \t", min_size=1, max_size=2)) for _ in tokens[1:]]
    return (draw(blanks) + "".join(t + s for t, s in zip(tokens, seps)) + tokens[-1]
            + draw(blanks))


@given(st.lists(_fuzz_lines(), max_size=12), st.sampled_from(["\n", "\r\n", "\r"]),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_point_io_reads_like_float_line_by_line(tmp_path_factory, lines, end, final_newline):
    """read_points equals a per-line `float` reading, or both reject the file
    at the same line (or for a coordinate that is not finite)."""
    text = end.join(lines) + (end if final_newline else "")
    path = tmp_path_factory.mktemp("pts") / "pts.txt"
    path.write_bytes(text.encode("ascii"))
    want = _float_reference(text)
    try:
        got = read_points(path).coords
    except ValueError as exc:
        got = str(exc)
    if isinstance(want, int):
        assert isinstance(got, str) and got.startswith(f"{path}:{want}: ")
    elif isinstance(want, str):
        assert got == "point coordinates must be finite"
    else:
        assert not isinstance(got, str), got
        assert got.tobytes() == want.tobytes() and got.shape == want.shape


def _write_points_by_row(path, ps):
    """The text format written one row at a time, as `write_points` once did."""
    with open(path, "w", encoding="ascii") as fh:
        for x, y in ps.coords:
            fh.write(f"{float(x)!r} {float(y)!r}\n")


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(_finite, _finite), max_size=30))
@example([(0.0, -0.0), (-0.0, 0.0), (5e-324, -2.2250738585072014e-308),
          (1e300, -1e-300), (-1e-300, 1e300), (0.1, 1 / 3)])
@settings(max_examples=100, deadline=None)
def test_write_points_bytes_equal_a_write_per_row(tmp_path_factory, points):
    ps = PointSet.from_points(points)
    path = tmp_path_factory.mktemp("points")
    write_points(path / "joined.txt", ps)
    _write_points_by_row(path / "rows.txt", ps)
    assert (path / "joined.txt").read_bytes() == (path / "rows.txt").read_bytes()
