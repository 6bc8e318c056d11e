"""Hot numeric kernels.

Every exact pair engine runs on one depth-first descent (`_descend`) over a
hierarchy of leaves of consecutive points (`_chunks`, `_levels`).  A node
pair is settled whole where bounds that hold for every point pair below it
decide it (`_gap_bounds` on exact bounding boxes; see the comment above it)
and split where they do not; the leaf pairs left go through one NaN-padded
gather (`_chunk_gaps`) and the brute-force expression, so every result
equals brute force.  The gather's blocks are shaped (size, size, pairs):
with the pair axis innermost, each NumPy inner loop runs over a block's
pairs, not over a leaf's 4 to 16 points.  Grid pair counts, in
sort-tile-recursive order, add |A|·|B| for a pair that no threshold splits;
the maximum pairwise distance, in angle order, drops a pair whose box or
law-of-cosines bound (`_polar_bounds`) falls below the best d2 so far;
box-pair relations are maximal runs of consecutive boxes (`box_pair_runs`),
joined as their rows are finished: the adjacency of `box_adjacency_runs`, with a second bound
tight to second order (`_chord_bounds`), and the near sets of `boundary`.
Every blocked loop, the tail of `boundary` too, takes its block size from
one budget (`_per_block`).

The annuli occupancy grid is one exact pure-NumPy path: each sample column's
inside samples form one run of sample rows.  `np.searchsorted` guesses the
run's ends, and each guess is certified, or walked to the right row, by the
membership expressions the full res x res evaluation would use; the runs'
cell rows are written straight into a column-major boolean grid, and a
window symmetric about x = 0 at a power-of-two res is painted for its right
half and mirrored, so the grid equals that evaluation cell for cell.

The CSR matrix-vector product and the common-neighbor row are standalone
NumPy references: the package's own products run on the runs
(``AntipodalGraph.matvec``).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

# the block budget of every blocked loop (`_per_block`): an item (a node
# pair, leaf pair, run piece or tail event) keeps _TEMPS temporaries of its
# width, and a block's temporaries hold _BLOCK_ELEMS elements in all, 8 MB of
# float64, which bounds the loops' peak memory at a few tens of MB.  glibc
# maps, faults in and unmaps each ~0.5 MB temporary anew until a larger mapped
# block is freed, which raises its mmap threshold to that size and its trim
# threshold to twice that, up to 32 MiB (mallopt(3)): the untouched 16 MB
# array made and dropped here keeps them on the heap whatever ran before
# (elsewhere it does nothing)
_BLOCK_ELEMS = 1_000_000
_TEMPS = 16
np.empty(2 * _BLOCK_ELEMS)
# points per leaf chunk of the pair counts and the diameter
_CHUNK = 16
# boxes per leaf chunk of the box graph
_GRAPH_CHUNK = 8


def _per_block(width=1):
    """How many items one block holds, at least 1, when each keeps _TEMPS
    temporaries of `width` elements."""
    return max(1, _BLOCK_ELEMS // _TEMPS // max(width, 1))


# ---------------------------------------------------------------------------
# exact bounds on the gaps between two groups of points
# ---------------------------------------------------------------------------
# The exact bounding boxes of two groups of points (chunks of points or of
# boxes) bound the computed |dx| and |dy| of every pair from both
# sides, with no slack: correctly rounded - is monotone, max is exact and
# fl(|p - q|) = |fl(p - q)|, so fl(q - p) over p in [xmin_a, xmax_a] and q in
# [xmin_b, xmax_b] lies in [fl(xmin_b - xmax_a), fl(xmax_b - xmin_a)]; + and *
# on non-negative operands round monotonically too, so the computed
# dx*dx + dy*dy lies in [fl(lx*lx + ly*ly), fl(ux*ux + uy*uy)].

def _group(boxes, starts):
    """The boxes of the groups of consecutive items at `starts`, from the
    items' boxes (xmin, xmax, ymin, ymax), which a polar box (rmax, tmin,
    tmax; see `_polar_bounds`) may follow: (x, x, y, y, r, t, t) for points."""
    reduce = (np.minimum, np.maximum) * 2 + (np.maximum, np.minimum, np.maximum)
    return tuple(f.reduceat(v, starts) for f, v in zip(reduce, boxes))


def _gap_upper(boxes, a, b):
    """Upper bounds (ux, uy) on |dx| and |dy| over every pair of a point of
    group a and a point of group b, for the group indices a and b broadcast
    against each other (a column of rows against a row of columns, say)."""
    return [np.maximum(hi[b] - lo[a], hi[a] - lo[b]) for lo, hi in (boxes[:2], boxes[2:])]


def _gap_bounds(boxes, a, b):
    """Bounds (lx, ux, ly, uy) on |dx| and |dy|, as in `_gap_upper`."""
    ux, uy = _gap_upper(boxes, a, b)
    lx, ly = (np.maximum(np.maximum(lo[b] - hi[a], lo[a] - hi[b]), 0.0)
              for lo, hi in (boxes[:2], boxes[2:]))
    return lx, ux, ly, uy


# ---------------------------------------------------------------------------
# a law-of-cosines bound on the distances between two groups of points
# ---------------------------------------------------------------------------
# About a centre c, let |p - c| <= Ra and |q - c| <= Rb, and let psi be the
# angle between p - c and c - q.  Then
#     |p - q|**2 = |p - c|**2 + |q - c|**2 + 2 |p - c| |q - c| cos(psi)
#               <= Ra**2 + Rb**2 + 2 Ra Rb max(cos(phi), 0)
# for any phi <= psi; `_polar_bounds` takes for phi the gap between the angle
# range of group a, turned by pi, and that of group b.  In floats, fl(p - c)
# is within 2**-53 relative of p - c (it is exact when tiny, by Sterbenz, or
# subnormal), arctan2, hypot and cos are accurate to a few ulps, and every
# other operation rounds by 2**-53 relative.  So the angles are within ~1e-15
# of the exact ones, which moves the cosine term by at most ~1e-15 of
# 2 Ra Rb <= Ra**2 + Rb**2, and the radii, the bound and the computed
# d2 = fl(dx*dx + dy*dy) are within ~1e-14 relative of the exact ones, as
# long as nothing overflows or underflows.  The pad of _POLAR_PAD relative
# covers that.  A span of at most _POLAR_MAX_SPAN keeps every radius below
# 2**400, so nothing overflows.  An underflow loses at most 2**-1074 absolute
# per operation, so a pair of a chunk pair whose bound B is below L has
# d2 <= B (1 + 1e-14) / (1 + _POLAR_PAD) + 2**-1069 < L: the pad beats the
# absolute loss where B >= 2**-1000, and below that d2 < 2**-999 < L once L
# is at least _POLAR_MIN_L.  Outside these ranges the box bound works alone.

# the polar bound's relative pad, and where it holds (see above)
_POLAR_PAD = 1e-9
_POLAR_MAX_SPAN = 2.0**400
_POLAR_MIN_L = 2.0**-800


def _polar_coords(xy, centre):
    """Distance to `centre` and arctan2 angle about it of every point."""
    d = xy - centre
    return np.hypot(d[:, 0], d[:, 1]), np.arctan2(d[:, 1], d[:, 0])


def _polar_bounds(boxes, a, b):
    """Padded upper bounds on d2 over every pair of a point of group a and a
    point of group b, for group indices broadcast as in `_gap_bounds`."""
    rad, tmin, tmax = boxes
    ra = rad[a]
    rb = rad[b]
    # the angles of b less those of a turned by pi fill [s, s + width], mod 2 pi
    s = np.mod(tmin[b] - tmax[a] - np.pi, 2.0 * np.pi)
    width = (tmax[a] - tmin[a]) + (tmax[b] - tmin[b])
    phi = np.maximum(np.minimum(s, 2.0 * np.pi - s - width), 0.0)
    cos = np.maximum(np.cos(phi), 0.0)
    return (ra * ra + rb * rb + 2.0 * ra * rb * cos) * (1.0 + _POLAR_PAD)


# ---------------------------------------------------------------------------
# chunk pairs: one chunk cut and one NaN-padded gather for every engine
# ---------------------------------------------------------------------------

def _cut(n, size):
    """The starts and stops of the chunks of `size` consecutive items of n."""
    starts = np.arange(0, n, size)
    return starts, np.append(starts[1:], n)


def _chunks(x, y, size):
    """The starts of the chunks of `size` consecutive points, their exact
    bounding boxes, and x and y with the NaN point of `_chunk_gaps` appended."""
    starts = np.arange(0, x.shape[0], size)
    return starts, _group((x, x, y, y), starts), np.append(x, np.nan), np.append(y, np.nan)


def _chunk_gaps(px, py, i0, j0, size):
    """dx and dy, shaped (size, size, pairs), of every point pair of the chunk
    pairs that start at points i0 and j0: [s, t, p] is point i0[p] + s less
    point j0[p] + t.  The pair axis is innermost, so every NumPy inner loop
    over the block runs along its pairs, not along a leaf's 4 to 16 points.
    px and py end in one NaN point, which stands in for every point past the
    last."""
    last = px.shape[0] - 1
    span = np.arange(size)
    i = np.minimum(span[:, None, None] + i0, last)
    j = np.minimum(span[:, None] + j0, last)
    return px[i] - px[j], py[i] - py[j]


def _chunk_d2(px, py, i0, j0):
    """dx*dx + dy*dy of `_chunk_gaps` for chunks of _CHUNK, in place, shaped
    (_CHUNK, _CHUNK, pairs) with the pair axis innermost."""
    d2, dy = _chunk_gaps(px, py, i0, j0, _CHUNK)
    d2 *= d2
    dy *= dy
    d2 += dy
    return d2


# ---------------------------------------------------------------------------
# one depth-first descent over a hierarchy of leaves for every pair engine
# ---------------------------------------------------------------------------
# Each level groups _FAN consecutive nodes of the level below (`_group`), so a
# node of level l is a run of leaf * _FAN**l consecutive points whose boxes
# contain its children's; levels are added until the top level's node pairs
# split in one block.  `_descend`, the dual-tree scheme of Gray and Moore (NIPS
# 2000), asks the engine for a verdict on every top node pair, and then, depth
# first, on the child pairs of each pair left undecided: none of the point
# pairs below holds, every one does (taken whole), or neither.  Blocks are
# taken in the row order of the top pairs, so every row before the first one
# a pending pair can reach is final.
_FAN = 4


def _levels(boxes):
    """The boxes of every level over leaves with `boxes` (level 0), up to the
    first level whose node pairs split in one block."""
    levels = [boxes]
    while len(levels[-1][0]) ** 2 > _per_block(_FAN * _FAN):
        levels.append(_group(levels[-1], np.arange(0, len(levels[-1][0]), _FAN)))
    return levels


def _descend(levels, decide, whole, leaf, width, upper=False):
    """A generator that descends from every pair of top nodes of `levels`
    (the pairs a <= b if `upper`).  ``decide(level, a, b)`` takes node pairs
    as index arrays and returns boolean arrays (none, every); ``whole`` takes
    the pairs that every point pair below holds for, and ``leaf(a, b)`` the
    leaf pairs left, `_per_block(width)` at a time.  After each block it
    yields the first leaf row that a pending pair can reach."""
    count = [boxes[0].shape[0] for boxes in levels]
    grid = np.arange(_FAN)

    def visit(level, a, b, first):
        none, every = decide(level, a, b)
        whole(level, a[every], b[every])
        rest = ~(none | every)
        return level, a[rest], b[rest], first

    m = count[-1]
    stack = [visit(len(levels) - 1, *(np.triu_indices(m) if upper else
                                      np.divmod(np.arange(m * m), m)), 0)]
    while stack:
        # the undecided pairs of a level, and the first leaf row they reach
        level, a, b, first = stack.pop()
        if not a.shape[0]:
            continue
        per = _per_block(_FAN * _FAN if level else width)
        if a.shape[0] > per:
            stack.append((level, a[per:], b[per:], int(a[per:].min()) * _FAN**level))
            a, b = a[:per], b[:per]
        if level:
            # the child pairs, in (pair, child of a, child of b) order
            a = (a[:, None] * _FAN + grid).repeat(_FAN)
            b = (b[:, None] * _FAN + grid).repeat(_FAN, axis=0).ravel()
            keep = (a < count[level - 1]) & (b < count[level - 1])
            if upper:
                keep &= a <= b
            stack.append(visit(level - 1, a[keep], b[keep], first))
        else:
            leaf(a, b)
        yield min(entry[3] for entry in stack) if stack else count[0]


# ---------------------------------------------------------------------------
# exact pair counts over chunks in sort-tile-recursive order
# ---------------------------------------------------------------------------
# The points are put in sort-tile-recursive order (Leutenegger, Lopez and
# Edgington, ICDE 1997): sorted by x, cut into floor(sqrt(n / 16)) strips of
# equally many whole chunks, each strip sorted by y, so that chunks of _CHUNK
# points, the leaves, and their groups have small bounding boxes.
# `_gap_bounds` puts the d2 of every pair of a node pair a < b in [lo2, hi2]:
# it meets a near threshold t whole unless lo2 <= t < hi2, and a far one
# unless lo2 < t <= hi2, and when it meets every threshold whole it adds
# |A|·|B| to each one it counts for.  A node's own pairs i < j are split down
# to the leaves, and every leaf pair left is evaluated.

def _tile_order(x, y):
    """Sort-tile-recursive order of the points, in strips of whole chunks."""
    n = x.shape[0]
    strips = max(1, math.isqrt(n // _CHUNK))
    by_x = np.argsort(x, kind="stable")
    strip = np.arange(n) // _CHUNK * strips // -(-n // _CHUNK)
    return by_x[np.lexsort((y[by_x], strip))]


def pair_grid_counts(xy: np.ndarray, epsilons) -> list[tuple[int, int]]:
    """(near, far) pair counts for every epsilon of a grid, in one pass.

    near = #{i<j : d2 <= eps*eps}, far = #{i<j : d2 >= (1-eps)*(1-eps)}.
    """
    near_sq = [e * e for e in epsilons]
    far_sq = [(1.0 - e) * (1.0 - e) for e in epsilons]
    near = [0] * len(near_sq)
    far = [0] * len(far_sq)
    n = xy.shape[0]
    if n < 2 or not near_sq:
        return list(zip(near, far))
    near_max = max(near_sq)
    far_min = min(far_sq)
    starts, boxes, px, py = _chunks(*xy[_tile_order(*xy.T)].T, _CHUNK)
    levels = _levels(boxes)
    lower = [s[:, None] for s in np.tril_indices(_CHUNK)]

    def bounds(level, a, b):
        lx, ux, ly, uy = _gap_bounds(levels[level], a, b)
        return lx * lx + ly * ly, ux * ux + uy * uy

    def decide(level, a, b):
        lo2, hi2 = bounds(level, a, b)
        none = (lo2 > near_max) & (hi2 < far_min)
        every = (a != b) & ~none
        for tn, tf in zip(near_sq, far_sq):
            every &= ((lo2 > tn) | (hi2 <= tn)) & ((lo2 >= tf) | (hi2 < tf))
        return none, every

    def whole(level, a, b):
        lo2, hi2 = bounds(level, a, b)
        w = _CHUNK * _FAN**level
        weight = (np.minimum(a * w + w, n) - a * w) * (np.minimum(b * w + w, n) - b * w)
        for e, (tn, tf) in enumerate(zip(near_sq, far_sq)):
            near[e] += int(weight[hi2 <= tn].sum())
            far[e] += int(weight[lo2 >= tf].sum())

    def leaf(a, b):
        d2 = _chunk_d2(px, py, starts[a], starts[b])
        # a chunk's own pairs i >= j read NaN, which neither test counts
        d2[lower[0], lower[1], np.flatnonzero(a == b)] = np.nan
        for e, (tn, tf) in enumerate(zip(near_sq, far_sq)):
            near[e] += int(np.count_nonzero(d2 <= tn))
            far[e] += int(np.count_nonzero(d2 >= tf))

    for _ in _descend(levels, decide, whole, leaf, _CHUNK * _CHUNK, upper=True):
        pass
    return list(zip(near, far))


def pair_threshold_counts(xy: np.ndarray, epsilon: float) -> tuple[int, int]:
    """Count unordered pairs at distance <= epsilon and >= 1 - epsilon."""
    return pair_grid_counts(xy, [epsilon])[0]


# ---------------------------------------------------------------------------
# maximum pairwise distance by the descent over chunks in angle order
# ---------------------------------------------------------------------------
# Sorted by angle about the bounding-box centre, a convex boundary's
# near-maximal pairs join chunks about pi apart, and `_polar_bounds` rules out
# the rest to second order.  A node pair holds none of the maximum when its
# box bound or its polar bound falls below the best d2 so far, which each
# block of chunk pairs evaluated can raise.

def max_pairwise_distance_sq(xy: np.ndarray) -> float:
    """Largest d2 over all pairs, evaluated only on chunk pairs that can hold it.

    L, the largest d2 of each point with the two points on either side of its
    antipodal angle, is a lower bound; a node pair is split, or a chunk pair
    evaluated, only while its box and polar bounds reach the best d2 so far.
    """
    n = xy.shape[0]
    if n < 2:
        return 0.0
    # per column: a reduction along axis 0 of an (n, 2) array is far slower
    lo = np.array([xy[:, 0].min(), xy[:, 1].min()])
    hi = np.array([xy[:, 0].max(), xy[:, 1].max()])
    r, t = _polar_coords(xy, 0.5 * lo + 0.5 * hi)
    order = np.argsort(t)
    x, y, r, t = xy[order, 0], xy[order, 1], r[order], t[order]
    across = np.searchsorted(t, np.where(t > 0.0, t - np.pi, t + np.pi))
    best = 0.0
    for j in (across - 1, across % n):
        dx = x - x[j]
        dy = y - y[j]
        best = max(best, float((dx * dx + dy * dy).max()))

    use_polar = float((hi - lo).max()) <= _POLAR_MAX_SPAN and best >= _POLAR_MIN_L
    starts, _ = _cut(n, _CHUNK)
    px, py = np.append(x, np.nan), np.append(y, np.nan)
    # levels[l]: the boxes and polar boxes of the nodes of level l
    levels = _levels(_group((x, x, y, y, r, t, t), starts))

    def decide(level, a, b):
        # the polar bound only where the box bound reaches the best so far
        ux, uy = _gap_upper(levels[level][:4], a, b)
        none = ux * ux + uy * uy < best
        if use_polar:
            rest = np.flatnonzero(~none)
            none[rest] = _polar_bounds(levels[level][4:], a[rest], b[rest]) < best
        return none, np.zeros_like(none)

    def leaf(a, b):
        nonlocal best
        # fmax skips the last chunk's NaN point
        d2 = _chunk_d2(px, py, starts[a], starts[b])
        best = float(np.fmax.reduce(d2, axis=None, initial=best))

    for _ in _descend(levels, decide, lambda *pairs: None, leaf, _CHUNK * _CHUNK, upper=True):
        pass
    return best


# ---------------------------------------------------------------------------
# box-pair relations over equal axis-aligned boxes (runs of consecutive boxes)
# ---------------------------------------------------------------------------
# Box relations that depend only on |dx| and |dy| of the two centres share
# `box_pair_runs`, which cuts the boxes, in their given order, into leaves of
# consecutive boxes.  Each relation decides a node pair, at every level alike,
# from `_gap_bounds` on the nodes' bounding boxes:
# * the adjacency of `box_adjacency_runs` needs no slack, and passes the pairs
#   the box bound leaves undecided to the `_chord_bounds` of that level's
#   nodes (see the comment above `_CHORD_PAD`);
# * the near sets of `boundary.near_runs` compare squared gaps with a slack,
#   since their hypot (`boundary._box_gap`) is not guaranteed monotone.
# Along a convex boundary in arc-length order the adjacency evaluates 0.13
# box pairs per graph entry on the 10 000-point circle hull at eps = 1/1024
# (0.65 on a Reuleaux sample), and a row holds one run of antipodes, or two
# where the arc wraps past box k - 1.

def _true_runs(mask):
    """Runs (row, lo, hi) of True in each row of a 2-D boolean array."""
    pad = np.zeros((mask.shape[0], mask.shape[1] + 2), bool)
    pad[:, 1:-1] = mask
    rows, pos = np.nonzero(pad[:, 1:] != pad[:, :-1])
    return rows[0::2], pos[0::2], pos[1::2]


def box_pair_runs(cx, cy, size: int, decide, holds, loops: bool = True):
    """Maximal runs (row, lo, hi) of a box-pair relation, int64, sorted by row
    then lo: row ~ j for lo <= j < hi.

    The boxes are cut into leaves of `size` and descended (`_descend`): a node
    of level l holds size * _FAN**l consecutive boxes, and
    ``decide(level, a, b, lx, ux, ly, uy)`` returns (none, every) for node
    pairs (a, b) from bounds on |dx| and |dy| over the box pairs below each.
    The leaf pairs left are evaluated with ``holds(|dx|, |dy|)``, which must be
    False on the NaN box that pads the last leaf; both may overwrite their
    bound arguments.  With loops=False, i ~ i is dropped.  The rows that hold
    more than a block of run pieces are joined once they are final."""
    k = cx.shape[0]
    starts, boxes, px, py = _chunks(cx, cy, size)
    levels = _levels(boxes)
    none = np.empty(0, np.int64)
    # run pieces (r0, r1, lo, hi): each row r0 <= i < r1 ~ every lo <= j < hi
    pieces = [(none,) * 4]
    runs = [(none,) * 3]

    def verdict(level, a, b):
        skip, every = decide(level, a, b, *_gap_bounds(levels[level], a, b))
        if not loops:
            # a node's own pairs include i ~ i, so they are split
            every &= a != b
        return skip, every

    def whole(level, a, b):
        # each run of pairs (a, b), (a, b + 1), ...: node a ~ nodes b ..
        w = size * _FAN**level
        new = np.ones(a.shape[0] + 1, bool)
        new[1:-1] = (a[1:] != a[:-1]) | (b[1:] != b[:-1] + 1)
        row = a[new[:-1]] * w
        pieces.append((row, np.minimum(row + w, k), b[new[:-1]] * w,
                       np.minimum(b[new[1:]] * w + w, k)))

    def leaf(a, b):
        i0, j0 = starts[a], starts[b]
        dx, dy = _chunk_gaps(px, py, i0, j0, size)
        hit = holds(np.abs(dx, out=dx), np.abs(dy, out=dy))
        if not loops:
            diag = np.arange(size)[:, None]
            hit[diag, diag, np.flatnonzero(a == b)] = False
        # rows (pair, point of a), as the runs are numbered
        t, lo, hi = _true_runs(hit.transpose(2, 0, 1).reshape(-1, size))
        pair, off = np.divmod(t, size)
        row = i0[pair] + off
        pieces.append((row, row + 1, j0[pair] + lo, j0[pair] + hi))

    def join(final):
        # the runs of the rows before `final`; the pieces of the rows after stay
        r0, r1, lo, hi = (np.concatenate(p) for p in zip(*pieces))
        cut = np.clip(final, r0, r1)
        rest = cut < r1
        pieces[:] = [(cut[rest], r1[rest], lo[rest], hi[rest])]
        count = cut - r0
        runs.append(join_runs(expand_runs(r0, cut), np.repeat(lo, count), np.repeat(hi, count)))

    final = 0
    for low in _descend(levels, verdict, whole, leaf, size * size):
        # the pieces of the rows before `final` change only as it grows
        if low * size > final:
            final = low * size
            if sum(int((np.clip(final, r0, r1) - r0).sum()) for r0, r1, *_ in pieces) > _per_block():
                join(final)
    join(k)
    return tuple(np.concatenate(r) for r in zip(*runs))


# ---------------------------------------------------------------------------
# a two-sided bound on the box graph's reach, tight to second order
# ---------------------------------------------------------------------------
# Adjacency compares reach2 = (|dx| + s)**2 + (|dy| + s)**2 of two centres p
# and q with thr2 = (1 - eps)**2.  For s >= 0, (|dx| + s)**2 is the larger of
# (dx + s)**2 and (dx - s)**2, so reach2 is the largest |p + sigma s - q|**2
# over the four sigma in {-1, 1}**2: a corner distance is a point distance.
# Each chunk is its end-centre segment m +- h plus delta, the largest distance
# of one of its centres from that segment, so p = m_a + t h_a + r with
# -1 <= t <= 1 and |r| <= delta_a.  For any e != 0 and e' = (-e_y, e_x),
# exactly orthogonal to e and as long, |v|**2 |e|**2 = (v.e)**2 + (v.e')**2.
# With g = m_a - m_b, w = s (|e_x| + |e_y|) >= |sigma s.e|, |sigma s.e'| and
# R = |h_a.e| + |h_b.e| + (delta_a + delta_b) |e|, every pair of the two
# chunks has |(p + sigma s - q).e| <= |g.e| + w + R for every sigma, and
# likewise along e' with R'.  So reach2 is at most
# ((|g.e| + w + R)**2 + (|g.e'| + w + R')**2) / |e|**2.  `_chord_bounds`
# takes e = g scaled by its largest coordinate, or (1, 0) where g is 0; then
# g.e >= 0, and for the sigma of the signs of g, sigma s.e = w, so reach2 is
# at least (g.e + w - R)**2 / |e|**2 where g.e + w >= R.  Across an antipodal
# chunk pair the chunks run nearly perpendicular to the chord g, so h.e,
# delta, g.e' and (w + R')**2 are all of second order in the chunk width,
# where the box bound loses a whole chunk width to first order: of an arc's
# chunk pairs, only those at its two ends stay undecided.
#
# In floats, the centres are taken about the centre of their bounding box,
# and M is their largest coordinate there plus s.  fl(p - o) is within
# 2**-53 M of p - o, which moves the exact reach2 by at most 2**-48 M**2.
# The bound holds for the computed m, h, t and e as they are (any t in
# [-1, 1] will do), as long as delta is computed from the residual
# p - m - t h.  Every term summed into g.e + w + R and |g.e'| + w + R' is
# at most 24 M (|e| <= sqrt(2), |g| <= 3 M, delta <= 5 M) and carries a few
# roundings of 2**-53 relative; only the sums inside h.e and h.e' cancel,
# and they too are within 2**-50 M.  So each sum is within 2**-45 M of its
# exact value, and the computed bounds are within 2**-38 M**2 of exact
# bounds of the shifted centres.  The computed reach2 is within 6 * 2**-53
# relative of the exact one.  Where M**2 <= _CHORD_MAX_SPAN2 * thr2 these
# errors stay below 2**-33 thr2, while the pad of _CHORD_PAD relative keeps
# every decided bound 1e-9 thr2 or more from thr2, so no pair is decided
# wrong.  An underflow loses at most 2**-1074 absolute per operation, far
# below that margin once thr2 lies in _CHORD_THR2; that range and
# M**2 <= 16 thr2 keep every value finite.  Outside these ranges (a larger
# M, a non-finite coordinate, s < 0 or thr2 out of range) the box bound
# works alone.

# the chord bound's relative pad, and where it holds (see above)
_CHORD_PAD = 1e-9
_CHORD_MAX_SPAN2 = 16.0
_CHORD_THR2 = (2.0**-800, 2.0**800)


def _chord_chunks(x, y, size, side, thr2):
    """(mx, my, hx, hy, delta) of each chunk of `size` consecutive centres,
    about the centres' bounding-box centre: its end-centre segment m +- h and
    the largest distance of its centres from that segment; None where
    `_chord_bounds` does not hold (see above)."""
    if x.shape[0] == 0 or not (side >= 0.0 and _CHORD_THR2[0] <= thr2 <= _CHORD_THR2[1]):
        return None
    x = x - (0.5 * x.min() + 0.5 * x.max())
    y = y - (0.5 * y.min() + 0.5 * y.max())
    span = max(np.abs(x).max(), np.abs(y).max()) + side
    if not span * span <= _CHORD_MAX_SPAN2 * thr2:
        return None
    starts, stops = _cut(x.shape[0], size)
    last = stops - 1
    mx, my = 0.5 * x[last] + 0.5 * x[starts], 0.5 * y[last] + 0.5 * y[starts]
    hx, hy = 0.5 * x[last] - 0.5 * x[starts], 0.5 * y[last] - 0.5 * y[starts]
    count = stops - starts
    vx, vy = x - np.repeat(mx, count), y - np.repeat(my, count)
    ux, uy = np.repeat(hx, count), np.repeat(hy, count)
    # t = v.h / |h|**2 clipped to [-1, 1]; any t there will do where |h|**2
    # underflows
    t = (vx * ux + vy * uy) / np.maximum(ux * ux + uy * uy, np.finfo(float).tiny)
    t = np.minimum(np.maximum(t, -1.0), 1.0)
    delta = np.maximum.reduceat(np.hypot(vx - t * ux, vy - t * uy), starts)
    return mx, my, hx, hy, delta


def _chord_bounds(chunks, side, a, b):
    """Padded bounds (lower, upper) on (|dx| + s)**2 + (|dy| + s)**2 over
    every pair of a centre of chunk a and a centre of chunk b, for the chunk
    index arrays a and b of `_chord_chunks`."""
    mx, my, hx, hy, delta = chunks
    gx, gy = mx[a] - mx[b], my[a] - my[b]
    scale = np.maximum(np.abs(gx), np.abs(gy))
    flat = scale == 0.0
    scale[flat] = 1.0
    ex = gx / scale
    ex[flat] = 1.0
    ey = gy / scale
    ee = ex * ex + ey * ey
    w = side * (np.abs(ex) + np.abs(ey))
    d = (delta[a] + delta[b]) * np.sqrt(ee)
    r = np.abs(hx[a] * ex + hy[a] * ey) + np.abs(hx[b] * ex + hy[b] * ey) + d
    r2 = np.abs(hy[a] * ex - hx[a] * ey) + np.abs(hy[b] * ex - hx[b] * ey) + d
    ge = gx * ex + gy * ey + w
    gp = np.abs(gy * ex - gx * ey) + w + r2
    lo = np.maximum(ge - r, 0.0)
    ge += r
    return lo * lo / ee * (1.0 - _CHORD_PAD), (ge * ge + gp * gp) / ee * (1.0 + _CHORD_PAD)


def box_adjacency_runs(cx, cy, side: float, epsilon: float):
    """Maximal runs (row, lo, hi) of the box graph, int64, sorted by row then
    lo: row ~ j for lo <= j < hi, iff row != j and
    (|dx| + s)**2 + (|dy| + s)**2 >= (1 - eps)**2, with |dx|, |dy| the gaps
    of the two centres and s = `side`: the two boxes' largest distance, which
    two squares attain at corners, reaches 1 - eps.

    Built by `box_pair_runs` over leaves of _GRAPH_CHUNK boxes: at every
    level the node pairs that the box bound leaves undecided go to the chord
    bound of that level's nodes (`_chord_bounds`), and only the leaf pairs
    that neither decides are evaluated."""
    thr2 = (1.0 - epsilon) * (1.0 - epsilon)
    size = _GRAPH_CHUNK
    # each level's `_chord_chunks`, built on the level's first call
    chords = {}

    def reach2(ax, ay):
        # (|dx| + s)**2 + (|dy| + s)**2, in place
        ax += side
        ax *= ax
        ay += side
        ay *= ay
        ax += ay
        return ax

    def decide(level, a, b, lx, ux, ly, uy):
        none, every = reach2(ux, uy) < thr2, reach2(lx, ly) >= thr2
        if level not in chords:
            chords[level] = _chord_chunks(cx, cy, size * _FAN**level, side, thr2)
        if chords[level] is not None:
            rest = np.flatnonzero(~(none | every))
            lo, hi = _chord_bounds(chords[level], side, a[rest], b[rest])
            none[rest] = hi < thr2
            every[rest] = lo >= thr2
        return none, every

    def holds(ax, ay):
        return reach2(ax, ay) >= thr2

    return box_pair_runs(cx, cy, size, decide, holds, loops=False)


def join_runs(row, lo, hi):
    """Maximal runs, sorted by row then lo, from disjoint runs in any order:
    runs of one row that meet (one's hi is the next one's lo) become one."""
    # a row's runs are disjoint, so (row, lo) is unique and one key sorts them;
    # the keys mostly arrive in order, which the stable sort (radix or timsort)
    # runs through faster than quicksort
    order = np.argsort(row * (int(hi.max(initial=0)) + 1) + lo, kind="stable")
    row, lo, hi = row[order], lo[order], hi[order]
    # new[r]: run r starts a maximal run, and new[r + 1]: run r ends one
    new = np.ones(row.shape[0] + 1, bool)
    new[1:-1] = (row[1:] != row[:-1]) | (lo[1:] != hi[:-1])
    return row[new[:-1]], lo[new[:-1]], hi[new[1:]]


def expand_runs(lo, hi):
    """The concatenation of arange(lo[r], hi[r]) over the runs r, as int64."""
    length = hi - lo
    first = np.cumsum(length) - length
    return np.repeat(lo - first, length) + np.arange(int(length.sum()), dtype=np.int64)


def box_adjacency_csr(cx, cy, side: float, epsilon: float):
    """CSR (indptr, indices) of the box graph: `box_adjacency_runs`, expanded."""
    row, lo, hi = box_adjacency_runs(cx, cy, side, epsilon)
    indptr = np.zeros(cx.shape[0] + 1, np.int64)
    np.add.at(indptr, row + 1, hi - lo)
    return np.cumsum(indptr), expand_runs(lo, hi)


# ---------------------------------------------------------------------------
# sampled occupancy of a two-annuli intersection
# ---------------------------------------------------------------------------
# Grid of the given pitch anchored at the origin; cell (ix, iy) is occupied
# when any of its res x res interior sample points lies inside both annuli
# (centers (-d/2, 0) and (d/2, 0), radii [r_in, r_out]): with a2 = xa*xa + y*y
# and b2 = xb*xb + y*y, ri2 <= a2 <= ro2 and ri2 <= b2 <= ro2.
#
# The inside samples of a sample column x form one run of sample rows per sign
# of y, so only the ends of each column's run are found.  Why: the sample
# ordinates ys do not decrease with the sample-row index (rounding is monotone
# and the pitch is > 0), so the rows with y < 0 come first.  Over the rows with
# y >= 0, fl(y*y) does not decrease, and neither does fl(xa2 + y2) for a fixed
# xa2; so "a2 >= ri2 and b2 >= ri2" holds on a suffix of those rows and
# "a2 <= ro2 and b2 <= ro2" on a prefix, and the inside samples are one run
# [lo, hi), possibly empty.  The rows with y < 0 (only when iy0 < 0) form a
# second such segment once read in reverse, since fl((-y)*(-y)) == fl(y*y).
# `_first_rows` certifies each end with its expression, and `_paint_columns`
# writes each run's cell rows into a column-major grid with `expand_runs`, so
# the grid equals the full res x res evaluation bit for bit.
#
# A window symmetric about x = 0 (ix0 = -ix1 - 1) is painted for columns
# 0 … ix1 only, and columns ix0 … -1 are their mirror image.  With res a power
# of two, sub = (s + 1/2) / res is exact and sub[res - 1 - s] = 1 - sub[s], so
# (-1 - ix) + sub[res - 1 - s] is exactly -(ix + sub[s]), and the samples of
# column -1 - ix are those of column ix negated (fl(-u * pitch) = -fl(u *
# pitch)).  Then fl(-x + d/2) = -fl(x - d/2) and fl(-x - d/2) = -fl(x + d/2)
# swap xa2 and xb2, which the membership test treats alike.

def _first_rows(seg, c, r, side):
    """For each entry of c, the first row t of the non-decreasing seg where
    c + seg[t] >= r (side "left") or c + seg[t] > r (side "right"), or
    seg.shape[0] where none is.

    The guess searchsorted(seg, r - c) can be a row off, since fl(c + s) >= r
    and s >= fl(r - c) differ at rounding ties; each guess then walks one row
    per round until the expression is false at t - 1 and true at t."""
    n = seg.shape[0]
    hit = np.greater_equal if side == "left" else np.greater
    t = np.searchsorted(seg, r - c, side)
    while n:
        # by monotonicity at most one of up, down holds
        up = (t < n) & ~hit(c + seg[np.minimum(t, n - 1)], r)
        down = (t > 0) & hit(c + seg[np.maximum(t - 1, 0)], r)
        if not (up | down).any():
            break
        t += up
        t -= down
    return t


def _paint_columns(grid, d, r_in, r_out, pitch, ix0, iy0, res):
    """Mark in grid (cell columns ix0 … by cell rows iy0 …) the cells holding
    an inside sample."""
    ncol, nrow = grid.shape
    sub = (np.arange(res) + 0.5) / res
    xs = ((ix0 + np.arange(ncol))[:, None] + sub[None, :]).reshape(-1) * pitch
    ys = ((iy0 + np.arange(nrow))[:, None] + sub[None, :]).reshape(-1) * pitch
    xab2 = xs + np.array([[0.5 * d], [-0.5 * d]])
    xab2 *= xab2  # rows: xa*xa, xb*xb
    y2 = ys * ys
    neg = int(np.count_nonzero(ys < 0.0))
    flat = grid.reshape(-1)
    # each segment: its sample rows in order of non-decreasing y2
    for rows in (np.arange(neg, ys.shape[0]), np.arange(neg - 1, -1, -1)):
        if not rows.shape[0]:
            continue
        seg = y2[rows]
        lo = _first_rows(seg, xab2, r_in * r_in, "left").max(axis=0)
        hi = _first_rows(seg, xab2, r_out * r_out, "right").min(axis=0)
        run = np.flatnonzero(lo < hi)
        ends = rows[np.stack([lo[run], hi[run] - 1])] // res
        base = run // res * nrow  # the first cell of each run's cell column
        flat[expand_runs(base + ends.min(axis=0), base + ends.max(axis=0) + 1)] = True


def annuli_occupancy_grid(d, r_in, r_out, pitch, ix0, ix1, iy0, iy1, res=8):
    """Boolean occupancy grid of the annuli intersection over the cell window;
    ValueError when res is not an integer >= 1, when the pitch is not finite
    and > 0 or d or a radius is NaN, or when an index is too large for exact
    sample coordinates."""
    if isinstance(res, bool) or not isinstance(res, numbers.Integral) or res < 1:
        raise ValueError(f"resolution must be an integer >= 1, got {res!r}")
    if not 0.0 < pitch < math.inf or any(map(math.isnan, (d, r_in, r_out))):
        raise ValueError(f"pitch must be finite and > 0, got {pitch!r}, and d and "
                         f"the radii not NaN, got {d!r}, {r_in!r}, {r_out!r}")
    ix0, ix1, iy0, iy1, res = int(ix0), int(ix1), int(iy0), int(iy1), int(res)
    if max(abs(ix0), abs(ix1), abs(iy0), abs(iy1)) * 2 * res >= 2**53:
        raise ValueError("cell window index too large for exact sample "
                         f"coordinates (pitch {pitch!r}): epsilon is too small")
    grid = np.zeros((ix1 - ix0 + 1, iy1 - iy0 + 1), np.bool_)  # column-major
    if ix0 == -ix1 - 1 and res & (res - 1) == 0:
        half = ix1 + 1
        _paint_columns(grid[half:], d, r_in, r_out, pitch, 0, iy0, res)
        grid[:half] = grid[half:][::-1]
    else:
        _paint_columns(grid, d, r_in, r_out, pitch, ix0, iy0, res)
    return grid.T


# ---------------------------------------------------------------------------
# CSR matrix-vector product and common-neighbor row
# ---------------------------------------------------------------------------

def csr_matvec(indptr, indices, rows, x):
    """y = A @ x for the 0/1 CSR matrix; `rows` is the per-entry row index.

    The package's own products go through ``AntipodalGraph.matvec`` (prefix
    sums over runs); this kernel stays as a standalone NumPy reference.
    """
    return np.bincount(rows, weights=x[indices], minlength=indptr.shape[0] - 1)


def common_neighbor_counts(indptr, indices, rows, i: int):
    """Vector of |N(i) & N(j)| over all j for the 0/1 CSR adjacency.

    The package's own rows and tails come from the runs
    (``boundary.common_neighbor_row``, ``boundary.max_scaled_tail``); this
    kernel stays as a standalone NumPy reference.
    """
    k = indptr.shape[0] - 1
    i = int(i)
    mark = np.zeros(k, np.float64)
    mark[indices[indptr[i] : indptr[i + 1]]] = 1.0
    counts = np.bincount(rows, weights=mark[indices], minlength=k)
    return counts.astype(np.int64)
