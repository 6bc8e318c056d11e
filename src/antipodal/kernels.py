"""Hot numeric kernels.

Three exact pair engines cut ordered points into chunks of consecutive
points (`_chunks`).  `_gap_bounds` on the chunks' exact bounding boxes (see
the comment above it) settles whole the chunk pairs it decides; the rest go
through one NaN-padded gather (`_chunk_gaps`) and the brute-force
expression, so every result equals brute force.  Pair counts take
sort-tile-recursive order and a whole ε grid in one pass.  The box-pair
relations (adjacency, and the near sets of `boundary`) share
`box_pair_runs`, whose rows are maximal runs of consecutive boxes that
expand to the k×k evaluation (`box_adjacency_csr`), joined per row block.
It decides chunk pairs whole, splits the undecided ones into pairs of
quarter-chunks and decides those whole too, so that only the sub-chunk
pairs left are evaluated.  At both levels the adjacency gives the pairs that
the box bound leaves undecided to a two-sided bound tight to second order
(`_chord_bounds`), so along a convex boundary only the sub-chunk pairs at an
arc's two ends are evaluated.
Every chunked loop, the tail of `boundary` too, takes its block size from
one budget (`_per_block`).

The maximum pairwise distance descends a hierarchy of groups of four over
chunks in angle order about the bounding-box centre, only into the node pairs
whose box bound and law-of-cosines bound (`_polar_bounds`, tight to second
order along a curved boundary, where the near-maximal pairs lie) both reach
the best d2 so far, at first a lower bound L taken from near-antipodal
pairs.  The maximum is the brute-force float bit for bit.

The annuli occupancy grid is one exact pure-NumPy path: each sample column's
inside samples form one run of sample rows.  `np.searchsorted` guesses the
run's ends, and each guess is certified, or walked to the right row, by the
membership expressions the full res x res evaluation would use, so the grid
equals that evaluation cell for cell.

The CSR matrix-vector product and the common-neighbor row are standalone
NumPy references: the package's own products run on the runs
(``AntipodalGraph.matvec``).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

# the block budget of every chunked loop (`_per_block`): an item (a chunk
# row, chunk pair, node pair or tail event) keeps _TEMPS temporaries of its
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
# points per chunk of the pair counts, the diameter and the near sets
_CHUNK = 16
# boxes per chunk of the box graph
_GRAPH_CHUNK = 32


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
    """The starts and stops of the chunks of `size` consecutive points, their
    exact bounding boxes, and x and y with the NaN point of `_chunk_gaps`
    appended."""
    starts, stops = _cut(x.shape[0], size)
    return starts, stops, _group((x, x, y, y), starts), np.append(x, np.nan), np.append(y, np.nan)


def _chunk_gaps(px, py, i0, j0, size):
    """dx and dy, shaped (pairs, size, size), of every point pair of the chunk
    pairs that start at points i0 and j0: [p, s, t] is point i0[p] + s less
    point j0[p] + t.  px and py end in one NaN point, which stands in for
    every point past the last."""
    last = px.shape[0] - 1
    span = np.arange(size)
    i = np.minimum(i0[:, None, None] + span[:, None], last)
    j = np.minimum(j0[:, None, None] + span, last)
    return px[i] - px[j], py[i] - py[j]


def _chunk_d2(px, py, i0, j0):
    """dx*dx + dy*dy of `_chunk_gaps` for chunks of _CHUNK, in place."""
    d2, dy = _chunk_gaps(px, py, i0, j0, _CHUNK)
    d2 *= d2
    dy *= dy
    d2 += dy
    return d2


# ---------------------------------------------------------------------------
# exact pair counts over chunks in sort-tile-recursive order
# ---------------------------------------------------------------------------
# The points are put in sort-tile-recursive order (Leutenegger, Lopez and
# Edgington, ICDE 1997): sorted by x, cut into floor(sqrt(n / 16)) strips of
# equally many whole chunks, each strip sorted by y.  Chunks of _CHUNK
# consecutive points then have small bounding boxes, and `_gap_bounds` puts
# the d2 of every pair of a chunk pair in [lo2, hi2].  A chunk pair a < b
# meets a near threshold t whole unless lo2 <= t < hi2, and a far threshold t
# whole unless lo2 < t <= hi2; when it meets every threshold whole, it adds
# |A|·|B| to each one it counts for.  The other chunk pairs, and each chunk's
# own pairs i < j, are evaluated with the brute-force expression, so counts
# equal brute force exactly.  The order decides only how much is evaluated.

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
    starts, stops, boxes, px, py = _chunks(*xy[_tile_order(*xy.T)].T, _CHUNK)
    m = starts.shape[0]
    size = stops - starts
    rows_per = _per_block(m)
    pairs_per = _per_block(_CHUNK * _CHUNK)
    lower = np.tril_indices(_CHUNK)
    for a0 in range(0, m, rows_per):
        # chunk pairs a <= b that some threshold can count a pair of; a
        # chunk's own lo2 is 0, so its own pairs are always among them
        lx, ux, ly, uy = _gap_bounds(boxes, np.s_[a0 : a0 + rows_per, None], slice(a0, None))
        lo2 = lx * lx + ly * ly
        hi2 = ux * ux + uy * uy
        upper = np.arange(lo2.shape[1]) >= np.arange(lo2.shape[0])[:, None]
        a, b = np.nonzero(upper & ((lo2 <= near_max) | (hi2 >= far_min)))
        lo2 = lo2[a, b]
        hi2 = hi2[a, b]
        a += a0
        b += a0
        whole = a != b
        for tn, tf in zip(near_sq, far_sq):
            whole &= ((lo2 > tn) | (hi2 <= tn)) & ((lo2 >= tf) | (hi2 < tf))
        weight = size[a[whole]] * size[b[whole]]
        lo2 = lo2[whole]
        hi2 = hi2[whole]
        for e, (tn, tf) in enumerate(zip(near_sq, far_sq)):
            near[e] += int(weight[hi2 <= tn].sum())
            far[e] += int(weight[lo2 >= tf].sum())
        a = a[~whole]
        b = b[~whole]
        for p0 in range(0, a.shape[0], pairs_per):
            pa = a[p0 : p0 + pairs_per]
            pb = b[p0 : p0 + pairs_per]
            d2 = _chunk_d2(px, py, starts[pa], starts[pb])
            # a chunk's own pairs i >= j read NaN, which neither test counts
            d2[np.flatnonzero(pa == pb)[:, None], lower[0], lower[1]] = np.nan
            near_d2 = d2[d2 <= near_max]
            far_d2 = d2[d2 >= far_min]
            for e, (tn, tf) in enumerate(zip(near_sq, far_sq)):
                near[e] += int(np.count_nonzero(near_d2 <= tn))
                far[e] += int(np.count_nonzero(far_d2 >= tf))
    return list(zip(near, far))


def pair_threshold_counts(xy: np.ndarray, epsilon: float) -> tuple[int, int]:
    """Count unordered pairs at distance <= epsilon and >= 1 - epsilon."""
    return pair_grid_counts(xy, [epsilon])[0]


# ---------------------------------------------------------------------------
# maximum pairwise distance by a descent over a hierarchy of chunks
# ---------------------------------------------------------------------------
# Sorted by angle about the bounding-box centre, a convex boundary's
# near-maximal pairs join chunks about pi apart, and `_polar_bounds` rules
# out the rest to second order.  Each node of a level groups _FAN nodes of the
# level below (level 0: the chunks), up to at most _TOP nodes at the top, and
# its boxes contain its children's, so the bounds of a node pair hold for
# every pair below it.  The descent (the dual-tree scheme of Gray and Moore,
# NIPS 2000) splits, depth first, only node pairs whose bounds reach the best
# d2 so far, and each block of chunk pairs evaluated can raise that best.
_FAN = 4
_TOP = 64


def _split(a, b, q):
    """The q x q child pairs of the node pairs (a, b), in (pair, child of a,
    child of b) order: child a*q + s of a with child b*q + t of b."""
    grid = np.arange(q)
    return (a[:, None] * q + grid).repeat(q), (b[:, None] * q + grid).repeat(q, axis=0).ravel()


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
    levels = [_group((x, x, y, y, r, t, t), starts)]
    while len(levels[-1][0]) > _TOP:
        levels.append(_group(levels[-1], np.arange(0, len(levels[-1][0]), _FAN)))

    def bound(level, a, b):
        # the polar bound only where the box bound reaches the best so far
        ux, uy = _gap_upper(levels[level][:4], a, b)
        up = ux * ux + uy * uy
        keep = up >= best
        a, b, up = a[keep], b[keep], up[keep]
        if use_polar:
            np.minimum(up, _polar_bounds(levels[level][4:], a, b), out=up)
        return level, a, b, up

    top = len(levels) - 1
    stack = [bound(top, *np.triu_indices(len(levels[top][0])))]
    while stack:
        # the pairs whose bounds reach the best so far, a block at a time
        level, a, b, up = stack.pop()
        keep = up >= best
        a, b, up = a[keep], b[keep], up[keep]
        per = _per_block(_FAN * _FAN if level else _CHUNK * _CHUNK)
        if a.shape[0] > per:
            stack.append((level, a[per:], b[per:], up[per:]))
            a, b = a[:per], b[:per]
        if level == 0:
            # fmax skips the last chunk's NaN point
            d2 = _chunk_d2(px, py, starts[a], starts[b])
            best = float(np.fmax.reduce(d2, axis=None, initial=best))
        else:
            # a node's pairs with itself split into its children's pairs a <= b
            a, b = _split(a, b, _FAN)
            keep = (a <= b) & (b < len(levels[level - 1][0]))
            stack.append(bound(level - 1, a[keep], b[keep]))
    return best


# ---------------------------------------------------------------------------
# box-pair relations over equal axis-aligned boxes (runs of consecutive boxes)
# ---------------------------------------------------------------------------
# Box relations that depend only on |dx| and |dy| of the two centers share one
# engine.  The boxes are cut, in their given order, into chunks of consecutive
# boxes, and `_gap_bounds` on the chunks' bounding boxes bounds the |dx| and
# |dy| of every pair of a chunk pair.  Each relation decides a chunk pair
# whole from them (no pair holds, or every pair does):
# * the adjacency of `box_adjacency_runs` needs no slack;
# * the near sets of `boundary.near_runs` compare squared gaps with a slack,
#   since their hypot (`boundary._box_gap`) is not guaranteed monotone.
# The adjacency passes the chunk pairs these bounds leave undecided to the
# second-order `_chord_bounds` (see the comment above `_CHORD_PAD`).  The
# chunk pairs still undecided are split into the pairs of their sub-chunks
# (a quarter of a chunk: 8 boxes for the graph, 4 for the near sets), which
# the same bounds decide in the same way, and only the sub-chunk pairs still
# undecided are evaluated, with the relation's own expression, so the runs
# equal the full k x k evaluation entry for entry.  The split pays most at
# a corner: a chunk that straddles one fits its segment badly, and whole it
# stays undecided against most of the opposite arc.  The order decides only
# how much is pruned: along a convex boundary in arc-length order the
# adjacency evaluates 0.13 pairs per graph entry on the 10 000-point circle
# hull at eps = 1/1024 (0.65 on a Reuleaux sample; 0.66 and 2.7 without the
# split), and a row holds one run of antipodes, or two where the arc wraps
# past box k - 1.


def _true_runs(mask):
    """Runs (row, lo, hi) of True in each row of a 2-D boolean array."""
    pad = np.zeros((mask.shape[0], mask.shape[1] + 2), bool)
    pad[:, 1:-1] = mask
    rows, pos = np.nonzero(pad[:, 1:] != pad[:, :-1])
    return rows[0::2], pos[0::2], pos[1::2]


def _sub_size(size):
    """Boxes per sub-chunk of `box_pair_runs` under chunks of `size`: a
    quarter of a chunk where 4 divides `size`, else one box, so that the
    sub-chunks tile the chunks."""
    return size // 4 if size % 4 == 0 else 1


def _whole_runs(starts, stops, row, lo, hi):
    """Run pieces (box row, lo, hi) of the chunk runs (row, lo, hi): every
    box of chunk `row` ~ every box of chunks lo .. hi - 1."""
    count = stops[row] - starts[row]
    return (expand_runs(starts[row], stops[row]), np.repeat(starts[lo], count),
            np.repeat(stops[hi - 1], count))


def box_pair_runs(cx, cy, size: int, decide, holds, loops: bool = True):
    """Maximal runs (row, lo, hi) of a box-pair relation, int64, sorted by row
    then lo: row ~ j for lo <= j < hi.

    The boxes are cut into chunks of `size`, and each chunk into sub-chunks
    of `_sub_size(size)`.  ``decide(level, a, b, lx, ux, ly, uy)`` takes the
    flat indices a and b of chunks (level 0) or sub-chunks (level 1),
    broadcast against each other, and bounds on |dx| and |dy| over every
    pair of each pair (a, b), and returns boolean arrays (none, every).  The
    chunk pairs that level 0 leaves undecided are split into sub-chunk
    pairs, and only the sub-chunk pairs that level 1 leaves undecided are
    evaluated, with ``holds(|dx|, |dy|)``, which must be False on the NaN box
    that pads the last chunk.  Both may overwrite their bound arguments.
    With loops=False, i ~ i is dropped.  Each row block joins its own run
    pieces.
    """
    starts, stops, boxes, px, py = _chunks(cx, cy, size)
    sub = _sub_size(size)
    q = size // sub
    sstarts, sstops = _cut(cx.shape[0], sub)
    # the sub-chunks' boxes, built at the first undecided chunk pair
    sboxes = ()
    m, ms = starts.shape[0], sstarts.shape[0]
    span = np.arange(sub)
    rows_per = _per_block(m)
    splits_per = _per_block(q * q)
    pairs_per = _per_block(sub * sub)
    none = np.empty(0, np.int64)
    blocks = [(none, none, none)]
    for a0 in range(0, m, rows_per):
        a = np.arange(a0, min(a0 + rows_per, m))
        skip, every = decide(0, a[:, None], np.arange(m),
                             *_gap_bounds(boxes, np.s_[a0 : a0 + rows_per, None], slice(None)))
        if not loops:
            # a chunk's own pairs include i ~ i, so they are split
            every[a - a0, a] = False
        ra, blo, bhi = _true_runs(every)
        pieces = [_whole_runs(starts, stops, ra + a0, blo, bhi)]
        pa, pb = np.nonzero(~(skip | every))
        pa += a0
        for p0 in range(0, pa.shape[0], splits_per):
            # the sub-chunk pairs of each chunk pair, one sub-row after
            # another; the last chunk may hold fewer than q sub-chunks
            sa, sb = _split(pa[p0 : p0 + splits_per], pb[p0 : p0 + splits_per], q)
            sboxes = sboxes or _group((cx, cx, cy, cy), sstarts)
            real = (sa < ms) & (sb < ms)
            np.minimum(sa, ms - 1, out=sa)
            np.minimum(sb, ms - 1, out=sb)
            sskip, severy = decide(1, sa, sb, *_gap_bounds(sboxes, sa, sb))
            severy &= real
            if not loops:
                severy &= sa != sb
            # runs of sub-chunks whose every pair holds, one per sub-row
            r, tlo, thi = _true_runs(severy.reshape(-1, q))
            r *= q
            pieces.append(_whole_runs(sstarts, sstops, sa[r], sb[r + tlo], sb[r + thi - 1] + 1))
            leaf = np.flatnonzero(~(sskip | severy) & real)
            for f0 in range(0, leaf.shape[0], pairs_per):
                i0 = sstarts[sa[leaf[f0 : f0 + pairs_per]]]
                j0 = sstarts[sb[leaf[f0 : f0 + pairs_per]]]
                dx, dy = _chunk_gaps(px, py, i0, j0, sub)
                hit = holds(np.abs(dx, out=dx), np.abs(dy, out=dy))
                if not loops:
                    hit[np.flatnonzero(i0 == j0)[:, None], span, span] = False
                t, lo, hi = _true_runs(hit.reshape(-1, sub))
                pair, off = np.divmod(t, sub)
                pieces.append((i0[pair] + off, j0[pair] + lo, j0[pair] + hi))
        # a block holds every chunk pair of its rows, so its runs are final
        blocks.append(join_runs(*(np.concatenate(p) for p in zip(*pieces))))
    return tuple(np.concatenate(b) for b in zip(*blocks))


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

    At both levels of `box_pair_runs` (chunks of _GRAPH_CHUNK boxes and
    their quarters) the pairs that the box bound leaves undecided go to the
    chord bound (`_chord_bounds`), and only the sub-chunk pairs that neither
    decides are evaluated."""
    thr2 = (1.0 - epsilon) * (1.0 - epsilon)
    size = _GRAPH_CHUNK
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
        if level not in chords:  # built on the level's first call
            chords[level] = _chord_chunks(cx, cy, (size, _sub_size(size))[level], side, thr2)
        if chords[level] is not None:
            rest = np.nonzero(~(none | every))
            a, b = np.broadcast_arrays(a, b)
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
    # a row's runs are disjoint, so (row, lo) is unique and one key sorts them
    order = np.argsort(row * (int(hi.max(initial=0)) + 1) + lo)
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
# `_first_rows` certifies each end with its expression, so the grid equals the
# full res x res evaluation bit for bit.

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
    ncol = ix1 - ix0 + 1
    nrow = iy1 - iy0 + 1
    sub = (np.arange(res) + 0.5) / res
    xs = ((ix0 + np.arange(ncol))[:, None] + sub[None, :]).reshape(-1) * pitch
    ys = ((iy0 + np.arange(nrow))[:, None] + sub[None, :]).reshape(-1) * pitch
    xab = xs + np.array([[0.5 * d], [-0.5 * d]])  # rows: xa, xb
    xab2 = xab * xab
    y2 = ys * ys
    neg = int(np.count_nonzero(ys < 0.0))
    col = np.arange(ncol * res) // res
    diff = np.zeros((nrow + 1) * ncol, np.int32)
    # each segment: its sample rows in order of non-decreasing y2
    for rows in (np.arange(neg, ys.shape[0]), np.arange(neg - 1, -1, -1)):
        if not rows.shape[0]:
            continue
        seg = y2[rows]
        lo = _first_rows(seg, xab2, r_in * r_in, "left").max(axis=0)
        hi = _first_rows(seg, xab2, r_out * r_out, "right").min(axis=0)
        run = lo < hi
        ends = rows[np.stack([lo[run], hi[run] - 1])] // res
        np.add.at(diff, ends.min(axis=0) * ncol + col[run], np.int32(1))
        np.add.at(diff, (ends.max(axis=0) + 1) * ncol + col[run], np.int32(-1))
    diff = diff.reshape(nrow + 1, ncol)
    return np.cumsum(diff, axis=0, out=diff)[:nrow] > 0


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
