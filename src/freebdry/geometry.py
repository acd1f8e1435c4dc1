"""Exact polygonal domains with labeled fixed/free boundary.

A :class:`LabeledDomain` is a simple polygon (optionally with polygonal
holes) in which every boundary edge carries one of two tags:

* ``"fixed"`` -- the part of the boundary where admissible functions vanish;
* ``"free"``  -- the part where they are unconstrained.

On top of that representation this module provides the geometric operations
the verification campaigns need: areas and labeled boundary lengths,
concavity checking of the free chain (every chord between two free-boundary
points must avoid the interior), isoperimetric reports against the sharp
free-boundary constant, equal-area line cuts, one reflection symmetrization
step, and rasterization onto a uniform cell-centered grid.

All operations are pure; domains are immutable after construction.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .constants import isoperimetric_constants
from .errors import DomainValidationError, PreconditionError

FIXED = "fixed"
FREE = "free"

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

__all__ = [
    "FIXED",
    "FREE",
    "GOLDEN_ANGLE",
    "CutLine",
    "LabeledDomain",
    "ConcavityReport",
    "IsoperimetricReport",
    "SymmetrizationResult",
    "RasterGrid",
    "is_concave_free_boundary",
    "require_admissible",
    "isoperimetric_report",
    "equal_volume_cut",
    "symmetrization_step",
    "symmetrize_iterate",
    "rasterize",
]


# ---------------------------------------------------------------------------
# low-level polygon helpers
# ---------------------------------------------------------------------------

def _as_points(vertices) -> np.ndarray:
    try:
        pts = np.array(vertices, dtype=float)
    except (TypeError, ValueError):  # non-numeric or ragged coordinates
        pts = None
    if pts is None or pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainValidationError("vertices must be an (m, 2) array of points")
    if not np.isfinite(pts).all():
        raise DomainValidationError("vertex coordinates must be finite")
    return pts


def _next(a: np.ndarray) -> np.ndarray:
    """Rows shifted by one, cyclically: row k of the result is row k + 1."""
    return np.concatenate((a[1:], a[:1]))


def _signed_area(pts: np.ndarray) -> float:
    """Signed area of a polygon (positive counterclockwise), by the shoelace
    from the first vertex, which keeps its precision far from the origin.
    The one polygon-area helper."""
    rel = pts - pts[0]
    x, y = rel.T
    x1, y1 = _next(rel).T
    return 0.5 * float(np.sum(x * y1 - x1 * y))


def _edge_lengths(pts: np.ndarray) -> np.ndarray:
    return np.hypot(*(_next(pts) - pts).T)


def _orient(a, b, c):
    """Orientation of the triangle abc; points may be arrays of points."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_cross(a, b, c, d, eps: float) -> np.ndarray:
    """Crossing test for segments ab and cd, vectorized over segment pairs
    given as coordinate rows (a[0] = x, a[1] = y); shared endpoints do not
    count, collinear overlap of positive length does."""
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    proper = ((o1 > eps) & (o2 < -eps) | (o1 < -eps) & (o2 > eps)) & (
        (o3 > eps) & (o4 < -eps) | (o3 < -eps) & (o4 > eps)
    )
    collinear = np.maximum(np.maximum(abs(o1), abs(o2)), np.maximum(abs(o3), abs(o4))) <= eps
    lox = np.maximum(np.minimum(a[0], b[0]), np.minimum(c[0], d[0]))
    hix = np.minimum(np.maximum(a[0], b[0]), np.maximum(c[0], d[0]))
    loy = np.maximum(np.minimum(a[1], b[1]), np.minimum(c[1], d[1]))
    hiy = np.minimum(np.maximum(a[1], b[1]), np.maximum(c[1], d[1]))
    seps = math.sqrt(eps)
    return proper | collinear & ((hix - lox > seps) | (hiy - loy > seps))


# edge pairs tested together by _check_crossings, and point-edge pairs
# measured together by _nearest_segment; bounds their working sets
_EDGE_PAIR_BLOCK = 1 << 14
# _nearest_segment tiles its points only when they fill more than this many
# blocks and there are at least this many edges: below either, sorting the
# points and bounding the tiles costs more than the edges they drop save
_TILE_MIN_BLOCKS, _TILE_MIN_EDGES = 6, 16


def _check_crossings(start: np.ndarray, end: np.ndarray, loop: np.ndarray, scale: float) -> None:
    """Raise for the first pair (i, j), i < j, of the edges ``start[k]`` ->
    ``end[k]`` that cross, in row-major order; ``loop[k]`` numbers edge k's
    loop (0 for the outer one, ascending).  Adjacent edges are tested too:
    their shared endpoint does not count, so only an edge retracing its
    neighbour crosses it.  Within one loop the message names the loop's own
    edge numbers, edge i joining its vertex i to vertex i + 1."""
    m = len(start)
    eps = 1e-12 * scale * scale
    start, end = start.T, end.T
    rows = max(1, _EDGE_PAIR_BLOCK // m)
    for i0 in range(0, m, rows):
        i, j = np.nonzero(np.triu(np.ones((min(rows, m - i0), m), dtype=bool), k=i0 + 1))
        i += i0
        hit = np.flatnonzero(_segments_cross(start[:, i], end[:, i], start[:, j], end[:, j], eps))
        if hit.size:
            i, j = i[hit[0]], j[hit[0]]
            if loop[i] == loop[j]:
                first = np.searchsorted(loop, loop[i])
                raise DomainValidationError(
                    f"polygon is not simple: edges {i - first} and {j - first} intersect")
            raise DomainValidationError("hole must lie inside the outer polygon" if loop[i] == 0
                                        else "holes must not cross each other")


def _checked_loop(vertices, labels, what: str) -> tuple[np.ndarray, tuple[str, ...], float]:
    """One boundary loop, the outer polygon or a hole, validated: finite
    coordinates, at least 3 vertices, one fixed/free label per edge (all
    fixed for ``None``) and a non-degenerate area.  Returns the vertices
    turned counterclockwise, with the edge labels remapped to match, and
    their area (taken again on the turned copy, so it is that copy's
    shoelace bit for bit)."""
    pts = _as_points(vertices)
    if len(pts) < 3:
        raise DomainValidationError(f"a {what} needs at least 3 vertices")
    labels = [FIXED] * len(pts) if labels is None else [str(l).lower() for l in labels]
    if len(labels) != len(pts):
        raise DomainValidationError(f"need exactly one label per {what} edge")
    if any(l not in (FIXED, FREE) for l in labels):
        raise DomainValidationError(f"labels must be '{FIXED}' or '{FREE}'")
    scale = float(np.max(np.ptp(pts, axis=0)))
    signed = _signed_area(pts)
    if abs(signed) <= 1e-14 * scale * scale:
        raise DomainValidationError(f"{what} area is degenerate")
    if signed < 0.0:
        m = len(pts)
        pts = pts[::-1].copy()
        labels = [labels[(m - 2 - j) % m] for j in range(m)]
        signed = _signed_area(pts)
    return pts, tuple(labels), signed


def _free_chain_rows(free: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """The edge-table rows of the free edges in chain order, ``free``
    flagging the edges of loops of ``sizes`` edges each: from the free edge
    whose predecessor on its loop is fixed, or from the first edge of an
    all-free loop, around the loop; empty with no free edge.  Raises unless
    the free edges form one run."""
    chain, runs, first = [], 0, 0
    for size in sizes:
        flags = free[first:first + size].tolist()
        heads = [0] if all(flags) else [i for i, f in enumerate(flags) if f and not flags[i - 1]]
        runs += len(heads)
        if heads:
            chain = [first + (heads[0] + k) % size for k in range(sum(flags))]
        first += size
    if runs > 1:
        raise DomainValidationError("free edges must form one connected boundary chain")
    return np.array(chain, dtype=np.intp)


def _points_in_polygon(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd ray casting of ``points`` (N, 2), edges by points: the edge
    from (x1, y1) to (x2, y2) is crossed by the rightward ray of (x, y) when
    ``(y1 > y) != (y2 > y)`` and ``x < x1 + (y - y1)(x2 - x1)/(y2 - y1)``,
    and a point is inside when it crosses an odd number of edges.  A
    horizontal edge or a NaN ordinate crosses no ray."""
    x, y = points[:, 0], points[:, 1]
    x1, y1 = poly[:, :1], poly[:, 1:]
    x2, y2 = _next(x1), _next(y1)
    # on the edges a ray misses, a horizontal edge divides by 0, an infinite
    # ordinate gives inf - inf and a huge one overflows
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        crossed = ((y1 > y) != (y2 > y)) & (x < x1 + (y - y1) * (x2 - x1) / (y2 - y1))
    return np.logical_xor.reduce(crossed, axis=0)


def _check_holes(outer: np.ndarray, holes: Sequence[np.ndarray]) -> None:
    """Raise unless every hole lies inside the outer loop and outside every
    other hole; the loops are known not to cross."""
    for k, hole in enumerate(holes):
        if not _points_in_polygon(hole, outer).all():
            raise DomainValidationError("hole must lie inside the outer polygon")
        for other in holes[:k]:
            if _points_in_polygon(hole, other).all() or _points_in_polygon(other, hole).all():
                raise DomainValidationError("a hole must not lie inside another hole")


def _grid_in_polygon(xs: np.ndarray, ys: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd membership of the grid points (xs[j], ys[i]) as an (ny, nx)
    mask; ``xs`` and ``ys`` ascend.

    The same test as ``_points_in_polygon``, arranged by rows: each edge's
    crossing abscissa ``xi`` is computed once per row it straddles, and the
    points left of it (``xs[j] < xi``) are the first ``searchsorted`` columns.
    A crossing adds 1 at column 0 and takes 1 off at that column, so a row's
    cumulative sum counts the crossings right of each point.
    """
    ny, nx = len(ys), len(xs)
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = _next(x1), _next(y1)
    # rows with min(y1, y2) <= y < max(y1, y2): (y1 > y) != (y2 > y)
    r0 = np.searchsorted(ys, np.minimum(y1, y2), side="left")
    counts = np.searchsorted(ys, np.maximum(y1, y2), side="left") - r0
    edge = np.repeat(np.arange(len(poly)), counts)
    row = np.arange(len(edge)) + np.repeat(r0 - (np.cumsum(counts) - counts), counts)
    py = ys[row]
    x1, y1, x2, y2 = x1[edge], y1[edge], x2[edge], y2[edge]
    xi = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
    col = np.searchsorted(xs, xi, side="left")
    start = row * (nx + 1)
    marks = np.bincount(start, minlength=ny * (nx + 1)) - np.bincount(
        start + col, minlength=ny * (nx + 1))
    return (np.cumsum(marks.reshape(ny, nx + 1)[:, :nx], axis=1) & 1).astype(bool)


def _segment_offsets(px: np.ndarray, py: np.ndarray, seg: np.ndarray,
                     qx: np.ndarray, qy: np.ndarray, t: np.ndarray) -> None:
    """Fill ``qx`` and ``qy`` (K, P) with the offsets from the points
    (px[i], py[i]) to their nearest points on the segments of ``seg`` =
    (ax, ay, abx, aby, denom), each (K, 1); ``t`` is scratch."""
    ax, ay, abx, aby, denom = seg
    np.subtract(px, ax, out=qx)
    np.subtract(py, ay, out=qy)
    np.multiply(qx, abx, out=t)
    t += np.multiply(qy, aby, out=qy)
    t /= denom
    np.clip(t, 0.0, 1.0, out=t)
    # the projection a + t * ab, then the offset to it
    np.subtract(px, np.add(ax, np.multiply(t, abx, out=qx), out=qx), out=qx)
    np.subtract(py, np.add(ay, np.multiply(t, aby, out=qy), out=qy), out=qy)


def _nearest_in_block(px: np.ndarray, py: np.ndarray, seg: np.ndarray,
                      bufs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One block of :func:`_nearest_segment`: the (K, P) distances from the
    points (px[i], py[i]) to the segments of ``seg``, laid out in the flat
    scratch ``bufs`` (3, at least K * P).  Returns each point's smallest
    distance and the first row that attains it."""
    shape = (len(seg[0]), len(px))
    qx, qy, t = bufs[:, :shape[0] * shape[1]].reshape(3, *shape)
    _segment_offsets(px, py, seg, qx, qy, t)
    d = np.hypot(qx, qy, out=t)
    return d.min(axis=0), d.argmin(axis=0)


def _tiles(points: np.ndarray, starts: np.ndarray, ends: np.ndarray, seg: np.ndarray,
           rows: int) -> list[tuple[slice | np.ndarray, np.ndarray]]:
    """The blocks of :func:`_nearest_segment`, each a selection of the
    points and the edges it measures them against, ascending."""
    n, m = len(points), len(starts)
    every = np.arange(m)
    untiled = [(slice(p0, p0 + rows), every) for p0 in range(0, n, rows)]
    if n <= _TILE_MIN_BLOCKS * rows or m < _TILE_MIN_EDGES:
        return untiled
    x, y = points[:, 0], points[:, 1]
    x_lo, x_hi, y_lo, y_hi = x.min(), x.max(), y.min(), y.max()
    e_lo, e_hi = np.minimum(starts, ends), np.maximum(starts, ends)
    scale = float(np.abs([x_lo, x_hi, y_lo, y_hi, e_lo.min(), e_hi.max()]).max())
    if not math.isfinite(scale):
        return untiled
    # square buckets holding about `rows` points where the points fill their
    # box, in stable key order; a bucket index is at most n a side
    w, h = x_hi - x_lo, y_hi - y_lo
    side = math.sqrt(w * h * rows / n) or max(w, h) * rows / n or 1.0
    key = np.fmin((y - y_lo) / side, n).astype(np.intp) * (n + 1)
    key += np.fmin((x - x_lo) / side, n).astype(np.intp)
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1)).tolist()
    del key
    boxes = []  # x0, x1, y0, y1 of each bucket, one coordinate gathered at a time
    for c in (x, y):
        c = c[order]
        boxes += [np.minimum.reduceat(c, first), np.maximum.reduceat(c, first)]
    x0, x1, y0, y1 = boxes
    # lb: the gap between a bucket's box and an edge's
    lb = np.hypot(np.maximum(np.maximum(e_lo[:, 0] - x1[:, None], x0[:, None] - e_hi[:, 0]), 0.0),
                  np.maximum(np.maximum(e_lo[:, 1] - y1[:, None], y0[:, None] - e_hi[:, 1]), 0.0))
    # ub: over the edges, the least distance of the box corner farthest away
    b = len(first)
    qx, qy, s = np.empty((3, m, 4 * b))
    _segment_offsets(np.concatenate([x0, x1, x0, x1]), np.concatenate([y0, y0, y1, y1]),
                     seg, qx, qy, s)
    s = np.multiply(qx, qx, out=s)
    s += np.multiply(qy, qy, out=qx)
    ub = np.sqrt(s.reshape(m, 4, b).max(axis=1).min(axis=0))
    ub += 1e-12 * scale + 1e-150 if scale < 1e153 else math.inf
    blocks = []
    for b0, b1, row in zip(first, [*first[1:], n], ~(lb > ub[:, None])):
        # the fewest pieces, of equal size give or take one, that fit the
        # scratch block of rows * m pairs with the kept edges
        e = every[row]
        k = -(-(b1 - b0) // (rows * m // len(e)))
        cuts = [b0 + j * (b1 - b0) // k for j in range(k + 1)]
        blocks += [(order[c0:c1], e) for c0, c1 in zip(cuts, cuts[1:])]
    return blocks


def _nearest_segment(points: np.ndarray, starts: np.ndarray,
                     ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``points`` (N, 2), the distance to the nearest of the
    segments ``starts[k]`` -> ``ends[k]`` (M, 2) and that segment's index,
    the first one on a tie: the row minimum and first argmin of the (N, M)
    distance matrix.  With no segment the distance is inf and the index 0.

    The pairs are measured in blocks of at most ``_EDGE_PAIR_BLOCK`` (one
    point a block when a point has more edges), each laid out edges by
    points, the points along the contiguous axis, so a block's minimum and
    first argmin are reductions over axis 0.  Each distance is elementwise
    arithmetic on its own point and segment, with no BLAS reduction, so its
    bits do not depend on the CPU's BLAS kernel nor on which other points
    share its block.  A zero-length segment gives the distance to its
    endpoint.

    Tiles.  When the points fill more than ``_TILE_MIN_BLOCKS`` blocks,
    there are at least ``_TILE_MIN_EDGES`` edges and every coordinate is
    finite, the points are grouped by the square buckets of a uniform grid
    over their bounding box, in stable key order, and each bucket is
    measured only against the edges that can be nearest to one of its
    points.  For a bucket and an edge, the lower bound ``lb`` is the gap
    between the bucket's bounding box and the edge's; the bucket's upper
    bound ``ub`` is, over all edges, the least distance of the box corner
    farthest from the edge.  Distance to a segment is convex, so its largest
    value over the box is at a corner, and every point of the bucket lies
    within ``ub`` of some edge.  An edge is dropped only when
    ``lb > ub + 1e-12 * scale + 1e-150``, ``scale`` being the largest
    |coordinate| of the points and edge ends.  Every computed distance is
    within a few ulp of ``scale`` of the exact one, and so are the bounds;
    where |ab|^2 is subnormal the projection can be off by up to |ab|
    < 1.5e-154, which the absolute term covers.  So a dropped edge's
    computed distance exceeds the point's computed minimum, and the kept
    edges, measured in ascending order by the same arithmetic, give the
    same minimum and first index.  At ``scale`` >= 1e153 the products of
    offsets can overflow, giving an inf or NaN distance no bound predicts,
    so no edge is dropped; a NaN bound keeps every edge too, as it never
    compares greater.  Each bucket is cut into the fewest pieces that fit a
    block with its kept edges.  Below those sizes, sorting the points and
    bounding the buckets costs more than the dropped edges save, and the
    points are measured in input order against every edge.
    """
    n, m = len(points), len(starts)
    if not n or not m:
        return np.full(n, np.inf), np.zeros(n, dtype=np.intp)
    rows = max(1, _EDGE_PAIR_BLOCK // m)
    # an overflow only keeps a tile's edges, or gives the inf or NaN distance
    # that the per-pair arithmetic gives anyway
    with np.errstate(over="ignore", invalid="ignore"):
        ax, ay = starts[:, 0], starts[:, 1]
        abx, aby = ends[:, 0] - ax, ends[:, 1] - ay
        denom = abx * abx + aby * aby
        denom[denom == 0.0] = 1.0  # the projection parameter is then 0 / 1
        seg = np.stack([ax, ay, abx, aby, denom])
        blocks = _tiles(points, starts, ends, seg[:, :, None], rows)
        # scratch blocks reused by every block: fresh arrays this size would
        # be page-faulted in anew each time
        bufs = np.empty((3, min(rows, n) * m))
        dist, index = np.empty(n), np.empty(n, dtype=np.intp)
        for sel, e in blocks:
            dist[sel], k = _nearest_in_block(points[sel, 0], points[sel, 1], seg[:, e, None], bufs)
            index[sel] = e[k]
    return dist, index


# ---------------------------------------------------------------------------
# cut line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutLine:
    """A straight line given by its direction angle and a signed offset.

    The line is { x : n . x = offset } with unit normal
    n = (-sin(angle), cos(angle)); its direction is (cos(angle), sin(angle)).
    """

    angle: float
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "angle", float(self.angle) % math.pi)

    @property
    def normal(self) -> np.ndarray:
        return np.array([-math.sin(self.angle), math.cos(self.angle)])

    def signed_distance(self, points) -> np.ndarray:
        """``n . x - offset`` of each point: the side-of-line test of every
        cut and reflection.  It is elementwise arithmetic, with no BLAS
        reduction, so its bits do not depend on the CPU's BLAS kernel."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        nx, ny = self.normal
        return pts[:, 0] * nx + pts[:, 1] * ny - self.offset

    def mirror(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts - 2.0 * self.signed_distance(pts)[:, None] * self.normal[None, :]


# ---------------------------------------------------------------------------
# the domain type
# ---------------------------------------------------------------------------

class _EdgeTable(NamedTuple):
    """Every boundary edge of a domain, the outer loop's in order and then
    each hole's: start and end points (M, 2), length, free flag and the
    number of its loop (0 for the outer one).  Every array is read-only."""

    start: np.ndarray
    end: np.ndarray
    length: np.ndarray
    free: np.ndarray
    loop: np.ndarray


class LabeledDomain:
    """Simple polygon with fixed/free edge labels and (by default all-fixed)
    holes.

    Vertices are stored counterclockwise; edge i joins vertex i to vertex
    i + 1 (cyclically) and carries ``labels[i]``.  The free edges, wherever
    they live, must form a single connected chain; its edge-table rows, in
    chain order, are laid out once.  Each hole lies inside the
    outer polygon and outside every other hole, and no edge of one loop
    crosses an edge of another.  ``hole_labels``, when given, has one entry
    per hole: its label list, or ``None`` for an all-fixed hole.

    A domain is immutable: ``vertices`` and every array in ``holes`` are
    read-only copies of the input.  So its edge table and its area are
    computed once, in the constructor, and the report of
    :func:`is_concave_free_boundary` is computed on its first call and kept
    on the domain for every later call.
    """

    __slots__ = ("vertices", "labels", "holes", "hole_labels", "area", "_edges", "_free_chain",
                 "_concavity")

    def __init__(self, vertices, labels, holes=(), hole_labels=None):
        pts, labels, area = _checked_loop(vertices, labels, "polygon")
        holes = tuple(holes)
        hole_labels = (None,) * len(holes) if hole_labels is None else tuple(hole_labels)
        if len(hole_labels) != len(holes):
            raise DomainValidationError(
                f"'hole_labels' must have one entry per hole: {len(holes)} holes, "
                f"{len(hole_labels)} entries")
        hole_list, hole_label_list = [], []
        for hpts, hlabs in zip(holes, hole_labels):
            h, hlabs, hole_area = _checked_loop(hpts, hlabs, "hole")
            area -= hole_area
            hole_list.append(h)
            hole_label_list.append(hlabs)
        loops = (pts, *hole_list)
        start = np.concatenate(loops)
        end = np.concatenate([_next(loop) for loop in loops])
        edges = _EdgeTable(
            start, end, np.concatenate([_edge_lengths(loop) for loop in loops]),
            np.array([l == FREE for labs in (labels, *hole_label_list) for l in labs]),
            np.repeat(np.arange(len(loops)), [len(loop) for loop in loops]))
        _check_crossings(edges.start, edges.end, edges.loop, float(np.max(np.ptp(pts, axis=0))))
        _check_holes(pts, hole_list)
        chain = _free_chain_rows(edges.free, [len(loop) for loop in loops])

        for a in (*loops, *edges, chain):
            a.setflags(write=False)
        self._edges = edges
        self._free_chain = chain
        self.vertices = pts
        self.labels = labels
        self.holes = tuple(hole_list)
        self.hole_labels = tuple(hole_label_list)
        self.area = area
        self._concavity = None

    # -- basic measurements -----------------------------------------------------

    def _carrying(self, label: str | None):
        """Selects the edge-table rows of the edges carrying ``label`` (every
        edge if None)."""
        return slice(None) if label is None else self._edges.free == (label == FREE)

    def boundary_length(self, label: str | None = None) -> float:
        total = 0.0
        for L in self._edges.length[self._carrying(label)].tolist():  # in edge order
            total += L
        return total

    @property
    def fixed_length(self) -> float:
        return self.boundary_length(FIXED)

    @property
    def free_length(self) -> float:
        return self.boundary_length(FREE)

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1])

    @property
    def diameter(self) -> float:
        x0, y0, x1, y1 = self.bbox
        return math.hypot(x1 - x0, y1 - y0)

    # -- point queries ------------------------------------------------------------

    def _loops(self) -> tuple[np.ndarray, ...]:
        return (self.vertices, *self.holes)

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside = _points_in_polygon(pts, self.vertices)
        for h in self.holes:
            inside &= ~_points_in_polygon(pts, h)
        return inside

    def _distance(self, points, label: str | None) -> np.ndarray:
        """Distance to the nearest edge carrying ``label`` (any edge if None);
        inf if there is none.  Each point-edge distance is measured on its
        own by :func:`_nearest_segment`, so the distance to every edge is the
        smaller of those to the fixed and to the free edges, bit for bit."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        sel = self._carrying(label)
        return _nearest_segment(pts, self._edges.start[sel], self._edges.end[sel])[0]

    # The bench tracer wraps both distance methods by name; neither calls the
    # other, so each query is counted once.
    def boundary_distance(self, points) -> np.ndarray:
        return self._distance(points, None)

    def distance_to_label(self, points, label: str) -> np.ndarray:
        return self._distance(points, label)

    # -- free-chain parameterization -------------------------------------------------

    def free_chain_points(self, n: int) -> np.ndarray:
        """``n`` points spread uniformly in arc length over the free chain,
        in chain order."""
        chain = self._free_chain
        if not len(chain):
            return np.empty((0, 2))
        a, b, lens = self._edges.start[chain], self._edges.end[chain], self._edges.length[chain]
        cum = np.concatenate([[0.0], np.cumsum(lens)])
        s = np.linspace(0.0, cum[-1], n)
        idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(lens) - 1)
        # a zero-length edge gives its start point
        t = np.divide(s - cum[idx], lens[idx], out=np.zeros(n), where=lens[idx] > 0.0)
        return a[idx] + np.clip(t, 0.0, 1.0)[:, None] * (b - a)[idx]

    # -- transforms ----------------------------------------------------------------

    def transformed(self, scale: float = 1.0, angle: float = 0.0, shift=(0.0, 0.0)) -> "LabeledDomain":
        c, s = math.cos(angle), math.sin(angle)
        shift = np.asarray(shift, dtype=float)

        def tf(pts):  # elementwise rotation, with no BLAS product
            x, y = pts[:, 0], pts[:, 1]
            return np.column_stack([x * c - y * s, x * s + y * c]) * scale + shift

        return LabeledDomain(
            tf(self.vertices),
            list(self.labels),
            [tf(h) for h in self.holes],
            [list(h) for h in self.hole_labels],
        )

    # -- serialization ----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "vertices": [[float(x), float(y)] for x, y in self.vertices],
            "labels": list(self.labels),
            "holes": [[[float(x), float(y)] for x, y in h] for h in self.holes],
        }
        if any(any(l == FREE for l in hl) for hl in self.hole_labels):
            out["hole_labels"] = [list(hl) for hl in self.hole_labels]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "LabeledDomain":
        if not isinstance(data, dict):
            raise DomainValidationError("a domain must be a JSON object")
        for key in ("vertices", "labels"):
            if key not in data:
                raise DomainValidationError(f"a domain must have a '{key}' key")
        vertices, labels, holes = data["vertices"], data["labels"], data.get("holes", [])
        hole_labels = data.get("hole_labels")
        for key, value in (("labels", labels), ("holes", holes),
                           ("hole_labels", [] if hole_labels is None else hole_labels)):
            if not isinstance(value, list):
                raise DomainValidationError(f"'{key}' must be a list")
        if any(h is not None and not isinstance(h, list) for h in hole_labels or ()):
            raise DomainValidationError("each entry of 'hole_labels' must be a list or null")
        return cls(vertices, labels, holes, hole_labels)

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load_json(cls, path) -> "LabeledDomain":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"LabeledDomain({len(self.vertices)} vertices, area={self.area:.6g}, "
            f"fixed={self.fixed_length:.6g}, free={self.free_length:.6g}, "
            f"holes={len(self.holes)})"
        )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcavityReport:
    concave: bool
    vacuous: bool = False
    overlap: float = 0.0  # area of the domain inside the free chain's hull


@dataclass(frozen=True)
class IsoperimetricReport:
    ratio: float
    bound: float
    margin: float
    area: float
    fixed_length: float


@dataclass(frozen=True)
class SymmetrizationResult:
    case: str                 # "reflected", "case-2" or "inadmissible"
    domain: LabeledDomain
    cut: CutLine
    ratio_before: float
    ratio_after: float


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def _convex_hull(pts: np.ndarray) -> np.ndarray:
    """The convex hull of the points ``pts`` (N, 2), counterclockwise, by
    Andrew's monotone chain on Python floats; points on a hull edge are
    dropped, so points on one line give its two ends."""
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))].tolist()

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


# a hull with more vertices than this is halved before its edges clip a loop
_CLIP_SPLIT = 16


def _clip_half(poly: list, a: list, b: list) -> list:
    """One Sutherland-Hodgman pass: the part of the polygon ``poly``, a list
    of points, strictly left of the line a -> b, where :func:`_orient` is
    positive.  The result runs along the line between its pieces, so its
    signed area is the polygon's in the half-plane, convex or not."""
    (ax, ay), (bx, by) = a, b
    s = [(bx - ax) * (y - ay) - (by - ay) * (x - ax) for x, y in poly]
    out = []
    for p, sp, q, sq in zip(poly[-1:] + poly[:-1], s[-1:] + s[:-1], poly, s):
        if (sp > 0.0) != (sq > 0.0):
            t = sp / (sp - sq)
            out.append([p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])])
        if sq > 0.0:
            out.append(q)
    return out


def _hull_overlap(poly: list, hull: list) -> float:
    """The area of the CCW polygon ``poly`` inside the convex CCW polygon
    ``hull``: ``poly`` clipped by each hull edge in turn.  Every vertex of a
    concave arc is a hull vertex that each pass visits, so a hull of more
    than ``_CLIP_SPLIT`` vertices is first halved by the chord from its
    vertex 0 to its middle one, and each half clips its side of ``poly``."""
    if len(hull) > _CLIP_SPLIT:
        m = len(hull) // 2
        a, b = hull[0], hull[m]
        return (_hull_overlap(_clip_half(poly, b, a), hull[:m + 1])
                + _hull_overlap(_clip_half(poly, a, b), hull[m:] + hull[:1]))
    for a, b in zip(hull, hull[1:] + hull[:1]):
        poly = _clip_half(poly, a, b)
    return _signed_area(np.array(poly)) if len(poly) >= 3 else 0.0


def is_concave_free_boundary(domain: LabeledDomain) -> ConcavityReport:
    """Check that every chord between two free-boundary points avoids the
    interior.

    The chords of a connected chain fill the convex hull of its vertices,
    so the chain is concave when the domain does not overlap that hull: the
    area of each loop clipped by the hull, the holes' counted negative, is
    at most ``1e-12 * diameter**2``.  A straight chain's hull is a segment,
    which nothing lies strictly inside, and a closed chain's is its hole; an
    empty free chain is vacuously concave.  The report is computed once per
    domain and kept on it.
    """
    if domain._concavity is None:
        domain._concavity = _exact_concavity(domain)
    return domain._concavity


def require_admissible(domain: LabeledDomain, field=None) -> ConcavityReport:
    """The hypotheses of every theorem a campaign tests, checked in one
    place: the free chain of ``domain`` is concave, and a given field on a
    rasterization of it vanishes on the fixed boundary, up to the value a
    smooth function vanishing at the true boundary can take one cell in,
    ``max(1e-10 vmax, 2 h max|grad u|)``, on the inside cells with a fixed
    face.  Returns the concavity report; raises :class:`PreconditionError`
    when a hypothesis fails.  ``field`` is a ``rearrange.ScalarField``, read
    by its attributes because this module cannot import that one."""
    report = is_concave_free_boundary(domain)
    if not report.concave:
        raise PreconditionError("free chain is not concave with respect to the domain")
    if field is not None:
        grid = field.grid
        vals = field.values[grid.fixed_cells]
        if vals.size:
            gmax = float(field.grad_magnitude[grid.mask].max())
            allowance = max(1e-10 * field.max_value, 2.0 * grid.h * gmax)
            if float(np.abs(vals).max()) > allowance:
                raise PreconditionError("field does not vanish on the fixed boundary")
    return report


def _exact_concavity(domain: LabeledDomain) -> ConcavityReport:
    chain = domain._free_chain
    if not len(chain):
        return ConcavityReport(concave=True, vacuous=True)
    edges = domain._edges
    # clipped from the first vertex, as the shoelace is, to keep its precision
    origin = domain.vertices[0]
    hull = _convex_hull(np.vstack([edges.start[chain], edges.end[chain[-1:]]]) - origin).tolist()
    overlap = _hull_overlap((domain.vertices - origin).tolist(), hull)
    for hole in domain.holes:
        overlap -= _hull_overlap((hole - origin).tolist(), hull)
    return ConcavityReport(concave=overlap <= 1e-12 * domain.diameter ** 2, overlap=overlap)


def isoperimetric_report(domain: LabeledDomain) -> IsoperimetricReport:
    """Fixed-boundary isoperimetric ratio against the sharp free-boundary
    planar constant sqrt(2 pi)."""
    A = domain.area
    if A <= 0.0:
        raise DomainValidationError("domain area must be positive")
    bound = isoperimetric_constants(2)[1]
    L = domain.fixed_length
    ratio = L / math.sqrt(A)
    return IsoperimetricReport(
        fixed_length=L, area=A, ratio=ratio, bound=bound, margin=ratio - bound
    )


# -- area on one side of a line, as one exact table per cut -------------------

def _area_table(domain: LabeledDomain, line: CutLine) -> tuple[list, list, list]:
    """The area of ``domain`` above the parallels of ``line`` as a function
    of their offset s: the sorted distinct vertex projections ``s``, the area
    ``A[j]`` above ``s[j]``, and its constant second derivative ``c[j]``
    between ``s[j]`` and ``s[j + 1]``.

    With eta the signed distance and xi the coordinate along the line, an
    edge adds ``-(eta - s) dxi`` over its part above s (a hole's edges
    subtract): nothing when it lies below s, a quadratic in s while s is in
    its span, and a linear one when it lies above s.  The quadratic parts go
    only to the breakpoints an edge spans, so an edge nearly parallel to the
    line, with a huge ``dxi / deta``, touches no other bracket; the linear
    parts go into suffix sums."""
    nx, ny = line.normal.tolist()
    edges = []
    for sign, loop in zip((1.0,) + (-1.0,) * len(domain.holes), domain._loops()):
        eta = line.signed_distance(loop).tolist()
        xi = (sign * (loop[:, 0] * ny - loop[:, 1] * nx)).tolist()  # reversed on a hole
        edges += zip(eta, eta[1:] + eta[:1], xi, xi[1:] + xi[:1])
    s = sorted({e[0] for e in edges})
    index = {v: j for j, v in enumerate(s)}
    n = len(s)
    A, c = [0.0] * n, [0.0] * (n - 1)
    const, slope = [0.0] * n, [0.0] * n  # an edge's linear part, at its lower end
    for eta0, eta1, xi0, xi1 in edges:
        dxi = xi1 - xi0
        bottom, top = (eta0, eta1) if eta0 <= eta1 else (eta1, eta0)
        a, b = index[bottom], index[top]
        const[a] -= 0.5 * (eta0 + eta1) * dxi
        slope[a] += dxi
        if a == b:
            continue
        k = -dxi / (top - bottom)
        c[a] += k
        for j in range(a + 1, b):
            u = top - s[j]
            A[j] += 0.5 * k * u * u
            c[j] += k
    above_const = above_slope = 0.0
    for j in range(n - 1, -1, -1):
        above_const += const[j]
        above_slope += slope[j]
        A[j] += above_const + s[j] * above_slope
    return s, A, c


def equal_volume_cut(domain: LabeledDomain, theta: float) -> CutLine:
    """Offset of the line at angle ``theta`` splitting the domain into two
    equal areas, in closed form.

    The area above each offset is read off one exact table per cut,
    :func:`_area_table`, built on the vertex projections onto the returned
    line's normal (that of ``theta`` mod pi).  That area falls from the
    domain's area to 0, so half of it is reached in the bracket whose
    left end is the last breakpoint with at least half the area above; the
    offset is the root of that bracket's quadratic, in the form that does
    not cancel, clipped to the bracket.  The returned cut satisfies
    |A_above - A_below| <= 1e-13 * area.
    """
    s, above, c = _area_table(domain, CutLine(theta, 0.0))
    target = 0.5 * domain.area
    j = min(max(bisect_right(above, -target, key=operator.neg) - 1, 0), len(s) - 2)
    # above s[j] + x: above[j] + b x + a x^2, falling through target
    L, D, a = s[j + 1] - s[j], above[j] - target, 0.5 * c[j]
    b = (above[j + 1] - above[j]) / L - a * L
    # -b + sqrt(.) is the chord at s[j] plus the one at the cut: positive
    x = 2.0 * D / (-b + math.sqrt(max(b * b - 4.0 * a * D, 0.0)))
    return CutLine(angle=theta, offset=s[j] + min(max(x, 0.0), L))


# -- the kept half of a cut polygon and its mirror image -----------------------

def _crossing(loop: np.ndarray, d: np.ndarray, i: int) -> np.ndarray:
    """Where edge i meets the line; ``d`` holds the vertices' signed
    distances, of opposite signs at the edge's two ends."""
    j = (i + 1) % len(loop)
    t = d[i] / (d[i] - d[j])
    return loop[i] + t * (loop[j] - loop[i])


def _walk(loop: np.ndarray, edge: int, count: int) -> np.ndarray:
    """The ``count`` vertices of a loop that follow edge ``edge``, in loop
    order, wrapping around."""
    return loop[(edge + 1 + np.arange(count)) % len(loop)]


def _kept_arc(loop: np.ndarray, labels: Sequence[str],
              d: np.ndarray) -> tuple[np.ndarray, list[str]] | None:
    """The part of a simple CCW polygon's boundary on one side of a line,
    where the vertices' signed distances ``d`` to it are positive, as
    (vertices, labels of the edges between them).

    The kept part must meet the line in one chord, so the boundary crosses
    the line exactly twice and the kept part is the arc from the entering
    crossing through the kept vertices to the leaving crossing; otherwise
    (several components or chords, or nothing kept) it is ``None``.  Assumes
    no vertex lies on the line; callers nudge the offset beforehand.
    """
    m = len(loop)
    kept = d > 0.0
    cross = np.flatnonzero(kept != _next(kept))  # edge i crosses the line
    if len(cross) != 2:
        return None
    enter, leave = cross.tolist()
    if not kept[(enter + 1) % m]:  # the entering edge ends on the kept side
        enter, leave = leave, enter
    count = (leave - enter) % m
    arc = np.vstack([_crossing(loop, d, enter), _walk(loop, enter, count), _crossing(loop, d, leave)])
    return arc, [labels[k % m] for k in range(enter, enter + count + 1)]


def _reflected_half(loop: np.ndarray, labels: Sequence[str], cut: CutLine,
                    d: np.ndarray) -> tuple[np.ndarray, list[str]] | None:
    """The kept arc of :func:`_kept_arc` followed by the mirror image of its
    inner vertices, as (vertices, labels); ``None`` with no kept arc.  The
    arc's crossings are vertex 0 and the middle vertex."""
    kept = _kept_arc(loop, labels, d)
    if kept is None:
        return None
    arc, arc_labels = kept
    return np.vstack([arc, cut.mirror(arc[-2:0:-1])]), arc_labels + arc_labels[::-1]


def _fixed_length_split(domain: LabeledDomain, d: np.ndarray) -> tuple[float, float]:
    """Fixed-edge length of the outer loop where its vertices' signed
    distances ``d`` (none of them 0) are positive, and where they are
    negative; an edge that crosses the line is split at the crossing."""
    above = below = 0.0
    edges = domain._edges
    for di, dj, L, free in zip(d.tolist(), _next(d).tolist(), edges.length.tolist(),
                               edges.free.tolist()):
        if free:
            continue
        if (di > 0.0) != (dj > 0.0):
            t = di / (di - dj)
            up, down = (t, 1.0 - t) if di > 0.0 else (1.0 - t, t)
        else:  # adding L * 0.0 leaves a sum as it is
            up, down = (1.0, 0.0) if di > 0.0 else (0.0, 1.0)
        above += L * up
        below += L * down
    return above, below


_CUT_TRIES = 4  # a reflection step tries the cut angles theta + k * GOLDEN_ANGLE, k < 4


def _reflected_union(domain: LabeledDomain, cut: CutLine, d: np.ndarray) -> LabeledDomain | None:
    """The half of ``domain`` with less fixed length on its side of ``cut``
    (``d`` holds the vertices' signed distances, none 0) joined to its
    mirror image; ``None`` unless that is a valid polygon whose free chain
    does not turn convex at the cut.  A cut meeting a free edge at angle phi
    leaves a free corner of 2 phi, concave when phi >= pi/2: the union's
    edges u into and w out of the crossing turn left by 1e-12 |u| |w| at
    most."""
    above, below = _fixed_length_split(domain, d)
    half = _reflected_half(domain.vertices, domain.labels, cut, d if above <= below else -d)
    if half is None:
        return None
    vertices, labels = half
    m = len(vertices)
    for i in (0, m // 2):  # the crossings; edge i runs along the crossed edge
        p, c, q = vertices[i - 1], vertices[i], vertices[(i + 1) % m]
        if labels[i] == FREE and _orient(p, c, q) > 1e-12 * math.dist(p, c) * math.dist(c, q):
            return None
    try:
        return LabeledDomain(vertices, labels)
    except DomainValidationError:
        return None


def symmetrization_step(domain: LabeledDomain, theta: float) -> SymmetrizationResult:
    """One reflection symmetrization step that stays in the admissible
    class.

    Cut the domain by its equal-area line at angle theta + k * GOLDEN_ANGLE,
    k < ``_CUT_TRIES``, and reflect at the first cut that meets the free
    chain, can be moved off the vertex set and gives a union
    (:func:`_reflected_union`) that passes :func:`require_admissible` with
    a ratio no higher than the input's (halves of equal area, the kept one
    with at most half the fixed length: only rounding can raise it).  When
    no cut passes, the input is returned unchanged, as ``"case-2"`` when no
    cut met the free chain and ``"inadmissible"`` otherwise.  A domain with
    holes lies outside the step's class and raises
    :class:`PreconditionError`.
    """
    if domain.holes:
        raise PreconditionError("reflection step does not support holes")
    ratio_before = isoperimetric_report(domain).ratio
    scale = max(domain.diameter, 1e-30)
    case, cuts = "case-2", []
    for k in range(_CUT_TRIES):
        cut = equal_volume_cut(domain, theta + k * GOLDEN_ANGLE)
        cuts.append(cut)
        d = cut.signed_distance(domain.vertices)
        # the cut meets the free chain where a free edge is not strictly on one side
        if not (domain._edges.free & (np.sign(d) * np.sign(_next(d)) <= 0.0)).any():
            continue
        case = "inadmissible"
        # nudge off any vertex sitting on the line so all crossings are transversal
        if np.min(np.abs(d)) < 1e-11 * scale:
            cut = CutLine(cut.angle, cut.offset + 3.17e-9 * scale)
            d = cut.signed_distance(domain.vertices)
            if np.min(np.abs(d)) < 1e-11 * scale:
                continue
        union = _reflected_union(domain, cut, d)
        ratio_after = math.inf if union is None else isoperimetric_report(union).ratio
        if ratio_after > ratio_before:
            continue
        try:
            require_admissible(union)
        except PreconditionError:
            continue
        return SymmetrizationResult("reflected", union, cut, ratio_before, ratio_after)
    return SymmetrizationResult(case, domain, cuts[0], ratio_before, ratio_before)


def symmetrize_iterate(domain: LabeledDomain, steps: int = 50) -> tuple[LabeledDomain, list[dict]]:
    """Drive repeated reflection steps through multiples of the golden angle.

    Cut angles k * GOLDEN_ANGLE (mod pi) realize an equidistributed angle
    sequence; a domain with holes raises :class:`PreconditionError` at the
    first step.  The run stops once a reflected step improves the ratio by
    less than 1e-6, or at an ``"inadmissible"`` step, as the next would try
    three of its cut angles on the same domain.  Returns the final domain
    and a per-step trace of the angle cut (the reflecting candidate's, else
    the first's), the ratio, area and x-projection width.
    """
    trace: list[dict] = []
    current = domain
    for k in range(1, steps + 1):
        result = symmetrization_step(current, (k * GOLDEN_ANGLE) % math.pi)
        x0, _, x1, _ = current.bbox
        trace.append({
            "step": k,
            "theta": result.cut.angle,
            "ratio": result.ratio_before,
            "area": current.area,
            "projection_width": x1 - x0,
            "case": result.case,
            "ratio_after": result.ratio_after,
        })
        if result.case == "inadmissible":
            break
        if result.case == "reflected":
            current = result.domain
            if result.ratio_before - result.ratio_after < 1e-6:
                break
    return current, trace


# ---------------------------------------------------------------------------
# rasterization
# ---------------------------------------------------------------------------

_DIRS = ((0, 1), (0, -1), (1, 0), (-1, 0))  # E, W, N, S as (di, dj) offsets
FACE_FIXED, FACE_FREE = 1, 2  # an interior face is 0


def _shifted(a: np.ndarray, di: int, dj: int, fill) -> np.ndarray:
    """The neighbour at offset (di, dj) of every cell of a 2-D array:
    ``out[i, j] = a[i + di, j + dj]``, and ``fill`` where that neighbour is
    off the grid.  ``di`` and ``dj`` are -1, 0 or 1."""
    ny, nx = a.shape
    out = np.full_like(a, fill)
    out[max(-di, 0):ny - max(di, 0), max(-dj, 0):nx - max(dj, 0)] = \
        a[max(di, 0):ny + min(di, 0), max(dj, 0):nx + min(dj, 0)]
    return out


@dataclass(frozen=True)
class RasterGrid:
    """Cell-centered rasterization of a labeled domain.

    ``mask[i, j]`` is True when the center of cell (i, j) lies inside the
    domain; ``face_labels[i, j, d]`` tags the four faces of each inside cell
    (order E, W, N, S) as interior (0), fixed (1), or free (2) according to
    the nearest boundary edge.

    A grid is immutable: its fields cannot be reassigned and ``mask`` and
    ``face_labels`` are read-only.  So the quantities that depend on the
    grid alone are computed on first use and kept on it: the inside cells
    with a fixed face (``fixed_cells``), the inside cell centers
    (``inside_centers``, read by both distances below), the distance from
    every inside cell center to the fixed edges (``fixed_distance``), the
    largest distance from an inside cell center to the boundary
    (``inradius``, which reads ``fixed_distance`` and measures the free
    edges only, so the inside cells are measured against each edge once),
    and the rasterized disk of the same area (``equal_area_disk``).
    """

    domain: LabeledDomain
    h: float
    origin: tuple[float, float]
    mask: np.ndarray
    face_labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.mask.setflags(write=False)
        self.face_labels.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        ny, nx = self.mask.shape
        xs = self.origin[0] + (np.arange(nx) + 0.5) * self.h
        ys = self.origin[1] + (np.arange(ny) + 0.5) * self.h
        return np.meshgrid(xs, ys)

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    def area(self) -> float:
        return float(self.mask.sum()) * self.cell_area

    @cached_property
    def fixed_cells(self) -> np.ndarray:
        """Mask of the inside cells with at least one fixed face (read-only)."""
        out = (self.face_labels == FACE_FIXED).any(axis=2) & self.mask
        out.setflags(write=False)
        return out

    @cached_property
    def inside_centers(self) -> np.ndarray:
        """The centers of the inside cells, (N, 2) in row-major cell order
        (read-only)."""
        X, Y = self.cell_centers()
        out = np.column_stack([X[self.mask], Y[self.mask]])
        out.setflags(write=False)
        return out

    @cached_property
    def fixed_distance(self) -> np.ndarray:
        """Distance from each inside cell center to the nearest fixed edge
        (inf without fixed edges), in the grid's shape; inf outside."""
        dist = np.full(self.mask.shape, np.inf)
        dist[self.mask] = self.domain.distance_to_label(self.inside_centers, FIXED)
        dist.setflags(write=False)
        return dist

    @cached_property
    def inradius(self) -> float:
        """The largest distance from an inside cell center to the boundary.
        A center's distance to every edge is the smaller of its distances to
        the fixed edges, ``fixed_distance``, and to the free ones, bit for
        bit, so only the free edges are measured here."""
        free = self.domain.distance_to_label(self.inside_centers, FREE)
        return float(np.minimum(self.fixed_distance[self.mask], free).max())

    @cached_property
    def equal_area_disk(self) -> "RasterGrid":
        """The 128-gon disk centered at the origin whose area is this grid's
        area, rasterized at the same spacing."""
        from .domains import disk

        return rasterize(disk(radius=math.sqrt(self.area() / math.pi), segments=128), self.h)


def rasterize(domain: LabeledDomain, h: float) -> RasterGrid:
    """Rasterize onto a uniform grid of spacing ``h``.

    The mask is decided by cell-center membership, so the mask area converges
    to the polygon area at first order in ``h``.  Each face separating an
    inside cell from the outside is labeled fixed or free by the nearest
    boundary edge.
    """
    if not h > 0.0:
        raise DomainValidationError(f"grid spacing must be positive, got h={h}")
    x0, y0, x1, y1 = domain.bbox
    if min(x1 - x0, y1 - y0) < 8.0 * h:
        raise DomainValidationError(
            f"grid too coarse: need at least 8 cells across, got h={h}"
        )
    try:
        ox = math.floor(x0 / h) * h - h
        oy = math.floor(y0 / h) * h - h
        nx = int(math.ceil((x1 - ox) / h)) + 1
        ny = int(math.ceil((y1 - oy) / h)) + 1
    except OverflowError:  # the box measured in cells is not even a finite float
        nx = ny = math.inf
    if nx * ny > np.iinfo(np.intp).max:
        raise DomainValidationError(f"grid too fine: h={h} gives more cells than an index can count")

    xs = ox + (np.arange(nx) + 0.5) * h
    ys = oy + (np.arange(ny) + 0.5) * h
    mask = _grid_in_polygon(xs, ys, domain.vertices)
    for hole in domain.holes:
        mask &= ~_grid_in_polygon(xs, ys, hole)
    if not mask.any():
        raise DomainValidationError("rasterization produced no interior cells")

    # the boundary faces, direction by direction: each inside cell whose
    # neighbour across the face is outside; a nonempty mask has one
    dd, ii, jj = np.unravel_index(np.flatnonzero(
        [mask & ~_shifted(mask, di, dj, False) for di, dj in _DIRS]), (len(_DIRS), ny, nx))
    di, dj = np.array(_DIRS).T[:, dd]
    faces = np.column_stack([xs[jj] + dj * 0.5 * h, ys[ii] + di * 0.5 * h])
    # the nearest edge labels a face, the earlier edge on a tie
    codes = np.where(domain._edges.free, FACE_FREE, FACE_FIXED).astype(np.int8)
    face_labels = np.zeros((ny, nx, 4), dtype=np.int8)
    face_labels[ii, jj, dd] = codes[_nearest_segment(faces, domain._edges.start, domain._edges.end)[1]]

    return RasterGrid(domain=domain, h=float(h), origin=(ox, oy), mask=mask, face_labels=face_labels)
