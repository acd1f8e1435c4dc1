"""Exact polygonal domains with labeled fixed/free boundary.

A :class:`LabeledDomain` is a simple polygon (optionally with polygonal
holes) in which every boundary edge carries one of two tags:

* ``"fixed"`` -- the part of the boundary where admissible functions vanish;
* ``"free"``  -- the part where they are unconstrained.

On top of that representation this module provides the geometric operations
the verification campaigns need: areas and labeled boundary lengths,
concavity checking of the free chain (every chord between two free-boundary
points must avoid the interior), isoperimetric reports against the sharp
free-boundary constant, reflections, equal-area line cuts, one reflection
symmetrization step, and rasterization onto a uniform cell-centered grid.

All operations are pure; domains are immutable after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .constants import isoperimetric_constants
from .errors import DegenerateCutError, DomainValidationError, PreconditionError

FIXED = "fixed"
FREE = "free"

_CUT = "__cut__"  # sentinel label for edges created by a line cut

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
    "area",
    "boundary_length",
    "is_concave_free_boundary",
    "isoperimetric_report",
    "reflect",
    "equal_volume_cut",
    "symmetrization_step",
    "symmetrize_iterate",
    "rasterize",
]


# ---------------------------------------------------------------------------
# low-level polygon helpers
# ---------------------------------------------------------------------------

def _as_points(vertices) -> np.ndarray:
    pts = np.asarray(vertices, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainValidationError("vertices must be an (m, 2) array of points")
    if not np.isfinite(pts).all():
        raise DomainValidationError("vertex coordinates must be finite")
    return pts


def _next(a: np.ndarray) -> np.ndarray:
    """Rows shifted by one, cyclically: row k of the result is row k + 1."""
    return np.concatenate((a[1:], a[:1]))


def _signed_area(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * _next(y) - _next(x) * y))


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


# edge pairs tested together by _check_simple; bounds its working set
_EDGE_PAIR_BLOCK = 1 << 14


def _check_simple(pts: np.ndarray, scale: float) -> None:
    """Raise for the first pair (i, j), i < j, of non-adjacent edges that
    cross, in row-major order; edge i joins vertex i to vertex i + 1."""
    m = len(pts)
    eps = 1e-12 * scale * scale
    start, end = pts.T, _next(pts).T
    rows = max(1, _EDGE_PAIR_BLOCK // m)
    for i0 in range(0, m, rows):
        i, j = np.nonzero(np.triu(np.ones((min(rows, m - i0), m), dtype=bool), k=i0 + 2))
        i += i0
        keep = (i > 0) | (j < m - 1)  # edges 0 and m - 1 meet at vertex 0
        i, j = i[keep], j[keep]
        hit = np.flatnonzero(_segments_cross(start[:, i], end[:, i], start[:, j], end[:, j], eps))
        if hit.size:
            k = hit[0]
            raise DomainValidationError(
                f"polygon is not simple: edges {i[k]} and {j[k]} intersect"
            )


def _points_in_polygon(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd ray casting, vectorized over ``points`` (N, 2)."""
    px, py = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = _next(x1), _next(y1)
    for k in range(len(poly)):
        cond = (y1[k] > py) != (y2[k] > py)
        if not cond.any():
            continue
        xi = x1[k] + (py - y1[k]) * (x2[k] - x1[k]) / (y2[k] - y1[k])
        inside ^= cond & (px < xi)
    return inside


def _point_segment_distance(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.hypot(points[:, 0] - a[0], points[:, 1] - a[1])
    t = np.clip(((points - a) @ ab) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.hypot(points[:, 0] - proj[:, 0], points[:, 1] - proj[:, 1])


def _min_edge_distance(points: np.ndarray, loops: Sequence[np.ndarray]) -> np.ndarray:
    best = np.full(len(points), np.inf)
    for loop in loops:
        for k in range(len(loop)):
            d = _point_segment_distance(points, loop[k], loop[(k + 1) % len(loop)])
            np.minimum(best, d, out=best)
    return best


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
    def direction(self) -> np.ndarray:
        return np.array([math.cos(self.angle), math.sin(self.angle)])

    @property
    def normal(self) -> np.ndarray:
        return np.array([-math.sin(self.angle), math.cos(self.angle)])

    def signed_distance(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.normal - self.offset

    def mirror(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = pts @ self.normal - self.offset
        return pts - 2.0 * d[:, None] * self.normal[None, :]


# ---------------------------------------------------------------------------
# the domain type
# ---------------------------------------------------------------------------

class LabeledDomain:
    """Simple polygon with fixed/free edge labels and (by default all-fixed)
    holes.

    Vertices are stored counterclockwise; edge i joins vertex i to vertex
    i + 1 (cyclically) and carries ``labels[i]``.  The free edges, wherever
    they live, must form a single connected chain.
    """

    __slots__ = ("vertices", "labels", "holes", "hole_labels")

    def __init__(self, vertices, labels, holes=(), hole_labels=None):
        pts = _as_points(vertices)
        if len(pts) < 3:
            raise DomainValidationError("a polygon needs at least 3 vertices")
        labels = [str(l).lower() for l in labels]
        if len(labels) != len(pts):
            raise DomainValidationError("need exactly one label per edge")
        if any(l not in (FIXED, FREE) for l in labels):
            raise DomainValidationError(f"labels must be '{FIXED}' or '{FREE}'")

        scale = float(np.max(np.ptp(pts, axis=0)))
        signed = _signed_area(pts)
        if abs(signed) <= 1e-14 * scale * scale:
            raise DomainValidationError("polygon area is degenerate")
        if signed < 0.0:  # normalize to counterclockwise, remapping edge labels
            m = len(pts)
            pts = pts[::-1].copy()
            labels = [labels[(m - 2 - j) % m] for j in range(m)]
        _check_simple(pts, scale)

        holes = tuple(holes)
        if hole_labels is None:
            hole_labels = [None] * len(holes)
        hole_list, hole_label_list = [], []
        for hpts, hlabs in zip(holes, hole_labels):
            h = _as_points(hpts)
            if len(h) < 3:
                raise DomainValidationError("a hole needs at least 3 vertices")
            if hlabs is None:
                hlabs = [FIXED] * len(h)
            hlabs = [str(l).lower() for l in hlabs]
            if len(hlabs) != len(h):
                raise DomainValidationError("need exactly one label per hole edge")
            hsigned = _signed_area(h)
            if abs(hsigned) <= 1e-14 * scale * scale:
                raise DomainValidationError("hole area is degenerate")
            if hsigned < 0.0:
                k = len(h)
                h = h[::-1].copy()
                hlabs = [hlabs[(k - 2 - j) % k] for j in range(k)]
            if not _points_in_polygon(h, pts).all():
                raise DomainValidationError("hole must lie inside the outer polygon")
            hole_list.append(h)
            hole_label_list.append(tuple(hlabs))

        self.vertices = pts
        self.labels = tuple(labels)
        self.holes = tuple(hole_list)
        self.hole_labels = tuple(hole_label_list)
        self._check_free_chain()

    # -- structural checks ----------------------------------------------------

    def _check_free_chain(self) -> None:
        runs = 0
        for labs in (self.labels, *self.hole_labels):
            flags = [l == FREE for l in labs]
            if all(flags):
                runs += 1
            elif any(flags):
                runs += sum(1 for i, f in enumerate(flags) if f and not flags[i - 1])
        if runs > 1:
            raise DomainValidationError(
                "free edges must form one connected boundary chain"
            )

    # -- basic measurements -----------------------------------------------------

    @property
    def area(self) -> float:
        a = _signed_area(self.vertices)
        for h in self.holes:
            a -= _signed_area(h)
        return a

    def boundary_length(self, label: str | None = None) -> float:
        total = 0.0
        for loop, labs in zip(self._loops(), (self.labels, *self.hole_labels)):
            for L, lab in zip(_edge_lengths(loop), labs):
                if label is None or lab == label:
                    total += float(L)
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

    def boundary_distance(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _min_edge_distance(pts, self._loops())

    def distance_to_label(self, points, label: str) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        best = np.full(len(pts), np.inf)
        for loop, labs in zip(self._loops(), (self.labels, *self.hole_labels)):
            for k, lab in enumerate(labs):
                if lab != label:
                    continue
                d = _point_segment_distance(pts, loop[k], loop[(k + 1) % len(loop)])
                np.minimum(best, d, out=best)
        return best

    # -- free-chain parameterization -------------------------------------------------

    def free_edges(self) -> list[tuple[np.ndarray, np.ndarray]]:
        out = []
        for loop, labs in zip(self._loops(), (self.labels, *self.hole_labels)):
            for k, lab in enumerate(labs):
                if lab == FREE:
                    out.append((loop[k], loop[(k + 1) % len(loop)]))
        return out

    def free_chain_points(self, n: int) -> np.ndarray:
        """``n`` points spread uniformly in arc length over the free chain."""
        edges = self.free_edges()
        if not edges:
            return np.empty((0, 2))
        lens = np.array([float(np.hypot(*(b - a))) for a, b in edges])
        cum = np.concatenate([[0.0], np.cumsum(lens)])
        s = np.linspace(0.0, cum[-1], n)
        idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(edges) - 1)
        pts = np.empty((n, 2))
        for j, (si, ei) in enumerate(zip(s, idx)):
            a, b = edges[ei]
            t = (si - cum[ei]) / lens[ei] if lens[ei] > 0 else 0.0
            pts[j] = a + min(max(t, 0.0), 1.0) * (b - a)
        return pts

    # -- transforms ----------------------------------------------------------------

    def transformed(self, scale: float = 1.0, angle: float = 0.0, shift=(0.0, 0.0)) -> "LabeledDomain":
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        shift = np.asarray(shift, dtype=float)

        def tf(pts):
            return (pts @ rot.T) * scale + shift

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
        return cls(
            data["vertices"],
            data["labels"],
            data.get("holes", ()),
            data.get("hole_labels"),
        )

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
    witness: tuple | None = None  # (endpoint_a, endpoint_b, interior_point)

    def __bool__(self) -> bool:
        return self.concave


@dataclass(frozen=True)
class IsoperimetricReport:
    fixed_length: float
    area: float
    ratio: float
    bound: float
    margin: float


@dataclass(frozen=True)
class SymmetrizationResult:
    case: str                 # "reflected" or "case-2"
    domain: LabeledDomain
    cut: CutLine
    ratio_before: float
    ratio_after: float


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def area(domain: LabeledDomain) -> float:
    """Polygon area minus hole areas (shoelace)."""
    return domain.area


def boundary_length(domain: LabeledDomain, label: str | None = None) -> float:
    """Total length of the boundary edges carrying ``label`` (all if None)."""
    return domain.boundary_length(label)


def is_concave_free_boundary(domain: LabeledDomain, samples: int = 64) -> ConcavityReport:
    """Check that every chord between two free-boundary points avoids the
    interior.

    The free chain is sampled at ``samples`` arc-length-uniform points; for
    each point pair the chord is probed at its midpoint and quarter points.
    A probe counts as interior only if it lies inside the domain with
    positive clearance from the boundary, so chords running along a straight
    free edge do not produce false negatives.  Returns a witness pair on
    failure; an empty free chain is vacuously concave.
    """
    if samples < 2:
        raise PreconditionError("need at least 2 samples on the free chain")
    pts = domain.free_chain_points(samples)
    if len(pts) == 0:
        return ConcavityReport(concave=True, vacuous=True)
    tol = 1e-9 * max(domain.diameter, 1e-30)
    ii, jj = np.triu_indices(len(pts), k=1)
    a, b = pts[ii], pts[jj]
    probes = np.concatenate([a + f * (b - a) for f in (0.25, 0.5, 0.75)])
    inside = domain.contains(probes)
    if inside.any():
        clear = np.zeros(len(probes), dtype=bool)
        clear[inside] = domain.boundary_distance(probes[inside]) > tol
        if clear.any():
            k = int(np.argmax(clear))
            pair = k % len(ii)
            return ConcavityReport(
                concave=False,
                witness=(tuple(a[pair]), tuple(b[pair]), tuple(probes[k])),
            )
    return ConcavityReport(concave=True)


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


def reflect(domain: LabeledDomain, line: CutLine) -> LabeledDomain:
    """Mirror image of the domain across ``line``; labels follow their edges."""
    return LabeledDomain(
        line.mirror(domain.vertices),
        list(domain.labels),
        [line.mirror(h) for h in domain.holes],
        [list(h) for h in domain.hole_labels],
    )


# -- area on one side of a line (Sutherland-Hodgman, used for bisection) -------

def _projected(loop: np.ndarray, normal: np.ndarray) -> tuple[list, ...]:
    """A loop as float lists for the clipping loop: x, y, the next vertex's
    x and y, and the projections ``loop @ normal``."""
    x, y = loop[:, 0].tolist(), loop[:, 1].tolist()
    return x, y, x[1:] + x[:1], y[1:] + y[:1], (loop @ normal).tolist()


def _clipped_area_above(projected: tuple[list, ...], offset: float) -> float:
    """Area of the part of one projected loop where ``n . x >= offset``."""
    x, y, x_next, y_next, proj = projected
    d = [q - offset for q in proj]
    out_x, out_y = [], []
    for xi, yi, xj, yj, di, dj in zip(x, y, x_next, y_next, d, d[1:] + d[:1]):
        if di >= 0.0:
            out_x.append(xi)
            out_y.append(yi)
        if (di > 0.0) != (dj > 0.0) and di != dj:
            t = di / (di - dj)
            out_x.append(xi + t * (xj - xi))
            out_y.append(yi + t * (yj - yi))
    if len(out_x) < 3:
        return 0.0
    return _signed_area(np.array((out_x, out_y)).T)


def _loops_area_above(loops: Sequence[tuple[list, ...]], offset: float) -> float:
    outer, *holes = loops
    a = _clipped_area_above(outer, offset)
    for h in holes:
        a -= _clipped_area_above(h, offset)
    return a


def _area_above(domain: LabeledDomain, normal: np.ndarray, offset: float) -> float:
    return _loops_area_above([_projected(loop, normal) for loop in domain._loops()], offset)


def equal_volume_cut(domain: LabeledDomain, theta: float) -> CutLine:
    """Offset of the line at angle ``theta`` splitting the domain into two
    equal areas, found by bisection on the monotone area split function.

    The vertex projections onto the line's normal are computed once per cut;
    each bisection step clips the projected loops at its offset.  The
    returned cut satisfies |A_above - A_below| <= 1e-9 * area.
    """
    normal = np.array([-math.sin(theta), math.cos(theta)])
    loops = [_projected(loop, normal) for loop in domain._loops()]
    proj = np.concatenate([p[-1] for p in loops])
    lo, hi = float(proj.min()), float(proj.max())
    A = domain.area
    target = 0.5 * A
    # area above is A at offset lo and 0 at offset hi, decreasing in between
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = _loops_area_above(loops, mid) - target
        if abs(fmid) <= 2.5e-10 * A:
            return CutLine(angle=theta, offset=mid)
        if fmid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0e-17 * max(abs(hi), abs(lo), 1.0):
            break
    return CutLine(angle=theta, offset=0.5 * (lo + hi))


# -- polygon split along a line, with proper component stitching ---------------

def _split_loop_by_line(
    loop: np.ndarray, labels: Sequence[str], normal: np.ndarray, offset: float, side: int
) -> list[tuple[np.ndarray, list[str]]]:
    """Components of a simple CCW polygon on one side of a line.

    Returns each component as (vertices, labels) with cut edges carrying the
    sentinel label.  Assumes no vertex lies on the line and all crossings are
    transversal; callers nudge the offset beforehand.
    """
    d = (loop @ normal - offset) * side
    m = len(loop)
    if (d > 0.0).all():
        return [(loop.copy(), list(labels))]
    if (d < 0.0).all():
        return []
    direction = np.array([normal[1], -normal[0]])

    crossings: dict[int, dict] = {}
    cross_list = []
    for i in range(m):
        j = (i + 1) % m
        if (d[i] > 0.0) != (d[j] > 0.0):
            t = d[i] / (d[i] - d[j])
            c = {"edge": i, "point": loop[i] + t * (loop[j] - loop[i]), "up": d[j] > 0.0}
            crossings[i] = c
            cross_list.append(c)
    if len(cross_list) % 2 != 0:
        raise DegenerateCutError("odd number of boundary crossings; cut is tangent")
    order = np.argsort([c["point"] @ direction for c in cross_list], kind="stable")
    for rank, k in enumerate(order):
        cross_list[int(k)]["rank"] = int(rank)

    # consecutive crossings along the line bound interior chords; pair them
    srt = sorted(cross_list, key=lambda c: c["rank"])
    partner = {}
    for k in range(0, len(srt), 2):
        partner[srt[k]["rank"]] = srt[k + 1]["rank"]
        partner[srt[k + 1]["rank"]] = srt[k]["rank"]

    # one boundary walk collecting the kept-side arcs, keyed by start crossing
    start_edge = next((c["edge"] + 1) % m for c in cross_list if not c["up"])
    arcs: dict[int, dict] = {}
    cur = None
    i = start_edge
    for _ in range(m):
        c = crossings.get(i)
        j = (i + 1) % m
        if c is None:
            if cur is not None:
                cur["verts"].append(loop[j])
                cur["labs"].append(labels[i])
        elif c["up"]:
            cur = {"verts": [c["point"], loop[j]], "labs": [labels[i]], "start": c["rank"]}
        else:
            if cur is None:
                raise DegenerateCutError("cut stitching failed (walk state)")
            cur["verts"].append(c["point"])
            cur["labs"].append(labels[i])
            cur["end"] = c["rank"]
            arcs[cur["start"]] = cur
            cur = None
        i = j
    if cur is not None:
        raise DegenerateCutError("cut stitching failed (open arc)")

    comps = []
    used: set[int] = set()
    for start_rank in list(arcs):
        if start_rank in used:
            continue
        verts: list[np.ndarray] = []
        labs: list[str] = []
        rank = start_rank
        while True:
            used.add(rank)
            arc = arcs[rank]
            verts.extend(arc["verts"])
            labs.extend(arc["labs"])
            labs.append(_CUT)  # chord leaving this arc's end crossing
            rank = partner[arc["end"]]
            if rank == start_rank:
                break
            if rank not in arcs:
                raise DegenerateCutError("cut stitching failed (chord pairing)")
        comps.append((np.array(verts), labs))
    return comps


def _fixed_length_on_side(domain: LabeledDomain, normal, offset, side: int) -> float:
    """Total fixed-edge length on one side of the line (partial edges clipped)."""
    total = 0.0
    for loop, labs in zip(domain._loops(), (domain.labels, *domain.hole_labels)):
        d = (loop @ normal - offset) * side
        m = len(loop)
        for i in range(m):
            if labs[i] != FIXED:
                continue
            j = (i + 1) % m
            di, dj = d[i], d[j]
            L = float(np.hypot(*(loop[j] - loop[i])))
            if di >= 0.0 and dj >= 0.0:
                total += L
            elif di > 0.0 or dj > 0.0:
                t = di / (di - dj)
                total += L * (t if di > 0.0 else 1.0 - t)
    return total


def _cut_crosses_free_chain(domain: LabeledDomain, line: CutLine) -> bool:
    normal, offset = line.normal, line.offset
    for a, b in domain.free_edges():
        da = float(a @ normal - offset)
        db = float(b @ normal - offset)
        if da == 0.0 or db == 0.0 or (da > 0.0) != (db > 0.0):
            return True
    return False


def symmetrization_step(domain: LabeledDomain, theta: float) -> SymmetrizationResult:
    """One reflection symmetrization step.

    Cut the domain by its equal-area line at angle ``theta``.  When the cut
    meets the free chain, keep the half with the smaller fixed-boundary
    length and return the union of that half with its mirror image; since
    both halves have equal area and the kept fixed length is at most half the
    total, the fixed-boundary isoperimetric ratio cannot increase.  When the
    cut misses the free chain the input is returned unchanged with
    ``case="case-2"``.

    Domains with holes, tangent cuts, and cuts whose kept half meets the line
    in more than one chord raise :class:`DegenerateCutError`.
    """
    if domain.holes:
        raise DegenerateCutError("reflection step does not support holes")
    ratio_before = isoperimetric_report(domain).ratio
    cut = equal_volume_cut(domain, theta)
    if not _cut_crosses_free_chain(domain, cut):
        return SymmetrizationResult("case-2", domain, cut, ratio_before, ratio_before)

    normal = cut.normal
    offset = cut.offset
    scale = max(domain.diameter, 1e-30)
    # nudge off any vertex sitting on the line so all crossings are transversal
    d = domain.vertices @ normal - offset
    if np.min(np.abs(d)) < 1e-11 * scale:
        offset += 3.17e-9 * scale
        d = domain.vertices @ normal - offset
        if np.min(np.abs(d)) < 1e-11 * scale:
            raise DegenerateCutError("could not nudge cut off the vertex set")
        cut = CutLine(cut.angle, offset)

    above = _fixed_length_on_side(domain, normal, offset, +1)
    below = _fixed_length_on_side(domain, normal, offset, -1)
    side = +1 if above <= below else -1

    comps = _split_loop_by_line(domain.vertices, domain.labels, normal, offset, side)
    if len(comps) != 1:
        raise DegenerateCutError(f"kept half has {len(comps)} components")
    verts, labs = comps[0]
    chord_edges = [i for i, l in enumerate(labs) if l == _CUT]
    if len(chord_edges) != 1:
        raise DegenerateCutError(f"kept half meets the cut in {len(chord_edges)} chords")
    if len(verts) - len(chord_edges) < 2:
        raise DegenerateCutError("kept half is degenerate")

    # boundary path of the kept half from chord end around to chord start;
    # the union is that path followed by its own mirror image
    k = chord_edges[0]
    mlen = len(verts)
    path = [verts[(k + 1 + j) % mlen] for j in range(mlen)]
    path_labels = [labs[(k + 1 + j) % mlen] for j in range(mlen - 1)]
    interior = np.array(path[1:-1]) if mlen > 2 else np.empty((0, 2))
    mirrored = cut.mirror(interior[::-1]) if len(interior) else np.empty((0, 2))
    union_vertices = np.vstack([np.array(path), mirrored])
    union_labels = path_labels + path_labels[::-1]
    try:
        new_domain = LabeledDomain(union_vertices, union_labels)
    except DomainValidationError as exc:
        raise DegenerateCutError(f"reflected union is not a valid polygon: {exc}")
    ratio_after = isoperimetric_report(new_domain).ratio
    return SymmetrizationResult("reflected", new_domain, cut, ratio_before, ratio_after)


def symmetrize_iterate(
    domain: LabeledDomain,
    steps: int = 50,
    theta0: float = GOLDEN_ANGLE,
    min_decrease: float = 1e-6,
) -> tuple[LabeledDomain, list[dict]]:
    """Drive repeated reflection steps through multiples of the golden angle.

    Cut angles k * theta0 (mod pi) realize an equidistributed angle sequence.
    Steps with degenerate cut geometry are skipped but recorded; the run
    stops early once an executed step improves the ratio by less than
    ``min_decrease``.  Returns the final domain and a per-step trace carrying
    the ratio, the area, and the width of the domain's x-projection.
    """
    trace: list[dict] = []
    current = domain
    for k in range(1, steps + 1):
        theta = (k * theta0) % math.pi
        record = {
            "step": k,
            "theta": theta,
            "ratio": isoperimetric_report(current).ratio,
            "area": current.area,
            "projection_width": current.bbox[2] - current.bbox[0],
        }
        try:
            result = symmetrization_step(current, theta)
        except DegenerateCutError as exc:
            record["case"] = "skipped"
            record["detail"] = str(exc)
            trace.append(record)
            continue
        record["case"] = result.case
        record["ratio_after"] = result.ratio_after
        trace.append(record)
        if result.case == "reflected":
            improved = result.ratio_before - result.ratio_after
            current = result.domain
            if improved < min_decrease:
                break
    return current, trace


# ---------------------------------------------------------------------------
# rasterization
# ---------------------------------------------------------------------------

_DIRS = ((0, 1), (0, -1), (1, 0), (-1, 0))  # E, W, N, S as (di, dj) offsets
FACE_NONE, FACE_FIXED, FACE_FREE = 0, 1, 2


@dataclass
class RasterGrid:
    """Cell-centered rasterization of a labeled domain.

    ``mask[i, j]`` is True when the center of cell (i, j) lies inside the
    domain; ``face_labels[i, j, d]`` tags the four faces of each inside cell
    (order E, W, N, S) as interior (0), fixed (1), or free (2) according to
    the nearest boundary edge.
    """

    domain: LabeledDomain
    h: float
    origin: tuple[float, float]
    mask: np.ndarray
    face_labels: np.ndarray = field(repr=False)

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


def rasterize(domain: LabeledDomain, h: float) -> RasterGrid:
    """Rasterize onto a uniform grid of spacing ``h``.

    The mask is decided by cell-center membership, so the mask area converges
    to the polygon area at first order in ``h``.  Each face separating an
    inside cell from the outside is labeled fixed or free by the nearest
    boundary edge.
    """
    if h <= 0.0:
        raise DomainValidationError("grid spacing must be positive")
    x0, y0, x1, y1 = domain.bbox
    if min(x1 - x0, y1 - y0) < 8.0 * h:
        raise DomainValidationError(
            f"grid too coarse: need at least 8 cells across, got h={h}"
        )
    ox = math.floor(x0 / h) * h - h
    oy = math.floor(y0 / h) * h - h
    nx = int(math.ceil((x1 - ox) / h)) + 1
    ny = int(math.ceil((y1 - oy) / h)) + 1

    xs = ox + (np.arange(nx) + 0.5) * h
    ys = oy + (np.arange(ny) + 0.5) * h
    X, Y = np.meshgrid(xs, ys)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    mask = domain.contains(pts).reshape(ny, nx)
    if not mask.any():
        raise DomainValidationError("rasterization produced no interior cells")

    face_labels = np.zeros((ny, nx, 4), dtype=np.int8)
    padded = np.zeros((ny + 2, nx + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    face_pts, face_idx = [], []
    for dcode, (di, dj) in enumerate(_DIRS):
        nbr = padded[1 + di : ny + 1 + di, 1 + dj : nx + 1 + dj]
        bnd = mask & ~nbr
        ii, jj = np.nonzero(bnd)
        if len(ii) == 0:
            continue
        fx = xs[jj] + dj * 0.5 * h
        fy = ys[ii] + di * 0.5 * h
        face_pts.append(np.column_stack([fx, fy]))
        face_idx.append((dcode, ii, jj))
    if face_pts:
        allpts = np.vstack(face_pts)
        best = np.full(len(allpts), np.inf)
        lab = np.full(len(allpts), FACE_FIXED, dtype=np.int8)
        for loop, labs in zip(domain._loops(), (domain.labels, *domain.hole_labels)):
            for k, lk in enumerate(labs):
                dseg = _point_segment_distance(allpts, loop[k], loop[(k + 1) % len(loop)])
                closer = dseg < best
                if closer.any():
                    best[closer] = dseg[closer]
                    lab[closer] = FACE_FREE if lk == FREE else FACE_FIXED
        pos = 0
        for dcode, ii, jj in face_idx:
            n_faces = len(ii)
            face_labels[ii, jj, dcode] = lab[pos : pos + n_faces]
            pos += n_faces

    return RasterGrid(domain=domain, h=float(h), origin=(ox, oy), mask=mask, face_labels=face_labels)
