"""Canonical test domains and a randomized concave-free-boundary generator.

Every builder returns a :class:`~freebdry.geometry.LabeledDomain`.  Curved
boundaries are inscribed polygons with a configurable segment count (64 by
default).  Nothing here reads from disk; the CLI's built-in domain library is
generated programmatically from these functions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainValidationError
from .geometry import FIXED, FREE, LabeledDomain, _edge_lengths, _signed_area

DEFAULT_SEGMENTS = 64
_RANDOM_SEGMENTS = 24  # of the generated half disks and bite circles

__all__ = [
    "half_disk",
    "disk",
    "unit_square",
    "l_shape",
    "right_trapezoid",
    "square_annulus",
    "builtin_domain",
    "BUILTIN_NAMES",
    "random_concave_domain",
]


def half_disk(radius: float = 1.0, segments: int = DEFAULT_SEGMENTS) -> LabeledDomain:
    """Upper half disk; the straight diameter is the free edge."""
    ang = np.linspace(0.0, math.pi, segments + 1)
    arc = np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])
    return LabeledDomain(arc, [FIXED] * segments + [FREE])


def disk(radius: float = 1.0, segments: int = DEFAULT_SEGMENTS) -> LabeledDomain:
    """Full disk, entirely fixed boundary."""
    ang = np.linspace(0.0, 2.0 * math.pi, segments, endpoint=False)
    pts = np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])
    return LabeledDomain(pts, [FIXED] * segments)


def unit_square(free_bottom: bool = False) -> LabeledDomain:
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    labels = [FREE if free_bottom else FIXED, FIXED, FIXED, FIXED]
    return LabeledDomain(pts, labels)


def l_shape() -> LabeledDomain:
    """[0,2]x[0,1] union [0,1]x[1,2], all fixed."""
    pts = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)]
    return LabeledDomain(pts, [FIXED] * 6)


def right_trapezoid() -> LabeledDomain:
    """Vertices (0,0), (2,0), (2,1), (0,2); the bottom edge is free."""
    pts = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 2.0)]
    return LabeledDomain(pts, [FREE, FIXED, FIXED, FIXED])


def square_annulus(outer: float = 2.0, inner: float = 1.0,
                   free_inner: bool = False) -> LabeledDomain:
    """Region between two concentric axis-aligned squares.

    The inner square is a hole; with ``free_inner`` its boundary is the free
    chain (a closed chain), which is concave with respect to the region.
    """
    if inner >= outer:
        raise DomainValidationError("inner square must be smaller than outer")
    o, i = outer / 2.0, inner / 2.0
    outer_pts = [(-o, -o), (o, -o), (o, o), (-o, o)]
    inner_pts = [(-i, -i), (i, -i), (i, i), (-i, i)]
    hole_labels = [[FREE] * 4] if free_inner else None
    return LabeledDomain(outer_pts, [FIXED] * 4, holes=[inner_pts],
                         hole_labels=hole_labels)


BUILTIN_NAMES = (
    "halfdisk",
    "disk",
    "square",
    "square-bottom-free",
    "lshape",
    "trapezoid",
    "annulus",
    "annulus-free-inner",
)


def builtin_domain(name: str) -> LabeledDomain:
    """Look up a named builder; used by the CLI's ``--domain`` flag."""
    key = name.strip().lower()
    if key == "halfdisk":
        return half_disk()
    if key == "disk":
        return disk()
    if key == "square":
        return unit_square(free_bottom=False)
    if key == "square-bottom-free":
        return unit_square(free_bottom=True)
    if key == "lshape":
        return l_shape()
    if key == "trapezoid":
        return right_trapezoid()
    if key == "annulus":
        return square_annulus()
    if key == "annulus-free-inner":
        return square_annulus(free_inner=True)
    raise KeyError(f"unknown builtin domain {name!r}; choices: {', '.join(BUILTIN_NAMES)}")


# ---------------------------------------------------------------------------
# randomized generator
# ---------------------------------------------------------------------------

def _random_convex_polygon(rng: np.random.Generator, n_points: int) -> np.ndarray:
    ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, n_points))
    rad = rng.uniform(0.7, 1.3, n_points)
    pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    return _convex_hull(pts)


def _convex_hull(pts: np.ndarray) -> np.ndarray:
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                u = out[-1] - out[-2]
                v = p - out[-2]
                if u[0] * v[1] - u[1] * v[0] > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _cumulative(loop: np.ndarray) -> list[float]:
    """cum[k] = boundary arc-length coordinate of vertex k; cum[m] = total."""
    return [0.0, *np.cumsum(_edge_lengths(loop)).tolist()]


def _chain_between(loop: np.ndarray, s_from: float, s_to: float,
                   cum: list[float]) -> list[np.ndarray]:
    """Vertices of the loop strictly between two boundary coordinates,
    walking in loop (CCW) order and wrapping around if needed."""
    total = cum[-1]
    if s_to <= s_from:
        s_to += total
    out = []
    for k in range(len(loop)):
        for cand in (cum[k], cum[k] + total):
            if s_from < cand < s_to:
                out.append((cand, loop[k]))
    out.sort(key=lambda item: item[0])
    return [p for _, p in out]


def _edges(loop: list) -> list:
    """(start, end) vertex pairs of a closed loop given as a list of points."""
    return list(zip(loop, loop[1:] + loop[:1]))


def _loop_intersections(poly: np.ndarray, bite: np.ndarray):
    """Proper crossings between two closed loops with the boundary coordinate
    of each crossing on both loops."""
    cum_p, cum_b = _cumulative(poly), _cumulative(bite)
    poly_edges = _edges(poly.tolist())
    bite_edges = _edges(bite.tolist())
    hits = []
    for i, ((ax, ay), (bx, by)) in enumerate(poly_edges):
        rx, ry = bx - ax, by - ay
        for j, ((cx, cy), (dx, dy)) in enumerate(bite_edges):
            sx, sy = dx - cx, dy - cy
            denom = rx * sy - ry * sx
            if abs(denom) < 1e-14:
                continue
            qx, qy = cx - ax, cy - ay
            t = (qx * sy - qy * sx) / denom
            u = (qx * ry - qy * rx) / denom
            if 1e-9 < t < 1.0 - 1e-9 and 1e-9 < u < 1.0 - 1e-9:
                hits.append({
                    "s_poly": cum_p[i] + t * (cum_p[i + 1] - cum_p[i]),
                    "s_bite": cum_b[j] + u * (cum_b[j + 1] - cum_b[j]),
                    "point": np.array([ax + t * rx, ay + t * ry]),
                })
    return hits


def _carve_bite(poly: np.ndarray, bite: np.ndarray) -> LabeledDomain | None:
    """Subtract a convex bite overlapping the boundary of a convex polygon.

    The newly exposed part of the bite boundary becomes the free chain; every
    chord between free-chain points then lies inside the removed convex bite,
    which makes the free chain concave by construction.  Returns None when
    the crossing pattern is not the simple two-point one.
    """
    hits = _loop_intersections(poly, bite)
    if len(hits) != 2:
        return None
    cum_p, cum_b = _cumulative(poly), _cumulative(bite)
    h0, h1 = sorted(hits, key=lambda h: h["s_poly"])

    chain_01 = _chain_between(poly, h0["s_poly"], h1["s_poly"], cum_p)
    chain_10 = _chain_between(poly, h1["s_poly"], h0["s_poly"], cum_p)

    def probe(chain, p_start, p_end):
        return chain[len(chain) // 2] if chain else 0.5 * (p_start + p_end)

    if not _point_in_convex(bite, probe(chain_01, h0["point"], h1["point"])):
        kept, start, end = chain_01, h0, h1
    elif not _point_in_convex(bite, probe(chain_10, h1["point"], h0["point"])):
        kept, start, end = chain_10, h1, h0
    else:
        return None

    # bite boundary portion inside the polygon, traversed from `end` to `start`
    fwd = _chain_between(bite, end["s_bite"], start["s_bite"], cum_b)
    rev = _chain_between(bite, start["s_bite"], end["s_bite"], cum_b)

    def inside_all(chain):
        return all(_point_in_convex(poly, q) for q in chain)

    if fwd and inside_all(fwd):
        bite_chain = fwd
    elif rev and inside_all(rev):
        bite_chain = list(reversed(rev))
    elif not fwd and not rev:
        bite_chain = []
    else:
        return None

    verts = [start["point"], *kept, end["point"], *bite_chain]
    labels = [FIXED] * (len(kept) + 1) + [FREE] * (len(bite_chain) + 1)
    try:
        dom = LabeledDomain(verts, labels)
    except DomainValidationError:
        return None
    if not 0.0 < dom.area < abs(_signed_area(poly)):
        return None
    return dom


def _point_in_convex(poly: np.ndarray, p) -> bool:
    px, py = float(p[0]), float(p[1])
    sign = 0
    for (ax, ay), (bx, by) in _edges(poly.tolist()):
        cr = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if abs(cr) < 1e-12:
            continue
        s = 1 if cr > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def random_concave_domain(rng: np.random.Generator) -> LabeledDomain:
    """Random domain whose free chain is concave by construction.

    A random convex polygon gets a convex bite removed across its boundary;
    the newly exposed bite boundary is the free chain, so every free-chain
    chord stays inside the (removed) convex bite and off the interior.  With
    some probability a flat chord cap or a transformed half disk is produced
    instead.  The result is randomly rotated, scaled, and shifted.
    """
    for _ in range(60):
        mode = rng.uniform()
        if mode < 0.18:
            dom = half_disk(radius=1.0, segments=_RANDOM_SEGMENTS)
        elif mode < 0.45:
            dom = _random_chord_cap(rng)
        else:
            dom = _random_bite_domain(rng, _RANDOM_SEGMENTS)
        if dom is None:
            continue
        scale = rng.uniform(0.5, 2.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        shift = rng.uniform(-1.0, 1.0, 2)
        try:
            return dom.transformed(scale=scale, angle=angle, shift=shift)
        except DomainValidationError:
            continue
    raise RuntimeError("random domain generation failed repeatedly")


def _random_chord_cap(rng: np.random.Generator) -> LabeledDomain | None:
    """Convex polygon with one cap cut off; the flat chord is the free edge."""
    poly = _random_convex_polygon(rng, rng.integers(8, 16))
    m = len(poly)
    theta = rng.uniform(0.0, math.pi)
    normal = np.array([-math.sin(theta), math.cos(theta)])
    proj = poly @ normal
    lo, hi = proj.min(), proj.max()
    c = lo + rng.uniform(0.25, 0.6) * (hi - lo)
    d = proj - c
    if (d > 0).sum() < 3:
        return None
    verts, labels = [], []
    for i in range(m):
        j = (i + 1) % m
        if d[i] >= 0:
            verts.append(poly[i])
            labels.append(FIXED)
        if (d[i] > 0) != (d[j] > 0):
            t = d[i] / (d[i] - d[j])
            p = poly[i] + t * (poly[j] - poly[i])
            # the exit crossing starts the chord edge; the entry crossing
            # resumes the polygon boundary
            verts.append(p)
            labels.append(FREE if d[i] >= 0 else FIXED)
    if labels.count(FREE) != 1:
        return None
    try:
        return LabeledDomain(verts, labels)
    except DomainValidationError:
        return None


def _random_bite_domain(rng: np.random.Generator, segments: int) -> LabeledDomain | None:
    poly = _random_convex_polygon(rng, rng.integers(8, 16))
    m = len(poly)
    # bite disk centered at a random boundary point
    i = rng.integers(0, m)
    t = rng.uniform(0.2, 0.8)
    center = poly[i] + t * (poly[(i + 1) % m] - poly[i])
    rad = rng.uniform(0.25, 0.55)
    nseg = max(12, segments)
    ang = np.linspace(0.0, 2.0 * math.pi, nseg, endpoint=False)
    bite = np.column_stack([center[0] + rad * np.cos(ang), center[1] + rad * np.sin(ang)])
    return _carve_bite(poly, bite)
