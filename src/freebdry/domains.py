"""Canonical test domains and a randomized concave-free-boundary generator.

Every builder returns a :class:`~freebdry.geometry.LabeledDomain`.  Curved
boundaries are inscribed polygons with a configurable segment count (64 by
default).  Nothing here reads from disk; the CLI's built-in domain library is
generated programmatically from these functions.  The generator's crossings,
inside probes and cuts are :mod:`freebdry.geometry`'s kernels.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainValidationError
from .geometry import (FIXED, FREE, CutLine, LabeledDomain, _convex_hull, _kept_arc, _next,
                       _orient, _points_in_polygon, _segments_cross, _signed_area, _walk)

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


def square_annulus(free_inner: bool = False) -> LabeledDomain:
    """Region between the concentric axis-aligned squares of sides 2 and 1.

    The inner square is a hole; with ``free_inner`` its boundary is the free
    chain (a closed chain), which is concave with respect to the region.
    """
    outer_pts = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    inner_pts = [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]
    hole_labels = [[FREE] * 4] if free_inner else None
    return LabeledDomain(outer_pts, [FIXED] * 4, holes=[inner_pts],
                         hole_labels=hole_labels)


_BUILTINS = {
    "halfdisk": half_disk,
    "disk": disk,
    "square": unit_square,
    "square-bottom-free": functools.partial(unit_square, free_bottom=True),
    "lshape": l_shape,
    "trapezoid": right_trapezoid,
    "annulus": square_annulus,
    "annulus-free-inner": functools.partial(square_annulus, free_inner=True),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_domain(name: str) -> LabeledDomain:
    """Look up a named builder; used by the CLI's ``--domain`` flag."""
    builder = _BUILTINS.get(name.strip().lower())
    if builder is None:
        raise DomainValidationError(
            f"unknown builtin domain {name!r}; choices: {', '.join(BUILTIN_NAMES)}")
    return builder()


# ---------------------------------------------------------------------------
# randomized generator
# ---------------------------------------------------------------------------

def _random_convex_polygon(rng: np.random.Generator, n_points: int) -> np.ndarray:
    ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, n_points))
    rad = rng.uniform(0.7, 1.3, n_points)
    pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    return _convex_hull(pts)


def _loop_crossings(poly: np.ndarray, bite: np.ndarray) -> list[tuple] | None:
    """The crossings of the edges of two closed loops, sorted along ``poly``,
    each a pair of places: (edge, parameter) on ``poly``, then on ``bite``.
    Edge i joins vertex i to vertex i + 1, and the parameter runs from 0 to
    1 along it.  None when two edges overlap collinearly, which leaves no
    crossing parameter."""
    a, b = poly.T[:, :, None], _next(poly).T[:, :, None]
    c, d = bite.T[:, None, :], _next(bite).T[:, None, :]
    i, j = np.nonzero(_segments_cross(a, b, c, d, 0.0))
    a, b, c, d = a[:, i, 0], b[:, i, 0], c[:, 0, j], d[:, 0, j]
    o1, o2, o3, o4 = _orient(a, b, c), _orient(a, b, d), _orient(c, d, a), _orient(c, d, b)
    if (o1 == o2).any():
        return None
    return sorted(zip(zip(i.tolist(), (o3 / (o3 - o4)).tolist()),
                      zip(j.tolist(), (o1 / (o1 - o2)).tolist())))


def _between(loop: np.ndarray, start: tuple, end: tuple) -> np.ndarray:
    """The vertices of a loop strictly between two places on it, each an
    (edge, parameter) pair, walking in loop order and wrapping around if
    needed."""
    (edge, t), (end_edge, end_t) = start, end
    m = len(loop)
    return _walk(loop, edge, (end_edge - edge) % m or m * (end_t < t))


def _carve_bite(poly: np.ndarray, bite: np.ndarray) -> LabeledDomain | None:
    """Subtract a convex bite overlapping the boundary of a convex polygon.

    The newly exposed part of the bite boundary becomes the free chain; every
    chord between free-chain points then lies inside the removed convex bite,
    which makes the free chain concave by construction.  Returns None when
    the crossing pattern is not the simple two-point one.
    """
    hits = _loop_crossings(poly, bite)
    if hits is None or len(hits) != 2:
        return None
    (p0, b0), (p1, b1) = hits
    points = [poly[i] + t * (poly[(i + 1) % len(poly)] - poly[i]) for i, t in (p0, p1)]
    chains = [_between(poly, p0, p1), _between(poly, p1, p0)]
    # each chain's middle vertex, or the crossings' midpoint for an empty one
    probes = [chain[len(chain) // 2] if len(chain) else 0.5 * (points[0] + points[1])
              for chain in chains]
    bitten = _points_in_polygon(np.array(probes), bite)
    if bitten.all():
        return None
    k = int(bitten[0])  # the first chain not bitten off is kept
    kept, start, end = chains[k], (b0, b1)[k], (b1, b0)[k]
    # the bite boundary inside the polygon, traversed from `end` to `start`;
    # the two runs hold every bite vertex between them
    fwd = _between(bite, end, start)
    rev = _between(bite, start, end)
    if len(fwd) and _points_in_polygon(fwd, poly).all():
        bite_chain = fwd
    elif len(rev) and _points_in_polygon(rev, poly).all():
        bite_chain = rev[::-1]
    else:
        return None

    verts = np.vstack([points[k], kept, points[1 - k], bite_chain])
    labels = [FIXED] * (len(kept) + 1) + [FREE] * (len(bite_chain) + 1)
    try:
        dom = LabeledDomain(verts, labels)
    except DomainValidationError:
        return None
    if not 0.0 < dom.area < abs(_signed_area(poly)):
        return None
    return dom


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
            dom = _random_half_disk()
        elif mode < 0.45:
            dom = _random_chord_cap(rng)
        else:
            dom = _random_bite_domain(rng)
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


@functools.cache
def _random_half_disk() -> LabeledDomain:
    """The generator's half disk, built once: a domain is immutable, and
    ``transformed`` returns a new one."""
    return half_disk(radius=1.0, segments=_RANDOM_SEGMENTS)


def _random_chord_cap(rng: np.random.Generator) -> LabeledDomain | None:
    """Convex polygon with one cap cut off; the flat chord is the free edge."""
    poly = _random_convex_polygon(rng, rng.integers(8, 16))
    theta = rng.uniform(0.0, math.pi)
    proj = CutLine(theta, 0.0).signed_distance(poly)
    lo, hi = proj.min(), proj.max()
    cut = CutLine(theta, lo + rng.uniform(0.25, 0.6) * (hi - lo))
    d = cut.signed_distance(poly)
    if (d > 0).sum() < 3:
        return None
    # the arc from the entering crossing to the leaving one, closed by the
    # chord
    kept = _kept_arc(poly, [FIXED] * len(poly), d)
    if kept is None:
        return None
    try:
        return LabeledDomain(kept[0], kept[1] + [FREE])
    except DomainValidationError:
        return None


def _random_bite_domain(rng: np.random.Generator) -> LabeledDomain | None:
    poly = _random_convex_polygon(rng, rng.integers(8, 16))
    m = len(poly)
    # bite disk centered at a random boundary point
    i = rng.integers(0, m)
    t = rng.uniform(0.2, 0.8)
    center = poly[i] + t * (poly[(i + 1) % m] - poly[i])
    rad = rng.uniform(0.25, 0.55)
    ang = np.linspace(0.0, 2.0 * math.pi, _RANDOM_SEGMENTS, endpoint=False)
    bite = np.column_stack([center[0] + rad * np.cos(ang), center[1] + rad * np.sin(ang)])
    return _carve_bite(poly, bite)
