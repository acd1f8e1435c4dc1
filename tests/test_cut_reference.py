"""The float-list equal-area cut and polygon helpers against their references.

The references below are the numpy-scalar versions that preceded the
float-list loops: a Sutherland-Hodgman clip that projects the loop at every
bisection step, an ``np.roll`` shoelace, and the crossing search of the
random-domain generator.  The float-list code keeps every floating-point
operation and its order, so the results must agree exactly (``==``): each
symmetrize report depends on the offset's last bit.
"""

import math

import numpy as np
import pytest

from freebdry import domains
from freebdry.domains import _loop_intersections, _point_in_convex
from freebdry.geometry import (
    GOLDEN_ANGLE,
    _area_above,
    _edge_lengths,
    _signed_area,
    equal_volume_cut,
)


def reference_signed_area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def reference_clipped_area_above(loop, normal, offset):
    d = loop @ normal - offset
    out_x, out_y = [], []
    m = len(loop)
    for i in range(m):
        j = (i + 1) % m
        di, dj = d[i], d[j]
        if di >= 0.0:
            out_x.append(loop[i, 0])
            out_y.append(loop[i, 1])
        if (di > 0.0) != (dj > 0.0) and di != dj:
            t = di / (di - dj)
            out_x.append(loop[i, 0] + t * (loop[j, 0] - loop[i, 0]))
            out_y.append(loop[i, 1] + t * (loop[j, 1] - loop[i, 1]))
    if len(out_x) < 3:
        return 0.0
    x = np.array(out_x)
    y = np.array(out_y)
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def reference_area_above(domain, normal, offset):
    a = reference_clipped_area_above(domain.vertices, normal, offset)
    for h in domain.holes:
        a -= reference_clipped_area_above(h, normal, offset)
    return a


def reference_cut_offset(domain, theta):
    normal = np.array([-math.sin(theta), math.cos(theta)])
    proj = np.concatenate([domain.vertices @ normal] + [h @ normal for h in domain.holes])
    lo, hi = float(proj.min()), float(proj.max())
    A = domain.area
    target = 0.5 * A
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = reference_area_above(domain, normal, mid) - target
        if abs(fmid) <= 2.5e-10 * A:
            return mid
        if fmid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0e-17 * max(abs(hi), abs(lo), 1.0):
            break
    return 0.5 * (lo + hi)


def reference_cumulative(loop):
    seg = np.hypot(*(np.roll(loop, -1, axis=0) - loop).T)
    return np.concatenate([[0.0], np.cumsum(seg)])


def reference_loop_intersections(poly, bite):
    cum_p, cum_b = reference_cumulative(poly), reference_cumulative(bite)
    hits = []
    m, k = len(poly), len(bite)
    for i in range(m):
        a, b = poly[i], poly[(i + 1) % m]
        for j in range(k):
            c, d = bite[j], bite[(j + 1) % k]
            r, s = b - a, d - c
            denom = r[0] * s[1] - r[1] * s[0]
            if abs(denom) < 1e-14:
                continue
            q = c - a
            t = (q[0] * s[1] - q[1] * s[0]) / denom
            u = (q[0] * r[1] - q[1] * r[0]) / denom
            if 1e-9 < t < 1.0 - 1e-9 and 1e-9 < u < 1.0 - 1e-9:
                hits.append({
                    "s_poly": cum_p[i] + t * (cum_p[i + 1] - cum_p[i]),
                    "s_bite": cum_b[j] + u * (cum_b[j + 1] - cum_b[j]),
                    "point": a + t * r,
                })
    return hits


def reference_point_in_convex(poly, p):
    m = len(poly)
    sign = 0
    for i in range(m):
        a, b = poly[i], poly[(i + 1) % m]
        cr = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if abs(cr) < 1e-12:
            continue
        s = 1 if cr > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def assert_cuts_match(domain, thetas):
    for theta in thetas:
        assert equal_volume_cut(domain, theta).offset == reference_cut_offset(domain, theta)


# -- equal-area cut ------------------------------------------------------------

def test_cut_matches_reference_on_random_domains():
    rng = np.random.default_rng(2024)
    thetas = [(k * GOLDEN_ANGLE) % math.pi for k in range(1, 6)]
    for _ in range(200):
        assert_cuts_match(domains.random_concave_domain(rng), thetas)


def test_cut_matches_reference_on_annulus():
    dom = domains.builtin_domain("annulus")
    assert dom.holes
    assert_cuts_match(dom, [0.0, 0.3, math.pi / 4.0, math.pi / 2.0, 2.0, 3.0])
    free_inner = domains.builtin_domain("annulus-free-inner")
    assert_cuts_match(free_inner, [0.1, 1.3])


def test_cut_matches_reference_through_a_vertex():
    # at pi/2 the first bisection offset puts the line through the L-shape's
    # vertices (1, 1) and (1, 2); the square's cuts start on its diagonal
    dom = domains.l_shape()
    assert_cuts_match(dom, [math.pi / 2.0, 0.0, math.pi / 4.0])
    square = domains.unit_square()
    assert_cuts_match(square, [0.0, math.pi / 2.0, math.pi / 4.0])


def test_cut_matches_reference_on_half_disk():
    dom = domains.half_disk()
    thetas = [0.0, math.pi / 2.0] + [(k * GOLDEN_ANGLE) % math.pi for k in range(1, 9)]
    assert_cuts_match(dom, thetas)


def test_area_above_matches_reference_at_every_offset():
    rng = np.random.default_rng(11)
    for dom in (domains.l_shape(), domains.builtin_domain("annulus"),
                domains.random_concave_domain(rng)):
        for theta in (0.0, 0.7, math.pi / 2.0):
            normal = np.array([-math.sin(theta), math.cos(theta)])
            proj = np.concatenate([loop @ normal for loop in (dom.vertices, *dom.holes)])
            # vertex projections themselves put vertices exactly on the line
            offsets = np.concatenate([np.linspace(proj.min() - 0.1, proj.max() + 0.1, 41), proj])
            for off in offsets.tolist():
                assert _area_above(dom, normal, off) == reference_area_above(dom, normal, off)


# -- shoelace and edge lengths ---------------------------------------------------

def test_signed_area_matches_roll_shoelace():
    rng = np.random.default_rng(3)
    for m in (3, 4, 7, 8, 9, 16, 17, 64, 129, 1000):
        pts = rng.normal(size=(m, 2)) * rng.uniform(0.1, 1e3)
        assert _signed_area(pts) == reference_signed_area(pts)
        rev = pts[::-1]
        assert _signed_area(rev) == reference_signed_area(rev)
        shifted = pts + 1e8
        assert _signed_area(shifted) == reference_signed_area(shifted)
        seg = np.hypot(*(np.roll(pts, -1, axis=0) - pts).T)
        assert np.array_equal(_edge_lengths(pts), seg)


def test_signed_area_matches_roll_shoelace_near_degenerate():
    rng = np.random.default_rng(4)
    x = np.linspace(0.0, 1.0, 33)
    for eps in (0.0, 1e-300, 1e-15, 1e-9):
        pts = np.column_stack([x, eps * rng.normal(size=x.size)])
        assert _signed_area(pts) == reference_signed_area(pts)
        assert _signed_area(pts[::-1]) == reference_signed_area(pts[::-1])
    sliver = np.array([[0.0, 0.0], [1.0, 1e-17], [2.0, 0.0], [1.0, -1e-17]])
    assert _signed_area(sliver) == reference_signed_area(sliver)


# -- random-domain generator ---------------------------------------------------

def _bite_cases(rng, n):
    """Convex polygons and disk bites centered on their boundary, drawn the
    way ``random_concave_domain`` draws them."""
    for _ in range(n):
        poly = domains._random_convex_polygon(rng, rng.integers(8, 16))
        m = len(poly)
        i = rng.integers(0, m)
        center = poly[i] + rng.uniform(0.2, 0.8) * (poly[(i + 1) % m] - poly[i])
        rad = rng.uniform(0.25, 0.55)
        ang = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        yield poly, np.column_stack([center[0] + rad * np.cos(ang),
                                     center[1] + rad * np.sin(ang)])


def _hit_tuples(hits):
    return [(h["s_poly"], h["s_bite"], h["point"].tolist()) for h in hits]


def test_loop_intersections_match_reference():
    rng = np.random.default_rng(7)
    total = 0
    for poly, bite in _bite_cases(rng, 150):
        new, ref = _loop_intersections(poly, bite), reference_loop_intersections(poly, bite)
        assert _hit_tuples(new) == _hit_tuples(ref)
        total += len(ref)
    assert total >= 250
    # a bite whose boundary passes through polygon vertices, and no crossing
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for bite in (square + [0.5, 0.0], square * 0.25 + 0.3, square + 5.0):
        assert _hit_tuples(_loop_intersections(square, bite)) == _hit_tuples(
            reference_loop_intersections(square, bite))


def test_point_in_convex_matches_reference():
    rng = np.random.default_rng(8)
    for poly, bite in _bite_cases(rng, 40):
        probes = np.concatenate([rng.uniform(-1.5, 1.5, (20, 2)), poly, bite])
        for p in probes:
            assert _point_in_convex(bite, p) == reference_point_in_convex(bite, p)
            assert _point_in_convex(poly, p) == reference_point_in_convex(poly, p)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_domains_match_reference_generator(seed, monkeypatch):
    # the generator with the reference helpers swapped in draws the same
    # domains, vertex for vertex
    rng = np.random.default_rng(seed)
    new = [domains.random_concave_domain(rng) for _ in range(15)]
    monkeypatch.setattr(domains, "_loop_intersections", reference_loop_intersections)
    monkeypatch.setattr(domains, "_point_in_convex", reference_point_in_convex)
    monkeypatch.setattr(domains, "_cumulative", reference_cumulative)
    rng = np.random.default_rng(seed)
    ref = [domains.random_concave_domain(rng) for _ in range(15)]
    for a, b in zip(new, ref):
        assert np.array_equal(a.vertices, b.vertices)
        assert a.labels == b.labels
