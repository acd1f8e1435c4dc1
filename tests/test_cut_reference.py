"""The equal-area cut, the reflection split, the random-domain generator and
polygon helpers against their references.

The references below are the numpy-scalar versions that preceded the
float-list loops: a Sutherland-Hodgman clip that projects the loop at every
bisection step, the bisection on it, and an ``np.roll`` shoelace.  Each
side-of-line test is written as the cut line's kernel computes it, ``x *
n[0] + y * n[1] - offset``, elementwise.  The cut reads its areas off one
exact table per cut instead of clipping, so an area agrees with the clip to
1e-13 of the domain's area, not bit for bit.  The cut's offset is the root
of one bracket's quadratic in that table, not a bisection, so it must halve
the clipped area to 1e-13 of the domain's area and lie within 1e-9 of the
domain's diameter of the bisection's offset, which stops at 2.5e-10 of the
area.  ``_area_above`` reads the table at any offset.  The shoelace is
the same numpy expression with ``_next`` in place of ``np.roll``, so its
areas must agree exactly too.  The split reference stitches any number of
kept components and chords; the two-crossing arc must give the same union,
bit for bit, or refuse the cut where the reference raises.

The generator reference is the one that preceded geometry's kernels: a
pure-Python crossing search keyed by arc length, a convex inside test with
a 1e-12 tolerance, and the chord cap and rotation through BLAS ``@``
products.  The generator now finds its crossings with ``_segments_cross``
and ``_orient``, so its parameters round differently: it must make the same
decisions and draws and the same domains to 1e-14 of their scale, with a
chord cap numbered from its entering crossing.  The even-odd inside test,
which skips the edges whose ordinate band holds no point, must agree bit
for bit with the per-edge loop.
"""

import math
import warnings
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest

from freebdry import domains
from freebdry.domains import _carve_bite, _loop_crossings
from freebdry.errors import DegenerateCutError, DomainValidationError
from freebdry.geometry import (
    FIXED,
    FREE,
    GOLDEN_ANGLE,
    CutLine,
    LabeledDomain,
    _area_table,
    _edge_lengths,
    _fixed_length_split,
    _next,
    _points_in_polygon,
    _reflected_half,
    _reflected_union,
    _signed_area,
    equal_volume_cut,
    isoperimetric_report,
    symmetrization_step,
)


def reference_signed_area(pts):
    # relative to the first vertex, as the shoelace far from the origin needs
    pts = pts - pts[0]
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def side_of_line(loop, normal, offset):
    return loop[:, 0] * normal[0] + loop[:, 1] * normal[1] - offset


def reference_clipped_area_above(loop, normal, offset):
    d = side_of_line(loop, normal, offset)
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


def _area_above(table, offset):
    """The area above ``offset`` read off an :func:`_area_table`: the
    quadratic through the values at the ends of the offset's bracket, with
    the bracket's second derivative."""
    s, A, c = table
    j = bisect_right(s, offset, 1, len(s) - 1) - 1
    x, L = offset - s[j], s[j + 1] - s[j]
    return A[j] + (A[j + 1] - A[j]) * x / L + 0.5 * c[j] * x * (x - L)


def reference_cut_offset(domain, theta):
    normal = np.array([-math.sin(theta), math.cos(theta)])
    proj = np.concatenate([side_of_line(loop, normal, 0.0) for loop in (domain.vertices, *domain.holes)])
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
        cut = equal_volume_cut(domain, theta)
        above = reference_area_above(domain, cut.normal, cut.offset)
        assert abs(above - 0.5 * domain.area) <= 1e-13 * domain.area
        assert abs(cut.offset - reference_cut_offset(domain, theta)) <= 1e-9 * domain.diameter


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
    # at pi/2 the reference's first bisection offset puts the line through
    # the L-shape's vertices (1, 1) and (1, 2); the square's cuts start on
    # its diagonal
    dom = domains.l_shape()
    assert_cuts_match(dom, [math.pi / 2.0, 0.0, math.pi / 4.0])
    square = domains.unit_square()
    assert_cuts_match(square, [0.0, math.pi / 2.0, math.pi / 4.0])


def test_cut_matches_reference_on_half_disk():
    dom = domains.half_disk()
    thetas = [0.0, math.pi / 2.0] + [(k * GOLDEN_ANGLE) % math.pi for k in range(1, 9)]
    assert_cuts_match(dom, thetas)


def test_cut_matches_reference_on_reflected_unions():
    # from its second step on, symmetrize cuts mirrored unions: their
    # vertices come in mirror pairs and their edges can be nearly parallel
    # to the cut; each union of the single-angle step is cut at its own
    # axis and at the next angle
    rng = np.random.default_rng(31)
    unions = 0
    for _ in range(50):
        current = domains.random_concave_domain(rng)
        for k in range(1, 6):
            theta = (k * GOLDEN_ANGLE) % math.pi
            union = single_angle_step(current, theta)
            if union is not None:
                current = union
                unions += 1
                assert_cuts_match(current, [theta, ((k + 1) * GOLDEN_ANGLE) % math.pi])
    assert unions >= 100


def test_area_table_matches_reference_at_and_between_breakpoints():
    # exact in exact arithmetic, so in floats within 1e-13 of the area of
    # the clip; the square and the L-shape at 0 and pi/2 have edges parallel
    # to the cut, the annulus has a hole
    rng = np.random.default_rng(11)
    for dom in (domains.unit_square(), domains.l_shape(), domains.builtin_domain("annulus"),
                domains.half_disk(), domains.random_concave_domain(rng)):
        for theta in (0.0, 0.7, math.pi / 4.0, math.pi / 2.0):
            line = CutLine(theta, 0.0)
            table = _area_table(dom, line)
            breaks = table[0]
            proj = np.concatenate([side_of_line(loop, line.normal, 0.0) for loop in dom._loops()])
            assert breaks == sorted(set(proj.tolist()))
            between = [a + f * (b - a) for a, b in zip(breaks, breaks[1:]) for f in (0.1, 0.5, 0.9)]
            for off in breaks + between:
                ref = reference_area_above(dom, line.normal, off)
                assert abs(_area_above(table, off) - ref) <= 1e-13 * dom.area


# -- reflection split ------------------------------------------------------------

_CUT = "__cut__"  # label of the chord edges in the reference's components


def reference_split_loop_by_line(loop, labels, normal, offset, side):
    """Components of a simple CCW polygon on one side of a line, as
    (vertices, labels) with chord edges labelled ``_CUT``."""
    d = side_of_line(loop, normal, offset) * side
    m = len(loop)
    if (d > 0.0).all():
        return [(loop.copy(), list(labels))]
    if (d < 0.0).all():
        return []
    direction = np.array([normal[1], -normal[0]])

    crossings = {}
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

    srt = sorted(cross_list, key=lambda c: c["rank"])
    partner = {}
    for k in range(0, len(srt), 2):
        partner[srt[k]["rank"]] = srt[k + 1]["rank"]
        partner[srt[k + 1]["rank"]] = srt[k]["rank"]

    start_edge = next((c["edge"] + 1) % m for c in cross_list if not c["up"])
    arcs = {}
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
    used = set()
    for start_rank in list(arcs):
        if start_rank in used:
            continue
        verts, labs = [], []
        rank = start_rank
        while True:
            used.add(rank)
            arc = arcs[rank]
            verts.extend(arc["verts"])
            labs.extend(arc["labs"])
            labs.append(_CUT)
            rank = partner[arc["end"]]
            if rank == start_rank:
                break
            if rank not in arcs:
                raise DegenerateCutError("cut stitching failed (chord pairing)")
        comps.append((np.array(verts), labs))
    return comps


def reference_reflected_half(loop, labels, cut, side):
    """The kept component's boundary path from chord end to chord start,
    followed by its mirror image."""
    comps = reference_split_loop_by_line(loop, labels, cut.normal, cut.offset, side)
    if len(comps) != 1:
        raise DegenerateCutError(f"kept half has {len(comps)} components")
    verts, labs = comps[0]
    chord_edges = [i for i, l in enumerate(labs) if l == _CUT]
    if len(chord_edges) != 1:
        raise DegenerateCutError(f"kept half meets the cut in {len(chord_edges)} chords")
    if len(verts) - len(chord_edges) < 2:
        raise DegenerateCutError("kept half is degenerate")
    k = chord_edges[0]
    mlen = len(verts)
    path = [verts[(k + 1 + j) % mlen] for j in range(mlen)]
    path_labels = [labs[(k + 1 + j) % mlen] for j in range(mlen - 1)]
    interior = np.array(path[1:-1]) if mlen > 2 else np.empty((0, 2))
    mirrored = cut.mirror(interior[::-1]) if len(interior) else np.empty((0, 2))
    return np.vstack([np.array(path), mirrored]), path_labels + path_labels[::-1]


def nudged(dom, cut):
    """The cut moved off the vertex set the way ``symmetrization_step`` moves it."""
    scale = max(dom.diameter, 1e-30)
    if np.min(np.abs(side_of_line(dom.vertices, cut.normal, cut.offset))) < 1e-11 * scale:
        return CutLine(cut.angle, cut.offset + 3.17e-9 * scale)
    return cut


def reflected_half(loop, labels, cut, side):
    """``_reflected_half`` given the side the way ``symmetrization_step``
    gives it: as the sign of the signed distances."""
    return _reflected_half(loop, labels, cut, cut.signed_distance(loop) * side)


def single_angle_step(dom, theta):
    """The reflection step as it was before it tried several cuts and
    checked its output: the equal-area cut at ``theta``, nudged off the
    vertex set, and the half with less fixed length joined to its mirror
    image; ``None`` where that step was skipped or returned ``case-2``."""
    cut = equal_volume_cut(dom, theta)
    d = cut.signed_distance(dom.vertices)
    if not (dom._edges.free & (np.sign(d) * np.sign(_next(d)) <= 0.0)).any():
        return None
    cut = nudged(dom, cut)
    d = cut.signed_distance(dom.vertices)
    if np.min(np.abs(d)) < 1e-11 * dom.diameter:
        return None
    above, below = _fixed_length_split(dom, d)
    half = reflected_half(dom.vertices, dom.labels, cut, 1 if above <= below else -1)
    try:
        return None if half is None else LabeledDomain(*half)
    except DomainValidationError:
        return None


def split_outcome(split, dom, cut, side):
    """The union's shape, bytes and labels; the error text where the
    reference raises, and ``None`` where the split refuses the cut."""
    try:
        union = split(dom.vertices, dom.labels, cut, side)
    except DegenerateCutError as exc:
        return str(exc)
    return None if union is None else (union[0].shape, union[0].tobytes(), union[1])


def assert_splits_match(dom, cuts) -> Counter:
    """Compare both sides of every cut: the same union, or a refusal where
    the reference raises.  Returns the count of each reference error text."""
    errors = Counter()
    for cut in cuts:
        for side in (1, -1):
            ref = split_outcome(reference_reflected_half, dom, cut, side)
            new = split_outcome(reflected_half, dom, cut, side)
            if isinstance(ref, str):
                assert new is None
                errors[ref] += 1
            else:
                assert new == ref
    return errors


def test_split_matches_reference_on_random_domains():
    rng = np.random.default_rng(2025)
    thetas = [(k * GOLDEN_ANGLE) % math.pi for k in range(1, 6)]
    errors = Counter()
    for _ in range(200):
        dom = domains.random_concave_domain(rng)
        errors += assert_splits_match(dom, [nudged(dom, equal_volume_cut(dom, t)) for t in thetas])
    assert any(e.startswith("kept half has ") and not e.endswith(" 0 components") for e in errors)
    assert any(e.startswith("kept half meets the cut in ") and " 0 " not in e for e in errors)


@pytest.mark.parametrize("name", domains.BUILTIN_NAMES)
def test_split_matches_reference_on_builtins(name):
    # annuli: the split takes the outer loop alone
    dom = domains.builtin_domain(name)
    thetas = [0.0, math.pi / 4.0, math.pi / 2.0] + [(k * GOLDEN_ANGLE) % math.pi for k in range(1, 6)]
    cuts = [nudged(dom, equal_volume_cut(dom, t)) for t in thetas]
    # lines missing the polygon: nothing or everything is kept
    errors = assert_splits_match(dom, cuts + [CutLine(0.3, 10.0), CutLine(2.0, -10.0)])
    assert errors["kept half has 0 components"] == 2
    assert errors["kept half meets the cut in 0 chords"] == 2


def test_split_matches_reference_on_multichord_domain():
    # U-shaped domain: above the horizontal equal cut (y = 1.25) lie the two
    # prongs, below it one part meeting the line in two chords
    pts = [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]
    dom = LabeledDomain(pts, [FIXED, FIXED, FIXED, FREE, FREE, FREE, FIXED, FIXED])
    errors = assert_splits_match(dom, [equal_volume_cut(dom, 0.0)])
    assert errors == {"kept half has 2 components": 1, "kept half meets the cut in 2 chords": 1}


@pytest.mark.parametrize("dom, theta, case", [
    # the 2 x 1 rectangle with a vertex mid-bottom and mid-top, cut at
    # x = 1: the kept half's union has a ratio one ulp above the input's,
    # so the step refuses it, and its other candidate cuts too
    (LabeledDomain([(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)],
                   [FREE, FREE, FIXED, FIXED, FIXED, FIXED]), math.pi / 2.0, "inadmissible"),
    (domains.half_disk(), math.pi / 2.0, "reflected"),  # through the arc's apex
])
def test_split_matches_reference_on_nudged_vertex_cut(dom, theta, case):
    moved = nudged(dom, equal_volume_cut(dom, theta))
    assert moved != equal_volume_cut(dom, theta)
    assert not assert_splits_match(dom, [moved])
    unions = [LabeledDomain(*reference_reflected_half(dom.vertices, dom.labels, moved, side))
              for side in (1, -1)]
    res = symmetrization_step(dom, theta)
    assert res.case == case
    if case == "inadmissible":
        assert res.domain is dom
        kept = _reflected_union(dom, moved, moved.signed_distance(dom.vertices))
        assert isoperimetric_report(kept).ratio > res.ratio_before
        return
    # the whole step reflects one of the two reference unions
    assert res.cut == moved
    assert any(res.domain.vertices.tobytes() == u.vertices.tobytes()
               and res.domain.labels == u.labels for u in unions)


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

def reference_chain_between(loop, s_from, s_to, cum):
    """Vertices of the loop strictly between two boundary coordinates,
    walking in loop order and wrapping around if needed."""
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


def reference_carve_bite(poly, bite):
    hits = reference_loop_intersections(poly, bite)
    if len(hits) != 2:
        return None
    cum_p, cum_b = reference_cumulative(poly), reference_cumulative(bite)
    h0, h1 = sorted(hits, key=lambda h: h["s_poly"])
    chain_01 = reference_chain_between(poly, h0["s_poly"], h1["s_poly"], cum_p)
    chain_10 = reference_chain_between(poly, h1["s_poly"], h0["s_poly"], cum_p)

    def probe(chain, p_start, p_end):
        return chain[len(chain) // 2] if chain else 0.5 * (p_start + p_end)

    if not reference_point_in_convex(bite, probe(chain_01, h0["point"], h1["point"])):
        kept, start, end = chain_01, h0, h1
    elif not reference_point_in_convex(bite, probe(chain_10, h1["point"], h0["point"])):
        kept, start, end = chain_10, h1, h0
    else:
        return None
    fwd = reference_chain_between(bite, end["s_bite"], start["s_bite"], cum_b)
    rev = reference_chain_between(bite, start["s_bite"], end["s_bite"], cum_b)

    def inside_all(chain):
        return all(reference_point_in_convex(poly, q) for q in chain)

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
    if not 0.0 < dom.area < abs(reference_signed_area(poly)):
        return None
    return dom


def reference_chord_cap(rng):
    """The cap cut off by a BLAS ``@`` side-of-line test, numbered from
    vertex 0 of the polygon."""
    poly = domains._random_convex_polygon(rng, rng.integers(8, 16))
    m = len(poly)
    theta = rng.uniform(0.0, math.pi)
    proj = poly @ np.array([-math.sin(theta), math.cos(theta)])
    lo, hi = proj.min(), proj.max()
    d = proj - (lo + rng.uniform(0.25, 0.6) * (hi - lo))
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
            verts.append(poly[i] + t * (poly[j] - poly[i]))
            labels.append(FREE if d[i] >= 0 else FIXED)
    if labels.count(FREE) != 1:
        return None
    try:
        return LabeledDomain(verts, labels)
    except DomainValidationError:
        return None


def reference_random_concave_domain(rng, log):
    """The generator on the reference helpers, rotating by a BLAS ``@``;
    ``log`` gets (builder, accepted) for each chord cap and bite drawn."""
    for _ in range(60):
        mode = rng.uniform()
        if mode < 0.18:
            dom = domains.half_disk(radius=1.0, segments=24)
        elif mode < 0.45:
            dom = reference_chord_cap(rng)
            log.append(("_random_chord_cap", dom is not None))
        else:
            dom = reference_carve_bite(*next(_bite_cases(rng, 1)))
            log.append(("_random_bite_domain", dom is not None))
        if dom is None:
            continue
        scale = rng.uniform(0.5, 2.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        shift = rng.uniform(-1.0, 1.0, 2)
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        try:
            return LabeledDomain((dom.vertices @ rot.T) * scale + shift, list(dom.labels))
        except DomainValidationError:
            continue
    raise RuntimeError("random domain generation failed repeatedly")


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


def _point_on(loop, edge, t):
    return loop[edge] + t * (loop[(edge + 1) % len(loop)] - loop[edge])


def test_loop_crossings_match_reference():
    # the same crossings in the same order along the polygon, each the same
    # point on both loops and at the same boundary coordinates
    rng = np.random.default_rng(7)
    total = 0
    for poly, bite in _bite_cases(rng, 150):
        ref = sorted(reference_loop_intersections(poly, bite), key=lambda h: h["s_poly"])
        new = _loop_crossings(poly, bite)
        assert len(new) == len(ref)
        cum_p, cum_b = reference_cumulative(poly), reference_cumulative(bite)
        tol = 1e-14 * cum_p[-1]
        for ((i, t), (j, u)), h in zip(new, ref):
            assert 0.0 < t < 1.0 and 0.0 < u < 1.0
            assert abs(cum_p[i] + t * (cum_p[i + 1] - cum_p[i]) - h["s_poly"]) <= tol
            assert abs(cum_b[j] + u * (cum_b[j + 1] - cum_b[j]) - h["s_bite"]) <= tol
            assert np.abs(_point_on(poly, i, t) - h["point"]).max() <= tol
            assert np.abs(_point_on(bite, j, u) - h["point"]).max() <= tol
        total += len(ref)
    assert total >= 250


def test_carve_bite_refuses_square_cases_without_warnings():
    # a bite along an edge (collinear overlap: no crossing parameter), one
    # inside the square and one apart; the reference finds no crossing in
    # any of them
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _loop_crossings(square, square + [0.5, 0.0]) is None
        for bite in (square + [0.5, 0.0], square * 0.25 + 0.3, square + 5.0):
            assert reference_loop_intersections(square, bite) == []
            assert _carve_bite(square, bite) is None


def _cyclic_shift(labels, ref_labels):
    """The shift s with ``ref_labels[s:] + ref_labels[:s] == labels``."""
    m = len(ref_labels)
    return next(s for s in range(m) if ref_labels[s:] + ref_labels[:s] == labels)


@pytest.mark.parametrize("seed", range(10))
def test_generated_domains_match_reference_generator(seed, monkeypatch):
    # the same accept/reject decision for every chord cap and bite, the same
    # draws, and the same domains: labels up to a cyclic shift (a chord cap
    # starts at its entering crossing) and vertices to 1e-14 of the scale
    # (the crossing parameters and the rotation round differently)
    log = []

    def logged(name):
        build = getattr(domains, name)

        def wrapper(rng):
            dom = build(rng)
            log.append((name, dom is not None))
            return dom
        return wrapper

    for name in ("_random_chord_cap", "_random_bite_domain"):
        monkeypatch.setattr(domains, name, logged(name))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref_log = []
    for _ in range(200):
        dom = domains.random_concave_domain(rng)
        ref = reference_random_concave_domain(ref_rng, ref_log)
        assert log == ref_log
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert len(dom.labels) == len(ref.labels)
        shift = _cyclic_shift(list(dom.labels), list(ref.labels))
        aligned = np.roll(ref.vertices, -shift, axis=0)
        assert np.abs(dom.vertices - aligned).max() <= 1e-14 * ref.diameter
    assert any(not accepted for _, accepted in log)


def reference_points_in_polygon(points, poly):
    """Even-odd ray casting, one edge at a time, with no band skip."""
    px, py = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    m = len(poly)
    for k in range(m):
        (x1, y1), (x2, y2) = poly[k], poly[(k + 1) % m]
        cond = (y1 > py) != (y2 > py)
        if not cond.any():
            continue
        xi = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        inside ^= cond & (px < xi)
    return inside


def test_points_in_polygon_matches_per_edge_loop():
    rng = np.random.default_rng(9)
    polys = [domains.l_shape().vertices, domains.unit_square().vertices,  # horizontal edges
             domains.half_disk().vertices, domains.builtin_domain("annulus").holes[0]]
    polys += [poly for pair in _bite_cases(rng, 3) for poly in pair]
    polys += [domains.random_concave_domain(rng).vertices for _ in range(4)]
    for poly in polys:
        lo, hi = poly.min(axis=0) - 0.1, poly.max(axis=0) + 0.1
        for n in (0, 1, 2, 3, 17, 5000):
            pts = rng.uniform(lo, hi, (n, 2))
            # points at the vertices' ordinates, on the vertices and on edges
            k = min(n, len(poly))
            pts[:k, 1] = poly[:k, 1]
            pts[k:2 * k] = poly[:len(pts[k:2 * k])]
            mid = 0.5 * (poly + np.roll(poly, -1, axis=0))
            pts[2 * k:3 * k] = mid[:len(pts[2 * k:3 * k])]
            assert np.array_equal(_points_in_polygon(pts, poly), reference_points_in_polygon(pts, poly))
    # the concavity check's probe sets: the chords' quarter points and
    # midpoints, many on the free chain and many sharing an ordinate
    for dom in [domains.half_disk(), domains.square_annulus(free_inner=True),
                *(domains.random_concave_domain(rng) for _ in range(6))]:
        chain = dom.free_chain_points(64)
        ii, jj = np.triu_indices(len(chain), k=1)
        a, b = chain[ii], chain[jj]
        probes = np.concatenate([a + f * (b - a) for f in (0.25, 0.5, 0.75)])
        for poly in (dom.vertices, *dom.holes):
            assert np.array_equal(_points_in_polygon(probes, poly),
                                  reference_points_in_polygon(probes, poly))
    # a NaN ordinate sorts last and lies in no edge's band
    pts = np.array([[0.5, np.nan], [0.5, 0.5], [np.nan, 0.5], [0.5, np.inf], [0.5, -np.inf]])
    poly = domains.unit_square().vertices
    assert _points_in_polygon(pts, poly).tolist() == [False, True, False, False, False]
    with np.errstate(invalid="ignore"):  # the reference's inf * 0
        assert np.array_equal(_points_in_polygon(pts, poly), reference_points_in_polygon(pts, poly))
