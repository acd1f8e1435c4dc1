import json
import math

import numpy as np
import pytest

from freebdry import domains, geometry
from freebdry.errors import DomainValidationError, PreconditionError
from freebdry.geometry import (
    FIXED,
    FREE,
    GOLDEN_ANGLE,
    CutLine,
    LabeledDomain,
    _check_crossings,
    _next,
    equal_volume_cut,
    is_concave_free_boundary,
    isoperimetric_report,
    symmetrization_step,
    symmetrize_iterate,
)
from freebdry.quotients import CounterexampleSpec, counterexample_domain
from tests.test_cli import _sector_json
from tests.test_concavity_reference import arc_domain
from tests.test_cut_reference import reference_area_above


# -- construction and validation -----------------------------------------

def test_orientation_normalized_with_labels():
    # clockwise input gets flipped; labels must follow their edges
    pts = [(0, 0), (0, 1), (1, 1), (1, 0)]  # clockwise
    labels = [FIXED, FIXED, FIXED, FREE]    # edge (1,0)->(0,0) free (bottom)
    dom = LabeledDomain(pts, labels)
    assert dom.area == pytest.approx(1.0)
    assert dom.free_length == pytest.approx(1.0)
    # the free edge should still be the bottom one
    for k, lab in enumerate(dom.labels):
        a = dom.vertices[k]
        b = dom.vertices[(k + 1) % 4]
        if lab == FREE:
            assert a[1] == pytest.approx(0.0) and b[1] == pytest.approx(0.0)


def test_self_intersecting_polygon_rejected():
    bowtie = [(0, 0), (1, 1), (1, 0), (0, 1)]
    with pytest.raises(DomainValidationError):
        LabeledDomain(bowtie, [FIXED] * 4)


def _check_simple(pts, scale):
    """The crossing pass over one loop's edges."""
    _check_crossings(pts, _next(pts), np.zeros(len(pts), dtype=int), scale)


def _reference_check_simple(pts, scale):
    """The pairwise loop the vectorized simplicity check replaced, with
    adjacent edges tested too."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def cross(a, b, c, d, eps):
        o1, o2 = orient(a, b, c), orient(a, b, d)
        o3, o4 = orient(c, d, a), orient(c, d, b)
        if (o1 > eps and o2 < -eps or o1 < -eps and o2 > eps) and (
            o3 > eps and o4 < -eps or o3 < -eps and o4 > eps
        ):
            return True
        if max(abs(o1), abs(o2), abs(o3), abs(o4)) <= eps:
            lox = max(min(a[0], b[0]), min(c[0], d[0]))
            hix = min(max(a[0], b[0]), max(c[0], d[0]))
            loy = max(min(a[1], b[1]), min(c[1], d[1]))
            hiy = min(max(a[1], b[1]), max(c[1], d[1]))
            seps = math.sqrt(eps)
            return hix - lox > seps or hiy - loy > seps
        return False

    m = len(pts)
    eps = 1e-12 * scale * scale
    for i in range(m):
        a, b = pts[i], pts[(i + 1) % m]
        for j in range(i + 1, m):
            if cross(a, b, pts[j], pts[(j + 1) % m], eps):
                raise DomainValidationError(
                    f"polygon is not simple: edges {i} and {j} intersect"
                )


def _simplicity_verdict(check, pts):
    try:
        check(pts, float(np.max(np.ptp(pts, axis=0))))
    except DomainValidationError as exc:
        return str(exc)
    return None


def test_vectorized_simplicity_check_matches_loop():
    rng = np.random.default_rng(77)
    slot = np.array([(0, 0), (3, 0), (3, 2), (2, 2), (2, 0), (1, 0), (1, 2), (0, 2)], float)
    polygons = [
        slot,           # a slot whose floor retraces the bottom edge
        slot[::-1, ::-1],   # the same overlap on a vertical edge
        # the last edge folds back along edge 0, its neighbour
        np.array([(3, 0), (0, 0), (0, 2), (1, 2), (1, 0)], float),
        np.array([(0, 0), (1, 1), (1, 0), (0, 1)], float),   # bow tie
        domains.disk(segments=128).vertices,
    ]
    for m in (3, 5, 12, 40, 150):
        ang = np.sort(rng.uniform(0, 2 * np.pi, m))
        r = rng.uniform(0.5, 1.5, m)
        star = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        polygons += [star, star[rng.permutation(m)]]      # simple, then scrambled
        polygons.append(rng.integers(0, 4, size=(m, 2)).astype(float))  # lattice
        polygons.append(rng.integers(0, 4, size=(m, 2)) + rng.normal(0, 1e-7, (m, 2)))
    verdicts = []
    for pts in polygons:
        got = _simplicity_verdict(_check_simple, pts)
        assert got == _simplicity_verdict(_reference_check_simple, pts)
        verdicts.append(got)
    assert verdicts[0] == "polygon is not simple: edges 0 and 4 intersect"
    assert verdicts[1] == "polygon is not simple: edges 2 and 6 intersect"
    assert verdicts[2] == "polygon is not simple: edges 0 and 4 intersect"
    assert verdicts.count(None) >= 6
    assert sum(v is not None for v in verdicts) >= 12


def test_simplicity_check_in_blocks_reports_first_pair(monkeypatch):
    # a 60-gon with two crossings, checked a few edge rows at a time
    t = np.linspace(0, 2 * np.pi, 60, endpoint=False)
    pts = np.column_stack([np.cos(t), np.sin(t)])
    pts[[10, 11]] = pts[[11, 10]]
    pts[[40, 41]] = pts[[41, 40]]
    want = _simplicity_verdict(_reference_check_simple, pts)
    assert want == "polygon is not simple: edges 9 and 11 intersect"
    monkeypatch.setattr(geometry, "_EDGE_PAIR_BLOCK", 3 * 60)
    assert _simplicity_verdict(_check_simple, pts) == want


def test_degenerate_polygon_rejected():
    with pytest.raises(DomainValidationError):
        LabeledDomain([(0, 0), (1, 0), (2, 0)], [FIXED] * 3)


def test_hole_outside_rejected():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    hole = [(2, 2), (3, 2), (3, 3), (2, 3)]
    with pytest.raises(DomainValidationError):
        LabeledDomain(pts, [FIXED] * 4, holes=[hole])


_HOLE = [(1, 1), (2, 1), (2, 2), (1, 2)]
_SMALL_HOLE = [(3, 3), (3.5, 3), (3.5, 3.5), (3, 3.5)]


@pytest.mark.parametrize("holes, hole_labels", [
    ([_HOLE], []),
    ([_HOLE, _SMALL_HOLE], [None]),
    ([_HOLE], [None, None]),
], ids=["too-few", "one-short", "too-many"])
def test_hole_labels_count_must_match_holes(holes, hole_labels):
    # a hole without a labels entry used to be dropped without a word
    with pytest.raises(DomainValidationError, match="one entry per hole"):
        LabeledDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [FIXED] * 4,
                      holes=holes, hole_labels=hole_labels)


def test_hole_labels_none_means_all_fixed():
    square = [(0, 0), (4, 0), (4, 4), (0, 4)]
    for hole_labels in (None, [None, None], [[FIXED] * 4, None]):
        dom = LabeledDomain(square, [FIXED] * 4, holes=[_HOLE, _SMALL_HOLE],
                            hole_labels=hole_labels)
        assert dom.area == pytest.approx(16.0 - 1.0 - 0.25)
        assert dom.hole_labels == ((FIXED,) * 4,) * 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_vertex_rejected(bad):
    with pytest.raises(DomainValidationError, match="finite"):
        LabeledDomain([(0, 0), (1, 0), (bad, 1)], [FIXED] * 3)
    with pytest.raises(DomainValidationError, match="finite"):
        LabeledDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [FIXED] * 4,
                      holes=[[(1, 1), (2, 1), (2, bad)]])


# the free chain's edge-table rows, in chain order

def test_free_chain_wrapping_past_vertex_0_starts_after_the_fixed_edges():
    # numbered from its tip, the sector's free chain is its last edge, from
    # the arc's end to the tip, then edge 0, from the tip to the arc
    dom = LabeledDomain.from_json_dict(json.loads(_sector_json(1.5 * math.pi, 64, tip_first=True)))
    m = len(dom.vertices)
    assert dom._free_chain.tolist() == [m - 1, 0]
    # so the chain's midpoint, the bubble centre, is the tip
    assert np.array_equal(dom.free_chain_points(3), [dom.vertices[m - 1], [0.0, 0.0], [1.0, 0.0]])


def test_free_chain_of_an_all_free_hole_is_its_rows_in_order():
    assert domains.square_annulus(free_inner=True)._free_chain.tolist() == [4, 5, 6, 7]


def test_free_chain_wrapping_on_a_hole():
    dom = LabeledDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [FIXED] * 4, holes=[_HOLE],
                        hole_labels=[[FREE, FIXED, FIXED, FREE]])
    assert dom._free_chain.tolist() == [7, 4]


def test_free_chain_of_an_all_fixed_domain_is_empty():
    chain = domains.unit_square()._free_chain
    assert chain.dtype == np.intp and chain.shape == (0,)


@pytest.mark.parametrize("labels, hole_labels", [
    ([FREE, FIXED, FREE, FIXED], None),
    ([FREE, FIXED, FIXED, FIXED], [[FREE, FIXED, FIXED, FIXED], None]),
    ([FIXED] * 4, [[FREE] * 4, [FREE] * 4]),
], ids=["two-runs-on-one-loop", "outer-loop-and-hole", "two-all-free-holes"])
def test_disconnected_free_chain_rejected(labels, hole_labels):
    with pytest.raises(DomainValidationError,
                       match="^free edges must form one connected boundary chain$"):
        LabeledDomain([(0, 0), (4, 0), (4, 4), (0, 4)], labels, holes=[_HOLE, _SMALL_HOLE],
                      hole_labels=hole_labels)


def test_free_chain_is_read_only():
    chain = domains.half_disk()._free_chain
    assert chain.tolist() == [64]
    with pytest.raises(ValueError, match="read-only"):
        chain[0] = 0


# -- area and lengths -------------------------------------------------------

def test_area_unit_square(square_domain):
    assert square_domain.area == pytest.approx(1.0)


def test_area_half_disk(half_disk_domain):
    assert half_disk_domain.area == pytest.approx(math.pi / 2.0, rel=2e-3)


def test_area_square_with_hole():
    dom = domains.square_annulus()
    assert dom.area == pytest.approx(3.0)


def test_boundary_lengths_square(square_free_bottom):
    assert square_free_bottom.boundary_length(FIXED) == pytest.approx(3.0)
    assert square_free_bottom.boundary_length(FREE) == pytest.approx(1.0)
    assert square_free_bottom.boundary_length() == pytest.approx(4.0)


def test_boundary_lengths_half_disk(half_disk_domain):
    assert half_disk_domain.boundary_length(FIXED) == pytest.approx(math.pi, rel=2e-3)
    assert half_disk_domain.boundary_length(FREE) == pytest.approx(2.0)


def test_boundary_lengths_circle(disk_domain):
    assert disk_domain.boundary_length(FIXED) == pytest.approx(2.0 * math.pi, rel=2e-3)
    assert disk_domain.boundary_length(FREE) == 0.0


# -- concavity -------------------------------------------------------------

def test_concave_half_disk(half_disk_domain):
    rep = is_concave_free_boundary(half_disk_domain)
    assert rep.concave and not rep.vacuous and rep.overlap == 0.0


@pytest.mark.parametrize("a", [3.0, 5.0])
def test_concave_parabola_fails(a):
    # the hull of the free chain is the region between the sampled parabola
    # and its chord, all of it inside the domain: the overlap is the
    # polyline's shoelace area
    dom = counterexample_domain(CounterexampleSpec(a=a))
    rep = is_concave_free_boundary(dom)
    assert not rep.concave
    parabola = abs(geometry._signed_area(dom.vertices[:65]))
    assert parabola == pytest.approx(1.3330078125, rel=1e-12)
    assert rep.overlap == pytest.approx(parabola, rel=1e-9)


def test_concave_annulus_free_inner():
    # a closed free chain: the hull is the hole, whose area the outer loop's
    # clip adds and the hole's own clip takes off again
    dom = domains.square_annulus(free_inner=True)
    rep = is_concave_free_boundary(dom)
    assert rep.concave and not rep.vacuous
    assert abs(rep.overlap) <= 1e-15


def test_concave_vacuous(square_domain):
    rep = is_concave_free_boundary(square_domain)
    assert rep.concave and rep.vacuous


def test_concave_bulge_away_from_domain_fails():
    # free chain bulging outward: the chord between its endpoints crosses
    # the bump's interior, which belongs to the domain
    pts = [(0, 0), (0.5, -0.4), (1, 0), (1, 1), (0, 1)]
    dom = LabeledDomain(pts, [FREE, FREE, FIXED, FIXED, FIXED])
    assert not is_concave_free_boundary(dom).concave


@pytest.mark.parametrize("x, width", [(7.913, 3e-3), (3.37, 3e-4)])
def test_concave_narrow_dent_fails(x, width):
    # the free bottom of [0, 10]^2 dented inward, as wide as deep: the chord
    # from the dent's tip to the corner (0, 0) runs through the interior.
    # The hull is the triangle (0, 0), (10, 0), (x, width), and the domain
    # fills it but for the dent
    pts = [(0, 0), (x - width / 2, 0), (x, width), (x + width / 2, 0), (10, 0), (10, 10), (0, 10)]
    dom = LabeledDomain(pts, [FREE] * 4 + [FIXED] * 3)
    assert dom.contains([(x / 2, width / 2)])[0]
    rep = is_concave_free_boundary(dom)
    assert not rep.concave
    assert rep.overlap == pytest.approx(5.0 * width - width * width / 2.0, rel=1e-9)


def test_concave_long_arc_clips_a_vertex_a_bounded_number_of_times(monkeypatch):
    # a hull edge's pass visits every vertex still kept; halving the hull
    # first keeps the count per vertex near _CLIP_SPLIT + 2 log2(h / 16),
    # where clipping by all h = 4,097 hull edges in turn would make it h
    visited = []
    clip = geometry._clip_half

    def counted(poly, a, b):
        visited.append(len(poly))
        return clip(poly, a, b)

    monkeypatch.setattr(geometry, "_clip_half", counted)
    dom = arc_domain(4096)
    rep = is_concave_free_boundary(dom)
    assert rep.concave and abs(rep.overlap) <= 1e-12 * dom.diameter ** 2
    assert sum(visited) < 64 * len(dom.vertices)


# -- isoperimetric report ------------------------------------------------------

def test_report_half_disk_attains_bound(half_disk_domain):
    rep = isoperimetric_report(half_disk_domain)
    assert rep.bound == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)
    assert rep.ratio == pytest.approx(rep.bound, rel=5e-3)
    assert rep.margin == pytest.approx(rep.ratio - rep.bound)


def test_report_square_bottom_free(square_free_bottom):
    rep = isoperimetric_report(square_free_bottom)
    assert rep.ratio == pytest.approx(3.0)
    assert rep.margin == pytest.approx(3.0 - math.sqrt(2.0 * math.pi))
    assert rep.margin > 0.0


def test_report_full_circle(disk_domain):
    rep = isoperimetric_report(disk_domain)
    assert rep.ratio == pytest.approx(2.0 * math.sqrt(math.pi), rel=5e-3)


# -- reflection ---------------------------------------------------------------

def reflect(dom, line):
    """The mirror image of a domain without holes; labels follow their edges."""
    return LabeledDomain(line.mirror(dom.vertices), dom.labels)


def test_reflect_half_disk_across_x_axis(half_disk_domain):
    line = CutLine(angle=0.0, offset=0.0)  # the x-axis
    mirrored = reflect(half_disk_domain, line)
    assert mirrored.area == pytest.approx(half_disk_domain.area, rel=1e-12)
    assert mirrored.vertices[:, 1].max() == pytest.approx(0.0, abs=1e-12)


def test_reflect_involution(half_disk_domain):
    line = CutLine(angle=0.3, offset=0.7)
    twice = reflect(reflect(half_disk_domain, line), line)
    got = np.array(sorted(map(tuple, np.round(twice.vertices, 9))))
    want = np.array(sorted(map(tuple, np.round(half_disk_domain.vertices, 9))))
    assert np.allclose(got, want, atol=1e-9)


def test_reflect_square_across_x_equals_zero(square_domain):
    line = CutLine(angle=math.pi / 2.0, offset=0.0)  # the y-axis
    mirrored = reflect(square_domain, line)
    x0, y0, x1, y1 = mirrored.bbox
    assert (x0, y0, x1, y1) == pytest.approx((-1.0, 0.0, 0.0, 1.0))


def test_reflect_preserves_label_lengths_randomized():
    rng = np.random.default_rng(11)
    for _ in range(10):
        dom = domains.random_concave_domain(rng)
        line = CutLine(angle=rng.uniform(0, math.pi), offset=rng.uniform(-1, 1))
        mirrored = reflect(dom, line)
        assert mirrored.area == pytest.approx(dom.area, rel=1e-12)
        assert mirrored.fixed_length == pytest.approx(dom.fixed_length, rel=1e-12)
        assert mirrored.free_length == pytest.approx(dom.free_length, rel=1e-12)


# -- equal-area cut ---------------------------------------------------------------

def areas_above(dom, angle, offsets):
    """Area of the domain above each line of direction ``angle`` and the
    given offset, by the numpy reference clip, not by the cut's own area
    table."""
    normal = CutLine(angle, 0.0).normal
    return np.array([reference_area_above(dom, normal, o) for o in offsets])


def test_equal_cut_square_vertical(square_domain):
    cut = equal_volume_cut(square_domain, math.pi / 2.0)
    # the cut line should pass through x = 0.5
    d = cut.signed_distance(np.array([[0.5, 0.3]]))[0]
    assert abs(d) <= 1e-9


def test_equal_cut_disk_through_center(disk_domain):
    for theta in (0.0, 0.4, 1.1, 2.7):
        cut = equal_volume_cut(disk_domain, theta)
        d = cut.signed_distance(np.array([[0.0, 0.0]]))[0]
        assert abs(d) <= 1e-6


def test_equal_cut_l_shape_against_area_sweep():
    dom = domains.l_shape()
    cut = equal_volume_cut(dom, math.pi / 2.0)
    # brute-force sweep oracle over 10^4 offsets spanning the projections
    proj = CutLine(cut.angle, 0.0).signed_distance(dom.vertices)
    offs = np.linspace(proj.min(), proj.max(), 10001)
    areas = areas_above(dom, cut.angle, offs)
    best = offs[np.argmin(np.abs(areas - dom.area / 2.0))]
    assert cut.offset == pytest.approx(best, abs=2e-4)
    # the vertical line x = 0.75 halves the L-shape exactly
    d = cut.signed_distance(np.array([[0.75, 0.5]]))[0]
    assert abs(d) <= 1e-9
    above = areas_above(dom, cut.angle, [cut.offset])[0]
    assert abs(above - dom.area / 2.0) <= 1e-9 * dom.area


def test_equal_cut_halves_balance_randomized():
    rng = np.random.default_rng(5)
    for _ in range(10):
        dom = domains.random_concave_domain(rng)
        theta = rng.uniform(0.0, math.pi)
        cut = equal_volume_cut(dom, theta)
        above = areas_above(dom, cut.angle, [cut.offset])[0]
        assert abs(above - dom.area / 2.0) <= 1e-13 * dom.area


@pytest.mark.parametrize("theta", [-0.3, 0.5, 0.5 + math.pi, 2.0])
def test_equal_cut_halves_the_area_above_the_returned_line(theta):
    # the returned line's angle is theta mod pi; the cut must use its
    # normal, not the one of the raw theta, which points the other way
    dom = domains.builtin_domain("trapezoid")
    cut = equal_volume_cut(dom, theta)
    above = areas_above(dom, cut.angle, [cut.offset])[0]
    assert abs(above - dom.area / 2.0) <= 1e-13 * dom.area


# -- symmetrization step -------------------------------------------------------------

def test_symmetrization_half_disk_fixed_point(half_disk_domain):
    res = symmetrization_step(half_disk_domain, math.pi / 2.0)
    assert res.case == "reflected"
    assert res.domain.area == pytest.approx(half_disk_domain.area, rel=1e-6)
    assert res.ratio_after <= res.ratio_before + 1e-9
    assert res.ratio_after == pytest.approx(res.ratio_before, rel=1e-6)


@pytest.mark.xfail(strict=True, reason="the vertex nudge moves the cut off the equal-area "
                                       "offset (ROADMAP item 12)")
def test_symmetrization_half_disk_axis_keeps_the_area(half_disk_domain):
    # the axis cut passes through the arc's midpoint vertex, so it is nudged
    # by 3.17e-9 diam; the union's area then reads 1.5701655643007058 for
    # 1.5701655784773765, -9.03e-9 relative
    res = symmetrization_step(half_disk_domain, math.pi / 2.0)
    assert res.case == "reflected"
    assert res.domain.area == pytest.approx(half_disk_domain.area, rel=1e-12, abs=0.0)


def test_symmetrization_square_tie(square_free_bottom):
    res = symmetrization_step(square_free_bottom, math.pi / 2.0)
    assert res.case == "reflected"
    assert res.domain.area == pytest.approx(1.0, rel=1e-9)
    assert res.ratio_after == pytest.approx(3.0, abs=1e-9)


def test_symmetrization_trapezoid_exact_oracle():
    # vertical equal cut of the trapezoid (0,0),(2,0),(2,1),(0,2):
    # height profile 2 - x/2, so the offset c solves 2c - c^2/4 = 3/2
    dom = domains.right_trapezoid()
    res = symmetrization_step(dom, math.pi / 2.0)
    c = 4.0 - math.sqrt(10.0)
    right_fixed = 1.0 + (2.0 - c) * math.sqrt(5.0) / 2.0  # right side + top part
    left_fixed = 2.0 + c * math.sqrt(5.0) / 2.0
    assert right_fixed < left_fixed  # right half is kept
    assert res.case == "reflected"
    assert res.domain.area == pytest.approx(3.0, rel=1e-6)
    assert res.domain.fixed_length == pytest.approx(2.0 * right_fixed, rel=1e-7)
    assert res.ratio_after <= res.ratio_before + 1e-9


def test_symmetrization_case2():
    # the unit square whose free edge is the bottom's first 0.05: the cuts,
    # all through the centre, at 0, 137.5, 95 and 52.5 degrees meet the
    # bottom at x = 0.5 - 0.5 cot(angle) only where that lies in [0, 1],
    # and there at 0.116 or more
    dom = LabeledDomain([(0, 0), (0.05, 0), (1, 0), (1, 1), (0, 1)], [FREE] + [FIXED] * 4)
    res = symmetrization_step(dom, 0.0)
    assert res.case == "case-2"
    assert res.domain is dom
    assert res.ratio_after == res.ratio_before
    assert res.cut == equal_volume_cut(dom, 0.0)


def test_symmetrization_multichord_is_inadmissible():
    # U-shaped domain with the notch boundary free: the horizontal equal cut
    # crosses the free chain in two chords, and no other candidate cut
    # leaves a union in the class; the domain is returned unchanged
    pts = [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]
    labels = [FIXED, FIXED, FIXED, FREE, FREE, FREE, FIXED, FIXED]
    dom = LabeledDomain(pts, labels)
    res = symmetrization_step(dom, 0.0)
    assert res.case == "inadmissible"
    assert res.domain is dom and res.ratio_after == res.ratio_before


@pytest.mark.parametrize("theta", [math.pi / 2.0] + [(k * GOLDEN_ANGLE) % math.pi
                                                     for k in range(1, 6)])
def test_symmetrization_half_disk_is_a_fixed_point(half_disk_domain, theta):
    # at pi/2 the cut is the axis and the union the half disk again, up to
    # the nudge; every other cut leaves a convex free corner and is refused
    res = symmetrization_step(half_disk_domain, theta)
    assert res.case == ("reflected" if theta == math.pi / 2.0 else "inadmissible")
    assert res.ratio_after == pytest.approx(res.ratio_before, rel=1e-12, abs=0.0)
    assert res.domain.area == pytest.approx(half_disk_domain.area, rel=1e-7)
    assert is_concave_free_boundary(res.domain).concave


def test_corner_test_refuses_only_unions_that_leave_the_class():
    # every candidate cut of 5-step runs that the corner test refuses would
    # give a valid union whose free chain is not concave
    refused = 0
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            current = domains.random_concave_domain(rng)
            for step in range(1, 6):
                theta = (step * GOLDEN_ANGLE) % math.pi
                for k in range(geometry._CUT_TRIES):
                    cut = equal_volume_cut(current, theta + k * GOLDEN_ANGLE)
                    d = cut.signed_distance(current.vertices)
                    if np.min(np.abs(d)) < 1e-11 * current.diameter:
                        continue
                    above, below = geometry._fixed_length_split(current, d)
                    half = geometry._reflected_half(current.vertices, current.labels, cut,
                                                    d if above <= below else -d)
                    if half is None or geometry._reflected_union(current, cut, d) is not None:
                        continue
                    try:
                        union = LabeledDomain(*half)
                    except DomainValidationError:
                        continue
                    assert not is_concave_free_boundary(union).concave
                    refused += 1
                result = symmetrization_step(current, theta)
                if result.case == "inadmissible":
                    break
                current = result.domain
    assert refused >= 50


def test_symmetrization_rejects_holes():
    # a domain with holes is outside the step's class, not a degenerate cut
    # that the iteration may skip
    dom = domains.square_annulus(free_inner=True)
    with pytest.raises(PreconditionError, match="holes"):
        symmetrization_step(dom, 0.3)
    with pytest.raises(PreconditionError, match="holes"):
        symmetrize_iterate(dom, steps=3)


def test_symmetrize_iterate_monotone():
    rng = np.random.default_rng(23)
    for _ in range(3):
        dom = domains.random_concave_domain(rng)
        final, trace = symmetrize_iterate(dom, steps=25)
        ratios = [t["ratio"] for t in trace]
        ratios.append(isoperimetric_report(final).ratio)
        assert all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))
        areas = [t["area"] for t in trace]
        assert all(abs(a / areas[0] - 1.0) <= 1e-5 for a in areas)


# -- serialization --------------------------------------------------------------

def test_json_round_trip(tmp_path, half_disk_domain):
    path = tmp_path / "dom.json"
    half_disk_domain.save_json(path)
    back = LabeledDomain.load_json(path)
    assert np.allclose(back.vertices, half_disk_domain.vertices)
    assert back.labels == half_disk_domain.labels


def test_json_deterministic(tmp_path, square_free_bottom):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    square_free_bottom.save_json(p1)
    square_free_bottom.save_json(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_json_hole_labels_round_trip(tmp_path):
    dom = domains.square_annulus(free_inner=True)
    path = tmp_path / "ann.json"
    dom.save_json(path)
    back = LabeledDomain.load_json(path)
    assert back.free_length == pytest.approx(dom.free_length)


# -- random generator sanity -------------------------------------------------------

def test_random_domains_valid_and_concave():
    rng = np.random.default_rng(77)
    for _ in range(25):
        dom = domains.random_concave_domain(rng)
        assert dom.area > 0.0
        assert dom.free_length > 0.0
        assert is_concave_free_boundary(dom).concave


# -- verdicts far from the origin ------------------------------------------------------

def _polygon_verdicts(dom):
    """The concavity verdict, the cases of a 5-step symmetrize (None for a
    domain with holes, which the step refuses), and the area, isoperimetric
    ratio and symmetrize ratios."""
    numbers = [dom.area, isoperimetric_report(dom).ratio]
    cases = None
    if not dom.holes:
        _, trace = symmetrize_iterate(dom, steps=5)
        cases = [t["case"] for t in trace]
        numbers += [t["ratio"] for t in trace] + [t["ratio_after"] for t in trace]
    return is_concave_free_boundary(dom).concave, cases, numbers


def _shifted_far(dom, diameters):
    s = diameters * dom.diameter
    return dom.transformed(shift=(s, 0.7 * s))


def _verdict_domains():
    """The builtins and 20 domains generated from seed 3."""
    rng = np.random.default_rng(3)
    doms = [domains.builtin_domain(name) for name in domains.BUILTIN_NAMES]
    return doms + [domains.random_concave_domain(rng) for _ in range(20)]


# 1e4 and 1e6 diameters: by 1e8, transformed rounds each vertex by about
# 1.5e-8 of the diameter and builds another polygon
@pytest.mark.parametrize("diameters", [1e4, 1e6])
def test_polygon_verdicts_do_not_depend_on_where_the_domain_sits(diameters):
    # areas and concavity clips taken relative to a vertex agree to 1e-9
    # (3.3e-10 measured at 1e6); on absolute coordinates areas were 1.0e-3
    # off at 1e6, and clipped on them three of these concavity verdicts flip
    for dom in _verdict_domains():
        concave, cases, numbers = _polygon_verdicts(dom)
        far_concave, far_cases, far_numbers = _polygon_verdicts(_shifted_far(dom, diameters))
        assert (far_concave, far_cases) == (concave, cases)
        np.testing.assert_allclose(far_numbers, numbers, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1e4, 1e8])
def test_polygon_verdicts_do_not_depend_on_scale_or_rotation(scale):
    # the isoperimetric ratio and area / scale^2 agree to 1e-12 (1.4e-15
    # measured); the symmetrize cases are not compared, as its cut angles
    # do not turn with the domain
    for dom in _verdict_domains():
        concave = is_concave_free_boundary(dom).concave
        numbers = [dom.area, isoperimetric_report(dom).ratio]
        for angle in (0.0, 0.1, 0.7, 2.3):
            moved = dom.transformed(scale=scale, angle=angle)
            assert is_concave_free_boundary(moved).concave == concave
            np.testing.assert_allclose([moved.area / scale**2, isoperimetric_report(moved).ratio],
                                       numbers, rtol=1e-12, atol=0.0)


@pytest.mark.xfail(strict=True, reason="a re-cut on the symmetry axis of the last reflection "
                                       "is decided by rounding")
def test_symmetrize_recut_on_the_axis_does_not_depend_on_where_the_domain_sits():
    # step 1 reflects at the angle step 2 tries first, so step 2 cuts the
    # union on its own axis.  Here the axis vertices sit within the 1e-11
    # diam nudge threshold of the cut, and the nudged reflection raises the
    # ratio by 1e-9 ("inadmissible"); 1e6 diameters away they sit 6e-11 diam
    # off, no nudge is made and the no-op reflection lowers it ("reflected")
    rng = np.random.default_rng(2)
    dom = [domains.random_concave_domain(rng) for _ in range(11)][-1]
    _, cases, _ = _polygon_verdicts(dom)
    _, far_cases, _ = _polygon_verdicts(_shifted_far(dom, 1e6))
    assert far_cases == cases
