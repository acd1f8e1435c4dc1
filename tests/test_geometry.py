import math

import numpy as np
import pytest

from freebdry import domains, geometry
from freebdry.errors import DegenerateCutError, DomainValidationError
from freebdry.geometry import (
    FIXED,
    FREE,
    CutLine,
    LabeledDomain,
    _check_simple,
    area,
    boundary_length,
    equal_volume_cut,
    is_concave_free_boundary,
    isoperimetric_report,
    reflect,
    symmetrization_step,
    symmetrize_iterate,
)
from freebdry.quotients import CounterexampleSpec, counterexample_domain


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


def _reference_check_simple(pts, scale):
    """The pairwise loop the vectorized simplicity check replaced."""

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
            if j == i or (j + 1) % m == i or (i + 1) % m == j:
                continue
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
        # the last edge folds back along edge 0: adjacent, so not tested
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
    assert verdicts[2] is None
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


def test_disconnected_free_chain_rejected():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    with pytest.raises(DomainValidationError):
        LabeledDomain(pts, [FREE, FIXED, FREE, FIXED])


def test_hole_outside_rejected():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    hole = [(2, 2), (3, 2), (3, 3), (2, 3)]
    with pytest.raises(DomainValidationError):
        LabeledDomain(pts, [FIXED] * 4, holes=[hole])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_vertex_rejected(bad):
    with pytest.raises(DomainValidationError, match="finite"):
        LabeledDomain([(0, 0), (1, 0), (bad, 1)], [FIXED] * 3)
    with pytest.raises(DomainValidationError, match="finite"):
        LabeledDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [FIXED] * 4,
                      holes=[[(1, 1), (2, 1), (2, bad)]])


# -- area and lengths -------------------------------------------------------

def test_area_unit_square(square_domain):
    assert area(square_domain) == pytest.approx(1.0)


def test_area_half_disk(half_disk_domain):
    assert area(half_disk_domain) == pytest.approx(math.pi / 2.0, rel=2e-3)


def test_area_square_with_hole():
    dom = domains.square_with_square_hole(outer=1.0, inner=0.5)
    assert area(dom) == pytest.approx(0.75)


def test_boundary_lengths_square(square_free_bottom):
    assert boundary_length(square_free_bottom, FIXED) == pytest.approx(3.0)
    assert boundary_length(square_free_bottom, FREE) == pytest.approx(1.0)
    assert boundary_length(square_free_bottom) == pytest.approx(4.0)


def test_boundary_lengths_half_disk(half_disk_domain):
    assert boundary_length(half_disk_domain, FIXED) == pytest.approx(math.pi, rel=2e-3)
    assert boundary_length(half_disk_domain, FREE) == pytest.approx(2.0)


def test_boundary_lengths_circle(disk_domain):
    assert boundary_length(disk_domain, FIXED) == pytest.approx(2.0 * math.pi, rel=2e-3)
    assert boundary_length(disk_domain, FREE) == 0.0


# -- concavity -------------------------------------------------------------

def test_concave_half_disk(half_disk_domain):
    rep = is_concave_free_boundary(half_disk_domain)
    assert rep.concave and not rep.vacuous and rep.witness is None


def test_concave_parabola_fails():
    dom = counterexample_domain(CounterexampleSpec(a=3.0))
    rep = is_concave_free_boundary(dom)
    assert not rep.concave
    a, b, probe = rep.witness
    # the witness chord midpoint sits above the parabola, inside the region
    assert probe[1] > 3.0 * probe[0] ** 2
    assert dom.contains(np.array([probe]))[0]


def test_concave_annulus_free_inner():
    dom = domains.square_annulus(free_inner=True)
    rep = is_concave_free_boundary(dom)
    assert rep.concave and not rep.vacuous


def test_concave_vacuous(square_domain):
    rep = is_concave_free_boundary(square_domain)
    assert rep.concave and rep.vacuous


def test_concave_bulge_away_from_domain_fails():
    # free chain bulging outward: the chord between its endpoints crosses
    # the bump's interior, which belongs to the domain
    pts = [(0, 0), (0.5, -0.4), (1, 0), (1, 1), (0, 1)]
    dom = LabeledDomain(pts, [FREE, FREE, FIXED, FIXED, FIXED])
    assert not is_concave_free_boundary(dom).concave


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
    from freebdry.geometry import _area_above

    normal = cut.normal
    proj = dom.vertices @ normal
    offs = np.linspace(proj.min(), proj.max(), 10001)
    areas = np.array([_area_above(dom, normal, o) for o in offs])
    best = offs[np.argmin(np.abs(areas - dom.area / 2.0))]
    assert cut.offset == pytest.approx(best, abs=2e-4)
    # the vertical line x = 0.75 halves the L-shape exactly
    d = cut.signed_distance(np.array([[0.75, 0.5]]))[0]
    assert abs(d) <= 1e-9
    above = _area_above(dom, normal, cut.offset)
    assert abs(above - dom.area / 2.0) <= 1e-9 * dom.area


def test_equal_cut_halves_balance_randomized():
    from freebdry.geometry import _area_above

    rng = np.random.default_rng(5)
    for _ in range(10):
        dom = domains.random_concave_domain(rng)
        theta = rng.uniform(0.0, math.pi)
        cut = equal_volume_cut(dom, theta)
        above = _area_above(dom, cut.normal, cut.offset)
        assert abs(above - dom.area / 2.0) <= 1e-9 * dom.area


# -- symmetrization step -------------------------------------------------------------

def test_symmetrization_half_disk_fixed_point(half_disk_domain):
    res = symmetrization_step(half_disk_domain, math.pi / 2.0)
    assert res.case == "reflected"
    assert res.domain.area == pytest.approx(half_disk_domain.area, rel=1e-6)
    assert res.ratio_after <= res.ratio_before + 1e-9
    assert res.ratio_after == pytest.approx(res.ratio_before, rel=1e-6)


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


def test_symmetrization_case2(square_free_bottom):
    # horizontal cut: the free bottom edge is not met
    res = symmetrization_step(square_free_bottom, 0.0)
    assert res.case == "case-2"
    assert res.domain is square_free_bottom
    assert res.ratio_after == res.ratio_before


def test_symmetrization_multichord_degenerate():
    # U-shaped domain with the notch boundary free: the horizontal equal cut
    # crosses the free chain in two chords
    pts = [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]
    labels = [FIXED, FIXED, FIXED, FREE, FREE, FREE, FIXED, FIXED]
    dom = LabeledDomain(pts, labels)
    with pytest.raises(DegenerateCutError):
        symmetrization_step(dom, 0.0)


def test_symmetrization_rejects_holes():
    dom = domains.square_annulus(free_inner=True)
    with pytest.raises(DegenerateCutError):
        symmetrization_step(dom, 0.3)


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
