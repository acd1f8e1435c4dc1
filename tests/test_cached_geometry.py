"""Geometry that is computed once and kept on its domain or grid.

Each cached quantity must equal, bit for bit, the direct computation it
replaces, and the arrays it depends on must be read-only so it cannot go
stale.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from freebdry import domains
from freebdry.geometry import (
    FIXED,
    FREE,
    LabeledDomain,
    _exact_concavity,
    is_concave_free_boundary,
    rasterize,
)
from freebdry.quotients import counterexample_domain, CounterexampleSpec, talenti_bubble
from freebdry.rearrange import (
    ScalarField,
    decreasing_rearrangement,
    radial_rearrangement,
    random_admissible_field,
)
from tests.test_cut_reference import reference_signed_area

GENERATED = Path(__file__).parent / "data" / "random_concave_seed1.json"


def _cases():
    return [
        (domains.half_disk(), 1.0 / 64),
        (domains.unit_square(free_bottom=True), 1.0 / 40),
        (domains.square_annulus(), 1.0 / 24),
        (domains.square_annulus(free_inner=True), 1.0 / 24),
        (domains.disk(), 1.0 / 48),
        (LabeledDomain.load_json(GENERATED), 0.05),
    ]


@pytest.mark.parametrize("dom, h", _cases())
def test_fixed_distance_equals_direct_call(dom, h):
    grid = rasterize(dom, h)
    X, Y = grid.cell_centers()
    # inside cells are measured; the taper is 1 at inf, and a field is 0
    # outside its mask anyway
    direct = dom.distance_to_label(np.column_stack([X.ravel(), Y.ravel()]), FIXED)
    assert grid.fixed_distance.shape == grid.shape
    inside = grid.mask.ravel()
    assert np.array_equal(grid.fixed_distance.ravel()[inside], direct[inside])
    assert np.isposinf(grid.fixed_distance.ravel()[~inside]).all()
    assert grid.fixed_distance is grid.fixed_distance


@pytest.mark.parametrize("dom, h", _cases())
def test_inside_centers_are_the_masked_cell_centers(dom, h, monkeypatch):
    grid = rasterize(dom, h)
    X, Y = grid.cell_centers()
    assert np.array_equal(grid.inside_centers, np.column_stack([X[grid.mask], Y[grid.mask]]))
    assert grid.inside_centers is grid.inside_centers
    # both distance fields read the one array; neither rebuilds the centers
    monkeypatch.setattr(type(grid), "cell_centers", None)
    grid.fixed_distance, grid.inradius


@pytest.mark.parametrize("dom, h", _cases())
def test_inradius_equals_direct_call(dom, h):
    grid = rasterize(dom, h)
    X, Y = grid.cell_centers()
    direct = float(dom.boundary_distance(
        np.column_stack([X[grid.mask], Y[grid.mask]])).max())
    assert grid.inradius == direct


@pytest.mark.parametrize("dom, h", _cases())
def test_equal_area_disk_equals_fresh_rasterization(dom, h):
    grid = rasterize(dom, h)
    fresh = rasterize(domains.disk(radius=math.sqrt(grid.area() / math.pi), segments=128), h)
    disk = grid.equal_area_disk
    assert disk is grid.equal_area_disk
    assert disk.h == fresh.h
    assert disk.origin == fresh.origin
    assert np.array_equal(disk.mask, fresh.mask)
    assert np.array_equal(disk.face_labels, fresh.face_labels)


def _reference_radial(field):
    """The rearrangement with a disk built and rasterized on every call."""
    profile = decreasing_rearrangement(field)
    A = field.area
    disk = rasterize(domains.disk(radius=math.sqrt(A / math.pi), segments=128), field.grid.h)
    X, Y = disk.cell_centers()
    return ScalarField(disk, np.asarray(profile.value(math.pi * (X * X + Y * Y))))


def test_fields_of_one_grid_share_one_disk():
    dom = LabeledDomain.load_json(GENERATED)
    grid = rasterize(dom, 0.05)
    rng = np.random.default_rng(11)
    fields = [random_admissible_field(dom, 0.05, rng, grid=grid) for _ in range(3)]
    stars = [radial_rearrangement(f) for f in fields]
    assert all(s.grid is grid.equal_area_disk for s in stars)
    for field, star in zip(fields, stars):
        ref = _reference_radial(field)
        assert np.array_equal(star.values, ref.values)


@pytest.mark.parametrize("dom, h", _cases())
def test_random_field_on_a_shared_grid_equals_a_fresh_one(dom, h):
    grid = rasterize(dom, h)
    shared = [random_admissible_field(dom, h, np.random.default_rng(k), grid=grid)
              for k in range(3)]
    fresh = [random_admissible_field(dom, h, np.random.default_rng(k)) for k in range(3)]
    for a, b in zip(shared, fresh):
        assert a.grid is grid
        assert np.array_equal(a.values, b.values)


def test_bubble_on_a_shared_grid_equals_a_fresh_one():
    dom = domains.half_disk()
    grid = rasterize(dom, 1.0 / 64)
    for eps in (0.2, 0.1, 0.05):
        shared = talenti_bubble(dom, 1.0 / 64, 1.5, eps, grid=grid)
        fresh = talenti_bubble(dom, 1.0 / 64, 1.5, eps)
        assert shared.grid is grid
        assert np.array_equal(shared.values, fresh.values)


@pytest.mark.parametrize("dom", [
    domains.half_disk(),
    domains.unit_square(),
    domains.square_annulus(free_inner=True),
    counterexample_domain(CounterexampleSpec(a=3.0)),
    LabeledDomain.load_json(GENERATED),
])
def test_concavity_report_is_computed_once(dom, monkeypatch):
    expected = _exact_concavity(dom)
    calls = []

    def counted(domain):
        calls.append(domain)
        return _exact_concavity(domain)

    monkeypatch.setattr("freebdry.geometry._exact_concavity", counted)
    first = is_concave_free_boundary(dom)
    assert is_concave_free_boundary(dom) is first
    assert first == expected
    assert calls == [dom]


def test_transformed_domain_gets_its_own_concavity_report():
    dom = counterexample_domain(CounterexampleSpec(a=3.0))
    assert not is_concave_free_boundary(dom).concave
    moved = dom.transformed(shift=(1.0, 2.0))
    report = is_concave_free_boundary(moved)
    assert not report.concave
    assert report is not is_concave_free_boundary(dom)
    assert moved._concavity is report and dom._concavity is not report
    assert report.overlap == pytest.approx(is_concave_free_boundary(dom).overlap, rel=1e-12)


def _clockwise(loop, labels):
    """A stored (counterclockwise) loop reversed, each edge keeping its
    label."""
    m = len(loop)
    return loop[::-1], [labels[(m - 2 - j) % m] for j in range(m)]


def _clockwise_domains():
    """Domains given clockwise loops, which the constructor turns and
    measures again: two outer loops, a hole, and an outer loop with its
    hole."""
    half = domains.half_disk()
    generated = LabeledDomain.load_json(GENERATED)
    annulus = domains.square_annulus(free_inner=True)
    ang = np.linspace(0.0, 2.0 * math.pi, 41)[:-1]
    radius = 0.5 + 0.1 * np.random.default_rng(12).random(ang.size)
    ring = np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])
    square = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    hole, hole_labels = _clockwise(annulus.holes[0], annulus.hole_labels[0])
    return [
        LabeledDomain(*_clockwise(half.vertices, half.labels)),
        LabeledDomain(*_clockwise(generated.vertices, generated.labels)),
        LabeledDomain(square, [FIXED] * 4, holes=[ring[::-1]]),
        LabeledDomain(*_clockwise(annulus.vertices, annulus.labels), holes=[hole],
                      hole_labels=[hole_labels]),
    ]


@pytest.mark.parametrize("dom", [dom for dom, _ in _cases()] + _clockwise_domains())
def test_area_equals_direct_shoelace(dom):
    # measured on the stored loops, which are counterclockwise whatever the
    # input's orientation
    direct = reference_signed_area(dom.vertices)
    for hole in dom.holes:
        direct -= reference_signed_area(hole)
    assert dom.area == direct


def test_domain_arrays_are_read_only():
    dom = domains.square_annulus()
    with pytest.raises(ValueError):
        dom.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        dom.holes[0][0, 0] = 0.1
    with pytest.raises(ValueError):
        dom.vertices += 1.0


def test_domain_copies_its_input():
    outer = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    hole = np.array([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]])
    dom = LabeledDomain(outer, [FREE, FIXED, FIXED, FIXED], holes=[hole])
    outer[0, 0] = -3.0
    hole[0, 0] = 0.5
    assert dom.vertices[0, 0] == 0.0
    assert dom.holes[0][0, 0] == 0.25


def test_grid_arrays_are_read_only():
    grid = rasterize(domains.half_disk(), 1.0 / 32)
    with pytest.raises(ValueError):
        grid.mask[0, 0] = True
    with pytest.raises(ValueError):
        grid.face_labels[0, 0, 0] = 1
    with pytest.raises(ValueError):
        grid.mask &= False
    with pytest.raises(ValueError):
        grid.fixed_distance[0, 0] = 0.0
    with pytest.raises(ValueError):
        grid.inside_centers[0, 0] = 0.0
    with pytest.raises(AttributeError):
        grid.h = 0.5


def test_field_values_are_read_only():
    field = random_admissible_field(domains.half_disk(), 1.0 / 32, np.random.default_rng(1))
    with pytest.raises(ValueError):
        field.values[10, 10] = 5.0
    with pytest.raises(ValueError):
        field.values *= 2.0
    with pytest.raises(ValueError):
        field.sorted_values[0] = 5.0
    assert field.scaled(2.0).values.flags.writeable is False

