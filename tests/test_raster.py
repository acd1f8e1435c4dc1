import math

import numpy as np
import pytest

from freebdry import domains
from freebdry.errors import DomainValidationError
from freebdry.geometry import (
    FACE_FIXED,
    FACE_FREE,
    LabeledDomain,
    _grid_in_polygon,
    _points_in_polygon,
    rasterize,
)


def test_unit_square_exact(square_domain):
    grid = rasterize(square_domain, 1.0 / 64)
    assert int(grid.mask.sum()) == 64 * 64
    assert grid.area() == pytest.approx(1.0, abs=1e-12)


def test_half_disk_area_bound(half_disk_domain):
    h = 1.0 / 128
    grid = rasterize(half_disk_domain, h)
    perimeter = half_disk_domain.boundary_length()
    assert abs(grid.area() - half_disk_domain.area) <= 2.0 * h * perimeter


def test_half_disk_refinement_first_order(half_disk_domain):
    errs = []
    for h in (1.0 / 64, 1.0 / 128, 1.0 / 256):
        grid = rasterize(half_disk_domain, h)
        errs.append(abs(grid.area() - half_disk_domain.area))
    assert errs[0] > errs[1] > errs[2]
    # roughly first order: halving h should not shrink the error much faster
    # than quadratically or slower than not at all
    assert errs[0] / errs[1] > 1.2
    assert errs[1] / errs[2] > 1.2


def test_face_labels_square_bottom_free(square_free_bottom):
    grid = rasterize(square_free_bottom, 1.0 / 16)
    labs = grid.face_labels
    ii, jj = np.nonzero(grid.mask)
    i0, i1 = ii.min(), ii.max()
    j0, j1 = jj.min(), jj.max()
    # dir order E, W, N, S
    assert (labs[i0, j0:j1 + 1, 3] == FACE_FREE).all()      # bottom row, south
    assert (labs[i1, j0:j1 + 1, 2] == FACE_FIXED).all()     # top row, north
    assert (labs[i0:i1 + 1, j0, 1] == FACE_FIXED).all()     # left col, west
    assert (labs[i0:i1 + 1, j1, 0] == FACE_FIXED).all()     # right col, east
    # interior faces untagged
    assert (labs[(i0 + i1) // 2, (j0 + j1) // 2] == 0).all()


def test_too_coarse_rejected(square_domain):
    with pytest.raises(DomainValidationError):
        rasterize(square_domain, 0.2)


def _fixed_refinement_suite():
    """Ten curved-boundary domains; cell-count error oscillates per domain,
    so the refinement trend is asserted on the suite total."""
    rng = np.random.default_rng(0)
    doms = []
    while len(doms) < 7:
        d = domains._random_bite_domain(rng)
        if d is not None:
            doms.append(d.transformed(angle=rng.uniform(0, 3), shift=rng.uniform(-1, 1, 2)))
    doms.append(domains.half_disk().transformed(angle=0.37, shift=(0.21, -0.4)))
    doms.append(domains.disk().transformed(angle=0.1, shift=(0.13, 0.29)))
    doms.append(domains.half_disk(radius=1.4).transformed(angle=2.2, shift=(-0.3, 0.11)))
    return doms


def test_monotone_refinement_suite():
    doms = _fixed_refinement_suite()
    assert len(doms) == 10
    totals = []
    for k in range(3):
        total = 0.0
        for dom in doms:
            h0 = min(dom.bbox[2] - dom.bbox[0], dom.bbox[3] - dom.bbox[1]) / 48.0
            total += abs(rasterize(dom, h0 / 2.0**k).area() - dom.area)
        totals.append(total)
    assert totals[1] < totals[0]
    assert totals[2] < totals[1]


# -- row-wise grid mask against the point-wise ray cast -------------------------

def _centre_mask(grid):
    """The mask ``domain.contains`` gives on the grid's cell centres."""
    X, Y = grid.cell_centers()
    pts = np.column_stack([X.ravel(), Y.ravel()])
    return grid.domain.contains(pts).reshape(grid.shape)


def _point_mask(xs, ys, poly):
    X, Y = np.meshgrid(xs, ys)
    return _points_in_polygon(np.column_stack([X.ravel(), Y.ravel()]), poly).reshape(X.shape)


def _h_for_cells(dom, cells):
    x0, y0, x1, y1 = dom.bbox
    return math.sqrt((x1 - x0) * (y1 - y0) / cells)


@pytest.mark.parametrize("name", domains.BUILTIN_NAMES)
def test_grid_mask_matches_contains_builtin(name):
    dom = domains.builtin_domain(name)
    for h in (1.0 / 16, 1.0 / 50, 1.0 / 128, _h_for_cells(dom, 3000)):
        grid = rasterize(dom, h)
        assert np.array_equal(grid.mask, _centre_mask(grid))
    if name.startswith("annulus"):
        assert dom.holes and not grid.mask[grid.shape[0] // 2, grid.shape[1] // 2]


def test_grid_mask_matches_contains_random_concave():
    rng = np.random.default_rng(20260)
    for _ in range(40):
        dom = domains.random_concave_domain(rng)
        dom = dom.transformed(angle=rng.uniform(0, 3), shift=rng.uniform(-1, 1, 2))
        for cells in (3000, 20000):
            grid = rasterize(dom, _h_for_cells(dom, cells))
            assert np.array_equal(grid.mask, _centre_mask(grid))


def test_grid_in_polygon_random_polygons():
    # any closed polygon, simple or not: the even-odd rule is the same
    rng = np.random.default_rng(4)
    xs = np.sort(rng.uniform(-1.2, 1.2, 90))
    ys = np.sort(rng.uniform(-1.2, 1.2, 70))
    for m in (3, 7, 24, 60):
        for _ in range(10):
            poly = rng.uniform(-1.0, 1.0, (m, 2))
            assert np.array_equal(_grid_in_polygon(xs, ys, poly), _point_mask(xs, ys, poly))


def test_grid_in_polygon_points_at_crossings():
    # grid columns at every crossing abscissa of the ray cast and one ulp
    # either side of it: a crossing computed with other rounding shows
    rng = np.random.default_rng(7)
    poly = rng.uniform(-1.0, 1.0, (15, 2))
    ys = np.sort(rng.uniform(-1.0, 1.0, 40))
    crossings = []
    for (x1, y1), (x2, y2) in zip(poly, np.roll(poly, -1, axis=0)):
        py = ys[(y1 > ys) != (y2 > ys)]
        crossings.append(x1 + (py - y1) * (x2 - x1) / (y2 - y1))
    xi = np.concatenate(crossings)
    xs = np.unique(np.concatenate([xi, np.nextafter(xi, -np.inf), np.nextafter(xi, np.inf)]))
    assert np.array_equal(_grid_in_polygon(xs, ys, poly), _point_mask(xs, ys, poly))


def test_grid_in_polygon_lattice_ties():
    # vertices on the grid lattice: vertices sit on rows, horizontal edges run
    # along rows, and crossings land exactly on grid points
    xs = np.arange(-3, 20) / 16.0
    ys = np.arange(-2, 19) / 16.0
    rng = np.random.default_rng(11)
    for m in (3, 4, 9, 17):
        for _ in range(25):
            poly = rng.integers(0, 17, (m, 2)) / 16.0
            assert np.array_equal(_grid_in_polygon(xs, ys, poly), _point_mask(xs, ys, poly))
    # a diamond whose edges pass through grid points; row 8 holds two vertices
    poly = np.array([[0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5]])
    X, Y = np.meshgrid(xs, ys)
    assert (np.abs(X - 0.5) + np.abs(Y - 0.5) == 0.5).sum() > 8
    assert np.array_equal(_grid_in_polygon(xs, ys, poly), _point_mask(xs, ys, poly))


def test_rasterize_ties_on_cell_centres():
    h = 1.0 / 16
    # cell centres sit at (k - 1/2) h; every vertex is one, so vertices lie on
    # centre rows and the slope-one edges cross rows exactly at centres

    def c(k):
        return (k - 0.5) * h

    dom = LabeledDomain(
        [(c(1), c(1)), (c(13), c(1)), (c(13), c(7)), (c(9), c(11)), (c(5), c(7)), (c(1), c(7))],
        ["free", "fixed", "fixed", "fixed", "fixed", "fixed"],
    )
    grid = rasterize(dom, h)
    X, Y = grid.cell_centers()
    assert np.isin(dom.vertices[:, 1], Y[:, 0]).all()
    on_slope = (Y > c(7)) & (np.abs(X - c(9)) == c(11) - Y)
    assert on_slope.sum() >= 6
    assert np.array_equal(grid.mask, _centre_mask(grid))
