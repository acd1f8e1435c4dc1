"""The nearest-edge kernel against a per-edge loop.

Every boundary distance (tapers, inradius, clearances) and every face label
comes from ``geometry._nearest_segment``, which measures blocks of
(edges x points) at once and returns each point's nearest distance and the
first edge that attains it.  On large calls it groups the points into
square tiles and measures each tile only against the edges that can be
nearest to one of its points, and it takes ``hypot`` only on the pairs whose
squared distance is near the smallest.  The reference below is the
per-edge form of the full distance matrix, written with the same elementwise
arithmetic: the kernel's distances and indices must equal its row minima and
argmins bit for bit (``np.array_equal``), at any scale and on exact zeros and
ties, and a point's result must not depend on which other points share its
block or tile.
"""

import numpy as np
import pytest

from freebdry import domains, geometry
from freebdry.cli import build_parser, main
from freebdry.geometry import (
    _DIRS,
    _EDGE_PAIR_BLOCK,
    _TILE_MIN_EDGES,
    FACE_FIXED,
    FACE_FREE,
    FIXED,
    FREE,
    LabeledDomain,
    _nearest_segment,
    _shifted,
    rasterize,
)


def per_edge_distances(points, starts, ends):
    """Column k holds the distances from ``points`` to segment k."""
    out = np.empty((len(points), len(starts)))
    px, py = points[:, 0], points[:, 1]
    for k, (a, b) in enumerate(zip(starts, ends)):
        abx, aby = b[0] - a[0], b[1] - a[1]
        denom = abx * abx + aby * aby
        if denom == 0.0:
            out[:, k] = np.hypot(px - a[0], py - a[1])
            continue
        t = np.clip(((px - a[0]) * abx + (py - a[1]) * aby) / denom, 0.0, 1.0)
        out[:, k] = np.hypot(px - (a[0] + t * abx), py - (a[1] + t * aby))
    return out


def assert_nearest_matches(points, starts, ends):
    """The kernel's (dist, index) equal the reference matrix's row minimum
    and first argmin; returns the reference matrix."""
    ref = per_edge_distances(points, starts, ends)
    dist, index = _nearest_segment(points, starts, ends)
    assert np.array_equal(dist, ref.min(axis=1))
    assert np.array_equal(index, ref.argmin(axis=1))
    return ref


@pytest.fixture
def tiled_calls(monkeypatch):
    """Whether each kernel call since the fixture was set up grouped its
    points into tiles or measured them in input order, by slices."""
    calls, tiles = [], geometry._tiles

    def recording(*args):
        blocks = tiles(*args)
        calls.append(not isinstance(blocks[0][0], slice))
        return blocks

    monkeypatch.setattr(geometry, "_tiles", recording)
    return calls


def edge_table(dom):
    starts, ends, labels = [], [], []
    for loop, labs in zip((dom.vertices, *dom.holes), (dom.labels, *dom.hole_labels)):
        for k, lab in enumerate(labs):
            starts.append(loop[k])
            ends.append(loop[(k + 1) % len(loop)])
            labels.append(lab)
    return np.array(starts), np.array(ends), labels


def reference_face_labels(dom, h):
    """Face labels by the per-edge loop: a strictly closer edge replaces the
    best so far, so the earlier edge wins a tie."""
    grid = rasterize(dom, h)
    X, Y = grid.cell_centers()
    starts, ends, labels = edge_table(dom)
    out = np.zeros_like(grid.face_labels)
    for dcode, (di, dj) in enumerate(_DIRS):
        ii, jj = np.nonzero(grid.mask & ~_shifted(grid.mask, di, dj, False))
        pts = np.column_stack([X[ii, jj] + dj * 0.5 * h, Y[ii, jj] + di * 0.5 * h])
        best = np.full(len(pts), np.inf)
        lab = np.full(len(pts), FACE_FIXED, dtype=np.int8)
        for k, lk in enumerate(labels):
            d = per_edge_distances(pts, starts[k:k + 1], ends[k:k + 1])[:, 0]
            closer = d < best
            best[closer] = d[closer]
            lab[closer] = FACE_FREE if lk == FREE else FACE_FIXED
        out[ii, jj, dcode] = lab
    return grid, out


def _domains():
    rng = np.random.default_rng(29)
    return {"halfdisk": domains.half_disk(),
            "annulus-free-inner": domains.square_annulus(free_inner=True),
            "square-free-bottom": domains.unit_square(free_bottom=True),
            **{f"random{k}": domains.random_concave_domain(rng) for k in range(3)}}


DOMAINS = _domains()


@pytest.mark.parametrize("name", DOMAINS)
def test_distances_match_the_per_edge_loop(name):
    dom = DOMAINS[name]
    starts, ends, labels = edge_table(dom)
    rng = np.random.default_rng(3)
    x0, y0, x1, y1 = dom.bbox
    # a prime point count: more than one block, and not a multiple of its rows
    pts = rng.uniform((x0 - 0.2, y0 - 0.2), (x1 + 0.2, y1 + 0.2), size=(10007, 2))
    rows = _EDGE_PAIR_BLOCK // len(starts)
    assert len(pts) % rows and len(pts) > rows
    ref = assert_nearest_matches(pts, starts, ends)
    assert np.array_equal(dom.boundary_distance(pts), ref.min(axis=1))
    for label in (FIXED, FREE):
        cols = [k for k, lab in enumerate(labels) if lab == label]
        want = ref[:, cols].min(axis=1) if cols else np.full(len(pts), np.inf)
        assert np.array_equal(dom.distance_to_label(pts, label), want)
        if cols:
            assert_nearest_matches(pts, starts[cols], ends[cols])


def on_boundary(starts, ends):
    """Points on the vertices, and on each edge at fractions of its length:
    exact zero distances, and ties between the two edges at a vertex."""
    ab = ends - starts
    on_edges = [starts + f * ab for f in (0.5, 0.25, 1 / 3, 0.9)]
    return np.concatenate([starts, ends, *on_edges])


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("far", [False, True])
@pytest.mark.parametrize("name", DOMAINS)
def test_scaled_and_shifted_domains_and_points_on_the_boundary(name, scale, far):
    # the screen on squared distances must keep the exact minimum where the
    # squares underflow (1e-150), where they approach overflow (1e150) and
    # where the offsets lose the low bits of coordinates far from the origin
    starts, ends, _ = edge_table(DOMAINS[name])
    shift = np.array([3.0e6, -5.0e6]) if far else np.zeros(2)
    starts, ends = (starts + shift) * scale, (ends + shift) * scale
    lo, hi = np.minimum(starts, ends).min(axis=0), np.maximum(starts, ends).max(axis=0)
    rng = np.random.default_rng(17)
    pts = np.concatenate([rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), size=(997, 2)),
                          on_boundary(starts, ends)])
    assert_nearest_matches(pts, starts, ends)
    for sub in (rng.random(len(starts)) < 0.5, slice(None, 1), slice(None, None, 3)):
        assert_nearest_matches(pts, starts[sub], ends[sub])


@pytest.mark.parametrize("scale", [1e-160, 1e-150, 1.0, 1e150])
def test_centre_of_a_regular_polygon_ties_every_edge(scale):
    # every edge of a regular 96-gon, and every vertex of it, is at one
    # distance from its centre in exact arithmetic: the rounded distances
    # tie or differ by an ulp, and their squares need not order them alike,
    # so the first index reaching the smallest distance must survive the
    # screen on squares; at 1e-160 the squares are subnormal, with far
    # fewer significant bits than the distances
    phi = 2 * np.pi * np.arange(96) / 96
    ring = np.column_stack([np.cos(phi), np.sin(phi)]) * scale
    centre = np.array([[0.0, 0.0], [1e-17, -3e-17]]) * scale
    dist, index = _nearest_segment(centre, ring, ring)  # zero-length: the vertices
    assert_nearest_matches(centre, ring, ring)
    assert_nearest_matches(centre, ring, np.roll(ring, -1, axis=0))
    assert_nearest_matches(centre, ring[::-1], ring[::-1])
    ref = per_edge_distances(centre, ring, ring)
    assert (ref == dist[:, None]).sum() > 1  # a tie, which the first edge wins


@pytest.mark.parametrize("name", DOMAINS)
def test_face_labels_match_the_per_edge_loop(name):
    dom = DOMAINS[name]
    x0, y0, x1, y1 = dom.bbox
    grid, ref = reference_face_labels(dom, min(x1 - x0, y1 - y0) / 45)
    assert np.array_equal(grid.face_labels, ref)
    assert (ref == FACE_FIXED).any() and (ref == FACE_FREE).any()


def test_earlier_edge_wins_a_tie():
    # the bottom edge is split at x = 0.5625, the midpoint of a cell's bottom
    # face at h = 1/8: that face is at distance 0 from the free edge and the
    # fixed edge that meet there, and the edge listed first labels it
    h, split = 1 / 8, 0.5625
    free_first = LabeledDomain([(0, 0), (split, 0), (1, 0), (1, 1), (0, 1)],
                               [FREE, FIXED, FIXED, FIXED, FIXED])
    fixed_first = LabeledDomain([(split, 0), (1, 0), (1, 1), (0, 1), (0, 0)],
                                [FIXED, FIXED, FIXED, FIXED, FREE])
    south = _DIRS.index((-1, 0))
    for dom, want in ((free_first, FACE_FREE), (fixed_first, FACE_FIXED)):
        grid, ref = reference_face_labels(dom, h)
        X, _ = grid.cell_centers()
        j = int(np.flatnonzero(X[0] == split)[0])
        assert grid.face_labels[1, j, south] == want == ref[1, j, south]
        assert np.array_equal(grid.face_labels, ref)
    # the same rule on the kernel's rows: equal columns, first index
    starts = np.array([[0.0, 0.0], [split, 0.0]])
    ends = np.array([[split, 0.0], [1.0, 0.0]])
    pts = np.array([[split, 0.0], [split, 0.25]])
    d = assert_nearest_matches(pts, starts, ends)
    assert d[0, 0] == d[0, 1] == 0.0 and d[1, 0] == d[1, 1] == 0.25
    dist, index = _nearest_segment(pts, starts, ends)
    assert dist.tolist() == [0.0, 0.25] and index.tolist() == [0, 0]


def test_more_edges_than_one_block():
    rng = np.random.default_rng(5)
    m = _EDGE_PAIR_BLOCK + 1001
    starts = rng.normal(size=(m, 2))
    ends = starts + rng.normal(scale=0.1, size=(m, 2))
    pts = rng.normal(size=(7, 2))  # one row per block
    assert_nearest_matches(pts, starts, ends)


def test_zero_length_segment_measures_to_its_endpoint():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(50, 2))
    starts = np.array([[0.3, -0.7], [0.0, 0.0], [0.3, -0.7]])
    ends = np.array([[0.3, -0.7], [1.0, 0.0], [0.3, -0.7]])
    endpoint = np.hypot(pts[:, 0] - 0.3, pts[:, 1] + 0.7)
    d = assert_nearest_matches(pts, starts, ends)
    assert np.array_equal(d[:, 0], endpoint) and np.array_equal(d[:, 2], endpoint)
    dist, index = _nearest_segment(pts, starts[::2], ends[::2])
    assert np.array_equal(dist, endpoint) and not index.any()  # the earlier of two equal


def test_no_points_and_no_matching_edge():
    dom = DOMAINS["halfdisk"]
    starts, ends, _ = edge_table(dom)
    dist, index = _nearest_segment(np.empty((0, 2)), starts, ends)
    assert dist.shape == index.shape == (0,)
    assert dom.boundary_distance(np.empty((0, 2))).shape == (0,)
    # no segment: the distance is inf and the index 0
    dist, index = _nearest_segment(np.ones((3, 2)), starts[:0], ends[:0])
    assert np.isposinf(dist).all() and not index.any()
    # no free edge: the distance to the free chain is inf
    pts = np.array([[0.5, 0.5], [2.0, 2.0]])
    assert np.array_equal(domains.unit_square().distance_to_label(pts, FREE),
                          np.full(2, np.inf))


@pytest.mark.parametrize("name", ["halfdisk", "annulus-free-inner", "disk"])
def test_a_row_does_not_depend_on_its_block(name, tiled_calls):
    dom = domains.disk(segments=128) if name == "disk" else DOMAINS[name]
    grid = rasterize(dom, 1 / 96)
    tiled_calls.clear()  # the face labels
    X, Y = grid.cell_centers()
    pts = np.column_stack([X.ravel(), Y.ravel()])
    starts, ends, _ = edge_table(dom)
    ref = assert_nearest_matches(pts, starts, ends)
    dist, index = ref.min(axis=1), ref.argmin(axis=1)
    inside = grid.mask.ravel()
    rng = np.random.default_rng(23)
    # the points in another order, and subsets whose buckets and tiles cut
    # across those of the whole grid
    for rows in (inside, slice(1, None), slice(2, None), slice(3, None), slice(57, None),
                 rng.permutation(len(pts)), pts[:, 0] < 0.3 * pts[:, 1] + 0.1,
                 rng.random(len(pts)) < 0.4):
        sub_dist, sub_index = _nearest_segment(pts[rows], starts, ends)
        assert np.array_equal(sub_dist, dist[rows]) and np.array_equal(sub_index, index[rows])
    assert np.array_equal(dom.boundary_distance(pts[inside]), dist[inside])
    # the annulus has too few edges to tile; the others tile every call
    assert set(tiled_calls) == {len(starts) >= _TILE_MIN_EDGES}


def _cloud(kind):
    """A cloud of several thousand points near the unit half disk, and the
    half disk's edges, moved with it."""
    starts, ends, _ = edge_table(DOMAINS["halfdisk"])
    rng, n = np.random.default_rng(31), 9001
    if kind == "collinear":  # a box of zero area
        return np.column_stack([rng.uniform(-1.2, 1.2, n), np.full(n, 0.3)]), starts, ends
    if kind == "coincident":  # a box of zero size
        return np.tile([[0.1, 0.2]], (n, 1)), starts, ends
    if kind == "two-clusters":  # far apart, so nearly every bucket is empty
        pts = rng.normal(scale=0.05, size=(n, 2)) + (-0.5, 0.3)
        pts[n // 2:] += (40.0, 25.0)
        return pts, starts, ends
    # a grid near (1e8, 7e7): the offsets lose far more low bits than the
    # tiles' slack of 1e-12 of the largest coordinate
    shift = np.array([1e8, 7e7])
    return rasterize(DOMAINS["halfdisk"], 1 / 64).inside_centers + shift, starts + shift, ends + shift


@pytest.mark.parametrize("kind", ["collinear", "coincident", "two-clusters", "far-grid"])
def test_clouds_in_tiles(kind, tiled_calls):
    pts, starts, ends = _cloud(kind)
    tiled_calls.clear()
    assert_nearest_matches(pts, starts, ends)
    assert tiled_calls == [True]


@pytest.mark.parametrize("scale", [1e154, 1e300])
def test_huge_finite_clouds_in_tiles(scale, tiled_calls):
    # the products of offsets overflow to inf, and their differences to NaN,
    # so no bound can drop an edge; neither may a tile lose every edge.  The
    # kernel keeps its overflows to itself: under -W error::RuntimeWarning a
    # warning from it fails the test.
    starts, ends, _ = edge_table(DOMAINS["halfdisk"])
    rng = np.random.default_rng(37)
    pts = rng.uniform((-1.2, -0.2), (1.2, 1.2), size=(20000, 2)) * scale
    with np.errstate(all="ignore"):
        ref = per_edge_distances(pts, starts * scale, ends * scale)
    dist, index = _nearest_segment(pts, starts * scale, ends * scale)
    assert np.array_equal(dist, ref.min(axis=1), equal_nan=True)
    assert np.array_equal(index, ref.argmin(axis=1))
    assert tiled_calls == [True]


def test_fixed_distance_measures_under_half_its_pairs(monkeypatch):
    # on the half disk each tile keeps about a third of the 64 fixed edges,
    # and every block fits the scratch block
    blocks, block = [], geometry._nearest_in_block

    def counting(px, py, seg, bufs, near_buf):
        blocks.append(len(seg[0]) * len(px))
        return block(px, py, seg, bufs, near_buf)

    monkeypatch.setattr(geometry, "_nearest_in_block", counting)
    grid = rasterize(domains.half_disk(), 1 / 128)
    grid.fixed_distance
    n, m = int(grid.mask.sum()), grid.domain.labels.count(FIXED)
    assert 0 < sum(blocks) < 0.5 * n * m
    assert max(blocks) <= _EDGE_PAIR_BLOCK


def test_non_finite_and_overflowing_points_measure_every_edge():
    # a NaN offset makes the row's smallest square NaN and squares that all
    # overflow make it inf; no pair then compares greater than the cut, so
    # every pair is measured, as with no screen at all
    starts, ends, _ = edge_table(DOMAINS["halfdisk"])
    pts = np.array([[np.nan, 0.0], [np.inf, 1.0], [0.5, np.inf], [-np.inf, -np.inf],
                    [1e300, 1e300], [-3e200, 1e155], [0.25, 0.5]])
    with np.errstate(invalid="ignore", over="ignore"):
        ref = per_edge_distances(pts, starts, ends)
        dist, index = _nearest_segment(pts, starts, ends)
    assert np.array_equal(dist, ref.min(axis=1), equal_nan=True)
    assert np.array_equal(index, ref.argmin(axis=1))
    assert np.isnan(dist[0]) and np.isfinite(dist[4:]).all()


def test_sobolev_measures_each_inside_cell_against_each_edge_once(monkeypatch, tmp_path):
    # the grid's distances are its fixed-edge distance field and its
    # inradius; the inradius reuses the field and measures only the free
    # edges, so the inside cells make one pass over the edges in all
    pairs = []

    def counting(points, starts, ends):
        pairs.append((len(points), len(starts)))
        return _nearest_segment(points, starts, ends)

    monkeypatch.setattr(geometry, "_nearest_segment", counting)
    argv = ["sobolev", "--domain", "halfdisk", "--seed", "1"]
    assert main(argv + ["--quiet", "--out", str(tmp_path / "report.json")]) == 0
    dom = domains.half_disk()
    inside = int(rasterize(dom, build_parser().parse_args(argv).h).mask.sum())
    grid_pairs = sum(n * m for n, m in pairs if n == inside)
    assert 0 < grid_pairs <= inside * len(dom.labels)
