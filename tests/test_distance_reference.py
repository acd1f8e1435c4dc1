"""The blocked point-edge distance kernel against a per-edge loop.

Every boundary distance (tapers, inradius, clearances) and every face label
comes from ``geometry._segment_distances``, which measures blocks of
(points x edges) at once.  The reference below is the per-edge form it
replaced, written with the same elementwise arithmetic: each distance and
each label must match it bit for bit (``np.array_equal``), and a point's
distances must not depend on which other points share its block.
"""

import numpy as np
import pytest

from freebdry import domains
from freebdry.geometry import (
    _DIRS,
    _EDGE_PAIR_BLOCK,
    FACE_FIXED,
    FACE_FREE,
    FIXED,
    FREE,
    LabeledDomain,
    _segment_distances,
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


def kernel(points, starts, ends):
    return np.vstack(list(_segment_distances(points, starts, ends)))


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
    ref = per_edge_distances(pts, starts, ends)
    assert np.array_equal(kernel(pts, starts, ends), ref)
    assert np.array_equal(dom.boundary_distance(pts), ref.min(axis=1))
    for label in (FIXED, FREE):
        cols = [k for k, lab in enumerate(labels) if lab == label]
        want = ref[:, cols].min(axis=1) if cols else np.full(len(pts), np.inf)
        assert np.array_equal(dom.distance_to_label(pts, label), want)


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
    d = kernel(np.array([[split, 0.0], [split, 0.25]]), starts, ends)
    assert d[0, 0] == d[0, 1] == 0.0 and d[1, 0] == d[1, 1] == 0.25
    assert d.argmin(axis=1).tolist() == [0, 0]


def test_more_edges_than_one_block():
    rng = np.random.default_rng(5)
    m = _EDGE_PAIR_BLOCK + 1001
    starts = rng.normal(size=(m, 2))
    ends = starts + rng.normal(scale=0.1, size=(m, 2))
    pts = rng.normal(size=(7, 2))
    blocks = list(_segment_distances(pts, starts, ends))
    assert [len(b) for b in blocks] == [1] * 7
    assert np.array_equal(np.vstack(blocks), per_edge_distances(pts, starts, ends))


def test_zero_length_segment_measures_to_its_endpoint():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(50, 2))
    starts = np.array([[0.3, -0.7], [0.0, 0.0], [0.3, -0.7]])
    ends = np.array([[0.3, -0.7], [1.0, 0.0], [0.3, -0.7]])
    d = kernel(pts, starts, ends)
    endpoint = np.hypot(pts[:, 0] - 0.3, pts[:, 1] + 0.7)
    assert np.array_equal(d[:, 0], endpoint) and np.array_equal(d[:, 2], endpoint)
    assert np.array_equal(d, per_edge_distances(pts, starts, ends))


def test_no_points_and_no_matching_edge():
    dom = DOMAINS["halfdisk"]
    starts, ends, _ = edge_table(dom)
    assert kernel(np.empty((0, 2)), starts, ends).shape == (0, len(starts))
    assert dom.boundary_distance(np.empty((0, 2))).shape == (0,)
    # no free edge: the distance to the free chain is inf
    pts = np.array([[0.5, 0.5], [2.0, 2.0]])
    assert np.array_equal(domains.unit_square().distance_to_label(pts, FREE),
                          np.full(2, np.inf))


@pytest.mark.parametrize("name", ["halfdisk", "annulus-free-inner"])
def test_a_row_does_not_depend_on_its_block(name):
    dom = DOMAINS[name]
    grid = rasterize(dom, 1 / 96)
    X, Y = grid.cell_centers()
    pts = np.column_stack([X.ravel(), Y.ravel()])
    starts, ends, _ = edge_table(dom)
    full = kernel(pts, starts, ends)
    inside = grid.mask.ravel()
    assert np.array_equal(kernel(pts[inside], starts, ends), full[inside])
    for shift in (1, 2, 3, 57):
        assert np.array_equal(kernel(pts[shift:], starts, ends), full[shift:])
    assert np.array_equal(dom.boundary_distance(pts[inside]), full[inside].min(axis=1))
