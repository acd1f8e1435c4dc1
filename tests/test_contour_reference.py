"""The batched level-set passes against their per-level references.

The contour reference below is the case-by-case marching squares that
contoured one level per call; the batched pass must reproduce its statistics
exactly (``==``), since every report sums them in the same order.  The slope
and quantile references are the per-coordinate profile fit and the masked
quantiles that the batched forms replaced, and must agree bit for bit too.
"""

import math

import numpy as np
import pytest

from freebdry import domains, rearrange
from freebdry.errors import PreconditionError
from freebdry.rearrange import (
    DecreasingProfile,
    ScalarField,
    _bilinear_sample,
    _contour_chunk,
    _fill_contours,
    _marching_blocks,
    _mirror_extended,
    _usable_levels,
    decreasing_rearrangement,
    distribution_function,
    level_stats,
    quantile_levels,
    random_admissible_field,
)

from tests.conftest import cone, paraboloid

_MS_SEGMENTS = {
    1: ((3, 0),), 2: ((0, 1),), 3: ((3, 1),), 4: ((1, 2),), 6: ((0, 2),), 7: ((3, 2),),
    8: ((2, 3),), 9: ((0, 2),), 11: ((1, 2),), 12: ((1, 3),), 13: ((0, 1),), 14: ((3, 0),),
}
_MS_SADDLE = {
    5: (((0, 1), (2, 3)), ((3, 0), (1, 2))),
    10: (((3, 0), (1, 2)), ((0, 1), (2, 3))),
}


def _block_codes(ext, level):
    a, b, c, d = ext[:-1, :-1], ext[:-1, 1:], ext[1:, 1:], ext[1:, :-1]
    valid = np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & np.isfinite(d)
    code = (
        (a > level).astype(np.int8)
        | ((b > level).astype(np.int8) << 1)
        | ((c > level).astype(np.int8) << 2)
        | ((d > level).astype(np.int8) << 3)
    )
    code[~valid] = 0
    return (a, b, c, d), code


def reference_contour_segments(ext, xs, ys, level):
    """One level, case by case: segments (K, 2, 2) in physical coordinates."""
    (a, b, c, d), code = _block_codes(ext, level)
    segs = []

    def interp(v0, v1, p0, p1):
        t = (level - v0) / (v1 - v0)
        return p0 + t[:, None] * (p1 - p0)

    def edge_points(ii, jj, edge):
        x0, y0 = xs[jj], ys[ii]
        x1, y1 = xs[jj + 1], ys[ii + 1]
        if edge == 0:
            return interp(a[ii, jj], b[ii, jj],
                          np.column_stack([x0, y0]), np.column_stack([x1, y0]))
        if edge == 1:
            return interp(b[ii, jj], c[ii, jj],
                          np.column_stack([x1, y0]), np.column_stack([x1, y1]))
        if edge == 2:
            return interp(d[ii, jj], c[ii, jj],
                          np.column_stack([x0, y1]), np.column_stack([x1, y1]))
        return interp(a[ii, jj], d[ii, jj],
                      np.column_stack([x0, y0]), np.column_stack([x0, y1]))

    for case, pairs in _MS_SEGMENTS.items():
        ii, jj = np.nonzero(code == case)
        if len(ii) == 0:
            continue
        for e0, e1 in pairs:
            segs.append(np.stack([edge_points(ii, jj, e0), edge_points(ii, jj, e1)], axis=1))

    for case, (pairs_hi, pairs_lo) in _MS_SADDLE.items():
        ii, jj = np.nonzero(code == case)
        if len(ii) == 0:
            continue
        center = 0.25 * (a[ii, jj] + b[ii, jj] + c[ii, jj] + d[ii, jj])
        for sel, pairs in ((center > level, pairs_hi), (center <= level, pairs_lo)):
            if not sel.any():
                continue
            for e0, e1 in pairs:
                p0 = edge_points(ii[sel], jj[sel], e0)
                p1 = edge_points(ii[sel], jj[sel], e1)
                segs.append(np.stack([p0, p1], axis=1))

    if not segs:
        return np.empty((0, 2, 2))
    return np.concatenate(segs, axis=0)


def reference_level_stats(field, t):
    """(surface, coarea, reliable, segments) of one level."""
    vmin, vmax = field.min_value, field.max_value
    if not vmin < t < vmax:
        raise PreconditionError(f"level {t} out of range")
    ext = _mirror_extended(field, field.values)
    ny, nx = field.grid.mask.shape
    xs = field.grid.origin[0] + (np.arange(nx) + 0.5) * field.grid.h
    ys = field.grid.origin[1] + (np.arange(ny) + 0.5) * field.grid.h
    segments = reference_contour_segments(ext, xs, ys, t)
    lengths = np.hypot(*(segments[:, 1, :] - segments[:, 0, :]).T)
    keep = lengths > 1e-14 * field.grid.h
    segments, lengths = segments[keep], lengths[keep]
    if len(segments) == 0:
        return 0.0, 0.0, False, segments
    mids = 0.5 * (segments[:, 0, :] + segments[:, 1, :])
    gmag = _bilinear_sample(field, mids)
    gsafe = np.clip(gmag, 1e-8, None)
    return (float(lengths.sum()), float((lengths / gsafe).sum()),
            bool((gmag > 1e-8).all()), segments)


def assert_matches_reference(field, levels):
    """Fill a fresh copy's cache with the whole (unsorted, duplicated, partly
    out-of-range) list, then compare every level with the reference."""
    fresh = ScalarField(field.grid, field.values)
    _fill_contours(fresh, levels)
    compared = 0
    for t in map(float, levels):
        try:
            ref = reference_level_stats(field, t)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                level_stats(fresh, t)
            continue
        ls = level_stats(fresh, t)
        assert (ls.surface, ls.coarea_integral, ls.reliable) == ref[:3], t
        segments = _contour_chunk(fresh, _marching_blocks(fresh), np.array([t]))[0]
        lengths = np.hypot(*(segments[:, 1, :] - segments[:, 0, :]).T)
        assert np.array_equal(segments[lengths > 1e-14 * fresh.grid.h], ref[3]), t
        compared += 1
    return compared


def scrambled(levels, field):
    """The levels reversed, every third one repeated, plus a level equal to
    a cell value and out-of-range levels (below the minimum, at both ends,
    above the maximum)."""
    levels = list(np.asarray(levels, dtype=float)[::-1])
    levels += levels[::3]
    vals = np.sort(field.values_inside())
    vmax = float(vals[-1])
    return levels + [float(vals[len(vals) // 2]), -1.0, 0.0, vmax, 2.0 * vmax]


@pytest.mark.parametrize("fn", [cone, paraboloid])
def test_disk_fixtures_match_reference(disk_domain, fn):
    f = ScalarField.from_function(disk_domain, 1.0 / 128, fn)
    levels = scrambled(quantile_levels(f, 12), f)
    assert assert_matches_reference(f, levels) >= 12


def test_two_bumps_match_reference(square_domain):
    f = ScalarField.from_function(
        square_domain, 1.0 / 64,
        lambda X, Y: np.exp(-((X - 0.3) ** 2 + (Y - 0.5) ** 2) / 0.004)
        + np.exp(-((X - 0.7) ** 2 + (Y - 0.5) ** 2) / 0.004),
    )
    levels = scrambled([0.5, *quantile_levels(f, 12)], f)
    assert assert_matches_reference(f, levels) >= 13


def test_random_admissible_fields_match_reference():
    for f in generated_fields(4242, 4, 60.0):
        levels = scrambled(quantile_levels(f, 24), f)
        assert assert_matches_reference(f, levels) >= 20


def saddle_field(square_domain):
    return ScalarField.from_function(
        square_domain, 1.0 / 40,
        lambda X, Y: 1.5 + np.cos(3 * np.pi * X) * np.cos(3 * np.pi * Y),
    )


def generated_fields(seed, count, cells):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dom = domains.random_concave_domain(rng)
        yield random_admissible_field(dom, dom.diameter / cells, rng)


def test_saddle_blocks_match_reference(square_domain):
    # cos*cos has saddles at value 1.5 between its bumps; levels just above
    # and below it give saddle blocks with centers on either side
    f = saddle_field(square_domain)
    ext = _mirror_extended(f, f.values)
    levels = [1.5 + d for d in (-0.05, -0.01, -1e-3, 0.0, 1e-3, 0.01, 0.05)]
    above = below = 0
    for t in levels:
        (a, b, c, d), code = _block_codes(ext, t)
        saddle = (code == 5) | (code == 10)
        center = 0.25 * (a + b + c + d)
        above += int((saddle & (center > t)).sum())
        below += int((saddle & (center <= t)).sum())
    assert above > 0 and below > 0
    assert assert_matches_reference(f, scrambled(levels, f)) == len(levels) + 4


def test_level_at_a_plateau_value_matches_reference(disk_domain):
    # a terrace at 0.7: the level 0.7 equals both lower corners of the
    # blocks on the terrace's inner rim, whose segments run along the grid
    def terrace(X, Y):
        r = np.hypot(X, Y)
        return np.where(r < 0.3, 1.0 - r, np.where(r < 0.6, 0.7, 1.3 - r))

    f = ScalarField.from_function(disk_domain, 1.0 / 64, terrace)
    assert assert_matches_reference(f, [0.7, 0.65, 0.8]) == 3
    assert level_stats(f, 0.7).surface > 0.0


def test_single_level_without_prefill_matches_reference(disk_domain):
    f = ScalarField.from_function(disk_domain, 1.0 / 64, cone)
    ls = level_stats(ScalarField(f.grid, f.values), 0.37)
    ref = reference_level_stats(f, 0.37)
    assert (ls.surface, ls.coarea_integral, ls.reliable) == ref[:3]


def test_statistics_do_not_depend_on_the_chunking(monkeypatch, disk_domain, square_domain):
    # one level per chunk and one chunk for the whole level list give the
    # same cached statistics and the same usable-level tables as the budget
    fields = [ScalarField.from_function(disk_domain, 1.0 / 64, fn) for fn in (cone, paraboloid)]
    fields += [saddle_field(square_domain), *generated_fields(99, 4, 48.0)]
    chunks = []
    contour = rearrange._contour_chunk
    monkeypatch.setattr(rearrange, "_contour_chunk",
                        lambda f, b, levels: chunks.append(levels.size) or contour(f, b, levels))
    for f in fields:
        runs = []
        for budget in (rearrange._PAIR_BUDGET, 1, 10**9):
            monkeypatch.setattr(rearrange, "_PAIR_BUDGET", budget)
            fresh = ScalarField(f.grid, f.values)
            chunks.clear()
            tables = [_usable_levels(fresh, m) for m in (16, 96)]
            runs.append((fresh._contours, tables))
            assert chunks, budget
            if budget == 1:
                assert set(chunks) == {1}
            elif budget == 10**9:
                assert len(chunks) == 2
        assert len(runs[0][0]) > 40 and len(runs[0][1][1]) > 40
        assert runs[0] == runs[1] == runs[2]


def reference_slope(profile, s):
    """The per-coordinate profile slope that the batched fit replaced."""
    total = profile.total_measure
    base = math.sqrt(profile.cell_area * total)
    window = base * (0.75 + 2.25 * math.sqrt(max(s, 0.0) / total))
    window = max(window, 4.0 * profile.cell_area)
    lo = max(0.0, s - window)
    hi = min(total, s + window)
    if hi <= lo:
        return 0.0
    breaks = (np.arange(len(profile.levels)) + 0.5) * profile.cell_area
    i0 = int(np.searchsorted(breaks, lo, side="left"))
    i1 = int(np.searchsorted(breaks, hi, side="right"))
    if i1 - i0 < 8:
        return (profile.value(hi) - profile.value(lo)) / (hi - lo)
    x = breaks[i0:i1]
    y = profile.levels[i0:i1]
    xc = x - x.mean()
    denom = float(np.sum(xc * xc))
    if denom == 0.0:
        return 0.0
    return float(np.sum(xc * (y - y.mean()))) / denom


def assert_slopes_match_reference(profile, s):
    ref = np.array([reference_slope(profile, float(z)) for z in s])
    assert np.array_equal(profile.slope(np.asarray(s)), ref)


@pytest.mark.parametrize("cells", [6, 20, 40, 500, 5000])
def test_slopes_match_reference_on_synthetic_profiles(cells):
    # on 6 cells every window holds fewer than 8 breakpoints, on 20 and 40
    # some do; windows near 0 and near the total measure are clipped, and
    # coordinates far past the total measure give empty windows
    rng = np.random.default_rng(cells)
    profile = DecreasingProfile(np.sort(rng.random(cells))[::-1], 0.37 / cells)
    total = profile.total_measure
    s = np.concatenate([[0.0, 1e-300, total, total * (1 - 1e-12), 1.5 * total, 3.0 * total],
                        np.linspace(0.0, total, 41), rng.random(40) * total])
    assert_slopes_match_reference(profile, s)


def test_slopes_match_reference_at_the_usable_levels(disk_domain, square_domain):
    fields = [ScalarField.from_function(disk_domain, 1.0 / 64, cone), saddle_field(square_domain),
              *generated_fields(7, 4, 48.0)]
    for f in fields:
        s = distribution_function(f, quantile_levels(f, 96))
        assert_slopes_match_reference(decreasing_rearrangement(f), np.concatenate([[0.0], s]))


def reference_quantile_levels(field, m):
    """The quantile levels over the masked, unsorted active values."""
    vals = field.values_inside()
    vmin, vmax = field.value_range
    span = vmax - vmin
    active = vals[vals > vmin + 1e-12 * span]
    levels = np.quantile(active, (np.arange(m) + 0.5) / m)
    return np.unique(levels[(levels > vmin + 1e-9 * span) & (levels < vmax - 1e-9 * span)])


def test_quantile_levels_match_the_masked_form(half_disk_domain):
    rng = np.random.default_rng(11)
    fields = [random_admissible_field(half_disk_domain, 1.0 / 64, rng),
              *generated_fields(12, 10, 40.0)]
    for f in fields:
        for m in (16, 96):
            assert np.array_equal(quantile_levels(f, m), reference_quantile_levels(f, m))
