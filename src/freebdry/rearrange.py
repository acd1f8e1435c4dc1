"""Equimeasurable rearrangement machinery on rasterized scalar fields.

The pipeline: a nonnegative :class:`ScalarField` sampled at the cell centers
of a rasterized domain is sorted into its one-dimensional decreasing profile
(:class:`DecreasingProfile`, the generalized inverse of the super-level-set
measure), then pushed onto the equal-area disk as a radially nonincreasing
:class:`ScalarField`.  Level-set statistics -- contour length and the coarea
integral of 1/|grad| -- are extracted by marching squares.  Each check hands
its whole level list to one batched pass per field, which contours the
levels in chunks of at most ``_PAIR_BUDGET`` crossed (block, level) pairs,
samples the gradient at the chunk's segment midpoints in one call, and keeps
one :class:`LevelStats` record per level in a contour cache on the field;
``level_stats`` reads one record from that cache.

A field's values are read-only, so the work that does not depend on the
exponent p is done once per field and kept on it: the sorted values, which
are the decreasing profile's levels and which ``distribution_function``
counts in, the usable records of each level count, and the radial
rearrangement u* with its gradient modulus.  A profile is a view of the
sorted values; its breakpoints are rebuilt per use, so that a field keeps
one array of its size more, not two.  Checks at several exponents on one
field only raise these to their powers.
The statistics feed the verification routines:

* ``check_slope_coarea_identity``  -- profile slope vs. 1/(coarea integral),
* ``check_profile_energy_bound``   -- profile Dirichlet energy vs. field energy
  in its coarea form, read from the level records alone,
* ``check_rearrangement_energy_factor`` -- the factor-2^{p/2} gradient bound
  for admissible fields on concave-free-boundary domains.

Gradients are plain central differences, falling back to one-sided at cells
with a missing neighbor; no boundary condition is imposed on the gradient
(the underlying integral inequalities hold for any smooth nonnegative
function).  Contour extraction mirrors values across boundary faces so level
curves never run along the boundary itself.  Both find a cell's neighbours
with ``geometry._shifted`` on the face-direction table ``_DIRS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PreconditionError
from .geometry import (
    _DIRS,
    FIXED,
    LabeledDomain,
    RasterGrid,
    _shifted,
    rasterize,
    require_admissible,
)

__all__ = [
    "ScalarField",
    "DecreasingProfile",
    "LevelStats",
    "distribution_function",
    "decreasing_rearrangement",
    "radial_rearrangement",
    "level_stats",
    "quantile_levels",
    "check_slope_coarea_identity",
    "check_profile_energy_bound",
    "check_rearrangement_energy_factor",
    "gradient_lp_norm",
    "random_admissible_field",
]


class ScalarField:
    """Nonnegative function values at the inside cell centers of a grid.

    ``values`` is read-only, so everything derived from it is computed on
    first use and kept on the field: the value range, the sorted values,
    the radial rearrangement, the gradient modulus, the mirror-extended
    values and modulus that contouring reads, each level's record, and the
    usable records of each level count."""

    def __init__(self, grid: RasterGrid, values):
        vals = np.asarray(values, dtype=float)
        if vals.shape != grid.mask.shape:
            raise ValueError("values must match the grid shape")
        inside = vals[grid.mask]
        if not np.isfinite(inside).all():
            raise ValueError("field values must be finite on the mask")
        vmax = float(np.abs(inside).max()) if inside.size else 0.0
        if inside.size and inside.min() < -1e-12 * max(vmax, 1.0):
            raise ValueError("field values must be nonnegative")
        self.grid = grid
        self.values = np.where(grid.mask, np.clip(vals, 0.0, None), 0.0)
        self.values.flags.writeable = False
        self._contours = {}  # level -> LevelStats
        self._usable = {}    # level count -> _usable_levels records

    @classmethod
    def from_function(cls, domain: LabeledDomain, h: float, fn) -> "ScalarField":
        return cls.on_grid(rasterize(domain, h), fn)

    @classmethod
    def on_grid(cls, grid: RasterGrid, fn) -> "ScalarField":
        X, Y = grid.cell_centers()
        return cls(grid, np.asarray(fn(X, Y), dtype=float))

    # -- basic queries ------------------------------------------------------

    @property
    def h(self) -> float:
        return self.grid.h

    @property
    def area(self) -> float:
        return self.grid.area()

    def values_inside(self) -> np.ndarray:
        return self.values[self.grid.mask]

    @cached_property
    def value_range(self) -> tuple[float, float]:
        vals = self.values_inside()
        return float(vals.min()), float(vals.max())

    @property
    def max_value(self) -> float:
        return self.value_range[1]

    @property
    def min_value(self) -> float:
        return self.value_range[0]

    @cached_property
    def sorted_values(self) -> np.ndarray:
        """The inside values in ascending order (read-only)."""
        out = np.sort(self.values_inside())
        out.flags.writeable = False
        return out

    @cached_property
    def radial(self) -> "ScalarField":
        """The radial rearrangement u* (``radial_rearrangement``)."""
        return radial_rearrangement(self)

    def scaled(self, c: float) -> "ScalarField":
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        return ScalarField(self.grid, self.values * c)

    # -- gradient -------------------------------------------------------------

    @property
    def gradient(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell (du/dx, du/dy): central differences where both neighbors
        exist, one-sided at cells with a missing neighbor, zero if isolated.
        x pairs the E/W neighbours of ``_DIRS``, y the N/S ones.  Only the
        modulus reads it, so it is not kept: a field keeps two arrays less."""
        return self._axis_derivative(*_DIRS[0:2]), self._axis_derivative(*_DIRS[2:4])

    def _axis_derivative(self, fwd: tuple[int, int], bwd: tuple[int, int]) -> np.ndarray:
        mask = self.grid.mask
        v = self.values
        h = self.grid.h
        fwd_v, bwd_v = (_shifted(v, *d, 0.0) for d in (fwd, bwd))
        fwd_ok, bwd_ok = (_shifted(mask, *d, False) & mask for d in (fwd, bwd))
        out = np.zeros_like(v)
        both = fwd_ok & bwd_ok
        out[both] = (fwd_v[both] - bwd_v[both]) / (2.0 * h)
        fonly = fwd_ok & ~bwd_ok
        out[fonly] = (fwd_v[fonly] - v[fonly]) / h
        bonly = bwd_ok & ~fwd_ok
        out[bonly] = (v[bonly] - bwd_v[bonly]) / h
        out[~mask] = 0.0
        return out

    @cached_property
    def grad_magnitude(self) -> np.ndarray:
        return np.hypot(*self.gradient)

    @cached_property
    def mirrored_values(self) -> np.ndarray:
        """The values extended one cell past the mask (``_mirror_extended``)."""
        return _mirror_extended(self, self.values)

    @cached_property
    def mirrored_grad(self) -> np.ndarray:
        """|grad u| extended one cell past the mask (``_mirror_extended``)."""
        return _mirror_extended(self, self.grad_magnitude)


# ---------------------------------------------------------------------------
# distribution function and decreasing profile
# ---------------------------------------------------------------------------

def distribution_function(field: ScalarField, t):
    """Measure of the strict super-level set { u > t } (cell counting): a
    float for one level, an array for an array of levels."""
    above = field.sorted_values.size - np.searchsorted(field.sorted_values, t, side="right")
    out = above * field.grid.cell_area
    return out if np.ndim(t) else float(out)


@dataclass
class DecreasingProfile:
    """One-dimensional decreasing rearrangement on [0, total_measure].

    ``levels`` holds the cell values sorted in descending order; the k-th
    value sits at measure coordinate (k + 1/2) * cell_area and the profile is
    the monotone piecewise-linear interpolant, extended by its end values.
    """

    levels: np.ndarray
    cell_area: float

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=float)
        self._breaks = (np.arange(len(self.levels)) + 0.5) * self.cell_area

    @property
    def total_measure(self) -> float:
        return len(self.levels) * self.cell_area

    def value(self, s) -> np.ndarray | float:
        out = np.interp(np.asarray(s, dtype=float), self._breaks, self.levels)
        return float(out) if np.isscalar(s) else out

    def slope(self, s: np.ndarray) -> np.ndarray:
        """Local slope at each measure coordinate of the array ``s``.

        A least-squares line is fitted to the profile over a window around
        each coordinate; the window scales like the geometric mean of the
        cell area and the total measure, which balances the cell-counting
        fluctuations of the sorted values against curvature bias.  A window
        of fewer than 8 breakpoints takes the chord between its ends, and an
        empty one gives 0.
        """
        s = np.asarray(s, dtype=float)
        total = self.total_measure
        # the sorted values carry cell-counting (lattice shell) noise that
        # grows with the super-level measure, so widen the fit window with s
        base = math.sqrt(self.cell_area * total)
        window = base * (0.75 + 2.25 * np.sqrt(np.maximum(s, 0.0) / total))
        window = np.maximum(window, 4.0 * self.cell_area)
        lo = np.maximum(0.0, s - window)
        hi = np.minimum(total, s + window)
        i0 = np.searchsorted(self._breaks, lo, side="left")
        i1 = np.searchsorted(self._breaks, hi, side="right")
        out = np.zeros_like(s)
        chord = (hi > lo) & (i1 - i0 < 8)
        out[chord] = ((self.value(hi[chord]) - self.value(lo[chord]))
                      / (hi[chord] - lo[chord]))
        for k in np.flatnonzero((hi > lo) & (i1 - i0 >= 8)):
            # np.add.reduce(x) / n is x.mean() bit for bit
            x = self._breaks[i0[k]:i1[k]]
            y = self.levels[i0[k]:i1[k]]
            xc = x - np.add.reduce(x) / x.size
            out[k] = np.add.reduce(xc * (y - np.add.reduce(y) / y.size)) / np.add.reduce(xc * xc)
        return out


def decreasing_rearrangement(field: ScalarField) -> DecreasingProfile:
    """The field's sorted cell values as its decreasing profile."""
    return DecreasingProfile(levels=field.sorted_values[::-1], cell_area=field.grid.cell_area)


def radial_rearrangement(field: ScalarField) -> ScalarField:
    """Push the field onto the equal-area disk, radially nonincreasing.

    The disk value at radius r is the profile evaluated at the measure of the
    concentric disk, pi r^2, which makes the output equimeasurable with the
    source up to grid quantization.  The disk grid is the source grid's
    ``equal_area_disk``, so every field on one grid shares one disk.
    """
    profile = decreasing_rearrangement(field)
    return ScalarField.on_grid(field.grid.equal_area_disk,
                               lambda X, Y: profile.value(math.pi * (X * X + Y * Y)))


# ---------------------------------------------------------------------------
# marching squares and level statistics
# ---------------------------------------------------------------------------

def _mirror_extended(field: ScalarField, quantity: np.ndarray) -> np.ndarray:
    """Extend a per-cell quantity one cell past the mask by mirroring: each
    outside cell adjacent to the mask gets the mean of its inside neighbors,
    summed in the order S, N, W, E.  Cells further out become NaN."""
    mask = field.grid.mask
    ext = np.where(mask, quantity, 0.0)
    acc = np.zeros_like(ext)
    cnt = np.zeros(mask.shape, dtype=int)
    for di, dj in reversed(_DIRS):
        take = ~mask & _shifted(mask, di, dj, False)
        acc[take] += _shifted(ext, di, dj, 0.0)[take]
        cnt[take] += 1
    out = np.full(mask.shape, np.nan)
    out[mask] = quantity[mask]
    ghost = cnt > 0
    out[ghost] = acc[ghost] / cnt[ghost]
    return out


# marching-squares case table: bit k set when corner k is above the level;
# corners ordered SW(0), SE(1), NE(2), NW(3); edges S(0), E(1), N(2), W(3)
_MS_SEGMENTS = {
    1: ((3, 0),),   # SW above
    2: ((0, 1),),   # SE above
    3: ((3, 1),),   # bottom row above
    4: ((1, 2),),   # NE above
    6: ((0, 2),),   # right column above
    7: ((3, 2),),   # all but NW above
    8: ((2, 3),),   # NW above
    9: ((0, 2),),   # left column above
    11: ((1, 2),),  # all but NE above
    12: ((1, 3),),  # top row above
    13: ((0, 1),),  # all but SE above
    14: ((3, 0),),  # all but SW above
}
# saddles, disambiguated by the block-center mean: (center above, center below)
_MS_SADDLE = {
    5: ((((0, 1), (2, 3))), (((3, 0), (1, 2)))),   # SW+NE above
    10: ((((3, 0), (1, 2))), (((0, 1), (2, 3)))),  # SE+NW above
}
# edge e runs from corner _EDGE_FROM[e] to corner _EDGE_TO[e]; its crossing
# is interpolated from the first corner towards the second
_EDGE_FROM = np.array([0, 1, 3, 0])
_EDGE_TO = np.array([1, 2, 2, 3])

# Crossed (block, level) pairs contoured together by one batched pass: a
# chunk takes levels while its pairs fit, and at least one level.  The pair
# arrays set the pass's peak memory.
_PAIR_BUDGET = 1 << 13


def _case_tables() -> tuple[np.ndarray, np.ndarray]:
    """Array forms of the case tables: the rank of each case in segment
    emission order (plain cases in table order, then the saddles), and
    ``edges[case, center below, k]`` = the (e0, e1) edges of the case's k-th
    segment, -1 where it has none."""
    order = [*_MS_SEGMENTS, *_MS_SADDLE]
    rank = np.zeros(16, dtype=np.int64)
    rank[order] = np.arange(len(order))
    edges = np.full((16, 2, 2, 2), -1, dtype=np.int64)
    for case, pairs in _MS_SEGMENTS.items():
        edges[case, :, 0] = pairs[0]
    for case, pairs in _MS_SADDLE.items():
        edges[case] = pairs
    return rank, edges


_CASE_RANK, _CASE_EDGES = _case_tables()


def _marching_blocks(field: ScalarField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2x2 blocks of the mirror-extended values that a level can cross:
    four finite corners, not all equal.  Returns, in row-major block order,
    the flat index into the extended array of each block's SW corner and
    its corner min and max."""
    ext = field.mirrored_values
    nx = ext.shape[1]
    a, b, c, d = ext[:-1, :-1], ext[:-1, 1:], ext[1:, 1:], ext[1:, :-1]
    lo = np.minimum(np.minimum(a, b), np.minimum(c, d)).ravel()
    hi = np.maximum(np.maximum(a, b), np.maximum(c, d)).ravel()
    live = np.flatnonzero(lo < hi)  # a NaN corner makes both NaN
    return live + live // (nx - 1), lo[live], hi[live]


def _contour_chunk(field: ScalarField, blocks: tuple[np.ndarray, ...],
                   levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Marching squares at every level of the sorted, distinct ``levels``.

    A block is crossed by exactly the levels t with min <= t < max of its
    corners; all (block, level) pairs are resolved at once.  Returns the
    (K, 2, 2) segments of all levels, ordered by level, then case, then
    saddle choice, then pair, then block, so that per-level sums match a
    case-by-case pass bit for bit, and each level's segment count.
    """
    sw, lo, hi = blocks
    ny, nx = field.mirrored_values.shape
    ext = field.mirrored_values.ravel()
    h = field.grid.h
    xs = field.grid.origin[0] + (np.arange(nx) + 0.5) * h
    ys = field.grid.origin[1] + (np.arange(ny) + 0.5) * h
    first = np.searchsorted(levels, lo, side="left")
    count = np.searchsorted(levels, hi, side="left") - first
    blk = np.repeat(sw, count)
    lev = np.repeat(first - (np.cumsum(count) - count), count) + np.arange(len(blk))
    t = levels[lev]
    corner = np.array([[0], [1], [nx + 1], [nx]])  # SW, SE, NE, NW offsets in ext
    v = ext[blk + corner]
    code = np.array([1, 2, 4, 8]) @ (v > t)
    below = ((code == 5) | (code == 10)) & (0.25 * (v[0] + v[1] + v[2] + v[3]) <= t)
    edges = _CASE_EDGES[code, below.astype(np.int64)]
    second = np.flatnonzero(edges[:, 1, 0] >= 0)
    pair = np.concatenate([np.arange(len(blk)), second])
    k = np.repeat([0, 1], [len(blk), len(second)])
    key = ((lev[pair] * 16 + _CASE_RANK[code[pair]]) * 2 + below[pair]) * 2 + k
    order = np.argsort(key, kind="stable")
    pair, k = pair[order], k[order]

    e = edges[pair, k]               # (S, 2): the edge of each endpoint
    p0 = blk[pair][:, None] + corner[_EDGE_FROM[e], 0]
    p1 = blk[pair][:, None] + corner[_EDGE_TO[e], 0]
    s = (t[pair][:, None] - ext[p0]) / (ext[p1] - ext[p0])
    (y0, x0), (y1, x1) = np.divmod(p0, nx), np.divmod(p1, nx)
    x = xs[x0] + s * (xs[x1] - xs[x0])
    y = ys[y0] + s * (ys[y1] - ys[y0])
    return np.stack([x, y], axis=-1), np.bincount(lev[pair], minlength=len(levels))


def _fill_contours(field: ScalarField, levels) -> None:
    """Contour every level of ``levels`` strictly inside the field's range
    that the field's contour cache lacks, in sorted chunks of at most
    ``_PAIR_BUDGET`` crossed (block, level) pairs, and cache each level's
    :class:`LevelStats`.  Segments of length at most 1e-14 h are dropped."""
    vmin, vmax = field.value_range
    todo = np.unique(np.asarray(levels, dtype=float))
    todo = todo[(todo > vmin) & (todo < vmax)]
    todo = todo[[float(t) not in field._contours for t in todo]]
    if todo.size == 0:
        return
    blocks = _marching_blocks(field)
    _, lo, hi = blocks
    # level j crosses the blocks with lo <= todo[j] < hi; upto[j] counts the
    # pairs of levels 0..j
    opened = np.bincount(np.searchsorted(todo, lo, side="left"), minlength=todo.size + 1)
    closed = np.bincount(np.searchsorted(todo, hi, side="left"), minlength=todo.size + 1)
    upto = np.cumsum(np.cumsum(opened - closed)[:-1])
    start = 0
    while start < todo.size:
        done = upto[start - 1] if start else 0
        stop = max(int(np.searchsorted(upto, done + _PAIR_BUDGET, side="right")), start + 1)
        chunk, start = todo[start:stop], stop
        segments, counts = _contour_chunk(field, blocks, chunk)
        lengths = np.hypot(*(segments[:, 1, :] - segments[:, 0, :]).T)
        keep = lengths > 1e-14 * field.grid.h
        ends = np.concatenate([[0], np.cumsum(keep)])[np.cumsum(counts)]
        segments, lengths = segments[keep], lengths[keep]
        # the sample is pointwise: one call per chunk gives each level's bits
        gmag = _bilinear_sample(field, 0.5 * (segments[:, 0, :] + segments[:, 1, :]))
        weights = lengths / np.clip(gmag, 1e-8, None)
        steep = gmag > 1e-8
        for t, a, b in zip(chunk.tolist(), [0, *ends[:-1].tolist()], ends.tolist()):
            field._contours[t] = LevelStats(t, float(lengths[a:b].sum()),
                                            float(weights[a:b].sum()),
                                            b > a and bool(steep[a:b].all()))


@dataclass(frozen=True)
class LevelStats:
    """Per-level contour statistics.

    ``surface``         -- total contour length S at the level,
    ``coarea_integral`` -- sum over the contour of ds / |grad u|,
    ``reliable``        -- False when |grad u| nearly vanishes somewhere on
                           the contour (near-critical level).
    """

    level: float
    surface: float
    coarea_integral: float
    reliable: bool


def level_stats(field: ScalarField, t: float) -> LevelStats:
    """Statistics of the level-t contour, read from the field's contour
    cache (contouring the level first if the cache lacks it).

    ``t`` must lie strictly between the field's minimum and maximum.  The
    gradient modulus is interpolated bilinearly at segment midpoints.
    """
    vmin, vmax = field.min_value, field.max_value
    if not vmin < t < vmax:
        raise PreconditionError(
            f"level {t} is not strictly between field range [{vmin}, {vmax}]"
        )
    if float(t) not in field._contours:
        _fill_contours(field, [t])
    return field._contours[float(t)]


def _bilinear_sample(field: ScalarField, points: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of |grad u| at arbitrary points, using the
    mirror-extended array so near-boundary samples stay defined."""
    ext = field.mirrored_grad
    ny, nx = ext.shape
    h = field.grid.h
    fx = (points[:, 0] - field.grid.origin[0]) / h - 0.5
    fy = (points[:, 1] - field.grid.origin[1]) / h - 0.5
    j0 = np.clip(np.floor(fx).astype(int), 0, nx - 2)
    i0 = np.clip(np.floor(fy).astype(int), 0, ny - 2)
    tx = np.clip(fx - j0, 0.0, 1.0)
    ty = np.clip(fy - i0, 0.0, 1.0)
    q00 = ext[i0, j0]
    q01 = ext[i0, j0 + 1]
    q10 = ext[i0 + 1, j0]
    q11 = ext[i0 + 1, j0 + 1]
    # NaN corners (far outside) fall back to the nearest finite corner mix
    stack = np.stack([q00, q01, q10, q11])
    w = np.stack([(1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty])
    bad = ~np.isfinite(stack)
    w = np.where(bad, 0.0, w)
    stack = np.where(bad, 0.0, stack)
    tot = w.sum(axis=0)
    tot[tot == 0.0] = 1.0
    return (stack * w).sum(axis=0) / tot


def quantile_levels(field: ScalarField, m: int = 64) -> np.ndarray:
    """Levels at the (k + 1/2)/m quantiles of the active (above-minimum)
    cell values, clipped away from the extremes."""
    vmin, vmax = field.value_range
    if vmax <= vmin:
        return np.empty(0)
    span = vmax - vmin
    # np.quantile reads order statistics only, so the sorted suffix serves
    vals = field.sorted_values
    active = vals[np.searchsorted(vals, vmin + 1e-12 * span, side="right"):]
    if active.size == 0:
        return np.empty(0)
    q = (np.arange(m) + 0.5) / m
    levels = np.quantile(active, q)
    levels = levels[(levels > vmin + 1e-9 * span) & (levels < vmax - 1e-9 * span)]
    return np.unique(levels)


# ---------------------------------------------------------------------------
# verification routines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeCoareaReport:
    max_rel_dev: float
    levels_used: int


def _usable_levels(field: ScalarField, m: int) -> tuple[LevelStats, ...]:
    """The records, in ascending level order, of the field's ``m`` quantile
    levels whose contour is usable: strictly inside the field's range,
    nonempty and away from critical points (``LevelStats.reliable``).  They
    depend on ``m`` only, so they are computed once per level count and
    kept on the field."""
    if m not in field._usable:
        levels = quantile_levels(field, m)
        _fill_contours(field, levels)
        field._usable[m] = tuple(
            ls for ls in (level_stats(field, t) for t in levels.tolist())
            if ls.reliable and ls.surface > 0.0 and ls.coarea_integral > 0.0)
    return field._usable[m]


def check_slope_coarea_identity(field: ScalarField) -> SlopeCoareaReport:
    """Compare 1/|profile slope| with the contour integral of ds/|grad u| at
    16 quantile levels; they agree for smooth fields by the coarea formula.

    Unusable levels and levels of zero slope are skipped.  Returns the
    maximum relative deviation over the levels used; raises
    ``PreconditionError`` when no level was usable, since a check over no
    level shows nothing.
    """
    usable = _usable_levels(field, 16)
    s = distribution_function(field, np.array([ls.level for ls in usable]))
    devs = []
    for ls, slope in zip(usable, decreasing_rearrangement(field).slope(s).tolist()):
        if slope != 0.0:
            rhs = ls.coarea_integral
            devs.append(abs(1.0 / abs(slope) - rhs) / rhs)
    if not devs:
        raise PreconditionError("no usable level for the slope/coarea identity")
    return SlopeCoareaReport(max(devs), len(devs))


def check_profile_energy_bound(field: ScalarField, p: float,
                               n_levels: int = 96) -> tuple[float, float]:
    """Both sides of the profile-energy inequality

        int_0^{|area|} |profile'(z)|^p S(z)^p dz  <=  int |grad u|^p .

    By the coarea formula, z = |{u > t}| has dz = -C(t) dt and
    |profile'| = 1/C, with C the contour integral of ds/|grad u|; so the
    left side is int S(t)^p C(t)^{1-p} dt, taken by trapezoid quadrature
    over the usable quantile levels with S and C from their records.
    Raises ``PreconditionError`` when fewer than 2 levels are usable: the
    quadrature then has no interval.
    """
    if not 1.0 < p < math.inf:
        raise PreconditionError("the profile energy bound needs a finite p > 1")
    usable = _usable_levels(field, n_levels)
    if len(usable) < 2:
        raise PreconditionError(
            f"the profile energy bound needs 2 usable levels, found {len(usable)}"
        )
    t, S, C = np.array([(ls.level, ls.surface, ls.coarea_integral) for ls in usable]).T
    lhs = float(np.trapezoid(S**p * C**(1.0 - p), t))
    rhs = gradient_lp_norm(field, p) ** p
    return lhs, rhs


def energy_factor(p: float) -> float:
    """The sharp factor 2^{p/2} of the rearranged-gradient bound."""
    return 2.0 ** (0.5 * p)


def check_rearrangement_energy_factor(field: ScalarField, p: float) -> tuple[float, float]:
    """Both sides of the rearranged-gradient bound

        int |grad u*|^p  <=  2^{p/2} int |grad u|^p

    for fields vanishing on the fixed boundary of a domain whose free chain
    is concave, with the factor of :func:`energy_factor`.  Returns (left
    integral, right-hand bound).
    """
    if not 1.0 < p < math.inf:
        raise PreconditionError("the energy factor bound needs a finite p > 1")
    require_admissible(field.grid.domain, field)
    lhs = gradient_lp_norm(field.radial, p) ** p
    rhs = energy_factor(p) * gradient_lp_norm(field, p) ** p
    return lhs, rhs


def gradient_lp_norm(field: ScalarField, p: float) -> float:
    """( sum |grad u|^p h^2 )^{1/p} over the inside cells."""
    if not p >= 1.0:
        raise PreconditionError("gradient norm needs p >= 1")
    g = field.grad_magnitude[field.grid.mask]
    return float((g ** p).sum() * field.grid.cell_area) ** (1.0 / p)


# ---------------------------------------------------------------------------
# random admissible fields
# ---------------------------------------------------------------------------

def random_admissible_field(domain: LabeledDomain, h: float,
                            rng: np.random.Generator,
                            grid: RasterGrid | None = None) -> ScalarField:
    """Sum of three Gaussian bumps tapered to zero near the fixed boundary.

    The taper is a quintic smoothstep of the distance to the fixed edges, so
    the field is admissible (vanishing fixed-boundary trace) and smooth
    enough for the level-set machinery.  A given ``grid`` must be a
    rasterization of ``domain``; its cached ``fixed_distance`` is the taper's
    distance.
    """
    if grid is None:
        grid = rasterize(domain, h)
    X, Y = grid.cell_centers()
    pts = grid.inside_centers
    diam = domain.diameter
    vals = np.zeros(len(pts))
    for _ in range(3):
        for _try in range(50):
            c = np.array([
                rng.uniform(X.min(), X.max()),
                rng.uniform(Y.min(), Y.max()),
            ])
            if domain.contains(c[None, :])[0]:
                break
        sigma = rng.uniform(0.08, 0.25) * diam
        amp = rng.uniform(0.5, 1.5)
        r2 = ((pts - c) ** 2).sum(axis=1)
        vals += amp * np.exp(-0.5 * r2 / sigma**2)
    if domain.boundary_length(FIXED) > 0.0:
        dist = grid.fixed_distance[grid.mask]
        w = 0.15 * math.sqrt(domain.area)
        s = np.clip(dist / w, 0.0, 1.0)
        vals *= s**3 * (10.0 - 15.0 * s + 6.0 * s**2)
    out = np.zeros(grid.shape)
    out[grid.mask] = vals
    return ScalarField(grid, out)
