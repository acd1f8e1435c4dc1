import math
from collections import defaultdict

import numpy as np
import pytest

from freebdry import domains
from freebdry.cli import GRID_SLACK, holds
from freebdry.errors import PreconditionError
from freebdry.geometry import rasterize
from freebdry.quotients import talenti_bubble
from freebdry.rearrange import (
    ScalarField,
    check_profile_energy_bound,
    check_rearrangement_energy_factor,
    check_slope_coarea_identity,
    decreasing_rearrangement,
    distribution_function,
    gradient_lp_norm,
    level_stats,
    quantile_levels,
    radial_rearrangement,
    random_admissible_field,
)

H = 1.0 / 128


# -- distribution function ----------------------------------------------------

def test_distribution_constant_field(square_domain):
    f = ScalarField.from_function(square_domain, 1.0 / 32, lambda X, Y: np.full_like(X, 0.7))
    A = f.area
    assert distribution_function(f, 0.3) == pytest.approx(A)
    assert distribution_function(f, 0.7) == 0.0
    assert distribution_function(f, 1.1) == 0.0


def test_distribution_cone(disk_cone_128):
    for t in (0.3, 0.5, 0.7):
        mu = distribution_function(disk_cone_128, t)
        assert abs(mu - math.pi * (1 - t) ** 2) <= 3.0 * H


def test_distribution_linear(square_domain):
    f = ScalarField.from_function(square_domain, H, lambda X, Y: X)
    for t in (0.2, 0.5, 0.8):
        assert abs(distribution_function(f, t) - (1 - t)) <= 2.0 * H


def test_distribution_nonincreasing(disk_cone_128):
    ts = np.linspace(0.05, 0.95, 19)
    mus = [distribution_function(disk_cone_128, float(t)) for t in ts]
    assert all(b <= a for a, b in zip(mus, mus[1:]))


def _plateau_field():
    """A tapered random field cut flat below its 30% and above its 80%
    quantile: many cells at zero, many at the top value."""
    f = random_admissible_field(domains.half_disk(), 1.0 / 48, np.random.default_rng(3))
    lo, hi = np.quantile(f.values_inside(), [0.3, 0.8])
    return ScalarField(f.grid, np.clip(f.values - lo, 0.0, hi - lo))


@pytest.mark.parametrize("name", ["plateau", "disk_cone_128", "half_disk_cone_128"])
def test_distribution_equals_the_cell_count(name, request):
    # the count read from the sorted values must equal, bit for bit, the
    # count of cells above t, at ties, one ulp either side, outside the
    # range and at NaN
    f = _plateau_field() if name == "plateau" else request.getfixturevalue(name)
    vals = f.values_inside()
    distinct = np.unique(vals)
    assert distinct.size < vals.size  # ties
    ts = np.concatenate([distinct, np.nextafter(distinct, -np.inf),
                         np.nextafter(distinct, np.inf),
                         [vals.min() - 1.0, -np.inf, vals.max() + 1.0, np.inf, np.nan]])
    for start in range(0, ts.size, 256):
        chunk = ts[start:start + 256]
        counts = (vals[None, :] > chunk[:, None]).sum(axis=1)
        for t, count in zip(chunk, counts):
            assert distribution_function(f, float(t)) == float(count) * f.grid.cell_area, t


# -- decreasing rearrangement ---------------------------------------------------

def test_profile_constant_field(square_domain):
    f = ScalarField.from_function(square_domain, 1.0 / 32, lambda X, Y: np.full_like(X, 2.5))
    prof = decreasing_rearrangement(f)
    ss = np.linspace(0.0, prof.total_measure, 11)
    assert np.allclose(prof.value(ss), 2.5)


def test_profile_cone_closed_form(disk_cone_128):
    prof = decreasing_rearrangement(disk_cone_128)
    ss = np.linspace(0.01, disk_cone_128.area * 0.98, 40)
    err = np.abs(prof.value(ss) - (1.0 - np.sqrt(ss / math.pi)))
    assert err.max() <= 3.0 * H


def test_profile_two_valued_step(square_domain):
    f = ScalarField.from_function(square_domain, 1.0 / 32,
                                  lambda X, Y: (X < 0.5).astype(float))
    prof = decreasing_rearrangement(f)
    A = f.area
    cell = f.grid.cell_area
    assert prof.value(A / 2.0 - 2.0 * cell) == pytest.approx(1.0)
    assert prof.value(A / 2.0 + 2.0 * cell) == pytest.approx(0.0)


def test_profile_endpoints(disk_cone_128):
    prof = decreasing_rearrangement(disk_cone_128)
    assert prof.value(0.0) == pytest.approx(disk_cone_128.max_value)
    assert prof.value(prof.total_measure) == pytest.approx(disk_cone_128.min_value)


def test_profile_monotone_in_field(square_domain):
    rng = np.random.default_rng(4)
    grid = rasterize(square_domain, 1.0 / 48)
    u = random_admissible_field(square_domain, 1.0 / 48, rng, grid=grid)
    bump = ScalarField.on_grid(grid, lambda X, Y: 0.3 * np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.02))
    v = ScalarField(grid, u.values + bump.values)
    pu = decreasing_rearrangement(u)
    pv = decreasing_rearrangement(v)
    assert (pv.levels >= pu.levels - 1e-12).all()


# -- radial rearrangement ----------------------------------------------------------

def test_radial_fixed_point(disk_cone_128):
    star = radial_rearrangement(disk_cone_128)
    X, Y = star.grid.cell_centers()
    r = np.hypot(X, Y)[star.grid.mask]
    vals = star.values[star.grid.mask]
    err = np.abs(vals - np.clip(1.0 - r, 0.0, None))
    assert err.max() <= 2.0 * H + 0.02


def test_radial_half_disk_cone(half_disk_cone_128):
    star = radial_rearrangement(half_disk_cone_128)
    X, Y = star.grid.cell_centers()
    r = np.hypot(X, Y)[star.grid.mask]
    vals = star.values[star.grid.mask]
    err = np.abs(vals - np.clip(1.0 - math.sqrt(2.0) * r, 0.0, None))
    assert err.max() <= 3.0 * H


def test_radial_preserves_integral(half_disk_cone_128):
    def integral(f):
        return float(f.values_inside().sum()) * f.grid.cell_area

    star = radial_rearrangement(half_disk_cone_128)
    assert integral(star) == pytest.approx(integral(half_disk_cone_128), rel=0.01)


def test_radial_nonincreasing(half_disk_cone_128):
    star = radial_rearrangement(half_disk_cone_128)
    X, Y = star.grid.cell_centers()
    r = np.hypot(X, Y)[star.grid.mask]
    vals = star.values[star.grid.mask]
    order = np.argsort(r)
    diffs = np.diff(vals[order])
    assert (diffs <= 1e-12).sum() >= 0.99 * len(diffs)  # allow interp plateaus


def test_equimeasurable(half_disk_cone_128):
    star = radial_rearrangement(half_disk_cone_128)
    for t in (0.2, 0.5, 0.8):
        mu_u = distribution_function(half_disk_cone_128, t)
        mu_star = distribution_function(star, t)
        S = level_stats(half_disk_cone_128, t).surface
        assert abs(mu_u - mu_star) <= 4.0 * H * S


# -- level statistics ------------------------------------------------------------

def test_level_stats_cone(disk_cone_128):
    for t in (0.3, 0.5, 0.7):
        ls = level_stats(disk_cone_128, t)
        S_true = 2.0 * math.pi * (1.0 - t)
        assert ls.surface == pytest.approx(S_true, rel=0.03)
        assert ls.coarea_integral == pytest.approx(S_true, rel=0.03)  # |grad| = 1
        assert ls.reliable


def test_level_stats_paraboloid(disk_paraboloid_128):
    for t in (0.3, 0.6):
        ls = level_stats(disk_paraboloid_128, t)
        S_true = 2.0 * math.pi * math.sqrt(1.0 - t)
        assert ls.surface == pytest.approx(S_true, rel=0.03)
        assert ls.coarea_integral == pytest.approx(math.pi, rel=0.03)


def test_level_stats_two_bumps(square_domain):
    f = ScalarField.from_function(
        square_domain, 1.0 / 64,
        lambda X, Y: np.exp(-((X - 0.3) ** 2 + (Y - 0.5) ** 2) / 0.004)
        + np.exp(-((X - 0.7) ** 2 + (Y - 0.5) ** 2) / 0.004),
    )
    ls = level_stats(f, 0.5)
    # each component is roughly the circle exp(-r^2/0.004) = 1/2
    r_half = math.sqrt(0.004 * math.log(2.0))
    assert ls.surface == pytest.approx(2.0 * 2.0 * math.pi * r_half, rel=0.05)


def test_level_stats_out_of_range(disk_cone_128):
    with pytest.raises(PreconditionError):
        level_stats(disk_cone_128, 1.5)
    with pytest.raises(PreconditionError):
        level_stats(disk_cone_128, -0.1)


# -- slope vs coarea identity -------------------------------------------------------

def test_slope_coarea_cone_and_paraboloid(disk_cone_128, disk_paraboloid_128):
    for f in (disk_cone_128, disk_paraboloid_128):
        rep = check_slope_coarea_identity(f)
        assert rep.levels_used >= 10
        assert rep.max_rel_dev <= 0.05


def test_slope_coarea_refinement(disk_domain, disk_cone_128):
    from tests.conftest import cone

    fine = ScalarField.from_function(disk_domain, 1.0 / 256, cone)
    dev_c = check_slope_coarea_identity(disk_cone_128).max_rel_dev
    dev_f = check_slope_coarea_identity(fine).max_rel_dev
    assert dev_f < dev_c


def test_slope_coarea_constant_field_empty(square_domain):
    f = ScalarField.from_function(square_domain, 1.0 / 32, lambda X, Y: np.ones_like(X))
    with pytest.raises(PreconditionError, match="no usable level"):
        check_slope_coarea_identity(f)


# -- profile energy bound -----------------------------------------------------------------

def test_profile_energy_cone_equality(disk_cone_128):
    lhs, rhs = check_profile_energy_bound(disk_cone_128, 2.0)
    assert lhs <= rhs * 1.001
    assert lhs == pytest.approx(math.pi, rel=0.03)
    assert rhs == pytest.approx(math.pi, rel=0.03)


def test_profile_energy_paraboloid_equality(disk_paraboloid_128):
    lhs, rhs = check_profile_energy_bound(disk_paraboloid_128, 2.0)
    assert lhs <= rhs * 1.001
    assert lhs == pytest.approx(2.0 * math.pi, rel=0.03)
    assert rhs == pytest.approx(2.0 * math.pi, rel=0.03)


def test_profile_energy_constant_field(square_domain):
    f = ScalarField.from_function(square_domain, 1.0 / 32, lambda X, Y: np.zeros_like(X))
    with pytest.raises(PreconditionError, match="2 usable levels, found 0"):
        check_profile_energy_bound(f, 2.0)


def test_profile_energy_random_fields():
    rng = np.random.default_rng(9)
    for _ in range(4):
        dom = domains.random_concave_domain(rng)
        f = random_admissible_field(dom, dom.diameter / 72.0, rng)
        for p in (1.5, 2.0, 3.0):
            lhs, rhs = check_profile_energy_bound(f, p)
            assert lhs <= rhs * 1.02


@pytest.mark.parametrize("epsilon", [0.2, 0.1])
@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
def test_profile_energy_bubble_on_the_free_diameter(p, epsilon):
    # |grad u| is constant on each level set of a bubble centred on the free
    # diameter, an equality case, and rearrange allows lhs <= rhs (1 + slack);
    # at rearrange's default h, lhs / rhs reads 1.0169, 1.0122 and 1.0094 at
    # epsilon 0.2 and 0.9744, 0.9850 and 0.9922 at 0.1
    bubble = talenti_bubble(domains.half_disk(), 1.0 / 64, p, epsilon)
    lhs, rhs = check_profile_energy_bound(bubble, p)
    assert holds(lhs, rhs, GRID_SLACK, upper=True)


# -- rearranged-gradient energy factor ----------------------------------------------------

def test_energy_factor_half_disk_cone_saturates(half_disk_cone_128):
    lhs, rhs = check_rearrangement_energy_factor(half_disk_cone_128, 2.0)
    base = gradient_lp_norm(half_disk_cone_128, 2.0) ** 2
    assert base == pytest.approx(math.pi / 2.0, rel=0.02)
    assert lhs == pytest.approx(2.0 * base, rel=0.02)  # saturation of the factor
    assert lhs <= rhs * 1.02


def test_energy_factor_zero_field(half_disk_domain):
    f = ScalarField.from_function(half_disk_domain, 1.0 / 64, lambda X, Y: np.zeros_like(X))
    lhs, rhs = check_rearrangement_energy_factor(f, 2.0)
    assert lhs == 0.0 and rhs == 0.0


def test_energy_factor_interior_bump(square_free_bottom):
    f = ScalarField.from_function(
        square_free_bottom, 1.0 / 96,
        lambda X, Y: np.exp(-((X - 0.5) ** 2 + (Y - 0.65) ** 2) / 0.008),
    )
    lhs, rhs = check_rearrangement_energy_factor(f, 2.0)
    base = gradient_lp_norm(f, 2.0) ** 2
    assert lhs <= rhs * 1.02
    # an interior radial bump is its own rearrangement: full factor of slack
    assert rhs / lhs == pytest.approx(2.0, rel=0.15)


@pytest.mark.parametrize("p", [1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("check", [
    check_profile_energy_bound,
    check_rearrangement_energy_factor,
], ids=["profile-energy", "energy-factor"])
def test_level_checks_need_a_finite_p_above_1(half_disk_cone_128, check, p):
    # NaN fails every comparison, so each guard is written to fail on it
    with pytest.raises(PreconditionError, match="needs a finite p > 1"):
        check(half_disk_cone_128, p)


@pytest.mark.parametrize("p", [0.5, math.nan, -math.inf])
def test_gradient_norm_needs_p_at_least_1(half_disk_cone_128, p):
    with pytest.raises(PreconditionError):
        gradient_lp_norm(half_disk_cone_128, p)


def test_energy_factor_trace_violation(half_disk_domain):
    f = ScalarField.from_function(half_disk_domain, 1.0 / 64, lambda X, Y: np.ones_like(X))
    with pytest.raises(PreconditionError, match="does not vanish on the fixed boundary"):
        check_rearrangement_energy_factor(f, 2.0)


def test_energy_factor_nonconcave_rejected():
    from freebdry.quotients import CounterexampleSpec, counterexample_domain

    dom = counterexample_domain(CounterexampleSpec(a=2.0))
    f = ScalarField.from_function(dom, 0.02, lambda X, Y: np.clip(Y - 3.0 * X * X, 0, None) * np.clip(2.0 - Y, 0, None))
    with pytest.raises(PreconditionError):
        check_rearrangement_energy_factor(f, 2.0)


# -- gradient norm -----------------------------------------------------------------------

def test_gradient_norm_linear_field(square_domain):
    f = ScalarField.from_function(square_domain, 1.0 / 64, lambda X, Y: X)
    assert gradient_lp_norm(f, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_gradient_norm_cone(disk_cone_128):
    assert gradient_lp_norm(disk_cone_128, 2.0) == pytest.approx(math.sqrt(math.pi), rel=0.02)


def test_gradient_norm_homogeneous(disk_cone_128):
    n1 = gradient_lp_norm(disk_cone_128, 1.5)
    n2 = gradient_lp_norm(disk_cone_128.scaled(7.0), 1.5)
    assert n2 == pytest.approx(7.0 * n1, rel=1e-12)


# -- randomized equimeasurability sweep -----------------------------------------------------

def test_equimeasurability_random_sweep():
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(6):
        dom = domains.random_concave_domain(rng)
        f = random_admissible_field(dom, dom.diameter / 80.0, rng)
        star = radial_rearrangement(f)
        for t in quantile_levels(f, 6):
            S = level_stats(f, float(t)).surface
            if S <= 0.0:
                continue
            d = abs(distribution_function(f, float(t)) - distribution_function(star, float(t)))
            assert d <= 4.0 * f.h * S
            checked += 1
    assert checked >= 20


# -- field validation ------------------------------------------------------------------------

def test_negative_field_rejected(square_domain):
    grid = rasterize(square_domain, 1.0 / 32)
    with pytest.raises(ValueError):
        ScalarField(grid, np.full(grid.mask.shape, -1.0))


def test_nonfinite_field_rejected(square_domain):
    grid = rasterize(square_domain, 1.0 / 32)
    vals = np.ones(grid.mask.shape)
    vals[16, 16] = np.nan
    with pytest.raises(ValueError):
        ScalarField(grid, vals)


# -- work shared by the exponents ------------------------------------------------------------

def test_exponents_share_the_field_work(monkeypatch, tmp_path):
    # one rearrange call at three exponents contours each level once, in one
    # _contour_chunk and one gradient sample per chunk, sorts the field once
    # and builds one radial rearrangement; a chunk of several levels crosses
    # at most _PAIR_BUDGET (block, level) pairs
    from freebdry import rearrange
    from freebdry.cli import main

    calls = defaultdict(list)

    def count(target, fn, record=lambda args: None):
        def wrapper(*args, **kwargs):
            calls[target].append(record(args))
            return fn(*args, **kwargs)
        monkeypatch.setattr(target, wrapper)

    count("freebdry.rearrange._contour_chunk", rearrange._contour_chunk, lambda a: a[2].copy())
    count("freebdry.rearrange._bilinear_sample", rearrange._bilinear_sample)
    count("freebdry.rearrange.radial_rearrangement", rearrange.radial_rearrangement)
    count("numpy.sort", np.sort, lambda a: np.size(a[0]))
    h = 1.0 / 48
    argv = ["rearrange", "--domain", "halfdisk", "--h", str(h),
            "--p", "1.5", "--p", "2", "--p", "3", "--seed", "0"]
    assert main(argv + ["--quiet", "--out", str(tmp_path / "re.json")]) == 0
    monkeypatch.undo()

    field = random_admissible_field(domains.half_disk(), h, np.random.default_rng(0))
    vmin, vmax = field.value_range
    first = {float(t) for t in quantile_levels(field, 16) if vmin < t < vmax}
    second = {float(t) for t in quantile_levels(field, 96) if vmin < t < vmax} - first
    chunks = calls["freebdry.rearrange._contour_chunk"]
    contoured = np.concatenate(chunks)
    assert np.unique(contoured).size == contoured.size == len(first) + len(second)
    _, lo, hi = rearrange._marching_blocks(field)
    for chunk in chunks:
        crossed = (np.searchsorted(np.sort(lo), chunk, "right")
                   - np.searchsorted(np.sort(hi), chunk, "right"))
        assert chunk.size == 1 or crossed.sum() <= rearrange._PAIR_BUDGET
    assert len(chunks) > 2
    assert len(calls["freebdry.rearrange._bilinear_sample"]) == len(chunks)
    assert calls["numpy.sort"] == [field.values_inside().size]
    assert len(calls["freebdry.rearrange.radial_rearrangement"]) == 1


def test_checks_on_a_shared_field_equal_fresh_fields():
    dom = domains.random_concave_domain(np.random.default_rng(5))
    h = dom.diameter / 64.0

    def fresh():
        return random_admissible_field(dom, h, np.random.default_rng(17))

    shared = fresh()
    check_slope_coarea_identity(shared)
    for p in (1.5, 2.0, 3.0):
        for check in (check_profile_energy_bound, check_rearrangement_energy_factor):
            assert check(shared, p) == check(fresh(), p), (check.__name__, p)
