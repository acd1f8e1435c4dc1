import math

import numpy as np
import pytest

from freebdry import domains
from freebdry.cli import GRID_SLACK
from freebdry.constants import sobolev_best_constant
from freebdry.errors import PreconditionError
from freebdry.geometry import is_concave_free_boundary, rasterize
from freebdry.quotients import (
    CounterexampleSpec,
    counterexample_blowup,
    counterexample_domain,
    lp_norm,
    moser_report,
    normalize_energy,
    sobolev_report,
    talenti_bubble,
    talenti_profile,
)
from freebdry.rearrange import (
    ScalarField,
    check_rearrangement_energy_factor,
    random_admissible_field,
)


# -- lp norms -----------------------------------------------------------------

def test_lp_norm_constant(square_domain):
    f = ScalarField.from_function(square_domain, 1.0 / 64, lambda X, Y: np.ones_like(X))
    for q in (1.0, 2.0, 6.0):
        assert lp_norm(f, q) == pytest.approx(1.0, rel=1e-12)


def test_lp_norm_cone_q1(disk_cone_128):
    # int (1 - r) over the unit disk = pi/3
    assert lp_norm(disk_cone_128, 1.0) == pytest.approx(math.pi / 3.0, rel=0.01)


def test_lp_norm_homogeneous(disk_cone_128):
    assert lp_norm(disk_cone_128.scaled(3.0), 2.5) == pytest.approx(
        3.0 * lp_norm(disk_cone_128, 2.5), rel=1e-12
    )


@pytest.mark.parametrize("q", [0.5, math.nan, -math.inf])
def test_lp_norm_needs_q_at_least_1(disk_cone_128, q):
    with pytest.raises(PreconditionError):
        lp_norm(disk_cone_128, q)


# -- Sobolev reports ---------------------------------------------------------------

def test_sobolev_cone_above_bound(half_disk_cone_128):
    rep = sobolev_report(half_disk_cone_128, 1.5)
    assert rep.p_star == pytest.approx(6.0)
    assert rep.bound == pytest.approx(1.0 / (math.sqrt(2.0) * sobolev_best_constant(2, 1.5)))
    assert rep.quotient >= rep.bound * 0.98
    assert rep.margin == pytest.approx(rep.quotient - rep.bound)


def test_sobolev_scale_invariance(half_disk_cone_128):
    base = sobolev_report(half_disk_cone_128, 1.5).quotient
    for c in (1e-3, 1.0, 1e3):
        q = sobolev_report(half_disk_cone_128.scaled(c), 1.5).quotient
        assert q == pytest.approx(base, rel=1e-12)


def test_sobolev_zero_field_rejected(half_disk_domain):
    f = ScalarField.from_function(half_disk_domain, 1.0 / 64, lambda X, Y: np.zeros_like(X))
    with pytest.raises(PreconditionError):
        sobolev_report(f, 1.5)


def test_sobolev_bad_p_rejected(half_disk_cone_128):
    for p in (1.0, 2.0, 2.5):
        with pytest.raises(PreconditionError):
            sobolev_report(half_disk_cone_128, p)


def test_sobolev_trace_violation_rejected(half_disk_domain):
    f = ScalarField.from_function(half_disk_domain, 1.0 / 64, lambda X, Y: np.ones_like(X))
    with pytest.raises(PreconditionError, match="does not vanish on the fixed boundary"):
        sobolev_report(f, 1.5)
    # the constant field has no energy, so moser's energy check passes it
    with pytest.raises(PreconditionError, match="does not vanish on the fixed boundary"):
        moser_report(f)


def test_sobolev_random_admissible_suite():
    rng = np.random.default_rng(31)
    for _ in range(5):
        dom = domains.random_concave_domain(rng)
        f = random_admissible_field(dom, dom.diameter / 80.0, rng)
        rep = sobolev_report(f, 1.5)
        assert rep.quotient >= rep.bound * 0.98


def test_critical_norm_preserved_by_rearrangement(half_disk_cone_128):
    # the L^{p*} norm rides on the value distribution only, so the radial
    # rearrangement carries it over
    from freebdry.rearrange import radial_rearrangement

    star = radial_rearrangement(half_disk_cone_128)
    for q in (2.0, 6.0):
        assert lp_norm(star, q) == pytest.approx(lp_norm(half_disk_cone_128, q), rel=0.01)


def test_critical_norm_preserved_random():
    from freebdry.rearrange import radial_rearrangement

    rng = np.random.default_rng(12)
    for _ in range(3):
        dom = domains.random_concave_domain(rng)
        f = random_admissible_field(dom, dom.diameter / 80.0, rng)
        star = radial_rearrangement(f)
        assert lp_norm(star, 6.0) == pytest.approx(lp_norm(f, 6.0), rel=0.01)


# -- Talenti bubble ------------------------------------------------------------------

def test_profile_at_center():
    assert talenti_profile(1.5, 0.0) == pytest.approx(1.0)


def test_profile_at_eps():
    # p = 1.5: (1 + rho^3)^{-1/3} at rho = 1 is 2^{-1/3}
    assert talenti_profile(1.5, 1.0) == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-12)


def test_profile_superlevel_scaling(square_domain):
    # halving eps quarters the raw profile's super-level area
    grid = rasterize(square_domain, 1.0 / 128)
    counts = []
    for eps in (0.1, 0.05):
        f = ScalarField.on_grid(
            grid, lambda X, Y: talenti_profile(1.5, np.hypot(X - 0.5, Y - 0.5) / eps)
        )
        counts.append(int((f.values_inside() > 0.5).sum()))
    assert counts[0] / counts[1] == pytest.approx(4.0, rel=0.06)


def test_bubble_ladder_approaches_bound(half_disk_domain, half_disk_grid_128):
    gaps = []
    for eps in (0.2, 0.1, 0.05):
        b = talenti_bubble(half_disk_domain, 1.0 / 128, 1.5, eps, grid=half_disk_grid_128)
        rep = sobolev_report(b, 1.5)
        gaps.append((rep.quotient - rep.bound) / rep.bound)
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    assert gaps[-1] <= 0.10


def test_bubble_vanishes_near_fixed_boundary(half_disk_domain, half_disk_grid_128):
    b = talenti_bubble(half_disk_domain, 1.0 / 128, 1.5, 0.1, grid=half_disk_grid_128)
    X, Y = b.grid.cell_centers()
    d = half_disk_domain.distance_to_label(
        np.column_stack([X[b.grid.mask], Y[b.grid.mask]]), "fixed"
    )
    vals = b.values[b.grid.mask]
    assert np.abs(vals[d < 0.04]).max() == 0.0


def test_bubble_too_large_rejected(half_disk_domain):
    with pytest.raises(PreconditionError):
        talenti_bubble(half_disk_domain, 1.0 / 64, 1.5, 0.6)


@pytest.mark.parametrize("epsilon", [0.0, math.nan, -math.inf])
def test_bubble_scale_must_be_positive(half_disk_domain, epsilon):
    with pytest.raises(PreconditionError, match="bubble scale must be positive"):
        talenti_bubble(half_disk_domain, 1.0 / 64, 1.5, epsilon)


# -- exponential functional -----------------------------------------------------------

def test_moser_zero_field(half_disk_domain):
    f = ScalarField.from_function(half_disk_domain, 1.0 / 64, lambda X, Y: np.zeros_like(X))
    rep = moser_report(f)
    assert rep.functional == pytest.approx(rep.area, rel=1e-12)


def test_moser_identity_cone(half_disk_cone_128):
    f = normalize_energy(half_disk_cone_128)
    rep = moser_report(f)
    assert rep.identity_gap <= 0.02
    # moser's verdict next to the identity gap, the free-boundary Polya-Szego
    # factor at p = 2; functional >= area held for every field since exp >= 1
    lhs, rhs = check_rearrangement_energy_factor(f, 2.0)
    assert lhs <= rhs * (1.0 + GRID_SLACK)


def test_moser_identity_random():
    rng = np.random.default_rng(17)
    for _ in range(3):
        dom = domains.random_concave_domain(rng)
        f = normalize_energy(random_admissible_field(dom, dom.diameter / 80.0, rng))
        rep = moser_report(f)
        assert rep.identity_gap <= 0.02
        lhs, rhs = check_rearrangement_energy_factor(f, 2.0)
        assert lhs <= rhs * (1.0 + GRID_SLACK)


def test_moser_energy_constraint_enforced(half_disk_cone_128):
    big = half_disk_cone_128.scaled(3.0)
    with pytest.raises(PreconditionError):
        moser_report(big)


# -- counterexample domain ----------------------------------------------------------------

def test_counterexample_endpoints():
    a = 3.0
    dom = counterexample_domain(CounterexampleSpec(a=a))
    w, top = a ** (-1.0 / 3.0), a ** (1.0 / 3.0)
    assert dom.vertices[0] == pytest.approx([-w, top])
    assert dom.vertices[64] == pytest.approx([w, top])


def test_counterexample_area_exact():
    dom = counterexample_domain(CounterexampleSpec(a=5.0))
    assert dom.area == pytest.approx(1.5, abs=1e-9)


def test_counterexample_area_floor():
    # the region between the parabola and its chord has area 4/3, so the
    # cap that brings the total to 1.5 has positive height
    dom = counterexample_domain(CounterexampleSpec(a=5.0))
    assert dom.vertices[-2, 1] > dom.vertices[-3, 1]
    # sampled parabola region converges to 4/3 from below
    x = dom.vertices[: 65, 0]
    y = dom.vertices[: 65, 1]
    sampled = abs(0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))
    # the closing edge of this sub-loop is the chord; area within 0.1% of 4/3
    assert sampled < 4.0 / 3.0
    assert sampled == pytest.approx(4.0 / 3.0, rel=1e-3)


def test_counterexample_not_concave():
    dom = counterexample_domain(CounterexampleSpec(a=3.0))
    rep = is_concave_free_boundary(dom)
    assert not rep.concave
    # the region between the sampled parabola and its chord lies inside
    assert rep.overlap == pytest.approx(1.3330078125, rel=1e-9)


def test_counterexample_spec_validation():
    with pytest.raises(PreconditionError):
        CounterexampleSpec(a=0.5)
    with pytest.raises(PreconditionError):
        CounterexampleSpec(a=3.0, tau0=0.5)


def test_counterexample_scale_is_derived():
    # ln(1/lambda) = 2 a^2 exceeds a^2, as the construction needs
    assert CounterexampleSpec(a=2.0).log_inv_lambda == 8.0


# -- blow-up bounds ---------------------------------------------------------------------------

def test_blowup_monotone_unbounded():
    pts = counterexample_blowup([CounterexampleSpec(a=10.0**k) for k in range(1, 21)])
    lbs = [p.functional_lower_bound for p in pts]
    assert all(b > a for a, b in zip(lbs, lbs[1:]))
    # closed form pi (a/tau0)^{2 tau0/pi}
    for p_ in pts[:3]:
        expect = math.pi * (p_.a / 0.01) ** (2.0 * 0.01 / math.pi)
        assert p_.functional_lower_bound == pytest.approx(expect, rel=1e-12)
    assert lbs[-1] > lbs[0] * 1.3


def test_blowup_energy_bounds_in_unit_interval():
    pts = counterexample_blowup([CounterexampleSpec(a=10.0**k) for k in range(1, 21)])
    for p_ in pts:
        assert 0.0 < p_.energy_deficit < 1.0
        assert p_.energy_bound <= 1.0


def test_blowup_energy_closed_form():
    # with ln(1/lambda) = 2 a^2 the deficit is tau0 ln(a/tau0) / (2 pi a^2)
    a, tau0 = 7.0, 0.01
    pt = counterexample_blowup([CounterexampleSpec(a=a, tau0=tau0)])[0]
    expect = tau0 * math.log(a / tau0) / (2.0 * math.pi * a * a)
    assert pt.energy_deficit == pytest.approx(expect, rel=1e-14)
    assert pt.energy_bound == pytest.approx(1.0 - expect, rel=1e-14)


def test_blowup_deficit_shrinks_to_zero():
    pts = counterexample_blowup([CounterexampleSpec(a=10.0**k) for k in (2, 8, 20)])
    ds = [p.energy_deficit for p in pts]
    assert ds[0] > ds[1] > ds[2] > 0.0
