import math

import numpy as np
import pytest
from scipy.integrate import quad

from freebdry.constants import (
    critical_exponent,
    gamma_fn,
    isoperimetric_constants,
    moser_trudinger_beta,
    sharp_constants,
    sobolev_best_constant,
    sphere_area,
)


# -- gamma ---------------------------------------------------------------

def test_gamma_integers():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)


def test_gamma_half_integers_closed_form():
    # gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!)
    for k in range(0, 12):
        exact = math.factorial(2 * k) * math.sqrt(math.pi) / (4**k * math.factorial(k))
        assert gamma_fn(k + 0.5) == pytest.approx(exact, rel=1e-13)


def test_gamma_against_libm():
    xs = np.exp(np.linspace(math.log(0.5), math.log(50.0), 400))
    for x in xs:
        assert gamma_fn(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-12)


def test_gamma_recurrence_residual():
    xs = np.linspace(0.5, 49.0, 1000)
    worst = 0.0
    for x in xs:
        lhs = gamma_fn(float(x) + 1.0)
        rhs = float(x) * gamma_fn(float(x))
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst <= 1e-12


def test_gamma_domain_errors():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            gamma_fn(bad)


def test_gamma_small_argument_branch():
    assert gamma_fn(0.25) == pytest.approx(math.gamma(0.25), rel=1e-12)


# -- Sobolev constant ------------------------------------------------------

def _best_constant_by_radial_quadrature(n: int, p: float) -> float:
    """Independent oracle: evaluate the extremal radial profile's norms by
    quadrature; the best constant is the ratio of the two."""
    p_star = n * p / (n - p)
    q = p / (p - 1.0)
    expo = (n - p) / p

    def profile(r):
        return (1.0 + r**q) ** (-expo)

    def dprofile(r):
        return -expo * (1.0 + r**q) ** (-expo - 1.0) * q * r ** (q - 1.0)

    omega = sphere_area(n)
    num = quad(lambda r: profile(r) ** p_star * r ** (n - 1), 0.0, np.inf)[0]
    den = quad(lambda r: abs(dprofile(r)) ** p * r ** (n - 1), 0.0, np.inf)[0]
    return (omega * num) ** (1.0 / p_star) / (omega * den) ** (1.0 / p)


def test_sobolev_constant_p1_closed_form():
    assert sobolev_best_constant(2, 1.0) == pytest.approx(
        1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13
    )


@pytest.mark.parametrize("n,p", [(3, 2.0), (2, 1.5), (4, 2.0)])
def test_sobolev_constant_matches_extremal_profile(n, p):
    oracle = _best_constant_by_radial_quadrature(n, p)
    assert sobolev_best_constant(n, p) == pytest.approx(oracle, rel=1e-8)


def test_sobolev_constant_continuity_at_p1():
    k1 = sobolev_best_constant(3, 1.0)
    assert sobolev_best_constant(3, 1.0 + 1e-9) == pytest.approx(k1, rel=1e-6)
    diffs = [
        abs(sobolev_best_constant(3, 1.0 + h) - k1) for h in (1e-3, 1e-6, 1e-9)
    ]
    assert diffs[0] > diffs[1] > diffs[2]


def _sobolev_constant_by_lgamma(n, p):
    log_k = (
        -0.5 * math.log(math.pi)
        - math.log(n) / p
        + (1.0 - 1.0 / p) * math.log((p - 1.0) / (n - p))
        + (math.lgamma(1.0 + 0.5 * n) + math.lgamma(n)
           - math.lgamma(n / p) - math.lgamma(1.0 + n - n / p)) / n
    )
    return math.exp(log_k)


@pytest.mark.parametrize("n", [130, 150, 171])
@pytest.mark.parametrize("p", [1.5, 2.0])
def test_sobolev_constant_finite_where_the_gamma_product_overflows(n, p):
    # gamma(1 + n/2) gamma(n) overflows a float here, though gamma(n) does not
    assert not math.isfinite(gamma_fn(1.0 + 0.5 * n) * gamma_fn(n))
    k = sobolev_best_constant(n, p)
    assert math.isfinite(k)
    assert k == pytest.approx(_sobolev_constant_by_lgamma(n, p), rel=1e-12)


def test_sobolev_constant_domain_errors():
    for n, p in ((2, 2.0), (2, 0.5), (3, 3.5)):
        with pytest.raises(ValueError):
            sobolev_best_constant(n, p)
    with pytest.raises(ValueError):
        sobolev_best_constant(1, 0.5)


# -- critical exponent -----------------------------------------------------

def test_critical_exponent_values():
    assert critical_exponent(3, 2.0) == pytest.approx(6.0, abs=0)
    assert critical_exponent(2, 1.0) == pytest.approx(2.0, abs=0)
    assert critical_exponent(4, 2.0) == pytest.approx(4.0, abs=0)


def test_critical_exponent_errors():
    with pytest.raises(ValueError):
        critical_exponent(3, 3.0)
    with pytest.raises(ValueError):
        critical_exponent(3, 0.9)


# -- exponential-class exponent ----------------------------------------------

def test_beta_2_is_two_pi():
    assert moser_trudinger_beta(2) == pytest.approx(2.0 * math.pi, rel=1e-13)


def test_beta_3():
    assert moser_trudinger_beta(3) == pytest.approx(3.0 * math.sqrt(2.0 * math.pi), rel=1e-13)


def test_beta_half_exponent_identity():
    for n in range(2, 11):
        full = n * sphere_area(n) ** (1.0 / (n - 1))
        assert moser_trudinger_beta(n) == pytest.approx(
            full * 2.0 ** (-1.0 / (n - 1)), rel=1e-13
        )


def test_beta_increasing():
    vals = [moser_trudinger_beta(n) for n in range(2, 11)]
    assert all(b > a > 0.0 for a, b in zip(vals, vals[1:]))


# -- isoperimetric constants -----------------------------------------------

def test_isoperimetric_n2():
    iso_std, iso_free = isoperimetric_constants(2)
    assert iso_std == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-13)
    assert iso_free == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-13)


def test_isoperimetric_n3():
    iso_std, iso_free = isoperimetric_constants(3)
    expect_std = math.sqrt(math.pi) * 3.0 / math.gamma(2.5) ** (1.0 / 3.0)
    assert iso_std == pytest.approx(expect_std, rel=1e-12)
    assert iso_free == pytest.approx(expect_std / 2.0 ** (1.0 / 3.0), rel=1e-12)


def test_isoperimetric_factor_identity():
    for n in range(2, 11):
        iso_std, iso_free = isoperimetric_constants(n)
        assert iso_free * 2.0 ** (1.0 / n) == pytest.approx(iso_std, rel=1e-15)
        assert iso_free < iso_std


def test_sharp_constants_bundle():
    c = sharp_constants(2, 1.5)
    assert c.p_star == pytest.approx(6.0)
    assert c.sobolev == pytest.approx(sobolev_best_constant(2, 1.5))
    assert c.moser_exponent == moser_trudinger_beta(2)
    assert c.sphere_area == sphere_area(2)
    assert c.iso_free < c.iso_std
