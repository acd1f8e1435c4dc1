"""Closed-form sharp constants for the inequalities verified by this package.

Everything here is an elementary combination of the gamma function and powers
of pi, valid in every dimension n >= 2:

* ``sobolev_best_constant(n, p)`` -- the optimal constant of the whole-space
  Sobolev embedding W^{1,p} -> L^{p*}; the free-boundary version carries an
  extra factor 2^{1/n}.
* ``moser_trudinger_beta(n)`` -- the sharp exponent of the exponential-class
  inequality when the admissible functions vanish only on part of the
  boundary.
* ``isoperimetric_constants(n)`` -- the classical isoperimetric constant and
  its free-boundary counterpart, which is smaller by exactly 2^{-1/n}.

All functions are pure and cheap; nothing is cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

__all__ = [
    "gamma_fn",
    "sobolev_best_constant",
    "critical_exponent",
    "moser_trudinger_beta",
    "sphere_area",
    "isoperimetric_constants",
    "SharpConstants",
    "sharp_constants",
]

def gamma_fn(x: float) -> float:
    """Gamma function for positive real arguments (``math.gamma``); raises
    :class:`ParameterError` where it overflows a float (x above about 171.6),
    which bounds the dimension of every constant below."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma_fn requires a positive argument, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise ParameterError(f"gamma({x}) overflows a float: the dimension is too large") from None


def _check_dimension(n: int) -> int:
    if int(n) != n or n < 2:
        raise ParameterError(f"dimension must be an integer >= 2, got {n!r}")
    return int(n)


def critical_exponent(n: int, p: float) -> float:
    """Critical embedding exponent p* = np/(n - p) for 1 <= p < n."""
    n = _check_dimension(n)
    p = float(p)
    if not 1.0 <= p < n:
        raise ParameterError(f"critical_exponent requires 1 <= p < n, got p={p}, n={n}")
    return n * p / (n - p)


def sobolev_best_constant(n: int, p: float) -> float:
    """Best constant k(n, p) of the whole-space Sobolev inequality.

    For p > 1:

        k(n,p) = pi^{-1/2} n^{-1/p} ((p-1)/(n-p))^{1-1/p}
                 * { gamma(1+n/2) gamma(n) / (gamma(n/p) gamma(1+n-n/p)) }^{1/n}

    p = 1 is a removable singularity of the formula (the middle factor tends
    to 1), so that case is branched explicitly:

        k(n,1) = pi^{-1/2} n^{-1} gamma(1+n/2)^{1/n}
    """
    n = _check_dimension(n)
    p = float(p)
    if not 1.0 <= p < n:
        raise ParameterError(f"sobolev_best_constant requires 1 <= p < n, got p={p}, n={n}")
    if p == 1.0:
        return gamma_fn(1.0 + 0.5 * n) ** (1.0 / n) / (math.sqrt(math.pi) * n)
    ratio = (p - 1.0) / (n - p)
    block = (
        gamma_fn(1.0 + 0.5 * n)
        * gamma_fn(float(n))
        / (gamma_fn(n / p) * gamma_fn(1.0 + n - n / p))
    )
    if math.isfinite(block):
        middle = block ** (1.0 / n)
    else:  # gamma(1+n/2) gamma(n) overflows a float from about n = 130 on
        middle = math.exp((math.lgamma(1.0 + 0.5 * n) + math.lgamma(n)
                           - math.lgamma(n / p) - math.lgamma(1.0 + n - n / p)) / n)
    return (
        math.pi ** -0.5
        * n ** (-1.0 / p)
        * ratio ** (1.0 - 1.0 / p)
        * middle
    )


def sphere_area(n: int) -> float:
    """Surface area of the unit (n-1)-sphere in R^n: 2 pi^{n/2} / gamma(n/2)."""
    n = _check_dimension(n)
    return 2.0 * math.pi ** (0.5 * n) / gamma_fn(0.5 * n)


def moser_trudinger_beta(n: int) -> float:
    """Sharp exponent beta_n = n (omega_{n-1}/2)^{1/(n-1)} of the partially
    free exponential inequality; half the classical exponent's base because
    only an even reflection's worth of boundary is available."""
    n = _check_dimension(n)
    return n * (0.5 * sphere_area(n)) ** (1.0 / (n - 1))


def isoperimetric_constants(n: int) -> tuple[float, float]:
    """Return ``(iso_std, iso_free)``.

    ``iso_std``  -- classical sharp constant of |boundary| / |volume|^{1-1/n},
                    namely pi^{1/2} n / gamma(1+n/2)^{1/n}.
    ``iso_free`` -- its partially free counterpart, smaller by 2^{-1/n}:
                    pi^{1/2} n / (2 gamma(1+n/2))^{1/n}.
    """
    n = _check_dimension(n)
    iso_std = math.sqrt(math.pi) * n / gamma_fn(1.0 + 0.5 * n) ** (1.0 / n)
    return iso_std, iso_std * 2.0 ** (-1.0 / n)


@dataclass(frozen=True)
class SharpConstants:
    """Bundle of every named constant at a given (n, p)."""

    n: int
    p: float
    p_star: float
    sobolev: float          # k(n, p)
    moser_exponent: float   # beta_n
    sphere_area: float      # area of the unit (n-1)-sphere
    iso_std: float
    iso_free: float


def sharp_constants(n: int, p: float = 1.0) -> SharpConstants:
    """Evaluate the full constant set for dimension ``n`` and exponent ``p``."""
    iso_std, iso_free = isoperimetric_constants(n)
    return SharpConstants(
        n=int(n),
        p=float(p),
        p_star=critical_exponent(n, p),
        sobolev=sobolev_best_constant(n, p),
        moser_exponent=moser_trudinger_beta(n),
        sphere_area=sphere_area(n),
        iso_std=iso_std,
        iso_free=iso_free,
    )
