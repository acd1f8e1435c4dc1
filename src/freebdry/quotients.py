"""Sobolev and exponential-class functionals against their sharp constants.

For an admissible field u (nonnegative, vanishing on the fixed boundary of a
domain with concave free chain, n = 2):

* ``sobolev_report``  -- the quotient ||grad u||_p / ||u||_{p*} against the
  sharp free-boundary bound 1 / (2^{1/2} k(2, p));
* ``talenti_bubble``  -- the radial extremal profile used as a concentration
  probe of sharpness, truncated to vanish near the fixed boundary;
* ``moser_report``    -- the exponential functional of a unit-energy field
  together with its rearranged-disk comparison value;
* ``counterexample_domain`` / ``counterexample_blowup`` -- the parabola
  domain whose free chain fails concavity, and the closed-form bounds showing
  the exponential functional blows up along it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import critical_exponent, moser_trudinger_beta, sobolev_best_constant
from .errors import PreconditionError
from .geometry import (
    FIXED,
    FREE,
    LabeledDomain,
    _signed_area,
    rasterize,
    require_admissible,
)
from .rearrange import ScalarField, gradient_lp_norm

__all__ = [
    "SobolevReport",
    "MoserReport",
    "CounterexampleSpec",
    "BlowupPoint",
    "lp_norm",
    "sobolev_report",
    "talenti_profile",
    "talenti_bubble",
    "normalize_energy",
    "moser_report",
    "counterexample_domain",
    "counterexample_blowup",
]


def lp_norm(field: ScalarField, q: float) -> float:
    """( sum |u|^q h^2 )^{1/q} over the inside cells."""
    if not q >= 1.0:
        raise PreconditionError("lp_norm needs q >= 1")
    v = field.values_inside()
    return float((v**q).sum() * field.grid.cell_area) ** (1.0 / q)


@dataclass(frozen=True)
class SobolevReport:
    p: float
    p_star: float
    quotient: float
    bound: float
    margin: float
    concavity_vacuous: bool = False


def sobolev_report(field: ScalarField, p: float) -> SobolevReport:
    """Evaluate the sharp-Sobolev quotient of an admissible field.

    Planar grids force 1 < p < 2.  The reported bound is
    1 / (2^{1/2} k(2, p)); for admissible fields the quotient sits above it
    up to discretization error, and the margin records by how much.
    """
    if not 1.0 < p < 2.0:
        raise PreconditionError("planar Sobolev reports need 1 < p < 2")
    if field.max_value <= 0.0:
        raise PreconditionError("the quotient of the zero field is undefined")
    report = require_admissible(field.grid.domain, field)
    p_star = critical_exponent(2, p)
    quotient = gradient_lp_norm(field, p) / lp_norm(field, p_star)
    bound = 1.0 / (math.sqrt(2.0) * sobolev_best_constant(2, p))
    return SobolevReport(
        p=p,
        p_star=p_star,
        quotient=quotient,
        bound=bound,
        margin=quotient - bound,
        concavity_vacuous=report.vacuous,
    )


def talenti_profile(p: float, rho) -> np.ndarray | float:
    """Radial extremal profile (1 + rho^{p/(p-1)})^{-(2-p)/p} at rho = r/eps,
    normalized to 1 at the origin (planar case)."""
    if not 1.0 < p < 2.0:
        raise PreconditionError("planar profiles need 1 < p < 2")
    rho = np.asarray(rho, dtype=float)
    out = (1.0 + rho ** (p / (p - 1.0))) ** (-(2.0 - p) / p)
    return float(out) if out.ndim == 0 else out


def talenti_bubble(domain: LabeledDomain, h: float, p: float, epsilon: float,
                   grid=None) -> ScalarField:
    """Concentration probe: the radial extremal profile at scale ``epsilon``,
    centered at the arc-length midpoint c of the free chain and truncated in
    value so it vanishes at distance >= R from the center,

        u(x) = max( U(|x - c|/eps) - U(R/eps), 0 ),

    with R chosen inside the fixed-boundary clearance of the center (reduced
    by a tenth of the inradius).  Subtracting the profile value
    instead of multiplying by a cutoff leaves the gradient untouched where u
    is positive, so the probe's quotient approaches the sharp bound as
    ``epsilon`` shrinks.  By construction u = 0 within the margin distance of
    the fixed boundary.  A given ``grid`` must be a rasterization of
    ``domain`` at spacing ``h``; the inradius is its cached ``inradius``.
    """
    if not epsilon > 0.0:
        raise PreconditionError("bubble scale must be positive")
    if grid is None:
        grid = rasterize(domain, h)
    chain = domain.free_chain_points(3)
    if len(chain) == 0:
        raise PreconditionError("no free boundary to center the bubble on")
    center = chain[1]  # arc-length midpoint of the free chain

    if domain.boundary_length(FIXED) > 0.0:
        clearance = float(domain.distance_to_label(center[None, :], FIXED)[0])
    else:
        clearance = float(domain.boundary_distance(center[None, :])[0])
    X, Y = grid.cell_centers()
    R = clearance - 0.1 * grid.inradius
    if R <= 2.0 * epsilon:
        raise PreconditionError(
            f"bubble scale {epsilon} too large for clearance {clearance}"
        )
    r = np.hypot(X - center[0], Y - center[1])
    shift = talenti_profile(p, R / epsilon)
    values = np.clip(talenti_profile(p, r / epsilon) - shift, 0.0, None)
    return ScalarField(grid, values)


def normalize_energy(field: ScalarField) -> ScalarField:
    """Rescale so the Dirichlet energy integral equals one."""
    g2 = gradient_lp_norm(field, 2.0)
    if g2 <= 0.0:
        raise PreconditionError("cannot normalize a field with zero gradient")
    return field.scaled(1.0 / g2)


@dataclass(frozen=True)
class MoserReport:
    functional: float
    area: float
    rearranged_functional: float

    @property
    def identity_gap(self) -> float:
        """Relative mismatch between the functional and its rearranged-disk
        value; equimeasurability makes this vanish in the continuum."""
        return abs(self.functional - self.rearranged_functional) / self.functional


def moser_report(field: ScalarField) -> MoserReport:
    """Exponential functional sum exp(2 pi u^2) h^2 of a unit-energy field.

    Requires the Dirichlet energy to be at most 1.02, a concave free chain
    and a field vanishing on the fixed boundary.  The
    comparison value is the same functional of the field's own radial
    rearrangement on the equal-area disk, which by equimeasurability carries
    the same value up to grid error and is the quantity controlled by the
    disk bound.
    """
    beta = moser_trudinger_beta(2)
    grad2 = gradient_lp_norm(field, 2.0)
    if grad2**2 > 1.0 + 0.02:
        raise PreconditionError(
            f"Dirichlet energy {grad2**2:.4f} exceeds the unit constraint"
        )
    require_admissible(field.grid.domain, field)
    cell = field.grid.cell_area
    functional = float(np.exp(beta * field.values_inside() ** 2).sum()) * cell
    star = field.radial
    star_cell = star.grid.cell_area
    rearranged = float(np.exp(beta * star.values_inside() ** 2).sum()) * star_cell
    return MoserReport(functional=functional, area=field.area, rearranged_functional=rearranged)


# ---------------------------------------------------------------------------
# the parabola counterexample
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleSpec:
    """Parameters of the concentration construction on the parabola domain.

    ``a`` is the parabola's curvature parameter (> 1, 8 a^2 finite); ``tau0`` the
    aperture constant (at most 1/100).
    """

    a: float
    tau0: float = 0.01

    def __post_init__(self):
        # NaN fails both; the energy deficit divides by pi ln(1/lambda) < 8 a^2
        if not (self.a > 1.0 and math.isfinite(8.0 * self.a * self.a)):
            raise PreconditionError("curvature parameter must exceed 1, with 8 a^2 finite")
        if not 0.0 < self.tau0 <= 0.01:
            raise PreconditionError("aperture constant must lie in (0, 1/100]")

    @property
    def log_inv_lambda(self) -> float:
        """ln(1/lambda) = 2 a^2 of the concentration scale lambda, which
        exceeds a^2 as the construction needs; for large ``a`` lambda itself
        underflows double precision, so only its logarithm is kept."""
        return 2.0 * self.a**2


def counterexample_domain(spec: CounterexampleSpec) -> LabeledDomain:
    """Parabola domain whose free chain violates concavity.

    The free chain samples y = a x^2 at 65 points between (-a^{-1/3},
    a^{1/3}) and (a^{-1/3}, a^{1/3}); the fixed boundary is a rectangular cap
    above the chord, of the positive height that makes the total polygon
    area 1.5 (the region below the chord alone has area just under 4/3).
    """
    segments = 64
    a = spec.a
    w = a ** (-1.0 / 3.0)
    top = a ** (1.0 / 3.0)
    x = np.linspace(-w, w, segments + 1)
    parab = np.column_stack([x, a * x * x])

    # the sampled parabola starts and ends at (-w, top) and (w, top), so the
    # polyline closes along the chord by itself; its shoelace area is the
    # sampled region below the chord (slightly under the analytic 4/3)
    base_area = abs(_signed_area(parab))
    cap_height = (1.5 - base_area) / (2.0 * w)
    verts = np.vstack([
        parab,
        [w, top + cap_height],
        [-w, top + cap_height],
    ])
    labels = [FREE] * segments + [FIXED] * 3
    return LabeledDomain(verts, labels)


@dataclass(frozen=True)
class BlowupPoint:
    a: float
    energy_deficit: float   # the exact positive amount by which energy < 1
    functional_lower_bound: float

    @property
    def energy_bound(self) -> float:
        """1 - deficit; may round to 1.0 when the deficit underflows the
        subtraction, which is why the deficit is the stored quantity."""
        return 1.0 - self.energy_deficit


def counterexample_blowup(specs) -> list[BlowupPoint]:
    """Closed-form bounds of the concentration construction, no grids.

    For each spec the Dirichlet energy of the truncated-logarithm profile is
    at most

        1 - tau0 ln(a / tau0) / (pi ln(1/lambda))          (in (0, 1)),

    while the exponential functional of the normalized profile is at least

        pi exp( 2 tau0 ln(a / tau0) / pi )  =  pi (a / tau0)^{2 tau0 / pi},

    which grows without bound in ``a``: the free chain of the parabola
    domain is not concave, and no uniform exponential bound survives.  The
    energy bound is reported through its deficit from 1, which stays exactly
    representable even when ln(1/lambda) ~ a^2 makes the deficit tiny.
    """
    out = []
    for spec in specs:
        log_term = math.log(spec.a / spec.tau0)
        deficit = spec.tau0 * log_term / (math.pi * spec.log_inv_lambda)
        lower = math.pi * math.exp(2.0 * spec.tau0 * log_term / math.pi)
        out.append(BlowupPoint(a=spec.a, energy_deficit=deficit,
                               functional_lower_bound=lower))
    return out
