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

from .constants import moser_trudinger_beta, sobolev_best_constant
from .errors import PreconditionError
from .geometry import (
    FIXED,
    FREE,
    LabeledDomain,
    _signed_area,
    is_concave_free_boundary,
    rasterize,
)
from .rearrange import ScalarField, gradient_lp_norm, radial_rearrangement

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
    if q < 1.0:
        raise PreconditionError("lp_norm needs q >= 1")
    v = field.values_inside()
    return float((v**q).sum() * field.grid.cell_area) ** (1.0 / q)


@dataclass(frozen=True)
class SobolevReport:
    p: float
    p_star: float
    grad_norm: float
    lp_star_norm: float
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
    if not field.fixed_trace_ok():
        raise PreconditionError("field does not vanish on the fixed boundary")
    report = is_concave_free_boundary(field.grid.domain)
    if not report.concave:
        raise PreconditionError("free chain is not concave with respect to the domain")
    p_star = 2.0 * p / (2.0 - p)
    grad = gradient_lp_norm(field, p)
    lps = lp_norm(field, p_star)
    quotient = grad / lps
    bound = 1.0 / (math.sqrt(2.0) * sobolev_best_constant(2, p))
    return SobolevReport(
        p=p,
        p_star=p_star,
        grad_norm=grad,
        lp_star_norm=lps,
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
                   center=None, margin_fraction: float = 0.1,
                   grid=None) -> ScalarField:
    """Concentration probe: the radial extremal profile at scale ``epsilon``,
    truncated in value so it vanishes at distance >= R from the center,

        u(x) = max( U(|x - c|/eps) - U(R/eps), 0 ),

    with R chosen inside the fixed-boundary clearance of the center (reduced
    by ``margin_fraction`` of the inradius).  Subtracting the profile value
    instead of multiplying by a cutoff leaves the gradient untouched where u
    is positive, so the probe's quotient approaches the sharp bound as
    ``epsilon`` shrinks.  By construction u = 0 within the margin distance of
    the fixed boundary.
    """
    if epsilon <= 0.0:
        raise PreconditionError("bubble scale must be positive")
    if grid is None:
        grid = rasterize(domain, h)
    if center is None:
        chain = domain.free_chain_points(3)
        if len(chain) == 0:
            raise PreconditionError("no free boundary to center the bubble on")
        center = chain[1]  # arc-length midpoint of the free chain
    center = np.asarray(center, dtype=float)

    if domain.boundary_length(FIXED) > 0.0:
        clearance = float(domain.distance_to_label(center[None, :], FIXED)[0])
    else:
        clearance = float(domain.boundary_distance(center[None, :])[0])
    X, Y = grid.cell_centers()
    inradius = float(domain.boundary_distance(
        np.column_stack([X[grid.mask], Y[grid.mask]])).max())
    R = clearance - margin_fraction * inradius
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
    grad_n_norm: float
    functional: float
    area: float
    rearranged_functional: float

    @property
    def identity_gap(self) -> float:
        """Relative mismatch between the functional and its rearranged-disk
        value; equimeasurability makes this vanish in the continuum."""
        return abs(self.functional - self.rearranged_functional) / self.functional


def moser_report(field: ScalarField, grad_tol: float = 0.02) -> MoserReport:
    """Exponential functional sum exp(2 pi u^2) h^2 of a unit-energy field.

    Requires the Dirichlet energy to be at most 1 (+``grad_tol``).  The
    comparison value is the same functional of the field's own radial
    rearrangement on the equal-area disk, which by equimeasurability carries
    the same value up to grid error and is the quantity controlled by the
    disk bound.
    """
    beta = moser_trudinger_beta(2)
    grad2 = gradient_lp_norm(field, 2.0)
    if grad2**2 > 1.0 + grad_tol:
        raise PreconditionError(
            f"Dirichlet energy {grad2**2:.4f} exceeds the unit constraint"
        )
    if not field.fixed_trace_ok():
        raise PreconditionError("field does not vanish on the fixed boundary")
    cell = field.grid.cell_area
    functional = float(np.exp(beta * field.values_inside() ** 2).sum()) * cell
    star = radial_rearrangement(field)
    star_cell = star.grid.cell_area
    rearranged = float(np.exp(beta * star.values_inside() ** 2).sum()) * star_cell
    return MoserReport(
        grad_n_norm=grad2,
        functional=functional,
        area=field.area,
        rearranged_functional=rearranged,
    )


# ---------------------------------------------------------------------------
# the parabola counterexample
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleSpec:
    """Parameters of the concentration construction on the parabola domain.

    ``a`` is the parabola's curvature parameter (> 1); ``tau0`` the aperture
    constant (at most 1/100); the concentration scale lambda is stored
    through ``log_inv_lambda`` = ln(1/lambda), which must exceed a^2 -- for
    large ``a`` the scale itself underflows double precision, so only its
    logarithm is representable.
    """

    a: float
    tau0: float = 0.01
    log_inv_lambda: float | None = None

    def __post_init__(self):
        if not self.a > 1.0:
            raise PreconditionError("curvature parameter must exceed 1")
        if not 0.0 < self.tau0 <= 0.01:
            raise PreconditionError("aperture constant must lie in (0, 1/100]")
        if self.log_inv_lambda is None:
            object.__setattr__(self, "log_inv_lambda", 2.0 * self.a**2)
        if not self.log_inv_lambda > self.a**2:
            raise PreconditionError(
                "concentration scale must satisfy ln(1/lambda) > a^2"
            )

    @property
    def lam(self) -> float:
        """The concentration scale itself; 0.0 when it underflows."""
        return math.exp(-self.log_inv_lambda) if self.log_inv_lambda < 745 else 0.0


# area enclosed between the parabola y = a x^2 and its chord at height
# a^{1/3} over |x| <= a^{-1/3} is exactly 4/3, independent of a, so the
# region plus any cap above the chord can never have area below 4/3
MIN_PARABOLA_REGION_AREA = 4.0 / 3.0


def counterexample_domain(spec: CounterexampleSpec, segments: int = 64,
                          target_area: float = 1.5) -> LabeledDomain:
    """Parabola domain whose free chain violates concavity.

    The free chain samples y = a x^2 between (-a^{-1/3}, a^{1/3}) and
    (a^{-1/3}, a^{1/3}); the fixed boundary is a rectangular cap above the
    chord, its height solved so the total polygon area equals
    ``target_area`` exactly.  The region below the chord alone has area 4/3,
    so target areas at or below that are rejected.
    """
    a = spec.a
    w = a ** (-1.0 / 3.0)
    top = a ** (1.0 / 3.0)
    x = np.linspace(-w, w, segments + 1)
    parab = np.column_stack([x, a * x * x])

    # the sampled parabola starts and ends at (-w, top) and (w, top), so the
    # polyline closes along the chord by itself; its shoelace area is the
    # sampled region below the chord (slightly under the analytic 4/3)
    base_area = abs(_signed_area(parab))

    if target_area <= base_area + 1e-12:
        raise PreconditionError(
            f"target area {target_area} is unattainable: the region below the "
            f"chord already has area {base_area:.9f} (analytically >= 4/3)"
        )
    cap_height = (target_area - base_area) / (2.0 * w)
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
        if not isinstance(spec, CounterexampleSpec):
            spec = CounterexampleSpec(*spec) if isinstance(spec, tuple) else CounterexampleSpec(spec)
        log_term = math.log(spec.a / spec.tau0)
        deficit = spec.tau0 * log_term / (math.pi * spec.log_inv_lambda)
        lower = math.pi * math.exp(2.0 * spec.tau0 * log_term / math.pi)
        out.append(BlowupPoint(a=spec.a, energy_deficit=deficit,
                               functional_lower_bound=lower))
    return out
