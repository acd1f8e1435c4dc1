"""Numerical verification of sharp Sobolev, isoperimetric, exponential-class,
and principal-frequency inequalities on planar domains whose boundary is
partially free, the free part being concave with respect to the domain."""

from .constants import (
    SharpConstants,
    critical_exponent,
    gamma_fn,
    isoperimetric_constants,
    moser_trudinger_beta,
    sharp_constants,
    sobolev_best_constant,
    sphere_area,
)
from .errors import (
    ConvergenceError,
    DegenerateCutError,
    DomainValidationError,
    ParameterError,
    PreconditionError,
)
from .geometry import (
    FIXED,
    FREE,
    GOLDEN_ANGLE,
    ConcavityReport,
    CutLine,
    IsoperimetricReport,
    LabeledDomain,
    RasterGrid,
    SymmetrizationResult,
    equal_volume_cut,
    is_concave_free_boundary,
    isoperimetric_report,
    rasterize,
    symmetrization_step,
    symmetrize_iterate,
)
from .domains import builtin_domain, random_concave_domain
from .rearrange import (
    DecreasingProfile,
    LevelStats,
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
from .quotients import (
    BlowupPoint,
    CounterexampleSpec,
    MoserReport,
    SobolevReport,
    counterexample_blowup,
    counterexample_domain,
    lp_norm,
    moser_report,
    normalize_energy,
    sobolev_report,
    talenti_bubble,
    talenti_profile,
)
from .spectral import (
    FrequencyReport,
    SpectralProblem,
    assemble,
    check_frequency_vs_half_ball,
    half_ball_reference,
    principal_frequency,
)

__version__ = "0.1.0"
