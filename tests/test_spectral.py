import math

import numpy as np
import pytest
from scipy.sparse import diags
from scipy.sparse.linalg import splu
from scipy.special import j0 as scipy_j0, jn_zeros

from freebdry import domains, spectral
from freebdry.cli import GRID_SLACK
from freebdry.errors import ConvergenceError, PreconditionError
from freebdry.geometry import FACE_FIXED, rasterize
from freebdry.quotients import CounterexampleSpec, counterexample_domain
from freebdry.rearrange import ScalarField, gradient_lp_norm, radial_rearrangement
from freebdry.spectral import (
    assemble,
    check_frequency_vs_half_ball,
    first_bessel_zero,
    half_ball_reference,
    principal_frequency,
)


@pytest.fixture(scope="module")
def square_problem(square_domain):
    return assemble(square_domain, 1.0 / 64)


@pytest.fixture(scope="module")
def square_free_problem(square_free_bottom):
    return assemble(square_free_bottom, 1.0 / 64)


@pytest.fixture(scope="module")
def half_disk_eig_256():
    dom = domains.half_disk(segments=128)
    problem = assemble(dom, 1.0 / 256)
    lam, vec, iters = principal_frequency(problem)
    return dom, problem, lam, vec, iters


# -- assembly ---------------------------------------------------------------

def test_operator_symmetric(square_free_problem):
    A = square_free_problem.matrix
    assert abs(A - A.T).max() <= 1e-14 * abs(A).max()


def test_operator_positive_semidefinite(square_free_problem):
    rng = np.random.default_rng(2)
    A = square_free_problem.matrix
    for _ in range(100):
        v = rng.standard_normal(A.shape[0])
        assert float(v @ (A @ v)) >= 0.0


def test_quadratic_form_matches_face_energy(square_free_problem):
    """The matrix quadratic form must equal the face-difference energy:
    interior faces contribute (du)^2, fixed faces 2 u^2, free faces nothing."""
    prob = square_free_problem
    rng = np.random.default_rng(8)
    u = rng.standard_normal(prob.size)
    grid = prob.grid
    vals = np.zeros(grid.mask.shape)
    vals[grid.mask] = u  # the unknowns number the inside cells row by row
    energy = 0.0
    ny, nx = grid.mask.shape
    for i in range(ny):
        for j in range(nx):
            if not grid.mask[i, j]:
                continue
            # east and north interior faces, counted once
            if j + 1 < nx and grid.mask[i, j + 1]:
                energy += (vals[i, j + 1] - vals[i, j]) ** 2
            if i + 1 < ny and grid.mask[i + 1, j]:
                energy += (vals[i + 1, j] - vals[i, j]) ** 2
            for d in range(4):
                if grid.face_labels[i, j, d] == FACE_FIXED:
                    energy += 2.0 * vals[i, j] ** 2
    assert u @ (prob.matrix @ u) * grid.h**2 == pytest.approx(energy, rel=1e-12)


# -- eigenvalues against separation-of-variables oracles -----------------------

def test_square_all_fixed(square_problem):
    lam, _, _ = principal_frequency(square_problem)
    assert lam == pytest.approx(2.0 * math.pi**2, rel=0.01)


def test_square_bottom_free(square_free_problem):
    lam, _, _ = principal_frequency(square_free_problem)
    assert lam == pytest.approx(5.0 * math.pi**2 / 4.0, rel=0.01)


def test_eigenvalue_scaling(square_free_bottom):
    lam1, _, _ = principal_frequency(assemble(square_free_bottom, 1.0 / 32))
    big = square_free_bottom.transformed(scale=2.0)
    lam2, _, _ = principal_frequency(assemble(big, 2.0 / 32))
    assert lam2 == pytest.approx(lam1 / 4.0, rel=1e-10)


def test_convergence_order(square_domain):
    exact = 2.0 * math.pi**2
    errs = []
    for h in (1.0 / 32, 1.0 / 64, 1.0 / 128):
        lam, _, _ = principal_frequency(assemble(square_domain, h))
        errs.append(abs(lam - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


def test_half_disk_free_diameter(half_disk_eig_256):
    _, _, lam, _, _ = half_disk_eig_256
    j01 = first_bessel_zero()
    assert lam == pytest.approx(j01**2, rel=0.02)


def test_reflection_identity_half_disk_vs_disk(half_disk_eig_256):
    # the half-disk with free diameter carries the full disk's first
    # Dirichlet eigenvalue (even reflection across the flat face)
    _, _, lam_half, _, _ = half_disk_eig_256
    disk = domains.disk(segments=128)
    lam_disk, _, _ = principal_frequency(assemble(disk, 1.0 / 128))
    assert lam_half == pytest.approx(lam_disk, rel=0.02)


# -- Bessel oracle ----------------------------------------------------------------

def test_first_zero_vs_scipy():
    j01 = first_bessel_zero()
    assert abs(scipy_j0(j01)) <= 1e-12
    assert j01 == pytest.approx(float(jn_zeros(0, 1)[0]), abs=1e-9)


# -- half-ball reference ------------------------------------------------------------

def test_reference_matching_half_disk():
    j01 = first_bessel_zero()
    assert half_ball_reference(math.pi / 2.0) == pytest.approx(j01**2, rel=1e-12)


def test_reference_unit_volume():
    j01 = first_bessel_zero()
    assert half_ball_reference(1.0) == pytest.approx(j01**2 * math.pi / 2.0, rel=1e-12)


def test_reference_volume_scaling():
    assert half_ball_reference(2.0) == pytest.approx(half_ball_reference(1.0) / 2.0, rel=1e-14)


def test_reference_rejects_nonpositive():
    with pytest.raises(ValueError):
        half_ball_reference(0.0)


# -- the frequency bound -----------------------------------------------------------------

def test_frequency_bound_half_disk_equality(half_disk_eig_256):
    dom, _, lam, _, _ = half_disk_eig_256
    reference = half_ball_reference(dom.area)
    assert lam - reference >= -0.02 * reference
    assert lam == pytest.approx(reference, rel=0.02)


@pytest.mark.xfail(strict=True, reason="the staircase free faces along a slanted free "
                                       "diameter are first order (ROADMAP item 22)")
def test_frequency_bound_rotated_half_disk():
    # the half disk is an equality case wherever it is turned; at h = 1/16
    # its margin reads -0.46% of the reference unrotated and -2.23% turned
    # by 0.3, past the campaign's slack
    rep = check_frequency_vs_half_ball(domains.half_disk().transformed(angle=0.3), 1.0 / 16)
    assert rep.margin >= -GRID_SLACK * rep.reference


def test_frequency_bound_square_bottom_free(square_free_bottom):
    rep = check_frequency_vs_half_ball(square_free_bottom, 1.0 / 64)
    assert rep.lam == pytest.approx(5.0 * math.pi**2 / 4.0, rel=0.01)
    assert rep.reference == pytest.approx(half_ball_reference(1.0), rel=1e-12)
    assert rep.margin > 0.0
    assert not rep.concavity_vacuous


def test_frequency_bound_vacuous_flag(square_domain):
    rep = check_frequency_vs_half_ball(square_domain, 1.0 / 64)
    assert rep.concavity_vacuous
    assert rep.lam == pytest.approx(2.0 * math.pi**2, rel=0.01)
    assert rep.margin > 0.0


def test_frequency_bound_rejects_nonconcave():
    dom = counterexample_domain(CounterexampleSpec(a=3.0))
    with pytest.raises(PreconditionError):
        check_frequency_vs_half_ball(dom, 0.02)


def test_eigenfunction_rearrangement_route(half_disk_eig_256):
    # the computed eigenfunction must satisfy the factor-2 gradient bound
    _, problem, _, vec, _ = half_disk_eig_256
    vals = np.zeros(problem.grid.mask.shape)
    vals[problem.grid.mask] = vec
    u = ScalarField(problem.grid, np.clip(vals, 0.0, None))
    star = radial_rearrangement(u)
    lhs = gradient_lp_norm(star, 2.0) ** 2
    rhs = 2.0 * gradient_lp_norm(u, 2.0) ** 2
    assert lhs <= rhs * 1.02


def test_randomized_concave_suite_margin():
    rng = np.random.default_rng(41)
    count = 0
    while count < 4:
        dom = domains.random_concave_domain(rng)
        h = min(dom.bbox[2] - dom.bbox[0], dom.bbox[3] - dom.bbox[1]) / 64.0
        rep = check_frequency_vs_half_ball(dom, h)
        assert rep.margin >= -0.02 * rep.reference
        count += 1


# -- solver plumbing ---------------------------------------------------------------------

def test_no_fixed_face_rejected():
    # all-free square: pure Neumann operator is singular
    pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    from freebdry.geometry import LabeledDomain

    dom = LabeledDomain(pts, ["free"] * 4)
    prob = assemble(dom, 1.0 / 16)
    with pytest.raises(PreconditionError):
        principal_frequency(prob)


# -- factorization --------------------------------------------------------------

# (lambda, LOBPCG steps) at h = 1/64, where every builtin has coarse levels;
# each lambda within 3.1e-15 relative of inverse iteration run to
# ||Ax - lambda x|| <= 1e-11 lambda
_EIG_H64 = {
    "halfdisk": (5.782294610216687, 12),
    "square-bottom-free": (12.33490000792279, 13),
    "lshape": (9.629857919707147, 15),
    "trapezoid": (3.6894635061749437, 12),
    "annulus": (35.64882142134044, 35),
}


@pytest.mark.parametrize("name", sorted(_EIG_H64))
def test_eigenvalue_regression_h64(name):
    lam_ref, iters_ref = _EIG_H64[name]
    lam, _, iters = principal_frequency(assemble(domains.builtin_domain(name), 1.0 / 64))
    assert lam == pytest.approx(lam_ref, rel=1e-12, abs=0.0)
    assert iters == iters_ref


def test_factor_fill_below_colamd(monkeypatch):
    factors = []

    def recording_splu(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    # principal_frequency imports splu when it runs, so patch it at its source
    monkeypatch.setattr("scipy.sparse.linalg.splu", recording_splu)
    # at most _COARSEST unknowns: the whole operator is factored (1,614
    # unknowns, 0.667 of COLAMD's fill)
    problem = assemble(domains.builtin_domain("halfdisk"), 1.0 / 32)
    assert problem.size <= spectral._COARSEST
    principal_frequency(problem)
    (lu,) = factors
    colamd = splu(problem.matrix.tocsc())
    assert lu.L.nnz + lu.U.nnz < 0.7 * (colamd.L.nnz + colamd.U.nnz)
    # above it, the coarsest level only (759 of 6,446 unknowns)
    factors.clear()
    problem = assemble(domains.builtin_domain("halfdisk"), 1.0 / 64)
    assert problem.size > spectral._COARSEST
    principal_frequency(problem)
    (lu,) = factors
    assert lu.shape[0] <= spectral._COARSEST


# -- LOBPCG against an independent reference; the coarse hierarchy ---------------------

def _lu_reference(problem):
    """Inverse iteration on a sparse LU of the whole operator from the
    solver's start vector, run until ||Ax - lambda x|| <= 1e-10 lambda: an
    eigenpair that shares no code with the LOBPCG loop."""
    A = problem.matrix.tocsc()
    lu = splu(A, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    x = np.random.default_rng(spectral._SEED).uniform(0.5, 1.5, problem.size)
    for _ in range(2000):
        x = lu.solve(x)
        x /= np.linalg.norm(x)
        lam = float(x @ (A @ x))
        if np.linalg.norm(A @ x - lam * x) <= 1e-10 * lam:
            return lam, x
    raise AssertionError("reference inverse iteration did not converge")


@pytest.fixture(scope="module")
def half_disk_128():
    return assemble(domains.builtin_domain("halfdisk"), 1.0 / 128)


# both sides of _COARSEST: the half disk (1,614 unknowns) and the
# square-bottom-free (1,024) at h = 1/32 factor the whole operator; the other
# builtins at h = 1/32 (3,072 each, the annulus's small spectral gap included)
# and the rest run a coarse hierarchy
@pytest.mark.parametrize("name", [
    "halfdisk-32", "square-bottom-free-32", "lshape-32", "trapezoid-32", "annulus-32",
    "random-6000", "halfdisk-128", "lshape-96", "annulus-96", "random-30000",
])
def test_matches_lu_reference(name):
    kind, size = name.rsplit("-", 1)
    if kind == "random":
        dom = domains.random_concave_domain(np.random.default_rng(3))
        x0, y0, x1, y1 = dom.bbox
        h = math.sqrt((x1 - x0) * (y1 - y0) / int(size))  # about `size` cells in the box
    else:
        dom, h = domains.builtin_domain(kind), 1.0 / int(size)
    problem = assemble(dom, h)
    lam, vec, _ = principal_frequency(problem)
    lam_ref, vec_ref = _lu_reference(problem)
    assert abs(lam - lam_ref) <= 1e-9 * lam_ref
    assert abs(vec @ vec_ref) >= 1.0 - 1e-8
    assert vec.sum() > 0.0


# one input with no coarse level (1,024 unknowns), one with coarse levels
_ONE_AND_MANY_LEVELS = pytest.mark.parametrize("name, inv_h", [("square", 32), ("halfdisk", 128)])


@_ONE_AND_MANY_LEVELS
def test_multigrid_deterministic(name, inv_h):
    problem = assemble(domains.builtin_domain(name), 1.0 / inv_h)
    lam1, v1, it1 = principal_frequency(problem)
    lam2, v2, it2 = principal_frequency(problem)
    assert lam1 == lam2 and it1 == it2
    assert np.array_equal(v1, v2)


@pytest.mark.parametrize("name, inv_h", [("halfdisk", 128), ("annulus", 96)])
def test_multigrid_coarse_levels_stay_sparse(name, inv_h, monkeypatch):
    # 3x3 aggregates keep every coarse level near nine nonzeros a row (8.3
    # and 8.0 here); 2x2 ones grew the coarsest level's to 34.3 and 33.0
    coarsest = []

    def recording_splu(A, *args, **kwargs):
        coarsest.append(A)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr("scipy.sparse.linalg.splu", recording_splu)
    problem = assemble(domains.builtin_domain(name), 1.0 / inv_h)
    assert problem.size > spectral._COARSEST
    principal_frequency(problem)
    (A,) = coarsest
    assert A.nnz <= 10 * A.shape[0]


@pytest.mark.parametrize("name, inv_h, max_steps", [("halfdisk", 128, 20), ("annulus", 96, 50)])
def test_multigrid_step_cap(name, inv_h, max_steps):
    # a weakened V-cycle may still converge within _MAX_ITER; the
    # preconditioner measured 14 and 39 steps here
    _, _, steps = principal_frequency(assemble(domains.builtin_domain(name), 1.0 / inv_h))
    assert steps <= max_steps


# (lambda, LOBPCG steps) from scipy's lobpcg on the same hierarchy, before the
# in-module loop replaced it
_EIG_MULTIGRID = {
    ("halfdisk", 128): (5.79167850569391, 14),
    ("annulus", 96): (35.68956649602541, 39),
}


@pytest.mark.parametrize("name, inv_h", sorted(_EIG_MULTIGRID))
def test_multigrid_loop_steps_and_residual(name, inv_h, monkeypatch):
    top_level_cycles = 0
    vcycle = spectral._vcycle

    def counting_vcycle(levels, lu, r, k=0):
        nonlocal top_level_cycles
        top_level_cycles += k == 0
        return vcycle(levels, lu, r, k)

    monkeypatch.setattr(spectral, "_vcycle", counting_vcycle)
    problem = assemble(domains.builtin_domain(name), 1.0 / inv_h)
    assert problem.size > spectral._COARSEST
    lam, vec, steps = principal_frequency(problem)
    # one preconditioner application a step
    assert steps == top_level_cycles
    A = problem.matrix
    assert np.linalg.norm(A @ vec - lam * vec) <= spectral._TOL / problem.grid.h**2
    lam_ref, steps_ref = _EIG_MULTIGRID[name, inv_h]
    assert lam == pytest.approx(lam_ref, rel=1e-12, abs=0.0)
    assert steps == steps_ref


@_ONE_AND_MANY_LEVELS
def test_multigrid_convergence_budget(name, inv_h, monkeypatch):
    problem = assemble(domains.builtin_domain(name), 1.0 / inv_h)
    monkeypatch.setattr(spectral, "_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match="did not converge in 2 steps"):
        principal_frequency(problem)


def test_multigrid_stiff_fixed_faces(half_disk_128):
    # fixed faces adding 100/h^2 instead of 2/h^2, as pinning zero at a
    # tenth of a cell from the centre would: D^-1 A keeps its bound of 2
    grid = half_disk_128.grid
    fixed_faces = (grid.face_labels[grid.mask] == FACE_FIXED).sum(axis=1)
    stiff = spectral.SpectralProblem(
        matrix=(half_disk_128.matrix + diags(49.0 * 2.0 * fixed_faces / grid.h**2)).tocsr(),
        grid=grid,
    )
    lam, vec, _ = principal_frequency(stiff)
    lam_ref, vec_ref = _lu_reference(stiff)
    assert abs(lam - lam_ref) <= 1e-9 * lam_ref
    assert abs(vec @ vec_ref) >= 1.0 - 1e-8
