"""Principal frequency of a membrane with mixed fixed/free boundary.

The five-point Laplacian is assembled over the inside cells of a rasterized
domain, numbered on the flat grid padded by one outside cell, so that a
cell's neighbours sit at fixed offsets (+-1 and +-(nx + 2)) and none falls
off the array.  Faces toward the outside contribute according to their label:

* fixed faces pin the value to zero *at the face* (mirrored ghost), adding
  2/h^2 to the diagonal.  On a staircase of a curved fixed boundary this is
  not second order: on the half disk the error against j01^2 is +3.2e-3,
  +1.4e-3, +4.1e-4 and +3.8e-4 at h = 1/40 to 1/320 (ROADMAP item 17);
* free faces mirror the value evenly (natural/Neumann), adding nothing.

The smallest eigenpair comes from a single-vector LOBPCG loop of this
module, started from a seeded random positive vector so that runs are
reproducible, and preconditioned by a smoothed-aggregation V-cycle that
factors only its coarsest level, of at most ``_COARSEST`` unknowns: the
whole operator if no larger.  The comparison value is the half-ball reference:
half the first Dirichlet eigenvalue of the equal-area disk, which an even
reflection identifies with the half-disk whose flat face is free.

``eig`` is the only campaign that needs scipy (``scipy.sparse`` for the
operator and its LU, ``scipy.linalg.eigh`` for LOBPCG's 3x3 Rayleigh-Ritz
step, ``scipy.special`` for the Bessel zero), so this module imports it
inside the functions that use it: a process loads scipy on its first
``eig``, and every other campaign starts without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .geometry import (
    _DIRS,
    FACE_FIXED,
    LabeledDomain,
    RasterGrid,
    rasterize,
    require_admissible,
)

if TYPE_CHECKING:
    from scipy import sparse

# LOBPCG: step budget, start-vector seed, residual tolerance (times 1/h^2)
_MAX_ITER = 500
_SEED = 0x5EED
_TOL = 1e-9
_COARSEST = 2000  # coarsen until at most this many unknowns are left to factor

__all__ = [
    "SpectralProblem",
    "FrequencyReport",
    "assemble",
    "principal_frequency",
    "first_bessel_zero",
    "half_ball_reference",
    "check_frequency_vs_half_ball",
]


@dataclass
class SpectralProblem:
    """Sparse symmetric positive semidefinite operator over the inside cells."""

    matrix: sparse.csr_matrix
    grid: RasterGrid

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def assemble(domain: LabeledDomain, h: float) -> SpectralProblem:
    """Assemble the mixed-boundary five-point Laplacian on the domain's
    grid of spacing ``h``."""
    from scipy import sparse

    grid = rasterize(domain, h)
    ny, nx = grid.shape
    # number the inside cells on the flat grid padded by one outside cell, so
    # every neighbour is one gather at a fixed offset and never off the array
    w = nx + 2
    cells = np.flatnonzero(grid.mask)
    padded = cells + 2 * (cells // nx) + w + 1
    index = np.full((ny + 2) * w, -1, dtype=np.int64)
    n = len(cells)
    index[padded] = np.arange(n)

    # each row's columns in ascending order: S, W, centre, E, N (slots 0-4),
    # so the CSR arrays come straight from masking an (n, 5) table; the
    # faces of _DIRS (E, W, N, S) sit at slots 3, 1, 4 and 0
    slots = [3, 1, 4, 0]
    offsets = np.zeros(5, dtype=np.int64)
    offsets[slots] = [di * w + dj for di, dj in _DIRS]
    cols = index[padded[:, None] + offsets]
    present = cols >= 0
    # free faces mirror the value: no contribution
    fixed = (grid.face_labels.reshape(-1, 4)[cells] == FACE_FIXED) & ~present[:, slots]
    # row sums as column adds, about ten times faster than over a short axis
    u, f = present.view(np.uint8), fixed.view(np.uint8)
    row_nnz = u[:, 0] + u[:, 1] + u[:, 2] + u[:, 3] + u[:, 4]
    vals = np.full((n, 5), -1.0)
    vals[:, 2] = row_nnz - 1 + 2 * (f[:, 0] + f[:, 1] + f[:, 2] + f[:, 3])
    indptr = np.concatenate(([0], np.cumsum(row_nnz, dtype=np.int64)))
    A = sparse.csr_matrix((vals[present] / (grid.h * grid.h), cols[present], indptr), shape=(n, n))
    return SpectralProblem(matrix=A, grid=grid)


def principal_frequency(problem: SpectralProblem) -> tuple[float, np.ndarray, int]:
    """Smallest eigenpair by single-vector LOBPCG (``_lobpcg``) to
    ``||Ax - lambda x|| <= _TOL / h^2``, preconditioned by one V-cycle
    (``_vcycle``) that factors only its coarsest level (sparse LU, symmetric
    minimum-degree ordering on A^T + A, diagonal pivots, small supernodes).

    Smoothed aggregation coarsens until at most ``_COARSEST`` unknowns are
    left (a smaller operator is factored whole): 3x3 cell aggregates, each
    level keeping about nine nonzeros a row, P = (I - omega D^-1 A) T,
    Galerkin P^T A P, and damped Jacobi sweeps, one down and two up.
    Raises ``ConvergenceError`` after ``_MAX_ITER`` steps.  Requires a fixed
    face, which makes the operator positive definite.  Returns (eigenvalue,
    eigenvector with a positive sum, LOBPCG steps)."""
    if not problem.grid.fixed_cells.any():
        raise PreconditionError(
            "operator is singular without any fixed boundary face"
        )
    from scipy import sparse
    from scipy.sparse.linalg import splu

    A = coarse = problem.matrix.tocsr()
    ii, jj = np.nonzero(problem.grid.mask)
    levels = []
    while coarse.shape[0] > _COARSEST:
        # aggregates numbered row by row over the coarse box, without a sort
        ii, jj = ii // 3, jj // 3
        box = np.zeros((ii.max() + 1, jj.max() + 1), dtype=bool)
        box[ii, jj] = True
        agg = (np.cumsum(box) - 1)[ii * box.shape[1] + jj]
        T = sparse.csr_matrix((1.0 / np.sqrt(np.bincount(agg)[agg]), agg, np.arange(len(agg) + 1)))
        # omega = 4/(3 rho) with rho(D^-1 A) <= 2 (Gershgorin, diagonal dominance)
        d = (2.0 / 3.0) / coarse.diagonal()
        AT = coarse @ T
        AT.data *= np.repeat(d, np.diff(AT.indptr))
        P = T - AT
        levels.append((coarse, P, d))
        coarse = P.T.tocsr() @ (coarse @ P)
        ii, jj = np.nonzero(box)
    lu = splu(coarse.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=2,
              options={"SymmetricMode": True})
    x0 = np.random.default_rng(_SEED).uniform(0.5, 1.5, problem.size)
    lam, x, steps = _lobpcg(A, lambda r: _vcycle(levels, lu, r), x0, _TOL / problem.grid.h**2)
    return lam, (-x if x.sum() < 0 else x), steps


def _lobpcg(A, precondition, x0, tol):
    """Smallest eigenpair of the symmetric positive definite ``A`` by
    single-vector LOBPCG (Knyazev 2001) from the start ``x0``.

    Each step applies ``precondition`` to the residual, giving w, and takes
    the Ritz vector of the smallest Ritz value of A on span(x, w, p) (a 3x3
    generalized eigenproblem; p, the previous update, is absent on the first
    step).  Stops once ``||Ax - lambda x|| <= tol`` for the normalized x and
    a fresh ``A @ x``; raises ``ConvergenceError`` after ``_MAX_ITER``
    steps.  Returns (lambda, x, steps taken)."""
    from scipy.linalg import eigh

    S = np.zeros((3, len(x0)))  # rows x, w, p
    AS = np.zeros_like(S)       # and their images under A
    x, w, p = S
    ax, aw, ap = AS
    r = np.empty_like(x)
    np.divide(x0, np.linalg.norm(x0), out=x)
    ax[:] = A @ x
    lam, k = x @ ax, 2
    for step in range(_MAX_ITER + 1):
        np.subtract(ax, np.multiply(x, lam, out=r), out=r)
        if step == _MAX_ITER or np.linalg.norm(r) <= tol:
            # the images drift from A @ x as the steps combine them
            x /= np.linalg.norm(x)
            ax[:] = A @ x
            lam = x @ ax
            residual = np.linalg.norm(np.subtract(ax, np.multiply(x, lam, out=r), out=r))
            if residual <= tol:
                return float(lam), x.copy(), step
            if step == _MAX_ITER:
                break
        t = precondition(r)
        np.divide(t, np.linalg.norm(t), out=w)
        aw[:] = A @ w
        # the upper triangles by single dot products: a (k, n) @ (n, k)
        # product runs several times slower
        H, G = np.zeros((k, k)), np.zeros((k, k))
        for j in range(k):
            for i in range(j + 1):
                H[i, j], G[i, j] = S[i] @ AS[j], S[i] @ S[j]
        ritz, C = eigh(H, G, lower=False)
        c = np.zeros(3)
        c[:k] = C[:, 0]
        for V in (S, AS):
            V[1] *= c[1]  # p = c1 w + c2 p, then x = c0 x + p
            V[2] *= c[2]
            V[2] += V[1]
            V[0] *= c[0]
            V[0] += V[2]
        scale = 1.0 / np.linalg.norm(p)
        p *= scale
        ap *= scale
        lam, k = ritz[0], 3
    raise ConvergenceError(f"LOBPCG did not converge in {_MAX_ITER} steps "
                           f"(last eigenvalue {lam:.6g}, residual {residual:.3g})")


def _vcycle(levels, lu, r, k=0):
    # a module function: a nested one calling itself would be a reference
    # cycle, keeping the hierarchy alive until the cyclic collector runs
    if k == len(levels):
        return lu.solve(r)
    A, P, d = levels[k]
    x = d * r
    x += P @ _vcycle(levels, lu, P.T @ (r - A @ x), k + 1)
    for _ in range(2):
        x += d * (r - A @ x)
    return x


# ---------------------------------------------------------------------------
# disk reference through the first Bessel zero
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def first_bessel_zero() -> float:
    """First positive zero of J0, from ``scipy.special``."""
    from scipy.special import jn_zeros

    return float(jn_zeros(0, 1)[0])


def half_ball_reference(volume: float) -> float:
    """Reference frequency: half the first Dirichlet eigenvalue of the disk
    of area ``volume``, i.e. j01^2 pi / (2 volume).

    An even reflection across the flat face identifies this with the
    principal frequency of the half-disk of the same area whose diameter is
    free, so it is the sharp comparison value for concave-free domains.
    """
    if volume <= 0.0:
        raise ValueError("volume must be positive")
    j01 = first_bessel_zero()
    return j01 * j01 * math.pi / (2.0 * volume)


@dataclass(frozen=True)
class FrequencyReport:
    lam: float
    reference: float
    margin: float
    h: float
    iterations: int
    concavity_vacuous: bool = False

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "reference": self.reference,
            "margin": self.margin,
            "h": self.h,
            "iterations": self.iterations,
            "concavity_vacuous": self.concavity_vacuous,
        }


def check_frequency_vs_half_ball(domain: LabeledDomain, h: float) -> FrequencyReport:
    """Principal frequency of the domain against the half-ball reference.

    Requires the free chain to be concave (the hypothesis under which the
    bound holds); an empty free chain is allowed but flagged as vacuous.
    """
    report = require_admissible(domain)
    problem = assemble(domain, h)
    lam, _, iters = principal_frequency(problem)
    reference = half_ball_reference(domain.area)
    return FrequencyReport(
        lam=lam,
        reference=reference,
        margin=lam - reference,
        h=h,
        iterations=iters,
        concavity_vacuous=report.vacuous,
    )

