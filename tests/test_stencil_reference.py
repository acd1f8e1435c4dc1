"""The neighbour stencil on ``_DIRS`` against the per-site code it replaced.

Gradients and mirror extensions find a cell's neighbour through
``geometry._shifted``; the five-point operator gathers it on the flat grid
padded by one outside cell.  The references below are the earlier per-site
forms: ``np.roll`` with the wrapped row or column masked off, and the
operator's bounds-checked gather into a COO matrix converted to CSR
(``assemble`` now writes the CSR arrays directly).  Every array must
match its reference bit for bit (``np.array_equal``, same dtype), since the
reports are summed from them.
"""

import numpy as np
import pytest
from scipy import sparse

from freebdry import domains, spectral
from freebdry.geometry import _DIRS, FACE_FIXED, RasterGrid, _shifted, rasterize
from freebdry.rearrange import ScalarField


def roll_axis_derivative(mask, v, h, axis):
    fwd_v = np.roll(v, -1, axis=axis)
    bwd_v = np.roll(v, 1, axis=axis)
    fwd_ok = np.roll(mask, -1, axis=axis) & mask
    bwd_ok = np.roll(mask, 1, axis=axis) & mask
    if axis == 1:
        fwd_ok[:, -1] = False
        bwd_ok[:, 0] = False
    else:
        fwd_ok[-1, :] = False
        bwd_ok[0, :] = False
    out = np.zeros_like(v)
    both = fwd_ok & bwd_ok
    out[both] = (fwd_v[both] - bwd_v[both]) / (2.0 * h)
    fonly = fwd_ok & ~bwd_ok
    out[fonly] = (fwd_v[fonly] - v[fonly]) / h
    bonly = bwd_ok & ~fwd_ok
    out[bonly] = (v[bonly] - bwd_v[bonly]) / h
    out[~mask] = 0.0
    branches = {"both": both.sum(), "forward only": fonly.sum(),
                "backward only": bonly.sum(), "isolated": (mask & ~fwd_ok & ~bwd_ok).sum()}
    return out, branches


def roll_mirror_extended(mask, quantity):
    ext = np.where(mask, quantity, 0.0)
    acc = np.zeros_like(ext)
    cnt = np.zeros(mask.shape, dtype=int)
    for axis, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
        nb_val = np.roll(ext, shift, axis=axis)
        nb_in = np.roll(mask, shift, axis=axis)
        edge = slice(0, 1) if shift == 1 else slice(-1, None)
        if axis == 0:
            nb_in[edge, :] = False
        else:
            nb_in[:, edge] = False
        take = ~mask & nb_in
        acc[take] += nb_val[take]
        cnt[take] += 1
    out = np.full(mask.shape, np.nan)
    out[mask] = quantity[mask]
    ghost = cnt > 0
    out[ghost] = acc[ghost] / cnt[ghost]
    return out, cnt


def gather_operator(grid):
    """The five-point operator with a bounds-checked neighbour gather,
    assembled as COO triplets and converted (sorting the indices) to CSR."""
    mask = grid.mask
    ny, nx = mask.shape
    index = -np.ones((ny, nx), dtype=np.int64)
    ii, jj = np.nonzero(mask)
    index[ii, jj] = np.arange(len(ii))
    rows, cols, vals = [], [], []
    diag = np.zeros(len(ii))
    for dcode, (di, dj) in enumerate(_DIRS):
        ni, nj = ii + di, jj + dj
        in_bounds = (ni >= 0) & (ni < ny) & (nj >= 0) & (nj < nx)
        nbr_idx = np.full(len(ii), -1, dtype=np.int64)
        nbr_idx[in_bounds] = index[ni[in_bounds], nj[in_bounds]]
        interior = nbr_idx >= 0
        diag[interior] += 1.0
        rows.append(np.nonzero(interior)[0])
        cols.append(nbr_idx[interior])
        vals.append(np.full(interior.sum(), -1.0))
        diag[(~interior) & (grid.face_labels[ii, jj, dcode] == FACE_FIXED)] += 2.0
    rows.append(np.arange(len(ii)))
    cols.append(np.arange(len(ii)))
    vals.append(diag)
    return sparse.coo_matrix(
        (np.concatenate(vals) / (grid.h * grid.h), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(ii), len(ii)),
    ).tocsr()


def assert_same_csr(a, b):
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert getattr(a, name).dtype == getattr(b, name).dtype, name
    assert a.has_sorted_indices


def assert_field_matches(field):
    """Gradients and both mirror extensions against the roll references;
    returns the branch counts and ghost-cell neighbour counts seen."""
    mask, h = field.grid.mask, field.grid.h
    gx, bx = roll_axis_derivative(mask, field.values, h, axis=1)
    gy, by = roll_axis_derivative(mask, field.values, h, axis=0)
    assert np.array_equal(field.gradient[0], gx)
    assert np.array_equal(field.gradient[1], gy)
    ext, cnt = roll_mirror_extended(mask, field.values)
    assert np.array_equal(field.mirrored_values, ext, equal_nan=True)
    ext_grad, _ = roll_mirror_extended(mask, np.hypot(gx, gy))
    assert np.array_equal(field.mirrored_grad, ext_grad, equal_nan=True)
    return bx, by, cnt


# -- _shifted ----------------------------------------------------------------------

@pytest.mark.parametrize("di, dj", _DIRS, ids=["E", "W", "N", "S"])
@pytest.mark.parametrize("dtype, fill", [(float, 0.0), (bool, False), (np.int64, -1)])
def test_shifted_matches_naive_loop(di, dj, dtype, fill):
    a = np.random.default_rng(3).uniform(-5.0, 5.0, (5, 7)).astype(dtype)
    expected = np.full_like(a, fill)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if 0 <= i + di < a.shape[0] and 0 <= j + dj < a.shape[1]:
                expected[i, j] = a[i + di, j + dj]
    out = _shifted(a, di, dj, fill)
    assert out.dtype == a.dtype
    assert np.array_equal(out, expected)


# -- rasterized domains --------------------------------------------------------------

def _generated_domains():
    rng = np.random.default_rng(2024)
    return [domains.random_concave_domain(rng) for _ in range(40)]


@pytest.mark.parametrize("source", ["builtins", "random"])
def test_stencil_matches_roll_reference_on_domains(source):
    if source == "builtins":
        doms = [domains.builtin_domain(name) for name in domains.BUILTIN_NAMES]
    else:
        doms = _generated_domains()
    rng = np.random.default_rng(7)
    for dom in doms:
        for cells in (40, 72):
            h = dom.diameter / cells
            grid = rasterize(dom, h)
            assert_field_matches(ScalarField(grid, rng.uniform(0.0, 1.0, grid.shape)))
            assert_same_csr(spectral.assemble(dom, h).matrix, gather_operator(grid))


# -- a hand-made grid: strips, isolated cells, holes and the array border -----------------

def _strip_grid():
    mask = np.zeros((12, 14), dtype=bool)
    mask[0, :] = True            # a one-cell-wide row on the array border
    mask[:, 13] = True           # a one-cell-wide column on the border
    mask[3:9, 2] = True          # a vertical strip
    mask[10, 3:9] = True         # a horizontal strip
    mask[5, 4] = mask[9, 11] = mask[11, 0] = True   # isolated cells, one in a corner
    mask[3:8, 6:11] = True       # a block with a one-cell hole and a notch
    mask[5, 8] = mask[3, 8] = False
    face_labels = np.random.default_rng(5).integers(0, 3, (12, 14, 4)).astype(np.int8)
    face_labels[~mask] = 0
    return RasterGrid(domain=domains.unit_square(), h=0.125, origin=(0.0, 0.0),
                      mask=mask, face_labels=face_labels)


def test_stencil_matches_roll_reference_on_strips_and_isolated_cells():
    grid = _strip_grid()
    values = np.random.default_rng(11).uniform(0.0, 1.0, grid.shape)
    bx, by, cnt = assert_field_matches(ScalarField(grid, values))
    # every branch of the difference quotient runs on both axes
    for branches in (bx, by):
        assert all(n > 0 for n in branches.values()), branches
    # ghost cells with three or four inside neighbours make the sum order count
    assert cnt[5, 8] == 4 and cnt[3, 8] == 3


def test_operator_matches_gather_reference_on_strips(monkeypatch):
    grid = _strip_grid()
    monkeypatch.setattr(spectral, "rasterize", lambda domain, h: grid)
    problem = spectral.assemble(grid.domain, grid.h)
    reference = gather_operator(grid)
    assert_same_csr(problem.matrix, reference)
    # cells on the array border have neighbours off the grid
    assert grid.mask[0].any() and grid.mask[:, -1].any() and grid.mask[-1].any()
