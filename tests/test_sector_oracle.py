"""The sector family as a closed-form oracle.

The sector S_alpha of radius 1 has its tip at the origin, two free radii and
a fixed arc, here inscribed with 256 segments.  Its fixed-boundary
isoperimetric ratio is sqrt(2 alpha); its free chain is concave exactly when
alpha >= pi; and its principal frequency, that of J0(j01 r), is alpha / pi
times the half-ball reference of its area.  Each sector is numbered from the
arc and from the tip, where the free chain wraps past vertex 0; the errors
quoted are the largest over both numberings.
"""

import json
import math

import pytest

from freebdry.geometry import LabeledDomain, is_concave_free_boundary, isoperimetric_report
from freebdry.spectral import assemble, half_ball_reference, principal_frequency
from tests.test_cli import _sector_json

_ALPHAS = [0.5, 0.9, 0.99, 1.01, 1.1, 1.5, 1.9]  # in units of pi


def _sector(alpha, tip_first):
    return LabeledDomain.from_json_dict(json.loads(_sector_json(alpha * math.pi, 256, tip_first)))


_SECTORS = [pytest.param(alpha, tip_first, id=f"{alpha}pi-from-{'tip' if tip_first else 'arc'}")
            for alpha in _ALPHAS for tip_first in (False, True)]


@pytest.mark.parametrize("alpha, tip_first", _SECTORS)
def test_sector_isoperimetric_ratio(alpha, tip_first):
    # the inscribed arc is shorter by a relative (alpha/256)^2/24 and the
    # area smaller by twice that, so the ratio lies above sqrt(2 alpha) by
    # about (alpha/256)^2/24: measured 1.6e-6 (alpha = pi/2) to 2.3e-5
    # (alpha = 1.9 pi)
    err = isoperimetric_report(_sector(alpha, tip_first)).ratio / math.sqrt(2.0 * alpha * math.pi) - 1.0
    assert 0.0 < err <= 3e-5


@pytest.mark.parametrize("alpha, tip_first", _SECTORS)
def test_sector_free_chain_concave_exactly_from_pi(alpha, tip_first):
    # below pi the chord between the radii's far ends crosses the inside
    assert is_concave_free_boundary(_sector(alpha, tip_first)).concave == (alpha > 1.0)


@pytest.mark.parametrize("h, tol", [
    (1 / 40, 6e-3),   # measured 5.6e-3 (alpha = 1.01 pi)
    (1 / 80, 2e-3),   # measured 1.5e-3 (alpha = 1.01 pi)
])
@pytest.mark.parametrize("alpha, tip_first", _SECTORS)
def test_sector_principal_frequency(alpha, tip_first, h, tol):
    dom = _sector(alpha, tip_first)
    lam = principal_frequency(assemble(dom, h))[0]
    assert lam / (half_ball_reference(dom.area) * alpha) == pytest.approx(1.0, abs=tol)
