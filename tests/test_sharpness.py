"""Every verdict can fail: sharpness controls.

The paper's constants are sharp, and each campaign's default input sits
close to its bound: the half disk's isoperimetric ratio is the bound to
1e-4, its principal frequency is 5.6e-4 below the reference, and the
Sobolev bubble ladder at epsilon = 0.05 is 2% above the bound.  Each test
scales the bound a campaign reads, at the module name it calls, just past
that gap plus the campaign's slack, and requires exit 4 with the failure
entry that names the input; a smaller scale, inside the slack, must still
exit 0.  The energy factor is checked at the API, on a Talenti bubble
centred on the half disk's free diameter, an equality case at 0.9995 of its
bound, and through ``moser``, whose nearest field reaches 0.658 of it.  No
tolerance is changed.
"""

import json

import pytest

from freebdry import constants, rearrange, spectral
from freebdry.cli import EXIT_INEQUALITY, EXIT_OK, GRID_SLACK, holds, main
from freebdry.domains import half_disk
from freebdry.quotients import talenti_bubble


def _report(tmp_path, argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--quiet", "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("scale, code", [(1.02, EXIT_INEQUALITY), (1.005, EXIT_OK)])
def test_isoperim_fails_a_raised_constant(tmp_path, monkeypatch, scale, code):
    def raised(n):
        iso_std, iso_free = constants.isoperimetric_constants(n)
        return iso_std, iso_free * scale

    monkeypatch.setattr("freebdry.geometry.isoperimetric_constants", raised)
    got, report = _report(tmp_path, ["isoperim"])
    assert got == code
    if code == EXIT_INEQUALITY:
        assert report["failures"] == [{"index": 0, "margin": report["reports"][0]["margin"]}]
        assert report["reports"][0]["bound"] == constants.isoperimetric_constants(2)[1] * scale
    else:
        assert report["failures"] == []


@pytest.mark.parametrize("scale, code", [(1.03, EXIT_INEQUALITY), (1.01, EXIT_OK)])
def test_eig_fails_a_raised_reference(tmp_path, monkeypatch, scale, code):
    reference = spectral.half_ball_reference
    monkeypatch.setattr("freebdry.spectral.half_ball_reference",
                        lambda volume: reference(volume) * scale)
    got, report = _report(tmp_path, ["eig"])
    assert got == code
    if code == EXIT_INEQUALITY:
        assert report["failures"] == [{"margin": report["report"]["margin"]}]
        assert report["report"]["margin"] < 0.0
    else:
        assert report["failures"] == []


@pytest.mark.parametrize("scale, code", [(1.06, EXIT_INEQUALITY), (1.03, EXIT_OK)])
def test_sobolev_fails_a_raised_bound(tmp_path, monkeypatch, scale, code):
    # the bound is 1 / (sqrt(2) k(2, p)), so dividing k raises it by scale
    best = constants.sobolev_best_constant
    monkeypatch.setattr("freebdry.quotients.sobolev_best_constant",
                        lambda n, p: best(n, p) / scale)
    got, report = _report(tmp_path, ["sobolev"])
    assert got == code
    if code == EXIT_INEQUALITY:
        [failure] = report["failures"]
        rung = report["bubble_ladder"][-1]
        assert failure == {"epsilon": 0.05, "quotient": rung["quotient"], "bound": rung["bound"]}
    else:
        assert report["failures"] == []


@pytest.mark.parametrize("scale, ok", [(1.03, False), (1.01, True)])
def test_energy_factor_fails_a_lowered_factor(monkeypatch, scale, ok):
    # lhs / rhs is 0.99948 on this bubble; rearrange passes lhs <= rhs (1 + slack)
    factor = rearrange.energy_factor
    monkeypatch.setattr("freebdry.rearrange.energy_factor", lambda p: factor(p) / scale)
    bubble = talenti_bubble(half_disk(), 1.0 / 64.0, 1.5, 0.2)
    lhs, rhs = rearrange.check_rearrangement_energy_factor(bubble, 1.5)
    assert rhs == factor(1.5) / scale * rearrange.gradient_lp_norm(bubble, 1.5) ** 1.5
    assert holds(lhs, rhs, GRID_SLACK, upper=True) == ok


@pytest.mark.parametrize("scale, code", [(0.64, EXIT_INEQUALITY), (0.66, EXIT_OK)])
def test_moser_fails_a_lowered_energy_factor(tmp_path, monkeypatch, scale, code):
    # energy_lhs / energy_rhs is 0.381, 0.658 and 0.494 on the default fields
    factor = rearrange.energy_factor
    monkeypatch.setattr("freebdry.rearrange.energy_factor", lambda p: factor(p) * scale)
    got, report = _report(tmp_path, ["moser"])
    assert got == code
    if code == EXIT_INEQUALITY:
        [failure] = report["failures"]
        assert failure == report["entries"][1]
        assert not holds(failure["energy_lhs"], failure["energy_rhs"], GRID_SLACK, upper=True)
    else:
        assert report["failures"] == []
