import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from freebdry.cli import build_parser, holds, main
from freebdry.domains import BUILTIN_NAMES


def run_cli(args):
    """Run in-process, capturing the exit code."""
    return main(args)


def exit_code(args):
    """The exit code in-process, also when the parser refuses the arguments."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def test_constants_values(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = run_cli(["constants", "--n", "2", "--p", "1", "--quiet", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    row = data["values"][0]
    assert row["sobolev"] == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-12)
    assert row["moser_exponent"] == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert row["iso_free"] == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)


def test_constants_large_dimension_is_finite(tmp_path):
    # gamma(1 + n/2) gamma(n) overflows a float at n = 150
    out = tmp_path / "c.json"
    assert run_cli(["constants", "--n", "150", "--p", "1.5", "--quiet", "--out", str(out)]) == 0
    assert "Infinity" not in out.read_text()
    row = json.loads(out.read_text())["values"][0]
    assert row["sobolev"] == pytest.approx(0.0297345230601289, rel=1e-12)


def test_isoperim_halfdisk(tmp_path):
    out = tmp_path / "iso.json"
    code = run_cli(["isoperim", "--domain", "halfdisk", "--quiet", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["reports"][0]
    assert rep["ratio"] == pytest.approx(math.sqrt(2.0 * math.pi), rel=5e-3)


def test_isoperim_random_campaign(tmp_path):
    out = tmp_path / "iso.json"
    code = run_cli(["isoperim", "--random", "20", "--seed", "1", "--quiet",
                    "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["reports"]) == 20
    assert data["failures"] == []


def test_isoperim_domain_file(tmp_path, square_free_bottom):
    dom_path = tmp_path / "dom.json"
    square_free_bottom.save_json(dom_path)
    out = tmp_path / "rep.json"
    code = run_cli(["isoperim", "--domain", str(dom_path), "--quiet", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["reports"][0]
    assert rep["ratio"] == pytest.approx(3.0)


def test_eig_square_bottom_free(tmp_path):
    out = tmp_path / "eig.json"
    code = run_cli(["eig", "--domain", "square-bottom-free", "--h", str(1 / 48),
                    "--quiet", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["lambda"] == pytest.approx(5.0 * math.pi**2 / 4.0, rel=0.02)
    assert rep["margin"] > 0.0


def test_eig_nonconcave_is_precondition_error():
    code = run_cli(["eig", "--domain", "counterexample:3", "--h", "0.02", "--quiet"])
    assert code == 3


def test_counterexample_sweep(tmp_path):
    out = tmp_path / "cx.json"
    code = run_cli(["counterexample", "--quiet", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["failures"] == []
    lbs = [p["functional_lower_bound"] for p in data["points"]]
    assert all(b > a for a, b in zip(lbs, lbs[1:]))


@pytest.mark.parametrize("values", [["100", "10"], ["10", "10"]], ids=["descending", "repeated"])
def test_counterexample_verdict_does_not_depend_on_the_order_of_the_flags(tmp_path, values):
    # the bound increases in a, so it is compared in ascending a; the points
    # keep the order of the flags
    out = tmp_path / "cx.json"
    flags = [arg for a in values for arg in ("--a", a)]
    assert run_cli(["counterexample", *flags, "--quiet", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["failures"] == []
    assert [p["a"] for p in data["points"]] == [float(a) for a in values]


@pytest.mark.parametrize("domain", ["annulus", "annulus-free-inner"])
def test_symmetrize_with_holes_exits_3(capsys, domain):
    # a reflection step cannot cut a domain with holes; skipping every step
    # and exiting 0 would pass vacuously
    assert run_cli(["symmetrize", "--domain", domain, "--steps", "3", "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition violated: ") and "holes" in err


def test_symmetrize_trace(tmp_path):
    out = tmp_path / "sym.json"
    table = tmp_path / "sym.csv"
    argv = ["symmetrize", "--domain", "trapezoid", "--steps", "6", "--quiet"]
    assert run_cli(argv + ["--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["failures"] == []
    assert data["final_ratio"] <= data["initial_ratio"] + 1e-9
    assert run_cli(argv + ["--format", "csv", "--out", str(table)]) == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "step,theta,ratio,area,projection_width,case"
    assert len(lines) == data["steps_run"] + 1


def test_sobolev_quick(tmp_path):
    out = tmp_path / "sob.json"
    code = run_cli(["sobolev", "--h", "0.02", "--epsilon", "0.2", "--random", "1",
                    "--seed", "3", "--quiet", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["failures"] == []
    assert data["bubble_ladder"][0]["quotient"] >= data["bound"]


def test_moser_quick(tmp_path):
    out = tmp_path / "moser.json"
    code = run_cli(["moser", "--h", str(1 / 48), "--random", "1", "--seed", "5",
                    "--quiet", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["failures"] == []


def test_rearrange_quick(tmp_path):
    out = tmp_path / "re.json"
    code = run_cli(["rearrange", "--domain", "halfdisk", "--h", str(1 / 48),
                    "--p", "1.5", "--seed", "2", "--quiet", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["failures"] == []


_REARRANGE_GOLDEN = ("rearrange_halfdisk_h48_seed0.json",
                     ["rearrange", "--domain", "halfdisk", "--h", str(1 / 48), "--p", "1.5",
                      "--p", "2", "--p", "3", "--seed", "0"])


# the shape of the bench's one-exponent calls on generated domains: about
# 3000 cells on the bounding box, one p
_REARRANGE_ONE_P_GOLDEN = ("rearrange_random_concave_seed1_h00578_p3.json",
                           ["rearrange", "--domain",
                            str(Path(__file__).parent / "data" / "random_concave_seed1.json"),
                            "--h", "0.0578", "--p", "3", "--seed", "1"])


def test_rearrange_report_matches_golden(tmp_path):
    # the report of the per-level marching squares that preceded the batched
    # pass; the same method must reproduce it byte for byte
    name, argv = _REARRANGE_GOLDEN
    golden = Path(__file__).parent / "data" / name
    out = tmp_path / "re.json"
    assert run_cli(argv + ["--quiet", "--out", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()


def test_rearrange_computes_quantile_levels_once_per_level_count(tmp_path, monkeypatch):
    # three exponents share one field: its 16 slope levels and its 96
    # profile levels are each computed once
    import freebdry.rearrange as rearrange

    counts = {}
    quantile_levels = rearrange.quantile_levels

    def counted(field, m=64):
        counts[m] = counts.get(m, 0) + 1
        return quantile_levels(field, m)

    monkeypatch.setattr(rearrange, "quantile_levels", counted)
    name, argv = _REARRANGE_GOLDEN
    out = tmp_path / "re.json"
    assert run_cli(argv + ["--quiet", "--out", str(out)]) == 0
    assert counts == {16: 1, 96: 1}
    assert out.read_bytes() == (Path(__file__).parent / "data" / name).read_bytes()


def test_rearrange_one_p_report_matches_golden(tmp_path):
    # the report made when each exponent sorted the field, tabled its usable
    # levels and built its rearrangement anew; the per-field caches must
    # reproduce it byte for byte
    name, argv = _REARRANGE_ONE_P_GOLDEN
    golden = Path(__file__).parent / "data" / name
    out = tmp_path / "re.json"
    assert run_cli(argv + ["--quiet", "--out", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()


_SYMMETRIZE_GOLDEN = ("symmetrize_trapezoid_steps50.json",
                      ["symmetrize", "--domain", "trapezoid", "--steps", "50"])

# the shape of the bench's symmetrize calls: a generated domain, whose
# first step reflects at its second candidate cut, through a bent free chain
# of 13 edges, and whose second step is inadmissible
_SYMMETRIZE_GENERATED_GOLDEN = ("symmetrize_random_concave_seed1_steps12.json",
                                ["symmetrize", "--domain",
                                 str(Path(__file__).parent / "data" / "random_concave_seed1.json"),
                                 "--steps", "12"])

_ISOPERIM_GOLDEN = ("isoperim_random50_seed3.json", ["isoperim", "--random", "50", "--seed", "3"])


@pytest.mark.parametrize("name, argv", [
    _SYMMETRIZE_GOLDEN,
    _ISOPERIM_GOLDEN,
    _SYMMETRIZE_GENERATED_GOLDEN,
])
def test_polygon_report_matches_golden(tmp_path, name, argv):
    # symmetrize reports of the equal-area cut by one bracket's quadratic
    # root, with elementwise side-of-line tests and the numpy shoelace, and
    # the isoperim report of the generator built on geometry's kernels; the
    # same arithmetic must reproduce them byte for byte
    golden = Path(__file__).parent / "data" / name
    out = tmp_path / "report.json"
    assert run_cli(argv + ["--quiet", "--out", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()


def test_symmetrize_golden_stays_in_the_class():
    # each executed step stays in the admissible class: the trapezoid makes
    # one reflected step and stops at the first inadmissible one, above the
    # sharp bound
    data = json.loads((Path(__file__).parent / "data" / _SYMMETRIZE_GOLDEN[0]).read_text())
    assert [t["case"] for t in data["trace"]] == ["reflected", "inadmissible"]
    assert math.sqrt(2.0 * math.pi) < data["final_ratio"] < data["initial_ratio"]
    assert data["failures"] == []


def test_symmetrize_half_disk_ends_at_its_initial_ratio(tmp_path):
    # the half disk attains the sharp bound, and no step may lower it
    out = tmp_path / "sym.json"
    assert run_cli(["symmetrize", "--domain", "halfdisk", "--quiet", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["final_ratio"] == data["initial_ratio"] and data["failures"] == []


def _fresh_reports(calls, tmp_path):
    """Report bytes of each invocation, each in a fresh interpreter."""
    outs = [tmp_path / f"fresh{k}.json" for k in range(len(calls))]
    procs = [subprocess.Popen([sys.executable, "-m", "freebdry.cli", *argv,
                               "--quiet", "--out", str(out)])
             for argv, out in zip(calls, outs)]
    assert [proc.wait() for proc in procs] == [0] * len(calls)
    return [out.read_bytes() for out in outs]


def test_reused_parser_leaks_nothing_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    calls = [
        ["rearrange", "--h", "0.0625", "--p", "3"],
        ["rearrange", "--h", "0.0625"],
        ["sobolev", "--h", "0.0625", "--epsilon", "0.2"],
        ["sobolev", "--h", "0.0625"],
    ]
    reports = []
    for k, argv in enumerate(calls):
        out = tmp_path / f"call{k}.json"
        assert run_cli(argv + ["--quiet", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    # a call that argparse rejects after it has appended a --p, then a good one
    with pytest.raises(SystemExit) as exc:
        run_cli(["rearrange", "--h", "0.0625", "--p", "2", "--bogus"])
    assert exc.value.code == 2
    out = tmp_path / "after_error.json"
    assert run_cli(calls[1] + ["--quiet", "--out", str(out)]) == 0
    after_error = out.read_bytes()

    assert reports[0] != reports[1] and reports[2] != reports[3]
    assert reports == _fresh_reports(calls, tmp_path)
    assert after_error == reports[1]


def test_non_finite_domain_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"vertices": [[0, 0], [1, 0], [NaN, 1]], '
                   '"labels": ["fixed", "fixed", "fixed"]}')
    assert run_cli(["isoperim", "--domain", str(bad), "--quiet"]) == 2
    assert "finite" in capsys.readouterr().err


_SQUARE = '[[0, 0], [1, 0], [1, 1], [0, 1]]'
_SQUARE_4 = '[[0, 0], [4, 0], [4, 4], [0, 4]]'
_FOUR_FIXED = '["fixed", "fixed", "fixed", "fixed"]'


@pytest.mark.parametrize("text, spec", [
    ('{"vertices": [["a", 0], [1, 0], [0, 1]], "labels": ["fixed", "fixed", "fixed"]}', None),
    ('{"vertices": [[0, 0], [1], [0, 1]], "labels": ["fixed", "fixed", "fixed"]}', None),
    (f'[{_SQUARE}, {_FOUR_FIXED}]', None),
    (f'{{"vertices": {_SQUARE}, "labels": {_FOUR_FIXED}, "holes": [], "hole_labels": 5}}', None),
    (f'{{"vertices": {_SQUARE}, "labels": {_FOUR_FIXED}, '
     '"holes": [[[0.4, 0.4], [0.6, 0.4], [0.5, 0.6]]], "hole_labels": [5]}', None),
    (None, "counterexample:abc"),
    (None, "counterexample:"),
    # a hole gets every check the outer loop gets
    (f'{{"vertices": {_SQUARE_4}, "labels": {_FOUR_FIXED}, "holes": [[[1, 1], [3, 1], [3, 3], [1, 3]]], '
     '"hole_labels": [["oops", "fixed", "fixed", "fixed"]]}', None),
    (f'{{"vertices": {_SQUARE_4}, "labels": {_FOUR_FIXED}, '
     '"holes": [[[1, 1], [3, 2], [3, 1], [1, 2.5]]]}', None),
    # the last edge folds back along the first one
    ('{"vertices": [[3, 0], [0, 0], [0, 2], [1, 2], [1, 0]], '
     '"labels": ["fixed", "fixed", "fixed", "fixed", "fixed"]}', None),
    # holes must not cross the outer loop or each other, nor nest
    ('{"vertices": [[0, 0], [4, 0], [4, 4], [3, 4], [3, 1], [1, 1], [1, 4], [0, 4]], '
     '"labels": ["fixed", "fixed", "fixed", "fixed", "fixed", "fixed", "fixed", "fixed"], '
     '"holes": [[[0.5, 2], [3.5, 2], [3.5, 3], [0.5, 3]]]}', None),
    (f'{{"vertices": {_SQUARE_4}, "labels": {_FOUR_FIXED}, "holes": [[[1, 1], [3, 1], [3, 3], [1, 3]], '
     '[[2, 2], [3.5, 2], [3.5, 3.5], [2, 3.5]]]}', None),
    (f'{{"vertices": {_SQUARE_4}, "labels": {_FOUR_FIXED}, "holes": [[[1, 1], [3, 1], [3, 3], [1, 3]], '
     '[[1.5, 1.5], [2.5, 1.5], [2.5, 2.5], [1.5, 2.5]]]}', None),
    # one labels entry per hole, neither fewer nor more
    (f'{{"vertices": {_SQUARE_4}, "labels": {_FOUR_FIXED}, "holes": [[[1, 1], [2, 1], [2, 2], [1, 2]]], '
     '"hole_labels": []}', None),
    (f'{{"vertices": {_SQUARE_4}, "labels": {_FOUR_FIXED}, "holes": [[[1, 1], [2, 1], [2, 2], [1, 2]]], '
     '"hole_labels": [null, null]}', None),
], ids=["non-numeric", "ragged", "top-level-list", "hole-labels-not-list",
        "hole-labels-entry-not-list", "counterexample-not-number", "counterexample-empty",
        "hole-bad-label", "hole-self-crossing", "fold-back", "hole-across-notch", "holes-overlapping",
        "hole-in-hole", "hole-labels-too-few", "hole-labels-too-many"])
def test_malformed_domain_exits_2(tmp_path, capsys, text, spec):
    if spec is None:
        spec = tmp_path / "bad.json"
        spec.write_text(text)
    assert run_cli(["isoperim", "--domain", str(spec), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--p", "2"], ["--n", "1"], ["--p", "nan"], ["--n", "3", "--p", "0.5"],
    # gamma(n) overflows at p = 1.5, gamma(1 + n/2) at p = 1
    ["--n", "172"], ["--n", "342", "--p", "1"], ["--n", "2000", "--p", "1"],
], ids=["p-equals-n", "n-below-2", "p-nan", "p-below-1",
        "gamma-n-overflows", "gamma-half-n-overflows", "n-2000"])
def test_bad_constants_argument_exits_2(capsys, argv):
    assert run_cli(["constants", *argv, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err


# the last three give more cells than an index can count, and are refused
# before any grid is allocated; 1e-310 is subnormal, so the box in cells is inf
@pytest.mark.parametrize("h", ["nan", "inf", "0", "-1", "1e-200", "1e-300", "1e-310"])
@pytest.mark.parametrize("campaign", ["sobolev", "rearrange", "moser", "eig"])
def test_bad_grid_spacing_exits_2(capsys, campaign, h):
    assert run_cli([campaign, "--h", h, "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("argv, code", [
    (["isoperim", "--random", "-5"], 2),
    (["isoperim", "--random", "0"], 0),   # checks --domain instead
    (["sobolev", "--random", "-1", "--h", "0.0625"], 2),
    (["sobolev", "--random", "0", "--h", "0.0625"], 0),   # the bubble ladder only
    (["moser", "--random", "-1", "--h", "0.0625"], 2),
    (["moser", "--random", "0", "--h", "0.0625"], 2),
    (["moser", "--random", "1", "--h", "0.0625"], 0),
    (["symmetrize", "--steps", "0"], 2),
    (["symmetrize", "--steps", "-3"], 2),
    (["symmetrize", "--steps", "1"], 0),
])
def test_random_count_bounds(capsys, argv, code):
    # a campaign over nothing would pass vacuously, so the parser refuses it
    assert exit_code(argv + ["--quiet"]) == code
    if code == 2:
        assert f"argument {argv[1]}: must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["isoperim", "--random", "2", "--seed", "-1"],
    ["rearrange", "--seed", "-3"],
    ["sobolev", "--seed", "-2"],
    ["moser", "--seed", "-1"],
], ids=["isoperim", "rearrange", "sobolev", "moser"])
def test_negative_seed_exits_2(capsys, argv):
    # numpy's generator refuses a negative seed; the parser refuses it first
    assert exit_code(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert "argument --seed: must be at least 0" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag, argv", [
    ("--epsilon", ["sobolev", "--h", "0.0625", "--random", "0"]),
    ("--p", ["sobolev", "--h", "0.0625", "--random", "0"]),
    ("--p", ["rearrange", "--h", "0.0625"]),
    ("--a", ["counterexample"]),
    ("--tau0", ["counterexample"]),
], ids=["sobolev-epsilon", "sobolev-p", "rearrange-p", "counterexample-a", "counterexample-tau0"])
def test_non_finite_experiment_input_exits_3(capsys, flag, argv, value):
    # NaN fails every comparison, so it must fail the guard, not pass it
    assert run_cli([*argv, f"{flag}={value}", "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition violated: ") and "Traceback" not in err


def test_eigensolver_out_of_steps_exits_3(monkeypatch, capsys):
    monkeypatch.setattr("freebdry.spectral._MAX_ITER", 2)
    assert run_cli(["eig", "--h", "0.0625", "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("computation failed: LOBPCG did not converge in 2 steps")


@pytest.mark.parametrize("value", ["0", "0.5"])
def test_counterexample_aperture_out_of_range_exits_3(capsys, value):
    # the aperture constant lies in (0, 1/100]; finite values outside it are
    # refused too
    assert run_cli(["counterexample", f"--tau0={value}", "--quiet"]) == 3
    assert capsys.readouterr().err == ("precondition violated: aperture constant "
                                       "must lie in (0, 1/100]\n")


@pytest.mark.parametrize("argv", [
    ["counterexample", "--a=1e154"],
    ["counterexample", "--a=1e200"],
    ["isoperim", "--domain", "counterexample:inf"],
    ["isoperim", "--domain", "counterexample:nan"],
    ["isoperim", "--domain", "counterexample:1e200"],
])
def test_counterexample_curvature_out_of_range_exits_3(capsys, argv):
    # ln(1/lambda) = 2 a^2 must stay finite: beyond that the energy deficit
    # rounds to 0 or the construction overflows, so the parameter is refused
    assert run_cli(argv + ["--quiet"]) == 3
    assert capsys.readouterr().err == ("precondition violated: curvature parameter "
                                       "must exceed 1, with 8 a^2 finite\n")


@pytest.mark.parametrize("argv", [
    ["rearrange", "--tol", "0.5"],
    ["sobolev", "--tol", "0.5"],
    ["moser", "--tol", "0.5"],
    ["eig", "--tol", "0.5"],
    ["eig", "--seed", "1"],
    ["symmetrize", "--plot-data", "plots"],
    ["sobolev", "--plot-data", "plots"],
    ["counterexample", "--plot-data", "plots"],
    ["eig", "--plot-data", "plots"],
], ids=["rearrange-tol", "sobolev-tol", "moser-tol", "eig-tol", "eig-seed",
        "symmetrize-plot-data", "sobolev-plot-data", "counterexample-plot-data",
        "eig-plot-data"])
def test_verdict_rules_are_not_flags(capsys, argv):
    # each of these could loosen a verdict, whose slack is a fixed constant,
    # or write a second copy of the report's ``--format csv`` table
    assert exit_code(argv + ["--quiet"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["isoperim", "--bogus"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == 2


def test_bad_domain_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run_cli(["isoperim", "--domain", str(bad), "--quiet"])
    assert code == 2


def test_unknown_builtin_exits_2(capsys):
    code = run_cli(["isoperim", "--domain", "no-such-domain", "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == (f"input error: unknown builtin domain 'no-such-domain'; "
                   f"choices: {', '.join(BUILTIN_NAMES)}\n")


@pytest.mark.parametrize("text, key", [
    (f'{{"labels": {_FOUR_FIXED}}}', "vertices"),
    (f'{{"vertices": {_SQUARE}}}', "labels"),
], ids=["no-vertices", "no-labels"])
def test_domain_file_without_a_required_key_exits_2(tmp_path, capsys, text, key):
    spec = tmp_path / "domain.json"
    spec.write_text(text)
    assert run_cli(["isoperim", "--domain", str(spec), "--quiet"]) == 2
    assert capsys.readouterr().err == f"input error: a domain must have a '{key}' key\n"


# every subcommand, each on a small input
_EVERY_SUBCOMMAND = {
    "constants": ["constants"],
    "isoperim": ["isoperim"],
    "symmetrize": ["symmetrize", "--steps", "2"],
    "rearrange": ["rearrange", "--h", "0.0625"],
    "sobolev": ["sobolev", "--h", "0.0625", "--random", "1"],
    "moser": ["moser", "--h", "0.0625", "--random", "1"],
    "counterexample": ["counterexample", "--a", "10"],
    "eig": ["eig", "--h", "0.0625"],
}


@pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
def test_the_verdict_rule_holds_at_its_threshold_and_fails_nan(upper):
    bound, slack = 3.0, 0.02
    threshold = bound * (1.0 + slack) if upper else bound * (1.0 - slack)
    past = math.nextafter(threshold, math.inf if upper else -math.inf)
    assert holds(threshold, bound, slack, upper=upper)
    assert not holds(past, bound, slack, upper=upper)
    assert not holds(math.nan, bound, slack, upper=upper)
    assert not holds(threshold, math.nan, slack, upper=upper)


# the items each verdict campaign decides, counted from its report
_VERDICT_ITEMS = {
    "isoperim": lambda report: len(report["reports"]),
    "symmetrize": lambda report: report["steps_run"],
    "rearrange": lambda report: (len(report["checks"]["profile_energy"])
                                 + len(report["checks"]["energy_factor"])),
    "sobolev": lambda report: len(report["bubble_ladder"]) + len(report["random_fields"]),
    "moser": lambda report: len(report["entries"]),
    "eig": lambda report: 1,
}


@pytest.mark.parametrize("command", _VERDICT_ITEMS)
def test_every_verdict_goes_through_the_rule(tmp_path, monkeypatch, command):
    # a rule that never holds fails every item of every verdict campaign
    monkeypatch.setattr("freebdry.cli.holds", lambda *args, **kwargs: False)
    out = tmp_path / "report.json"
    assert run_cli(_EVERY_SUBCOMMAND[command] + ["--quiet", "--out", str(out)]) == 4
    report = json.loads(out.read_text())
    assert len(report["failures"]) == _VERDICT_ITEMS[command](report) > 0


@pytest.mark.parametrize("command", _EVERY_SUBCOMMAND)
def test_json_report_names_its_subcommand_first(tmp_path, command):
    out = tmp_path / "report.json"
    assert run_cli(_EVERY_SUBCOMMAND[command] + ["--quiet", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert next(iter(report.items())) == ("command", command)


def test_csv_report_format(tmp_path):
    out = tmp_path / "iso.csv"
    code = run_cli(["isoperim", "--domain", "square-bottom-free", "--format", "csv",
                    "--quiet", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,ratio,bound,margin,area,fixed_length,vacuous"
    cells = lines[1].split(",")
    assert float(cells[1]) == pytest.approx(3.0)
    assert cells[6] == "false"


def test_csv_counterexample_format(tmp_path):
    out = tmp_path / "cx.csv"
    code = run_cli(["counterexample", "--a", "10", "--a", "1000", "--format", "csv",
                    "--quiet", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,energy_deficit,functional_lower_bound"
    assert len(lines) == 3


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["isoperim", "--random", "5", "--seed", "9", "--quiet"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("sub", _EVERY_SUBCOMMAND)
def test_every_subcommand_has_help(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([sub, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--" in out and sub not in ("",)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "freebdry.cli", "constants", "--n", "3", "--quiet",
         "--out", "/dev/null"],
        capture_output=True,
    )
    assert proc.returncode == 0


_FIELD_GOLDENS = [
    ("sobolev_halfdisk_seed1.json", ["sobolev", "--domain", "halfdisk", "--seed", "1"]),
    ("moser_random_concave_seed1_h005.json",
     ["moser", "--domain", str(Path(__file__).parent / "data" / "random_concave_seed1.json"),
      "--h", "0.05", "--random", "3", "--seed", "1"]),
]


@pytest.mark.parametrize("name, argv", _FIELD_GOLDENS)
def test_field_report_matches_golden(tmp_path, name, argv):
    # reports made when every field rasterized its own grid, every bubble
    # measured its own inradius and every rearrangement built its own disk;
    # the shared grid and its cached geometry must reproduce them byte for byte
    golden = Path(__file__).parent / "data" / name
    out = tmp_path / "report.json"
    assert run_cli(argv + ["--quiet", "--out", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()


def test_field_campaigns_rerun_in_process_like_a_fresh_interpreter(tmp_path):
    calls = [argv for _, argv in _FIELD_GOLDENS]
    reports = []
    for k, argv in enumerate(calls + calls):
        out = tmp_path / f"call{k}.json"
        assert run_cli(argv + ["--quiet", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports == _fresh_reports(calls, tmp_path) * 2


def _openblas_picks_its_kernel_at_run_time() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the config dicts
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


def _cpu_has_avx2() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX2"))


_RUN_GOLDENS = """
import json, sys
from freebdry.cli import main
sys.exit(max(main(argv + ["--quiet", "--out", out]) for argv, out in json.loads(sys.argv[1])))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not _openblas_picks_its_kernel_at_run_time(),
                    reason="needs numpy on OpenBLAS built with DYNAMIC_ARCH, on x86-64")
def test_grid_reports_do_not_depend_on_the_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE forces the kernel OpenBLAS would pick on another CPU;
    # the grid campaigns', the symmetrize and the generated isoperim reports
    # must not change with it
    goldens = [_REARRANGE_GOLDEN, _REARRANGE_ONE_P_GOLDEN, *_FIELD_GOLDENS, _SYMMETRIZE_GOLDEN,
               _SYMMETRIZE_GENERATED_GOLDEN, _ISOPERIM_GOLDEN]
    cores = ["Nehalem", "Prescott"] + (["Haswell"] if _cpu_has_avx2() else [])
    runs = {core: [(argv, str(tmp_path / f"{core}-{name}")) for name, argv in goldens]
            for core in cores}
    procs = [subprocess.Popen([sys.executable, "-c", _RUN_GOLDENS, json.dumps(calls)],
                              env={**os.environ, "OPENBLAS_CORETYPE": core})
             for core, calls in runs.items()]
    assert [proc.wait(timeout=300) for proc in procs] == [0] * len(procs)
    data = Path(__file__).parent / "data"
    for core, calls in runs.items():
        for (name, _), (_, out) in zip(goldens, calls):
            assert Path(out).read_bytes() == (data / name).read_bytes(), (core, name)


def test_field_campaigns_keep_no_geometry_between_calls(monkeypatch):
    # each call loads its own domain, so it rasterizes and checks concavity anew
    import freebdry.geometry as geometry
    import freebdry.quotients as quotients
    import freebdry.rearrange as rearrange

    counts = {"rasterize": 0, "concavity": 0}
    rasterize, concavity = geometry.rasterize, geometry._exact_concavity

    def counted_rasterize(*args):
        counts["rasterize"] += 1
        return rasterize(*args)

    def counted_concavity(domain):
        counts["concavity"] += 1
        return concavity(domain)

    for module in (geometry, quotients, rearrange):
        monkeypatch.setattr(module, "rasterize", counted_rasterize)
    monkeypatch.setattr(geometry, "_exact_concavity", counted_concavity)
    for _ in range(2):
        assert run_cli(["sobolev", "--h", "0.0625", "--random", "2", "--quiet"]) == 0
    # one grid per call for three bubbles and two random fields
    assert counts == {"rasterize": 2, "concavity": 2}
    counts.update(rasterize=0, concavity=0)
    for _ in range(2):
        assert run_cli(["moser", "--h", "0.0625", "--random", "3", "--quiet"]) == 0
    # one grid and one equal-area disk per call for three fields; the
    # concavity report is kept on the domain, so one check per call
    assert counts == {"rasterize": 4, "concavity": 2}


@pytest.mark.parametrize("argv, code", [
    (["sobolev", "--epsilon", "0"], 3),
    (["sobolev", "--epsilon", "0", "--h", "0.5"], 3),
    (["sobolev", "--epsilon", "0.9", "--h", "0.02"], 3),
    (["sobolev", "--p", "1"], 3),
    (["sobolev", "--p", "2.5"], 3),
    (["sobolev", "--random", "0", "--h", "0.0625"], 0),
    (["sobolev", "--h", "0.5"], 2),
    (["sobolev", "--h", "0.5", "--random", "0"], 2),
    (["moser", "--h", "0.5"], 2),
    (["moser", "--h", "0.5", "--random", "0"], 2),
])
def test_field_campaign_exit_codes(argv, code):
    # the grid is built by the first field that needs it, so an input check
    # that ran before rasterization still decides the exit code; a campaign
    # over no field is refused by the parser
    assert exit_code(argv + ["--quiet"]) == code


def _sector_json(alpha, segments, tip_first):
    """Domain JSON of the sector of opening ``alpha`` and radius 1: two free
    radii from the tip at the origin and a fixed arc of ``segments`` edges.
    Numbered from the tip, the free chain wraps past vertex 0."""
    t = alpha * np.arange(segments + 1) / segments
    arc = np.column_stack([np.cos(t), np.sin(t)]).tolist()
    if tip_first:
        vertices, labels = [[0.0, 0.0], *arc], ["free", *["fixed"] * segments, "free"]
    else:
        vertices, labels = [*arc, [0.0, 0.0]], [*["fixed"] * segments, "free", "free"]
    return json.dumps({"vertices": vertices, "labels": labels})


@pytest.mark.parametrize("tip_first", [True, False], ids=["numbered-from-tip", "numbered-from-arc"])
def test_sobolev_on_sector_does_not_depend_on_vertex_numbering(tmp_path, tip_first):
    # the same 1.5 pi sector either way; numbered from the tip, the free
    # chain wraps past vertex 0, and its midpoint, the bubble centre, is the
    # tip only if the chain is walked in chain order: in edge-table order it
    # falls where a radius meets the fixed arc, with a clearance of 1.8e-19
    spec = tmp_path / "sector.json"
    spec.write_text(_sector_json(1.5 * math.pi, 256, tip_first))
    assert run_cli(["sobolev", "--domain", str(spec), "--h", "0.0078125",
                    "--random", "0", "--quiet"]) == 0


def _numbers(report, path=()):
    """The leaves of a JSON report as (path, value) pairs, in order."""
    if isinstance(report, dict):
        return [leaf for k, v in report.items() for leaf in _numbers(v, path + (k,))]
    if isinstance(report, list):
        return [leaf for k, v in enumerate(report) for leaf in _numbers(v, path + (k,))]
    return [(path, report)]


def _rolled_domains():
    """Domain JSON of every builtin and of two sectors, each with its outer
    loop numbered from vertex 0, 1, m // 3, m // 2 and m - 1."""
    from freebdry.domains import BUILTIN_NAMES, builtin_domain

    specs = {name: builtin_domain(name).to_json_dict() for name in BUILTIN_NAMES}
    for alpha in (0.9, 1.5):
        specs[f"sector-{alpha}pi"] = json.loads(_sector_json(alpha * math.pi, 64, tip_first=False))
    for name, spec in specs.items():
        m = len(spec["vertices"])
        rolls = sorted({1, m // 3, m // 2, m - 1} - {0})
        yield pytest.param(spec, rolls, id=name)


def _roll(spec, r):
    return {**spec, "vertices": spec["vertices"][r:] + spec["vertices"][:r],
            "labels": spec["labels"][r:] + spec["labels"][:r]}


@pytest.mark.parametrize("argv", [
    ["isoperim"],
    ["sobolev", "--h", "0.03125", "--random", "1"],
    ["eig", "--h", "0.03125"],
], ids=["isoperim", "sobolev", "eig"])
@pytest.mark.parametrize("spec, rolls", _rolled_domains())
def test_reports_do_not_depend_on_vertex_numbering(tmp_path, capsys, spec, rolls, argv):
    # the same domain numbered from another vertex gives the same exit code
    # and the same numbers; the sums run in another order, so not the same
    # bytes (the largest drift seen is 1.9e-11 relative, on the half disk)
    def run(r):
        path, out = tmp_path / f"domain{r}.json", tmp_path / f"report{r}.json"
        path.write_text(json.dumps(_roll(spec, r)))
        code = exit_code(argv + ["--domain", str(path), "--quiet", "--out", str(out)])
        return code, capsys.readouterr().err, json.loads(out.read_text()) if out.exists() else None

    code, err, report = run(0)
    for r in rolls:
        rolled_code, rolled_err, rolled = run(r)
        assert (rolled_code, rolled_err) == (code, err), r
        if report is None:
            assert rolled is None
            continue
        leaves, rolled_leaves = _numbers(report), _numbers(rolled)
        assert [p for p, _ in rolled_leaves] == [p for p, _ in leaves]
        for (path, a), (_, b) in zip(leaves, rolled_leaves):
            if isinstance(a, float):
                assert b == pytest.approx(a, rel=1e-9, abs=0.0), (r, path)
            else:
                assert b == a, (r, path)


def _free_lower_arc_disk_json(segments=32):
    """Domain JSON of the regular ``segments``-gon inscribed in the unit
    circle, its upper arc fixed and its lower arc free: a chord between two
    free points crosses the inside, so the free chain is not concave."""
    t = 2.0 * math.pi * np.arange(segments) / segments
    vertices = np.column_stack([np.cos(t), np.sin(t)]).tolist()
    labels = ["fixed" if k < segments // 2 else "free" for k in range(segments)]
    return json.dumps({"vertices": vertices, "labels": labels})


_OUT_OF_CLASS = {
    "disk-free-lower-arc": _free_lower_arc_disk_json(),
    "sector-0.9pi": _sector_json(0.9 * math.pi, 64, tip_first=False),
    # no fixed edge: the outer loop is all free and lies in the hull of its
    # own chain, so the bubble's fixed clearance is infinite and the gate
    # decides
    "square-all-free": json.dumps({"vertices": json.loads(_SQUARE), "labels": ["free"] * 4}),
}
_GATED_CAMPAIGNS = {
    "isoperim": ["isoperim"],
    "rearrange": ["rearrange", "--h", "0.0625"],
    "sobolev": ["sobolev", "--h", "0.0625", "--random", "1"],
    "moser": ["moser", "--h", "0.0625", "--random", "1"],
    "eig": ["eig", "--h", "0.0625"],
}


def _run_on(tmp_path, spec_json, argv, capsys):
    spec = tmp_path / "domain.json"
    spec.write_text(spec_json)
    code = exit_code(argv + ["--domain", str(spec), "--quiet"])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("campaign", _GATED_CAMPAIGNS)
@pytest.mark.parametrize("domain", _OUT_OF_CLASS)
def test_every_gated_campaign_refuses_a_non_concave_domain(tmp_path, capsys, domain, campaign):
    # each theorem assumes a concave free chain, so the one admissibility
    # gate refuses the same domain under every campaign, with the same reason
    code, err = _run_on(tmp_path, _OUT_OF_CLASS[domain], _GATED_CAMPAIGNS[campaign], capsys)
    assert (code, err) == (3, "precondition violated: free chain is not concave "
                              "with respect to the domain\n")


@pytest.mark.parametrize("campaign", _GATED_CAMPAIGNS)
def test_every_gated_campaign_accepts_a_concave_sector(tmp_path, capsys, campaign):
    # the 1.5 pi sector numbered from the arc: concave, and its bubble
    # centre is the tip
    spec_json = _sector_json(1.5 * math.pi, 64, tip_first=False)
    assert _run_on(tmp_path, spec_json, _GATED_CAMPAIGNS[campaign], capsys) == (0, "")


def test_symmetrize_refuses_a_non_concave_domain(tmp_path, capsys):
    codes = [_run_on(tmp_path, spec_json, ["symmetrize", "--steps", "2"], capsys)[0]
             for spec_json in _OUT_OF_CLASS.values()]
    assert codes == [3] * len(_OUT_OF_CLASS)


_SCIPY_ONLY_IN_EIG = """
import json, sys
from freebdry.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

runs = []
for argv in json.loads(sys.argv[1]):
    code = main(argv + ["--quiet"])
    runs.append([argv[0], code, scipy_modules()])
print(json.dumps(runs))
"""


def test_only_eig_loads_scipy():
    # pytest has imported scipy already, so this needs its own interpreter
    campaigns = [
        ["constants"],
        ["isoperim", "--random", "2"],
        ["symmetrize", "--steps", "2"],
        ["rearrange", "--h", "0.0625"],
        ["sobolev", "--h", "0.0625", "--random", "1"],
        ["moser", "--h", "0.0625", "--random", "1"],
        ["counterexample"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_ONLY_IN_EIG, json.dumps(campaigns + [["eig", "--h", "0.0625"]])],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *runs, (name, code, loaded) = json.loads(proc.stdout.splitlines()[-1])
    assert runs == [[argv[0], 0, []] for argv in campaigns]
    assert (name, code) == ("eig", 0)
    assert {"scipy.sparse.linalg", "scipy.special"} <= set(loaded)
