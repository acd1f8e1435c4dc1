import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from freebdry.cli import main


def run_cli(args):
    """Run in-process, capturing the exit code."""
    return main(args)


def test_constants_values(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = run_cli(["constants", "--n", "2", "--p", "1", "--quiet", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    row = data["values"][0]
    assert row["sobolev"] == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-12)
    assert row["moser_exponent"] == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert row["iso_free"] == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)


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


def test_symmetrize_trace(tmp_path):
    out = tmp_path / "sym.json"
    plots = tmp_path / "plots"
    code = run_cli(["symmetrize", "--domain", "trapezoid", "--steps", "6",
                    "--plot-data", str(plots), "--quiet", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["failures"] == []
    assert data["final_ratio"] <= data["initial_ratio"] + 1e-9
    lines = (plots / "symmetrize_trace.csv").read_text().splitlines()
    assert lines[0] == "step,ratio,area"
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


def test_rearrange_report_matches_golden(tmp_path):
    # the report of the per-level marching squares that preceded the batched
    # pass; the same method must reproduce it byte for byte
    golden = Path(__file__).parent / "data" / "rearrange_halfdisk_h48_seed0.json"
    out = tmp_path / "re.json"
    code = run_cli(["rearrange", "--domain", "halfdisk", "--h", str(1 / 48), "--p", "1.5",
                    "--p", "2", "--p", "3", "--seed", "0", "--quiet", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == golden.read_bytes()


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


def test_unknown_builtin_exits_2():
    code = run_cli(["isoperim", "--domain", "no-such-domain", "--quiet"])
    assert code == 2


def test_csv_report_format(tmp_path):
    out = tmp_path / "iso.csv"
    code = run_cli(["isoperim", "--domain", "square-bottom-free", "--format", "csv",
                    "--quiet", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,ratio,bound,margin,area,fixed_length,concave,vacuous"
    cells = lines[1].split(",")
    assert float(cells[1]) == pytest.approx(3.0)
    assert cells[6] == "true"


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


def test_outdir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("FREEBDRY_OUTDIR", str(tmp_path / "series"))
    code = run_cli(["counterexample", "--a", "10", "--a", "100", "--quiet"])
    assert code == 0
    assert (tmp_path / "series" / "counterexample_sweep.csv").exists()


@pytest.mark.parametrize("sub", [
    "constants", "isoperim", "symmetrize", "rearrange",
    "sobolev", "moser", "counterexample", "eig",
])
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
