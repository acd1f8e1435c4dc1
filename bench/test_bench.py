"""Tests of the benchmark harness itself, on a pass of small campaigns that
touches every traced layer.

    python3 -m pytest -q bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

bench.import_program()


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A runner and one small invocation of each campaign the workloads use."""
    tmp = tmp_path_factory.mktemp("bench")
    (d0, dom0), (d1, dom1) = wl.generate_domains(5, 2, tmp / "inputs")
    invocations = [
        wl.Invocation("isoperim", "a", ("isoperim", "--random", "3", "--seed", "1")),
        wl.Invocation("symmetrize", "a", ("symmetrize", "--domain", str(d0), "--steps", "4")),
        wl.Invocation("rearrange", "a", ("rearrange", "--domain", str(d1), "--h",
                                         wl.h_for_cells(dom1, 800), "--p", "1.5")),
        wl.Invocation("sobolev", "b", ("sobolev", "--domain", "halfdisk", "--h", repr(1 / 32),
                                       "--random", "1")),
        wl.Invocation("moser", "b", ("moser", "--domain", str(d1), "--h",
                                     wl.h_for_cells(dom1, 800), "--random", "1")),
        wl.Invocation("eig", "b", ("eig", "--domain", str(d0), "--h", wl.h_for_cells(dom0, 600))),
    ]
    return bench.Runner(tmp / "reports"), invocations


def test_spans_nest_and_self_times_fit_in_the_pass(small):
    runner, invocations = small
    tracer = tracing.Tracer()
    res = runner.run_pass(invocations, tracer)
    spans = tracer.spans
    assert spans and not tracer._stack
    for name, start, end, parent in spans:
        assert end >= start
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2], name
    own = tracer.self_times()
    assert min(own) >= -1e-9
    assert sum(own) <= res["wall"]
    layers = tracing.layer_metrics(tracer)
    for name in ("geometry.domain_builds", "geometry.concavity_calls", "geometry.raster_cells",
                 "domains.generated", "rearrange.level_stats_calls", "rearrange.levels_used",
                 "rearrange.radial_cells", "rearrange.random_fields", "quotients.bubble_calls",
                 "quotients.moser_report_calls", "spectral.unknowns", "spectral.iterations",
                 "geometry.steps_attempted"):
        assert layers[name] > 0, name
    assert layers["rearrange.levels_used"] <= layers["rearrange.levels_requested"]
    assert 0.0 < layers["spectral.residual_max"] < 1e-3


def bindings() -> dict:
    """Every callable bound in a freebdry namespace, and every traced attribute."""
    out = {}
    for module_name, path, _, _ in tracing.TARGETS:
        owner, attr = tracing.resolve(module_name, path)
        out[(module_name, path)] = vars(owner)[attr]
    for module in tracing.program_modules():
        out.update(((module.__name__, k), v) for k, v in vars(module).items() if callable(v))
    return out


def test_restore_puts_every_original_back(small):
    runner, invocations = small
    from freebdry import geometry, spectral

    before = bindings()
    original = geometry.rasterize
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert spectral.rasterize is not original           # the copy bound by import
            assert geometry.LabeledDomain.__init__ is not before[("freebdry.geometry", "LabeledDomain.__init__")]
            1 / 0
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    runner.run_pass(invocations[:1], tracing.Tracer())
    assert all(bindings()[k] is v for k, v in before.items())


def test_traced_and_untraced_reports_are_byte_identical(small):
    runner, invocations = small
    plain = runner.run_pass(invocations)
    traced = runner.run_pass(invocations, tracing.Tracer())
    assert all(text is not None for text in plain["reports"])
    assert plain["reports"] == traced["reports"]
    assert plain["codes"] == traced["codes"]


def test_each_campaign_is_scaled_by_the_reference_loop_around_it(small):
    runner, invocations = small
    res = runner.run_pass(invocations[:2])
    refs = res["refs"]
    assert len(refs) == 3 and min(refs) > 0
    assert res["wall"] == sum(res["times"])
    for k, (t, s) in enumerate(zip(res["times"], res["scaled"])):
        assert s == pytest.approx(t * bench.REF_NOMINAL_S * 2 / (refs[k] + refs[k + 1]))


def test_symmetrize_checks_every_step_against_its_replay(small):
    runner, invocations = small
    inv = invocations[1]
    text = runner.run_pass([inv])["reports"][0]
    replay = wl.replay_symmetrize(inv.domain, text)
    trace = json.loads(text)["trace"]
    assert replay is not None and len(replay) == len(trace)
    area0 = trace[0]["area"]
    assert all(abs(s.area_after - area0) <= wl.AREA_RTOL * area0 for s in replay)
    attempted, failed = wl.check_report(inv, 0, text)
    assert attempted == 1 + len(trace)
    assert failed >= sum(s.left_class for s in replay)
    # a report the program's own steps do not reproduce fails on every step
    forged = json.loads(text)
    forged["trace"][0]["ratio"] += 1e-3
    assert wl.check_report(inv, 0, json.dumps(forged)) == (attempted, len(trace))


def test_symmetrize_postconditions():
    trace = [{"ratio": 2.6, "area": 1.0}, {"ratio": 2.55, "area": 1.0}]
    ok = {"trace": trace, "final_ratio": 2.51}
    kept = (wl.StepOutcome(1.0, False), wl.StepOutcome(1.0, False))
    assert wl._symmetrize_items(ok, kept) == [True, True]
    assert wl._symmetrize_items({"trace": trace, "final_ratio": 0.0}, kept) == [True, False]
    assert wl._symmetrize_items({"trace": trace, "final_ratio": 2.56}, kept) == [True, False]
    assert wl._symmetrize_items(ok, (kept[0], wl.StepOutcome(1.1, False))) == [True, False]
    assert wl._symmetrize_items(ok, (wl.StepOutcome(1.0, True), kept[1])) == [False, True]
    assert wl._symmetrize_items(ok, None) == [False, False]
    assert wl.RATIO_FLOOR == pytest.approx(0.99 * math.sqrt(2 * math.pi))


def test_vacuous_slope_check_fails():
    inv = wl.Invocation("rearrange", "a", ("rearrange",))
    rep = {"checks": {"slope_coarea": {"levels": 0}, "profile_energy": [{"ok": True}],
                      "energy_factor": [{"ok": True}]}}
    assert wl.check_report(inv, 0, json.dumps(rep)) == (4, 1)
    assert wl.check_report(inv, 3, None) == (1, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fields", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
