"""Campaign benchmark for freebdry.

Runs one workload (a fixed list of CLI campaigns, see ``workloads.py``) in a
closed loop: one process, one campaign at a time, passes repeated until
``--seconds`` have elapsed.  Every campaign goes through
``freebdry.cli.main(argv)`` in-process with ``--quiet --out <file>``; every
report is checked on every pass.

    python3 bench/run.py --workload domains --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details of the run (seed, nproc,
versions, quartiles, spans) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

# On a shared host the CPU's speed changes from one second to the next (by
# up to 1.6x on a 2-vCPU VM), with the load of other tenants.  A fixed
# pure-Python loop is timed between consecutive campaigns, and every
# campaign's time is scaled by REF_NOMINAL_S over the loop's time around it:
# the reported times are seconds at the CPU speed at which the loop takes
# REF_NOMINAL_S.
REF_ITERATIONS = 20_000
REF_NOMINAL_S = 0.0015

sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import freebdry; print(time.perf_counter() - t)"
)


def import_program():
    """Import freebdry from this checkout's ``src`` and nowhere else."""
    if not (SRC / "freebdry" / "__init__.py").is_file():
        raise SystemExit(f"freebdry sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import freebdry
    import freebdry.cli

    if Path(freebdry.__file__).resolve().parent != SRC / "freebdry":
        raise SystemExit(f"imported freebdry from {freebdry.__file__}, not from {SRC}")
    return freebdry


def reference() -> float:
    """Seconds the reference loop takes now: median of three runs."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_ITERATIONS):
            acc += i * i
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` at the nominal CPU speed (see REF_NOMINAL_S)."""
    return seconds * REF_NOMINAL_S / (0.5 * (ref_before + ref_after))


def timed_import() -> float:
    """Seconds ``import freebdry`` takes in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Runner:
    """Runs invocations through ``freebdry.cli.main`` and checks their reports."""

    def __init__(self, out_dir: Path):
        from freebdry import cli

        self.cli = cli
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

    def _out_path(self, k: int) -> Path:
        return self.out_dir / f"report_{k:03d}.json"

    def run_pass(self, invocations, tracer=None) -> dict:
        """One pass over ``invocations``; the clock covers only the CLI calls.

        ``times`` are the calls' seconds and ``scaled`` the same at the
        nominal CPU speed; ``wall`` is their sum.  With a tracer, each
        campaign is a ``cli.<campaign>`` span and the tracer's wrappers are
        installed for the pass only.
        """
        for k in range(len(invocations)):
            self._out_path(k).unlink(missing_ok=True)
        gc.collect()
        codes, times, refs = [], [], [reference()]
        with tracer if tracer is not None else contextlib.nullcontext():
            for k, inv in enumerate(invocations):
                argv = [*inv.argv, "--quiet", "--out", str(self._out_path(k))]
                t0 = time.perf_counter()
                span = tracer.open(f"cli.{inv.campaign}") if tracer is not None else None
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:      # argparse rejected the arguments
                    code = exc.code
                except Exception:              # counted as a failed invocation
                    traceback.print_exc()
                    code = -1
                if span is not None:
                    tracer.close(span)
                t1 = time.perf_counter()
                codes.append(code)
                times.append(t1 - t0)
                refs.append(reference())
        reports = [p.read_text() if p.is_file() else None
                   for p in map(self._out_path, range(len(invocations)))]
        return {"wall": sum(times), "times": times,
                "scaled": [scaled(t, *refs[k:k + 2]) for k, t in enumerate(times)],
                "refs": refs, "codes": codes, "reports": reports}


def check_pass(invocations, p) -> tuple[int, int]:
    """(attempted, failed) checks of every report of one pass."""
    results = [wl.check_report(inv, code, text)
               for inv, code, text in zip(invocations, p["codes"], p["reports"])]
    return sum(a for a, _ in results), sum(f for _, f in results)


def steps_left_class(invocations, reports) -> int:
    """Symmetrization steps of one pass whose output left the admissible class."""
    total = 0
    for inv, text in zip(invocations, reports):
        if inv.campaign == "symmetrize" and text is not None:
            total += sum(s.left_class for s in wl.replay_symmetrize(inv.domain, text) or ())
    return total


def quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q2 = q3 = values[0]
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def setup(workload: str, seed: int, runner: Runner, inputs: Path):
    """Import, input generation and warm-up, repeated; returns the campaign
    list and the setup times."""
    samples = []
    for _ in range(SETUP_REPEATS):
        ref0 = reference()
        import_s = timed_import()
        t0 = time.perf_counter()
        invocations = wl.build(workload, seed, inputs)
        t1 = time.perf_counter()
        runner.run_pass(wl.warmup(workload, inputs))
        t2 = time.perf_counter()
        total = import_s + (t2 - t0)
        samples.append({"import_s": import_s, "generate_s": t1 - t0, "warmup_s": t2 - t1,
                        "total_s": total, "scaled_s": scaled(total, ref0, reference())})
    return invocations, samples


def run(workload: str, seed: int, seconds: float, trace: bool, out_root: Path) -> dict:
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    out_dir = out_root / tag
    runner = Runner(out_dir / "reports")
    invocations, setup_samples = setup(workload, seed, runner, out_dir / "inputs")

    # Closed loop: the next pass starts only if it is expected to end within
    # ``seconds``; a traced run alternates untraced and traced passes and
    # makes at least one of each.
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if trace and len(traced) < len(plain):
            tracer = tracing.Tracer()
            traced.append(runner.run_pass(invocations, tracer))
            tracers.append(tracer)
        else:
            plain.append(runner.run_pass(invocations))
        now = time.perf_counter()
        if now + (now - t0) > start + seconds and (not trace or traced):
            break

    passes = plain + traced
    first = passes[0]["reports"]
    deterministic = all(p["reports"] == first for p in passes)
    complete = all(text is not None or code not in (0, 4)
                   for p in passes for text, code in zip(p["reports"], p["codes"]))
    parts = sorted({inv.part for inv in invocations})

    def part_time(p, part, key):
        return sum(t for t, inv in zip(p[key], invocations) if inv.part == part)

    def timings(key):
        return {
            "wall_s": quartiles([sum(p[key]) for p in plain]),
            **{f"campaign_{part}_s": quartiles([part_time(p, part, key) for p in plain])
               for part in parts},
        }

    summary = {**timings("scaled"),
               "setup_s": quartiles([s["scaled_s"] for s in setup_samples])}
    raw = {**timings("times"), "setup_s": quartiles([s["total_s"] for s in setup_samples])}
    # Checks run on every pass, after the timed loop, so replaying symmetrize
    # reports costs no measured time.  Every pass makes the same checks (its
    # reports are byte-identical, or the run is not correct), so the result
    # counts those of one pass, whatever the number of passes.
    checks = [check_pass(invocations, p) for p in passes]
    attempted, failed = checks[0]
    deterministic = deterministic and all(c == checks[0] for c in checks)
    report_bytes = sum(len(t.encode()) for t in first if t is not None)

    metrics = {k: (summary[k]["median"], "s")
               for k in ("wall_s", "campaign_a_s", "campaign_b_s", "setup_s")}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    layers = {}
    if trace:
        layers = tracing.median_metrics([tracing.layer_metrics(t) for t in tracers])
        layers["geometry.steps_left_class"] = float(steps_left_class(invocations, first))
        layers["cli.report_bytes"] = float(report_bytes)
        layers["trace.overhead_s"] = (statistics.median(sum(p["scaled"]) for p in traced)
                                      - statistics.median(sum(p["scaled"]) for p in plain))
        layers = {k: layers[k] for k in tracing.PER_LAYER}
        (out_dir / "spans.json").write_text(json.dumps(
            [{"pass": i, "spans": t.spans} for i, t in enumerate(tracers)]))

    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "campaigns": [list(inv.argv) for inv in invocations],
        "parts": {part: sorted({inv.campaign for inv in invocations if inv.part == part})
                  for part in parts},
        "passes_untraced": len(plain),
        "passes_traced": len(traced),
        "summary": summary,
        "summary_unscaled": raw,
        "ref_nominal_s": REF_NOMINAL_S,
        "ref_s": quartiles([r for p in plain for r in p["refs"]]),
        "invocation_parts": [inv.part for inv in invocations],
        "pass_log": [{"times": p["times"], "refs": p["refs"]} for p in plain],
        "labels": wl.CAMPAIGN_LABELS[workload],
        "setup": setup_samples,
        "exit_codes": passes[0]["codes"],
        "checks": {"attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
                   "passes_checked": len(checks)},
        "deterministic_reports": deterministic,
        "report_bytes": report_bytes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "per_layer": layers,
    }
    (out_dir / "result.json").write_text(json.dumps(detail, indent=2) + "\n")
    return {
        "detail": detail,
        "correct": deterministic and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    res = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".bench_out")
    d = res["detail"]
    print(f"workload {d['workload']} seed {d['seed']} nproc {d['nproc']} python {d['python']} "
          f"numpy {d['numpy']} scipy {d['scipy']}")
    print(f"passes untraced {d['passes_untraced']} traced {d['passes_traced']}")
    q = d["ref_s"]
    print(f"reference loop median {q['median']:.6f} s q1 {q['q1']:.6f} q3 {q['q3']:.6f} "
          f"n {q['n']}; times below are scaled to {d['ref_nominal_s']} s, unscaled in brackets")
    for name, q in d["summary"].items():
        label = f" ({d['labels'][name]})" if name in d["labels"] else ""
        print(f"{name}{label} median {q['median']:.6f} s q1 {q['q1']:.6f} q3 {q['q3']:.6f} "
              f"n {q['n']} [median {d['summary_unscaled'][name]['median']:.6f} s]")
    c = d["checks"]
    print(f"checks attempted {c['attempted']} failed {c['failed']} fail_frac {c['fail_frac']:.6f}")
    if args.trace:
        out = {k: {"value": v, "unit": tracing.unit(k)} for k, v in res["layers"].items()}
    else:
        out = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    for k, m in out.items():
        print(f"{k} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
