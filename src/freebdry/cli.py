"""Command-line verification campaigns.

Every subcommand runs a deterministic campaign (fixed seed, fixed inputs),
prints a human-readable summary, optionally writes the full report as JSON or
CSV, and exits with a machine-readable status:

    0  all asserted inequalities hold within tolerance
    2  argument or input parsing failed
    3  a precondition was violated (e.g. non-concave free chain)
    4  an asserted inequality failed

Plot-ready CSV series (one file per ladder) land in the directory given by
``--plot-data`` or the FREEBDRY_OUTDIR environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import constants as consts
from . import domains as domlib
from .errors import (
    ConvergenceError,
    DegenerateCutError,
    DomainValidationError,
    PreconditionError,
)
from .geometry import (
    LabeledDomain,
    is_concave_free_boundary,
    isoperimetric_report,
    symmetrize_iterate,
)
from .quotients import (
    CounterexampleSpec,
    counterexample_blowup,
    counterexample_domain,
    moser_report,
    normalize_energy,
    sobolev_report,
    talenti_bubble,
)
from .rearrange import (
    check_profile_energy_bound,
    check_rearrangement_energy_factor,
    check_slope_coarea_identity,
    random_admissible_field,
)
from .spectral import check_frequency_vs_half_ball

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INEQUALITY = 4


def _load_domain(spec: str, segments: int = 64) -> LabeledDomain:
    if spec.startswith("counterexample:"):
        a = float(spec.split(":", 1)[1])
        return counterexample_domain(CounterexampleSpec(a=a), segments=segments)
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        return LabeledDomain.load_json(path)
    return domlib.builtin_domain(spec, segments=segments)


def _out_dir(args) -> Path | None:
    if getattr(args, "plot_data", None):
        return Path(args.plot_data)
    env = os.environ.get("FREEBDRY_OUTDIR")
    return Path(env) if env else None


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return "" if v is None else str(v)


def _emit(args, payload: dict, table: tuple[list[str], list[dict]] | None = None) -> None:
    """Write the report as JSON, or as CSV of its primary table when the
    campaign asked for csv format; column order is fixed per subcommand."""
    if getattr(args, "format", "json") == "csv" and table is not None:
        cols, rows = table
        lines = [",".join(cols)]
        lines += [",".join(_csv_cell(row.get(c)) for c in cols) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    if not args.quiet:
        print(text, end="")


def _write_series(directory: Path, name: str, header: list[str], rows) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.csv"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    rows = []
    for p in args.p:
        c = consts.sharp_constants(args.n, p)
        rows.append({
            "n": c.n,
            "p": c.p,
            "p_star": c.p_star,
            "sobolev": c.sobolev,
            "moser_exponent": c.moser_exponent,
            "sphere_area": c.sphere_area,
            "iso_std": c.iso_std,
            "iso_free": c.iso_free,
        })
    cols = ["n", "p", "p_star", "sobolev", "moser_exponent", "sphere_area", "iso_std", "iso_free"]
    _emit(args, {"command": "constants", "values": rows}, table=(cols, rows))
    return EXIT_OK


def cmd_isoperim(args) -> int:
    failures = []
    reports = []
    if args.random:
        rng = np.random.default_rng(args.seed)
        doms = [domlib.random_concave_domain(rng) for _ in range(args.random)]
    else:
        doms = [_load_domain(args.domain)]
    for k, dom in enumerate(doms):
        conc = is_concave_free_boundary(dom)
        rep = isoperimetric_report(dom)
        entry = {
            "index": k,
            "ratio": rep.ratio,
            "bound": rep.bound,
            "margin": rep.margin,
            "area": rep.area,
            "fixed_length": rep.fixed_length,
            "concave": conc.concave,
            "vacuous": conc.vacuous,
        }
        reports.append(entry)
        if conc.concave and rep.margin < -0.01 * rep.bound:
            failures.append({"index": k, "margin": rep.margin})
    payload = {"command": "isoperim", "reports": reports, "failures": failures}
    cols = ["index", "ratio", "bound", "margin", "area", "fixed_length", "concave", "vacuous"]
    _emit(args, payload, table=(cols, reports))
    return EXIT_INEQUALITY if failures else EXIT_OK


def cmd_symmetrize(args) -> int:
    dom = _load_domain(args.domain)
    final, trace = symmetrize_iterate(dom, steps=args.steps)
    rows = [(t["step"], t["ratio"], t["area"]) for t in trace]
    out = _out_dir(args)
    if out is not None:
        _write_series(out, "symmetrize_trace", ["step", "ratio", "area"], rows)
    ratios = [t["ratio"] for t in trace] + [isoperimetric_report(final).ratio]
    increases = [b - a for a, b in zip(ratios, ratios[1:]) if b - a > 1e-9]
    payload = {
        "command": "symmetrize",
        "steps_run": len(trace),
        "initial_ratio": ratios[0],
        "final_ratio": ratios[-1],
        "trace": trace,
        "failures": [{"ratio_increase": inc} for inc in increases],
    }
    cols = ["step", "theta", "ratio", "area", "projection_width", "case"]
    _emit(args, payload, table=(cols, trace))
    return EXIT_INEQUALITY if increases else EXIT_OK


def cmd_rearrange(args) -> int:
    dom = _load_domain(args.domain)
    rng = np.random.default_rng(args.seed)
    field = random_admissible_field(dom, args.h, rng)
    failures = []
    slope = check_slope_coarea_identity(field)
    entry = {"max_slope_coarea_dev": slope.max_rel_dev, "levels": slope.levels_used}
    checks = {"slope_coarea": entry, "profile_energy": [], "energy_factor": []}
    for p in args.p:
        lhs, rhs = check_profile_energy_bound(field, p)
        ok = lhs <= rhs * (1.0 + args.tol)
        checks["profile_energy"].append({"p": p, "lhs": lhs, "rhs": rhs, "ok": ok})
        if not ok:
            failures.append({"check": "profile_energy", "p": p, "lhs": lhs, "rhs": rhs})
        lhs2, rhs2 = check_rearrangement_energy_factor(field, p)
        ok2 = lhs2 <= rhs2 * (1.0 + args.tol)
        checks["energy_factor"].append({"p": p, "lhs": lhs2, "rhs": rhs2, "ok": ok2})
        if not ok2:
            failures.append({"check": "energy_factor", "p": p, "lhs": lhs2, "rhs": rhs2})
    payload = {"command": "rearrange", "checks": checks, "failures": failures}
    csv_rows = (
        [{"check": "profile_energy", **row} for row in checks["profile_energy"]]
        + [{"check": "energy_factor", **row} for row in checks["energy_factor"]]
    )
    _emit(args, payload, table=(["check", "p", "lhs", "rhs", "ok"], csv_rows))
    return EXIT_INEQUALITY if failures else EXIT_OK


def cmd_sobolev(args) -> int:
    dom = _load_domain(args.domain)
    failures = []
    ladder = []
    base = None
    for eps in args.epsilon:
        bubble = talenti_bubble(dom, args.h, args.p, eps)
        rep = sobolev_report(bubble, args.p)
        ladder.append({
            "epsilon": eps,
            "quotient": rep.quotient,
            "bound": rep.bound,
            "gap": (rep.quotient - rep.bound) / rep.bound,
        })
        base = rep.bound
        if rep.quotient < rep.bound * (1.0 - args.tol):
            failures.append({"epsilon": eps, "quotient": rep.quotient, "bound": rep.bound})
    rng = np.random.default_rng(args.seed)
    randoms = []
    for k in range(args.random):
        field = random_admissible_field(dom, args.h, rng)
        rep = sobolev_report(field, args.p)
        randoms.append({"index": k, "quotient": rep.quotient, "margin": rep.margin})
        if rep.quotient < rep.bound * (1.0 - args.tol):
            failures.append({"index": k, "quotient": rep.quotient, "bound": rep.bound})
    out = _out_dir(args)
    if out is not None and ladder:
        _write_series(out, "bubble_ladder", ["epsilon", "quotient", "bound"],
                      [(r["epsilon"], r["quotient"], base) for r in ladder])
    payload = {
        "command": "sobolev",
        "p": args.p,
        "bound": base,
        "bubble_ladder": ladder,
        "random_fields": randoms,
        "failures": failures,
    }
    _emit(args, payload, table=(["epsilon", "quotient", "bound", "gap"], ladder))
    return EXIT_INEQUALITY if failures else EXIT_OK


def cmd_moser(args) -> int:
    dom = _load_domain(args.domain)
    rng = np.random.default_rng(args.seed)
    failures = []
    entries = []
    for k in range(args.random):
        field = normalize_energy(random_admissible_field(dom, args.h, rng))
        rep = moser_report(field)
        ok = rep.identity_gap <= args.tol and rep.functional >= rep.area
        entries.append({
            "index": k,
            "functional": rep.functional,
            "rearranged_functional": rep.rearranged_functional,
            "identity_gap": rep.identity_gap,
            "area": rep.area,
            "ok": ok,
        })
        if not ok:
            failures.append(entries[-1])
    payload = {"command": "moser", "entries": entries, "failures": failures}
    cols = ["index", "functional", "rearranged_functional", "identity_gap", "area", "ok"]
    _emit(args, payload, table=(cols, entries))
    return EXIT_INEQUALITY if failures else EXIT_OK


def cmd_counterexample(args) -> int:
    specs = [CounterexampleSpec(a=a, tau0=args.tau0) for a in args.a]
    points = counterexample_blowup(specs)
    rows = [(p.a, p.energy_deficit, p.functional_lower_bound) for p in points]
    failures = []
    for (a1, d1, f1), (a2, d2, f2) in zip(rows, rows[1:]):
        if not f2 > f1:
            failures.append({"a": a2, "reason": "lower bound not increasing"})
    for a, d, f in rows:
        if not 0.0 < d < 1.0:
            failures.append({"a": a, "reason": f"energy deficit {d} outside (0,1)"})
    out = _out_dir(args)
    if out is not None:
        _write_series(out, "counterexample_sweep",
                      ["a", "energy_deficit", "functional_lower_bound"], rows)
    payload = {
        "command": "counterexample",
        "tau0": args.tau0,
        "points": [
            {"a": p.a, "energy_deficit": p.energy_deficit,
             "energy_bound": p.energy_bound,
             "functional_lower_bound": p.functional_lower_bound}
            for p in points
        ],
        "failures": failures,
    }
    cols = ["a", "energy_deficit", "functional_lower_bound"]
    _emit(args, payload, table=(cols, payload["points"]))
    return EXIT_INEQUALITY if failures else EXIT_OK


def cmd_eig(args) -> int:
    dom = _load_domain(args.domain)
    report = check_frequency_vs_half_ball(dom, args.h, tol=args.tol, seed=args.seed)
    ok = report.margin >= -0.02 * report.reference
    payload = {
        "command": "eig",
        "report": report.to_json_dict(),
        "failures": [] if ok else [{"margin": report.margin}],
    }
    out = _out_dir(args)
    if out is not None:
        _write_series(out, "eigenvalue", ["h", "lambda", "reference"],
                      [(report.h, report.lam, report.reference)])
    cols = ["h", "lambda", "reference", "margin", "iterations", "concavity_vacuous"]
    _emit(args, payload, table=(cols, [report.to_json_dict()]))
    return EXIT_OK if ok else EXIT_INEQUALITY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every caller gets the
    same object and must not modify it (``parse_args`` does not)."""
    parser = argparse.ArgumentParser(
        prog="freebdry",
        description="Verification campaigns for sharp inequalities on domains "
                    "with a partially free boundary.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to this file")
    common.add_argument("--quiet", action="store_true", help="suppress stdout report")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format (csv emits the primary table)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("constants", help="evaluate the sharp constants")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--p", type=float, action="append", default=None)
    p.set_defaults(func=cmd_constants)

    p = add_parser("isoperim", help="fixed-boundary isoperimetric ratios")
    p.add_argument("--domain", default="halfdisk")
    p.add_argument("--random", type=int, default=0,
                   help="verify this many random concave domains instead")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_isoperim)

    p = add_parser("symmetrize", help="golden-angle reflection iteration")
    p.add_argument("--domain", default="trapezoid")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--plot-data", help="directory for CSV series")
    p.set_defaults(func=cmd_symmetrize)

    p = add_parser("rearrange", help="rearrangement integral inequalities")
    p.add_argument("--domain", default="halfdisk")
    p.add_argument("--h", type=float, default=1.0 / 64)
    p.add_argument("--p", type=float, action="append", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=0.02)
    p.set_defaults(func=cmd_rearrange)

    p = add_parser("sobolev", help="sharp Sobolev quotients and bubble ladder")
    p.add_argument("--domain", default="halfdisk")
    p.add_argument("--h", type=float, default=1.0 / 128)
    p.add_argument("--p", type=float, default=1.5)
    p.add_argument("--epsilon", type=float, action="append", default=None)
    p.add_argument("--random", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=0.02)
    p.add_argument("--plot-data", help="directory for CSV series")
    p.set_defaults(func=cmd_sobolev)

    p = add_parser("moser", help="exponential functional identity checks")
    p.add_argument("--domain", default="halfdisk")
    p.add_argument("--h", type=float, default=1.0 / 64)
    p.add_argument("--random", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=0.02)
    p.set_defaults(func=cmd_moser)

    p = add_parser("counterexample", help="closed-form blow-up sweep")
    p.add_argument("--a", type=float, action="append", default=None)
    p.add_argument("--tau0", type=float, default=0.01)
    p.add_argument("--plot-data", help="directory for CSV series")
    p.set_defaults(func=cmd_counterexample)

    p = add_parser("eig", help="principal frequency vs half-ball reference")
    p.add_argument("--domain", default="halfdisk")
    p.add_argument("--h", type=float, default=1.0 / 64)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0x5EED)
    p.add_argument("--plot-data", help="directory for CSV series")
    p.set_defaults(func=cmd_eig)

    return parser


_DEFAULT_LISTS = {
    "constants": ("p", [1.0, 1.5]),
    "rearrange": ("p", [1.5, 2.0]),
    "sobolev": ("epsilon", [0.2, 0.1, 0.05]),
    "counterexample": ("a", [10.0**k for k in range(1, 11)]),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in _DEFAULT_LISTS:
        name, default = _DEFAULT_LISTS[args.command]
        if getattr(args, name, None) is None:
            setattr(args, name, list(default))
    try:
        return args.func(args)
    except (PreconditionError,) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (DomainValidationError, json.JSONDecodeError, KeyError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DegenerateCutError, ConvergenceError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
