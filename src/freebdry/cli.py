"""Command-line verification campaigns.

Every subcommand runs a deterministic campaign (fixed seed, fixed inputs),
prints a human-readable summary, optionally writes the full report as JSON or
CSV, and exits with a machine-readable status:

    0  all asserted inequalities hold within the fixed slack (constants below, not flags)
    2  input parsing failed, or ``--h``, ``--random``, ``--steps`` or the ``constants``
       pair ``--n``/``--p`` is out of range
    3  a precondition was violated: the free chain of the domain of ``isoperim``,
       ``symmetrize``, ``rearrange``, ``sobolev``, ``moser`` or ``eig`` is not concave,
       the domain of ``symmetrize`` has holes, a field is not zero on the fixed boundary,
       ``sobolev --epsilon``/``--p`` or ``rearrange --p`` is out of range (NaN/inf
       included), the curvature ``--a`` or ``counterexample:<a>`` is not above 1 or
       makes 8 a^2 overflow, or ``counterexample --tau0`` lies outside (0, 1/100];
       or a computation failed (the eigensolver ran out of steps)
    4  an asserted inequality failed
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import constants as consts
from . import domains as domlib
from .errors import (
    ConvergenceError,
    DomainValidationError,
    ParameterError,
    PreconditionError,
)
from .geometry import (
    LabeledDomain,
    isoperimetric_report,
    require_admissible,
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

# The inequalities are sharp, so each verdict allows a fixed discretization slack.
GRID_SLACK = 0.02  # rearrange, sobolev, moser and eig
ISOPERIM_SLACK = 0.01
SYMMETRIZE_RISE = 1e-9  # largest ratio rise a symmetrization step may show


def holds(value: float, bound: float, slack: float, upper: bool = False) -> bool:
    """The verdict rule of every campaign: ``value >= bound (1 - slack)``, or
    with ``upper`` ``value <= bound (1 + slack)``.  It states the holding
    case, so a NaN value or bound fails."""
    if upper:
        return value <= bound * (1.0 + slack)
    return value >= bound * (1.0 - slack)


def _load_domain(spec: str) -> LabeledDomain:
    if spec.startswith("counterexample:"):
        try:
            a = float(spec.split(":", 1)[1])
        except ValueError:
            raise DomainValidationError(
                f"{spec!r}: the curvature parameter after 'counterexample:' must be a number"
            ) from None
        return counterexample_domain(CounterexampleSpec(a=a))
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        return LabeledDomain.load_json(path)
    return domlib.builtin_domain(spec)


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return "" if v is None else str(v)


def _emit(args, payload: dict, table: tuple[list[str], list[dict]]) -> int:
    """Write the report as JSON, its first key ``"command"`` naming the
    subcommand, or as CSV of its primary table when the campaign asked for
    csv format; column order is fixed per subcommand.
    Returns the exit status: ``EXIT_INEQUALITY`` when the report lists
    failures, else ``EXIT_OK``."""
    if args.format == "csv":
        cols, rows = table
        lines = [",".join(cols)]
        lines += [",".join(_csv_cell(row.get(c)) for c in cols) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"command": args.command, **payload}, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    if not args.quiet:
        print(text, end="")
    return EXIT_INEQUALITY if payload.get("failures") else EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    rows = [asdict(consts.sharp_constants(args.n, p)) for p in args.p]
    cols = [f.name for f in fields(consts.SharpConstants)]
    return _emit(args, {"values": rows}, table=(cols, rows))


def cmd_isoperim(args) -> int:
    failures = []
    reports = []
    if args.random:
        rng = np.random.default_rng(args.seed)
        doms = [domlib.random_concave_domain(rng) for _ in range(args.random)]
    else:
        doms = [_load_domain(args.domain)]
    for k, dom in enumerate(doms):
        conc = require_admissible(dom)
        rep = isoperimetric_report(dom)
        reports.append({"index": k, **asdict(rep), "vacuous": conc.vacuous})
        if not holds(rep.ratio, rep.bound, ISOPERIM_SLACK):
            failures.append({"index": k, "margin": rep.margin})
    payload = {"reports": reports, "failures": failures}
    return _emit(args, payload, table=(list(reports[0]), reports))


def cmd_symmetrize(args) -> int:
    dom = _load_domain(args.domain)
    require_admissible(dom)
    _, trace = symmetrize_iterate(dom, steps=args.steps)
    rises = [t["ratio_after"] - t["ratio"] for t in trace]
    payload = {
        "steps_run": len(trace),
        "initial_ratio": trace[0]["ratio"],
        "final_ratio": trace[-1]["ratio_after"],
        "trace": trace,
        "failures": [{"ratio_increase": rise} for rise in rises
                     if not holds(rise, SYMMETRIZE_RISE, 0.0, upper=True)],
    }
    cols = ["step", "theta", "ratio", "area", "projection_width", "case"]
    return _emit(args, payload, table=(cols, trace))


def cmd_rearrange(args) -> int:
    dom = _load_domain(args.domain)
    rng = np.random.default_rng(args.seed)
    field = random_admissible_field(dom, args.h, rng)
    failures = []
    slope = check_slope_coarea_identity(field)
    entry = {"max_slope_coarea_dev": slope.max_rel_dev, "levels": slope.levels_used}
    checks = {"slope_coarea": entry, "profile_energy": [], "energy_factor": []}
    for p in args.p:
        for name, check in (("profile_energy", check_profile_energy_bound),
                            ("energy_factor", check_rearrangement_energy_factor)):
            lhs, rhs = check(field, p)
            ok = holds(lhs, rhs, GRID_SLACK, upper=True)
            checks[name].append({"p": p, "lhs": lhs, "rhs": rhs, "ok": ok})
            if not ok:
                failures.append({"check": name, "p": p, "lhs": lhs, "rhs": rhs})
    payload = {"checks": checks, "failures": failures}
    csv_rows = (
        [{"check": "profile_energy", **row} for row in checks["profile_energy"]]
        + [{"check": "energy_factor", **row} for row in checks["energy_factor"]]
    )
    return _emit(args, payload, table=(["check", "p", "lhs", "rhs", "ok"], csv_rows))


def cmd_sobolev(args) -> int:
    dom = _load_domain(args.domain)
    failures = []
    ladder = []
    base = None
    # one grid for every field, built by the first one so that the input
    # checks made before rasterizing still decide the exit code
    grid = None
    for eps in args.epsilon:
        bubble = talenti_bubble(dom, args.h, args.p, eps, grid=grid)
        grid = bubble.grid
        rep = sobolev_report(bubble, args.p)
        ladder.append({
            "epsilon": eps,
            "quotient": rep.quotient,
            "bound": rep.bound,
            "gap": (rep.quotient - rep.bound) / rep.bound,
        })
        base = rep.bound
        if not holds(rep.quotient, rep.bound, GRID_SLACK):
            failures.append({"epsilon": eps, "quotient": rep.quotient, "bound": rep.bound})
    rng = np.random.default_rng(args.seed)
    randoms = []
    for k in range(args.random):
        field = random_admissible_field(dom, args.h, rng, grid=grid)
        grid = field.grid
        rep = sobolev_report(field, args.p)
        randoms.append({"index": k, "quotient": rep.quotient, "margin": rep.margin})
        if not holds(rep.quotient, rep.bound, GRID_SLACK):
            failures.append({"index": k, "quotient": rep.quotient, "bound": rep.bound})
    payload = {
        "p": args.p,
        "bound": base,
        "bubble_ladder": ladder,
        "random_fields": randoms,
        "failures": failures,
    }
    return _emit(args, payload, table=(["epsilon", "quotient", "bound", "gap"], ladder))


def cmd_moser(args) -> int:
    dom = _load_domain(args.domain)
    rng = np.random.default_rng(args.seed)
    failures = []
    entries = []
    grid = None  # one grid for every field, built by the first one
    for k in range(args.random):
        field = normalize_energy(random_admissible_field(dom, args.h, rng, grid=grid))
        grid = field.grid
        rep = moser_report(field)
        # the paper's step to the sharp exponent: int |grad u*|^2 <= 2 int |grad u|^2
        lhs, rhs = check_rearrangement_energy_factor(field, 2.0)
        ok = (holds(rep.identity_gap, GRID_SLACK, 0.0, upper=True)
              and holds(lhs, rhs, GRID_SLACK, upper=True))
        entries.append({
            "index": k,
            "functional": rep.functional,
            "rearranged_functional": rep.rearranged_functional,
            "identity_gap": rep.identity_gap,
            "area": rep.area,
            "energy_lhs": lhs,
            "energy_rhs": rhs,
            "ok": ok,
        })
        if not ok:
            failures.append(entries[-1])
    payload = {"entries": entries, "failures": failures}
    return _emit(args, payload, table=(list(entries[0]), entries))


def cmd_counterexample(args) -> int:
    specs = [CounterexampleSpec(a=a, tau0=args.tau0) for a in args.a]
    points = counterexample_blowup(specs)
    # the bound must increase in a, whatever order the flags gave the points in
    ascending = sorted({p.a: p.functional_lower_bound for p in points}.items())
    failures = [{"a": a, "reason": "lower bound not increasing"}
                for (_, f1), (a, f2) in zip(ascending, ascending[1:]) if not f2 > f1]
    failures += [{"a": p.a, "reason": f"energy deficit {p.energy_deficit} outside (0,1)"}
                 for p in points if not 0.0 < p.energy_deficit < 1.0]
    payload = {
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
    return _emit(args, payload, table=(cols, payload["points"]))


def cmd_eig(args) -> int:
    dom = _load_domain(args.domain)
    report = check_frequency_vs_half_ball(dom, args.h)
    ok = holds(report.lam, report.reference, GRID_SLACK)
    payload = {
        "report": report.to_json_dict(),
        "failures": [] if ok else [{"margin": report.margin}],
    }
    cols = ["h", "lambda", "reference", "margin", "iterations", "concavity_vacuous"]
    return _emit(args, payload, table=(cols, [report.to_json_dict()]))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return count


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
    p.add_argument("--random", type=_at_least(0), default=0,
                   help="verify this many random concave domains instead (0: --domain)")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_isoperim)

    p = add_parser("symmetrize", help="golden-angle reflection iteration")
    p.add_argument("--domain", default="trapezoid")
    p.add_argument("--steps", type=_at_least(1), default=50)
    p.set_defaults(func=cmd_symmetrize)

    p = add_parser("rearrange", help="rearrangement integral inequalities")
    p.add_argument("--domain", default="halfdisk")
    p.add_argument("--h", type=float, default=1.0 / 64)
    p.add_argument("--p", type=float, action="append", default=None)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_rearrange)

    p = add_parser("sobolev", help="sharp Sobolev quotients and bubble ladder")
    p.add_argument("--domain", default="halfdisk")
    p.add_argument("--h", type=float, default=1.0 / 128)
    p.add_argument("--p", type=float, default=1.5)
    p.add_argument("--epsilon", type=float, action="append", default=None)
    p.add_argument("--random", type=_at_least(0), default=3,
                   help="random fields after the bubble ladder")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_sobolev)

    p = add_parser("moser", help="exponential functional identity checks")
    p.add_argument("--domain", default="halfdisk")
    p.add_argument("--h", type=float, default=1.0 / 64)
    p.add_argument("--random", type=_at_least(1), default=3, help="random fields")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_moser)

    p = add_parser("counterexample", help="closed-form blow-up sweep")
    p.add_argument("--a", type=float, action="append", default=None)
    p.add_argument("--tau0", type=float, default=0.01)
    p.set_defaults(func=cmd_counterexample)

    p = add_parser("eig", help="principal frequency vs half-ball reference")
    p.add_argument("--domain", default="halfdisk")
    p.add_argument("--h", type=float, default=1.0 / 64)
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
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (DomainValidationError, ParameterError, json.JSONDecodeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
