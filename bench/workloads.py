"""The four benchmark workloads and the checks run on their reports.

A workload is a fixed list of CLI campaigns.  Its random concave domains are
generated here from the workload seed with ``domains.random_concave_domain``
and handed to the program as domain JSON files (``--domain <path>``), so the
program sees only the generated inputs.  Each campaign belongs to part ``a``
or ``b`` of its workload; the parts are timed separately.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RATIO_FLOOR = 0.99 * math.sqrt(2.0 * math.pi)   # symmetrize: ratios stay at the sharp bound
AREA_RTOL = 1e-6                                # symmetrize: area is kept
MONOTONE_TOL = 1e-9                             # symmetrize: ratio never increases (the campaign's own slack)

P_LIST = ("--p", "1.5", "--p", "2", "--p", "3")


@dataclass(frozen=True)
class Invocation:
    campaign: str            # CLI subcommand
    part: str                # "a" or "b"
    argv: tuple[str, ...]    # without --quiet/--out

    @property
    def domain(self) -> str:
        return self.argv[self.argv.index("--domain") + 1]


def generate_domains(seed: int, count: int, directory: Path) -> list[tuple[Path, object]]:
    """``count`` random concave domains from ``seed``, written as JSON files."""
    from freebdry.domains import random_concave_domain

    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for k in range(count):
        dom = random_concave_domain(rng)
        path = directory / f"domain_{k:03d}.json"
        dom.save_json(path)
        out.append((path, dom))
    return out


def h_for_cells(dom, cells: int) -> str:
    """Grid spacing that puts about ``cells`` grid cells on the domain's
    bounding box, so the grid work does not depend on the domain's shape."""
    x0, y0, x1, y1 = dom.bbox
    return repr(math.sqrt((x1 - x0) * (y1 - y0) / cells))


def build(workload: str, seed: int, directory: Path) -> list[Invocation]:
    """The campaign list of ``workload`` for ``seed``; writes its inputs."""
    if workload == "domains":
        # Five-step runs cost about 0.02 s each, but a few per seed cost
        # 3-5 times that; 100 of them keep the total steady across seeds.
        doms = generate_domains(seed, 100, directory)
        return [Invocation("isoperim", "a", ("isoperim", "--random", "200", "--seed", str(seed)))] + [
            Invocation("symmetrize", "b", ("symmetrize", "--domain", str(p), "--steps", "5"))
            for p, _ in doms
        ]
    if workload == "levelsets":
        # One exponent per generated domain, in turn: a call costs about
        # 0.25 s per exponent, so six domains at one exponent each cost what
        # two at all three did, and their total varies less from seed to seed.
        doms = generate_domains(seed, 6, directory)
        return [
            Invocation("rearrange", "a", ("rearrange", "--domain", str(p), "--h", h_for_cells(d, 3000),
                                          "--seed", str(seed), *P_LIST[2 * (k % 3):2 * (k % 3) + 2]))
            for k, (p, d) in enumerate(doms)
        ] + [Invocation("rearrange", "b", ("rearrange", "--domain", "halfdisk",
                                           "--h", repr(1.0 / 128), "--seed", str(seed), *P_LIST))]
    if workload == "fields":
        doms = generate_domains(seed, 8, directory)
        return [Invocation("sobolev", "a", ("sobolev", "--domain", "halfdisk", "--seed", str(seed)))] + [
            Invocation("moser", "b", ("moser", "--domain", str(p), "--h", h_for_cells(d, 3000),
                                      "--random", "3", "--seed", str(seed)))
            for p, d in doms
        ]
    if workload == "spectral":
        doms = generate_domains(seed, 24, directory)
        return [
            Invocation("eig", "a", ("eig", "--domain", "halfdisk", "--h", repr(1.0 / 320))),
            Invocation("eig", "a", ("eig", "--domain", "square-bottom-free", "--h", repr(1.0 / 256))),
        ] + [
            Invocation("eig", "b", ("eig", "--domain", str(p), "--h", h_for_cells(d, 6000)))
            for p, d in doms
        ]
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, directory: Path) -> list[Invocation]:
    """One small run of each campaign the workload uses (first calls pay for
    lazy imports and cached constants)."""
    first = str(sorted(directory.glob("domain_*.json"))[0])
    small = {
        "domains": [("isoperim", "--random", "2"), ("symmetrize", "--domain", first, "--steps", "2")],
        "levelsets": [("rearrange", "--domain", "halfdisk", "--h", repr(1.0 / 24), "--p", "1.5")],
        "fields": [("sobolev", "--domain", "halfdisk", "--h", repr(1.0 / 32), "--random", "1"),
                   ("moser", "--domain", "halfdisk", "--h", repr(1.0 / 24), "--random", "1")],
        "spectral": [("eig", "--domain", "halfdisk", "--h", repr(1.0 / 16))],
    }[workload]
    return [Invocation(argv[0], "warmup", argv) for argv in small]


WORKLOADS = ("domains", "levelsets", "fields", "spectral")

# The per-campaign times of the workloads: each is one part, or the whole
# pass, of the workload that runs the campaign.
CAMPAIGN_LABELS = {
    "domains": {"campaign_a_s": "isoperim_s", "campaign_b_s": "symmetrize_s"},
    "levelsets": {"wall_s": "rearrange_s"},
    "fields": {"campaign_a_s": "sobolev_s", "campaign_b_s": "moser_s"},
    "spectral": {"wall_s": "eig_s"},
}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_report(inv: Invocation, exit_code: int, text: str | None) -> tuple[int, int]:
    """(attempted, failed) checks of one invocation.

    One check is the exit code itself (it must be 0).  The others are the
    report's items; an item fails when the campaign flags it or when the
    postcondition of this benchmark rejects it.  A missing report leaves only
    the exit-code check.
    """
    attempted, failed = 1, int(exit_code != 0)
    if text is None:
        return attempted, failed
    rep = json.loads(text)
    if inv.campaign == "symmetrize":
        items = _symmetrize_items(rep, replay_symmetrize(inv.domain, text))
    else:
        items = _ITEM_CHECKS[inv.campaign](rep)
    return attempted + len(items), failed + sum(1 for ok in items if not ok)


@dataclass(frozen=True)
class StepOutcome:
    area_after: float
    left_class: bool         # reflected, and the output's free chain is not concave


@functools.lru_cache(maxsize=None)
def replay_symmetrize(domain_path: str, text: str) -> tuple[StepOutcome, ...] | None:
    """Each step of a symmetrize report, replayed from its input domain with
    the program's own ``symmetrization_step`` at the report's angles.

    The report holds neither the domain after each step nor whether it is
    still concave, so both come from the replay.  Returns ``None`` when the
    replay does not reproduce the report's cases and ratios.
    """
    from freebdry.errors import DegenerateCutError
    from freebdry.geometry import LabeledDomain, is_concave_free_boundary, symmetrization_step

    current = LabeledDomain.load_json(domain_path)
    outcomes = []
    for record in json.loads(text)["trace"]:
        try:
            result = symmetrization_step(current, record["theta"])
        except DegenerateCutError:
            if record["case"] != "skipped":
                return None
            outcomes.append(StepOutcome(current.area, False))
            continue
        if result.case != record["case"] or result.ratio_before != record["ratio"]:
            return None
        current = result.domain
        left = result.case == "reflected" and not is_concave_free_boundary(current).concave
        outcomes.append(StepOutcome(current.area, left))
    return tuple(outcomes)


def _isoperim_items(rep: dict) -> list[bool]:
    flagged = {f["index"] for f in rep["failures"]}
    return [r["index"] not in flagged for r in rep["reports"]]


def _symmetrize_items(rep: dict, replay: tuple[StepOutcome, ...] | None) -> list[bool]:
    """One item per step: the step's output ratio is at least the sharp
    bound (up to 1%), not above the ratio before it, the area is kept, and
    the output has not left the admissible class.  Every step fails when the
    replay does not reproduce the report."""
    trace = rep["trace"]
    if not trace:
        return [False]
    if replay is None:
        return [False] * len(trace)
    ratios = [t["ratio"] for t in trace] + [rep["final_ratio"]]
    area0 = trace[0]["area"]
    return [
        ratios[k + 1] >= RATIO_FLOOR
        and ratios[k + 1] <= ratios[k] + MONOTONE_TOL
        and abs(step.area_after - area0) <= AREA_RTOL * area0
        and not step.left_class
        for k, step in enumerate(replay)
    ]
def _rearrange_items(rep: dict) -> list[bool]:
    checks = rep["checks"]
    items = [checks["slope_coarea"]["levels"] > 0]   # no vacuous pass
    items += [bool(c["ok"]) for c in checks["profile_energy"]]
    items += [bool(c["ok"]) for c in checks["energy_factor"]]
    return items


def _sobolev_items(rep: dict) -> list[bool]:
    eps = {f["epsilon"] for f in rep["failures"] if "epsilon" in f}
    idx = {f["index"] for f in rep["failures"] if "index" in f}
    return ([r["epsilon"] not in eps for r in rep["bubble_ladder"]]
            + [r["index"] not in idx for r in rep["random_fields"]])


def _moser_items(rep: dict) -> list[bool]:
    return [bool(e["ok"]) for e in rep["entries"]] or [False]


def _eig_items(rep: dict) -> list[bool]:
    return [not rep["failures"]]


_ITEM_CHECKS = {
    "isoperim": _isoperim_items,
    "rearrange": _rearrange_items,
    "sobolev": _sobolev_items,
    "moser": _moser_items,
    "eig": _eig_items,
}
