"""Span tracing of freebdry's public functions, applied from outside.

``Tracer.install`` replaces each traced function in every ``freebdry``
module namespace that binds it (``from .geometry import rasterize`` leaves a
copy in each importing module), and the traced methods on ``LabeledDomain``.
Each call records a span (name, start, end, parent) in memory; counters are
read from arguments, return values and raised exceptions at the same
boundary.  ``Tracer.restore`` puts every original back.  Nothing inside the
program is changed or instrumented.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

_perf = time.perf_counter


def _grid_cells(grid) -> int:
    return int(grid.mask.size)


def _count_level(tracer, args, result):
    used = result.reliable and result.surface > 0.0 and result.coarea_integral > 0.0
    return {"rearrange.level_stats_calls": 1, "rearrange.levels_used": int(used)}


def _count_solve(tracer, args, result):
    lam, vec, iterations = result
    tracer.solves.append((args[0].matrix, lam, vec))
    return {"spectral.iterations": int(iterations)}


# Each traced target: (module, attribute path, span name, counter).  The
# counter gets (tracer, args, result) after the span closed and returns
# {counter name: increment}; ``None`` counts calls only.
TARGETS = (
    ("freebdry.geometry", "LabeledDomain.__init__", "geometry.domain_build",
     lambda tr, a, r: {"geometry.domain_builds": 1}),
    ("freebdry.geometry", "is_concave_free_boundary", "geometry.concavity",
     lambda tr, a, r: {"geometry.concavity_calls": 1}),
    ("freebdry.geometry", "LabeledDomain.contains", "geometry.contains",
     lambda tr, a, r: {"geometry.contains_points": len(r)}),
    ("freebdry.geometry", "LabeledDomain.boundary_distance", "geometry.distance",
     lambda tr, a, r: {"geometry.distance_points": len(r)}),
    ("freebdry.geometry", "LabeledDomain.distance_to_label", "geometry.distance",
     lambda tr, a, r: {"geometry.distance_points": len(r)}),
    ("freebdry.geometry", "rasterize", "geometry.rasterize",
     lambda tr, a, r: {"geometry.raster_cells": _grid_cells(r)}),
    ("freebdry.geometry", "equal_volume_cut", "geometry.equal_cut", None),
    ("freebdry.geometry", "symmetrization_step", "geometry.symmetrize_step",
     lambda tr, a, r: {"geometry.steps_reflected": int(r.case == "reflected")}),
    ("freebdry.domains", "random_concave_domain", "domains.generate",
     lambda tr, a, r: {"domains.generated": 1}),
    ("freebdry.rearrange", "quantile_levels", "rearrange.quantile_levels",
     lambda tr, a, r: {"rearrange.levels_requested": int(np.size(r))}),
    ("freebdry.rearrange", "level_stats", "rearrange.level_stats",
     _count_level),
    ("freebdry.rearrange", "check_profile_energy_bound", "rearrange.profile_energy", None),
    ("freebdry.rearrange", "check_slope_coarea_identity", "rearrange.slope_coarea", None),
    ("freebdry.rearrange", "radial_rearrangement", "rearrange.radial",
     lambda tr, a, r: {"rearrange.radial_calls": 1,
                       "rearrange.radial_cells": _grid_cells(r.grid)}),
    ("freebdry.rearrange", "check_rearrangement_energy_factor",
     "rearrange.energy_factor", None),
    ("freebdry.rearrange", "random_admissible_field", "rearrange.random_field",
     lambda tr, a, r: {"rearrange.random_fields": 1}),
    ("freebdry.quotients", "talenti_bubble", "quotients.bubble",
     lambda tr, a, r: {"quotients.bubble_calls": 1}),
    ("freebdry.quotients", "sobolev_report", "quotients.sobolev_report",
     lambda tr, a, r: {"quotients.sobolev_report_calls": 1}),
    ("freebdry.quotients", "moser_report", "quotients.moser_report",
     lambda tr, a, r: {"quotients.moser_report_calls": 1}),
    ("freebdry.spectral", "assemble", "spectral.assemble",
     lambda tr, a, r: {"spectral.unknowns": int(r.size),
                       "spectral.matrix_nnz": int(r.matrix.nnz)}),
    ("freebdry.spectral", "principal_frequency", "spectral.solve", _count_solve),
)


def program_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "freebdry" or name.startswith("freebdry."))]


def resolve(module_name: str, path: str):
    obj = sys.modules[module_name]
    *owner_path, attr = path.split(".")
    for part in owner_path:
        obj = getattr(obj, part)
    return obj, attr


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.solves: list = []           # (matrix, eigenvalue, eigenvector)
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _perf(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _perf()
        self._stack.pop()

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, span: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(idx)
                self.counts[f"{span}.raised.{type(exc).__name__}"] += 1
                raise
            self.close(idx)
            if counter is not None:
                self.counts.update(counter(self, args, result))
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function in every freebdry namespace."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = program_modules()
        for module_name, path, span, counter in TARGETS:
            owner, attr = resolve(module_name, path)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, span, counter)
            if isinstance(owner, type):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# Per-layer metrics in report order.  ``<span>_s`` is the summed self time
# of the spans of that name; the rest are counters and ratios.
PER_LAYER = (
    "geometry.domain_build_s", "geometry.domain_builds",
    "geometry.concavity_s", "geometry.concavity_calls",
    "geometry.contains_s", "geometry.contains_points",
    "geometry.distance_s", "geometry.distance_points",
    "geometry.rasterize_s", "geometry.raster_cells",
    "geometry.equal_cut_s", "geometry.symmetrize_step_s",
    "geometry.steps_attempted", "geometry.steps_reflected",
    "geometry.steps_skipped", "geometry.steps_left_class",
    "domains.generate_s", "domains.generated",
    "rearrange.level_stats_s", "rearrange.level_stats_calls",
    "rearrange.levels_requested", "rearrange.levels_used", "rearrange.level_use_frac",
    "rearrange.profile_energy_s", "rearrange.slope_coarea_s",
    "rearrange.radial_s", "rearrange.radial_calls", "rearrange.radial_cells",
    "rearrange.energy_factor_s",
    "rearrange.random_field_s", "rearrange.random_fields",
    "quotients.bubble_s", "quotients.bubble_calls",
    "quotients.sobolev_report_s", "quotients.sobolev_report_calls",
    "quotients.moser_report_s", "quotients.moser_report_calls",
    "spectral.assemble_s", "spectral.unknowns", "spectral.matrix_nnz",
    "spectral.solve_s", "spectral.iterations", "spectral.residual_max",
    "cli.self_s", "cli.report_bytes",
    "trace.overhead_s",
)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name == "spectral.residual_max":
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but
    ``geometry.steps_left_class``, ``cli.report_bytes`` and
    ``trace.overhead_s``, which come from the reports and the untraced
    passes)."""
    values: dict[str, float] = defaultdict(float)
    for (name, *_), own in zip(tracer.spans, tracer.self_times()):
        values["cli.self_s" if name.startswith("cli.") else f"{name}_s"] += own
    values.update((k, float(v)) for k, v in tracer.counts.items())
    requested = values["rearrange.levels_requested"]
    values["rearrange.level_use_frac"] = values["rearrange.levels_used"] / requested if requested else 0.0
    values["geometry.steps_attempted"] = float(
        sum(1 for name, *_ in tracer.spans if name == "geometry.symmetrize_step"))
    values["geometry.steps_skipped"] = values["geometry.symmetrize_step.raised.DegenerateCutError"]
    values["spectral.residual_max"] = max(
        (_relative_residual(*solve) for solve in tracer.solves), default=0.0)
    from_outside = ("geometry.steps_left_class", "cli.report_bytes", "trace.overhead_s")
    return {k: values[k] for k in PER_LAYER if k not in from_outside}


def _relative_residual(matrix, lam: float, vec: np.ndarray) -> float:
    """||A x - lambda x|| / (lambda ||x||)."""
    return float(np.linalg.norm(matrix @ vec - lam * vec) / (lam * np.linalg.norm(vec)))


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}

