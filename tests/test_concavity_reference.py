"""The sampled concavity test against the all-edges clearance it replaced.

``is_concave_free_boundary`` measures the inside probes' clearance to the
free edges first, and to the fixed edges only for the probes still clear.
The reference below is the test as it was before: every inside probe
measured against every edge at once, and the first clear probe as the
witness.  Each distance is elementwise arithmetic on its own point and edge,
so a probe is clear of the boundary exactly when it is clear of both labels:
the whole report, witness included, must be equal (``==``).
"""

import math

import numpy as np
import pytest

from freebdry import domains
from freebdry.errors import DegenerateCutError
from freebdry.geometry import (
    _CONCAVITY_SAMPLES,
    FIXED,
    FREE,
    GOLDEN_ANGLE,
    ConcavityReport,
    LabeledDomain,
    _sampled_concavity,
    symmetrization_step,
)


def reference_concavity(domain):
    pts = domain.free_chain_points(_CONCAVITY_SAMPLES)
    if len(pts) == 0:
        return ConcavityReport(concave=True, vacuous=True)
    tol = 1e-9 * max(domain.diameter, 1e-30)
    ii, jj = np.triu_indices(len(pts), k=1)
    a, b = pts[ii], pts[jj]
    probes = np.concatenate([a + f * (b - a) for f in (0.25, 0.5, 0.75)])
    inside = domain.contains(probes)
    if inside.any():
        clear = np.zeros(len(probes), dtype=bool)
        clear[inside] = domain.boundary_distance(probes[inside]) > tol
        if clear.any():
            k = int(np.argmax(clear))
            pair = k % len(ii)
            return ConcavityReport(
                concave=False,
                witness=(tuple(a[pair]), tuple(b[pair]), tuple(probes[k])),
            )
    return ConcavityReport(concave=True)


def assert_matches_reference(dom):
    report = _sampled_concavity(dom)
    assert report == reference_concavity(dom)
    return report


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_domains_match_reference(seed):
    # the domains of `isoperim --random 200 --seed <seed>`
    rng = np.random.default_rng(seed)
    for _ in range(200):
        assert assert_matches_reference(domains.random_concave_domain(rng)).concave


@pytest.mark.parametrize("name", domains.BUILTIN_NAMES)
def test_builtins_match_reference(name):
    assert_matches_reference(domains.builtin_domain(name))


def test_convex_free_arc_matches_reference():
    # the 32-gon disk whose lower arc is free bulges outward: not concave
    ang = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    dom = LabeledDomain(np.column_stack([np.cos(ang), np.sin(ang)]), [FIXED] * 16 + [FREE] * 16)
    report = assert_matches_reference(dom)
    assert not report.concave and report.witness is not None


@pytest.mark.parametrize("x, width", [(7.913, 3e-3), (3.37, 3e-4)])
def test_narrow_dents_match_reference(x, width):
    # the dents of test_concave_narrow_dent_fails, which both tests miss
    pts = [(0, 0), (x - width / 2, 0), (x, width), (x + width / 2, 0), (10, 0), (10, 10), (0, 10)]
    assert_matches_reference(LabeledDomain(pts, [FREE] * 4 + [FIXED] * 3))


def test_reflected_outputs_match_reference():
    # the unions of 5-step symmetrize runs, as the bench runs them: bent free chains,
    # most of them not concave (the reflection step leaves the class), so
    # most reports carry a witness
    rng = np.random.default_rng(1)
    reflected = witnessed = 0
    for _ in range(20):
        current = domains.random_concave_domain(rng)
        for k in range(1, 6):
            try:
                result = symmetrization_step(current, (k * GOLDEN_ANGLE) % math.pi)
            except DegenerateCutError:
                continue
            if result.case == "reflected":
                current = result.domain
                witnessed += assert_matches_reference(current).witness is not None
                reflected += 1
    assert reflected >= 20 and witnessed >= 20
