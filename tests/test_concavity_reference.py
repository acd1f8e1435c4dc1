"""The sampled concavity test against the all-pairs, all-edges test it replaced.

``is_concave_free_boundary`` probes only the chords between samples on two
different free edges, and measures the inside probes' clearance to the free
edges first, and to the fixed edges only for the probes still clear.  The
reference below is the test as it was before: every sample pair probed,
every inside probe measured against every edge at once, and the first clear
probe as the witness.  A chord between two samples on one free edge lies on
that edge up to rounding, so its probes are never clear; and each distance
is elementwise arithmetic on its own point and edge, so a probe is clear of
the boundary exactly when it is clear of both labels: the whole report,
witness included, must be equal (``==``).
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


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
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


def _seven_edge_arc(free_arc_bulges_out):
    """A half circle inscribed with 7 equal edges, the free chain: 64 samples
    put every ninth one on a chain vertex, where ``searchsorted`` picks its
    edge.  On the half disk itself the chain bulges out (not concave); on
    the rectangle [-2, 2] x [0, 2] with that half disk removed it bends in
    (concave)."""
    ang = math.pi - np.arange(8) * math.pi / 7
    arc = np.column_stack([np.cos(ang), np.sin(ang)])
    if free_arc_bulges_out:
        return LabeledDomain(arc[::-1], [FREE] * 7 + [FIXED])
    rect = [(1.0, 0.0), (2.0, 0.0), (2.0, 2.0), (-2.0, 2.0), (-2.0, 0.0)]
    return LabeledDomain(np.vstack([rect, arc[:-1]]), [FIXED] * 5 + [FREE] * 7)


@pytest.mark.parametrize("bulges_out", [False, True])
def test_seven_equal_free_edges_match_reference(bulges_out):
    report = assert_matches_reference(_seven_edge_arc(bulges_out))
    assert report.concave is not bulges_out


def test_straight_chain_of_collinear_edges_matches_reference():
    # four free edges on one line: the chords between samples on two of them
    # are still probed, and every probe lies on the line
    pts = [(0.0, 0.0), (0.25, 0.0), (0.5, 0.0), (0.75, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    dom = LabeledDomain(pts, [FREE] * 4 + [FIXED] * 3)
    assert assert_matches_reference(dom) == ConcavityReport(concave=True)


@pytest.mark.parametrize("x, width", [(7.913, 3e-3), (3.37, 3e-4)])
def test_narrow_dents_match_reference(x, width):
    # the dents of test_concave_narrow_dent_fails, which both tests miss
    pts = [(0, 0), (x - width / 2, 0), (x, width), (x + width / 2, 0), (10, 0), (10, 10), (0, 10)]
    assert_matches_reference(LabeledDomain(pts, [FREE] * 4 + [FIXED] * 3))


def test_reflected_outputs_match_reference():
    # the unions of 5-step symmetrize runs, as the bench runs them: bent free chains,
    # most of them not concave (the reflection step leaves the class), so
    # most reports carry a witness
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
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


def _counted_contains(monkeypatch):
    """Record the number of points of every ``contains`` call."""
    calls, contains = [], LabeledDomain.contains

    def counted(self, points):
        calls.append(len(points))
        return contains(self, points)

    monkeypatch.setattr(LabeledDomain, "contains", counted)
    return calls


def test_straight_free_edge_is_concave_with_no_probe(monkeypatch):
    calls = _counted_contains(monkeypatch)
    report = _sampled_concavity(domains.half_disk())
    assert report == ConcavityReport(concave=True) and not report.vacuous
    assert calls == []


def test_probes_only_pairs_on_two_free_edges(monkeypatch):
    rng = np.random.default_rng(3)
    dom = None
    while dom is None:
        dom = domains._random_bite_domain(rng)
    samples = np.bincount(dom._chain_samples(_CONCAVITY_SAMPLES)[1])
    assert len(samples) > 3
    same_edge = int((samples * (samples - 1) // 2).sum())
    calls = _counted_contains(monkeypatch)
    assert _sampled_concavity(dom).concave
    n = _CONCAVITY_SAMPLES
    assert calls == [3 * (n * (n - 1) // 2 - same_edge)]
