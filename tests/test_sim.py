"""Indicator search: quadrature identities on scalar families, retry and
failure paths, subdivision bookkeeping, dedup, and eigenpair refinement."""

import gc
import math

import numpy as np
import pytest
import scipy.sparse as sp

import phcbands.sim
from phcbands.assembly import PermittivityBoundsError
from phcbands.materials import Constant, Drude, LossyDrude
from phcbands.sim import (
    EigenCandidate,
    IndicatorError,
    SearchRegion,
    SimConfig,
    SolveMemo,
    contour_nodes,
    dedup,
    indicator,
    random_probe,
    refine_eigenpair,
    sim_h,
    subdivide,
)
from phcbands.sweep import Window, tile_window

from conftest import X, DiagonalFamily, SingularFamily

# n=4 disc families at X: lossless (conjugation-symmetric) and two lossy ones
MEMO_FAMILIES = {
    "TE-lossless": ("TE", {0: Constant(1.0), 1: Constant(8.9)}),
    "TE-drude": ("TE", {0: Constant(1.0), 1: Drude(1.0, 0.01)}),
    "TM-lossy-drude": ("TM", {0: Constant(1.0), 1: LossyDrude(1.0, 0.01)}),
}
# tiles symmetric about the real axis
MEMO_TILES = tile_window(Window(0.05, 1.2, -0.05, 0.05), 0.1)


_UNCOUNTED = (phcbands.sim.factorize, phcbands.sim.solve, phcbands.sim.indicator)


class SimCounter:
    """Counts the factorizations, conjugate-transpose solves and indicator
    calls the search makes; with ``use_memo=False`` every indicator call
    runs without the memo, which gives the fresh-solve reference.  A new
    counter replaces the previous one rather than wrapping it."""

    def __init__(self, monkeypatch, use_memo=True):
        self.factorizations = self.conjugate_solves = self.indicator_calls = 0
        real_factorize, real_solve, real_indicator = _UNCOUNTED

        def factorize(mat):
            self.factorizations += 1
            return real_factorize(mat)

        def solve(lu, b, trans="N"):
            self.conjugate_solves += trans == "H"
            return real_solve(lu, b, trans)

        def counted_indicator(region, fam, g, cfg, memo=None):
            self.indicator_calls += 1
            return real_indicator(region, fam, g, cfg, memo=memo if use_memo else None)

        monkeypatch.setattr(phcbands.sim, "factorize", factorize)
        monkeypatch.setattr(phcbands.sim, "solve", solve)
        monkeypatch.setattr(phcbands.sim, "indicator", counted_indicator)


class FlakyFamily:
    """Scalar family that refuses to assemble at one specific frequency."""

    def __init__(self, pole, trigger):
        self.pole = complex(pole)
        self.trigger = complex(trigger)
        self.n_dofs = 1

    def t_matrix(self, nu):
        if abs(complex(nu) - self.trigger) < 1e-9:
            raise PermittivityBoundsError("permittivity out of bounds")
        return sp.csr_matrix(np.array([[complex(nu) - self.pole]]))


def test_region_properties_and_validation():
    region = SearchRegion(center=0.5 + 0.25j, side=0.2)
    assert region.radius == pytest.approx(0.2 / math.sqrt(2.0), rel=1e-15)
    assert region.diameter == pytest.approx(0.2 * math.sqrt(2.0), rel=1e-15)
    for side in (0.0, -0.1):
        with pytest.raises(ValueError):
            SearchRegion(center=0j, side=side)


def test_config_defaults_and_validation():
    cfg = SimConfig()
    assert cfg.delta0 == 0.01
    assert cfg.beta0 == 1e-4
    assert cfg.m0 == 16
    assert cfg.max_retries == 3
    assert cfg.dedup_tol == 2e-4  # defaults to twice beta0
    assert SimConfig(beta0=1e-3).dedup_tol == 2e-3
    with pytest.raises(ValueError):
        SimConfig(delta0=0.0)
    with pytest.raises(ValueError):
        SimConfig(beta0=0.0)
    with pytest.raises(ValueError):
        SimConfig(m0=1)
    with pytest.raises(ValueError):
        SimConfig(m0=2.5)
    with pytest.raises(ValueError):
        SimConfig(max_retries=-1)
    with pytest.raises(ValueError):
        SimConfig(dedup_tol=5e-5)  # below beta0
    with pytest.raises(ValueError):
        SimConfig(initial_side=0.0)


def test_random_probe():
    g = random_probe(40, seed=7)
    assert g.shape == (40,)
    assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(g, random_probe(40, seed=7))
    assert not np.array_equal(g, random_probe(40, seed=8))


@pytest.mark.parametrize("m0", [2, 3, 4, 16, 31])
def test_indicator_exact_for_centred_pole(m0):
    # with the pole at the centre every quadrature term equals g / m0, so
    # the indicator collapses to ||g|| = 1 with no quadrature error at all
    fam = DiagonalFamily([0.3 + 0.1j])
    region = SearchRegion(center=0.3 + 0.1j, side=0.05)
    value = indicator(region, fam, random_probe(1, seed=0), SimConfig(m0=m0))
    assert value == pytest.approx(1.0, abs=1e-12)


def test_indicator_geometric_decay_for_external_pole():
    # scalar pole at twice the contour radius: the trapezoid sum of the
    # resolvent is the tail of a geometric series, |sum| = 1 / (2^16 - 1)
    region = SearchRegion(center=0.2 + 0j, side=0.1)
    fam = DiagonalFamily([0.2 + 2.0 * region.radius])
    value = indicator(region, fam, random_probe(1, seed=0), SimConfig())
    assert value == pytest.approx(1.0 / 65535.0, rel=1e-10)


def test_indicator_separates_occupied_from_free(family_factory):
    _, _, fam = family_factory(8, 0.0, X)
    g = random_probe(fam.n_dofs, seed=0)
    cfg = SimConfig()
    free = indicator(SearchRegion(center=0.25 + 0j, side=0.02), fam, g, cfg)
    full = indicator(SearchRegion(center=0.5 + 0j, side=0.02), fam, g, cfg)
    assert free < 1e-8
    assert full > cfg.delta0


def test_indicator_retries_off_a_contour_pole():
    # eigenvalue placed exactly on the first quadrature node: the first
    # attempt hits a singular factorization, the retry grows the radius by
    # 5 % and encloses the pole, giving 1 / (1 - 1.05^-16)
    region = SearchRegion(center=0.5 + 0j, side=0.1)
    fam = DiagonalFamily([0.5 + region.radius])
    value = indicator(region, fam, random_probe(1, seed=0), SimConfig())
    assert value == pytest.approx(1.0 / (1.0 - 1.05**-16), rel=1e-10)
    assert 1.0 < value < 2.5
    with pytest.raises(IndicatorError, match="after 0 retries"):
        indicator(region, fam, random_probe(1, seed=0), SimConfig(max_retries=0))


def test_indicator_retries_past_material_failure():
    # same geometry as above, but the first attempt dies on a permittivity
    # failure at the quadrature node rather than a singular factorization
    region = SearchRegion(center=0.5 + 0j, side=0.1)
    fam = FlakyFamily(pole=0.5 + region.radius, trigger=0.5 + region.radius)
    value = indicator(region, fam, random_probe(1, seed=0), SimConfig())
    assert value == pytest.approx(1.0 / (1.0 - 1.05**-16), rel=1e-10)


def test_contour_nodes_place_corners_exactly():
    region = SearchRegion(center=0.45 + 0.025j, side=0.05)
    nodes = contour_nodes(region, 16, region.radius)
    corners = [point for _, point, corner in nodes if corner]
    assert [j for j, (_, _, corner) in enumerate(nodes) if corner] == [2, 6, 10, 14]
    assert corners == [
        region.center + complex(0.025, 0.025),
        region.center + complex(-0.025, 0.025),
        region.center + complex(-0.025, -0.025),
        region.center + complex(0.025, -0.025),
    ]
    for phase, point, _ in nodes:
        assert abs(point - (region.center + region.radius * phase)) <= 1e-16
    # other node counts, and retried (larger) circles, have no corners
    assert not any(corner for _, _, corner in contour_nodes(region, 12, region.radius))
    assert not any(corner for _, _, corner in contour_nodes(region, 16, 1.05 * region.radius))


@pytest.mark.parametrize("name", sorted(MEMO_FAMILIES))
def test_memo_matches_fresh_solves(name, family_factory, monkeypatch):
    # follow the kept squares seven levels down, as sim_h does, and compare
    # each indicator with the memo against a fresh solve at every node.  The
    # bound is 1e-12 of max(value, delta0): moving a square's centre by one
    # unit in the last place changes the fresh indicator on these squares by
    # up to 3.8e-12 of that, and a memo hit is the same point formed by
    # another route.
    pol, models = MEMO_FAMILIES[name]
    _, _, fam = family_factory(4, 0.3, X, pol, models)
    cfg = SimConfig()
    g = random_probe(fam.n_dofs, seed=0)
    memo = SolveMemo(fam, g, cfg)
    counter = SimCounter(monkeypatch)
    level, calls, worst = MEMO_TILES, 0, 0.0
    for _ in range(7):
        memo.start_level(level)
        shared = [indicator(region, fam, g, cfg, memo=memo) for region in level]
        calls += len(level)
        fresh = [indicator(region, fam, g, cfg) for region in level]
        worst = max([worst] + [abs(a - b) / max(b, cfg.delta0) for a, b in zip(shared, fresh)])
        level = [child for region, value in zip(level, fresh) if value > cfg.delta0 for child in subdivide(region)]
    assert worst <= 1e-12
    # the memo was used: fewer than m0 fresh factorizations per shared call
    assert counter.factorizations - 16 * calls < 0.9 * 16 * calls


def test_memo_mirror_halves_lossless_search(family_factory, monkeypatch):
    pol, models = MEMO_FAMILIES["TE-lossless"]
    _, _, fam = family_factory(4, 0.3, X, pol, models)
    assert fam.conjugate_symmetric
    reference = SimCounter(monkeypatch, use_memo=False)
    fresh = sim_h(MEMO_TILES, fam, SimConfig())
    counter = SimCounter(monkeypatch)
    shared = sim_h(MEMO_TILES, fam, SimConfig())
    assert [c.nu for c in shared.candidates] == [c.nu for c in fresh.candidates]
    assert len(shared.candidates) == 6
    assert counter.indicator_calls == reference.indicator_calls
    assert reference.factorizations == 16 * reference.indicator_calls
    assert counter.conjugate_solves > 0
    assert counter.factorizations <= 0.45 * 16 * counter.indicator_calls


@pytest.mark.parametrize("name", ["TE-drude", "TM-lossy-drude"])
def test_memo_lossy_family_shares_corners_only(name, family_factory, monkeypatch):
    pol, models = MEMO_FAMILIES[name]
    _, _, fam = family_factory(4, 0.3, X, pol, models)
    assert not fam.conjugate_symmetric
    SimCounter(monkeypatch, use_memo=False)
    fresh = sim_h(MEMO_TILES, fam, SimConfig())
    counter = SimCounter(monkeypatch)
    shared = sim_h(MEMO_TILES, fam, SimConfig())
    assert [c.nu for c in shared.candidates] == [c.nu for c in fresh.candidates]
    assert counter.conjugate_solves == 0
    assert counter.factorizations <= 0.85 * 16 * counter.indicator_calls


def test_sim_h_memo_does_not_leak_between_calls(family_factory, monkeypatch):
    pol, models = MEMO_FAMILIES["TE-lossless"]
    _, _, fam = family_factory(4, 0.3, X, pol, models)
    runs = []
    for _ in range(2):
        counter = SimCounter(monkeypatch)
        result = sim_h(MEMO_TILES, fam, SimConfig())
        runs.append(
            (
                [c.nu for c in result.candidates],
                counter.factorizations,
                counter.conjugate_solves,
                counter.indicator_calls,
            )
        )
    assert runs[0] == runs[1]


def test_singular_retries_leave_no_reference_cycle():
    # a kept exception's traceback would tie the failed frame, and with it
    # factorize's rejected LU, into a cycle that only a full collection frees
    region = SearchRegion(center=0.5 + 0j, side=0.1)
    on_node = DiagonalFamily([0.5 + region.radius])
    gc.collect()
    gc.disable()
    try:
        assert refine_eigenpair(0.5, DiagonalFamily([0.5])).converged  # first solve is singular
        assert indicator(region, on_node, random_probe(1, seed=0), SimConfig()) > 1.0  # first contour is singular
        with pytest.raises(IndicatorError):
            indicator(region, SingularFamily(), random_probe(2, seed=0), SimConfig())
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_subdivide_quadrants():
    parts = subdivide(SearchRegion(center=0.5 + 0.5j, side=0.4))
    assert [p.side for p in parts] == [0.2, 0.2, 0.2, 0.2]
    expected = [0.4 + 0.4j, 0.6 + 0.4j, 0.4 + 0.6j, 0.6 + 0.6j]
    for part, centre in zip(parts, expected):
        assert abs(part.center - centre) <= 1e-15


def test_sim_h_locates_scalar_poles():
    fam = DiagonalFamily([0.33, 0.72 + 0.01j])
    regions = [
        SearchRegion(center=0.3 + 0j, side=0.2),
        SearchRegion(center=0.7 + 0j, side=0.2),
    ]
    result = sim_h(regions, fam, SimConfig())
    assert not result.failures
    assert len(result.candidates) == 2
    assert abs(result.candidates[0].nu - 0.33) <= 1e-4
    assert abs(result.candidates[1].nu - (0.72 + 0.01j)) <= 1e-4
    assert all(c.region_side * math.sqrt(2.0) <= 1e-4 for c in result.candidates)


def test_sim_h_empty_region_finds_nothing():
    fam = DiagonalFamily([5.0])
    result = sim_h([SearchRegion(center=0.5 + 0j, side=0.2)], fam, SimConfig())
    assert result.candidates == []
    assert result.failures == []
    assert sim_h([], fam, SimConfig()).candidates == []


def test_sim_h_records_hard_failures():
    # a family that is singular everywhere exhausts the retries; the search
    # reports the region instead of raising
    result = sim_h([SearchRegion(center=0.5 + 0j, side=0.2)], SingularFamily(), SimConfig())
    assert result.candidates == []
    assert len(result.failures) == 1
    assert "after 3 retries" in result.failures[0].message


def test_sim_h_deterministic_and_seed_stable():
    fam = DiagonalFamily([0.33, 0.72 + 0.01j])
    regions = [
        SearchRegion(center=0.3 + 0j, side=0.2),
        SearchRegion(center=0.7 + 0j, side=0.2),
    ]
    first = sim_h(regions, fam, SimConfig(seed=0))
    again = sim_h(regions, fam, SimConfig(seed=0))
    assert [c.nu for c in first.candidates] == [c.nu for c in again.candidates]
    other = sim_h(regions, fam, SimConfig(seed=1))
    assert len(other.candidates) == len(first.candidates)
    for a, b in zip(first.candidates, other.candidates):
        assert abs(a.nu - b.nu) <= SimConfig().dedup_tol


def test_dedup_merges_and_preserves():
    close = [
        EigenCandidate(nu=0.5 + 0j, region_side=1e-4),
        EigenCandidate(nu=0.50001 + 0j, region_side=1e-4),
    ]
    merged = dedup(close, tol=2e-4)
    assert len(merged) == 1
    assert merged[0].nu == pytest.approx(0.500005, abs=1e-12)

    apart = [
        EigenCandidate(nu=0.5 + 0j, region_side=1e-4),
        EigenCandidate(nu=0.6 + 0j, region_side=1e-4),
    ]
    assert len(dedup(apart, tol=2e-4)) == 2
    assert dedup([], tol=2e-4) == []

    # refined candidates are not averaged: the smallest residual wins
    refined = [
        EigenCandidate(nu=0.5 + 0j, region_side=1e-4, residual=1e-10),
        EigenCandidate(nu=0.50001 + 0j, region_side=2e-4, residual=1e-13),
        EigenCandidate(nu=0.50002 + 0j, region_side=1e-4, residual=1e-13),
    ]
    merged = dedup(refined, tol=2e-4)
    assert len(merged) == 1
    assert merged[0] is refined[1]


def test_dedup_single_linkage_chains():
    # pairwise neighbours link transitively even though the endpoints are
    # further apart than the tolerance
    chain = [
        EigenCandidate(nu=0.5 + 0j, region_side=1e-4),
        EigenCandidate(nu=0.50015 + 0j, region_side=1e-4),
        EigenCandidate(nu=0.5003 + 0j, region_side=1e-4),
    ]
    merged = dedup(chain, tol=2e-4)
    assert len(merged) == 1
    assert merged[0].nu == pytest.approx(0.50015, abs=1e-12)
    with pytest.raises(ValueError):
        dedup(chain, tol=-1.0)


def test_dedup_sorted_output():
    items = [
        EigenCandidate(nu=0.9 + 0j, region_side=1e-4),
        EigenCandidate(nu=0.3 + 0.02j, region_side=1e-4),
        EigenCandidate(nu=0.3 - 0.02j, region_side=1e-4),
    ]
    merged = dedup(items, tol=1e-6)
    assert [c.nu for c in merged] == [0.3 - 0.02j, 0.3 + 0.02j, 0.9 + 0j]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_refine_scalar_pole_to_machine_precision():
    result = refine_eigenpair(0.5003, DiagonalFamily([0.5]))
    assert result.converged
    assert abs(result.nu - 0.5) <= 1e-12
    assert result.residual == 0.0
    assert np.linalg.norm(result.vector) == pytest.approx(1.0, abs=1e-14)


def test_refine_matrix_eigenpair(family_factory):
    _, _, fam = family_factory(16, 0.0, X)
    low = refine_eigenpair(0.5003, fam)
    assert low.converged
    assert abs(low.nu - 0.5) <= 1e-8
    assert low.residual <= 1e-8
    partner = refine_eigenpair(0.513, fam)
    assert partner.converged
    assert partner.nu.real == pytest.approx(0.5128845990302411, abs=1e-9)
    assert abs(partner.nu.imag) <= 1e-10


def test_refine_iteration_budget():
    result = refine_eigenpair(0.6, DiagonalFamily([0.5]), max_iter=0)
    assert not result.converged
    assert result.iterations == 0
    assert result.residual > 0.1
