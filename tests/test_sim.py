"""Contour search: quadrature identities on scalar families, retry and
failure paths, block moments and their start values, the solve memo, dedup,
and eigenpair refinement."""

import gc
import math

import numpy as np
import pytest
import scipy.sparse as sp

import phcbands.sim
from phcbands.assembly import PermittivityBoundsError
from phcbands.materials import Constant, Drude, LossyDrude
from phcbands.sim import (
    ContourMoments,
    EigenCandidate,
    IndicatorError,
    SearchRegion,
    SimConfig,
    SolveMemo,
    contour_nodes,
    dedup,
    hankel_rank_and_values,
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
# one row of 12 tiles symmetric about the real axis; no family above splits one
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

        def counted_indicator(region, fam, g, cfg, memo=None, moments=None):
            self.indicator_calls += 1
            return real_indicator(region, fam, g, cfg, memo=memo if use_memo else None, moments=moments)

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


def _moments(region, fam, probe, cfg, memo=None):
    out = ContourMoments()
    indicator(region, fam, probe, cfg, memo=memo, moments=out)
    return out


@pytest.mark.parametrize("name", sorted(MEMO_FAMILIES))
def test_memo_matches_fresh_solves(name, family_factory, monkeypatch):
    # the row of tiles and then all their quarters, as two levels of sim_h:
    # every moment block taken with the memo equals the one from a fresh
    # solve at every node, relative to the rank scale, and a memo hit is the
    # same point formed by another route
    pol, models = MEMO_FAMILIES[name]
    _, _, fam = family_factory(4, 0.3, X, pol, models)
    cfg = SimConfig()
    probe = random_probe(fam.n_dofs, 0, columns=12)
    memo = SolveMemo(fam, probe, cfg)
    counter = SimCounter(monkeypatch)
    level, calls, worst = MEMO_TILES, 0, 0.0
    for _ in range(2):
        memo.start_level(level)
        shared = [_moments(region, fam, probe, cfg, memo) for region in level]
        calls += len(level)
        fresh = [_moments(region, fam, probe, cfg) for region in level]
        for a, b in zip(shared, fresh):
            assert (a.radius, a.blocks.shape) == (b.radius, (4, fam.n_dofs, 12))
            worst = max(worst, np.abs(a.blocks - b.blocks).max() / b.scale, abs(a.scale - b.scale) / b.scale)
        level = [child for region in level for child in subdivide(region)]
    assert worst <= 1e-12
    # the memo was used: fewer than m0 fresh factorizations per shared call
    assert counter.factorizations - 16 * calls < 0.9 * 16 * calls


def test_memo_mirror_halves_lossless_search(family_factory, monkeypatch):
    # an unsplit row of t tiles straddling the real axis: the upper half of
    # each circle (7 nodes, corners shared along the row) plus its 2 nodes on
    # the axis are factorized, the lower half comes from conjugate-transpose
    # solves, so 8t + 1 factorizations against 16t fresh
    pol, models = MEMO_FAMILIES["TE-lossless"]
    _, _, fam = family_factory(4, 0.3, X, pol, models)
    assert fam.conjugate_symmetric
    reference = SimCounter(monkeypatch, use_memo=False)
    fresh = sim_h(MEMO_TILES, fam, SimConfig())
    counter = SimCounter(monkeypatch)
    shared = sim_h(MEMO_TILES, fam, SimConfig())
    t = len(MEMO_TILES)
    assert counter.indicator_calls == reference.indicator_calls == t
    assert reference.factorizations == 16 * t
    assert counter.factorizations == 8 * t + 1
    assert counter.conjugate_solves == 6 * t + 1
    assert len(shared.candidates) == len(fresh.candidates) > 0
    for a, b in zip(shared.candidates, fresh.candidates):
        assert a.tile == b.tile and abs(a.nu - b.nu) <= 1e-10


@pytest.mark.parametrize("name", ["TE-drude", "TM-lossy-drude"])
def test_memo_lossy_family_shares_corners_only(name, family_factory, monkeypatch):
    # 12 nodes of each circle are its own, the corners are shared along the
    # row: 14t + 2 factorizations against 16t fresh
    pol, models = MEMO_FAMILIES[name]
    _, _, fam = family_factory(4, 0.3, X, pol, models)
    assert not fam.conjugate_symmetric
    SimCounter(monkeypatch, use_memo=False)
    fresh = sim_h(MEMO_TILES, fam, SimConfig())
    counter = SimCounter(monkeypatch)
    shared = sim_h(MEMO_TILES, fam, SimConfig())
    t = len(MEMO_TILES)
    assert counter.indicator_calls == t
    assert counter.conjugate_solves == 0
    assert counter.factorizations == 14 * t + 2
    # a shared corner is the same point formed from the other tile's centre
    assert len(shared.candidates) == len(fresh.candidates) > 0
    for a, b in zip(shared.candidates, fresh.candidates):
        assert a.tile == b.tile and abs(a.nu - b.nu) <= 1e-10


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
    # each square's moments give its own pole as the one start value inside
    # its circle; the other pole leaks in from outside and is left out
    fam = DiagonalFamily([0.33, 0.72 + 0.01j])
    regions = [
        SearchRegion(center=0.3 + 0j, side=0.2),
        SearchRegion(center=0.7 + 0j, side=0.2),
    ]
    result = sim_h(regions, fam, SimConfig())
    assert not result.failures
    assert [start.tile for start in result.candidates] == regions
    assert abs(result.candidates[0].nu - 0.33) <= 1e-12
    assert abs(result.candidates[1].nu - (0.72 + 0.01j)) <= 1e-12


@pytest.mark.parametrize(
    "poles",
    [[0.33], [0.3313 + 0.0002j, 0.331, 0.9]],
    ids=["1-dof-one-pole", "3-dof-close-pair"],
)
def test_sim_h_small_families_cap_the_probe_block(poles):
    # p = n_dofs: one column (capacity 2, so the square is split to the
    # minimum side) and three columns; every pole in the square, including
    # a pair 3.6e-4 apart, has a start value inside a square that holds it
    fam = DiagonalFamily(poles)
    region = SearchRegion(center=0.35 + 0j, side=0.1)
    result = sim_h([region], fam, SimConfig())
    assert not result.failures
    for pole in poles:
        if not region.contains(pole):
            continue
        near = [s for s in result.candidates if abs(s.nu - pole) <= 1e-10]
        assert near and all(s.tile.contains(pole) for s in near)
    assert all(abs(s.nu - 0.9) > 0.1 for s in result.candidates)
    assert min(s.tile.side for s in result.candidates) == (0.0125 if len(poles) == 1 else 0.1)


def test_hankel_order_finds_a_double_root_without_residue():
    # T(nu) = nu^2 has a double root at 0 whose 1/nu residue vanishes, so
    # A0 is zero up to quadrature error and has rank 0 under the search's
    # rule: Beyn's A0/A1 pencil sees nothing.  The order-2 Hankel pencil
    # sees rank 2 and a double eigenvalue at the root.
    class Square:
        n_dofs = 1

        def t_matrix(self, nu):
            return sp.csr_matrix(np.array([[complex(nu) ** 2]]))

    region = SearchRegion(center=0.02 + 0.01j, side=0.1)
    moments = ContourMoments()
    value = indicator(region, Square(), random_probe(1, 0, columns=1), SimConfig(), moments=moments)
    assert value == pytest.approx(np.abs(moments.blocks[0]).max(), rel=1e-12)
    assert value <= 1e-6 * moments.scale
    # A1 = (1 / 2 pi i) oint ((z - c) / R) z^-2 dz g = g / R
    assert np.abs(moments.blocks[1]).max() == pytest.approx(1.0 / region.radius, rel=1e-6)
    rank, values = hankel_rank_and_values(moments, region.center)
    assert rank == 2
    assert len(values) == 2 and all(abs(nu) <= 1e-8 for nu in values)


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
    apart = [
        EigenCandidate(nu=0.5 + 0j, residual=1e-12),
        EigenCandidate(nu=0.6 + 0j, residual=1e-12),
    ]
    assert dedup(apart, tol=2e-4) == apart
    assert dedup([], tol=2e-4) == []

    # candidates are not averaged: the smallest residual wins, the first on ties
    refined = [
        EigenCandidate(nu=0.5 + 0j, residual=1e-10),
        EigenCandidate(nu=0.50001 + 0j, residual=1e-13),
        EigenCandidate(nu=0.50002 + 0j, residual=1e-13),
    ]
    merged = dedup(refined, tol=2e-4)
    assert len(merged) == 1
    assert merged[0] is refined[1]

    # only refined candidates are merged
    with pytest.raises(ValueError, match="refined"):
        dedup([EigenCandidate(nu=0.5 + 0j)], tol=2e-4)


def test_dedup_single_linkage_chains():
    # pairwise neighbours link transitively even though the endpoints are
    # further apart than the tolerance
    chain = [
        EigenCandidate(nu=0.5 + 0j, residual=1e-11),
        EigenCandidate(nu=0.50015 + 0j, residual=1e-12),
        EigenCandidate(nu=0.5003 + 0j, residual=1e-10),
    ]
    merged = dedup(chain, tol=2e-4)
    assert merged == [chain[1]]
    with pytest.raises(ValueError):
        dedup(chain, tol=-1.0)


def test_dedup_sorted_output():
    items = [
        EigenCandidate(nu=0.9 + 0j, residual=1e-12),
        EigenCandidate(nu=0.3 + 0.02j, residual=1e-12),
        EigenCandidate(nu=0.3 - 0.02j, residual=1e-12),
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
