"""Contour search: quadrature identities on scalar families, retry and
failure paths, block moments and their start values, the solve memo, dedup,
and eigenpair refinement."""

import gc
import math
import types

import numpy as np
import pytest
import scipy.sparse as sp

import phcbands.sim
import phcbands.sweep
from phcbands.materials import Constant, Drude, LossyDrude, PermittivityPoleError
from phcbands.mesh import build_periodic_dof_map, build_unit_cell_mesh, filling_fraction_to_radius
from phcbands.sparse import band_layout, factorize, solve
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
    left_block,
    random_probe,
    refine_eigenpair,
    sim_h,
    subdivide,
)
from phcbands.sweep import Window, solve_at_k, sweep, tile_window

from conftest import M, X, DiagonalFamily, PatternFamily, SingularFamily

# n=4 disc families at X: lossless (conjugation-symmetric) and two lossy ones
MEMO_FAMILIES = {
    "TE-lossless": ("TE", {0: Constant(1.0), 1: Constant(8.9)}),
    "TE-drude": ("TE", {0: Constant(1.0), 1: Drude(1.0, 0.01)}),
    "TM-lossy-drude": ("TM", {0: Constant(1.0), 1: LossyDrude(1.0, 0.01)}),
}
# one row of 12 tiles symmetric about the real axis; no family above splits one
MEMO_TILES = tile_window(Window(0.05, 1.2, -0.05, 0.05))
# start values of two seeds agree this closely (the merge distance of dedup)
SEED_TOL = 2e-4
DELTA0 = 0.01  # the paper's indicator threshold


_UNCOUNTED = (phcbands.sim.factorize, phcbands.sim.solve, phcbands.sim.indicator)


class SimCounter:
    """Counts the factorizations, conjugate-transpose solves and indicator
    calls the search makes; with ``use_memo=False`` every indicator call
    gets no memo and so makes a fresh one of its own, which gives the
    fresh-solve reference.  A new counter replaces the previous one rather
    than wrapping it."""

    def __init__(self, monkeypatch, use_memo=True):
        self.factorizations = self.conjugate_solves = self.indicator_calls = 0
        real_factorize, real_solve, real_indicator = _UNCOUNTED

        def factorize(layout, data):
            self.factorizations += 1
            return real_factorize(layout, data)

        def solve(lu, b, trans="N"):
            self.conjugate_solves += trans == "H"
            return real_solve(lu, b, trans)

        def counted_indicator(region, fam, g, cfg, memo=None, moments=None):
            self.indicator_calls += 1
            return real_indicator(region, fam, g, cfg, memo=memo if use_memo else None, moments=moments)

        monkeypatch.setattr(phcbands.sim, "factorize", factorize)
        monkeypatch.setattr(phcbands.sim, "solve", solve)
        monkeypatch.setattr(phcbands.sim, "indicator", counted_indicator)


class FlakyFamily(PatternFamily):
    """Scalar family that refuses to assemble at one specific frequency."""

    def __init__(self, pole, trigger):
        self.pole = complex(pole)
        self.trigger = complex(trigger)
        super().__init__(sp.identity(1))

    def t_data(self, nu):
        if abs(complex(nu) - self.trigger) < 1e-9:
            raise PermittivityPoleError("permittivity out of bounds")
        return np.array([complex(nu) - self.pole])


def test_region_properties_and_validation():
    region = SearchRegion(center=0.5 + 0.25j, side=0.2)
    assert region.radius == pytest.approx(0.2 / math.sqrt(2.0), rel=1e-15)
    for side in (0.0, -0.1):
        with pytest.raises(ValueError):
            SearchRegion(center=0j, side=side)


def test_config_defaults_and_validation():
    assert SimConfig().seed == 0
    # delta0 is the paper's threshold and dedup_tol the merge distance,
    # class constants and not settings
    assert (SimConfig.delta0, SimConfig.dedup_tol) == (0.01, 2e-4)
    for constant in ("delta0", "dedup_tol"):
        with pytest.raises(TypeError):
            SimConfig(**{constant: 0.01})
    for bad in ({"seed": -1}, {"seed": 2.5}):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(**bad)


def test_random_probe():
    g = random_probe(40, seed=7)
    assert g.shape == (40,)
    assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(g, random_probe(40, seed=7))
    assert not np.array_equal(g, random_probe(40, seed=8))


def test_indicator_exact_for_centred_pole():
    # with the pole at the centre every quadrature term equals g / 16, so
    # the indicator collapses to ||g|| = 1 with no quadrature error at all
    fam = DiagonalFamily([0.3 + 0.1j])
    region = SearchRegion(center=0.3 + 0.1j, side=0.05)
    value = indicator(region, fam, random_probe(1, seed=0, columns=1), SimConfig())
    assert value == pytest.approx(1.0, abs=1e-12)


def test_indicator_geometric_decay_for_external_pole():
    # scalar pole at twice the contour radius: the trapezoid sum of the
    # resolvent is the tail of a geometric series, |sum| = 1 / (2^16 - 1)
    region = SearchRegion(center=0.2 + 0j, side=0.1)
    fam = DiagonalFamily([0.2 + 2.0 * region.radius])
    value = indicator(region, fam, random_probe(1, seed=0, columns=1), SimConfig())
    assert value == pytest.approx(1.0 / 65535.0, rel=1e-10)


def test_indicator_separates_occupied_from_free(family_factory):
    _, _, fam = family_factory(8, 0.0, X)
    g = random_probe(fam.n_dofs, seed=0, columns=1)
    cfg = SimConfig()
    free = indicator(SearchRegion(center=0.25 + 0j, side=0.02), fam, g, cfg)
    full = indicator(SearchRegion(center=0.5 + 0j, side=0.02), fam, g, cfg)
    assert free < 1e-8
    assert full > DELTA0


def test_indicator_retries_off_a_contour_pole():
    # eigenvalue placed exactly on the first quadrature node: the first
    # attempt hits a singular factorization, the retry grows the radius by
    # 5 % and encloses the pole, giving 1 / (1 - 1.05^-16)
    region = SearchRegion(center=0.5 + 0j, side=0.1)
    fam = DiagonalFamily([0.5 + region.radius])
    value = indicator(region, fam, random_probe(1, seed=0, columns=1), SimConfig())
    assert value == pytest.approx(1.0 / (1.0 - 1.05**-16), rel=1e-10)
    assert 1.0 < value < 2.5


def test_indicator_retries_past_material_failure():
    # same geometry as above, but the first attempt dies on a permittivity
    # failure at the quadrature node rather than a singular factorization
    region = SearchRegion(center=0.5 + 0j, side=0.1)
    fam = FlakyFamily(pole=0.5 + region.radius, trigger=0.5 + region.radius)
    value = indicator(region, fam, random_probe(1, seed=0, columns=1), SimConfig())
    assert value == pytest.approx(1.0 / (1.0 - 1.05**-16), rel=1e-10)


def test_contour_nodes_place_corners_exactly():
    region = SearchRegion(center=0.45 + 0.025j, side=0.05)
    nodes = contour_nodes(region, region.radius)
    corners = [point for _, point in nodes[2::4]]
    assert corners == [
        region.center + complex(0.025, 0.025),
        region.center + complex(-0.025, 0.025),
        region.center + complex(-0.025, -0.025),
        region.center + complex(0.025, -0.025),
    ]
    for phase, point in nodes:
        assert abs(point - (region.center + region.radius * phase)) <= 1e-16
    # retried (larger) circles place every node on the circle
    radius = 1.05 * region.radius
    assert all(point == region.center + radius * phase for phase, point in contour_nodes(region, radius))


def _moments(region, fam, probe, cfg, memo=None):
    out = ContourMoments()
    indicator(region, fam, probe, cfg, memo=memo, moments=out)
    return out


def test_moments_are_left_projections(family_factory):
    # the search's moments are W^H times the unprojected moments
    # A_q = (R / 16) sum_j phase_j^(q+1) T(z_j)^-1 V, formed here from the
    # full n x p solves, for the W of seed + 7919; the rank scale is the
    # largest projected summand, and the paper's indicator still reads the
    # unprojected ||A_0 g||.  The two squares hold 5 and 7 eigenvalues.
    pol, models = MEMO_FAMILIES["TM-lossy-drude"]
    _, _, fam = family_factory(4, 0.3, X, pol, models)
    cfg = SimConfig(seed=3)
    probe = random_probe(fam.n_dofs, cfg.seed, columns=12)
    w = random_probe(fam.n_dofs, cfg.seed + phcbands.sim._LEFT_SEED_OFFSET, columns=12)
    for region in (SearchRegion(center=0.6 + 0j, side=0.1), SearchRegion(center=0.7 + 0j, side=0.1)):
        moments = ContourMoments()
        value = indicator(region, fam, probe, cfg, moments=moments)
        solves = [
            (phase, solve(factorize(fam.layout, fam.t_data(point)), probe))
            for phase, point in contour_nodes(region, region.radius)
        ]
        full = [region.radius / 16 * sum(phase ** (q + 1) * u for phase, u in solves) for q in range(4)]
        assert moments.blocks.shape == (4, 12, 12)
        for q in range(4):
            expected = w.conj().T @ full[q]
            assert np.linalg.norm(moments.blocks[q] - expected) <= 1e-12 * np.linalg.norm(expected)
        scale = region.radius * max(np.linalg.norm(w.conj().T @ u, 2) for _, u in solves)
        assert moments.scale == pytest.approx(scale, rel=1e-12)
        assert value == pytest.approx(np.linalg.norm(full[0][:, 0]), rel=1e-12)
        assert hankel_rank_and_values(moments, region.center)[0] >= 5


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
    memo = SolveMemo(fam, probe, left_block(fam.n_dofs, 12, cfg.seed))
    counter = SimCounter(monkeypatch)
    level, calls, worst = MEMO_TILES, 0, 0.0
    for _ in range(2):
        memo.start_level(level)
        shared = [_moments(region, fam, probe, cfg, memo) for region in level]
        calls += len(level)
        fresh = [_moments(region, fam, probe, cfg) for region in level]
        for a, b in zip(shared, fresh):
            assert (a.radius, a.blocks.shape) == (b.radius, (4, 12, 12))
            worst = max(worst, np.abs(a.blocks - b.blocks).max() / b.scale, abs(a.scale - b.scale) / b.scale)
        level = [child for region in level for child in subdivide(region)]
    assert worst <= 1e-12
    # the memo was used: fewer than m0 fresh factorizations per shared call
    assert counter.factorizations - 16 * calls < 0.9 * 16 * calls


@pytest.mark.parametrize("name", ["TE-drude", "TM-lossy-drude"])
def test_memo_shares_exactly_across_splits(name, family_factory, monkeypatch):
    # a 1-column block makes every square that sees an eigenvalue split: each
    # level factorizes exactly its nodes that the level before did not have
    # (a child shares its corners with its parent and its siblings); lossy
    # families have no mirror solves
    pol, models = MEMO_FAMILIES[name]
    _, _, fam = family_factory(4, 0.3, X, pol, models)
    monkeypatch.setattr(phcbands.sim, "_PROBE_COLUMNS", 1)
    counter = SimCounter(monkeypatch)
    counted, levels = phcbands.sim.indicator, {}

    def recorded(region, *args, **kwargs):
        levels.setdefault(region.side, []).append(region)
        return counted(region, *args, **kwargs)

    monkeypatch.setattr(phcbands.sim, "indicator", recorded)
    assert not sim_h(MEMO_TILES, fam, SimConfig()).failures

    def keys(level):
        quantum = phcbands.sim._KEY_QUANTUM
        points = (node[1] for region in level for node in contour_nodes(region, region.radius))
        return {(round(z.real / quantum), round(z.imag / quantum)) for z in points}

    previous, expected = set(), 0
    for side in sorted(levels, reverse=True):
        current = keys(levels[side])
        expected += len(current - previous)
        previous = current
    assert len(levels) >= 3
    assert counter.conjugate_solves == 0
    assert counter.factorizations == expected


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


def test_sim_h_retries_a_shared_corner_through_the_memo(monkeypatch):
    # 0.2 + 0.05i is the corner the two tiles share, and the first-attempt
    # corner of every square of theirs that touches it: each such square
    # retries on a 5 % larger circle, whose nodes go through the run's memo
    # too, and the search gives the start values of fresh solves
    tiles = tile_window(Window(0.1, 0.3, -0.05, 0.05))
    fam = FlakyFamily(pole=0.23 + 0.01j, trigger=0.2 + 0.05j)
    runs = []
    for use_memo in (False, True):
        counter = SimCounter(monkeypatch, use_memo=use_memo)
        counted, radii = phcbands.sim.indicator, {}

        def recorded(region, *args, moments=None, **kwargs):
            value = counted(region, *args, moments=moments, **kwargs)
            radii[region] = moments.radius
            return value

        monkeypatch.setattr(phcbands.sim, "indicator", recorded)
        runs.append((sim_h(tiles, fam, SimConfig()), radii, counter.factorizations))
    (fresh, fresh_radii, fresh_count), (shared, shared_radii, shared_count) = runs
    assert len(tiles) == 2
    assert shared_radii == fresh_radii
    for tile in tiles:
        assert shared_radii[tile] == tile.radius * 1.05
    assert shared.failures == fresh.failures == []
    assert len(shared.candidates) == len(fresh.candidates) > 0
    for a, b in zip(shared.candidates, fresh.candidates):
        assert a.tile == b.tile and abs(a.nu - b.nu) <= 1e-10
    assert any(abs(a.nu - fam.pole) <= 1e-10 for a in shared.candidates)
    assert shared_count < fresh_count


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
        # the first contour is singular
        assert indicator(region, on_node, random_probe(1, seed=0, columns=1), SimConfig()) > 1.0
        with pytest.raises(IndicatorError):
            indicator(region, SingularFamily(), random_probe(2, seed=0, columns=1), SimConfig())
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
    # its circle; the other pole leaks in from outside and is left out.  The
    # leak, (R / d)^13 ~ 1e-6 of the moments, lies under the rank threshold,
    # and the left block W mixes it into the kept pencil at first order: the
    # start values sit 6.5e-9 and 9.7e-10 from their poles.  Start values are
    # refined before use; refinement lands on each pole to 1e-12.
    fam = DiagonalFamily([0.33, 0.72 + 0.01j])
    regions = [
        SearchRegion(center=0.3 + 0j, side=0.2),
        SearchRegion(center=0.7 + 0j, side=0.2),
    ]
    result = sim_h(regions, fam, SimConfig())
    assert not result.failures
    assert [start.tile for start in result.candidates] == regions
    for start, pole in zip(result.candidates, (0.33, 0.72 + 0.01j)):
        assert abs(start.nu - pole) <= 1e-8
        assert abs(refine_eigenpair(start.nu, fam).nu - pole) <= 1e-12


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
    class Square(PatternFamily):
        def t_data(self, nu):
            return np.array([complex(nu) ** 2])

    region = SearchRegion(center=0.02 + 0.01j, side=0.1)
    moments = ContourMoments()
    value = indicator(region, Square(sp.identity(1)), random_probe(1, 0, columns=1), SimConfig(), moments=moments)
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
    assert result.failures[0].startswith("region at (0.5+0j) (side 0.2): indicator failed")
    assert "after 3 retries" in result.failures[0]


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
        assert abs(a.nu - b.nu) <= SEED_TOL


def test_dedup_merges_and_preserves():
    apart = [
        EigenCandidate(nu=0.5 + 0j, residual=1e-12),
        EigenCandidate(nu=0.6 + 0j, residual=1e-12),
    ]
    assert dedup(apart) == apart
    assert dedup([]) == []

    # candidates are not averaged: the smallest residual wins, the first on ties
    refined = [
        EigenCandidate(nu=0.5 + 0j, residual=1e-10),
        EigenCandidate(nu=0.50001 + 0j, residual=1e-13),
        EigenCandidate(nu=0.50002 + 0j, residual=1e-13),
    ]
    merged = dedup(refined)
    assert len(merged) == 1
    assert merged[0] is refined[1]


def test_dedup_single_linkage_chains(monkeypatch):
    # pairwise neighbours link transitively even though the endpoints are
    # further apart than the tolerance
    chain = [
        EigenCandidate(nu=0.5 + 0j, residual=1e-11),
        EigenCandidate(nu=0.50015 + 0j, residual=1e-12),
        EigenCandidate(nu=0.5003 + 0j, residual=1e-10),
    ]
    assert dedup(chain) == [chain[1]]
    # below the 1.5e-4 spacing nothing links
    monkeypatch.setattr(phcbands.sim, "_DEDUP_TOL", 1e-4)
    assert dedup(chain) == chain


def test_dedup_sorted_output():
    items = [
        EigenCandidate(nu=0.9 + 0j, residual=1e-12),
        EigenCandidate(nu=0.3 + 0.02j, residual=1e-12),
        EigenCandidate(nu=0.3 - 0.02j, residual=1e-12),
    ]
    merged = dedup(items)
    assert [c.nu for c in merged] == [0.3 - 0.02j, 0.3 + 0.02j, 0.9 + 0j]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_refine_scalar_pole_to_machine_precision():
    result = refine_eigenpair(0.5003, DiagonalFamily([0.5]))
    assert result.converged
    assert abs(result.nu - 0.5) <= 1e-12
    assert result.residual == 0.0


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


def test_refine_factorizes_once_per_start_value(monkeypatch):
    # residual inverse iteration corrects the eigenvector with the LU of
    # T at the start value; on the dielectric benchmark at M (TE, eps 8.9,
    # n=16) no sweep stalls, so no re-shift is taken: 7 start values, 7
    # factorizations (inverse iteration factorized every sweep: 27)
    starts, factorizations, refining = [], [], [False]
    real_factorize, real_refine = phcbands.sim.factorize, phcbands.sweep.refine_eigenpair

    def factorize(layout, data):
        factorizations.append(refining[0])
        return real_factorize(layout, data)

    def refine(nu0, fam):
        starts.append(nu0)
        refining[0] = True
        try:
            return real_refine(nu0, fam)
        finally:
            refining[0] = False

    monkeypatch.setattr(phcbands.sim, "factorize", factorize)
    monkeypatch.setattr(phcbands.sweep, "refine_eigenpair", refine)
    mesh = build_unit_cell_mesh(16, filling_fraction_to_radius(0.2827))
    models = {0: Constant(1.0), 1: Constant(8.9)}
    window = Window(0.05, 0.8, -0.05, 0.05)
    result = solve_at_k(mesh, build_periodic_dof_map(mesh), M, "TE", models, window, SimConfig())
    assert len(result.eigenpairs) == 6 and not result.warnings
    assert len(starts) == 7
    assert factorizations.count(True) == len(starts)


def test_refined_cluster_values_independent_of_the_start_value():
    # the TM lossy disc's interface cluster near eps = -1 at n=8: two seeds
    # give different start values, and the same eigenvalues to rounding,
    # because refinement takes one more sweep after its stop test passes
    # (stopping there left ~1e-11 between the two seeds' values)
    r = filling_fraction_to_radius(0.2827)
    models = {0: Constant(1.0), 1: LossyDrude(1.0, 0.01)}
    window = Window(0.05, 1.2, -0.05, 0.05)
    runs = [sweep(8, r, "TM", models, window, SimConfig(seed=seed), nk=2).points for seed in (0, 1)]
    for first, second in zip(*runs):
        a = np.array([pair.nu for pair in first.eigenpairs])
        b = np.array([pair.nu for pair in second.eigenpairs])
        assert a.size == b.size > 0
        gap = np.abs(a[:, None] - b[None, :])
        assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-12
    assert sum(len(point.eigenpairs) for point in runs[0]) == 142


def test_refine_iteration_budget(monkeypatch):
    monkeypatch.setattr(phcbands.sim, "_REFINE_MAX_ITER", 0)
    result = refine_eigenpair(0.6, DiagonalFamily([0.5]))
    assert not result.converged
    assert result.iterations == 0
    assert result.residual > 0.1


def test_minimal_family_runs_the_search_and_refinement():
    # the operator family protocol is n_dofs, layout and t_data: an object
    # with these three alone is searched and refined, T(nu) read only as
    # its entries on the layout's pattern
    poles = np.array([0.33, 0.72 + 0.01j])
    fam = types.SimpleNamespace(
        n_dofs=2,
        layout=band_layout(sp.identity(2, format="csc"), [0]),
        t_data=lambda nu: complex(nu) - poles,
    )
    regions = [SearchRegion(center=0.3 + 0j, side=0.2), SearchRegion(center=0.7 + 0j, side=0.2)]
    result = sim_h(regions, fam, SimConfig())
    assert not result.failures
    assert [start.tile for start in result.candidates] == regions
    for start, pole in zip(result.candidates, poles):
        refined = refine_eigenpair(start.nu, fam)
        assert refined.converged
        assert abs(refined.nu - pole) <= 1e-12


def test_refine_converged_at_entry_takes_one_last_sweep():
    # T(0.5) = 0: the residual is 0 before any Newton sweep, and the one
    # last sweep that follows convergence leaves nu where it is
    result = refine_eigenpair(0.5, DiagonalFamily([0.5]))
    assert result.converged
    assert result.iterations == 1
    assert result.residual == 0.0
    assert result.nu == 0.5


def test_refine_stops_when_T_does_not_depend_on_nu():
    # T' = 0 leaves no Newton step: refinement stops before its first sweep
    # and returns the start value unconverged
    class Fixed(PatternFamily):
        def t_data(self, nu):
            return np.array([1.0, 2.0], dtype=np.complex128)

    result = refine_eigenpair(0.6 + 0.01j, Fixed(sp.identity(2)))
    assert not result.converged
    assert result.iterations == 0
    assert result.nu == 0.6 + 0.01j
