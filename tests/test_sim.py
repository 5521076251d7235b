"""Contour search: quadrature identities on scalar families, retry and
failure paths, block moments and their start values, the solve memo, dedup,
and eigenpair refinement."""

import gc
import types

import numpy as np
import pytest
import scipy.sparse as sp

import phcbands.sim
import phcbands.sweep
from phcbands.materials import Constant, Drude, LossyDrude, PermittivityPoleError
from phcbands.mesh import build_periodic_dof_map, build_unit_cell_mesh, filling_fraction_to_radius
from phcbands.sparse import SingularMatrixError, band_layout, factorize, solve
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
    """Counts the factorizations, block solves and indicator calls the
    search makes; with ``use_memo=False`` every indicator call
    gets a fresh memo of its own without mirror points, which gives the
    fresh-solve reference.
    A new counter replaces the previous one rather than wrapping it."""

    def __init__(self, monkeypatch, use_memo=True):
        self.factorizations = self.block_solves = self.indicator_calls = 0
        real_factorize, real_solve, real_indicator = _UNCOUNTED

        def factorize(layout, data):
            self.factorizations += 1
            return real_factorize(layout, data)

        def solve(lu, b):
            self.block_solves += np.ndim(b) == 2
            return real_solve(lu, b)

        def counted_indicator(region, fam, g, cfg, memo=None, moments=None):
            self.indicator_calls += 1
            if not use_memo:
                memo = SolveMemo(fam, g, cfg.seed)
                memo.mirror = False
            return real_indicator(region, fam, g, cfg, memo=memo, moments=moments)

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
    # the closed square, grown by the 1e-9 slack a refined value may take
    region = SearchRegion(center=0.5 + 0.25j, side=0.2)
    assert region.contains(0.6 + 0.35j) and region.contains(0.4 + 0.15j - 5e-10 * (1 + 1j))
    assert not region.contains(0.6 + 2e-9 + 0.25j)
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
    # a float or a bool is no seed, even when it equals an integer
    for bad in ({"seed": -1}, {"seed": 2.5}, {"seed": 2.0}, {"seed": True}):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(**bad)


def test_random_probe():
    g = random_probe(40, seed=7)
    assert g.shape == (40,)
    assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(g, random_probe(40, seed=7))
    assert not np.array_equal(g, random_probe(40, seed=8))


# the 4-point Gauss-Legendre rule on [-1, 1], formed apart from the search
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(4)


def _square_value(pole, region, half_side=None):
    """|(1 / 2 pi i) sum_j dz_j / (z_j - pole)| over the square of
    ``half_side`` about the region's centre, 4 Gauss-Legendre nodes on each
    edge, formed edge by edge: the indicator of T(nu) = nu - pole."""
    rho = region.side / 2.0 if half_side is None else half_side
    total = 0j
    for mid in (-1j, 1.0, 1j, -1.0):  # edge midpoints, counter-clockwise from the bottom
        z = region.center + rho * mid * (1.0 + 1j * GL_NODES)
        total += np.sum(1j * mid * rho * GL_WEIGHTS / (z - pole))
    return abs(total / (2j * np.pi))


def test_indicator_exact_for_centred_pole():
    # with the pole at the centre, each edge contributes the same
    # i sum_k w_k / (1 + t_k^2) (the odd part cancels on the symmetric
    # nodes), so the indicator is (2 / pi) sum_k w_k / (1 + t_k^2): the
    # 4-point rule of arctan's integral, 1.4e-3 short of 1.  One unknown
    # makes W a unit scalar, so ||W^H A_0 g|| = |A_0|
    fam = DiagonalFamily([0.3 + 0.1j])
    region = SearchRegion(center=0.3 + 0.1j, side=0.05)
    value = indicator(region, fam, random_probe(1, seed=0, columns=1), SimConfig())
    expected = 2.0 / np.pi * np.sum(GL_WEIGHTS / (1.0 + GL_NODES**2))
    assert value == pytest.approx(expected, rel=1e-13)
    assert abs(value - 1.0) < 2e-3


def test_indicator_geometric_decay_for_external_pole():
    # a pole outside the square leaks in at the rate of the Bernstein
    # ellipse of the nearest edge through it, of order (1 + sqrt 2)^-8 ~ 9e-4
    # for a pole one half-side beyond the right edge: the value is 3.5e-4
    # there and 6.4e-8 three half-sides beyond, and equals the quadrature sum
    # formed edge by edge
    region = SearchRegion(center=0.2 + 0j, side=0.1)
    values = []
    for beyond in (1.0, 3.0):
        pole = 0.2 + (1.0 + beyond) * 0.05
        value = indicator(region, DiagonalFamily([pole]), random_probe(1, seed=0, columns=1), SimConfig())
        assert value == pytest.approx(_square_value(pole, region), rel=1e-10)
        values.append(value)
    assert 1e-4 < values[0] < 1e-3 and values[1] < 1e-7


def test_indicator_separates_occupied_from_free(family_factory):
    # the n=8 empty lattice at X: a square 0.25 from every band has moments
    # of rank 0 and an indicator at rounding level; one centred on the band
    # at 0.5 (the next is 0.552) has rank 1 and its start value there
    _, _, fam = family_factory(8, 0.0, X)
    probe = random_probe(fam.n_dofs, seed=0, columns=12)
    free, full = ContourMoments(), ContourMoments()
    free_value = indicator(SearchRegion(center=0.25 + 0j, side=0.02), fam, probe, SimConfig(), moments=free)
    full_value = indicator(SearchRegion(center=0.5 + 0j, side=0.02), fam, probe, SimConfig(), moments=full)
    assert free_value < 1e-8 * free.scale
    assert full_value > DELTA0
    assert hankel_rank_and_values(free, 0.25 + 0j) == (0, [])
    rank, values = hankel_rank_and_values(full, 0.5 + 0j)
    assert rank == 1 and len(values) == 1 and abs(values[0] - 0.5) <= 1e-9


def test_indicator_retries_off_a_contour_pole():
    # eigenvalue placed exactly on the first quadrature node: the first
    # attempt hits a singular factorization, the retry grows the square by
    # 5 % about its centre, and the value is that of the larger square,
    # whose contour holds the pole inside
    region = SearchRegion(center=0.5 + 0j, side=0.1)
    pole = contour_nodes(region, 0.05)[0]
    moments = ContourMoments()
    value = indicator(region, DiagonalFamily([pole]), random_probe(1, seed=0, columns=1), SimConfig(), moments=moments)
    assert moments.half_side == 0.05 * 1.05
    assert value == pytest.approx(_square_value(pole, region, 0.05 * 1.05), rel=1e-10)
    assert 0.5 < value < 2.0


def test_indicator_retries_past_material_failure():
    # same geometry as above, but the first attempt dies on a permittivity
    # failure at the quadrature node rather than a singular factorization
    region = SearchRegion(center=0.5 + 0j, side=0.1)
    pole = contour_nodes(region, 0.05)[0]
    moments = ContourMoments()
    fam = FlakyFamily(pole=pole, trigger=pole)
    value = indicator(region, fam, random_probe(1, seed=0, columns=1), SimConfig(), moments=moments)
    assert moments.half_side == 0.05 * 1.05
    assert value == pytest.approx(_square_value(pole, region, 0.05 * 1.05), rel=1e-10)


def test_contour_nodes_trace_the_square():
    # 4 Gauss-Legendre nodes on each edge, counter-clockwise from the bottom
    # edge; a retried (larger) square keeps the centre
    region = SearchRegion(center=0.45 + 0.025j, side=0.05)
    c = region.center
    for half_side in (0.025, 0.025 * 1.05):
        nodes = np.array(contour_nodes(region, half_side))
        edges = [
            c + half_side * (GL_NODES - 1j),
            c + half_side * (1.0 + 1j * GL_NODES),
            c + half_side * (-GL_NODES + 1j),
            c + half_side * (-1.0 - 1j * GL_NODES),
        ]
        assert np.abs(nodes - np.concatenate(edges)).max() <= 1e-16
    # neighbours share the nodes of their common edge, and a square centred
    # on the real axis has a node set closed under conjugation: both are
    # memo hits, whose keys are rounded to _KEY_QUANTUM
    memo = SolveMemo(DiagonalFamily([0.0]), random_probe(1, 0, columns=1), 0)

    def keys(points):
        return {memo._key(z) for z in points}

    left, right = SearchRegion(0.45 + 0j, 0.1), SearchRegion(0.55 + 0j, 0.1)
    assert len(keys(contour_nodes(left, 0.05)) & keys(contour_nodes(right, 0.05))) == 4
    nodes = contour_nodes(left, 0.05)
    assert keys(nodes) == keys(z.conjugate() for z in nodes)


def _moments(region, fam, probe, cfg, memo=None):
    out = ContourMoments()
    indicator(region, fam, probe, cfg, memo=memo, moments=out)
    return out


# squares of side 0.1 on the real axis by centre, and the least rank of
# their moments: the TE squares hold 1 and 2 eigenvalues, the TM ones 5 and 7
LEFT_PROJECTION_SQUARES = {"TE-lossless": ((0.6, 0.9), 3), "TM-lossy-drude": ((0.6, 0.7), 5)}


@pytest.mark.parametrize("name", sorted(LEFT_PROJECTION_SQUARES))
def test_moments_are_left_projections(name, family_factory):
    # the search's moments are W^H times the unprojected moments
    # A_q = (1 / 2 pi i) sum_j dz_j ((z_j - c) / rho)^q T(z_j)^-1 V over the
    # square's 16 Gauss-Legendre nodes, formed here edge by edge from the
    # full n x p solves: W is V itself for the lossless family and the
    # block of seed + 7919 for the lossy one.  The rank scale is the
    # largest projected summand and the indicator is ||W^H A_0 g||
    pol, models = MEMO_FAMILIES[name]
    _, _, fam = family_factory(4, 0.3, X, pol, models)
    centers, least_rank = LEFT_PROJECTION_SQUARES[name]
    cfg = SimConfig(seed=3)
    probe = random_probe(fam.n_dofs, cfg.seed, columns=12)
    assert fam.conjugate_symmetric is (name == "TE-lossless")
    left_seed = cfg.seed + phcbands.sim._LEFT_SEED_OFFSET
    w = probe if fam.conjugate_symmetric else random_probe(fam.n_dofs, left_seed, columns=12)
    rho = 0.05
    for region in (SearchRegion(center=complex(c), side=0.1) for c in centers):
        moments = ContourMoments()
        value = indicator(region, fam, probe, cfg, moments=moments)
        solves = []  # (scaled node (z - c) / rho, dz, T(z)^-1 V)
        for mid in (-1j, 1.0, 1j, -1.0):
            for t, weight in zip(GL_NODES, GL_WEIGHTS):
                zeta = mid * (1.0 + 1j * t)
                u = solve(factorize(fam.layout, fam.t_data(region.center + rho * zeta)), probe)
                solves.append((zeta, 1j * mid * rho * weight, u))
        full = [sum(dz * zeta**q * u for zeta, dz, u in solves) / (2j * np.pi) for q in range(4)]
        assert moments.blocks.shape == (4, 12, 12) and moments.half_side == rho
        for q in range(4):
            expected = w.conj().T @ full[q]
            assert np.linalg.norm(moments.blocks[q] - expected) <= 1e-12 * np.linalg.norm(expected)
        scale = rho * max(np.linalg.norm(w.conj().T @ u, 2) for _, _, u in solves)
        assert moments.scale == pytest.approx(scale, rel=1e-12)
        assert value == pytest.approx(np.linalg.norm((w.conj().T @ full[0])[:, 0]), rel=1e-12)
        assert hankel_rank_and_values(moments, region.center)[0] >= least_rank


@pytest.mark.parametrize("name", sorted(MEMO_FAMILIES))
def test_memo_matches_fresh_solves(name, family_factory, monkeypatch):
    # the row of tiles and then all their ninths, as two levels of sim_h:
    # every moment block taken with the memo equals the one from a fresh
    # solve at every node, relative to the rank scale, and a memo hit is the
    # same point formed by another route.  Every entry the squares ask for,
    # mirror entries included, is W^H T(z)^-1 V from a fresh factorization
    # at its node, with W = V for the lossless family
    pol, models = MEMO_FAMILIES[name]
    _, _, fam = family_factory(4, 0.3, X, pol, models)
    cfg = SimConfig()
    probe = random_probe(fam.n_dofs, 0, columns=12)
    memo = SolveMemo(fam, probe, cfg.seed)
    w_h = memo.left_h
    counter = SimCounter(monkeypatch)
    level, calls, made, worst, worst_entry = MEMO_TILES, 0, 0, 0.0, 0.0
    for _ in range(2):
        before = counter.factorizations
        shared = [_moments(region, fam, probe, cfg, memo) for region in level]
        made += counter.factorizations - before
        calls += len(level)
        fresh = [_moments(region, fam, probe, cfg) for region in level]
        for region, a, b in zip(level, shared, fresh):
            assert (a.half_side, a.blocks.shape) == (b.half_side, (4, 12, 12))
            worst = max(worst, np.abs(a.blocks - b.blocks).max() / b.scale, abs(a.scale - b.scale) / b.scale)
            for point in contour_nodes(region, region.side / 2.0):
                expected = w_h @ solve(factorize(fam.layout, fam.t_data(point)), probe)
                entry = memo._solved[memo._key(point)]
                worst_entry = max(worst_entry, np.abs(entry - expected).max() * b.half_side / b.scale)
        level = [child for region in level for child in subdivide(region)]
    assert worst <= 1e-12 and worst_entry <= 1e-12
    # the memo was used: fewer than m0 factorizations per shared call
    assert made < 0.9 * 16 * calls


@pytest.mark.parametrize("name", sorted(MEMO_FAMILIES))
def test_memo_shares_exactly_across_splits(name, family_factory, monkeypatch):
    # a 1-column block makes every square that sees an eigenvalue split: the
    # run factorizes each distinct node of its squares once, a point and its
    # conjugate once together for the lossless family, whose mirror entries
    # serve later levels too, and makes one block solve per factorization.
    # For lossy families, which have no mirror points, that is the nodes of
    # each level together: a child shares the nodes of its edges with its
    # siblings and its equal neighbours, and none with its parent
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
        points = (point for region in level for point in contour_nodes(region, region.side / 2.0))
        return {(round(z.real / quantum), round(z.imag / quantum)) for z in points}

    by_level, every = 0, set()
    for side in sorted(levels, reverse=True):
        current = keys(levels[side])
        by_level += len(current)
        every |= current
    if fam.conjugate_symmetric:
        # conj z has the key (re, -im) of z's
        every = {(re, abs(im)) for re, im in every}
    else:
        assert by_level == len(every)
    assert len(levels) >= 3
    assert counter.factorizations == counter.block_solves == len(every)


def test_memo_mirror_halves_lossless_search(family_factory, monkeypatch):
    # an unsplit row of t tiles centred on the real axis: the top edge of
    # each square (4 nodes) and the upper half of each of the t + 1 upright
    # edges (2 nodes, shared along the row) are factorized and solved once,
    # and the lower half is the conjugate transpose of the upper, so 6t + 2
    # factorizations and block solves against 16t fresh
    pol, models = MEMO_FAMILIES["TE-lossless"]
    _, _, fam = family_factory(4, 0.3, X, pol, models)
    assert fam.conjugate_symmetric
    reference = SimCounter(monkeypatch, use_memo=False)
    fresh = sim_h(MEMO_TILES, fam, SimConfig())
    counter = SimCounter(monkeypatch)
    shared = sim_h(MEMO_TILES, fam, SimConfig())
    t = len(MEMO_TILES)
    assert counter.indicator_calls == reference.indicator_calls == t
    assert reference.factorizations == reference.block_solves == 16 * t
    assert counter.factorizations == counter.block_solves == 6 * t + 2
    assert len(shared.candidates) == len(fresh.candidates) > 0
    for a, b in zip(shared.candidates, fresh.candidates):
        assert a.tile == b.tile and abs(a.nu - b.nu) <= 1e-10


@pytest.mark.parametrize("name", ["TE-drude", "TM-lossy-drude"])
def test_memo_lossy_family_shares_edges_only(name, family_factory, monkeypatch):
    # the top and bottom edges of each square (8 nodes) are its own, the 4
    # nodes of each upright edge are shared along the row: 12t + 4
    # factorizations against 16t fresh
    pol, models = MEMO_FAMILIES[name]
    _, _, fam = family_factory(4, 0.3, X, pol, models)
    assert not fam.conjugate_symmetric
    SimCounter(monkeypatch, use_memo=False)
    fresh = sim_h(MEMO_TILES, fam, SimConfig())
    counter = SimCounter(monkeypatch)
    shared = sim_h(MEMO_TILES, fam, SimConfig())
    t = len(MEMO_TILES)
    assert counter.indicator_calls == t
    assert counter.factorizations == counter.block_solves == 12 * t + 4
    # a shared node is the same point formed from the other tile's centre
    assert len(shared.candidates) == len(fresh.candidates) > 0
    for a, b in zip(shared.candidates, fresh.candidates):
        assert a.tile == b.tile and abs(a.nu - b.nu) <= 1e-10


def test_sim_h_retries_a_shared_edge_node_through_the_memo(monkeypatch):
    # the two tiles share the edge Re nu = 0.2, and the family fails at its
    # first node: each tile retries on a 5 % larger square, whose nodes go
    # through the run's memo too, and the search gives the start values of
    # fresh solves.  The ninths of the tile that holds the pole (one unknown
    # caps the block at one column, so it splits) have no node there
    tiles = tile_window(Window(0.1, 0.3, -0.05, 0.05))
    shared = contour_nodes(tiles[1], 0.05)[12]  # the first node of the left edge
    fam = FlakyFamily(pole=0.23 + 0.01j, trigger=shared)
    assert min(abs(z - shared) for z in contour_nodes(tiles[0], 0.05)) <= 1e-15
    runs = []
    for use_memo in (False, True):
        counter = SimCounter(monkeypatch, use_memo=use_memo)
        counted, half_sides = phcbands.sim.indicator, {}

        def recorded(region, *args, moments=None, **kwargs):
            value = counted(region, *args, moments=moments, **kwargs)
            half_sides[region] = moments.half_side
            return value

        monkeypatch.setattr(phcbands.sim, "indicator", recorded)
        runs.append((sim_h(tiles, fam, SimConfig()), half_sides, counter.factorizations))
    (fresh, fresh_sides, fresh_count), (shared_run, shared_sides, shared_count) = runs
    assert len(tiles) == 2
    assert shared_sides == fresh_sides
    assert {region: half for region, half in shared_sides.items() if half != region.side / 2.0} == {
        tile: 0.05 * 1.05 for tile in tiles
    }
    assert shared_run.failures == fresh.failures == []
    assert len(shared_run.candidates) == len(fresh.candidates) > 0
    for a, b in zip(shared_run.candidates, fresh.candidates):
        assert a.tile == b.tile and abs(a.nu - b.nu) <= 1e-10
    assert any(abs(a.nu - fam.pole) <= 1e-10 for a in shared_run.candidates)
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
                counter.block_solves,
                counter.indicator_calls,
            )
        )
    assert runs[0] == runs[1]


def test_memo_keeps_only_projected_solutions(family_factory, monkeypatch):
    # every memo entry, direct or mirror, is the p x p block W^H u, never an
    # n-long vector; the memo keeps every entry it makes, so looking after
    # the run sees each of them.  The memo holds more points than it made
    # block solves: the mirror entries cost none
    pol, models = MEMO_FAMILIES["TE-lossless"]
    _, _, fam = family_factory(8, 0.3, X, pol, models)
    memos = []

    class CheckedMemo(SolveMemo):
        def __init__(self, *args):
            super().__init__(*args)
            memos.append(self)

    monkeypatch.setattr(phcbands.sim, "SolveMemo", CheckedMemo)
    counter = SimCounter(monkeypatch)
    assert sim_h(MEMO_TILES, fam, SimConfig()).candidates
    (memo,) = memos
    assert fam.n_dofs > 12
    assert len(memo._solved) > counter.block_solves == counter.factorizations
    assert {node.shape for node in memo._solved.values()} == {(12, 12)}


def test_singular_retries_leave_no_reference_cycle():
    # a kept exception's traceback would tie the failed frame, and with it
    # factorize's rejected LU, into a cycle that only a full collection frees
    region = SearchRegion(center=0.5 + 0j, side=0.1)
    on_node = DiagonalFamily([contour_nodes(region, 0.05)[0]])
    gc.collect()
    gc.disable()
    try:
        assert refine_eigenpair(0.5, DiagonalFamily([0.5])).converged  # first solve is singular
        # the first contour is singular
        assert indicator(region, on_node, random_probe(1, seed=0, columns=1), SimConfig()) > 0.5
        with pytest.raises(IndicatorError):
            indicator(region, SingularFamily(), random_probe(2, seed=0, columns=1), SimConfig())
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_subdivide_ninths():
    # row by row from the lower left; the middle ninth keeps the centre, and
    # the rows of a square centred on the real axis mirror each other
    parts = subdivide(SearchRegion(center=0.5 + 0.5j, side=0.3))
    assert [p.side for p in parts] == [0.3 / 3.0] * 9
    expected = [0.5 + 0.5j + complex(0.1 * col, 0.1 * row) for row in (-1, 0, 1) for col in (-1, 0, 1)]
    for part, centre in zip(parts, expected):
        assert abs(part.center - centre) <= 1e-15
    assert parts[4].center == 0.5 + 0.5j
    rows = subdivide(SearchRegion(center=0.55 + 0j, side=0.1))
    assert [p.center.conjugate() for p in rows[:3]] == [p.center for p in rows[6:]]
    assert all(p.center.imag == 0.0 for p in rows[3:6])


def test_sim_h_visits_squares_breadth_first(monkeypatch):
    # the order of the squares decides which square first solves a shared
    # contour point, and so the rounding of memo hits: every square of one
    # side is visited before any smaller one, and each level lists the
    # ninths of the previous level's split squares, in subdivide's order,
    # parent by parent in the order the parents were visited.  One degree of
    # freedom caps the block at one column, so every square that sees the
    # pole, or its leak above the rank threshold, splits while its ninths are
    # at least 0.01 wide: three levels of 3, 27 and 108 squares, the last of
    # side 0.1 / 9
    tiles = tile_window(Window(0.2, 0.5, -0.05, 0.05))
    real_indicator, visited = phcbands.sim.indicator, []

    def recorded(region, *args, **kwargs):
        visited.append(region)
        return real_indicator(region, *args, **kwargs)

    monkeypatch.setattr(phcbands.sim, "indicator", recorded)
    assert not sim_h(tiles, DiagonalFamily([0.33 + 0.01j]), SimConfig()).failures
    sides = [region.side for region in visited]
    assert sides == sorted(sides, reverse=True)
    levels = [[region for region in visited if region.side == side] for side in sorted(set(sides), reverse=True)]
    assert [len(level) for level in levels] == [3, 27, 108]
    assert levels[0] == tiles
    for parents, children in zip(levels, levels[1:]):
        split = [region for region in parents if subdivide(region)[0] in children]
        assert children == [child for region in split for child in subdivide(region)]


def test_sim_h_locates_scalar_poles():
    # each square's moments give its own pole as the one start value inside
    # it; the other pole leaks in from outside and is left out.  The leak,
    # ~5e-8 of the rank scale in the left square's A_0, lies under the rank
    # threshold, and the left block W mixes it into the kept pencil at first
    # order: the start values sit 1e-19 and 3.5e-10 from their poles.  Start
    # values are refined before use; refinement lands on each pole to 1e-12.
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


@pytest.mark.parametrize("pole", [0.4, 0.4 + 0.02j, 0.45 + 0.05j, 0.4 + 0.05j], ids=["real", "upright", "top", "corner"])
def test_sim_h_every_square_sharing_an_edge_proposes_its_pole(pole):
    # a pole on an edge (or corner) that squares share lies on the boundary
    # of each of them, where the pencil places it up to rounding on either
    # side of +-1 in the scaled variable.  Every square whose closed boundary
    # holds it must propose it, so that rounding cannot lose it; each start
    # value refines into its own square, and dedup keeps one eigenvalue
    fam = DiagonalFamily([pole, 2.0, 3.0])
    tiles = [SearchRegion(center=complex(x, y), side=0.1) for y in (0.0, 0.1) for x in (0.35, 0.45)]
    result = sim_h(tiles, fam, SimConfig())
    assert not result.failures
    holding = [tile for tile in tiles if tile.contains(pole)]
    assert [start.tile for start in result.candidates] == holding
    refined = [refine_eigenpair(start.nu, fam) for start in result.candidates]
    assert all(start.tile.contains(cand.nu) for start, cand in zip(result.candidates, refined))
    assert [cand.nu for cand in dedup(refined)] == [pytest.approx(pole, abs=1e-12)]


@pytest.mark.parametrize(
    "poles",
    [[0.33], [0.3313 + 0.0002j, 0.331, 0.9]],
    ids=["1-dof-one-pole", "3-dof-close-pair"],
)
def test_sim_h_small_families_cap_the_probe_block(poles):
    # p = n_dofs: one column (capacity 2, so the square is split to the
    # minimum side) and three columns; every pole in the square, including
    # a pair 3.6e-4 apart, has a start value inside a square that holds it
    # and refines to it.  The pole 0.33 lies on Im nu = 0, which the ninths
    # of a tile centred on it straddle at every level
    fam = DiagonalFamily(poles)
    region = SearchRegion(center=0.35 + 0j, side=0.1)
    result = sim_h([region], fam, SimConfig())
    assert not result.failures
    for pole in poles:
        if not region.contains(pole):
            continue
        near = [s for s in result.candidates if abs(s.nu - pole) <= 1e-10]
        assert near and all(s.tile.contains(pole) for s in near)
        assert all(abs(refine_eigenpair(s.nu, fam).nu - pole) <= 1e-12 for s in near)
    assert all(abs(s.nu - 0.9) > 0.1 for s in result.candidates)
    least = min(s.tile.side for s in result.candidates)
    assert least == (pytest.approx(0.1 / 9.0, rel=1e-12) if len(poles) == 1 else 0.1)


def test_hankel_order_finds_a_double_root_without_residue():
    # T(nu) = nu^2 has a double root at 0 whose 1/nu residue vanishes.  The
    # square's rule weighs a pole lambda by a filter f(lambda) that is 1 only
    # up to quadrature error, so A0 = f'(0) is not 0, but Beyn's A0/A1
    # pencil, one value A1 / A0, cannot hold a Jordan block: its value lies
    # far outside the square.  The order-2 Hankel pencil sees rank 2 and a
    # double eigenvalue at the root.
    class Square(PatternFamily):
        def t_data(self, nu):
            return np.array([complex(nu) ** 2])

    region = SearchRegion(center=0.02 + 0.01j, side=0.1)
    moments = ContourMoments()
    value = indicator(region, Square(sp.identity(1)), random_probe(1, 0, columns=1), SimConfig(), moments=moments)
    a = moments.blocks[:, 0, 0]
    assert value == pytest.approx(abs(a[0]), rel=1e-12)
    assert not region.contains(region.center + moments.half_side * a[1] / a[0])
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
    # n=16) no sweep stalls, so no re-shift is taken: 6 start values, one
    # per eigenvalue, and 6 factorizations (the circle contours gave a 7th
    # start value; inverse iteration factorized every sweep: 27)
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
    assert len(starts) == 6
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
    # the operator family protocol is n_dofs, layout, t_data and
    # conjugate_symmetric: an object with these four alone is searched and
    # refined, T(nu) read only as its entries on the layout's pattern
    poles = np.array([0.33, 0.72 + 0.01j])
    fam = types.SimpleNamespace(
        n_dofs=2,
        layout=band_layout(sp.identity(2, format="csc"), [0]),
        t_data=lambda nu: complex(nu) - poles,
        conjugate_symmetric=False,
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


def test_refine_raises_when_every_nudge_stays_singular(monkeypatch):
    # T is singular at every frequency: the start value and its 11 ever
    # larger nudges all fail to factorize, and the last failure is raised
    counter = SimCounter(monkeypatch)
    with pytest.raises(SingularMatrixError, match="singular"):
        refine_eigenpair(0.5, SingularFamily())
    assert counter.factorizations == 12
