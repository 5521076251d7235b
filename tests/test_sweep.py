"""k-path construction, window tiling, per-k solves, sweeps, and the two
dense reference oracles."""

import math

import numpy as np
import pytest
import scipy.linalg

import phcbands.sim
import phcbands.sweep
from phcbands.assembly import assemble_family
from phcbands.cli import diagram_from_config
from phcbands.config import config_from_dict, resolved_dict
from phcbands.materials import Constant, Drude, LossyDrude, PermittivityPoleError, normalize_physical_drude
from phcbands.mesh import build_periodic_dof_map, build_unit_cell_mesh, filling_fraction_to_radius
from phcbands.sim import SearchRegion, SimConfig, StartValue
from phcbands.sparse import SingularMatrixError
from phcbands.sweep import (
    Window,
    dense_linear_oracle,
    drude_polynomial_oracle,
    make_kpath,
    solve_at_k,
    sweep,
    tile_window,
)

from conftest import GAMMA, M, X, plane_wave_values, stdout_under_blas_threads, t_matrix

SQRT2 = math.sqrt(2.0)


def test_window_validation_and_membership():
    win = Window(0.3, 0.7, -0.05, 0.05)
    assert win.contains(0.5 + 0.0j)
    assert win.contains(0.3 - 0.05j)  # edges are inside
    assert win.contains(0.7 + 0.05j)
    assert not win.contains(0.71 + 0.0j)
    assert not win.contains(0.5 + 0.06j)
    with pytest.raises(ValueError):
        Window(0.7, 0.3, -0.05, 0.05)
    with pytest.raises(ValueError):
        Window(0.3, 0.7, 0.05, 0.05)
    for bounds in ((0.3, math.inf, -0.05, 0.05), (0.3, 0.7, -math.inf, 0.05), (math.nan, 0.7, -0.05, 0.05)):
        with pytest.raises(ValueError, match="finite"):
            Window(*bounds)


def test_kpath_structure():
    path = make_kpath(1)
    ks = [k for k, _ in path.points]
    arcs = [arc for _, arc in path.points]
    assert ks == [GAMMA, X, M, GAMMA]
    assert arcs == pytest.approx([0.0, math.pi, 2.0 * math.pi, (2.0 + SQRT2) * math.pi], rel=1e-15)

    fine = make_kpath(2)
    assert len(fine.points) == 7
    assert fine.points[1][0] == pytest.approx((math.pi / 2.0, 0.0))
    assert fine.points[5][0] == pytest.approx((math.pi / 2.0, math.pi / 2.0))
    assert fine.points[-1] == (GAMMA, pytest.approx((2.0 + SQRT2) * math.pi, rel=1e-15))

    with pytest.raises(ValueError):
        make_kpath(0)


def test_tile_window_counts_and_centres():
    tiles = tile_window(Window(0.0, 0.4, 0.0, 0.2))
    assert len(tiles) == 8
    assert all(t.side == 0.1 for t in tiles)
    assert tiles[0].center == pytest.approx(0.05 + 0.05j)
    assert tiles[-1].center == pytest.approx(0.35 + 0.15j)

    # an exact fit must not grow a spurious extra column
    assert len(tile_window(Window(0.0, 0.4, 0.0, 0.1))) == 4
    # a partial column overhangs rather than shrinking the tile
    over = tile_window(Window(0.0, 0.35, 0.0, 0.1))
    assert len(over) == 4
    assert over[-1].center == pytest.approx(0.35 + 0.05j)


def test_tile_window_covers_window():
    win = Window(0.02, 1.3, -0.05, 0.05)
    tiles = tile_window(win)
    rng = np.random.default_rng(11)
    for _ in range(200):
        z = complex(rng.uniform(win.re_min, win.re_max), rng.uniform(win.im_min, win.im_max))
        assert any(
            abs(z.real - t.center.real) <= t.side / 2.0 + 1e-12
            and abs(z.imag - t.center.imag) <= t.side / 2.0 + 1e-12
            for t in tiles
        )


def test_solve_at_k_empty_lattice(family_factory):
    mesh, pmap, _ = family_factory(8, 0.0, X)
    res = solve_at_k(mesh, pmap, X, "TE", {0: Constant(1.0)}, Window(0.3, 0.7, -0.05, 0.05), SimConfig())
    assert res.warnings == []
    assert len(res.eigenpairs) == 2
    assert res.eigenpairs[0].nu.real == pytest.approx(0.5, abs=1e-9)
    assert res.eigenpairs[1].nu.real == pytest.approx(0.551961550756, abs=1e-9)
    assert all(abs(c.nu.imag) <= 1e-9 for c in res.eigenpairs)
    assert all(c.residual <= 1e-9 for c in res.eigenpairs)


def test_solve_at_k_gap_window_is_empty(family_factory):
    mesh, pmap, _ = family_factory(8, 0.0, X)
    res = solve_at_k(mesh, pmap, X, "TE", {0: Constant(1.0)}, Window(0.6, 0.7, -0.02, 0.02), SimConfig())
    assert res.eigenpairs == []


def test_solve_at_k_window_monotone(family_factory):
    # enlarging the window can only add eigenvalues, never move them
    mesh, pmap, _ = family_factory(8, 0.0, X)
    small = solve_at_k(mesh, pmap, X, "TE", {0: Constant(1.0)}, Window(0.3, 0.7, -0.05, 0.05), SimConfig())
    large = solve_at_k(mesh, pmap, X, "TE", {0: Constant(1.0)}, Window(0.3, 0.9, -0.05, 0.05), SimConfig())
    assert len(large.eigenpairs) >= len(small.eigenpairs)
    for cand in small.eigenpairs:
        assert min(abs(cand.nu - other.nu) for other in large.eigenpairs) <= 1e-9


def test_sweep_structure():
    diagram = sweep(4, 0.0, "TE", {0: Constant(1.0)}, Window(0.4, 0.6, -0.05, 0.05), SimConfig(), nk=1)
    assert [p.index for p in diagram.points] == [0, 1, 2, 3]
    assert [p.k for p in diagram.points] == [GAMMA, X, M, GAMMA]
    arcs = [p.arclength for p in diagram.points]
    assert arcs == pytest.approx([0.0, math.pi, 2.0 * math.pi, (2.0 + SQRT2) * math.pi], rel=1e-12)
    # only X carries a band inside [0.4, 0.6]: the lowest modes at Gamma and
    # M sit at 0 and above 0.7, and conforming elements cannot dip below the
    # exact plane-wave values
    counts = [len(p.eigenpairs) for p in diagram.points]
    assert counts == [0, 1, 0, 0]
    assert diagram.points[1].eigenpairs[0].nu.real == pytest.approx(0.5, abs=1e-9)
    assert diagram.n_eigenvalues() == 1


def test_sweep_survives_kpoint_failure(monkeypatch):
    # a solver failure at a k-point is solve_at_k's warning on that point
    # and the sweep goes on; only X has a start value in this window
    def explode(nu0, fam):
        raise SingularMatrixError("boom")

    monkeypatch.setattr(phcbands.sweep, "refine_eigenpair", explode)
    diagram = sweep(2, 0.0, "TE", {0: Constant(1.0)}, Window(0.4, 0.6, -0.05, 0.05), SimConfig(), nk=1)
    assert len(diagram.points) == 4
    assert [point.eigenpairs for point in diagram.points] == [[], [], [], []]
    assert [bool(point.warnings) for point in diagram.points] == [False, True, False, False]
    for warning in diagram.points[1].warnings:
        assert warning.startswith("refinement from nu = ") and warning.endswith("failed: boom")

    # an exception from solve_at_k itself propagates
    def crash(*args, **kwargs):
        raise SingularMatrixError("bug")

    monkeypatch.setattr(phcbands.sweep, "solve_at_k", crash)
    with pytest.raises(SingularMatrixError, match="bug"):
        sweep(2, 0.0, "TE", {0: Constant(1.0)}, Window(0.4, 0.6, -0.05, 0.05), SimConfig(), nk=1)


def test_sweep_solves_each_distinct_kpoint_once(monkeypatch):
    calls = []
    real_solve_at_k = phcbands.sweep.solve_at_k

    def counted(mesh, pmap, k, *args):
        calls.append(k)
        return real_solve_at_k(mesh, pmap, k, *args)

    monkeypatch.setattr(phcbands.sweep, "solve_at_k", counted)
    win = Window(0.4, 0.6, -0.05, 0.05)
    diagram = sweep(4, 0.0, "TE", {0: Constant(1.0)}, win, SimConfig(), nk=2)
    # Gamma -> X -> M -> Gamma ends where it starts: 7 points, 6 solves
    assert len(diagram.points) == 7
    assert calls == [k for k, _ in make_kpath(2).points[:-1]]
    first, last = diagram.points[0], diagram.points[-1]
    assert last.k == first.k == GAMMA
    assert (last.index, last.arclength) == (6, pytest.approx((2.0 + SQRT2) * math.pi, rel=1e-12))
    assert [c.nu for c in last.eigenpairs] == [c.nu for c in first.eigenpairs]
    assert last.eigenpairs is not first.eigenpairs


def test_solve_at_k_drops_a_candidate_whose_refinement_fails(family_factory, monkeypatch):
    # the empty lattice at X has two bands in the window; a refinement that
    # fails for the lower start values costs that eigenvalue only.  0.5 lies
    # on the edge the squares [0.4, 0.5] and [0.5, 0.6] share, so each of the
    # two gives a start value there and each failure warns.
    mesh, pmap, _ = family_factory(8, 0.0, X)
    win = Window(0.3, 0.7, -0.05, 0.05)
    real_refine = phcbands.sweep.refine_eigenpair
    for error in (SingularMatrixError, PermittivityPoleError):

        def refine(nu0, fam):
            if abs(nu0 - 0.5) < 1e-3:
                raise error("bad start")
            return real_refine(nu0, fam)

        monkeypatch.setattr(phcbands.sweep, "refine_eigenpair", refine)
        res = solve_at_k(mesh, pmap, X, "TE", {0: Constant(1.0)}, win, SimConfig())
        assert [c.nu.real for c in res.eigenpairs] == [pytest.approx(0.551961550756, abs=1e-9)]
        assert len(res.warnings) == 2
        for warning in res.warnings:
            assert warning.startswith("refinement from nu = (0.") and warning.endswith("failed: bad start")

    def crash(nu0, fam):
        raise RuntimeError("bug")

    monkeypatch.setattr(phcbands.sweep, "refine_eigenpair", crash)
    with pytest.raises(RuntimeError, match="bug"):
        solve_at_k(mesh, pmap, X, "TE", {0: Constant(1.0)}, win, SimConfig())


def test_solve_at_k_finds_zero_at_gamma(family_factory):
    # nu = 0 is a double root of T(nu) = K - 4 pi^2 nu^2 M with no 1/nu
    # residue; it lies on the edge between the squares [-0.1, 0] and
    # [0, 0.1], and only the order-2 Hankel moments see it
    mesh, pmap, fam = family_factory(8, 0.0, GAMMA)
    win = Window(-0.1, 0.3, -0.05, 0.05)
    res = solve_at_k(mesh, pmap, GAMMA, "TE", {0: Constant(1.0)}, win, SimConfig())
    assert res.warnings == []
    assert [abs(c.nu) <= 1e-6 for c in res.eigenpairs] == [True]
    assert dense_linear_oracle(fam, Window(-0.01, 0.3, -0.05, 0.05)) == [pytest.approx(0.0, abs=1e-6)]


def test_solve_at_k_paper_scale_interface_cluster(monkeypatch):
    # the n=24 TM lossy disc at X over the default window, most of whose
    # eigenvalues crowd the eps = -1 interface cluster (Re nu 0.65-0.75),
    # many closer than dedup's 2e-4: counted with a 1e-9 merge, refinement
    # keeps at least the 49 distinct eigenvalues that inverse iteration with
    # one LU per sweep found, and no refinement stalls
    monkeypatch.setattr(phcbands.sim, "_DEDUP_TOL", 1e-9)
    mesh = build_unit_cell_mesh(24, filling_fraction_to_radius(0.2827))
    models = {0: Constant(1.0), 1: LossyDrude(1.0, 0.01)}
    window = Window(0.05, 1.2, -0.05, 0.05)
    res = solve_at_k(mesh, build_periodic_dof_map(mesh), X, "TM", models, window, SimConfig())
    assert res.warnings == []
    assert len(res.eigenpairs) >= 49
    cluster = [pair.nu for pair in res.eigenpairs if 0.65 <= pair.nu.real <= 0.75]
    assert len(cluster) > len(res.eigenpairs) // 2


def test_solve_at_k_drops_a_start_value_that_leaves_its_square(family_factory, monkeypatch):
    # a noise start value at 0.52 in the square [0.52, 0.53] refines to a band
    # outside it (0.5 or 0.552); it is dropped without a warning, and the
    # squares that hold those bands still give them
    mesh, pmap, _ = family_factory(8, 0.0, X)
    win = Window(0.3, 0.7, -0.05, 0.05)
    real_sim_h, real_refine = phcbands.sweep.sim_h, phcbands.sweep.refine_eigenpair
    noise = StartValue(0.52 + 0j, SearchRegion(center=0.525 + 0j, side=0.01))
    refined = []

    def noisy_sim_h(regions, fam, cfg):
        result = real_sim_h(regions, fam, cfg)
        result.candidates.append(noise)
        return result

    def refine(nu0, fam):
        rr = real_refine(nu0, fam)
        refined.append((nu0, rr.nu))
        return rr

    monkeypatch.setattr(phcbands.sweep, "sim_h", noisy_sim_h)
    monkeypatch.setattr(phcbands.sweep, "refine_eigenpair", refine)
    res = solve_at_k(mesh, pmap, X, "TE", {0: Constant(1.0)}, win, SimConfig())
    assert refined[-1][0] == noise.nu and not noise.tile.contains(refined[-1][1])
    assert res.warnings == []
    assert [c.nu.real for c in res.eigenpairs] == [
        pytest.approx(0.5, abs=1e-9),
        pytest.approx(0.551961550756, abs=1e-9),
    ]


# solve_at_k on the n=16 dielectric (eps 8.9) at M, 274 unknowns: the
# eigenvalue count and the SHA-256 of the eigenvalues and residuals
_HASH_DIELECTRIC_M = """
import hashlib, math
from phcbands import Constant, SimConfig, Window, build_periodic_dof_map, build_unit_cell_mesh, solve_at_k
from phcbands.mesh import filling_fraction_to_radius
mesh = build_unit_cell_mesh(16, filling_fraction_to_radius(0.2827))
pmap = build_periodic_dof_map(mesh)
models = {0: Constant(1.0), 1: Constant(8.9)}
result = solve_at_k(mesh, pmap, (math.pi, math.pi), "TE", models, Window(0.05, 0.8, -0.05, 0.05), SimConfig())
digest = hashlib.sha256()
for pair in result.eigenpairs:
    digest.update(repr((pair.nu, pair.residual)).encode())
print(len(result.eigenpairs), digest.hexdigest())
"""


def test_solve_at_k_independent_of_blas_threads():
    # above 96 unknowns too, every BLAS call of the search and the
    # refinement is either thread-independent (the banded LU) or too small
    # to thread (the p x p moments and their 2p x 2p Hankel SVD)
    outputs = stdout_under_blas_threads(_HASH_DIELECTRIC_M)
    assert outputs[0].startswith("6 ")
    assert outputs[0] == outputs[1]


def test_diagram_from_config_attaches_provenance():
    # the sweep carries its window; the resolved configuration is attached
    # once, by the caller that holds it
    raw = {
        "polarization": "TE",
        "geometry": {"n": 1, "r": 0.0},
        "material": {"variant": "constant", "eps_re": 1.0},
        "window": {"re_min": 0.4, "re_max": 0.6},
        "path": {"nk": 1},
    }
    cfg = config_from_dict(raw)
    diagram = diagram_from_config(cfg)
    assert diagram.window == cfg.window == Window(0.4, 0.6, -0.05, 0.05)
    assert diagram.provenance == resolved_dict(cfg)
    assert sweep(1, 0.0, "TE", cfg.models, cfg.window, cfg.sim, nk=1).provenance == {}


def test_dense_oracle_empty_lattice(family_factory):
    _, _, fam = family_factory(8, 0.0, X)
    vals = dense_linear_oracle(fam, Window(0.3, 0.7, -0.05, 0.05))
    assert len(vals) == 2
    assert vals[0].real == pytest.approx(0.5, abs=1e-9)
    assert vals[1].real == pytest.approx(0.551961550756, abs=1e-9)

    _, _, famg = family_factory(8, 0.0, GAMMA)
    at_gamma = dense_linear_oracle(famg, Window(-0.01, 1.1, -0.05, 0.05))
    assert len(at_gamma) == 5
    assert abs(at_gamma[0]) <= 1e-6
    quad = at_gamma[1:]
    assert all(v.real == pytest.approx(1.025859084884, abs=1e-9) for v in quad)


def test_dense_oracle_values_bound_plane_waves(family_factory):
    # P1 conforming discretization overshoots every analytic band
    _, _, fam = family_factory(16, 0.0, M)
    vals = dense_linear_oracle(fam, Window(0.05, 1.2, -0.05, 0.05))
    exact = plane_wave_values(M, 0.05, 1.2)
    assert min(v.real for v in vals) >= exact[0] - 1e-10


def test_dense_oracle_second_order_convergence():
    # error of the curved band at X against the exact 0.5 shrinks ~4x per
    # mesh halving; measured ratios 4.13, 4.03
    errors = []
    for n in (4, 8, 16):
        mesh = build_unit_cell_mesh(n, 0.0)
        pmap = build_periodic_dof_map(mesh)
        fam = assemble_family(mesh, pmap, X, "TE", {0: Constant(1.0)})
        vals = dense_linear_oracle(fam, Window(0.3, 0.9, -0.05, 0.05))
        errors.append(sorted(v.real for v in vals)[1] - 0.5)
    assert all(e > 0 for e in errors)
    assert errors[0] / errors[1] >= 2.5
    assert errors[1] / errors[2] >= 2.5


def test_dense_oracle_disc_lowest_band_converges():
    # lowest TE band of the eps = 8.9 disc at X on the circle-fitted mesh;
    # successive differences 2.65e-2, 8.81e-3, 2.46e-3 shrink at ratios 3.01
    # and 3.59 (and 4.09 on to n=64), approaching second order
    lows = []
    for n in (4, 8, 16, 32):
        mesh = build_unit_cell_mesh(n, 0.3)
        pmap = build_periodic_dof_map(mesh)
        fam = assemble_family(mesh, pmap, X, "TE", {0: Constant(1.0), 1: Constant(8.9)})
        vals = dense_linear_oracle(fam, Window(0.05, 0.5, -0.05, 0.05))
        lows.append(min(v.real for v in vals))
    diffs = [lows[i] - lows[i + 1] for i in range(3)]
    assert all(d > 0 for d in diffs)
    assert diffs[0] / diffs[1] >= 2.5
    assert diffs[1] / diffs[2] >= 2.5
    assert lows[3] == pytest.approx(0.221640057155, abs=1e-9)


def test_dense_oracle_tm_matches_search(family_factory):
    # the TM branch (momentum forms divided by eps, against the total mass)
    # on the eps 8.9 rod, against the contour search at Gamma, X and M
    r = filling_fraction_to_radius(0.2827)
    models = {0: Constant(1.0), 1: Constant(8.9)}
    win = Window(0.05, 0.8, -0.05, 0.05)
    counts = []
    for k in (GAMMA, X, M):
        mesh, pmap, fam = family_factory(8, r, k, "TM", models)
        oracle = dense_linear_oracle(fam, win)
        found = [c.nu for c in solve_at_k(mesh, pmap, k, "TM", models, win, SimConfig()).eigenpairs]
        counts.append(len(oracle))
        assert len(found) == len(oracle)
        assert max(abs(a - b) for a, b in zip(found, oracle)) <= 1e-12
    assert counts == [3, 4, 4]


def test_dense_oracle_validation(family_factory):
    _, _, drude_fam = family_factory(4, 0.3, X, "TE", {0: Constant(1.0), 1: Drude(1.0, 0.01)})
    with pytest.raises(ValueError):
        dense_linear_oracle(drude_fam, Window(0.1, 1.2, -0.05, 0.05))
    mesh = build_unit_cell_mesh(51, 0.0)
    pmap = build_periodic_dof_map(mesh)
    big = assemble_family(mesh, pmap, X, "TE", {0: Constant(1.0)})
    with pytest.raises(ValueError):
        dense_linear_oracle(big, Window(0.3, 0.7, -0.05, 0.05))  # 2601 DOFs > cap


def test_poly_oracle_vanishing_plasma_matches_dense(family_factory):
    # nu_p = 0 turns the Drude rod into vacuum, so the quartic roots must
    # collapse onto the linear spectrum
    win = Window(0.1, 1.2, -0.05, 0.05)
    _, _, fam0 = family_factory(4, 0.3, X, "TE", {0: Constant(1.0), 1: Drude(0.0, 0.0)})
    _, _, famc = family_factory(4, 0.3, X, "TE", {0: Constant(1.0), 1: Constant(1.0)})
    poly = drude_polynomial_oracle(fam0, win)
    dense = dense_linear_oracle(famc, win)
    assert len(poly) == len(dense) == 2
    assert max(abs(a - b) for a, b in zip(poly, dense)) <= 1e-12


def test_poly_oracle_lossless_roots_are_real(family_factory):
    # without loss eps = 1 - nu_p^2 / nu^2, so the TE problem is exactly the
    # Hermitian pencil (K + 4 pi^2 nu_p^2 M_rod) x = 4 pi^2 nu^2 M x
    win = Window(0.1, 1.2, -0.05, 0.05)
    _, _, fam = family_factory(4, 0.3, X, "TE", {0: Constant(1.0), 1: Drude(0.7, 0.0)})
    vals = drude_polynomial_oracle(fam, win)
    assert len(vals) == 2
    assert max(abs(v.imag) for v in vals) <= 1e-12
    four_pi_sq = 4.0 * math.pi**2
    lam = scipy.linalg.eigh(
        fam.momentum_form_total.toarray() + four_pi_sq * 0.7**2 * fam.mass[1].toarray(),
        fam.mass_total.toarray(),
        eigvals_only=True,
    )
    linear = [nu for nu in np.sqrt(np.clip(lam, 0.0, None) / four_pi_sq) if win.contains(nu)]
    assert len(linear) == 2
    assert [v.real for v in vals] == pytest.approx(linear, abs=1e-10)
    # and TM times nu^2 - nu_p^2 is a quadratic pencil in lam = nu^2,
    # -4 pi^2 lam^2 M + lam (K_bg + K_rod + 4 pi^2 nu_p^2 M) - nu_p^2 K_bg,
    # whose root lam = nu_p^2 is artificial
    for n, expected in ((4, 10), (8, 21)):
        _, _, fam = family_factory(n, 0.3, X, "TM", {0: Constant(1.0), 1: Drude(0.7, 0.0)})
        mass = fam.mass_total.toarray()
        k_bg = fam.momentum_form[0].toarray()
        q1 = k_bg + fam.momentum_form[1].toarray() + four_pi_sq * 0.7**2 * mass
        eye = np.eye(fam.n_dofs)
        zero = np.zeros_like(eye)
        lam = scipy.linalg.eigvals(
            np.block([[zero, eye], [0.7**2 * k_bg, -q1]]), np.block([[eye, zero], [zero, -four_pi_sq * mass]])
        )
        nus = np.sqrt(lam[np.isfinite(lam)].astype(np.complex128))
        quadratic = sorted((complex(nu) for nu in nus if win.contains(nu) and abs(nu - 0.7) > 1e-6), key=lambda z: z.real)
        vals = drude_polynomial_oracle(fam, win)
        assert len(vals) == len(quadratic) == expected
        assert max(abs(a - b) for a, b in zip(vals, quadratic)) <= 1e-12


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("polarization", ["TE", "TM"])
@pytest.mark.parametrize("rod", [Drude(1.0, 0.01), LossyDrude(1.0, 0.01)])
def test_poly_oracle_roots_are_singular_points(family_factory, n, polarization, rod):
    # every returned root makes the rational operator T(nu) itself singular,
    # for both rod models (LossyDrude enters as nu_tau = -gamma)
    win = Window(0.1, 1.2, -0.05, 0.05)
    _, _, fam = family_factory(n, 0.3, X, polarization, {0: Constant(1.0), 1: rod})
    sigmas = [scipy.linalg.svdvals(t_matrix(fam, nu).toarray()) for nu in drude_polynomial_oracle(fam, win)]
    assert sigmas and max(s[-1] / s[0] for s in sigmas) <= 1e-12


def test_poly_oracle_drops_tm_roots_at_eps_zero():
    # criterion 7's TM rod at Gamma: multiplying T by d eps adds the zero
    # of eps once per null vector of the rod's momentum form (56 of the 72
    # DOFs), inside the window; none of those copies may be returned
    rod = normalize_physical_drude(2.0 * math.pi * 1914e12, 2.0 * math.pi * 8.34e12, 1e-7)
    mesh = build_unit_cell_mesh(8, filling_fraction_to_radius(0.1256))
    fam = assemble_family(mesh, build_periodic_dof_map(mesh), GAMMA, "TM", {0: Constant(1.0), 1: rod})
    (eps_zero,) = [z for z in np.roots([1.0, -1j * rod.nu_tau, -(rod.nu_p**2)]) if z.real > 0]
    assert eps_zero == pytest.approx(0.63844 + 0.00139j, abs=1e-5)
    assert fam.n_dofs - np.linalg.matrix_rank(fam.momentum_form[1].toarray()) == 56
    vals = drude_polynomial_oracle(fam, Window(0.05, 1.2, -0.05, 0.05))
    assert len(vals) == 15 and min(abs(v - eps_zero) for v in vals) > 1e-3


def test_poly_oracle_validation(family_factory):
    win = Window(0.1, 1.2, -0.05, 0.05)
    _, _, bad_bg = family_factory(4, 0.3, X, "TE", {0: Constant(2.0), 1: Drude(1.0, 0.01)})
    with pytest.raises(ValueError):
        drude_polynomial_oracle(bad_bg, win)
    _, _, bad_rod = family_factory(4, 0.3, X, "TE", {0: Constant(1.0), 1: Constant(8.9)})
    with pytest.raises(ValueError):
        drude_polynomial_oracle(bad_rod, win)
    mesh = build_unit_cell_mesh(21, 0.3)
    pmap = build_periodic_dof_map(mesh)
    big = assemble_family(mesh, pmap, X, "TE", {0: Constant(1.0), 1: Drude(1.0, 0.01)})
    with pytest.raises(ValueError):
        drude_polynomial_oracle(big, win)  # 441 DOFs > cap
