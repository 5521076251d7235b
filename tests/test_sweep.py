"""k-path construction, window tiling, per-k solves, sweeps, and the two
dense reference oracles."""

import math

import numpy as np
import pytest
import scipy.linalg

import phcbands.sweep
from phcbands.assembly import assemble_family
from phcbands.materials import Constant, Drude
from phcbands.mesh import build_periodic_dof_map, build_unit_cell_mesh
from phcbands.sim import SimConfig
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

from conftest import GAMMA, M, X, plane_wave_values

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


def test_kpath_structure():
    path = make_kpath(1)
    assert path.nodes == (GAMMA, X, M, GAMMA)
    ks = [k for k, _ in path.points]
    arcs = [arc for _, arc in path.points]
    assert ks == [GAMMA, X, M, GAMMA]
    assert arcs == pytest.approx([0.0, math.pi, 2.0 * math.pi, (2.0 + SQRT2) * math.pi], rel=1e-15)
    assert path.total_arclength == pytest.approx((2.0 + SQRT2) * math.pi, rel=1e-15)

    fine = make_kpath(2)
    assert len(fine.points) == 7
    assert fine.points[1][0] == pytest.approx((math.pi / 2.0, 0.0))
    assert fine.points[5][0] == pytest.approx((math.pi / 2.0, math.pi / 2.0))
    assert fine.total_arclength == pytest.approx((2.0 + SQRT2) * math.pi, rel=1e-15)

    with pytest.raises(ValueError):
        make_kpath(0)


def test_tile_window_counts_and_centres():
    tiles = tile_window(Window(0.0, 1.0, 0.0, 0.5), 0.25)
    assert len(tiles) == 8
    assert all(t.side == 0.25 for t in tiles)
    assert tiles[0].center == pytest.approx(0.125 + 0.125j)
    assert tiles[-1].center == pytest.approx(0.875 + 0.375j)

    # an exact fit must not grow a spurious extra column
    assert len(tile_window(Window(0.0, 0.4, 0.0, 0.1), 0.1)) == 4
    # a partial column overhangs rather than shrinking the tile
    over = tile_window(Window(0.0, 0.35, 0.0, 0.1), 0.1)
    assert len(over) == 4
    assert over[-1].center == pytest.approx(0.35 + 0.05j)

    with pytest.raises(ValueError):
        tile_window(Window(0.0, 1.0, 0.0, 0.5), 0.0)


def test_tile_window_covers_window():
    win = Window(0.02, 1.3, -0.05, 0.05)
    tiles = tile_window(win, 0.1)
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
    def explode(*args, **kwargs):
        raise SingularMatrixError("boom")

    monkeypatch.setattr(phcbands.sweep, "solve_at_k", explode)
    diagram = sweep(2, 0.0, "TE", {0: Constant(1.0)}, Window(0.4, 0.6, -0.05, 0.05), SimConfig(), nk=1)
    assert len(diagram.points) == 4
    for point in diagram.points:
        assert point.eigenpairs == []
        assert point.warnings == ["k-point failed: boom"]

    # only solver failures are recorded; a defect anywhere else propagates
    def crash(*args, **kwargs):
        raise RuntimeError("bug")

    monkeypatch.setattr(phcbands.sweep, "solve_at_k", crash)
    with pytest.raises(RuntimeError, match="bug"):
        sweep(2, 0.0, "TE", {0: Constant(1.0)}, Window(0.4, 0.6, -0.05, 0.05), SimConfig(), nk=1)


def test_sweep_attaches_provenance():
    prov = {"window": {"re_min": 0.4, "re_max": 0.6}}
    diagram = sweep(1, 0.0, "TE", {0: Constant(1.0)}, Window(0.4, 0.6, -0.05, 0.05), SimConfig(), nk=1, provenance=prov)
    assert diagram.provenance == prov


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


def test_poly_oracle_validation(family_factory):
    win = Window(0.1, 1.2, -0.05, 0.05)
    _, _, tm = family_factory(4, 0.3, X, "TM", {0: Constant(1.0), 1: Drude(1.0, 0.01)})
    with pytest.raises(ValueError):
        drude_polynomial_oracle(tm, win)
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
