"""End-to-end acceptance checks against analytic references and independent
oracles.

Each test prints a single "ACCEPTANCE criterion N: PASS/FAIL" line (shown
with pytest -s, or in the captured output otherwise); the pytest verdict per
test carries the same information.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.linalg

from phcbands.assembly import assemble_family
from phcbands.cli import run
from phcbands.config import load_config
from phcbands.io import write_bands_csv, emit_svg
from phcbands.materials import Constant, Drude, LossyDrude
from phcbands.mesh import build_periodic_dof_map, build_unit_cell_mesh, filling_fraction_to_radius
from phcbands.sim import ContourMoments, SearchRegion, SimConfig, hankel_rank_and_values, indicator, random_probe
from phcbands.sweep import Window, dense_linear_oracle, drude_polynomial_oracle, make_kpath, solve_at_k, sweep

from conftest import (
    GAMMA,
    M,
    X,
    DiagonalFamily,
    direct_assembly_check,
    paper_indicator,
    reference_region_matrices,
    t_matrix,
)

DELTA0 = 0.01  # the paper's indicator threshold, which criterion 5 calibrates
MATCH_TOL = 2e-4  # a CSV row within this of an oracle root finds it (criterion 7)


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def _one_way(src, dst):
    return max((min(abs(a - b) for b in dst) for a in src), default=math.inf)


def _hausdorff(a, b):
    if not a or not b:
        return math.inf
    return max(_one_way(a, b), _one_way(b, a))


@pytest.fixture(scope="module")
def lossy_disc_x():
    """TM spectra of the lossy-metal disc at X on the coarse and fine mesh.

    Shared between the residual/lowest-band checks and the mesh-agreement
    check; these two solves dominate the acceptance runtime.  One window
    serves both meshes: its upper edge 0.64 lies between the third X mode
    (0.6325-0.6348 for n=24..48) and the fourth (0.6459-0.6492), so it holds
    the three lowest modes on each mesh.
    """
    r = filling_fraction_to_radius(0.2827)
    models = {0: Constant(1.0), 1: LossyDrude(1.0, 0.01)}
    window = Window(0.05, 0.64, -0.05, 0.05)
    out = {}
    for n in (24, 48):
        mesh = build_unit_cell_mesh(n, r)
        pmap = build_periodic_dof_map(mesh)
        out[n] = solve_at_k(mesh, pmap, X, "TM", models, window, SimConfig())
    return out


def test_criterion_1_empty_lattice_analytic_bands():
    mesh = build_unit_cell_mesh(32, 0.0)
    pmap = build_periodic_dof_map(mesh)
    models = {0: Constant(1.0)}

    at_x = solve_at_k(mesh, pmap, X, "TE", models, Window(0.3, 0.7, -0.05, 0.05), SimConfig())
    x_vals = [c.nu for c in at_x.eigenpairs]
    x_ok = bool(x_vals) and all(abs(v.real - 0.5) <= 0.005 and abs(v.imag) <= 1e-6 for v in x_vals)

    at_gamma = solve_at_k(mesh, pmap, GAMMA, "TE", models, Window(-0.1, 1.3, -0.05, 0.05), SimConfig())
    g_vals = [c.nu for c in at_gamma.eigenpairs]
    zero_ok = bool(g_vals) and abs(g_vals[0]) <= 1e-6
    cluster = [v for v in g_vals[1:]]
    cluster_ok = bool(cluster) and all(abs(v.real - 1.0) <= 0.015 for v in cluster)

    ok = x_ok and zero_ok and cluster_ok
    _report(
        1,
        ok,
        f"X values {[f'{v.real:.6f}' for v in x_vals]} vs exact 0.5; "
        f"Gamma smallest |nu| = {abs(g_vals[0]) if g_vals else math.inf:.2e}, "
        f"next {[f'{v.real:.6f}' for v in cluster]} vs exact 1",
    )
    assert ok


def test_criterion_2_dense_oracle_equivalence():
    r = filling_fraction_to_radius(0.2827)
    mesh = build_unit_cell_mesh(8, r)
    pmap = build_periodic_dof_map(mesh)
    models = {0: Constant(1.0), 1: Constant(8.9)}
    window = Window(0.05, 1.2, -0.02, 0.02)
    # default settings: at Gamma, X and M the search must find the dense
    # oracle's window eigenvalues and no others, within 2e-4
    cfg = SimConfig()

    details = []
    worst = 0.0
    for name, k in (("Gamma", GAMMA), ("X", X), ("M", M)):
        found = [c.nu for c in solve_at_k(mesh, pmap, k, "TE", models, window, cfg).eigenpairs]
        fam = assemble_family(mesh, pmap, k, "TE", models)
        oracle = dense_linear_oracle(fam, window)
        dist = _hausdorff(found, oracle)
        worst = max(worst, dist)
        details.append(f"{name}: {len(found)} found / {len(oracle)} oracle, dist {dist:.2e}")

    ok = worst <= 2e-4
    _report(2, ok, "; ".join(details))
    assert ok


def test_criterion_3_drude_polynomial_oracle_equivalence():
    mesh = build_unit_cell_mesh(4, 0.3)
    pmap = build_periodic_dof_map(mesh)
    models = {0: Constant(1.0), 1: Drude(1.0, 0.01)}
    window = Window(0.1, 1.2, -0.05, 0.05)

    found = [c.nu for c in solve_at_k(mesh, pmap, X, "TE", models, window, SimConfig()).eigenpairs]
    fam = assemble_family(mesh, pmap, X, "TE", models)
    oracle = drude_polynomial_oracle(fam, window)
    dist = _hausdorff(found, oracle)

    ok = bool(found) and dist <= 1e-3
    _report(3, ok, f"{len(found)} found / {len(oracle)} oracle roots, dist {dist:.2e}")
    assert ok


def test_criterion_4_lossy_metal_residuals_and_lowest_band(lossy_disc_x, tmp_path):
    res24, res48 = lossy_disc_x[24], lossy_disc_x[48]
    max_residual = max(c.residual for c in res24.eigenpairs + res48.eigenpairs)
    residual_ok = max_residual <= 1e-6

    low24 = res24.eigenpairs[0].nu.real
    low48 = res48.eigenpairs[0].nu.real
    lowest_rel = abs(low24 - low48) / abs(low48)
    lowest_ok = lowest_rel <= 0.02

    # the apparent band gap above the lowest band, searched on its own with
    # the default settings: the coarse mesh has only the lowest band there
    r = filling_fraction_to_radius(0.2827)
    models = {0: Constant(1.0), 1: LossyDrude(1.0, 0.01)}
    mesh24 = build_unit_cell_mesh(24, r)
    pmap24 = build_periodic_dof_map(mesh24)
    gap = solve_at_k(mesh24, pmap24, X, "TM", models, Window(0.25, 0.45, -0.05, 0.05), SimConfig())
    gap_ok = len(gap.eigenpairs) == 1 and abs(gap.eigenpairs[0].nu.real - low24) <= 1e-3

    # qualitative band-diagram reproduction: coarse sweep over the full
    # window, every k-point populated, artifacts consistent
    diagram = sweep(8, r, "TM", models, Window(0.05, 1.2, -0.05, 0.05), SimConfig(), nk=1)
    csv_path = tmp_path / "lossy.csv"
    svg_path = tmp_path / "lossy.svg"
    write_bands_csv(diagram, csv_path)
    emit_svg(diagram, svg_path)
    rows = len(csv_path.read_text(encoding="utf-8").splitlines()) - 1
    markers = svg_path.read_text(encoding="utf-8").count("<circle")
    gamma_first = [c.nu for c in diagram.points[0].eigenpairs]
    gamma_last = [c.nu for c in diagram.points[-1].eigenpairs]
    sweep_ok = (
        all(len(p.eigenpairs) >= 10 for p in diagram.points)
        and rows == markers == diagram.n_eigenvalues()
        and len(gamma_first) == len(gamma_last)
        and all(abs(a - b) <= 1e-9 for a, b in zip(gamma_first, gamma_last))
        and max(c.residual for p in diagram.points for c in p.eigenpairs) <= 1e-6
    )

    ok = residual_ok and lowest_ok and gap_ok and sweep_ok
    _report(
        4,
        ok,
        f"max residual {max_residual:.2e}; lowest band {low24:.6f} vs {low48:.6f} "
        f"({100 * lowest_rel:.2f}%); gap scan {len(gap.eigenpairs)} value(s); "
        f"sweep {rows} rows = {markers} markers over {len(diagram.points)} k-points",
    )
    assert ok


def test_criterion_4_three_lowest_mesh_agreement(lossy_disc_x):
    res24, res48 = lossy_disc_x[24], lossy_disc_x[48]
    three24 = sorted(c.nu.real for c in res24.eigenpairs)[:3]
    three48 = sorted(c.nu.real for c in res48.eigenpairs)[:3]
    rels = [abs(a - b) / abs(b) for a, b in zip(three24, three48)]
    ok = len(three24) == 3 and len(three48) == 3 and max(rels) <= 0.02

    _report(
        4,
        ok,
        f"three lowest Re nu at X: n=24 {[f'{v:.6f}' for v in three24]}, "
        f"n=48 {[f'{v:.6f}' for v in three48]}, relative gaps "
        f"{[f'{100 * r:.1f}%' for r in rels]}",
    )
    print(
        "analysis: on the circle-fitted mesh the three lowest X modes converge from\n"
        "n=16 to n=48 (0.30593 -> 0.30092, 0.48027 -> 0.47446, 0.63948 -> 0.63249 by\n"
        "shift-invert Arnoldi on the quartic linearization).  A centroid-tagged\n"
        "staircase disc instead carries interface resonances with Im nu ~ -gamma/2\n"
        "at frequencies that jump with n (0.304 at n=48, none below 0.46 at n=24)."
    )
    assert ok, (
        "three lowest X modes differ between n=24 and n=48 by "
        f"{[f'{100 * r:.1f}%' for r in rels]} (found {len(three24)} and {len(three48)}); "
        "a gap above 2% means a mode that does not converge with the mesh"
    )


def test_criterion_5_indicator_calibration(family_factory):
    # the paper's indicator on the circle of radius R = side / sqrt(2) about
    # each square, and the program's on the square itself (see sim).
    # Scalar calibration: centred pole gives exactly 1 on the circle, external
    # pole at twice the contour radius decays to the geometric tail 1/65535
    region = SearchRegion(center=0.3 + 0j, side=0.05)
    inside = paper_indicator(region, DiagonalFamily([0.3]), random_probe(1, seed=0, columns=1))
    outer_region = SearchRegion(center=0.2 + 0j, side=0.1)
    outer_radius = outer_region.side / math.sqrt(2.0)
    outside = paper_indicator(
        outer_region, DiagonalFamily([0.2 + 2.0 * outer_radius]), random_probe(1, seed=0, columns=1)
    )
    scalar_ok = abs(inside - 1.0) <= 1e-12 and outside <= 1e-4
    # the program's indicator on the square contour: its Gauss-Legendre
    # filter gives a centred pole 1.4e-3 less than 1
    square_inside = indicator(region, DiagonalFamily([0.3]), random_probe(1, seed=0, columns=1), SimConfig())
    scalar_ok = scalar_ok and abs(square_inside - 1.0) <= 2e-3

    # matrix calibration on the n=8 empty lattice at X, with the dense
    # oracle certifying which region holds spectrum
    mesh, pmap, fam = family_factory(8, 0.0, X)
    oracle = dense_linear_oracle(fam, Window(0.05, 1.2, -0.05, 0.05))
    free_region = SearchRegion(center=0.25 + 0j, side=0.02)
    full_region = SearchRegion(center=0.5 + 0j, side=0.02)
    assert not any(abs(v - free_region.center) <= free_region.side / math.sqrt(2.0) for v in oracle)
    assert any(abs(v - full_region.center) <= 1e-6 for v in oracle)

    free_vals, full_vals = [], []
    # the program's indicator ||W^H A_0 g|| (W = g for this lossless family)
    # on the squares themselves, and the rank the search decides by
    square_free, square_full, ranks = [], [], set()
    for seed in range(20):
        g = random_probe(fam.n_dofs, seed, columns=1)
        free_vals.append(paper_indicator(free_region, fam, g))
        full_vals.append(paper_indicator(full_region, fam, g))
        for region, values in ((free_region, square_free), (full_region, square_full)):
            moments = ContourMoments()
            values.append(indicator(region, fam, g, SimConfig(seed=seed), moments=moments))
            rank, starts = hankel_rank_and_values(moments, region.center)
            ranks.add((region is full_region, rank, len(starts)))
    seeds_ok = max(free_vals) < DELTA0 < min(full_vals)
    square_ok = max(square_free) < 1e-6 * min(square_full) and ranks == {(False, 0, 0), (True, 1, 1)}

    ok = scalar_ok and seeds_ok and square_ok
    _report(
        5,
        ok,
        f"pole-in {inside:.2e} (vs 1), pole-out {outside:.2e}; 20 seeds: "
        f"free max {max(free_vals):.2e} < {DELTA0} < full min {min(full_vals):.2e}; "
        f"square contour: pole-in {square_inside:.4f}, free max {max(square_free):.2e} "
        f"< 1e-6 x full min {min(square_full):.2e}, (occupied, rank, start values) {sorted(ranks)}",
    )
    assert ok


def test_criterion_6_structural_invariants(tmp_path):
    k = (1.0, 0.5)
    models = {0: Constant(1.0), 1: Constant(8.9)}
    mesh = build_unit_cell_mesh(4, 0.3)
    pmap = build_periodic_dof_map(mesh)
    fam = assemble_family(mesh, pmap, k, "TE", models)
    fam0 = assemble_family(mesh, pmap, GAMMA, "TE", models)

    def total(mats):
        return sum(mats[region].toarray() for region in fam.regions)

    # the matrix multiplying -i in the quasimomentum form is the transpose
    # of the one multiplying +i, and on the torus that transpose is also
    # the negation (integration by parts without boundary terms): the
    # first-order part K(k) - K(0) - |k|^2 M of the momentum form is 2 i A,
    # with A = k1 G1 + k2 G2 from the element-by-element reference
    reference = reference_region_matrices(mesh, pmap).values()
    g1 = sum(g1 for _, _, g1, _ in reference)
    g2 = sum(g2 for _, _, _, g2 in reference)
    a1 = k[0] * g1 + k[1] * g2
    shift = total(fam.momentum_form) - total(fam0.momentum_form) - (k[0] ** 2 + k[1] ** 2) * total(fam.mass)
    transpose_dev = max(np.abs(g1 + g1.T).max(), np.abs(g2 + g2.T).max(), np.abs(shift - 2j * a1).max())
    hermitian_dev = np.abs(shift - shift.conj().T).max()

    kd = fam.momentum_form_total.toarray()
    k_herm_dev = np.abs(kd - kd.conj().T).max()
    k_min_eig = scipy.linalg.eigvalsh(kd).min()

    untagged = dataclasses.replace(mesh, region_of_triangle=np.zeros_like(mesh.region_of_triangle))
    plain = assemble_family(untagged, pmap, k, "TE", {0: Constant(1.0)})
    additivity_dev = max(
        np.abs(total(getattr(fam, which)) - getattr(plain, which)[0].toarray()).max()
        for which in ("momentum_form", "mass")
    )

    nu = 0.37 + 0.01j
    drude_models = {0: Constant(1.0), 1: Drude(1.0, 0.01)}
    direct_rel = 0.0
    for pol in ("TE", "TM"):
        fam_p = assemble_family(mesh, pmap, k, pol, drude_models)
        production = t_matrix(fam_p, nu).toarray()
        reference = direct_assembly_check(mesh, pmap, k, pol, drude_models, nu).toarray()
        direct_rel = max(direct_rel, np.linalg.norm(production - reference) / np.linalg.norm(production))

    csv_bytes = []
    for _ in range(2):
        diagram = sweep(4, 0.0, "TE", {0: Constant(1.0)}, Window(0.45, 0.56, -0.05, 0.05), SimConfig(), nk=1)
        path = tmp_path / f"run{len(csv_bytes)}.csv"
        write_bands_csv(diagram, path)
        csv_bytes.append(path.read_bytes())
    deterministic = csv_bytes[0] == csv_bytes[1]

    ok = (
        transpose_dev <= 1e-14
        and hermitian_dev <= 1e-14
        and k_herm_dev <= 1e-14
        and k_min_eig >= -1e-10
        and additivity_dev <= 1e-14
        and direct_rel <= 1e-12
        and deterministic
    )
    _report(
        6,
        ok,
        f"transpose dev {transpose_dev:.1e}, shift Hermitian dev {hermitian_dev:.1e}, "
        f"K Hermitian dev {k_herm_dev:.1e}, K min eig {k_min_eig:.1e}, "
        f"additivity dev {additivity_dev:.1e}, direct check {direct_rel:.1e}, "
        f"deterministic CSV {deterministic}",
    )
    assert ok


def test_criterion_7_metal_rod_cli_sweeps(tmp_path):
    details = []
    ok = True
    # Every root of drude_polynomial_oracle in the window (19 TE and
    # 63 TM over the four k-points of the circle-fitted n=8 mesh; the TM
    # interface modes gather at 0.42-0.49, where eps ~ -1, many in close
    # pairs) must have a CSV row within MATCH_TOL at its k-point, and every
    # row must be such a root.
    for pol in ("TE", "TM"):
        outputs = {
            "csv_path": str(tmp_path / f"{pol}.csv"),
            "svg_path": str(tmp_path / f"{pol}.svg"),
            "meta_path": str(tmp_path / f"{pol}_meta.json"),
        }
        config_path = tmp_path / f"{pol.lower()}.json"
        config_path.write_text(
            json.dumps(
                {
                    "polarization": pol,
                    "geometry": {"n": 8, "f": 0.1256},
                    "material": {
                        "variant": "drude",
                        "physical_units": {"omega_p_thz": 1914.0, "omega_tau_thz": 8.34, "a_meters": 1e-7},
                    },
                    "window": {"re_min": 0.05, "re_max": 1.2, "im_min": -0.05, "im_max": 0.05},
                    "path": {"nk": 1},
                    "outputs": outputs,
                }
            ),
            encoding="utf-8",
        )
        code = run(["sweep", "--config", str(config_path)])

        rows = [line.split(",") for line in (tmp_path / f"{pol}.csv").read_text(encoding="utf-8").splitlines()[1:]]
        k_indices = {int(row[0]) for row in rows}
        cfg = load_config(config_path)
        mesh = build_unit_cell_mesh(cfg.geometry.n, cfg.geometry.r)
        pmap = build_periodic_dof_map(mesh)
        n_roots = missed = spurious = 0
        for index, (k, _) in enumerate(make_kpath(cfg.nk).points):
            fam = assemble_family(mesh, pmap, k, cfg.polarization, cfg.models)
            roots = drude_polynomial_oracle(fam, cfg.window)
            found = [complex(float(row[4]), float(row[5])) for row in rows if int(row[0]) == index]
            n_roots += len(roots)
            missed += sum(1 for z in roots if not any(abs(z - f) <= MATCH_TOL for f in found))
            spurious += sum(1 for f in found if not any(abs(z - f) <= MATCH_TOL for z in roots))
        max_residual = max(float(row[6]) for row in rows)
        markers = (tmp_path / f"{pol}.svg").read_text(encoding="utf-8").count("<circle")
        meta = json.loads((tmp_path / f"{pol}_meta.json").read_text(encoding="utf-8"))

        pol_ok = (
            code == 0
            and n_roots > 0
            and missed == spurious == 0
            and k_indices == {0, 1, 2, 3}
            and max_residual <= 1e-6
            and markers == len(rows)
            and meta["n_eigenvalues"] == len(rows)
        )
        ok = ok and pol_ok
        details.append(
            f"{pol}: exit {code}, {len(rows)} rows for {n_roots} oracle roots, {missed} missed, "
            f"{spurious} spurious, max residual {max_residual:.1e}"
        )
    _report(7, ok, "; ".join(details))
    assert ok
