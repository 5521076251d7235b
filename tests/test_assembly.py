"""Operator assembly: element identities, Hermitian structure, region
splitting, and the independent monolithic cross-check."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from phcbands.assembly import PermittivityBoundsError, assemble_family, build_T
from phcbands.materials import Constant, Drude, eval_eps
from phcbands.mesh import build_periodic_dof_map, build_unit_cell_mesh

from conftest import GAMMA, X, direct_assembly_check

TWO_REGION = {0: Constant(1.0), 1: Constant(8.9)}


def total(fam, which):
    mats = getattr(fam, which)
    return sum(mats[region].toarray() for region in fam.regions)


def test_mass_partition_of_unity(family_factory):
    for n in (1, 4):
        _, _, fam = family_factory(n, 0.0, GAMMA)
        assert fam.mass_total.toarray().sum() == pytest.approx(1.0, abs=1e-14)


def test_stiffness_annihilates_constants(family_factory):
    _, _, fam = family_factory(4, 0.3, GAMMA, models=TWO_REGION)
    ones = np.ones(fam.n_dofs)
    for region in fam.regions:
        assert np.abs(fam.stiffness[region] @ ones).max() <= 1e-13


def test_grad_matrices_annihilate_constants(family_factory):
    # integral of d phi / dx_j over the torus vanishes, so both row and
    # column sums of the total G matrices are zero
    _, _, fam = family_factory(2, 0.0, GAMMA)
    ones = np.ones(fam.n_dofs)
    for which in ("grad1", "grad2"):
        g = total(fam, which)
        assert np.abs(g @ ones).max() <= 1e-14
        assert np.abs(ones @ g).max() <= 1e-14


def test_grad_total_antisymmetric(family_factory):
    # periodic integration by parts: (phi_n, d phi_m) = -(phi_m, d phi_n)
    # summed over all elements; per region the boundary term survives
    _, _, fam = family_factory(4, 0.3, GAMMA, models=TWO_REGION)
    for which in ("grad1", "grad2"):
        g = total(fam, which)
        assert np.abs(g + g.T).max() <= 1e-14


def test_momentum_shift_matrices_hermitian(family_factory):
    # i A1 - i A2 with A2 = A1^T is i times a real antisymmetric matrix
    k = (1.0, 0.5)
    _, _, fam = family_factory(4, 0.3, k, models=TWO_REGION)
    g1 = total(fam, "grad1")
    g2 = total(fam, "grad2")
    a1 = k[0] * g1 + k[1] * g2
    shift = 1j * a1 - 1j * a1.T
    assert np.abs(shift - shift.conj().T).max() <= 1e-14


def test_momentum_form_identity(family_factory):
    k = (1.0, 0.5)
    _, _, fam = family_factory(4, 0.3, k, models=TWO_REGION)
    ksq = k[0] ** 2 + k[1] ** 2
    for region in fam.regions:
        g1 = fam.grad1[region].toarray()
        g2 = fam.grad2[region].toarray()
        expected = (
            fam.stiffness[region].toarray()
            + 1j * (k[0] * g1 + k[1] * g2)
            - 1j * (k[0] * g1 + k[1] * g2).T
            + ksq * fam.mass[region].toarray()
        )
        assert np.abs(fam.momentum_form[region].toarray() - expected).max() <= 1e-14
    total_form = sum(fam.momentum_form[region].toarray() for region in fam.regions)
    assert np.abs(fam.momentum_form_total.toarray() - total_form).max() <= 1e-14


def test_region_additivity(family_factory):
    # the same fitted mesh with every tag set to background has the same
    # triangles, so the region-split matrices must sum to its single-region
    # assembly
    mesh, pmap, fam_split = family_factory(4, 0.3, GAMMA, models=TWO_REGION)
    untagged = dataclasses.replace(mesh, region_of_triangle=np.zeros_like(mesh.region_of_triangle))
    fam_plain = assemble_family(untagged, pmap, GAMMA, "TE", {0: Constant(1.0)})
    for which in ("stiffness", "mass", "grad1", "grad2"):
        split = total(fam_split, which)
        plain = getattr(fam_plain, which)[0].toarray()
        assert np.abs(split - plain).max() <= 1e-14


def test_operator_hermitian_for_real_eps(family_factory):
    _, _, te = family_factory(4, 0.3, (1.1, -0.7), "TE", TWO_REGION)
    _, _, tm = family_factory(4, 0.3, (1.1, -0.7), "TM", TWO_REGION)
    for fam in (te, tm):
        t = fam.t_matrix(0.7).toarray()
        assert np.abs(t - t.conj().T).max() <= 1e-13


def test_momentum_form_psd_and_kernel(family_factory):
    _, _, fam = family_factory(4, 0.0, (1.0, 0.5))
    kd = fam.momentum_form_total.toarray()
    assert np.abs(kd - kd.conj().T).max() <= 1e-14
    assert scipy.linalg.eigvalsh(kd).min() >= -1e-10

    _, _, fam0 = family_factory(4, 0.0, GAMMA)
    k0 = fam0.momentum_form_total.toarray()
    eigs = np.sort(scipy.linalg.eigvalsh(k0))
    assert eigs[0] < 1e-10
    assert eigs[1] > 1e-6
    assert np.linalg.norm(k0 @ np.ones(fam0.n_dofs)) <= 1e-13


def test_te_at_zero_frequency_is_stiffness(family_factory):
    _, _, fam = family_factory(4, 0.0, GAMMA)
    t0 = fam.t_matrix(0.0).toarray()
    assert np.abs(t0 - fam.stiffness[0].toarray()).max() <= 1e-14
    assert np.abs(t0 @ np.ones(fam.n_dofs)).max() <= 1e-13


def test_te_equals_tm_for_unit_eps(family_factory):
    models = {0: Constant(1.0), 1: Constant(1.0)}
    _, _, te = family_factory(4, 0.3, X, "TE", models)
    _, _, tm = family_factory(4, 0.3, X, "TM", models)
    for nu in (0.3, 0.9 + 0.02j):
        diff = (te.t_matrix(nu) - tm.t_matrix(nu)).toarray()
        assert np.abs(diff).max() <= 1e-13


def test_tm_constant_eps_rescales_te(family_factory):
    # TM with eps = 4 everywhere is (1/4) K - (2 pi nu)^2 M, the eps = 1 TE
    # operator evaluated at 2 nu, up to the overall factor
    models4 = {0: Constant(4.0), 1: Constant(4.0)}
    _, _, tm = family_factory(4, 0.3, X, "TM", models4)
    _, _, te = family_factory(4, 0.3, X, "TE", {0: Constant(1.0), 1: Constant(1.0)})
    for nu in (0.2, 0.45):
        lhs = 4.0 * tm.t_matrix(nu).toarray()
        rhs = te.t_matrix(2.0 * nu).toarray()
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_conjugation_under_k_reversal(family_factory):
    # for real permittivity and real nu the operator at -k is the entrywise
    # conjugate of the operator at k
    for pol in ("TE", "TM"):
        _, _, plus = family_factory(4, 0.3, (1.0, 0.5), pol, TWO_REGION)
        _, _, minus = family_factory(4, 0.3, (-1.0, -0.5), pol, TWO_REGION)
        for nu in (0.3, 0.73, 1.1):
            diff = minus.t_matrix(nu) - plus.t_matrix(nu).conjugate()
            assert np.abs(diff.toarray()).max() <= 1e-14


@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_build_T_matches_direct_assembly(pol):
    mesh = build_unit_cell_mesh(4, 0.3)
    pmap = build_periodic_dof_map(mesh)
    models = {0: Constant(1.0), 1: Drude(1.0, 0.01)}
    fam = assemble_family(mesh, pmap, (1.0, 0.5), pol, models)
    nu = 0.37 + 0.01j
    production = build_T(fam, nu).toarray()
    reference = direct_assembly_check(mesh, pmap, (1.0, 0.5), pol, models, nu).toarray()
    rel = np.linalg.norm(production - reference) / np.linalg.norm(production)
    assert rel <= 1e-12


def _ordered_sum(terms):
    """Dense sum of coeff * matrix, one term at a time in list order."""
    acc = terms[0][1] * complex(terms[0][0])
    for coeff, mat in terms[1:]:
        acc = acc + mat * complex(coeff)
    return acc


@pytest.mark.parametrize("pol", ["TE", "TM"])
@pytest.mark.parametrize("k", [GAMMA, (1.1, -0.7)])
def test_build_T_on_fixed_pattern(family_factory, pol, k):
    # every matrix of the family and every T(nu) is CSC on one shared pattern, and
    # T(nu) holds exactly (not just to roundoff) the documented formula
    # evaluated densely in its documented term order
    models = {0: Constant(1.0), 1: Drude(1.0, 0.01)}
    _, _, fam = family_factory(4, 0.3, k, pol, models)
    pattern = fam.mass_total
    shared = [fam.momentum_form_total] + [
        getattr(fam, name)[region]
        for name in ("stiffness", "mass", "grad1", "grad2", "momentum_form")
        for region in fam.regions
    ]
    k1, k2 = k
    forms = {}
    for region in fam.regions:
        s, m, g1, g2 = (getattr(fam, name)[region].toarray() for name in ("stiffness", "mass", "grad1", "grad2"))
        forms[region] = _ordered_sum(
            [(1.0, s), (1j * k1, g1), (1j * k2, g2), (-1j * k1, g1.T), (-1j * k2, g2.T), (k1 * k1 + k2 * k2, m)]
        )
        assert np.array_equal(fam.momentum_form[region].toarray(), forms[region])
    form_total = _ordered_sum([(1.0, forms[region]) for region in fam.regions])
    mass_total = _ordered_sum([(1.0, fam.mass[region].toarray()) for region in fam.regions])
    assert np.array_equal(fam.momentum_form_total.toarray(), form_total)
    assert np.array_equal(fam.mass_total.toarray(), mass_total)

    for nu in (0.37 + 0.01j, 0.05 - 0.02j, 0.61, 0.9 + 0.03j):
        t = build_T(fam, nu)
        for mat in [pattern] + shared + [t]:
            assert mat.format == "csc"
            assert np.array_equal(mat.indptr, pattern.indptr)
            assert np.array_equal(mat.indices, pattern.indices)
        scale = (2.0 * math.pi * complex(nu)) ** 2
        if pol == "TE":
            terms = [(1.0, form_total)]
            terms += [(-scale * eval_eps(models[region], nu), fam.mass[region].toarray()) for region in fam.regions]
        else:
            terms = [(1.0 / eval_eps(models[region], nu), forms[region]) for region in fam.regions]
            terms += [(-scale, mass_total)]
        assert np.array_equal(t.toarray(), _ordered_sum(terms))


def test_direct_assembly_degenerate_split():
    mesh = build_unit_cell_mesh(3, 0.0)
    pmap = build_periodic_dof_map(mesh)
    models = {0: Constant(1.0)}
    fam = assemble_family(mesh, pmap, (0.5, 0.25), "TE", models)
    nu = 0.4
    expected = fam.momentum_form_total.toarray() - (2.0 * math.pi * nu) ** 2 * fam.mass_total.toarray()
    assert np.abs(build_T(fam, nu).toarray() - expected).max() <= 1e-13
    direct = direct_assembly_check(mesh, pmap, (0.5, 0.25), "TE", models, nu).toarray()
    assert np.abs(direct - expected).max() <= 1e-12


def test_tm_bounds_violation_raises(family_factory):
    # the lossless Drude permittivity vanishes at the plasma frequency,
    # where the TM form (division by eps) must refuse to assemble
    models = {0: Constant(1.0), 1: Drude(1.0, 0.0)}
    _, _, tm = family_factory(4, 0.3, X, "TM", models)
    with pytest.raises(PermittivityBoundsError):
        tm.t_matrix(1.0)
    _, _, te = family_factory(4, 0.3, X, "TE", models)
    te.t_matrix(1.0)  # TE multiplies by eps, so eps = 0 is allowed


def test_assembly_validation():
    mesh = build_unit_cell_mesh(4, 0.3)
    pmap = build_periodic_dof_map(mesh)
    with pytest.raises(ValueError):
        assemble_family(mesh, pmap, X, "TX", TWO_REGION)
    with pytest.raises(ValueError):
        assemble_family(mesh, pmap, (4.0, 0.0), "TE", TWO_REGION)
    with pytest.raises(ValueError):
        assemble_family(mesh, pmap, X, "TE", {0: Constant(1.0)})  # missing disc model
    # the Brillouin zone boundary itself is admissible
    fam = assemble_family(mesh, pmap, (math.pi, -math.pi), "TE", TWO_REGION)
    assert fam.regions == [0, 1]
