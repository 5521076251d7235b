"""Permittivity models: values, poles, bounds, and unit conversion."""

import math

import pytest

from phcbands.materials import (
    ABS_CAP,
    ABS_FLOOR,
    SPEED_OF_LIGHT,
    Constant,
    Drude,
    LossyDrude,
    PermittivityPoleError,
    eval_eps,
    is_conjugate_symmetric,
    normalize_physical_drude,
)


def check_bounds(model, nu):
    """True when |eps(nu)| lies in [ABS_FLOOR, ABS_CAP]; a pole is False."""
    try:
        value = eval_eps(model, nu)
    except PermittivityPoleError:
        return False
    return ABS_FLOOR <= abs(value) <= ABS_CAP


def test_constant_model():
    model = Constant(eps=12.0)
    assert eval_eps(model, 0.7) == 12.0
    assert eval_eps(model, 2.0 + 3.0j) == 12.0
    assert check_bounds(model, 0.7)


def test_constant_rejects_out_of_bounds_eps():
    assert (ABS_FLOOR, ABS_CAP) == (1e-8, 1e12)
    # both bounds are admissible, on and off the real axis
    for eps in (ABS_FLOOR, ABS_CAP, -ABS_FLOOR, 1j * ABS_CAP):
        assert check_bounds(Constant(eps=eps), 0.5)
    # just outside either one is rejected
    for eps in (0.0, ABS_FLOOR * (1.0 - 1e-12), -ABS_FLOOR * (1.0 - 1e-12), ABS_CAP * (1.0 + 1e-12), 1e13):
        with pytest.raises(ValueError, match="outside admissible bounds"):
            Constant(eps=eps)


def test_drude_zero_crossing():
    # at the plasma frequency with no damping the permittivity vanishes
    model = Drude(nu_p=1.0, nu_tau=0.0)
    assert eval_eps(model, 1.0) == 0.0
    assert not check_bounds(model, 1.0)


def test_lossy_drude_values():
    assert eval_eps(LossyDrude(1.0, 0.0), math.sqrt(2.0)) == pytest.approx(0.5, abs=1e-15)
    eps = eval_eps(LossyDrude(1.0, 0.01), 1.0)
    assert eps == pytest.approx(1.0 - 1.0 / (1.0 + 0.01j), abs=1e-15)
    assert eps.real == pytest.approx(9.999e-5, rel=1e-3)
    assert eps.imag == pytest.approx(9.999e-3, rel=1e-3)


def test_lossy_drude_bounds_at_half():
    model = LossyDrude(1.0, 0.01)
    eps = eval_eps(model, 0.5)
    assert eps == pytest.approx(1.0 - 1.0 / (0.5 * (0.5 + 0.01j)), abs=1e-15)
    assert 2.9 < abs(eps) < 3.1
    assert check_bounds(model, 0.5)


@pytest.mark.parametrize(
    "model,nu",
    [
        (Drude(1.0, 0.5), 0.0),
        (Drude(1.0, 0.5), 0.5j),
        (LossyDrude(1.0, 0.3), 0.0),
        (LossyDrude(1.0, 0.3), -0.3j),
    ],
)
def test_dispersive_poles(model, nu):
    with pytest.raises(PermittivityPoleError):
        eval_eps(model, nu)
    assert not check_bounds(model, nu)


def test_overflow_next_to_a_pole():
    # nu^2 = 1e-320 is a nonzero subnormal, so the pole test passes and
    # nu_p^2 / nu^2 overflows to infinity
    with pytest.raises(PermittivityPoleError, match="overflow"):
        eval_eps(Drude(1.0), 1e-160)


def test_lossless_drude_real_on_real_axis():
    model = Drude(nu_p=0.9, nu_tau=0.0)
    for nu in (0.1, 0.5, 0.9, 1.7, 31.0):
        assert eval_eps(model, nu).imag == 0.0


@pytest.mark.parametrize("model", [Drude(1.0, 0.07), LossyDrude(1.0, 0.07)])
def test_conjugate_symmetry(model):
    # rational models with real coefficients in (i nu) satisfy
    # eps(-conj nu) = conj(eps(nu)) away from the poles
    import numpy as np

    rng = np.random.default_rng(3)
    for _ in range(25):
        nu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(nu) < 0.2:
            continue
        lhs = eval_eps(model, -nu.conjugate())
        rhs = eval_eps(model, nu).conjugate()
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


@pytest.mark.parametrize("model", [Drude(1.0, 0.01), LossyDrude(1.0, 0.01)])
@pytest.mark.parametrize("nu", [1e6, 1e6 + 5.0j])
def test_high_frequency_limit(model, nu):
    assert abs(eval_eps(model, nu) - 1.0) < 1e-11


def test_normalize_physical_drude_cancellation():
    # a = c / f_p makes omega_p a / (2 pi c) collapse to 1
    model = normalize_physical_drude(2.0 * math.pi * 1914e12, 0.0, SPEED_OF_LIGHT / 1914e12)
    assert model.nu_p == pytest.approx(1.0, abs=1e-12)
    assert model.nu_tau == 0.0


def test_normalize_physical_drude_values():
    model = normalize_physical_drude(2.0 * math.pi * 1914e12, 2.0 * math.pi * 8.34e12, 1e-7)
    assert model.nu_p == pytest.approx(0.638441678209263, rel=1e-12)
    assert model.nu_tau == pytest.approx(0.002781924553952588, rel=1e-12)
    scale = 1e-7 / (2.0 * math.pi * SPEED_OF_LIGHT)
    assert model.nu_p == pytest.approx(2.0 * math.pi * 1914e12 * scale, rel=1e-14)


@pytest.mark.parametrize("a", [0.0, -1e-9])
def test_normalize_physical_drude_rejects_bad_a(a):
    with pytest.raises(ValueError):
        normalize_physical_drude(1.0, 1.0, a)


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        Drude(nu_p=-1.0)
    with pytest.raises(ValueError):
        Drude(nu_p=1.0, nu_tau=-0.1)
    with pytest.raises(ValueError):
        LossyDrude(nu_p=1.0, gamma=-1.0)
    with pytest.raises(ValueError):
        normalize_physical_drude(-1.0, 0.0, 1e-7)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_parameters_must_be_finite(bad):
    # NaN passes a plain "< 0" test; a Drude(nan) model would fail every
    # contour point as an overflow near a pole and find nothing
    for make in (
        lambda: Drude(nu_p=bad),
        lambda: Drude(nu_p=1.0, nu_tau=bad),
        lambda: LossyDrude(nu_p=bad),
        lambda: LossyDrude(nu_p=1.0, gamma=bad),
    ):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            make()
    for omega_p, omega_tau in ((bad, 0.0), (1.0, bad)):
        with pytest.raises(ValueError):
            normalize_physical_drude(omega_p, omega_tau, 1e-7)


def test_eval_eps_rejects_unknown_model():
    with pytest.raises(TypeError):
        eval_eps(object(), 1.0)
    with pytest.raises(TypeError):
        is_conjugate_symmetric(object())


@pytest.mark.parametrize(
    "model, symmetric",
    [
        (Constant(8.9), True),
        (Constant(8.9 + 0.0j), True),
        (Constant(8.9 + 0.1j), False),
        (Drude(1.0, 0.0), True),
        (Drude(1.0, 0.01), False),
        (LossyDrude(1.0, 0.0), True),
        (LossyDrude(1.0, 0.01), False),
    ],
)
def test_is_conjugate_symmetric(model, symmetric):
    assert is_conjugate_symmetric(model) is symmetric
    nu = 0.37 + 0.05j
    gap = abs(eval_eps(model, nu.conjugate()) - eval_eps(model, nu).conjugate())
    assert (gap <= 1e-15 * abs(eval_eps(model, nu))) is symmetric
