"""Frequency-dependent permittivity models in normalized units.

The spectral variable throughout is the normalized frequency
nu = omega * a / (2 pi c) with lattice constant a and vacuum speed c; in the
solver's units (a = c = 1) the physical factor (omega / c)^2 equals
(2 pi nu)^2.  Dispersive models are expressed directly in nu, which makes
them scale-free: physical Drude parameters are converted once via
:func:`normalize_physical_drude`.

Every model shares one admissible range for |eps|, [ABS_FLOOR, ABS_CAP] =
[1e-8, 1e12].  A Constant outside it is rejected when it is made; a
dispersive model leaves it only near a zero or a pole, where the TM form,
which divides by eps, refuses that frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

SPEED_OF_LIGHT = 2.99792458e8  # m/s

# admissible range of |eps| (see the module docstring)
ABS_FLOOR = 1e-8
ABS_CAP = 1e12


class PermittivityPoleError(ArithmeticError):
    """Permittivity unusable at the requested frequency: at a pole of the
    model, or (where the TM operator divides by it) outside [ABS_FLOOR,
    ABS_CAP] next to a zero or a pole."""


@dataclass(frozen=True)
class Constant:
    """Non-dispersive permittivity eps(nu) = eps."""

    eps: complex

    def __post_init__(self):
        if not (ABS_FLOOR <= abs(self.eps) <= ABS_CAP):
            raise ValueError(f"constant permittivity magnitude {abs(self.eps)!r} outside admissible bounds")


@dataclass(frozen=True)
class Drude:
    """Drude metal eps(nu) = 1 - nu_p^2 / (nu^2 - i nu nu_tau).

    nu_p is the normalized plasma frequency and nu_tau the normalized
    collision frequency.  Poles sit at nu = 0 and nu = i nu_tau.
    """

    nu_p: float
    nu_tau: float = 0.0

    def __post_init__(self):
        _check_rate("plasma frequency", self.nu_p)
        _check_rate("collision frequency", self.nu_tau)


@dataclass(frozen=True)
class LossyDrude:
    """Damped Drude metal eps(nu) = 1 - nu_p^2 / (nu (nu + i gamma)).

    Poles sit at nu = 0 and nu = -i gamma.
    """

    nu_p: float
    gamma: float = 0.0

    def __post_init__(self):
        _check_rate("plasma frequency", self.nu_p)
        _check_rate("damping rate", self.gamma)


PermittivityModel = Union[Constant, Drude, LossyDrude]


def _check_rate(what: str, value: float) -> None:
    # the negated test also rejects NaN, for which every comparison is False
    if not (0.0 <= value < math.inf):
        raise ValueError(f"{what} must be nonnegative and finite, got {value!r}")


def eval_eps(model: PermittivityModel, nu: complex) -> complex:
    """Evaluate the permittivity at normalized frequency ``nu``.

    Raises PermittivityPoleError when ``nu`` lands exactly on a pole of a
    dispersive model (or close enough that the value is not finite).
    """
    nu = complex(nu)
    if isinstance(model, Constant):
        return complex(model.eps)
    if isinstance(model, Drude):
        den = nu * nu - 1j * nu * model.nu_tau
    elif isinstance(model, LossyDrude):
        den = nu * (nu + 1j * model.gamma)
    else:
        raise TypeError(f"unknown permittivity model {model!r}")
    if den == 0:
        raise PermittivityPoleError(f"permittivity pole at nu = {nu!r}")
    value = 1.0 - model.nu_p**2 / den
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise PermittivityPoleError(f"permittivity overflow near pole at nu = {nu!r}")
    return value


def is_conjugate_symmetric(model: PermittivityModel) -> bool:
    """True when eps(conj(nu)) = conj(eps(nu)) at every nu: a real Constant,
    or a Drude or LossyDrude metal without loss.  Such a model is real on
    the real axis, and its operator obeys T(conj(nu)) = T(nu)^H."""
    if isinstance(model, Constant):
        return complex(model.eps).imag == 0.0
    if isinstance(model, Drude):
        return model.nu_tau == 0.0
    if isinstance(model, LossyDrude):
        return model.gamma == 0.0
    raise TypeError(f"unknown permittivity model {model!r}")


def normalize_physical_drude(omega_p: float, omega_tau: float, a: float) -> Drude:
    """Convert physical Drude parameters to a normalized model.

    Parameters
    ----------
    omega_p, omega_tau : float
        Plasma and collision angular frequencies in rad/s.
    a : float
        Lattice constant in metres, a > 0.

    Returns
    -------
    Drude with nu_p = omega_p a / (2 pi c) and nu_tau = omega_tau a / (2 pi c).
    """
    if a <= 0:
        raise ValueError(f"lattice constant must be positive, got {a!r}")
    if omega_p < 0 or omega_tau < 0:
        raise ValueError("Drude frequencies must be nonnegative")
    scale = a / (2.0 * math.pi * SPEED_OF_LIGHT)
    return Drude(nu_p=omega_p * scale, nu_tau=omega_tau * scale)
