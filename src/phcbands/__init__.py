"""Band structures of 2D dispersive photonic crystals.

P1 finite elements on a periodic unit cell, quasimomentum-shifted TE/TM
operators, and a block contour-moment search for the (generally
nonlinear) eigenvalue problem in the complex frequency plane.

The package exports the library API that README documents; everything else
is reached through its submodule (``phcbands.sweep.sweep`` for the full
band-diagram sweep, ``phcbands.assembly`` for the operator family).
"""

__version__ = "0.1.0"

from .materials import Constant, Drude, LossyDrude
from .mesh import build_periodic_dof_map, build_unit_cell_mesh
from .sim import SimConfig
from .sweep import Window, dense_linear_oracle, drude_polynomial_oracle, solve_at_k

__all__ = [
    "__version__",
    "Constant",
    "Drude",
    "LossyDrude",
    "SimConfig",
    "Window",
    "solve_at_k",
    "build_unit_cell_mesh",
    "build_periodic_dof_map",
    "dense_linear_oracle",
    "drude_polynomial_oracle",
]
