"""Brillouin-zone sweeps and dense reference eigensolvers.

The high-symmetry walk for the square lattice is Gamma (0, 0) -> X (pi, 0)
-> M (pi, pi) -> Gamma.  At every k-point the complex search window is tiled
with squares, handed to the contour search, and each start value is
refined; the collected eigenpairs form the band diagram.

Two brute-force oracles cross-check the search on small meshes: a
dense generalized eigensolve for frequency-independent permittivities, and a
quartic polynomial eigensolve (via companion linearization) for a Drude or
lossy-Drude rod in vacuum, TE or TM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .assembly import OperatorFamily, assemble_family
from .materials import Constant, Drude, LossyDrude, PermittivityModel, PermittivityPoleError
from .mesh import Mesh, PeriodicMap, build_periodic_dof_map, build_unit_cell_mesh
from .sim import EigenCandidate, SearchRegion, SimConfig, dedup, refine_eigenpair, sim_h
from .sparse import SingularMatrixError

GAMMA = (0.0, 0.0)
X = (math.pi, 0.0)
M = (math.pi, math.pi)

DENSE_ORACLE_MAX_DOFS = 2500
POLY_ORACLE_MAX_DOFS = 400


@dataclass(frozen=True)
class Window:
    """Rectangular search window in the complex frequency plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.re_min, self.re_max, self.im_min, self.im_max))):
            raise ValueError(f"search window bounds must be finite, got {self!r}")
        if not (self.re_max > self.re_min and self.im_max > self.im_min):
            raise ValueError(f"empty search window {self!r}")

    def contains(self, nu: complex) -> bool:
        return self.re_min <= nu.real <= self.re_max and self.im_min <= nu.imag <= self.im_max


@dataclass(frozen=True)
class KPath:
    """Sampled path through the Brillouin zone: (k, cumulative arclength)
    per point."""

    points: tuple[tuple[tuple[float, float], float], ...]


def make_kpath(nk: int) -> KPath:
    """Sample ``nk`` segments per leg along Gamma -> X -> M -> Gamma
    (3 nk + 1 points)."""
    if nk < 1:
        raise ValueError(f"nk must be >= 1, got {nk!r}")
    nodes = (GAMMA, X, M, GAMMA)
    points: list[tuple[tuple[float, float], float]] = [(nodes[0], 0.0)]
    arc = 0.0
    for (ax, ay), (bx, by) in zip(nodes[:-1], nodes[1:]):
        leg = math.hypot(bx - ax, by - ay)
        for step in range(1, nk + 1):
            t = step / nk
            points.append(((ax + t * (bx - ax), ay + t * (by - ay)), arc + t * leg))
        arc += leg
    return KPath(points=tuple(points))


_TILE_SIDE = 0.1  # side of the squares that tile the search window


def tile_window(window: Window) -> list[SearchRegion]:
    """Cover the window with disjoint squares of side 0.1, anchored at the
    lower-left corner; edge tiles keep their full size and may overhang."""
    side = _TILE_SIDE
    nx = max(1, math.ceil((window.re_max - window.re_min) / side - 1e-12))
    ny = max(1, math.ceil((window.im_max - window.im_min) / side - 1e-12))
    regions = []
    for q in range(ny):
        for p in range(nx):
            center = complex(window.re_min + (p + 0.5) * side, window.im_min + (q + 0.5) * side)
            regions.append(SearchRegion(center=center, side=side))
    return regions


@dataclass
class KSolveResult:
    eigenpairs: list[EigenCandidate]
    warnings: list[str] = field(default_factory=list)


def solve_at_k(
    mesh: Mesh,
    pmap: PeriodicMap,
    k: tuple[float, float],
    polarization: str,
    models: dict[int, PermittivityModel],
    window: Window,
    cfg: SimConfig,
) -> KSolveResult:
    """Locate and refine all eigenvalues inside the window at one k-point.

    Runs the contour search on the tiled window and refines every start
    value.  A refined value is kept only if it lies in the square whose
    moments gave it (closed, up to a 1e-9 slack) and in the window; values
    that leave are dropped silently, on the assumption, which nothing checks,
    that the square that holds them finds them itself (in the TM interface
    cluster it does not always).  Kept values are merged (keeping the
    smallest residual per cluster) and sorted by real part, then imaginary
    part.  A start value
    whose refinement fails (a singular operator, or a permittivity out of
    bounds or at its pole) is dropped with a warning; the others are kept.
    After the merge, each eigenpair whose refinement stalled gets one
    warning naming its nu, so there is one stall warning per printed
    eigenpair, listed after the failure warnings.
    """
    fam = assemble_family(mesh, pmap, k, polarization, models)
    result = sim_h(tile_window(window), fam, cfg)
    warnings = list(result.failures)

    refined: list[EigenCandidate] = []
    for start in result.candidates:
        try:
            cand = refine_eigenpair(start.nu, fam)
        except (SingularMatrixError, PermittivityPoleError) as exc:
            warnings.append(f"refinement from nu = {start.nu!r} failed: {exc}")
            continue
        if start.tile.contains(cand.nu) and window.contains(cand.nu):
            refined.append(cand)
    eigenpairs = dedup(refined)
    for cand in eigenpairs:
        if not cand.converged:
            warnings.append(f"refinement stalled at nu = {cand.nu!r} (residual {cand.residual:.3e})")
    return KSolveResult(eigenpairs=eigenpairs, warnings=warnings)


@dataclass
class KPointResult:
    index: int
    k: tuple[float, float]
    arclength: float
    eigenpairs: list[EigenCandidate]
    warnings: list[str] = field(default_factory=list)


@dataclass
class BandDiagram:
    """Eigenpairs along the path, the window they were searched in, and the
    resolved configuration of the run (empty unless the caller sets it)."""

    points: list[KPointResult]
    window: Window
    provenance: dict = field(default_factory=dict)

    def n_eigenvalues(self) -> int:
        return sum(len(p.eigenpairs) for p in self.points)


def sweep(
    n: int,
    r: float,
    polarization: str,
    models: dict[int, PermittivityModel],
    window: Window,
    cfg: SimConfig,
    nk: int,
) -> BandDiagram:
    """Band diagram along Gamma -> X -> M -> Gamma.

    k-points are processed in path order, and each distinct k-point is
    solved once: the closing Gamma repeats the first point's result.  Each
    point carries the warnings of its ``solve_at_k``.
    """
    mesh = build_unit_cell_mesh(n, r)
    pmap = build_periodic_dof_map(mesh)
    path = make_kpath(nk)
    solved: dict[tuple[float, float], KSolveResult] = {}
    points: list[KPointResult] = []
    for index, (k, arc) in enumerate(path.points):
        if k not in solved:
            solved[k] = solve_at_k(mesh, pmap, k, polarization, models, window, cfg)
        res = solved[k]
        points.append(
            KPointResult(index=index, k=k, arclength=arc, eigenpairs=list(res.eigenpairs), warnings=list(res.warnings))
        )
    return BandDiagram(points, window)


def _require_dense_size(n_dofs: int, cap: int, what: str) -> None:
    if n_dofs > cap:
        raise ValueError(f"{what} limited to {cap} DOFs, got {n_dofs}")


def dense_linear_oracle(fam: OperatorFamily, window: Window) -> list[complex]:
    """All window eigenvalues of a frequency-independent problem by dense
    generalized eigensolve, for cross-checking the indicator path.

    Requires every region model to be Constant.  Returns the principal
    branch nu = sqrt(lambda) / (2 pi) with Re nu >= 0, sorted by real part.
    """
    _require_dense_size(fam.n_dofs, DENSE_ORACLE_MAX_DOFS, "dense oracle")
    for region in fam.regions:
        if not isinstance(fam.models[region], Constant):
            raise ValueError("dense_linear_oracle needs frequency-independent permittivities")
    if fam.polarization == "TE":
        lhs = fam.momentum_form_total.toarray()
        rhs_mats = [complex(fam.models[region].eps) * fam.mass[region].toarray() for region in fam.regions]
        rhs = sum(rhs_mats)
    else:
        lhs = sum((1.0 / complex(fam.models[region].eps)) * fam.momentum_form[region].toarray() for region in fam.regions)
        rhs = fam.mass_total.toarray()
    lam = scipy.linalg.eigvals(lhs, rhs)
    nus = np.sqrt(lam.astype(np.complex128)) / (2.0 * math.pi)
    keep = [complex(nu) for nu in nus if np.isfinite(nu) and nu.real >= 0.0 and window.contains(nu)]
    keep.sort(key=lambda z: (z.real, z.imag))
    return keep


def drude_polynomial_oracle(fam: OperatorFamily, window: Window) -> list[complex]:
    """Window eigenvalues of a Drude or lossy-Drude rod (region 1) in vacuum
    (region 0), TE or TM, via a quartic polynomial eigenproblem.

    Both rod models read eps = 1 - nu_p^2 / d with d = nu^2 - i nu_tau nu;
    a LossyDrude(nu_p, gamma) enters as nu_tau = -gamma.  Multiplying T(nu)
    by d (TE), or by d eps = d - nu_p^2, the denominator of 1 / eps (TM),
    clears the rational term and leaves

        P(nu) = A4 nu^4 + A3 nu^3 + A2 nu^2 + A1 nu + A0,
        A4 = -4 pi^2 M,  A3 = 4 i pi^2 nu_tau M,  A1 = -i nu_tau K,
        TE: A2 = K + 4 pi^2 nu_p^2 M_rod,  A0 = 0,
        TM: A2 = K + 4 pi^2 nu_p^2 M,      A0 = -nu_p^2 K_bg,

    with K and M the total momentum form and mass, K_bg the background's
    momentum form and M_rod the rod's mass.  The companion linearization is
    solved densely.  The multiplication adds roots where the multiplier
    vanishes (nu = 0 and i nu_tau for TE; the zeros of eps(nu) for TM, where
    P = nu_p^2 K_rod is singular); roots within 1e-6 of those points are
    dropped, as are roots with Re nu < 0.
    """
    _require_dense_size(fam.n_dofs, POLY_ORACLE_MAX_DOFS, "polynomial oracle")
    background = fam.models.get(0)
    rod = fam.models.get(1)
    if not (isinstance(background, Constant) and complex(background.eps) == 1.0 + 0.0j):
        raise ValueError("drude_polynomial_oracle needs a vacuum background (Constant 1)")
    if not isinstance(rod, (Drude, LossyDrude)):
        raise ValueError("drude_polynomial_oracle needs a Drude or LossyDrude rod model")
    nu_p, nu_tau = rod.nu_p, (rod.nu_tau if isinstance(rod, Drude) else -rod.gamma)

    kmat = fam.momentum_form_total.toarray()
    mass = fam.mass_total.toarray()
    four_pi_sq = 4.0 * math.pi**2
    if fam.polarization == "TE":
        a2 = kmat + four_pi_sq * nu_p**2 * fam.mass[1].toarray()
        a0 = np.zeros_like(kmat)
        artificial = [0.0, 1j * nu_tau]
    else:
        a2 = kmat + four_pi_sq * nu_p**2 * mass
        a0 = -(nu_p**2) * fam.momentum_form[0].toarray()
        artificial = np.roots([1.0, -1j * nu_tau, -(nu_p**2)])
    coeffs = [a0, -1j * nu_tau * kmat, a2, 4j * math.pi**2 * nu_tau * mass]

    size = fam.n_dofs
    lhs = np.eye(4 * size, k=size, dtype=np.complex128)  # identity blocks above the diagonal
    lhs[3 * size :] = -np.hstack(coeffs)
    rhs = np.eye(4 * size, dtype=np.complex128)
    rhs[3 * size :, 3 * size :] = -four_pi_sq * mass
    roots = [complex(z) for z in scipy.linalg.eigvals(lhs, rhs) if np.isfinite(z) and z.real >= 0.0]
    keep = [z for z in roots if window.contains(z) and min(abs(z - a) for a in artificial) > 1e-6]
    return sorted(keep, key=lambda z: (z.real, z.imag))
