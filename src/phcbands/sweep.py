"""Brillouin-zone sweeps and dense reference eigensolvers.

The high-symmetry walk for the square lattice is Gamma (0, 0) -> X (pi, 0)
-> M (pi, pi) -> Gamma.  At every k-point the complex search window is tiled
with squares, handed to the contour search, and each start value is
refined; the collected eigenpairs form the band diagram.

Two brute-force oracles cross-check the search on small meshes: a
dense generalized eigensolve for frequency-independent permittivities, and a
quartic polynomial eigensolve (via companion linearization) for a Drude rod
in vacuum under TE polarization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .assembly import OperatorFamily, PermittivityBoundsError, assemble_family
from .materials import Constant, Drude, PermittivityModel, PermittivityPoleError
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
        if not (self.re_max > self.re_min and self.im_max > self.im_min):
            raise ValueError(f"empty search window {self!r}")

    def contains(self, nu: complex) -> bool:
        return self.re_min <= nu.real <= self.re_max and self.im_min <= nu.imag <= self.im_max


@dataclass(frozen=True)
class KPath:
    """Sampled path through the Brillouin zone with cumulative arclength."""

    nodes: tuple[tuple[float, float], ...]
    nk: int
    points: tuple[tuple[tuple[float, float], float], ...]

    @property
    def total_arclength(self) -> float:
        return self.points[-1][1]


def make_kpath(nk: int, nodes: tuple[tuple[float, float], ...] = (GAMMA, X, M, GAMMA)) -> KPath:
    """Sample ``nk`` segments per leg along the node walk (3 nk + 1 points)."""
    if nk < 1:
        raise ValueError(f"nk must be >= 1, got {nk!r}")
    points: list[tuple[tuple[float, float], float]] = [(nodes[0], 0.0)]
    arc = 0.0
    for (ax, ay), (bx, by) in zip(nodes[:-1], nodes[1:]):
        leg = math.hypot(bx - ax, by - ay)
        for step in range(1, nk + 1):
            t = step / nk
            points.append(((ax + t * (bx - ax), ay + t * (by - ay)), arc + t * leg))
        arc += leg
    return KPath(nodes=tuple(nodes), nk=nk, points=tuple(points))


def tile_window(window: Window, side: float) -> list[SearchRegion]:
    """Cover the window with disjoint squares of the given side, anchored at
    the lower-left corner; edge tiles keep their full size and may overhang."""
    if side <= 0:
        raise ValueError(f"tile side must be positive, got {side!r}")
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
    that leave are dropped silently, since the square that holds them finds
    them itself.  Kept values are merged (keeping the smallest residual per
    cluster) and sorted by real part, then imaginary part.  A start value
    whose refinement fails (a singular operator, or a permittivity out of
    bounds or at its pole) is dropped with a warning; the others are kept.
    """
    fam = assemble_family(mesh, pmap, k, polarization, models)
    result = sim_h(tile_window(window, cfg.initial_side), fam, cfg)
    warnings = [f"region at {f.region.center!r} (side {f.region.side:g}): {f.message}" for f in result.failures]

    refined: list[EigenCandidate] = []
    for start in result.candidates:
        try:
            rr = refine_eigenpair(start.nu, fam)
        except (SingularMatrixError, PermittivityBoundsError, PermittivityPoleError) as exc:
            warnings.append(f"refinement from nu = {start.nu!r} failed: {exc}")
            continue
        if not (start.tile.contains(rr.nu) and window.contains(rr.nu)):
            continue
        refined.append(EigenCandidate(nu=rr.nu, residual=rr.residual))
        if not rr.converged:
            warnings.append(f"refinement stalled at nu = {rr.nu!r} (residual {rr.residual:.3e})")

    return KSolveResult(eigenpairs=dedup(refined, cfg.dedup_tol), warnings=warnings)


@dataclass
class KPointResult:
    index: int
    k: tuple[float, float]
    arclength: float
    eigenpairs: list[EigenCandidate]
    warnings: list[str] = field(default_factory=list)


@dataclass
class BandDiagram:
    points: list[KPointResult]
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
    provenance: dict | None = None,
) -> BandDiagram:
    """Band diagram along Gamma -> X -> M -> Gamma.

    A solver failure at one k-point (a singular operator, or a permittivity
    out of bounds or at its pole) is recorded as a warning on that point and
    the sweep continues; any other exception propagates.  k-points are
    processed in path order, and each distinct k-point is solved once: the
    closing Gamma repeats the first point's result.
    """
    mesh = build_unit_cell_mesh(n, r)
    pmap = build_periodic_dof_map(mesh)
    path = make_kpath(nk)
    solved: dict[tuple[float, float], KSolveResult] = {}
    points: list[KPointResult] = []
    for index, (k, arc) in enumerate(path.points):
        if k not in solved:
            try:
                solved[k] = solve_at_k(mesh, pmap, k, polarization, models, window, cfg)
            except (SingularMatrixError, PermittivityBoundsError, PermittivityPoleError) as exc:
                # keep sweeping; the point is reported empty
                solved[k] = KSolveResult(eigenpairs=[], warnings=[f"k-point failed: {exc}"])
        res = solved[k]
        points.append(
            KPointResult(index=index, k=k, arclength=arc, eigenpairs=list(res.eigenpairs), warnings=list(res.warnings))
        )
    return BandDiagram(points=points, provenance=provenance or {})


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
    """Window eigenvalues of the TE problem with a Drude rod in vacuum via a
    quartic polynomial eigenproblem.

    Multiplying the TE operator by the Drude denominator nu^2 - i nu nu_tau
    clears the rational term and leaves

        P(nu) = A4 nu^4 + A3 nu^3 + A2 nu^2 + A1 nu,
        A4 = -4 pi^2 M,  A3 = 4 i pi^2 nu_tau M,
        A2 = K + 4 pi^2 nu_p^2 M_rod,  A1 = -i nu_tau K,

    with M the total mass matrix and M_rod the rod-region mass matrix.  The
    companion linearization is solved densely; the spurious roots at nu = 0
    and nu = i nu_tau introduced by the multiplication fall outside any
    window with re_min > 0.
    """
    _require_dense_size(fam.n_dofs, POLY_ORACLE_MAX_DOFS, "polynomial oracle")
    if fam.polarization != "TE":
        raise ValueError("drude_polynomial_oracle applies to the TE form only")
    background = fam.models.get(0)
    rod = fam.models.get(1)
    if not (isinstance(background, Constant) and complex(background.eps) == 1.0 + 0.0j):
        raise ValueError("drude_polynomial_oracle needs a vacuum background (Constant 1)")
    if not isinstance(rod, Drude):
        raise ValueError("drude_polynomial_oracle needs a Drude rod model")

    size = fam.n_dofs
    eye = np.eye(size, dtype=np.complex128)
    zero = np.zeros((size, size), dtype=np.complex128)
    kmat = fam.momentum_form_total.toarray()
    mass = fam.mass_total.toarray()
    mass_rod = fam.mass[1].toarray()
    four_pi_sq = 4.0 * math.pi**2
    a4 = -four_pi_sq * mass
    a3 = 4j * math.pi**2 * rod.nu_tau * mass
    a2 = kmat + four_pi_sq * rod.nu_p**2 * mass_rod
    a1 = -1j * rod.nu_tau * kmat
    a0 = zero

    lhs = np.block(
        [
            [zero, eye, zero, zero],
            [zero, zero, eye, zero],
            [zero, zero, zero, eye],
            [-a0, -a1, -a2, -a3],
        ]
    )
    rhs = np.block(
        [
            [eye, zero, zero, zero],
            [zero, eye, zero, zero],
            [zero, zero, eye, zero],
            [zero, zero, zero, a4],
        ]
    )
    lam = scipy.linalg.eigvals(lhs, rhs)
    keep = [complex(z) for z in lam if np.isfinite(z) and z.real >= 0.0 and window.contains(z)]
    keep.sort(key=lambda z: (z.real, z.imag))
    return keep
