"""Brillouin-zone sweeps and dense reference eigensolvers.

The high-symmetry walk for the square lattice is Gamma (0, 0) -> X (pi, 0)
-> M (pi, pi) -> Gamma.  This module owns the walk: its nodes, their labels
and ``make_kpath``'s sampling, from which ``io`` places the SVG's node
lines.  At every k-point the complex search window is tiled with squares,
handed to the contour search, and each start value is refined; the
collected eigenpairs form the band diagram.

Two brute-force oracles cross-check the search on small meshes: a dense
Hermitian-definite eigensolve for real constant permittivities (positive
under TE), and, for a Drude or lossy-Drude rod in vacuum, TE or TM, a dense
eigensolve of a linearization of the rational problem that adds no roots.
Each solves one dense pencil, of order at most ``ORACLE_MAX_PENCIL``, and
returns the finite roots with Re nu >= 0 inside the window, sorted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .assembly import OperatorFamily, assemble_family
from .materials import Constant, Drude, LossyDrude, PermittivityModel, PermittivityPoleError
from .mesh import REGION_BACKGROUND, REGION_DISC, Mesh, PeriodicMap, build_periodic_dof_map, build_unit_cell_mesh
from .sim import EigenCandidate, SearchRegion, SimConfig, dedup, refine_eigenpair, sim_h
from .sparse import SingularMatrixError

GAMMA = (0.0, 0.0)
X = (math.pi, 0.0)
M = (math.pi, math.pi)
PATH_NODES = (GAMMA, X, M, GAMMA)
PATH_LABELS = ("Γ", "X", "M", "Γ")

ORACLE_MAX_PENCIL = 2500  # largest order of the dense pencil an oracle solves


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
    """Sample ``nk`` segments per leg along ``PATH_NODES``, Gamma -> X ->
    M -> Gamma (3 nk + 1 points); ``make_kpath(1)`` holds the nodes and
    their arclengths."""
    if nk < 1:
        raise ValueError(f"nk must be >= 1, got {nk!r}")
    points: list[tuple[tuple[float, float], float]] = [(PATH_NODES[0], 0.0)]
    arc = 0.0
    for (ax, ay), (bx, by) in zip(PATH_NODES[:-1], PATH_NODES[1:]):
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


def _require_dense_size(order: int, what: str) -> None:
    if order > ORACLE_MAX_PENCIL:
        raise ValueError(f"{what} limited to a pencil of order {ORACLE_MAX_PENCIL}, got {order}")


def _window_roots(values, window: Window) -> list[complex]:
    """The finite ``values`` with Re nu >= 0 inside the window, sorted by
    real part, then imaginary part: the selection both oracles return."""
    keep = [z for z in map(complex, values) if np.isfinite(z) and z.real >= 0.0 and window.contains(z)]
    return sorted(keep, key=lambda z: (z.real, z.imag))


def dense_linear_oracle(fam: OperatorFamily, window: Window) -> list[complex]:
    """All window eigenvalues of a frequency-independent problem by dense
    Hermitian-definite eigensolve, for cross-checking the indicator path.

    Requires every region model to be a real Constant, positive under TE:
    then K x = lambda (sum_rho eps_rho M_rho) x (TE) and
    (sum_rho K_rho / eps_rho) x = lambda M x (TM) have a Hermitian left
    side and a positive definite right side at real k, and one ``eigh``
    call solves them with real lambda.  Any other model raises ValueError
    before the pencil is formed.  Returns the principal branch
    nu = sqrt(lambda) / (2 pi) with Re nu >= 0, sorted by real part; a
    positive lambda gives a nu whose imaginary part is exactly 0.
    """
    _require_dense_size(fam.n_dofs, "dense oracle")
    for m in fam.models.values():
        if not (isinstance(m, Constant) and fam.conjugate_symmetric) or (fam.polarization == "TE" and m.eps.real <= 0):
            raise ValueError("dense_linear_oracle needs real constant permittivities, positive under TE")
    if fam.polarization == "TE":
        lhs = fam.momentum_form_total.toarray()
        rhs = sum(fam.models[region].eps.real * fam.mass[region].toarray() for region in fam.regions)
    else:
        lhs = sum((1.0 / fam.models[region].eps.real) * fam.momentum_form[region].toarray() for region in fam.regions)
        rhs = fam.mass_total.toarray()
    lam = scipy.linalg.eigh(lhs, rhs, eigvals_only=True)
    return _window_roots(np.sqrt(lam.astype(np.complex128)) / (2.0 * math.pi), window)


def drude_polynomial_oracle(fam: OperatorFamily, window: Window) -> list[complex]:
    """Window eigenvalues of a Drude or lossy-Drude rod (``REGION_DISC``) in
    vacuum (``REGION_BACKGROUND``), TE or TM, via a linearization of the
    rational eigenproblem that adds no roots (Su and Bai, SIAM J. Matrix
    Anal. Appl. 32, 2011).

    Both rod models read eps = 1 - nu_p^2 / (nu^2 - i nu_tau nu); a
    LossyDrude(nu_p, gamma) enters as nu_tau = -gamma.  With K and M the
    total momentum form and mass, T(nu) is a quadratic P(nu) plus one
    rational term s R / q(nu) on the rod:

        TE: P = K + 4 pi^2 nu_p^2 M_rod - 4 pi^2 nu^2 M,  R = M_rod,
            s = 4 pi^2 i nu_p^2 nu_tau,  q = nu - i nu_tau;
        TM: P = K - 4 pi^2 nu^2 M,  R = K_rod,
            s = nu_p^2,  q = nu^2 - i nu_tau nu - nu_p^2.

    R = W W^H comes from ``eigh`` of its block on the rod's DOFs (those
    with a nonzero diagonal entry of R), keeping the eigenvalues above
    1e-12 of the largest (which drops the constant at Gamma), and W is
    empty when s = 0 (else a lossless TE rod would gain r roots at nu = 0).
    With y = W^H x / q, T(nu) x = 0 becomes the quadratic problem
    [[P, s W], [W^H, -q I]] (x, y) = 0 of order n + r; its companion pencil,
    of order 2 (n + r), is solved densely.  Nothing multiplies T, so no root
    is added and none is filtered.
    """
    background = fam.models.get(REGION_BACKGROUND)
    rod = fam.models.get(REGION_DISC)
    if not (isinstance(background, Constant) and complex(background.eps) == 1.0 + 0.0j):
        raise ValueError("drude_polynomial_oracle needs a vacuum background (Constant 1)")
    if not isinstance(rod, (Drude, LossyDrude)):
        raise ValueError("drude_polynomial_oracle needs a Drude or LossyDrude rod model")
    nu_p, nu_tau = rod.nu_p, (rod.nu_tau if isinstance(rod, Drude) else -rod.gamma)
    four_pi_sq = 4.0 * math.pi**2
    if fam.polarization == "TE":
        rod_form, shift = fam.mass[REGION_DISC], four_pi_sq * nu_p**2
        s, q = four_pi_sq * 1j * nu_p**2 * nu_tau, (-1j * nu_tau, 1.0, 0.0)  # q's coefficients of 1, nu, nu^2
    else:
        rod_form, shift = fam.momentum_form[REGION_DISC], 0.0
        s, q = nu_p**2, (-(nu_p**2), -1j * nu_tau, 1.0)
    dofs = np.flatnonzero(rod_form.diagonal())
    lam, vec = scipy.linalg.eigh(rod_form[dofs][:, dofs].toarray())
    keep = (lam > 1e-12 * lam.max(initial=0.0)) & (s != 0)
    w = vec[:, keep] * np.sqrt(lam[keep])  # W's rows on the rod's DOFs; its other rows are zero
    n, size = fam.n_dofs, fam.n_dofs + w.shape[1]
    _require_dense_size(2 * size, "polynomial oracle")

    # first companion form [[0, I], [-C0, -C1]] z = nu [[I, 0], [0, C2]] z,
    # z = (x, y, nu x, nu y), of the quadratic C0 + C1 nu + C2 nu^2 with
    # C0 = [[P(0), s W], [W^H, -q0 I]], C1 = -q1 I on y, C2 = -4 pi^2 M on x, -q2 I on y
    lhs = np.eye(2 * size, k=size, dtype=np.complex128)  # identity blocks above the diagonal
    lhs[size : size + n, :n] = -(fam.momentum_form_total + shift * rod_form).toarray()
    lhs[size + dofs, n:size] = -s * w
    lhs[size + n :, dofs] = -w.conj().T
    np.fill_diagonal(lhs[size + n :, n:size], q[0])
    np.fill_diagonal(lhs[size + n :, size + n :], q[1])
    rhs = np.eye(2 * size, dtype=np.complex128)
    rhs[size : size + n, size : size + n] = -four_pi_sq * fam.mass_total.toarray()
    np.fill_diagonal(rhs[size + n :, size + n :], -q[2])
    return _window_roots(scipy.linalg.eigvals(lhs, rhs), window)
