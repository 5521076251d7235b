"""Recursive contour-integral eigenvalue search in the complex frequency plane.

The solver never forms eigenvectors of a linearization.  For a square region
Omega with circumscribing circle of radius R around its centre it estimates
the size of the spectral projection applied to a fixed random probe g,

    I(Omega) = || (R / m0) * sum_j exp(i theta_j) * T(omega_j)^-1 g ||_2,
    omega_j = centre + R exp(i theta_j),  theta_j = 2 pi j / m0,

which is the trapezoid approximation of the resolvent contour integral.  A
region whose indicator exceeds the threshold delta0 is kept and split into
four; admissible squares whose diameter has dropped below beta0 emit their
centre as an eigenvalue candidate.  Candidates are then merged by
single-linkage clustering and polished by Newton-accelerated inverse
iteration.

Any object with ``t_matrix(nu) -> sparse matrix`` and ``n_dofs`` works as the
operator family, so the machinery is testable on scalar problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .assembly import PermittivityBoundsError
from .materials import PermittivityPoleError
from .sparse import SingularMatrixError, factorize, frobenius_norm, solve

_SQRT2 = math.sqrt(2.0)
_RETRY_SCALE = 1.05
_REFINE_SEED = 160923  # fixed start vector seed so refinement is reproducible


class IndicatorError(RuntimeError):
    """Indicator evaluation failed even after contour retries."""


@dataclass(frozen=True)
class SearchRegion:
    """Axis-aligned square in the complex plane."""

    center: complex
    side: float

    def __post_init__(self):
        if not (self.side > 0):
            raise ValueError(f"region side must be positive, got {self.side!r}")

    @property
    def radius(self) -> float:
        """Radius of the circumscribing circle (half the diagonal)."""
        return self.side / _SQRT2

    @property
    def diameter(self) -> float:
        return self.side * _SQRT2


@dataclass
class SimConfig:
    """Tuning knobs for the indicator search.

    dedup_tol defaults to twice beta0, the terminal region diameter.
    """

    delta0: float = 0.01
    beta0: float = 1e-4
    m0: int = 16
    max_retries: int = 3
    seed: int = 0
    dedup_tol: float | None = None
    initial_side: float = 0.1

    def __post_init__(self):
        if self.dedup_tol is None:
            self.dedup_tol = 2.0 * self.beta0
        if not (self.delta0 > 0):
            raise ValueError(f"delta0 must be positive, got {self.delta0!r}")
        if not (self.beta0 > 0):
            raise ValueError(f"beta0 must be positive, got {self.beta0!r}")
        if int(self.m0) != self.m0 or self.m0 < 2:
            raise ValueError(f"m0 must be an integer >= 2, got {self.m0!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be nonnegative, got {self.max_retries!r}")
        if not (self.dedup_tol >= self.beta0):
            raise ValueError(f"dedup_tol must be >= beta0, got {self.dedup_tol!r}")
        if not (self.initial_side > 0):
            raise ValueError(f"initial_side must be positive, got {self.initial_side!r}")


@dataclass
class EigenCandidate:
    """Eigenvalue estimate; residual is set once the pair has been refined."""

    nu: complex
    region_side: float
    residual: float | None = None


@dataclass
class RegionFailure:
    region: SearchRegion
    message: str


@dataclass
class SimResult:
    candidates: list[EigenCandidate]
    failures: list[RegionFailure] = field(default_factory=list)


@dataclass
class RefineResult:
    nu: complex
    vector: np.ndarray
    residual: float
    converged: bool
    iterations: int


def random_probe(n_dofs: int, seed: int) -> np.ndarray:
    """Unit-norm complex Gaussian probe vector."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n_dofs) + 1j * rng.standard_normal(n_dofs)
    return g / np.linalg.norm(g)


def indicator(region: SearchRegion, fam, g: np.ndarray, cfg: SimConfig) -> float:
    """Contour-integral indicator of ``region``.

    A factorization failure at a quadrature point (an eigenvalue or a
    permittivity pole sitting on the circle) grows the contour radius by 5 %
    and retries, up to cfg.max_retries times; after that IndicatorError.
    """
    base_radius = region.radius
    last_error: Exception | None = None
    for attempt in range(cfg.max_retries + 1):
        radius = base_radius * _RETRY_SCALE**attempt
        try:
            acc = np.zeros(len(g), dtype=np.complex128)
            for j in range(cfg.m0):
                phase = np.exp(2j * np.pi * j / cfg.m0)
                point = region.center + radius * phase
                fact = factorize(fam.t_matrix(point))
                acc += phase * solve(fact, g)
            return float(np.linalg.norm(acc) * radius / cfg.m0)
        except (SingularMatrixError, PermittivityBoundsError, PermittivityPoleError) as exc:
            last_error = exc
    raise IndicatorError(
        f"indicator failed for region centred at {region.center!r} "
        f"after {cfg.max_retries} retries: {last_error}"
    )


def subdivide(region: SearchRegion) -> list[SearchRegion]:
    """Split a square into its four half-side quadrants."""
    q = region.side / 4.0
    half = region.side / 2.0
    return [
        SearchRegion(region.center + complex(-q, -q), half),
        SearchRegion(region.center + complex(q, -q), half),
        SearchRegion(region.center + complex(-q, q), half),
        SearchRegion(region.center + complex(q, q), half),
    ]


def sim_h(initial_regions: Sequence[SearchRegion], fam, cfg: SimConfig) -> SimResult:
    """Breadth-first indicator search over a set of disjoint squares.

    One probe vector, drawn from cfg.seed, is used for the entire run.
    Regions whose indicator evaluation fails hard are recorded in the result
    and their subtrees skipped; the search itself continues.
    """
    g = random_probe(fam.n_dofs, cfg.seed)
    level = list(initial_regions)
    raw: list[EigenCandidate] = []
    failures: list[RegionFailure] = []
    while level:
        next_level: list[SearchRegion] = []
        for region in level:
            try:
                value = indicator(region, fam, g, cfg)
            except IndicatorError as exc:
                failures.append(RegionFailure(region, str(exc)))
                continue
            if value <= cfg.delta0:
                continue
            if region.diameter <= cfg.beta0:
                raw.append(EigenCandidate(nu=region.center, region_side=region.side))
            else:
                next_level.extend(subdivide(region))
        level = next_level
    return SimResult(candidates=dedup(raw, cfg.dedup_tol), failures=failures)


def dedup(candidates: Sequence[EigenCandidate], tol: float) -> list[EigenCandidate]:
    """Merge candidates by single-linkage clustering with link distance tol.

    A cluster of refined candidates (every residual set) keeps its member
    with the smallest residual, the first one on ties; any other cluster
    collapses to its centroid.  Output is sorted by real part, then
    imaginary part.
    """
    if tol < 0:
        raise ValueError(f"dedup tolerance must be nonnegative, got {tol!r}")
    items = list(candidates)
    parent = list(range(len(items)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if abs(items[i].nu - items[j].nu) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    clusters: dict[int, list[EigenCandidate]] = {}
    for i, item in enumerate(items):
        clusters.setdefault(find(i), []).append(item)
    merged = []
    for members in clusters.values():
        if all(m.residual is not None for m in members):
            merged.append(min(members, key=lambda m: m.residual))
        else:
            centroid = sum(m.nu for m in members) / len(members)
            merged.append(EigenCandidate(nu=centroid, region_side=max(m.region_side for m in members)))
    merged.sort(key=lambda cand: (cand.nu.real, cand.nu.imag))
    return merged


def _residual(t_mat, v: np.ndarray) -> float:
    denom = frobenius_norm(t_mat) * np.linalg.norm(v)
    num = np.linalg.norm(t_mat @ v)
    if denom == 0.0:
        return 0.0
    return float(num / denom)


def _inverse_iterate(fam, nu: complex, rhs: np.ndarray) -> np.ndarray:
    """Solve T(nu) w = rhs.  When nu sits exactly on an eigenvalue the
    factorization is singular; the solve shift (and only the shift) is then
    nudged off the eigenvalue, which turns the solve into a sharp inverse
    iteration step."""
    shift = nu
    jitter = 1e-13 * max(1.0, abs(nu))
    last_error: Exception | None = None
    # escalate up to percent-scale standoff: near a defective root the
    # singular part of T grows only quadratically with the distance, so
    # eps-scale nudges leave the factorization singular
    for _ in range(12):
        try:
            return solve(factorize(fam.t_matrix(shift)), rhs)
        except SingularMatrixError as exc:
            last_error = exc
            shift = nu + jitter * (1.0 + 1.0j)
            jitter *= 10.0
    raise last_error


def refine_eigenpair(nu0: complex, fam, tol: float = 1e-9, max_iter: int = 40) -> RefineResult:
    """Polish an eigenvalue estimate by inverse iteration with Newton updates.

    Each sweep solves T(nu) w = v to sharpen the eigenvector, then moves nu
    by the one-dimensional Newton step on the Rayleigh functional
    v^H T(nu) v / v^H T'(nu) v, T' taken as a central finite difference with
    step 1e-6 * max(1, |nu|).  Converged means the relative residual
    ||T v|| / (||T||_F ||v||) dropped to tol and the eigenvalue stopped
    moving (the residual alone is a poor stop near nu = 0, where the
    operator depends on nu quadratically); the last iterate is returned
    either way.
    """
    nu = complex(nu0)
    v = _inverse_iterate(fam, nu, random_probe(fam.n_dofs, _REFINE_SEED))
    v = v / np.linalg.norm(v)
    residual = _residual(fam.t_matrix(nu), v)
    if residual == 0.0:
        return RefineResult(nu=nu, vector=v, residual=0.0, converged=True, iterations=0)

    step_size = math.inf
    iterations = 0
    for iteration in range(1, max_iter + 1):
        iterations = iteration
        fd = 1e-6 * max(1.0, abs(nu))
        t_prime = (fam.t_matrix(nu + fd) - fam.t_matrix(nu - fd)) * (1.0 / (2.0 * fd))
        numer = np.vdot(v, fam.t_matrix(nu) @ v)
        denom = np.vdot(v, t_prime @ v)
        if denom == 0 or not (np.isfinite(numer) and np.isfinite(denom)):
            break
        step = numer / denom
        if not np.isfinite(step):
            break
        nu = nu - step
        step_size = abs(step)

        w = _inverse_iterate(fam, nu, v)
        with np.errstate(over="ignore"):
            norm_w = np.linalg.norm(w)
        if np.isfinite(norm_w) and norm_w > 0:
            v = w / norm_w
        # an overflowing solve means T(nu) is singular to machine precision;
        # the current v is then already the best available null vector
        residual = _residual(fam.t_matrix(nu), v)
        if residual <= tol and step_size <= 1e-10 * max(1.0, abs(nu)):
            return RefineResult(nu=nu, vector=v, residual=residual, converged=True, iterations=iteration)
    return RefineResult(nu=nu, vector=v, residual=residual, converged=residual <= tol, iterations=iterations)
