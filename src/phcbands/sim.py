"""Block contour-moment eigenvalue search in the complex frequency plane.

The solver never forms eigenvectors of a linearization.  The window is tiled
with squares; for each square Omega, with circumscribing circle of radius R
about its centre c, the trapezoid rule on m0 nodes
z_j = c + R exp(i theta_j), theta_j = 2 pi j / m0, gives the scaled moments
of the resolvent applied to a seeded probe block V with p columns,

    A_q = (R / m0) * sum_j exp(i theta_j) ((z_j - c) / R)^q T(z_j)^-1 V,

for q = 0 .. 3.  ||A_0 g|| for one probe column g is the paper's spectral
indicator.  Every eigenvalue lambda inside the circle contributes
((lambda - c) / R)^q times a fixed rank-one term to A_q, so the block Hankel
matrices

    H0 = [[A0, A1], [A1, A2]],   H1 = [[A1, A2], [A2, A3]]

factor as X Y and X L Y with L the diagonal (or Jordan) matrix of scaled
eigenvalues (Beyn, Linear Algebra Appl. 436, 2012).  The rank of H0 counts
the eigenvalues the circle sees: its singular values above 1e-6 times
max_j ||R T(z_j)^-1 V||_2, a threshold relative to the quadrature summands
and so free of any scale of T (the normalized indicator of Huang, Struthers,
Sun and Zhang, J. Comput. Phys. 327, 2016).  A square of rank 0 holds
nothing.  One whose rank comes within one of the block's capacity 2p is
split into quarters, down to side 0.0125; otherwise the eigenvalues of the
projected pencil U^H H1 W S^-1 (from the truncated SVD H0 = U S W^H) that
lie inside the circle are its start values.  Hankel order 2 rather than the
plain A0/A1 pencil is what finds a double root whose 1/(z - lambda) residue
vanishes, such as nu = 0 at Gamma, where T(nu) = K - 4 pi^2 nu^2 M.

An eigenvalue near but outside the circle leaks into the moments through
the quadrature, at (R / d)^(m0 - q) for distance d, and so shows up in the
rank and in the pencil.  ``sweep.solve_at_k`` therefore keeps a start value
only if it refines to a point inside its own square; a neighbouring square
owns the others.

Most of the search's cost is one sparse LU factorization per quadrature node,
and many nodes recur, so each ``sim_h`` run keeps a ``SolveMemo`` of the
solutions u(z) = T(z)^-1 V by contour point and factorizes a point once:

- Corners.  On the first attempt the circle circumscribes the square, so
  when m0 is a multiple of 8 the nodes j in (m0/8)*{1, 3, 5, 7} are the
  square's corners; they are placed exactly there.  A square shares them
  with its neighbours, and its four children's corners include its own.
- Mirror.  When the family is conjugation-symmetric, T(conj z) = T(z)^H, so
  one conjugate-transpose solve with the LU of T(z) gives u(conj z).  A
  row of t squares straddling Im nu = 0 then needs 8t + 1 factorizations
  instead of the 14t + 2 of lossy media.

A hit equals a fresh solve up to rounding.  Points are matched after
rounding their coordinates to a quantum of 2^-24 beta0, far below the node
spacing of any square and far above the few units in the last place by
which two squares' arithmetic can place the same point, so a hit is u at
the same point formed by another route.  The conjugate-transpose solve is a
backward-stable solve of T(conj z) u = V, as a fresh factorization would
be.  The memo lives for one ``sim_h`` call.  At each level it counts the
nodes that level's squares will ask for: it carries over from the level
before only what the new level asks for, keeps a solution during the level
only while a later square asks for it or it sits on a square's corner, and
computes a mirror solution only for a point some square still asks for.
Retried contours move off the square and neither use nor fill the memo.

``SimConfig.delta0`` and ``beta0`` still parse, but no longer decide which
eigenvalues are found: ``delta0`` is only validated, and ``beta0`` sets the
default ``dedup_tol`` and the memo key quantum.

Any object with ``t_matrix(nu) -> sparse matrix`` and ``n_dofs`` works as the
operator family, so the machinery is testable on scalar problems.  A family
may also set ``conjugate_symmetric``; without it, no mirror solutions are
used.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .assembly import PermittivityBoundsError
from .materials import PermittivityPoleError
from .sparse import SingularMatrixError, factorize, frobenius_norm, solve

_SQRT2 = math.sqrt(2.0)
_RETRY_SCALE = 1.05
_REFINE_SEED = 160923  # fixed start vector seed so refinement is reproducible
_KEY_QUANTUM = 2.0**-24  # memo key resolution, in units of beta0
_PROBE_COLUMNS = 12  # p, the probe block's width (at most n_dofs)
_HANKEL_ORDER = 2  # H0 is order x order blocks of A_0 .. A_{2 order - 2}
_RANK_FACTOR = 1e-6  # rank threshold, relative to the largest quadrature summand
_MIN_SIDE = 0.0125  # squares are split no finer than this
_TILE_SLACK = 1e-9  # a refined value may leave its closed square by this much


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

    def contains(self, nu: complex, slack: float = _TILE_SLACK) -> bool:
        """Whether nu lies in the closed square grown by ``slack``."""
        reach = self.side / 2.0 + slack
        return abs(nu.real - self.center.real) <= reach and abs(nu.imag - self.center.imag) <= reach


@dataclass
class SimConfig:
    """Settings of the contour search.

    m0 is the number of quadrature nodes per circle, max_retries the number
    of 5 % larger circles tried after a failed factorization, seed draws the
    probe block, initial_side is the side of the squares tiling the window,
    and dedup_tol the distance below which refined eigenvalues are merged
    (twice beta0 by default).  delta0 and beta0, the indicator threshold
    and terminal square diameter of the paper's bisection, still parse but
    no longer decide which eigenvalues are found: the search extracts them
    from block moments (see the module docstring).  beta0 also scales the
    memo's key quantum.
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
    residual: float | None = None


@dataclass(frozen=True)
class StartValue:
    """Eigenvalue estimate from the moments of ``tile``, still to be refined."""

    nu: complex
    tile: SearchRegion


@dataclass
class ContourMoments:
    """Filled in by ``indicator``: the scaled moments A_0 .. A_{2 order - 1}
    stacked on the first axis, the radius of the circle they were taken on,
    and the rank scale max_j ||radius T(z_j)^-1 V||_2."""

    blocks: np.ndarray | None = None
    radius: float = 0.0
    scale: float = 0.0


@dataclass
class RegionFailure:
    region: SearchRegion
    message: str


@dataclass
class SimResult:
    candidates: list[StartValue]
    failures: list[RegionFailure] = field(default_factory=list)


@dataclass
class RefineResult:
    nu: complex
    vector: np.ndarray
    residual: float
    converged: bool
    iterations: int


def random_probe(n_dofs: int, seed: int, columns: int | None = None) -> np.ndarray:
    """Unit-norm complex Gaussian probe vector, or with ``columns`` an
    (n_dofs, columns) block of unit-norm columns."""
    rng = np.random.default_rng(seed)
    shape = n_dofs if columns is None else (n_dofs, columns)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return g / np.linalg.norm(g, axis=0 if columns is not None else None)


def contour_nodes(region: SearchRegion, m0: int, radius: float) -> list[tuple[complex, complex, bool]]:
    """(phase, point, corner) of the m0 trapezoid nodes on the circle of
    ``radius`` about the region's centre.

    On the circumscribed circle, when m0 is a multiple of 8, the nodes
    j in (m0/8)*{1, 3, 5, 7} are the square's corners; they are formed as
    centre + (+-side/2) + i(+-side/2) and flagged ``corner``.
    """
    step = m0 // 8 if m0 % 8 == 0 and radius == region.radius else 0
    half = region.side / 2.0
    nodes = []
    for j in range(m0):
        phase = np.exp(2j * np.pi * j / m0)
        corner = bool(step) and j % (2 * step) == step
        if corner:
            point = region.center + complex(math.copysign(half, phase.real), math.copysign(half, phase.imag))
        else:
            point = region.center + radius * phase
        nodes.append((phase, point, corner))
    return nodes


class SolveMemo:
    """Solutions u(z) = T(z)^-1 V at contour points, shared by the squares of
    one ``sim_h`` run (see the module docstring for what is shared and why).
    V is a probe vector or block."""

    def __init__(self, fam, probe: np.ndarray, cfg: SimConfig):
        self.probe = probe
        self.m0 = cfg.m0
        self.quantum = _KEY_QUANTUM * cfg.beta0
        self.mirror = bool(getattr(fam, "conjugate_symmetric", False))
        self._u: dict[tuple[int, int], np.ndarray] = {}
        self._wanted: Counter = Counter()

    def _key(self, z: complex) -> tuple[int, int]:
        return (round(z.real / self.quantum), round(z.imag / self.quantum))

    def start_level(self, level: Sequence[SearchRegion]) -> None:
        """Count the first-attempt nodes of the level's squares and drop
        every solution none of them asks for."""
        self._wanted = Counter(
            self._key(point) for region in level for _, point, _ in contour_nodes(region, self.m0, region.radius)
        )
        self._u = {key: u for key, u in self._u.items() if key in self._wanted}

    def take(self, point: complex, corner: bool) -> np.ndarray | None:
        """The stored solution at ``point``, or None; either way the caller's
        claim on the point is spent.  A solution no later square asks for is
        dropped unless it sits on the caller's corner."""
        key = self._key(point)
        self._wanted[key] -= 1
        u = self._u.get(key)
        if u is not None and not corner and self._wanted[key] <= 0:
            del self._u[key]
        return u

    def store(self, point: complex, corner: bool, u: np.ndarray, lu) -> None:
        """Keep a fresh solution, and from its LU the mirror point's solution,
        where a square will ask for them."""
        key = self._key(point)
        if corner or self._wanted[key] > 0:
            self._u[key] = u
        if self.mirror and point.imag != 0.0:
            mirror = self._key(point.conjugate())
            if self._wanted[mirror] > 0 and mirror not in self._u:
                self._u[mirror] = solve(lu, self.probe, trans="H")


def indicator(
    region: SearchRegion,
    fam,
    probe: np.ndarray,
    cfg: SimConfig,
    memo: SolveMemo | None = None,
    moments: ContourMoments | None = None,
) -> float:
    """Contour-integral indicator ||A_0 g|| of ``region`` for the probe
    vector g, or for the first column of a probe block.

    Given ``moments``, also fills it with the block moments of the circle
    used (see ``ContourMoments``).  A factorization failure at a quadrature
    point (an eigenvalue or a permittivity pole sitting on the circle) grows
    the contour radius by 5 % and retries, up to cfg.max_retries times;
    after that IndicatorError.  ``memo``, built for the same family and
    probe, is consulted and filled on the first attempt only.
    """
    base_radius = region.radius
    n_moments = 2 * _HANKEL_ORDER if moments is not None else 1
    # only the message is kept: a kept exception's traceback holds this frame
    # (a reference cycle) and factorize's rejected LU until a full garbage
    # collection, so the memory of each failure would pile up
    last_error = ""
    for attempt in range(cfg.max_retries + 1):
        radius = base_radius * _RETRY_SCALE**attempt
        shared = memo if attempt == 0 else None
        try:
            sums = np.zeros((n_moments,) + probe.shape, dtype=np.complex128)
            largest = 0.0
            for phase, point, corner in contour_nodes(region, cfg.m0, radius):
                u = shared.take(point, corner) if shared is not None else None
                if u is None:
                    fact = factorize(fam.t_matrix(point))
                    u = solve(fact, probe)
                    if shared is not None:
                        shared.store(point, corner, u, fact)
                weight = phase
                for q in range(n_moments):
                    sums[q] += weight * u
                    weight *= phase
                if moments is not None:
                    columns = u.reshape(len(u), -1)
                    # ||u||_2^2 is the largest eigenvalue of the small Gram matrix
                    largest = max(largest, float(np.linalg.eigvalsh(columns.conj().T @ columns)[-1]))
        except (SingularMatrixError, PermittivityBoundsError, PermittivityPoleError) as exc:
            last_error = str(exc)
            continue
        if moments is not None:
            moments.blocks = sums * (radius / cfg.m0)
            moments.radius = radius
            moments.scale = radius * math.sqrt(largest)
        first = sums[0] if probe.ndim == 1 else sums[0][:, 0]
        return float(np.linalg.norm(first) * radius / cfg.m0)
    raise IndicatorError(
        f"indicator failed for region centred at {region.center!r} "
        f"after {cfg.max_retries} retries: {last_error}"
    )


def hankel_rank_and_values(moments: ContourMoments, center: complex) -> tuple[int, list[complex]]:
    """Rank of the block Hankel matrix H0 and the eigenvalues of the
    projected pencil that lie inside the circle (see the module docstring)."""
    a = moments.blocks
    order = range(_HANKEL_ORDER)
    h0 = np.block([[a[i + j] for j in order] for i in order])
    h1 = np.block([[a[i + j + 1] for j in order] for i in order])
    left, sing, right_h = np.linalg.svd(h0, full_matrices=False)
    rank = int(np.count_nonzero(sing > _RANK_FACTOR * moments.scale))
    if rank == 0:
        return 0, []
    projected = (left[:, :rank].conj().T @ h1 @ right_h[:rank].conj().T) / sing[:rank]
    scaled = np.linalg.eigvals(projected)
    return rank, [center + moments.radius * complex(lam) for lam in scaled if abs(lam) < 1.0]


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
    """Breadth-first block-moment search over a set of disjoint squares.

    One probe block of min(12, n_dofs) columns, drawn from cfg.seed, is
    used for the entire run, with one ``SolveMemo`` that factorizes each
    shared contour point once.  Returns every square's start values,
    unmerged: each is to be refined and kept only if it stays in its square.
    Regions whose moments fail hard are recorded in the result and skipped;
    the search itself continues.
    """
    columns = min(_PROBE_COLUMNS, fam.n_dofs)
    probe = random_probe(fam.n_dofs, cfg.seed, columns=columns)
    capacity = _HANKEL_ORDER * columns
    memo = SolveMemo(fam, probe, cfg)
    level = list(initial_regions)
    starts: list[StartValue] = []
    failures: list[RegionFailure] = []
    while level:
        memo.start_level(level)
        next_level: list[SearchRegion] = []
        for region in level:
            moments = ContourMoments()
            try:
                indicator(region, fam, probe, cfg, memo=memo, moments=moments)
            except IndicatorError as exc:
                failures.append(RegionFailure(region, str(exc)))
                continue
            rank, values = hankel_rank_and_values(moments, region.center)
            if rank >= capacity - 1 and region.side / 2.0 >= _MIN_SIDE:
                next_level.extend(subdivide(region))
            else:
                starts.extend(StartValue(nu, region) for nu in values)
        level = next_level
    return SimResult(candidates=starts, failures=failures)


def dedup(candidates: Sequence[EigenCandidate], tol: float) -> list[EigenCandidate]:
    """Merge refined candidates by single-linkage clustering with link
    distance tol.

    Each cluster keeps its member with the smallest residual, the first one
    on ties.  Output is sorted by real part, then imaginary part.
    """
    if tol < 0:
        raise ValueError(f"dedup tolerance must be nonnegative, got {tol!r}")
    items = list(candidates)
    if any(item.residual is None for item in items):
        raise ValueError("dedup merges refined candidates only")
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
    merged = [min(members, key=lambda m: m.residual) for members in clusters.values()]
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
    last_error = ""  # the message only, as in indicator
    # escalate up to percent-scale standoff: near a defective root the
    # singular part of T grows only quadratically with the distance, so
    # eps-scale nudges leave the factorization singular
    for _ in range(12):
        try:
            return solve(factorize(fam.t_matrix(shift)), rhs)
        except SingularMatrixError as exc:
            last_error = str(exc)
            shift = nu + jitter * (1.0 + 1.0j)
            jitter *= 10.0
    raise SingularMatrixError(last_error)


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
