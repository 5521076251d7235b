"""Block contour-moment eigenvalue search in the complex frequency plane.

The solver never forms eigenvectors of a linearization.  The window is tiled
with squares; for each square Omega, with circumscribing circle of radius R
about its centre c, the trapezoid rule on m0 = 16 nodes
z_j = c + R exp(i theta_j), theta_j = 2 pi j / m0, gives the scaled moments
of the resolvent between a seeded probe block V and a seeded left block W,
each with p columns,

    A_q = (R / m0) * sum_j exp(i theta_j) ((z_j - c) / R)^q W^H T(z_j)^-1 V,

for q = 0 .. 3, each p x p (Sakurai and Sugiura, J. Comput. Appl. Math.
159, 2003).  ||A_0 g|| for one probe column g, taken without W, is the
paper's spectral indicator.  Every eigenvalue lambda inside the circle
contributes ((lambda - c) / R)^q times a fixed rank-one term to A_q, so the
2p x 2p block Hankel matrices

    H0 = [[A0, A1], [A1, A2]],   H1 = [[A1, A2], [A2, A3]]

factor as X Y and X L Y with L the diagonal (or Jordan) matrix of scaled
eigenvalues (Beyn, Linear Algebra Appl. 436, 2012).  The rank of H0 counts
the eigenvalues the circle sees: its singular values above 1e-6 times
max_j ||R W^H T(z_j)^-1 V||_2, a threshold relative to the quadrature
summands and so free of any scale of T (the normalized indicator of Huang,
Struthers, Sun and Zhang, J. Comput. Phys. 327, 2016).  A square of rank 0
holds nothing.  One whose rank comes within one of the block's capacity 2p
is split into quarters, down to side 0.0125; otherwise the eigenvalues of
the projected pencil U^H H1 Q S^-1 (from the truncated SVD H0 = U S Q^H)
that lie inside the circle are its start values.  Hankel order 2 rather than the
plain A0/A1 pencil is what finds a double root whose 1/(z - lambda) residue
vanishes, such as nu = 0 at Gamma, where T(nu) = K - 4 pi^2 nu^2 M.

An eigenvalue near but outside the circle leaks into the moments through
the quadrature, at (R / d)^(m0 - q) for distance d, and so shows up in the
rank and in the pencil.  ``sweep.solve_at_k`` therefore keeps a start value
only if it refines to a point inside its own square; the square that holds
the others is assumed, not checked, to find them.  W mixes such a leak into
the kept pencil at first order, so a start value can sit ~1e-8 from its
eigenvalue; refinement removes that.

Every quadrature node costs a banded LU factorization of T(z) on the
family's band layout, a block solve for u(z) = T(z)^-1 V and p x p work:
W^H u and its share of the moment sums, one broadcast multiply-add; the
norms ||W^H u||_2 of a circle's 16 nodes come from one stacked eigenvalue
call.  Nothing of size n is kept but u's first column, for the indicator.
Many nodes recur, so each ``sim_h`` run keeps a ``SolveMemo`` of these
``NodeSolve``s (W^H u and that column: n + p^2 numbers, not the n p of u)
by contour point, and its one method ``node`` is where the search
factorizes: every node of every circle is taken from the memo, which
factorizes a point once:

- Corners.  On the first attempt the circle circumscribes the square, so
  the nodes j = 2, 6, 10, 14 are the square's corners; they are placed
  exactly there.  A square shares them with its neighbours, and its four
  children's corners include its own.
- Mirror.  When the family is conjugation-symmetric, T(conj z) = T(z)^H, so
  one conjugate-transpose solve with the LU of T(z) gives u(conj z).  A
  row of t squares straddling Im nu = 0 then needs 8t + 1 factorizations
  instead of the 14t + 2 of lossy media.

A hit equals a fresh solve up to rounding.  Points are matched after
rounding their coordinates to a quantum of 2^-24 * 1e-4, far below the node
spacing of any square and far above the few units in the last place by
which two squares' arithmetic can place the same point, so a hit is u at
the same point formed by another route.  The conjugate-transpose solve is a
backward-stable solve of T(conj z) u = V, as a fresh factorization would
be.  The memo lives for one ``sim_h`` call.  At each level it records the
nodes that level's squares will ask for, carries over from the level
before only solutions among them, and computes a mirror solution only for
one of them.  A level's solutions are n + p^2 numbers per node, so the
memo keeps them all until the next level starts.  A retried contour moves
off the square, so its nodes miss; they are stored like any other and
dropped when the next level starts.  An ``indicator`` call given no memo
makes a fresh one for itself, which is the fresh-solve reference.

Every BLAS call of the search is the banded LU, whose bits do not depend
on the thread count (see ``sparse``), or a product with at most 2p x 2p
outputs: W^H u, the Gram matrix of its norm, the Hankel SVD.  Start values
and refined eigenvalues come out the same under one and two OpenBLAS
threads at 274, 596 and 1,094 unknowns (a test covers 274), and no call
is large enough to wake numpy's thread pool, whose spinning workers would
compete with a threaded ``zgbtrf`` for the cores.

Each start value sigma is refined by residual inverse iteration (Neumaier,
SIAM J. Numer. Anal. 22, 1985; see ``refine_eigenpair``): T(sigma) is
factorized once, and each sweep is a scalar Newton step for nu on
v^H T(nu) v = 0 and one solve with that LU, v <- v - T(sigma)^-1 T(nu) v.
A sweep reads T only as its entries on the family's pattern: T(nu), and
T'(nu) as the central difference of two entry arrays; ``sparse.csc_on``
makes each a CSC matrix for its products.  A sweep takes three: T' v,
T(nu) v for the correction, and T(nu) v of the corrected v, which gives
the residual and is the next sweep's Newton numerator.
The error falls per sweep by a factor of order |sigma - lambda| over the
distance to the next eigenvalue, so a start value ~1e-8 from an isolated
eigenvalue needs its one factorization and nothing more: the benchmark
workloads make one per start value, plus one nudge off a start value that
sits 1e-16 from its eigenvalue.  In the TM interface cluster start values
sit up to 1e-4 off, among eigenvalues 1e-5 apart; there a sweep that fails
to cut the residual tenfold refactorizes at the current nu (a re-shift).
Once the stop test passes, the loop makes one last sweep with the LU in
hand, which takes nu to rounding level, so values refined from different
start values agree to ~1e-15, not merely to the stop tolerance.

The paper's bisection was tuned by an indicator threshold delta0 and a
terminal square size beta0.  The block moments decide by rank instead, so
the node count, the retries, the split rule and the key quantum are fixed
constants here.  ``SimConfig.delta0`` (the paper's threshold 0.01) and
``SimConfig.dedup_tol`` (the distance 2e-4 at which ``dedup`` merges
refined eigenvalues) remain as class constants, not settings, only because
the benchmark reads them; nothing in the package does.

Any object with ``n_dofs``, ``layout`` (the ``sparse.BandLayout`` of its
pattern, which holds the pattern) and ``t_data(nu)`` (T(nu)'s CSC entries
on that pattern, which the search factorizes and refinement also
multiplies by) works as the operator family, so the machinery is testable
on scalar problems.  A family may also set ``conjugate_symmetric``;
without it, no mirror solutions are used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .materials import PermittivityPoleError
from .sparse import SingularMatrixError, csc_on, factorize, solve

_SQRT2 = math.sqrt(2.0)
_NODES = 16  # m0, trapezoid nodes per circle
_MAX_RETRIES = 3  # 5 % larger circles tried after a failed factorization
_RETRY_SCALE = 1.05
_REFINE_SEED = 160923  # fixed start vector seed so refinement is reproducible
_KEY_QUANTUM = 2.0**-24 * 1e-4  # memo key resolution
_PROBE_COLUMNS = 12  # p, the probe block's width (at most n_dofs)
_HANKEL_ORDER = 2  # H0 is order x order blocks of A_0 .. A_{2 order - 2}
_LEFT_SEED_OFFSET = 7919  # the left block W is drawn from seed + this
_RANK_FACTOR = 1e-6  # rank threshold, relative to the largest quadrature summand
_MIN_SIDE = 0.0125  # squares are split no finer than this
_TILE_SLACK = 1e-9  # a refined value may leave its closed square by this much
_REFINE_TOL = 1e-9  # relative residual at which refinement counts as converged
_REFINE_MAX_ITER = 40  # Newton steps before refinement gives up
_DEDUP_TOL = 2e-4  # refined eigenvalues this close are merged


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

    def contains(self, nu: complex) -> bool:
        """Whether nu lies in the closed square grown by 1e-9."""
        reach = self.side / 2.0 + _TILE_SLACK
        return abs(nu.real - self.center.real) <= reach and abs(nu.imag - self.center.imag) <= reach


@dataclass
class SimConfig:
    """Settings of the contour search: seed draws the probe block.

    delta0, the indicator threshold of the paper's bisection, and dedup_tol,
    the distance at which refined eigenvalues are merged, are class
    constants and not settings: the search extracts eigenvalues from block
    moments (see the module docstring).  Only the benchmark reads them.
    """

    delta0: ClassVar[float] = 0.01
    dedup_tol: ClassVar[float] = _DEDUP_TOL
    seed: int = 0

    def __post_init__(self):
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass
class EigenCandidate:
    """Refined eigenvalue, the relative residual of its eigenpair, whether
    refinement converged and after how many Newton sweeps."""

    nu: complex
    residual: float
    converged: bool = True
    iterations: int = 0


@dataclass(frozen=True)
class StartValue:
    """Eigenvalue estimate from the moments of ``tile``, still to be refined."""

    nu: complex
    tile: SearchRegion


@dataclass
class ContourMoments:
    """Filled in by ``indicator``: the left-projected scaled moments
    W^H A_0 .. W^H A_{2 order - 1}, p x p each, stacked on the first axis,
    the radius of the circle they were taken on, and the rank scale
    max_j ||radius W^H T(z_j)^-1 V||_2."""

    blocks: np.ndarray | None = None
    radius: float = 0.0
    scale: float = 0.0


@dataclass
class SimResult:
    """Start values of every square, and one warning per square whose
    moments failed."""

    candidates: list[StartValue]
    failures: list[str] = field(default_factory=list)


def random_probe(n_dofs: int, seed: int, columns: int | None = None) -> np.ndarray:
    """Unit-norm complex Gaussian probe vector, or with ``columns`` an
    (n_dofs, columns) block of unit-norm columns."""
    rng = np.random.default_rng(seed)
    shape = n_dofs if columns is None else (n_dofs, columns)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return g / np.linalg.norm(g, axis=0 if columns is not None else None)


def left_block(n_dofs: int, columns: int, seed: int) -> np.ndarray:
    """W^H for the left block W of the moments: the (n_dofs, columns) probe
    block of seed + 7919, conjugate-transposed."""
    return random_probe(n_dofs, seed + _LEFT_SEED_OFFSET, columns=columns).conj().T


class NodeSolve:
    """What the moments keep of u = T(z)^-1 V at one contour point: the
    p x p block W^H u and u's first column (the paper's indicator reads only
    that one)."""

    __slots__ = ("projected", "first")

    def __init__(self, left_h: np.ndarray, u: np.ndarray):
        self.projected = left_h @ u
        self.first = u[:, 0].copy()


def contour_nodes(region: SearchRegion, radius: float) -> list[tuple[complex, complex]]:
    """(phase, point) of the 16 trapezoid nodes on the circle of ``radius``
    about the region's centre.

    On the circumscribed circle the nodes j = 2, 6, 10, 14 are the square's
    corners; they are formed as centre + (+-side/2) + i(+-side/2).
    """
    circumscribed = radius == region.radius
    half = region.side / 2.0
    nodes = []
    for j in range(_NODES):
        phase = np.exp(2j * np.pi * j / _NODES)
        if circumscribed and j % 4 == 2:
            point = region.center + complex(math.copysign(half, phase.real), math.copysign(half, phase.imag))
        else:
            point = region.center + radius * phase
        nodes.append((phase, point))
    return nodes


# _POWERS[j, q] = phase_j^(q + 1), the weight of node j in A_q, formed as
# the running product phase * phase * ... of contour_nodes' phase
_POWERS = np.array([np.cumprod(np.full(2 * _HANKEL_ORDER, np.exp(2j * np.pi * j / _NODES))) for j in range(_NODES)])
# block (i, j) of H0 is A_{i + j}, and of H1 A_{i + j + 1}
_HANKEL_INDEX = np.add.outer(np.arange(_HANKEL_ORDER), np.arange(_HANKEL_ORDER))


class SolveMemo:
    """``NodeSolve``s of u(z) = T(z)^-1 V at contour points, shared by the
    squares of one ``sim_h`` run (see the module docstring for what is
    shared and why).  V is the probe block and ``left_h`` the W^H of
    ``left_block`` that projects every solution; ``node`` is the one place
    the search factorizes T."""

    def __init__(self, fam, probe: np.ndarray, left_h: np.ndarray):
        self.fam = fam
        self.probe = probe
        self.left_h = left_h
        self.mirror = bool(getattr(fam, "conjugate_symmetric", False))
        self._solved: dict[tuple[int, int], NodeSolve] = {}
        self._level_keys: set[tuple[int, int]] = set()

    def _key(self, z: complex) -> tuple[int, int]:
        return (round(z.real / _KEY_QUANTUM), round(z.imag / _KEY_QUANTUM))

    def start_level(self, level: Sequence[SearchRegion]) -> None:
        """Record the first-attempt nodes of the level's squares and drop
        every solution none of them asks for."""
        self._level_keys = {self._key(point) for region in level for _, point in contour_nodes(region, region.radius)}
        self._solved = {key: node for key, node in self._solved.items() if key in self._level_keys}

    def node(self, point: complex) -> NodeSolve:
        """The solution at ``point``: the stored one, or else a fresh solve,
        kept together with the mirror point's solution from the same LU if
        a square of the level asks for it.  Raises what factorizing T(point)
        raises."""
        key = self._key(point)
        found = self._solved.get(key)
        if found is None:
            lu = factorize(self.fam.layout, self.fam.t_data(point))
            found = self._solved[key] = NodeSolve(self.left_h, solve(lu, self.probe))
            if self.mirror and point.imag != 0.0:
                mirror = self._key(point.conjugate())
                if mirror in self._level_keys and mirror not in self._solved:
                    self._solved[mirror] = NodeSolve(self.left_h, solve(lu, self.probe, trans="H"))
        return found


def indicator(
    region: SearchRegion,
    fam,
    probe: np.ndarray,
    cfg: SimConfig,
    memo: SolveMemo | None = None,
    moments: ContourMoments | None = None,
) -> float:
    """Contour-integral indicator ||A_0 g|| of ``region``, the paper's
    spectral indicator, for the first column g of the (n_dofs, p) probe
    block.

    Every call forms the left-projected block moments W^H A_0 .. W^H A_3;
    given ``moments``, it is filled with them, the radius of the circle
    used and the rank scale (see ``ContourMoments``).  A factorization
    failure at a quadrature point (an eigenvalue or a permittivity pole
    sitting on the circle) grows the contour radius by 5 % and retries, up
    to 3 times; after that IndicatorError.  Every node of every attempt is
    taken from ``memo``, built for the same family and probe; without one, a
    fresh memo with the W^H of ``left_block`` of cfg.seed serves this call
    alone.
    """
    if memo is None:
        memo = SolveMemo(fam, probe, left_block(fam.n_dofs, probe.shape[1], cfg.seed))
    base_radius = region.radius
    # only the message is kept: a kept exception's traceback holds this frame
    # (a reference cycle) and factorize's rejected LU until a full garbage
    # collection, so the memory of each failure would pile up
    last_error = ""
    for attempt in range(_MAX_RETRIES + 1):
        radius = base_radius * _RETRY_SCALE**attempt
        try:
            sums = np.zeros((2 * _HANKEL_ORDER, memo.left_h.shape[0], probe.shape[1]), dtype=np.complex128)
            first = np.zeros(fam.n_dofs, dtype=np.complex128)
            projected = []
            for (phase, point), powers in zip(contour_nodes(region, radius), _POWERS):
                node = memo.node(point)
                first += phase * node.first
                sums += powers[:, None, None] * node.projected
                projected.append(node.projected)
        except (SingularMatrixError, PermittivityPoleError) as exc:
            last_error = str(exc)
            continue
        if moments is not None:
            stack = np.array(projected)
            # the largest eigenvalue of each node's p x p Gram matrix
            largest = float(np.linalg.eigvalsh(stack.conj().transpose(0, 2, 1) @ stack)[:, -1].max())
            moments.blocks = sums * (radius / _NODES)
            moments.radius = radius
            moments.scale = radius * math.sqrt(largest)
        return float(np.linalg.norm(first) * radius / _NODES)
    raise IndicatorError(
        f"indicator failed for region centred at {region.center!r} "
        f"after {_MAX_RETRIES} retries: {last_error}"
    )


def hankel_rank_and_values(moments: ContourMoments, center: complex) -> tuple[int, list[complex]]:
    """Rank of the block Hankel matrix H0 and the eigenvalues of the
    projected pencil that lie inside the circle (see the module docstring)."""
    a = moments.blocks
    shape = (_HANKEL_ORDER * a.shape[1], _HANKEL_ORDER * a.shape[2])
    h0 = a[_HANKEL_INDEX].transpose(0, 2, 1, 3).reshape(shape)
    h1 = a[_HANKEL_INDEX + 1].transpose(0, 2, 1, 3).reshape(shape)
    left, sing, right_h = np.linalg.svd(h0, full_matrices=False)
    rank = int(np.count_nonzero(sing > _RANK_FACTOR * moments.scale))
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
    A square whose moments fail hard is skipped with a warning in
    ``failures``; the search itself continues.
    """
    columns = min(_PROBE_COLUMNS, fam.n_dofs)
    probe = random_probe(fam.n_dofs, cfg.seed, columns=columns)
    capacity = _HANKEL_ORDER * columns
    memo = SolveMemo(fam, probe, left_block(fam.n_dofs, columns, cfg.seed))
    level = list(initial_regions)
    starts: list[StartValue] = []
    failures: list[str] = []
    while level:
        memo.start_level(level)
        next_level: list[SearchRegion] = []
        for region in level:
            moments = ContourMoments()
            try:
                indicator(region, fam, probe, cfg, memo=memo, moments=moments)
            except IndicatorError as exc:
                failures.append(f"region at {region.center!r} (side {region.side:g}): {exc}")
                continue
            rank, values = hankel_rank_and_values(moments, region.center)
            if rank >= capacity - 1 and region.side / 2.0 >= _MIN_SIDE:
                next_level.extend(subdivide(region))
            else:
                starts.extend(StartValue(nu, region) for nu in values)
        level = next_level
    return SimResult(candidates=starts, failures=failures)


def dedup(candidates: Sequence[EigenCandidate]) -> list[EigenCandidate]:
    """Merge refined candidates by single-linkage clustering with link
    distance 2e-4.

    Each cluster keeps its member with the smallest residual, the first one
    on ties.  Output is sorted by real part, then imaginary part.
    """
    items = list(candidates)
    parent = list(range(len(items)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if abs(items[i].nu - items[j].nu) <= _DEDUP_TOL:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    clusters: dict[int, list[EigenCandidate]] = {}
    for i, item in enumerate(items):
        clusters.setdefault(find(i), []).append(item)
    merged = [min(members, key=lambda m: m.residual) for members in clusters.values()]
    merged.sort(key=lambda cand: (cand.nu.real, cand.nu.imag))
    return merged


def _residual(data: np.ndarray, t_v: np.ndarray, v: np.ndarray) -> float:
    """||T v|| / (||T||_F ||v||) from T's entries ``data`` and the product
    ``t_v`` = T v, the Frobenius norm summed over the entries in the order of
    their pattern, so the residual is reproducible bit for bit."""
    denom = float(np.sqrt(np.sum(np.abs(data) ** 2))) * np.linalg.norm(v)
    return float(np.linalg.norm(t_v) / denom) if denom else 0.0


def _factorize_near(fam, nu: complex, data: np.ndarray):
    """LU of T(nu), given ``data``, T(nu)'s entries on the family's pattern.
    When nu sits exactly on an eigenvalue the factorization is singular; the
    shift (and only the shift) is then nudged off the eigenvalue, so that
    solves with the LU are sharp inverse iteration steps."""
    jitter = 1e-13 * max(1.0, abs(nu))
    last_error = ""  # the message only, as in indicator
    # escalate up to percent-scale standoff: near a defective root the
    # singular part of T grows only quadratically with the distance, so
    # eps-scale nudges leave the factorization singular
    for attempt in range(12):
        if attempt:
            data = fam.t_data(nu + jitter * (1.0 + 1.0j))
            jitter *= 10.0
        try:
            return factorize(fam.layout, data)
        except SingularMatrixError as exc:
            last_error = str(exc)
    raise SingularMatrixError(last_error)


def _unit(w: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """w / ||w||, or ``fallback`` when w is 0 or overflows: an overflowing
    solve means the shift is singular to machine precision, and the current
    vector is then already the best available null vector."""
    with np.errstate(over="ignore"):
        norm_w = np.linalg.norm(w)
    return w / norm_w if np.isfinite(norm_w) and norm_w > 0 else fallback


def refine_eigenpair(nu0: complex, fam) -> EigenCandidate:
    """Polish an eigenvalue estimate by residual inverse iteration
    (Neumaier, SIAM J. Numer. Anal. 22, 1985).

    T(sigma) is factorized once, at the start value sigma = nu0, and sweep
    0 solves T(sigma) w = g for a fixed seeded g, v = w / ||w||.  Each of at
    most 40 later sweeps moves nu by the one-dimensional Newton step on the
    Rayleigh functional v^H T(nu) v / v^H T'(nu) v, T' taken as a central
    finite difference of T's entries with step 1e-6 * max(1, |nu|), and
    then corrects the eigenvector, v <- v - T(sigma)^-1 T(nu) v, normalized:
    one solve with the LU in hand.  The product T(nu) v of the corrected v
    gives the relative residual ||T v|| / (||T||_F ||v||) and is the next
    sweep's Newton numerator.  The error falls per sweep by a factor of
    order |sigma - lambda| over the distance to the next eigenvalue, so
    when a sweep fails to cut that residual tenfold, T is refactorized at
    the current nu (a re-shift).  Converged means the residual is exactly
    0, or dropped to 1e-9 while the eigenvalue stopped moving (the
    residual alone is a poor stop near nu = 0, where the operator depends
    on nu quadratically); the loop then makes one last sweep with the same
    LU, which takes nu to rounding level, so that the result does not
    depend on where the stop happened to fall.  The last iterate is
    returned either way, with ``iterations`` the Newton sweeps taken, that
    last one included; ``sweep.solve_at_k`` warns once for each printed
    eigenvalue that did not converge.
    """
    nu = complex(nu0)
    g = random_probe(fam.n_dofs, _REFINE_SEED)
    data = fam.t_data(nu)
    lu = _factorize_near(fam, nu, data)
    v = _unit(solve(lu, g), g)
    t_v = csc_on(fam.layout, data) @ v
    residual = _residual(data, t_v, v)
    converged = residual == 0.0
    sweeps = 0
    while converged or sweeps < _REFINE_MAX_ITER:
        fd = 1e-6 * max(1.0, abs(nu))
        t_prime = csc_on(fam.layout, (fam.t_data(nu + fd) - fam.t_data(nu - fd)) * (1.0 / (2.0 * fd)))
        numer = np.vdot(v, t_v)
        denom = np.vdot(v, t_prime @ v)
        if denom == 0 or not (np.isfinite(numer) and np.isfinite(denom)):
            break
        # a Python complex, so nu stays one and prints the same under any numpy
        step = complex(numer / denom)
        if not np.isfinite(step):
            break
        nu = nu - step
        data = fam.t_data(nu)  # T at the current nu, built once per nu
        t_nu = csc_on(fam.layout, data)
        v = _unit(v - solve(lu, t_nu @ v), v)
        t_v = t_nu @ v
        last, residual = residual, _residual(data, t_v, v)
        sweeps += 1
        if converged:
            break  # that was the last sweep
        converged = residual == 0.0 or (residual <= _REFINE_TOL and abs(step) <= 1e-10 * max(1.0, abs(nu)))
        if not converged and residual > 0.1 * last:
            lu = _factorize_near(fam, nu, data)
    return EigenCandidate(nu, residual, converged=converged or residual <= _REFINE_TOL, iterations=sweeps)
