"""Block contour-moment eigenvalue search in the complex frequency plane.

The solver never forms eigenvectors of a linearization.  The window is tiled
with squares, and each square's own boundary is the contour.  A square of
centre c and half-side rho is traced counter-clockwise, and each of its four
edges gets the 4 Gauss-Legendre nodes of that edge, m0 = 16 nodes z_j with
weights dz_j (the Gauss-Legendre weight times the edge's half-length and
direction).  They give the scaled moments of the resolvent between a seeded
probe block V and a left block W, each with p columns (W = V for a
conjugation-symmetric family, and otherwise a second seeded block; see
Mirror below),

    A_q = (1 / 2 pi i) * sum_j dz_j ((z_j - c) / rho)^q W^H T(z_j)^-1 V,

for q = 0 .. 3, each p x p (Sakurai and Sugiura, J. Comput. Appl. Math.
159, 2003).  The norm of A_0's first column, ||W^H A_0 g|| for the first
probe column g, is ``indicator``'s value.  The paper takes its spectral
indicator ||A_0 g|| on the circle about the square; Beyn's method allows any
closed contour (Beyn, Linear Algebra Appl. 436, 2012), and the square is
taken because the circle covers 1.57 times its area: what the circle sees
in its neighbours split squares that hold nothing and gave start values
that refined outside their square.  The rule integrates polynomials of
degree up to 7 exactly on each edge, so a simple eigenvalue lambda
contributes ((lambda - c) / rho)^q f(lambda) times a fixed rank-one term
to A_q, where f(lambda), the rule's value for 1 / (z - lambda), is 1 up to
quadrature error inside the square and small outside it.  The 2p x 2p
block Hankel matrices

    H0 = [[A0, A1], [A1, A2]],   H1 = [[A1, A2], [A2, A3]]

factor as X Y and X L Y with L the diagonal (or Jordan) matrix of scaled
eigenvalues (Beyn 2012).  The rank of H0 counts the eigenvalues the square
sees: its singular values above 1e-6 times max_j ||rho W^H T(z_j)^-1 V||_2,
a threshold relative to the quadrature summands and so free of any scale of
T (the normalized indicator of Huang, Struthers, Sun and Zhang, J. Comput.
Phys. 327, 2016).  A square of rank 0 holds nothing.  One whose rank comes
within one of the block's capacity 2p is split into 3 x 3 ninths while the
ninths are at least 0.01 wide, that is two levels below the 0.1 tiles, down
to side 0.0111; otherwise the eigenvalues of the projected pencil
U^H H1 Q S^-1 (from the truncated SVD H0 = U S Q^H) that lie in the square,
max(|Re|, |Im|) <= 1 + 1e-6 in the scaled variable, are its start values.
The slack is far above the pencil's error at an eigenvalue on a shared
edge (~1e-11 there), so both squares propose it, and ``dedup`` merges the
two refined values.  With
ninths the middle row of a tile straddling Im nu = 0 straddles it again, so
the real axis, where every eigenvalue of a lossless family lies, is never
an edge; with quarters it was, and such an eigenvalue sat on a node's line
and got no start value.  Hankel order 2 rather than the plain A0/A1 pencil
is what finds a double root whose 1/(z - lambda) residue vanishes, such as
nu = 0 at Gamma, where T(nu) = K - 4 pi^2 nu^2 M.

An eigenvalue near but outside the square leaks into the moments through
the quadrature, at the rate of the Bernstein ellipse of the nearest edge
through it (Trefethen, Approximation Theory and Approximation Practice,
SIAM 2013), and so shows up in the rank and in the pencil.
``sweep.solve_at_k`` therefore keeps a start value only if it refines to a
point inside its own square; the square that holds the others is assumed,
not checked, to find them.  W mixes such a leak into the kept pencil at
first order, so a start value can sit ~1e-8 from its eigenvalue;
refinement removes that.

Every quadrature node costs a banded LU factorization of T(z) on the
family's band layout, a block solve for u(z) = T(z)^-1 V and p x p work:
W^H u and its share of the moment sums, one broadcast multiply-add; the
norms ||W^H u||_2 of a square's 16 nodes come from one stacked eigenvalue
call.  Nothing of size n is kept.  Many nodes recur, so each ``sim_h`` run
keeps a ``SolveMemo`` of W^H u (p^2 numbers, not the n p of u) by contour
point, and its one method ``node`` is where the search factorizes: every
node of every square is taken from the memo, which factorizes a point
once:

- Edges.  Squares of equal side that share an edge share its 4 nodes: the
  Gauss-Legendre nodes are symmetric about the edge's midpoint, so the two
  squares place them at the same points up to the rounding of their
  centres, which the memo's key absorbs.  A row of t such squares makes
  12t + 4 factorizations instead of 16t.  A child shares no node with its
  parent.
- Mirror.  When the family is conjugation-symmetric, T(conj z) = T(z)^H,
  and the search projects with W = V, so the entry at conj z is
  V^H T(z)^-H V, the conjugate transpose of the entry at z: the LU and the
  block solve at z serve both points.  The node set of a square centred on
  Im nu = 0 is its own mirror image (the top and bottom edges are
  conjugates, and each upright edge is its own), and the rows of ninths
  above and below such a square mirror each other, so a row of t squares
  centred on Im nu = 0 then needs 6t + 2 factorizations and block solves
  instead of the 12t + 4 of lossy media.  A lossy family has no mirror
  points and keeps its seeded W: on the n=24 TM lossy disc at X over
  [0.05, 1.2] x [-0.05, 0.05], W = V left 46 distinct eigenvalues after
  refinement instead of 49 or more (measured on the circle contours).

A hit equals a fresh solve up to rounding.  Points are matched after
rounding their coordinates to a quantum of 2^-24 * 1e-4, far below the node
spacing of any square and far above the few units in the last place by
which two squares' arithmetic can place the same point, so a hit is u at
the same point formed by another route.  A mirror entry is the conjugate
transpose of a backward-stable solve with T(z), that is of one with
T(z)^H = T(conj z), as a fresh factorization at conj z would give.  The
memo lives for one ``sim_h`` call and keeps every entry it makes, mirror
entries and the nodes of retried contours (which move off the square, so
miss) included: an entry is p^2 numbers, so on the n=24 TM lossy disc at
X, whose search splits squares down two levels, it peaks at 424 entries,
0.98 MB.  An
``indicator`` call given no memo makes a fresh one for itself, which is the
fresh-solve reference; it shares mirror points only within its own square.

Every BLAS call of the search is the banded LU, whose bits do not depend
on the thread count (see ``sparse``), or a product with at most 2p x 2p
outputs: W^H u, the Gram matrix of its norm, the Hankel SVD.  Start values
and refined eigenvalues come out the same under one and two OpenBLAS
threads: the test suite checks a solve at 274 unknowns and the banded
solves alone at 1,094, and CI checks sweeps at 72 and 74 unknowns and
solves at 270, 274 and 596.  No call is large enough to wake numpy's
thread pool, whose spinning workers would compete with a threaded
``zgbtrf`` for the cores.

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
workloads make one per start value.  In the TM interface cluster start values
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
pattern, which holds the pattern), ``t_data(nu)`` (T(nu)'s CSC entries on
that pattern, which the search factorizes and refinement also multiplies
by) and ``conjugate_symmetric`` (True when T(conj(nu)) = T(nu)^H; the
search then projects with W = V and takes mirror points, and otherwise
with a seeded W and none) works as the operator family, so the machinery
is testable on scalar problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .materials import PermittivityPoleError
from .sparse import SingularMatrixError, csc_on, factorize, solve

_MAX_RETRIES = 3  # 5 % larger squares tried after a failed factorization
_RETRY_SCALE = 1.05
_REFINE_SEED = 160923  # fixed start vector seed so refinement is reproducible
_KEY_QUANTUM = 2.0**-24 * 1e-4  # memo key resolution
_PROBE_COLUMNS = 12  # p, the probe block's width (at most n_dofs)
_HANKEL_ORDER = 2  # H0 is order x order blocks of A_0 .. A_{2 order - 2}
_LEFT_SEED_OFFSET = 7919  # the left block W is drawn from seed + this
_RANK_FACTOR = 1e-6  # rank threshold, relative to the largest quadrature summand
_MIN_SIDE = 0.01  # squares are split while their ninths are at least this wide
_TILE_SLACK = 1e-9  # a refined value may leave its closed square by this much
_PENCIL_SLACK = 1e-6  # a scaled pencil value may leave [-1, 1]^2 by this much
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
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
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
    the half-side rho of the square contour they were taken on, and the
    rank scale max_j ||rho W^H T(z_j)^-1 V||_2."""

    blocks: np.ndarray | None = None
    half_side: float = 0.0
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


def _square_rule() -> tuple[np.ndarray, np.ndarray]:
    """The nodes zeta_j of the square [-1, 1]^2, counter-clockwise from the
    bottom edge, 4 Gauss-Legendre nodes per edge, and the weights
    _WEIGHTS[j, q] = dzeta_j zeta_j^q / (2 pi i) of node j in A_q.

    Edge e runs through zeta = m (1 + i t), t in [-1, 1], for the midpoint
    m = -i, 1, i, -1, so dzeta = i m dt.  The 4-point Gauss-Legendre nodes
    are t = +-sqrt(3/7 -+ (2/7) sqrt(6/5)) with weights (18 +- sqrt(30)) / 36,
    each pair formed once and negated, so every component of zeta is +-1 or
    +-t exactly, and the node set is its own mirror image under conjugation."""
    inner = math.sqrt(3.0 / 7.0 - 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
    outer = math.sqrt(3.0 / 7.0 + 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
    t = np.array([-outer, -inner, inner, outer])
    w_inner, w_outer = (18.0 + math.sqrt(30.0)) / 36.0, (18.0 - math.sqrt(30.0)) / 36.0
    w = np.array([w_outer, w_inner, w_inner, w_outer])
    mids = np.array([-1j, 1.0, 1j, -1.0])
    zeta = (mids[:, None] * (1.0 + 1j * t[None, :])).ravel()
    dzeta = (1j * mids[:, None] * w[None, :]).ravel()
    weights = (dzeta / (2j * np.pi))[:, None] * zeta[:, None] ** np.arange(2 * _HANKEL_ORDER)
    return zeta, weights


_SQUARE_NODES, _WEIGHTS = _square_rule()


def contour_nodes(region: SearchRegion, half_side: float) -> list[complex]:
    """The m0 = 16 nodes centre + half_side * zeta_j of the square of
    ``half_side`` about the region's centre (see ``_square_rule``); with
    half_side = side / 2 they lie on the region's own boundary."""
    return (region.center + half_side * _SQUARE_NODES).tolist()


# block (i, j) of H0 is A_{i + j}, and of H1 A_{i + j + 1}
_HANKEL_INDEX = np.add.outer(np.arange(_HANKEL_ORDER), np.arange(_HANKEL_ORDER))


class SolveMemo:
    """Projected solutions W^H T(z)^-1 V at contour points, p x p each,
    shared by the squares of one ``sim_h`` run and kept for all of it (see
    the module docstring for what is shared and why).  V is the probe
    block, and the memo picks W from the family: V itself for a
    conjugation-symmetric family, whose entry at conj(z) is then the
    conjugate transpose of the entry at z, and otherwise the probe block
    of seed + 7919 (see Mirror in the module docstring); ``left_h`` holds
    W^H.
    ``node`` is the one place the search factorizes T."""

    def __init__(self, fam, probe: np.ndarray, seed: int):
        self.fam = fam
        self.probe = probe
        self.mirror = fam.conjugate_symmetric
        left = probe if self.mirror else random_probe(fam.n_dofs, seed + _LEFT_SEED_OFFSET, columns=probe.shape[1])
        self.left_h = left.conj().T
        self._solved: dict[tuple[int, int], np.ndarray] = {}

    def _key(self, z: complex) -> tuple[int, int]:
        return (round(z.real / _KEY_QUANTUM), round(z.imag / _KEY_QUANTUM))

    def node(self, point: complex) -> np.ndarray:
        """W^H u at ``point``: the stored one, or else a fresh solve, kept
        together with the mirror point's entry, its conjugate transpose,
        unless that point is stored already.  Raises what factorizing
        T(point) raises."""
        key = self._key(point)
        found = self._solved.get(key)
        if found is None:
            lu = factorize(self.fam.layout, self.fam.t_data(point))
            found = self._solved[key] = self.left_h @ solve(lu, self.probe)
            if self.mirror:
                self._solved.setdefault(self._key(point.conjugate()), found.conj().T)
        return found


def indicator(
    region: SearchRegion,
    fam,
    probe: np.ndarray,
    cfg: SimConfig,
    memo: SolveMemo | None = None,
    moments: ContourMoments | None = None,
) -> float:
    """Contour-integral indicator ||W^H A_0 g|| of ``region`` for the first
    column g of the (n_dofs, p) probe block: the norm of the first column of
    the moment W^H A_0.  With a memo whose W^H is the identity it is the
    paper's spectral indicator ||A_0 g||.

    The contour is the region's boundary (see the module docstring).  Every
    call forms the left-projected block moments W^H A_0 .. W^H A_3; given
    ``moments``, it is filled with them, the half-side of the square used
    and the rank scale (see ``ContourMoments``).  A factorization failure
    at a quadrature point (an eigenvalue or a permittivity pole sitting on
    the contour) grows the square's half-side by 5 % about the same centre
    and retries, up to 3 times; after that IndicatorError.  Every node of every attempt is
    taken from ``memo``, built for the same family and probe; without one, a
    fresh memo of cfg.seed serves this call alone, so only the mirror points
    of this call's own nodes are shared.
    """
    if memo is None:
        memo = SolveMemo(fam, probe, cfg.seed)
    # only the message is kept: a kept exception's traceback holds this frame
    # (a reference cycle) and factorize's rejected LU until a full garbage
    # collection, so the memory of each failure would pile up
    last_error = ""
    for attempt in range(_MAX_RETRIES + 1):
        half_side = region.side / 2.0 * _RETRY_SCALE**attempt
        try:
            projected = [memo.node(point) for point in contour_nodes(region, half_side)]
        except (SingularMatrixError, PermittivityPoleError) as exc:
            last_error = str(exc)
            continue
        sums = np.zeros((2 * _HANKEL_ORDER,) + projected[0].shape, dtype=np.complex128)
        for node, weights in zip(projected, _WEIGHTS):
            sums += weights[:, None, None] * node
        if moments is not None:
            stack = np.array(projected)
            # the largest eigenvalue of each node's p x p Gram matrix
            largest = float(np.linalg.eigvalsh(stack.conj().transpose(0, 2, 1) @ stack)[:, -1].max())
            moments.blocks = sums * half_side
            moments.half_side = half_side
            moments.scale = half_side * math.sqrt(largest)
        return float(np.linalg.norm(sums[0, :, 0]) * half_side)
    raise IndicatorError(
        f"indicator failed for region centred at {region.center!r} "
        f"after {_MAX_RETRIES} retries: {last_error}"
    )


def hankel_rank_and_values(moments: ContourMoments, center: complex) -> tuple[int, list[complex]]:
    """Rank of the block Hankel matrix H0 and the eigenvalues of the
    projected pencil that lie in the closed square of the moments' contour,
    grown by 1e-6 of its half-side (see the module docstring)."""
    a = moments.blocks
    shape = (_HANKEL_ORDER * a.shape[1], _HANKEL_ORDER * a.shape[2])
    h0 = a[_HANKEL_INDEX].transpose(0, 2, 1, 3).reshape(shape)
    h1 = a[_HANKEL_INDEX + 1].transpose(0, 2, 1, 3).reshape(shape)
    left, sing, right_h = np.linalg.svd(h0, full_matrices=False)
    rank = int(np.count_nonzero(sing > _RANK_FACTOR * moments.scale))
    projected = (left[:, :rank].conj().T @ h1 @ right_h[:rank].conj().T) / sing[:rank]
    scaled = np.linalg.eigvals(projected)
    inside = (complex(lam) for lam in scaled if max(abs(lam.real), abs(lam.imag)) <= 1.0 + _PENCIL_SLACK)
    return rank, [center + moments.half_side * lam for lam in inside]


def subdivide(region: SearchRegion) -> list[SearchRegion]:
    """Split a square into its 3 x 3 ninths, row by row from the lower left.
    The middle ninth keeps the square's centre, and the offsets +-side/3 are
    exact negatives, so the rows above and below a square centred on
    Im nu = 0 are each other's mirror images."""
    third = region.side / 3.0
    return [
        SearchRegion(region.center + complex(col * third, row * third), third)
        for row in (-1, 0, 1)
        for col in (-1, 0, 1)
    ]


def sim_h(initial_regions: Sequence[SearchRegion], fam, cfg: SimConfig) -> SimResult:
    """Breadth-first block-moment search over a set of disjoint squares:
    one pass over a list of squares, to which a split square appends its
    ninths.

    One probe block of min(12, n_dofs) columns, drawn from cfg.seed, is
    used for the entire run, with one ``SolveMemo`` that factorizes each
    contour point, or point and mirror point, once.  Returns every square's
    start values, unmerged: each is to be refined and kept only if it stays
    in its square.  A square whose moments fail hard is skipped with a
    warning in ``failures``; the search itself continues.
    """
    columns = min(_PROBE_COLUMNS, fam.n_dofs)
    probe = random_probe(fam.n_dofs, cfg.seed, columns=columns)
    capacity = _HANKEL_ORDER * columns
    memo = SolveMemo(fam, probe, cfg.seed)
    squares = list(initial_regions)
    starts: list[StartValue] = []
    failures: list[str] = []
    for region in squares:
        moments = ContourMoments()
        try:
            indicator(region, fam, probe, cfg, memo=memo, moments=moments)
        except IndicatorError as exc:
            failures.append(f"region at {region.center!r} (side {region.side:g}): {exc}")
            continue
        rank, values = hankel_rank_and_values(moments, region.center)
        if rank >= capacity - 1 and region.side / 3.0 >= _MIN_SIDE:
            squares.extend(subdivide(region))
        else:
            starts.extend(StartValue(nu, region) for nu in values)
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
