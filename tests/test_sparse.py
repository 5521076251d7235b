"""Sparse LU solve contracts."""

import numpy as np
import pytest
import scipy.sparse as sp

import phcbands.assembly
import phcbands.sim
from conftest import X, stdout_under_blas_threads
from phcbands import sparse
from phcbands.assembly import assemble_family
from phcbands.materials import Constant, Drude
from phcbands.mesh import build_periodic_dof_map, build_unit_cell_mesh, filling_fraction_to_radius
from phcbands.sim import SimConfig
from phcbands.sparse import PIVOT_RATIO_FLOOR, SingularMatrixError, band_layout, factorize, solve
from phcbands.sweep import Window, solve_at_k


def _lu(mat):
    """LU of ``mat`` on a band layout of its own pattern, as a family's
    operators are factorized on the family's layout."""
    csc = sp.csc_matrix(mat, dtype=np.complex128)
    return factorize(band_layout(csc, [0]), csc.data)


def test_factorize_identity_and_diagonal():
    eye = sp.identity(3, dtype=np.complex128, format="csr")
    b = np.array([1.0, 2.0, 3.0], dtype=np.complex128)
    assert solve(_lu(eye), b) == pytest.approx(b)
    diag = sp.diags([2.0, 4.0j]).tocsr()
    x = solve(_lu(diag), np.array([2.0, 4.0j]))
    assert x == pytest.approx(np.array([1.0, 1.0]))
    csc = sp.csc_matrix(np.array([[1.0j, 2.0], [0.0, 3.0 - 1.0j]]))
    x = solve(_lu(csc), np.array([2.0 + 1.0j, 3.0 - 1.0j]))
    assert x == pytest.approx(np.array([1.0, 1.0]))


def test_solve_conjugate_transpose_with_same_factors():
    dense = np.array([[2.0 + 1.0j, 1.0, 0.0], [0.5j, 3.0, 1.0 - 1.0j], [0.0, 2.0, 4.0 + 0.5j]])
    b = np.array([1.0, 2.0j, -1.0 + 1.0j])
    # the reversed rows make partial pivoting swap rows
    for mat in (sp.csc_matrix(dense), sp.csc_matrix(dense[::-1])):
        lu = _lu(mat)
        x = solve(lu, b)
        assert np.abs(mat @ x - b).max() <= 1e-14
        # projected on b itself, the solve with A^H is the conjugate of the
        # one with A, as the search's mirror points take it from one LU
        mirror = np.vdot(b, np.linalg.solve(mat.toarray().conj().T, b))
        assert abs(np.vdot(b, x).conj() - mirror) <= 1e-14 * abs(mirror)
        with pytest.raises(ValueError):
            solve(lu, b[:2])


def test_block_solve_equals_column_solves():
    rng = np.random.default_rng(3)
    n, p = 40, 5
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dense[np.abs(dense) < 1.0] = 0.0
    dense += 10.0 * np.eye(n)
    block = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
    lu = _lu(sp.csc_matrix(dense))
    x = solve(lu, block)
    assert x.shape == (n, p)
    for j in range(p):
        assert np.array_equal(x[:, j], solve(lu, block[:, j]))
    with pytest.raises(ValueError):
        solve(lu, block[:-1])
    with pytest.raises(ValueError):
        solve(lu, block.T)
    with pytest.raises(ValueError):
        solve(lu, block[:, :, None])


@pytest.mark.filterwarnings("error")
def test_factorize_singular_cases():
    with pytest.raises(SingularMatrixError):
        _lu(sp.csr_matrix((2, 2), dtype=np.complex128))
    # exactly singular with nonzero entries: a zero pivot, and no warning
    with pytest.raises(SingularMatrixError):
        _lu(sp.csr_matrix(np.array([[1.0, 2.0j], [0.5, 1.0j]])))
    # pivot ratio below the floor counts as singular even when the LU exists
    bad = sp.diags([1.0, 0.5 * PIVOT_RATIO_FLOOR]).tocsr()
    with pytest.raises(SingularMatrixError):
        _lu(bad)


def test_factorize_requires_square():
    # a layout exists only for a nonempty square pattern, and factorize
    # takes data of its pattern's size only
    for shape in ((2, 3), (0, 0)):
        with pytest.raises(ValueError):
            band_layout(sp.csr_matrix(shape, dtype=np.complex128), [0])
    layout = band_layout(sp.identity(2, format="csc"), [0])
    with pytest.raises(ValueError):
        factorize(layout, np.ones(3, dtype=np.complex128))


@pytest.mark.parametrize("seed", range(20))
def test_solve_residual_on_random_systems(seed):
    rng = np.random.default_rng(seed)
    n = 50
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dense[np.abs(dense) < 1.0] = 0.0  # sparsify
    dense += 20.0 * np.eye(n)  # diagonally dominant, well conditioned
    mat = sp.csr_matrix(dense)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = solve(_lu(mat), b)
    assert np.linalg.norm(mat @ x - b) / np.linalg.norm(b) <= 1e-10


def test_solve_rejects_wrong_length():
    fact = _lu(sp.identity(2, dtype=np.complex128, format="csr"))
    with pytest.raises(ValueError):
        solve(fact, np.ones(3, dtype=np.complex128))


def test_layout_rejects_duplicate_entries():
    # a non-canonical CSC pattern, entry (0, 0) stored twice, has no band
    # layout: the scatter of its data would keep one of the two entries
    mat = sp.csc_matrix((np.array([1.0, 2.0, 4.0]), np.array([0, 0, 1]), np.array([0, 2, 3])), shape=(2, 2))
    with pytest.raises(ValueError, match="canonical"):
        band_layout(mat, [0])


@pytest.mark.parametrize("n, width", [(8, 22), (16, 42), (24, 58)])
def test_layout_from_a_cell_row_narrows_the_band(n, width):
    # breadth first from grid row 0 the levels are the row pairs {j, n - j}
    # of the torus, so the band is about two rows wide: 22 / 42 / 58 against
    # 27 / 52 / 76 from a reverse Cuthill-McKee ordering started at one node
    mesh = build_unit_cell_mesh(n, filling_fraction_to_radius(0.2827))
    fam = assemble_family(mesh, build_periodic_dof_map(mesh), X, "TE", {0: Constant(1.0), 1: Constant(8.9)})
    layout = fam.layout
    assert layout.kl <= width and layout.ku <= width
    assert list(layout.perm[:n]) == list(range(n))
    assert np.array_equal(layout.perm[layout.position], np.arange(fam.n_dofs))


def _queue_cuthill_mckee(pattern, start):
    """Cuthill-McKee one node at a time, the loop the layout's level-wise
    ordering must equal: each dequeued node appends its unvisited
    neighbours (in pattern + its transpose) by degree, then index."""
    ones = sp.csc_matrix(pattern, copy=True)
    ones.data[:] = 1.0
    graph = sp.csc_matrix(ones + ones.T)
    graph.sort_indices()
    neighbours = [graph.indices[graph.indptr[i] : graph.indptr[i + 1]] for i in range(graph.shape[0])]
    order, seen = list(start), set(start)
    head = 0
    while len(order) < graph.shape[0]:
        if head == len(order):
            order.append(min(set(range(graph.shape[0])) - seen))
            seen.add(order[-1])
        fresh = sorted((len(neighbours[j]), j) for j in neighbours[order[head]] if j not in seen)
        order.extend(j for _, j in fresh)
        seen.update(j for _, j in fresh)
        head += 1
    return order


@pytest.mark.parametrize("seed", range(4))
def test_layout_order_matches_a_queue_cuthill_mckee(seed):
    rng = np.random.default_rng(seed)
    mesh = build_unit_cell_mesh(8 + 4 * seed, filling_fraction_to_radius(0.2827))
    models = {0: Constant(1.0), 1: Constant(8.9)}
    pattern = assemble_family(mesh, build_periodic_dof_map(mesh), X, "TE", models).mass_total
    n = pattern.shape[0]
    start = list(rng.choice(n, size=1 + seed, replace=False))
    assert list(band_layout(pattern, start).perm) == _queue_cuthill_mckee(pattern, start)
    # a sparse pattern that is neither symmetric nor connected
    loose = sp.random(60, 60, density=0.02, random_state=seed, format="csc") + sp.identity(60, format="csc")
    assert list(band_layout(loose, [0]).perm) == _queue_cuthill_mckee(loose, [0])


def test_layout_orders_every_node_once():
    # a diagonal pattern has no edges: every level is empty, so each node
    # starts the next in turn; nodes the start set cannot reach (here 1 and
    # 2, joined to each other only) continue from the lowest unvisited one
    diagonal = band_layout(sp.identity(5, format="csc"), [0])
    assert (diagonal.kl, diagonal.ku) == (0, 0)
    assert list(diagonal.perm) == [0, 1, 2, 3, 4]
    split = sp.csc_matrix(np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 0], [1, 0, 0, 1]], dtype=float))
    layout = band_layout(split, [3])
    assert list(layout.perm) == [3, 0, 1, 2]
    assert (layout.kl, layout.ku) == (1, 1)
    for start in ([], [0, 0], [4], [-1]):
        with pytest.raises(ValueError, match="start set"):
            band_layout(split, start)


def test_layout_built_once_per_family(monkeypatch):
    # every operator of a family shares one pattern, so assemble_family
    # orders and lays out the band once, and one solve_at_k (search and
    # refinement) factorizes every operator on that one layout
    built, used = [], []

    def counted(pattern, start, real=sparse.band_layout):
        built.append(real(pattern, start))
        return built[-1]

    def recorded(layout, data, real=phcbands.sim.factorize):
        used.append(layout)
        return real(layout, data)

    monkeypatch.setattr(sparse, "band_layout", counted)
    monkeypatch.setattr(phcbands.assembly, "band_layout", counted)
    monkeypatch.setattr(phcbands.sim, "factorize", recorded)
    mesh = build_unit_cell_mesh(8, filling_fraction_to_radius(0.2827))
    pmap = build_periodic_dof_map(mesh)
    models = {0: Constant(1.0), 1: Drude(1.0, 0.01)}
    result = solve_at_k(mesh, pmap, X, "TE", models, Window(0.05, 1.2, -0.05, 0.05), SimConfig())
    assert result.eigenpairs
    assert [layout.perm.size for layout in built] == [pmap.n_dofs]
    assert len(used) > 100 and all(layout is built[0] for layout in used)


# Factors T(nu) of the n=32 TM lossy disc at X (1,094 unknowns) at four
# nodes of a search square and prints the SHA-256 of the 12-column solves.
_HASH_SOLVES = """
import hashlib, math
from phcbands.assembly import assemble_family
from phcbands.materials import Constant, LossyDrude
from phcbands.mesh import build_periodic_dof_map, build_unit_cell_mesh, filling_fraction_to_radius
from phcbands.sim import SearchRegion, contour_nodes, random_probe
from phcbands.sparse import factorize, solve
mesh = build_unit_cell_mesh(32, filling_fraction_to_radius(0.2827))
pmap = build_periodic_dof_map(mesh)
fam = assemble_family(mesh, pmap, (math.pi, 0.0), "TM", {0: Constant(1.0), 1: LossyDrude(1.0, 0.01)})
region = SearchRegion(center=0.45 - 0.01j, side=0.1)
probe = random_probe(fam.n_dofs, seed=0, columns=12)
digest = hashlib.sha256()
for point in contour_nodes(region, region.side / 2.0)[::4]:
    digest.update(solve(factorize(fam.layout, fam.t_data(point)), probe).tobytes())
print(digest.hexdigest())
"""


def test_solves_independent_of_blas_threads():
    digests = stdout_under_blas_threads(_HASH_SOLVES)
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]

