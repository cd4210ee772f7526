"""The nested-dissection elimination order of Mesh.dissection_order and the
factorizations that use it.

The order is checked against its definition at the top level (the halves
split at the median of the longest axis, the separator, no edge between the
halves), the factored solves against scipy's spsolve, and the factor fill
against scipy's default (COLAMD) splu.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import tangent_plane_llg.mesh as mesh_mod
import tangent_plane_llg.precond as precond_mod
from tangent_plane_llg import (FIXED_INVOLUTIONS, SimulationConfig, StepContext,
                               assemble_mass, assemble_stiffness, build_frame,
                               build_theoretical, generate_structured_cube, tps_step)
from tangent_plane_llg.precond import ScalarFactorization

from conftest import UNIT_BOUNDS, random_unit_field, spd_in_order

ALPHA_P, BETA_K = 1.0, 0.1


def thin_film():
    """The strip of configs/mumag4_like.json."""
    return generate_structured_cube([[0, 100], [0, 25], [0, 3]], (20, 5, 1))


@pytest.fixture(scope="module")
def meshes(shuffled_cube):
    return {"cube6": generate_structured_cube(UNIT_BOUNDS, (6, 6, 6)),
            "shuffled_cube": shuffled_cube, "thin_film": thin_film()}


def scalar_matrix(mesh):
    return ALPHA_P * assemble_mass(mesh) + BETA_K * assemble_stiffness(mesh)


def ordered_k(mesh):
    """ALPHA_P M + BETA_K L of mesh in its dissection order."""
    return spd_in_order(assemble_mass(mesh), assemble_stiffness(mesh), ALPHA_P, BETA_K,
                        mesh.dissection_order())


def theoretical_matrix(mesh, frame):
    q = frame.as_sparse()
    return (q.T @ sp.kron(scalar_matrix(mesh), sp.identity(3, format="csr")) @ q).tocsc()


@pytest.mark.parametrize("name", ["cube6", "shuffled_cube", "thin_film"])
def test_order_is_a_read_only_permutation(meshes, name):
    mesh = meshes[name]
    order = mesh.dissection_order()
    assert np.array_equal(np.sort(order), np.arange(mesh.N))
    assert not order.flags.writeable
    assert mesh.dissection_order() is order


@pytest.mark.parametrize("kind", precond_mod.PRECONDITIONER_KINDS)
def test_order_is_computed_once_and_only_for_factorizations(kind, monkeypatch):
    calls = []
    nested_dissection = mesh_mod._nested_dissection
    monkeypatch.setattr(mesh_mod, "_nested_dissection",
                        lambda *args: calls.append(1) or nested_dissection(*args))
    mesh = generate_structured_cube(UNIT_BOUNDS, (3, 3, 3))
    assert not calls  # computed on first use, not by the mesh build
    cfg = SimulationConfig.from_dict({"T": 0.02, "k": 0.01, "precond": {"kind": kind}})
    ctx = StepContext(cfg, mesh=mesh)
    state = ctx.initial_state()
    for _ in range(2):  # theoretical factors in both steps
        state, _ = tps_step(ctx, state)
    assert len(calls) == (kind not in ("jacobi", "none"))


def top_level_split(mesh):
    """The halves and the separator of the whole mesh, by definition."""
    extent = mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)
    coord = mesh.nodes[:, np.argmax(extent)]
    median = np.sort(coord)[(mesh.N - 1) // 2]
    lower = coord < median
    if not lower.any():
        lower = coord <= median
    indptr, indices, _ = mesh.adjacency()
    rows = np.repeat(np.arange(mesh.N), np.diff(indptr))
    separator = np.zeros(mesh.N, dtype=bool)
    separator[rows[~lower[rows] & lower[indices]]] = True
    return lower, ~lower & ~separator, separator


@pytest.mark.parametrize("name", ["cube6", "shuffled_cube", "thin_film"])
def test_top_level_separator_splits_the_halves(meshes, name):
    mesh = meshes[name]
    order = mesh.dissection_order()
    lower, upper, separator = top_level_split(mesh)
    n_lower, n_sep = int(lower.sum()), int(separator.sum())
    assert n_lower > 0 and upper.any() and n_sep > 0
    # lower half first, the separator last
    assert np.array_equal(np.sort(order[:n_lower]), np.flatnonzero(lower))
    assert np.array_equal(np.sort(order[mesh.N - n_sep:]), np.flatnonzero(separator))
    # no adjacency edge joins the two halves
    indptr, indices, _ = mesh.adjacency()
    rows = np.repeat(np.arange(mesh.N), np.diff(indptr))
    assert not (lower[rows] & upper[indices]).any()
    assert not (upper[rows] & lower[indices]).any()


@pytest.mark.parametrize("name", ["cube6", "shuffled_cube", "thin_film"])
def test_scalar_solves_match_spsolve(meshes, name, rng):
    mesh = meshes[name]
    factor = ScalarFactorization(ordered_k(mesh), mesh.dissection_order())
    rhs = rng.standard_normal((mesh.N, 3))
    expected = spla.spsolve(scalar_matrix(mesh).tocsc(), rhs)
    x = factor.solve(rhs)
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("name", ["cube6", "shuffled_cube", "thin_film"])
def test_theoretical_solves_match_spsolve(meshes, name, rng):
    mesh = meshes[name]
    frame = build_frame(random_unit_field(mesh.N, seed=51), FIXED_INVOLUTIONS["t1+"])
    pc = build_theoretical(frame, ordered_k(mesh), mesh.dissection_order())
    for _ in range(3):
        r = rng.standard_normal(2 * mesh.N)
        expected = spla.spsolve(theoretical_matrix(mesh, frame), r)
        assert np.abs(pc.apply(r) - expected).max() <= 1e-12 * np.abs(expected).max()


def factored_fill(monkeypatch, build):
    """The fill (L + U nonzeros) of the one factorization build() makes."""
    fills = []
    splu = precond_mod.splu

    def counting(a, **options):
        lu = splu(a, **options)
        fills.append(lu.nnz)
        return lu

    with monkeypatch.context() as mp:
        mp.setattr(precond_mod, "splu", counting)
        build()
    assert len(fills) == 1
    return fills[0]


def test_fill_below_colamd_on_cube16(monkeypatch):
    """At cube n = 16 the nested-dissection factors of the scalar and the
    theoretical matrix hold at most 0.7x the nonzeros of scipy's default
    splu (COLAMD column order, partial pivoting)."""
    mesh = generate_structured_cube(UNIT_BOUNDS, (16, 16, 16))
    mass, stiffness = assemble_mass(mesh), assemble_stiffness(mesh)
    order = mesh.dissection_order()
    scalar = spd_in_order(mass, stiffness, ALPHA_P, BETA_K, order)
    fill = factored_fill(monkeypatch, lambda: ScalarFactorization(scalar, order))
    assert fill <= 0.7 * spla.splu(scalar_matrix(mesh).tocsc()).nnz

    frame = build_frame(random_unit_field(mesh.N, seed=52), FIXED_INVOLUTIONS["t3-"])
    fill = factored_fill(monkeypatch, lambda: build_theoretical(frame, scalar, order))
    inner = theoretical_matrix(mesh, frame)
    inner.eliminate_zeros()
    assert fill <= 0.7 * spla.splu(inner).nnz


def test_order_does_not_depend_on_node_numbering(shuffled_cube, monkeypatch):
    """The shuffled cube is eliminated through the same coordinates as the
    structured one, so its factor has the same fill."""
    cube = generate_structured_cube(UNIT_BOUNDS, (3, 3, 3))
    assert np.array_equal(shuffled_cube.nodes[shuffled_cube.dissection_order()],
                          cube.nodes[cube.dissection_order()])
    fills = [factored_fill(monkeypatch, lambda: ScalarFactorization(
        ordered_k(mesh), mesh.dissection_order())) for mesh in (cube, shuffled_cube)]
    assert abs(fills[1] - fills[0]) <= 0.05 * fills[0]


def test_coincident_nodes_end_the_dissection():
    """A subdomain whose nodes all coincide is a leaf, not split forever."""
    nodes = np.vstack([np.zeros((40, 3)), np.eye(3)])
    order = mesh_mod._nested_dissection(nodes, np.arange(44, dtype=np.int32),
                                        np.arange(43, dtype=np.int32))
    assert np.array_equal(np.sort(order), np.arange(43))
