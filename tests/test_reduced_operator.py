"""The reduced operator R = Q^T A Q, formed once per step as a CSR matrix.

Oracles: the dense congruence of the 3N system matrix, the matrix-free
product Q^T (A (Q x)) it replaces, the 2x2-block pattern of the mesh, and
the theoretical preconditioner that shares its congruence helper.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from tangent_plane_llg import (FIXED_INVOLUTIONS, SimulationConfig, apply_q, apply_qt,
                               assemble_mass, assemble_stiffness, build_frame,
                               build_system, build_theoretical, fem,
                               generate_structured_cube, precond, run_simulation)
from tangent_plane_llg.gmres import ReducedOperator
from tangent_plane_llg.tangent import FRAME_STRATEGIES

from conftest import UNIT_BOUNDS, random_unit_field, spd_in_order

ALPHA, BETA_K = 0.5, 0.1


@pytest.fixture(scope="module")
def cube3():
    return generate_structured_cube(UNIT_BOUNDS, (3, 3, 3))


@pytest.fixture(params=["cube3", "shuffled_cube"])
def mesh(request):
    return request.getfixturevalue(request.param)


def step_operator(mesh, strategy, tps2, seed=60):
    """The reduced operator of a system on mesh: tps1 (unit weight) or tps2
    (a positive weight per element), a random field and its frame."""
    rng = np.random.default_rng(seed)
    m = random_unit_field(mesh.N, seed=seed)
    weights = 0.5 + rng.random(mesh.elem_count) if tps2 else None
    system = build_system(mesh, m, ALPHA, BETA_K, weights, rng.standard_normal((mesh.N, 3)),
                          10.0, assemble_mass(mesh), assemble_stiffness(mesh))
    return ReducedOperator(system, build_frame(m, FIXED_INVOLUTIONS["t2+"], strategy))


@pytest.mark.parametrize("tps2", [False, True], ids=["tps1", "tps2"])
@pytest.mark.parametrize("strategy", FRAME_STRATEGIES)
def test_matrix_is_the_dense_congruence(mesh, strategy, tps2):
    op = step_operator(mesh, strategy, tps2)
    q = op.frame.as_sparse()
    expected = q.T @ op.system.dense_matrix() @ q
    assert np.abs(op.matrix.toarray() - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("tps2", [False, True], ids=["tps1", "tps2"])
@pytest.mark.parametrize("strategy", FRAME_STRATEGIES)
def test_matvec_matches_the_matrix_free_route(mesh, strategy, tps2, rng):
    op = step_operator(mesh, strategy, tps2)
    for _ in range(3):
        x = rng.standard_normal(op.n)
        expected = apply_qt(op.frame, op.system.apply(apply_q(op.frame, x)))
        assert np.abs(op.matvec(x) - expected).max() <= 1e-14 * np.abs(expected).max()


def test_pattern_is_the_adjacency_with_2x2_blocks(mesh):
    op = step_operator(mesh, "householder", tps2=True)
    indptr, indices, _ = mesh.adjacency()
    adjacency = sp.csr_array((np.ones(len(indices)), indices, indptr), shape=(mesh.N, mesh.N))
    expected = sp.kron(adjacency, np.ones((2, 2)), format="csr")
    expected.sort_indices()
    matrix = op.matrix
    assert isinstance(matrix, sp.csr_array) and matrix.shape == (op.n, op.n)
    assert matrix.nnz == 4 * len(indices)
    assert np.array_equal(matrix.indptr, expected.indptr)
    assert np.array_equal(matrix.indices, expected.indices)


def test_a_run_never_builds_the_3n_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("the 3N system matrix was built")

    monkeypatch.setattr(fem.AssembledSystem, "matrix", property(refuse))
    for kind in ("theoretical", "practical", "jacobi"):
        cfg = SimulationConfig.from_dict({
            "scheme": "tps2", "T": 0.02, "k": 0.01,
            "mesh": {"kind": "cube", "bounds": UNIT_BOUNDS, "n": [2, 2, 2]},
            "field": {"m0": {"kind": "spiral", "turns": 0.5}},
            "precond": {"kind": kind}})
        result = run_simulation(cfg)
        assert len(result.records) == 2 and all(s.converged for s in result.step_stats)


def test_theoretical_uses_the_shared_helper_and_inverts_the_dense_matrix(
        shuffled_cube, monkeypatch, rng):
    calls = []
    reduce_blocks = precond.reduce_blocks
    monkeypatch.setattr(precond, "reduce_blocks",
                        lambda *args: calls.append(args) or reduce_blocks(*args))
    mesh = shuffled_cube
    mass, stiffness = assemble_mass(mesh), assemble_stiffness(mesh)
    m = random_unit_field(mesh.N, seed=61)
    frame = build_frame(m, FIXED_INVOLUTIONS["t1-"])
    order = mesh.dissection_order()
    pc = build_theoretical(frame, spd_in_order(mass, stiffness, 1.0, BETA_K, order), order)
    assert len(calls) == 1
    q = frame.as_sparse()
    kron = sp.kron(mass + BETA_K * stiffness, sp.identity(3), format="csr")
    inverse = np.linalg.inv((q.T @ kron @ q).toarray())
    for _ in range(3):
        r = rng.standard_normal(2 * mesh.N)
        expected = inverse @ r
        assert np.linalg.norm(pc.apply(r) - expected) <= 1e-12 * np.linalg.norm(expected)
