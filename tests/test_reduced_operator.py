"""The reduced operator R = Q^T A Q, formed once per step as a CSR matrix.

Oracles: the dense congruence of the 3N system matrix, the matrix-free
product Q^T (A (Q x)) it replaces, the 2x2-block pattern of the mesh, the
slot-by-slot congruence of tests/loop_reference.py (bit for bit), and the
theoretical preconditioner that shares its congruence kernel.  The
congruence checks run on build_frame's Householder frame and on the two
other orthonormal tangent frames of loop_reference.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import loop_reference as ref
from tangent_plane_llg import (FIXED_INVOLUTIONS, SimulationConfig, TangentFrame, apply_q,
                               apply_qt, assemble_mass, assemble_stiffness, build_frame,
                               build_system, build_theoretical, fem,
                               generate_structured_cube, gmres, load_mesh, precond,
                               run_simulation, save_mesh, scheme)
from tangent_plane_llg.gmres import ReducedOperator
from tangent_plane_llg.tangent import reduced_pattern

from conftest import UNIT_BOUNDS, k_slots, random_unit_field

ALPHA, BETA_K = 0.5, 0.1


@pytest.fixture(scope="module")
def cube3():
    return generate_structured_cube(UNIT_BOUNDS, (3, 3, 3))


@pytest.fixture(scope="module")
def file_mesh(perturbed_cube):
    """The perturbed cube, elements of unequal volume, read back from JSON."""
    return load_mesh(save_mesh(perturbed_cube))


@pytest.fixture(params=["cube3", "shuffled_cube", "file_mesh"])
def mesh(request):
    return request.getfixturevalue(request.param)


def tangent_frame(m, T, frame):
    """build_frame's Householder frame, or another orthonormal tangent frame
    of loop_reference: the reduced operator must hold for any."""
    if frame == "householder":
        return build_frame(m, T)
    return TangentFrame(ref.frame_blocks(m, T, frame))


def step_operator(mesh, frame, tps2, seed=60):
    """The reduced operator of a system on mesh: tps1 (unit weight) or tps2
    (a positive weight per element), a random field and its frame."""
    rng = np.random.default_rng(seed)
    m = random_unit_field(mesh.N, seed=seed)
    weights = 0.5 + rng.random(mesh.elem_count) if tps2 else None
    system = build_system(mesh, m, ALPHA, BETA_K, weights, rng.standard_normal((mesh.N, 3)),
                          10.0, assemble_mass(mesh), assemble_stiffness(mesh))
    return ReducedOperator(system, tangent_frame(m, FIXED_INVOLUTIONS["t2+"], frame))


@pytest.mark.parametrize("tps2", [False, True], ids=["tps1", "tps2"])
@pytest.mark.parametrize("frame", ref.FRAMES)
def test_matrix_is_the_dense_congruence(mesh, frame, tps2):
    op = step_operator(mesh, frame, tps2)
    q = op.frame.as_sparse()
    expected = q.T @ op.system.dense_matrix() @ q
    assert np.abs(op.matrix.toarray() - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("tps2", [False, True], ids=["tps1", "tps2"])
@pytest.mark.parametrize("frame", ref.FRAMES)
def test_matvec_matches_the_matrix_free_route(mesh, frame, tps2, rng):
    op = step_operator(mesh, frame, tps2)
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


@pytest.mark.parametrize("tps2", [False, True], ids=["tps1", "tps2"])
@pytest.mark.parametrize("frame", ref.FRAMES)
def test_matrix_matches_the_slotwise_reference(mesh, frame, tps2):
    """R, formed once per node pair straight into CSR, is the slot-by-slot
    congruence converted from BSR, bit for bit, and canonical CSR."""
    op = step_operator(mesh, frame, tps2)
    s = op.system
    indptr, indices, _ = mesh.adjacency()
    expected = ref.reduce_blocks(op.frame.blocks, indptr, indices, s.scalar, s.moments)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(op.matrix, name), getattr(expected, name)), name
    assert op.matrix.has_canonical_format


@pytest.mark.parametrize("ordering", ["band", "dissection"])
@pytest.mark.parametrize("frame", ref.FRAMES)
def test_theoretical_matrix_matches_the_slotwise_reference(mesh, frame, ordering,
                                                           monkeypatch):
    """build_theoretical hands _factor_spd the slot-by-slot congruence of
    K (x) I_3 in node order (the reference without moments), bit for bit,
    with the two unknowns of node order[i] eliminated at 2i and 2i + 1."""
    factored = []
    factor_spd = precond._factor_spd
    monkeypatch.setattr(precond, "_factor_spd",
                        lambda *args: factored.append(args) or factor_spd(*args))
    order = mesh.band_order()[0] if ordering == "band" else mesh.dissection_order()
    q = tangent_frame(random_unit_field(mesh.N, seed=62), FIXED_INVOLUTIONS["t3+"], frame)
    scalar = k_slots(mesh, 1.0, BETA_K)
    build_theoretical(q, mesh, scalar, order)
    indptr, indices, _ = mesh.adjacency()
    expected = ref.reduce_blocks(q.blocks, indptr, indices, scalar)
    (matrix, dofs, _), = factored
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(matrix, name), getattr(expected, name)), name
    assert matrix.has_canonical_format
    assert np.array_equal(dofs, np.stack([2 * order, 2 * order + 1], axis=1).ravel())


def test_theoretical_matrix_is_the_reduced_matrix_without_moments(mesh, monkeypatch):
    """The matrix build_theoretical factors is, bit for bit, the R of a
    system with K's scalar values and zero cross moments."""
    factored = []
    factor_spd = precond._factor_spd
    monkeypatch.setattr(precond, "_factor_spd",
                        lambda a, *args: factored.append(a) or factor_spd(a, *args))
    op = step_operator(mesh, "householder", tps2=True)
    scalar = k_slots(mesh, 1.0, BETA_K)
    build_theoretical(op.frame, mesh, scalar, mesh.band_order()[0])
    system = dataclasses.replace(op.system, scalar=scalar,
                                 moments=np.zeros_like(op.system.moments))
    expected = ReducedOperator(system, op.frame).matrix
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(factored[0], name), getattr(expected, name)), name


def test_every_step_shares_the_mesh_structure(monkeypatch):
    """The R of every step is data on the mesh's one read-only index
    structure; scipy keeps indptr itself and a full-length view of indices."""
    ops = []
    monkeypatch.setattr(scheme, "ReducedOperator",
                        lambda *args: ops.append(ReducedOperator(*args)) or ops[-1])
    cfg = SimulationConfig.from_dict({
        "scheme": "tps2", "T": 0.03, "k": 0.01,
        "mesh": {"kind": "cube", "bounds": UNIT_BOUNDS, "n": [2, 2, 2]},
        "field": {"m0": {"kind": "spiral", "turns": 0.5}}})
    result = run_simulation(cfg)
    indptr, indices, _ = reduced_pattern(result.mesh)
    assert len(ops) == 3
    for op in ops:
        assert op.matrix.indptr is indptr and op.matrix.indices.base is indices
    assert not (indptr.flags.writeable or indices.flags.writeable)


def test_theoretical_uses_the_shared_helper_and_inverts_the_dense_matrix(
        shuffled_cube, monkeypatch, rng):
    calls = []
    reduced_matrix = precond.reduced_matrix
    monkeypatch.setattr(precond, "reduced_matrix",
                        lambda *args: calls.append(args) or reduced_matrix(*args))
    assert gmres.reduced_matrix is reduced_matrix
    mesh = shuffled_cube
    mass, stiffness = assemble_mass(mesh), assemble_stiffness(mesh)
    m = random_unit_field(mesh.N, seed=61)
    frame = build_frame(m, FIXED_INVOLUTIONS["t1-"])
    order = mesh.dissection_order()
    pc = build_theoretical(frame, mesh, k_slots(mesh, 1.0, BETA_K), order)
    assert len(calls) == 1
    q = frame.as_sparse()
    kron = sp.kron(mass + BETA_K * stiffness, sp.identity(3), format="csr")
    inverse = np.linalg.inv((q.T @ kron @ q).toarray())
    for _ in range(3):
        r = rng.standard_normal(2 * mesh.N)
        expected = inverse @ r
        assert np.linalg.norm(pc.apply(r) - expected) <= 1e-12 * np.linalg.norm(expected)
