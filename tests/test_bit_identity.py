"""The batched frames, mesh build and assembly against their loop forms.

At a GMRES tolerance of 1e-14 the iteration counts react to the last bit of
the assembled matrices, so the vectorized code must reproduce the loop
implementations of loop_reference exactly (np.array_equal), not within a
tolerance.  Assembly sums every entry of the mesh's node-adjacency pattern
element by element in element order, so the cross moments, expanded to the
3x3 blocks of the cross form, equal the closed-form cubic moments summed one
element at a time, and the 3x3-block system matrix equals its kron form bit
for bit.  The closed form
itself is checked against the 5-index element tensor of the cubic moments,
to rounding.  The block layout is also checked on a mesh whose node ids,
element order and orientations are shuffled (the shuffled_cube fixture of
conftest).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import loop_reference as ref
from tangent_plane_llg import (FIXED_INVOLUTIONS, Mesh, MeshError, SimulationConfig,
                               StepContext, assemble_mass,
                               assemble_stiffness, assemble_weighted_mass, build_frame,
                               build_system, build_theoretical, generate_structured_cube,
                               load_mesh, save_mesh, tps_step)
import tangent_plane_llg.mesh as mesh_mod
import tangent_plane_llg.precond as precond_mod
import tangent_plane_llg.scheme as scheme_mod
from tangent_plane_llg.mesh import _check_conforming
from tangent_plane_llg.tangent import FrameError

from conftest import (UNIT_BOUNDS, cross_form, factored_lower, k_slots, perturbed_unit_cube,
                      random_unit_field)
from oracles import dense_oracle_solve

SIGNED_AXES = np.vstack([np.eye(3), -np.eye(3)])
E3 = np.array([0.0, 0.0, 1.0])


def unit_rows(m):
    return m / np.linalg.norm(m, axis=1)[:, None]


def frame_fields():
    rng = np.random.default_rng(41)
    # offsets from 1e-12 to 1e-6, into the near-pole branch of the
    # reflection vector (1 + m_3 < 1e-6)
    scale = 10.0 ** rng.uniform(-12, -6, (600, 1))
    near = SIGNED_AXES[rng.integers(0, 6, 600)] + scale * rng.standard_normal((600, 3))
    exact = SIGNED_AXES[rng.integers(0, 6, 60)]
    # offsets from 1e-160 to 1e-12, across the pole guard (1e-15) and down
    # to where |w|^2 underflows
    scale = 10.0 ** rng.uniform(-160, -12, (200, 1))
    guard = SIGNED_AXES[rng.integers(0, 6, 200)] + scale * rng.standard_normal((200, 3))
    return {
        "random": random_unit_field(2000, seed=42),
        "signed_axes": np.vstack([SIGNED_AXES, [[-0.0, 0.0, -1.0], [0.0, -0.0, 1.0]]]),
        "near_axes": np.vstack([exact, unit_rows(near), unit_rows(guard)]),
    }


# build_frame is the loop's Householder frame; the other frames of
# loop_reference have no library form
@pytest.mark.parametrize("frame", ["householder"])
@pytest.mark.parametrize("key", sorted(FIXED_INVOLUTIONS))
@pytest.mark.parametrize("field", ["random", "signed_axes", "near_axes"])
def test_frames_match_nodal_loop(frame, key, field):
    m = frame_fields()[field]
    T = FIXED_INVOLUTIONS[key]
    assert np.array_equal(build_frame(m, key).blocks, ref.frame_blocks(m, T, frame))


def test_frame_unit_error_names_first_failing_node():
    m = random_unit_field(50, seed=43)
    m[[17, 31]] *= 1.0 + 1e-9
    with pytest.raises(ref.LoopError) as loop_err:
        ref.frame_blocks(m, FIXED_INVOLUTIONS["t2+"])
    with pytest.raises(FrameError) as err:
        build_frame(m, "t2+")
    assert str(err.value) == str(loop_err.value)
    assert str(err.value).startswith("node 17: ")


def _near_axis_vectors():
    axis = st.sampled_from([tuple(v) for v in SIGNED_AXES])
    # offsets of size 1e-12 to 1e-6
    offset = st.builds(lambda v, e: np.multiply(v, 10.0 ** e),
                       st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.floats(-12.0, -6.0))
    near = st.builds(np.add, axis, offset)
    free = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.dot(v, v) > 1e-6)
    vec = st.one_of(axis.map(np.array), near, free.map(np.array))
    return vec.map(lambda v: v / np.linalg.norm(v))


@settings(max_examples=150, deadline=None)
@given(st.lists(_near_axis_vectors(), min_size=1, max_size=12),
       st.sampled_from(sorted(FIXED_INVOLUTIONS)))
# 5e-8 off -e3: 1 + m_3 from the rounded m_3 tilted this frame by 5.6e-9;
# 2e-9 off -e3 lies above the pole guard, where the exact frame would tilt
# by 2e-9
@example(list(unit_rows(np.array([[5e-8, 0.0, -1.0]]))), "t3-")
@example(list(unit_rows(np.array([[2e-9, 0.0, -1.0]]))), "t3-")
def test_batched_frames_property(vectors, key):
    m = np.array(vectors)
    T = FIXED_INVOLUTIONS[key]
    blocks = build_frame(m, key).blocks
    gram = np.einsum("npi,npj->nij", blocks, blocks)
    assert np.abs(gram - np.eye(2)).max() <= 1e-13
    # tangent to m.  Within 2e-6 of a signed axis the columns are off m-perp
    # by at most 2e-15: below the pole guard of 1e-15 the frame is exactly
    # T [e1, e2], off m-perp by less than the guard.  Elsewhere the
    # reflection loses accuracy as eps / d within d of its pole, T m = -e3
    mt = m @ T.T
    tilt = np.abs(np.einsum("npi,np->ni", blocks, m)).max(axis=1)
    near = np.linalg.norm(m[:, None, :] - SIGNED_AXES, axis=2).min(axis=1) <= 2e-6
    assert (tilt[near] <= 2e-15).all()
    d = np.linalg.norm(mt + E3, axis=1)
    assert (tilt <= 1e-13 + 2e-15 / np.maximum(d, 1e-300)).all()
    # pole branch: where T m = -e3 exactly the reflection degenerates and
    # the frame is T [e1, e2]
    pole = np.all(mt == [0.0, 0.0, -1.0], axis=1)
    assert np.array_equal(blocks[pole], np.broadcast_to(T[:, :2], blocks[pole].shape))


@pytest.mark.parametrize("n", [(1, 1, 1), (2, 2, 2), (3, 1, 2), (2, 5, 3), (7, 7, 7)])
def test_cube_tets_match_element_loop(n, monkeypatch):
    # the connectivity handed to Mesh, before orientation is normalized
    built = []
    monkeypatch.setattr(mesh_mod, "Mesh", lambda nodes, tets: built.append(tets))
    generate_structured_cube(UNIT_BOUNDS, n)
    assert built[0].dtype == np.int64
    assert np.array_equal(built[0], ref.cube_tets(n))


def _mesh_error(nodes, tets):
    try:
        Mesh(nodes, tets)
    except MeshError as exc:
        return str(exc)
    return None


def test_mesh_checks_report_the_loops_first_element():
    cube = generate_structured_cube(UNIT_BOUNDS, (3, 3, 3))
    rng = np.random.default_rng(44)
    for trial in range(60):
        tets = cube.tets.copy()
        if trial % 2:
            # elements repeated at random places: some face is seen three times
            picks = rng.integers(0, len(tets), rng.integers(1, 4))
            tets = np.insert(tets, rng.integers(0, len(tets), len(picks)), tets[picks], axis=0)
        else:
            bad = rng.integers(0, len(tets), 3)
            tets[bad, rng.integers(0, 4, 3)] = tets[bad, rng.integers(0, 4, 3)]
        expected = ref.mesh_check_message(tets)
        assert _mesh_error(cube.nodes, tets) == expected, trial


def test_conformity_check_with_large_node_ids():
    # beyond 2**21 nodes the scalar face keys would overflow int64
    tets = generate_structured_cube(UNIT_BOUNDS, (2, 2, 2)).tets + 3_000_000
    _check_conforming(tets)
    tets = np.vstack([tets, tets[[9, 30]]])
    with pytest.raises(MeshError) as err:
        _check_conforming(tets)
    assert str(err.value) == ref.mesh_check_message(tets)


@pytest.mark.parametrize("name", ["perturbed", "file"])
def test_node_pairs_and_static_matrices_match_element_loops(name, shuffled_cube, tmp_path):
    """The one-sort pair numbering equals the per-element dict loop, and M,
    L and M_k summed per pair equal the 16-slot scatter of the (M, 4, 4)
    local matrices, array for array: on a perturbed cube, and on the
    shuffled cube written to a file and read back."""
    if name == "perturbed":
        mesh = perturbed_unit_cube(4, seed=60)
    else:
        path = tmp_path / "mesh.json"
        path.write_bytes(save_mesh(shuffled_cube))
        with path.open("rb") as source:
            mesh = load_mesh(source)
    pairs = mesh.node_pairs()
    *arrays, incidence = ref.node_pairs(mesh)
    for field, expected in zip(pairs._fields, arrays):
        assert np.array_equal(getattr(pairs, field), expected), field
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(pairs.incidence, field), getattr(incidence, field)), field

    vol, grad = mesh.element_geometry()
    local_mass = (np.ones((4, 4)) + np.eye(4)) / 20.0
    stiffness = np.empty((mesh.elem_count, 4, 4))
    for a in range(4):
        for b in range(4):
            ga, gb = grad[:, a], grad[:, b]
            stiffness[:, a, b] = vol * (ga[:, 0] * gb[:, 0] + ga[:, 1] * gb[:, 1]
                                        + ga[:, 2] * gb[:, 2])
    weights = np.random.default_rng(61).uniform(0.5, 2.0, mesh.elem_count)
    for matrix, local in ((assemble_mass(mesh), vol[:, None, None] * local_mass),
                          (assemble_stiffness(mesh), stiffness),
                          (assemble_weighted_mass(mesh, weights),
                           (weights * vol)[:, None, None] * local_mass)):
        expected = ref.scatter_16(mesh, local)
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(matrix, field), getattr(expected, field)), field


def _cross_fields(n_nodes):
    planar = random_unit_field(n_nodes, seed=45)
    planar[:, 2] = 0.0
    planar = unit_rows(planar)
    planar[::3] = [0.0, 0.0, -1.0]
    return [random_unit_field(n_nodes, seed=46), planar,
            np.tile([0.0, 0.0, 1.0], (n_nodes, 1))]


@pytest.mark.parametrize("n", [(1, 1, 1), (2, 3, 4), (6, 6, 6)])
def test_cross_csr_arrays_match_element_tensor(n):
    mesh = generate_structured_cube(UNIT_BOUNDS, n)
    for m in _cross_fields(mesh.N):
        new = cross_form(mesh, m)
        for name, old in zip(("indptr", "indices", "data"), ref.assemble_cross(mesh, m)):
            assert np.array_equal(getattr(new, name), old), name


def test_perturbed_mesh_cross_matches_element_loop(perturbed_cube):
    # elements of unequal volume: the volume sums of the node pairs differ
    for m in _cross_fields(perturbed_cube.N):
        new = cross_form(perturbed_cube, m)
        assert (new + new.T).nnz == 0
        for name, old in zip(("indptr", "indices", "data"),
                             ref.assemble_cross(perturbed_cube, m)):
            assert np.array_equal(getattr(new, name), old), name


@pytest.mark.parametrize("name", ["cube2", "shuffled_cube", "perturbed_cube"])
def test_cross_closed_form_matches_cubic_moment_tensor(request, name):
    mesh = request.getfixturevalue(name)
    for m in _cross_fields(mesh.N):
        new = cross_form(mesh, m)
        indptr, indices, blocks = ref.assemble_cross_tensor(mesh, m)
        assert np.array_equal(new.indptr, indptr) and np.array_equal(new.indices, indices)
        assert np.abs(new.data - blocks).max() <= 2e-15 * np.abs(blocks).max()


def _kron_form(mesh, m, alpha, beta_k, weights):
    """alpha (M_k x I_3) + beta_k (L x I_3) - S from separately assembled parts."""
    eye3 = sp.identity(3, format="csr")
    mk = assemble_mass(mesh) if weights is None else assemble_weighted_mass(mesh, weights)
    return (alpha * sp.kron(mk, eye3, format="csr")
            + beta_k * sp.kron(assemble_stiffness(mesh), eye3, format="csr")
            - cross_form(mesh, m)).toarray()


def test_tps1_weighted_mass_is_mass_and_applies_like_kron(cube2, rng):
    mass = assemble_mass(cube2)
    assert (assemble_weighted_mass(cube2, np.ones(cube2.elem_count)) != mass).nnz == 0
    m = random_unit_field(cube2.N, seed=47)
    lh = rng.standard_normal((cube2.N, 3))
    weights = 0.5 + rng.random(cube2.elem_count)
    for w in (None, weights):
        sys_ = build_system(cube2, m, 0.5, 0.1, w, lh, 10.0, mass, assemble_stiffness(cube2))
        dense = sys_.dense_matrix()
        assert np.array_equal(dense, _kron_form(cube2, m, 0.5, 0.1, w))
        v = rng.standard_normal(3 * cube2.N)
        assert np.abs(sys_.apply(v) - dense @ v).max() <= 1e-14 * np.abs(dense @ v).max()


def test_shuffled_mesh_cross_matches_element_tensor(shuffled_cube):
    for m in _cross_fields(shuffled_cube.N):
        new = cross_form(shuffled_cube, m)
        assert (new + new.T).nnz == 0
        for name, old in zip(("indptr", "indices", "data"),
                             ref.assemble_cross(shuffled_cube, m)):
            assert np.array_equal(getattr(new, name), old), name


def test_shuffled_mesh_system_matrix_is_kron_form(shuffled_cube, rng):
    m = random_unit_field(shuffled_cube.N, seed=49)
    weights = 0.5 + rng.random(shuffled_cube.elem_count)
    sys_ = build_system(shuffled_cube, m, 0.5, 0.1, weights, np.zeros((shuffled_cube.N, 3)),
                        10.0, assemble_mass(shuffled_cube), assemble_stiffness(shuffled_cube))
    assert np.array_equal(sys_.dense_matrix(), _kron_form(shuffled_cube, m, 0.5, 0.1, weights))


def test_shuffled_mesh_theoretical_blocks_match_kron(shuffled_cube, monkeypatch):
    """The matrix build_theoretical hands to _factor_spd, in band storage
    and, with no band fitting, for SuperLU: Q^T (K (x) I_3) Q in node order,
    every 2x2 block on the mesh pattern, factored with the node pairs (2p,
    2p + 1) in the band or the dissection order."""
    factored = []
    factor_spd = precond_mod._factor_spd
    monkeypatch.setattr(precond_mod, "_factor_spd",
                        lambda *args: factored.append(args) or factor_spd(*args))
    lower = factored_lower(monkeypatch)
    mass, stiffness = assemble_mass(shuffled_cube), assemble_stiffness(shuffled_cube)
    m = random_unit_field(shuffled_cube.N, seed=50)
    frame = build_frame(m, "t2-")
    q = frame.as_sparse()
    kron = sp.kron(1.0 * mass + 0.1 * stiffness, sp.identity(3, format="csr"))
    expected = (q.T @ kron @ q).toarray()
    for band_bytes, order in ((precond_mod.BAND_BYTES, shuffled_cube.band_order()[0]),
                              (0, shuffled_cube.dissection_order())):
        monkeypatch.setattr(precond_mod, "BAND_BYTES", band_bytes)
        factored.clear()
        lower.clear()
        build_theoretical(frame, shuffled_cube, k_slots(shuffled_cube, 1.0, 0.1))
        (matrix, _, _), = factored
        error = np.abs(matrix.toarray() - expected).max()
        assert error <= 1e-14 * np.abs(expected).max()
        assert matrix.nnz == 4 * len(shuffled_cube.node_pairs().indices)
        dofs = (2 * order[:, None] + np.arange(2)).ravel()
        assert np.array_equal(lower, [np.tril(matrix.toarray()[np.ix_(dofs, dofs)])])


def test_shuffled_mesh_tps2_step_matches_dense_oracle(shuffled_cube, monkeypatch):
    solves = []
    gmres_solve = scheme_mod.gmres_solve

    def capture(op, precond, b, **kwargs):
        x, stats = gmres_solve(op, precond, b, **kwargs)
        solves.append((op, x))
        return x, stats

    monkeypatch.setattr(scheme_mod, "gmres_solve", capture)
    cfg = SimulationConfig.from_dict({
        "scheme": "tps2", "T": 0.01, "k": 0.01,
        "field": {"m0": {"kind": "spiral", "turns": 0.5}},
        "precond": {"kind": "theoretical"}})
    ctx = StepContext(cfg, mesh=shuffled_cube)
    tps_step(ctx, ctx.initial_state())
    op, x = solves[0]
    x_dense, _ = dense_oracle_solve(op.system, op.frame)
    assert np.linalg.norm(x - x_dense) <= 1e-10 * np.linalg.norm(x_dense)
