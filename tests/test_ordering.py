"""The elimination orders of Mesh.dissection_order and Mesh.band_order and
the factorizations that use them.

The nested-dissection order is checked against its definition at the top
level (the halves split at the median of the longest axis, the separator,
no edge between the halves), and its SuperLU factor fill against scipy's
default (COLAMD) splu; the reverse Cuthill-McKee order against its band
width.  The factored solves, banded Cholesky and SuperLU, are checked
against scipy's spsolve.  The tests of the SuperLU path set BAND_BYTES to 0,
so that no matrix takes the band path.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import tangent_plane_llg.fem as fem_mod
import tangent_plane_llg.mesh as mesh_mod
import tangent_plane_llg.precond as precond_mod
from tangent_plane_llg import (FIXED_INVOLUTIONS, Mesh, SimulationConfig, StepContext,
                               assemble_mass, assemble_stiffness, build_frame,
                               build_theoretical, generate_structured_cube, tps_step)
from tangent_plane_llg.cli import main
from tangent_plane_llg.precond import PreconditionerError, ScalarFactorization

from conftest import UNIT_BOUNDS, random_unit_field, spd, spd_in_order

ALPHA_P, BETA_K = 1.0, 0.1


def thin_film():
    """The strip of configs/mumag4_like.json."""
    return generate_structured_cube([[0, 100], [0, 25], [0, 3]], (20, 5, 1))


@pytest.fixture(scope="module")
def meshes(shuffled_cube):
    # the boxes of N = 360 and 364 on both sides of the dense-inverse cap
    return {"cube6": generate_structured_cube(UNIT_BOUNDS, (6, 6, 6)),
            "cube8": generate_structured_cube(UNIT_BOUNDS, (8, 8, 8)),
            "shuffled_cube": shuffled_cube, "thin_film": thin_film(),
            "cap_box": generate_structured_cube(UNIT_BOUNDS, (7, 8, 4)),
            "above_cap_box": generate_structured_cube(UNIT_BOUNDS, (3, 6, 12))}


def scalar_matrix(mesh):
    return ALPHA_P * assemble_mass(mesh) + BETA_K * assemble_stiffness(mesh)


def ordered_k(mesh, order=None):
    """ALPHA_P M + BETA_K L of mesh in order, by default its dissection order."""
    if order is None:
        order = mesh.dissection_order()
    return spd_in_order(assemble_mass(mesh), assemble_stiffness(mesh), ALPHA_P, BETA_K, order)


def scalar_factorization(mesh):
    return ScalarFactorization(scalar_matrix(mesh).tocsr(), mesh.dissection_order())


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
    # no band fits, so every kind that factors uses the dissection order
    monkeypatch.setattr(precond_mod, "BAND_BYTES", 0)
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


@pytest.mark.parametrize("name", ["cube6", "shuffled_cube", "thin_film", "cap_box",
                                  "above_cap_box"])
def test_scalar_solves_match_spsolve(meshes, name, rng):
    mesh = meshes[name]
    factor = scalar_factorization(mesh)
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
    fill = factored_fill(monkeypatch, lambda: ScalarFactorization(
        spd(mass, stiffness, ALPHA_P, BETA_K), order))
    assert fill <= 0.7 * spla.splu(scalar_matrix(mesh).tocsc()).nnz

    frame = build_frame(random_unit_field(mesh.N, seed=52), FIXED_INVOLUTIONS["t3-"])
    scalar = spd_in_order(mass, stiffness, ALPHA_P, BETA_K, order)
    fill = factored_fill(monkeypatch, lambda: build_theoretical(frame, scalar, order))
    inner = theoretical_matrix(mesh, frame)
    inner.eliminate_zeros()
    assert fill <= 0.7 * spla.splu(inner).nnz


def shuffled(mesh, seed):
    """mesh with its node ids permuted."""
    ids = np.random.default_rng(seed).permutation(mesh.N)  # new id of every node
    nodes = np.empty_like(mesh.nodes)
    nodes[ids] = mesh.nodes
    return Mesh(nodes, ids[mesh.tets])


def test_order_does_not_depend_on_node_numbering(shuffled_cube, monkeypatch):
    """A shuffled cube is eliminated through the same coordinates as the
    structured one, so its factor has the same fill.  The fill is compared
    on cube n = 8, whose K is factored by SuperLU, not inverted densely."""
    monkeypatch.setattr(precond_mod, "BAND_BYTES", 0)
    cube = generate_structured_cube(UNIT_BOUNDS, (3, 3, 3))
    assert np.array_equal(shuffled_cube.nodes[shuffled_cube.dissection_order()],
                          cube.nodes[cube.dissection_order()])
    cube = generate_structured_cube(UNIT_BOUNDS, (8, 8, 8))
    shuffled_cube = shuffled(cube, seed=53)
    assert np.array_equal(shuffled_cube.nodes[shuffled_cube.dissection_order()],
                          cube.nodes[cube.dissection_order()])
    fills = [factored_fill(monkeypatch, lambda: scalar_factorization(mesh))
             for mesh in (cube, shuffled_cube)]
    assert abs(fills[1] - fills[0]) <= 0.05 * fills[0]


@pytest.mark.parametrize("name, dense", [("cap_box", True), ("above_cap_box", False)])
def test_dense_inverse_up_to_its_cap(meshes, name, dense, monkeypatch):
    """K^{-1} is formed densely, without splu, while it takes at most
    DENSE_INVERSE_BYTES (N <= 362, here N = 360); just above the cap, at
    N = 364, K is factored by one splu call (no band fits)."""
    monkeypatch.setattr(precond_mod, "BAND_BYTES", 0)
    mesh = meshes[name]
    assert (8 * mesh.N**2 <= precond_mod.DENSE_INVERSE_BYTES) == dense
    factored = []
    splu = precond_mod.splu
    monkeypatch.setattr(precond_mod, "splu",
                        lambda a, **options: factored.append(a) or splu(a, **options))
    scalar_factorization(mesh)
    assert len(factored) == (0 if dense else 1)


def test_coincident_nodes_end_the_dissection():
    """A subdomain whose nodes all coincide is a leaf, not split forever."""
    nodes = np.vstack([np.zeros((40, 3)), np.eye(3)])
    order = mesh_mod._nested_dissection(nodes, np.arange(44, dtype=np.int32),
                                        np.arange(43, dtype=np.int32))
    assert np.array_equal(np.sort(order), np.arange(43))


@pytest.mark.parametrize("name", ["cube6", "shuffled_cube", "thin_film"])
def test_band_order_is_read_only_and_its_width_is_the_band(meshes, name):
    mesh = meshes[name]
    order, width = mesh.band_order()
    assert np.array_equal(np.sort(order), np.arange(mesh.N))
    assert not order.flags.writeable
    assert mesh.band_order()[0] is order
    ordered = ordered_k(mesh, order).tocoo()
    assert width == np.abs(ordered.row - ordered.col).max()


@pytest.mark.parametrize("kind", ["theoretical", "stationary", "practical"])
def test_band_order_is_computed_once_per_mesh_and_dissection_not_at_all(kind, monkeypatch):
    """Two runs on cube n = 8 (N = 729, above the dense-inverse cap), whose
    band fits: one reverse Cuthill-McKee order, no nested dissection."""
    calls = {"band": 0, "dissection": 0}
    rcm, nested_dissection = mesh_mod.reverse_cuthill_mckee, mesh_mod._nested_dissection

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mesh_mod, "reverse_cuthill_mckee", counting("band", rcm))
    monkeypatch.setattr(mesh_mod, "_nested_dissection",
                        counting("dissection", nested_dissection))
    monkeypatch.setattr(precond_mod, "splu", None)  # the band path calls no SuperLU
    mesh = generate_structured_cube(UNIT_BOUNDS, (8, 8, 8))
    cfg = SimulationConfig.from_dict({"T": 0.01, "k": 0.01, "precond": {"kind": kind}})
    for _ in range(2):
        ctx = StepContext(cfg, mesh=mesh)
        tps_step(ctx, ctx.initial_state())
    assert calls == {"band": 1, "dissection": 0}


@pytest.mark.parametrize("name", ["above_cap_box", "cube8"])
def test_band_scalar_solves_match_spsolve(meshes, name, rng, monkeypatch):
    mesh = meshes[name]
    monkeypatch.setattr(precond_mod, "splu", None)  # the band path calls no SuperLU
    factor = ScalarFactorization(scalar_matrix(mesh).tocsr(), mesh.band_order()[0])
    rhs = rng.standard_normal((mesh.N, 3))
    expected = spla.spsolve(scalar_matrix(mesh).tocsc(), rhs)
    x = factor.solve(rhs)
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("name", ["thin_film", "above_cap_box", "cube8"])
def test_band_theoretical_solves_match_spsolve(meshes, name, rng, monkeypatch):
    mesh = meshes[name]
    monkeypatch.setattr(precond_mod, "splu", None)
    order = mesh.band_order()[0]
    frame = build_frame(random_unit_field(mesh.N, seed=54), FIXED_INVOLUTIONS["t1+"])
    pc = build_theoretical(frame, ordered_k(mesh, order), order)
    matrix = theoretical_matrix(mesh, frame)
    for _ in range(3):
        r = rng.standard_normal(2 * mesh.N)
        expected = spla.spsolve(matrix, r)
        assert np.abs(pc.apply(r) - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("kind", ["scalar", "theoretical"])
def test_band_bytes_boundary(meshes, kind, monkeypatch):
    """A matrix whose lower band takes exactly BAND_BYTES, 8 n (w + 1) bytes,
    is factored in band storage; one byte less, and it is factored by one
    splu call.  The theoretical matrix has n = 2N and w = 2 w_K + 1."""
    mesh = meshes["above_cap_box"]
    order, width = mesh.band_order()
    if kind == "scalar":
        n, w = mesh.N, width
        scalar = scalar_matrix(mesh).tocsr()
        build = lambda: ScalarFactorization(scalar, order)  # noqa: E731
    else:
        n, w = 2 * mesh.N, 2 * width + 1
        frame = build_frame(random_unit_field(mesh.N, seed=55), FIXED_INVOLUTIONS["t2+"])
        ordered = ordered_k(mesh, order)
        build = lambda: build_theoretical(frame, ordered, order)  # noqa: E731
    factored = []
    splu = precond_mod.splu
    monkeypatch.setattr(precond_mod, "splu",
                        lambda a, **options: factored.append(a) or splu(a, **options))
    for cap, splu_calls in ((8 * n * (w + 1), 0), (8 * n * (w + 1) - 1, 1)):
        monkeypatch.setattr(precond_mod, "BAND_BYTES", cap)
        factored.clear()
        build()
        assert len(factored) == splu_calls


@pytest.mark.parametrize("band", [True, False], ids=["band", "superlu"])
def test_factor_reads_only_the_lower_triangle(meshes, band, rng, monkeypatch):
    """_factor_spd ignores what lies above the diagonal: with the strict
    upper triangle overwritten by nonsymmetric values and one entry far
    outside the band, its solve is that of the symmetric matrix, returned
    in the caller's order."""
    mesh = meshes["above_cap_box"]
    if band:
        monkeypatch.setattr(precond_mod, "splu", None)  # the band path calls no SuperLU
        order = mesh.band_order()[0]
    else:
        monkeypatch.setattr(precond_mod, "BAND_BYTES", 0)
        order = mesh.dissection_order()
    symmetric = ordered_k(mesh, order)
    upper = sp.triu(symmetric, 1, format="csr")
    upper.data = rng.standard_normal(upper.nnz)
    corner = sp.csr_array(([1.0], ([0], [mesh.N - 1])), shape=symmetric.shape)
    scrambled = (sp.tril(symmetric) + upper + corner).tocsr()
    rhs = rng.standard_normal((mesh.N, 3))
    expected = precond_mod._factor_spd(symmetric, order, "symmetric")(rhs)
    x = precond_mod._factor_spd(scrambled, order, "scrambled")(rhs)
    assert np.abs(x - expected).max() <= 1e-13 * np.abs(expected).max()
    reference = spla.spsolve(scalar_matrix(mesh).tocsc(), rhs)
    assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()


def test_band_factor_of_a_matrix_that_is_not_spd_names_the_lapack_info(meshes, monkeypatch):
    mesh = meshes["above_cap_box"]
    monkeypatch.setattr(precond_mod, "splu", None)
    order = mesh.band_order()[0]
    negated = -1.0 * scalar_matrix(mesh).tocsr()
    with pytest.raises(PreconditionerError, match=r"scalar operator factorization failed "
                                                  r"\(SPD lost\?\): LAPACK info 1$"):
        ScalarFactorization(negated, order)
    frame = build_frame(random_unit_field(mesh.N, seed=56), FIXED_INVOLUTIONS["t3-"])
    with pytest.raises(PreconditionerError, match="theoretical preconditioner .* LAPACK info 1$"):
        build_theoretical(frame, negated[order][:, order], order)


def test_run_whose_band_factor_fails_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    """A negated mass matrix makes K = alpha_P M + beta_k L indefinite: the
    theoretical factorization of step 0 fails in band storage, and the run
    exits 3."""
    mass = fem_mod.assemble_mass
    monkeypatch.setattr(fem_mod, "assemble_mass", lambda mesh: -1.0 * mass(mesh))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "T": 0.01, "k": 0.01, "precond": {"kind": "theoretical"},
        "mesh": {"kind": "cube", "bounds": UNIT_BOUNDS, "n": [3, 3, 3]}}))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "step 0: theoretical preconditioner factorization failed" in err
    assert "LAPACK info" in err
