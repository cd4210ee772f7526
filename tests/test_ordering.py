"""The elimination orders of Mesh.dissection_order and Mesh.band_order and
the factorizations that use them.

The nested-dissection order is checked against its definition at the top
level (the halves split at the median of the longest axis, the separator,
no edge between the halves), pinned at every level by digests of the
whole order on a few meshes, and its SuperLU factor fill against scipy's
default (COLAMD) splu; the reverse Cuthill-McKee order against its band
width.  The factored solves, banded Cholesky and SuperLU, are checked
against scipy's spsolve.  The tests of the SuperLU path set BAND_BYTES to 0,
so that no matrix takes the band path.
"""

import hashlib
import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import tangent_plane_llg.fem as fem_mod
import tangent_plane_llg.mesh as mesh_mod
import tangent_plane_llg.precond as precond_mod
from tangent_plane_llg import (Mesh, SimulationConfig, StepContext, assemble_mass,
                               assemble_stiffness, build_frame, build_theoretical,
                               generate_structured_cube, run_simulation, tps_step)
from tangent_plane_llg.cli import main
from tangent_plane_llg.precond import PreconditionerError, ScalarFactorization

from conftest import UNIT_BOUNDS, k_slots, random_unit_field, spd

ALPHA_P, BETA_K = 1.0, 0.1


def thin_film():
    """The strip of configs/mumag4_like.json."""
    return generate_structured_cube([[0, 100], [0, 25], [0, 3]], (20, 5, 1))


@pytest.fixture(scope="module")
def meshes(shuffled_cube, perturbed_cube):
    # the boxes of N = 360 and 364 on both sides of the dense-inverse cap;
    # the tie box has x and y of equal extent and its grid coordinates tie
    # at every median
    return {"cube6": generate_structured_cube(UNIT_BOUNDS, (6, 6, 6)),
            "cube8": generate_structured_cube(UNIT_BOUNDS, (8, 8, 8)),
            "cube12": generate_structured_cube(UNIT_BOUNDS, (12, 12, 12)),
            "shuffled_cube": shuffled_cube, "perturbed_cube": perturbed_cube,
            "thin_film": thin_film(),
            "tie_box": generate_structured_cube([[0, 2], [0, 2], [0, 1]], (5, 5, 8)),
            "cap_box": generate_structured_cube(UNIT_BOUNDS, (7, 8, 4)),
            "above_cap_box": generate_structured_cube(UNIT_BOUNDS, (3, 6, 12))}


def scalar_matrix(mesh):
    return ALPHA_P * assemble_mass(mesh) + BETA_K * assemble_stiffness(mesh)


def scalar_factorization(mesh):
    return ScalarFactorization(scalar_matrix(mesh).tocsr(), mesh)


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
    # no band fits, so every factor uses the dissection order; K of these 64
    # nodes is inverted in node order, so only theoretical factors
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
    assert len(calls) == (kind == "theoretical")


def top_level_split(mesh):
    """The halves and the separator of the whole mesh, by definition."""
    extent = mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)
    coord = mesh.nodes[:, np.argmax(extent)]
    median = np.sort(coord)[(mesh.N - 1) // 2]
    lower = coord < median
    if not lower.any():
        lower = coord <= median
    indptr, indices = mesh.node_pairs()[:2]
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
    indptr, indices = mesh.node_pairs()[:2]
    rows = np.repeat(np.arange(mesh.N), np.diff(indptr))
    assert not (lower[rows] & upper[indices]).any()
    assert not (upper[rows] & lower[indices]).any()


# sha256 of dissection_order() as little-endian int64: the whole order, so
# every level of the recursion, every separator and every leaf is pinned
DISSECTION_DIGESTS = {
    "cube6": "603edc31466ede9fd47ea4081502bd3fbdeaeff51b2f9759b7f64c3925f026c8",
    "cube12": "00e89f283d5d880b4be3f2e3dc824bce4109a34708f9e037c3ef39120e4d862c",
    "thin_film": "03c1573b7e3447c6467a5aeaa03ebc6529d0e64f16cb6b6fb01b6d544deb33ef",
    "shuffled_cube": "29fde5b5e3d68f5d224c9cc6cd26d535f75b3f4ed23319dc68780fdc6980aae0",
    "perturbed_cube": "e36c7f38c429d60ea858015ee56c5235a3bcc6e1c957514aeba303ab1e7b4dae",
    "tie_box": "bb07af69e06392107f1f7ce2700c764ad19549d1cd46f66d3080e3243cb4aa5e",
}


@pytest.mark.parametrize("name", sorted(DISSECTION_DIGESTS))
def test_dissection_order_is_pinned(meshes, name):
    order = meshes[name].dissection_order()
    digest = hashlib.sha256(order.astype("<i8").tobytes()).hexdigest()
    assert digest == DISSECTION_DIGESTS[name]


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
    frame = build_frame(random_unit_field(mesh.N, seed=51), "t1+")
    pc = build_theoretical(frame, mesh, k_slots(mesh, ALPHA_P, BETA_K))
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
    monkeypatch.setattr(precond_mod, "BAND_BYTES", 0)
    mesh = generate_structured_cube(UNIT_BOUNDS, (16, 16, 16))
    mass, stiffness = assemble_mass(mesh), assemble_stiffness(mesh)
    fill = factored_fill(monkeypatch, lambda: ScalarFactorization(
        spd(mass, stiffness, ALPHA_P, BETA_K), mesh))
    assert fill <= 0.7 * spla.splu(scalar_matrix(mesh).tocsc()).nnz

    frame = build_frame(random_unit_field(mesh.N, seed=52), "t3-")
    scalar = k_slots(mesh, ALPHA_P, BETA_K)
    fill = factored_fill(monkeypatch, lambda: build_theoretical(frame, mesh, scalar))
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dense_inverse_only_for_one_unknown_per_node(n, monkeypatch):
    """On cube n = 2, 3, 4 the inverse of the 2N x 2N theoretical matrix
    would take at most DENSE_INVERSE_BYTES, yet that matrix is factored in
    band storage: only K, one unknown per node, is inverted."""
    mesh = generate_structured_cube(UNIT_BOUNDS, (n, n, n))
    assert 8 * (2 * mesh.N) ** 2 <= precond_mod.DENSE_INVERSE_BYTES
    inverted, banded = [], []
    spd_inverse, dpbtrf = precond_mod._spd_inverse, precond_mod.lapack.dpbtrf
    monkeypatch.setattr(precond_mod, "_spd_inverse",
                        lambda a, what: inverted.append(what) or spd_inverse(a, what))
    monkeypatch.setattr(precond_mod.lapack, "dpbtrf",
                        lambda band, **options: banded.append(band.shape[1])
                        or dpbtrf(band, **options))
    frame = build_frame(random_unit_field(mesh.N, seed=57), "t1+")
    build_theoretical(frame, mesh, k_slots(mesh, ALPHA_P, BETA_K))
    assert inverted == [] and banded == [2 * mesh.N]
    scalar_factorization(mesh)
    assert inverted == ["scalar operator"] and banded == [2 * mesh.N]


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
    rank = np.argsort(order)
    scalar = scalar_matrix(mesh).tocoo()
    assert width == np.abs(rank[scalar.row] - rank[scalar.col]).max()


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
    factor = ScalarFactorization(scalar_matrix(mesh).tocsr(), mesh)
    rhs = rng.standard_normal((mesh.N, 3))
    expected = spla.spsolve(scalar_matrix(mesh).tocsc(), rhs)
    x = factor.solve(rhs)
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("name", ["thin_film", "above_cap_box", "cube8"])
def test_band_theoretical_solves_match_spsolve(meshes, name, rng, monkeypatch):
    mesh = meshes[name]
    monkeypatch.setattr(precond_mod, "splu", None)
    frame = build_frame(random_unit_field(mesh.N, seed=54), "t1+")
    pc = build_theoretical(frame, mesh, k_slots(mesh, ALPHA_P, BETA_K))
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
    width = mesh.band_order()[1]
    if kind == "scalar":
        n, w = mesh.N, width
        scalar = scalar_matrix(mesh).tocsr()
        build = lambda: ScalarFactorization(scalar, mesh)  # noqa: E731
    else:
        n, w = 2 * mesh.N, 2 * width + 1
        frame = build_frame(random_unit_field(mesh.N, seed=55), "t2+")
        scalar = k_slots(mesh, ALPHA_P, BETA_K)
        build = lambda: build_theoretical(frame, mesh, scalar)  # noqa: E731
    factored = []
    splu = precond_mod.splu
    monkeypatch.setattr(precond_mod, "splu",
                        lambda a, **options: factored.append(a) or splu(a, **options))
    for cap, splu_calls in ((8 * n * (w + 1), 0), (8 * n * (w + 1) - 1, 1)):
        monkeypatch.setattr(precond_mod, "BAND_BYTES", cap)
        factored.clear()
        build()
        assert len(factored) == splu_calls


@pytest.mark.parametrize("scheme", ["tps1", "tps2"])
def test_superlu_runs_match_the_band_runs(meshes, scheme, monkeypatch):
    """Three steps of each factored kind on cube n = 8 (N = 729, above the
    dense-inverse cap), once with the default BAND_BYTES, where every
    matrix is factored in band storage, and once with BAND_BYTES = 0, where
    SuperLU factors every one in the dissection order.  The final fields
    agree to 1e-10 and the counts of every step within one iteration: the
    tolerance 1e-14 sits at the attainable accuracy, so a count may move by
    one with the rounding of the factor (step 1 of tps1 with stationary
    takes 40 iterations on the band and 39 on SuperLU)."""
    mesh = meshes["cube8"]
    default = precond_mod.BAND_BYTES
    factored = []
    splu = precond_mod.splu
    monkeypatch.setattr(precond_mod, "splu",
                        lambda a, **options: factored.append(a) or splu(a, **options))
    for kind in ("theoretical", "stationary", "practical"):
        cfg = SimulationConfig.from_dict({
            "scheme": scheme, "alpha": 0.5, "ell_ex2": 10.0, "T": 0.03, "k": 0.01,
            "mesh": {"kind": "cube", "bounds": UNIT_BOUNDS, "n": [8, 8, 8]},
            "field": {"m0": {"kind": "spiral", "turns": 1.0}}, "precond": {"kind": kind}})
        runs = []
        for band_bytes, splu_calls in ((default, 0), (0, 3 if kind == "theoretical" else 1)):
            monkeypatch.setattr(precond_mod, "BAND_BYTES", band_bytes)
            factored.clear()
            runs.append(run_simulation(cfg, mesh=mesh))
            assert len(factored) == splu_calls
        band, superlu = runs
        counts = [[r.gmres_iterations for r in run.records] for run in runs]
        assert len(counts[0]) == len(counts[1]) == 3
        assert all(abs(a - b) <= 1 for a, b in zip(*counts)), counts
        assert np.abs(band.final_state.m_n - superlu.final_state.m_n).max() <= 1e-10


@pytest.mark.parametrize("band", [True, False], ids=["band", "superlu"])
def test_factor_reads_only_the_lower_triangle(meshes, band, rng, monkeypatch):
    """_factor_spd ignores what lies above the diagonal of P^T K P: with
    every entry (i, j) of K (node order) whose row i is eliminated before
    its column j overwritten by nonsymmetric values, and one entry far
    outside the band, its solve is that of the symmetric matrix, returned
    in the caller's order."""
    mesh = meshes["above_cap_box"]
    if band:
        monkeypatch.setattr(precond_mod, "splu", None)  # the band path calls no SuperLU
        order = mesh.band_order()[0]
    else:
        monkeypatch.setattr(precond_mod, "BAND_BYTES", 0)
        order = mesh.dissection_order()
    symmetric = scalar_matrix(mesh).tocsr()
    entries = symmetric.tocoo()
    rank = np.argsort(order)
    above = rank[entries.row] < rank[entries.col]
    assert above.any()
    data = np.where(above, rng.standard_normal(entries.nnz), entries.data)
    # eliminated first and last: the corner above the diagonal of P^T K P
    row, col = np.append(entries.row, order[0]), np.append(entries.col, order[-1])
    scrambled = sp.csr_array((np.append(data, 1.0), (row, col)), shape=symmetric.shape)
    rhs = rng.standard_normal((mesh.N, 3))
    expected = precond_mod._factor_spd(symmetric, mesh, "symmetric")(rhs)
    x = precond_mod._factor_spd(scrambled, mesh, "scrambled")(rhs)
    assert np.abs(x - expected).max() <= 1e-13 * np.abs(expected).max()
    reference = spla.spsolve(scalar_matrix(mesh).tocsc(), rhs)
    assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()


def test_band_factor_of_a_matrix_that_is_not_spd_names_the_lapack_info(meshes, monkeypatch):
    mesh = meshes["above_cap_box"]
    monkeypatch.setattr(precond_mod, "splu", None)
    negated = -1.0 * scalar_matrix(mesh).tocsr()
    with pytest.raises(PreconditionerError, match=r"scalar operator factorization failed "
                                                  r"\(SPD lost\?\): LAPACK info 1$"):
        ScalarFactorization(negated, mesh)
    frame = build_frame(random_unit_field(mesh.N, seed=56), "t3-")
    with pytest.raises(PreconditionerError, match="theoretical preconditioner .* LAPACK info 1$"):
        build_theoretical(frame, mesh, k_slots(mesh, -ALPHA_P, -BETA_K))


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
