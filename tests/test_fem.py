import numpy as np
import pytest
import scipy.sparse as sp

from tangent_plane_llg import (Mesh, assemble_cross, assemble_mass,
                               assemble_rhs, assemble_stiffness,
                               assemble_weighted_mass, build_system,
                               generate_structured_cube)
from tangent_plane_llg.fem import AssemblyError

from conftest import UNIT_BOUNDS, cross_form, random_unit_field, transpose_slots
from oracles import cube_prolongation


@pytest.fixture(scope="module")
def ref_tet():
    return Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2, 3]])


def test_mass_reference_tet(ref_tet):
    m = assemble_mass(ref_tet).toarray()
    assert np.allclose(np.diag(m), 1 / 60, atol=1e-16)
    off = m - np.diag(np.diag(m))
    assert np.allclose(off[off != 0], 1 / 120, atol=1e-16)


def test_mass_partition_of_unity(cube2):
    m = assemble_mass(cube2)
    assert abs(m.sum() - 1.0) <= 1e-13


def test_mass_spd(cube2):
    mass = assemble_mass(cube2)
    eig = np.linalg.eigvalsh(mass.toarray())
    assert eig.min() > 0
    assert np.abs((mass - mass.T)).max() <= 1e-16 * np.abs(mass).max()


def test_stiffness_reference_tet(ref_tet):
    l = assemble_stiffness(ref_tet).toarray()
    assert l[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_stiffness_row_sums_zero(cube2):
    l = assemble_stiffness(cube2)
    assert np.abs(np.asarray(l.sum(axis=1))).max() <= 1e-13


def test_stiffness_psd(cube2, rng):
    l = assemble_stiffness(cube2)
    for _ in range(100):
        x = rng.standard_normal(cube2.N)
        assert x @ (l @ x) >= -1e-12 * (x @ x)


def test_weighted_mass_unit_weight_is_kron(cube2):
    # the N x N weighted mass with unit weight is the mass matrix, so its
    # 3N form is the mass tensored with the identity, bit for bit
    mass = assemble_mass(cube2)
    mk = assemble_weighted_mass(cube2, np.ones(cube2.elem_count))
    assert mk.shape == (cube2.N, cube2.N)
    assert (mk != mass).nnz == 0
    eye3 = sp.identity(3, format="csr")
    assert (sp.kron(mk, eye3, format="csr") != sp.kron(mass, eye3, format="csr")).nnz == 0


def test_weighted_mass_linearity(cube2):
    m1 = assemble_weighted_mass(cube2, np.ones(cube2.elem_count))
    m2 = assemble_weighted_mass(cube2, 2.0 * np.ones(cube2.elem_count))
    assert np.abs((m2 - 2.0 * m1)).max() == 0.0


def test_weighted_mass_random_weights_spd(cube2, rng):
    w = 0.5 + rng.random(cube2.elem_count)
    mk = assemble_weighted_mass(cube2, w).toarray()
    assert np.abs(mk - mk.T).max() <= 1e-15 * np.abs(mk).max()
    assert np.linalg.eigvalsh(0.5 * (mk + mk.T)).min() > 0


def test_weighted_mass_rejects_nonpositive_weight(cube2):
    w = np.ones(cube2.elem_count)
    w[3] = 0.0
    with pytest.raises(AssemblyError, match="element 3"):
        assemble_weighted_mass(cube2, w)


def test_weighted_mass_rejects_nan_weight(cube2):
    w = np.ones(cube2.elem_count)
    w[3] = np.nan
    with pytest.raises(AssemblyError, match="weight nan on element 3 is not positive"):
        assemble_weighted_mass(cube2, w)


def test_cross_constant_e3_block_structure(cube2):
    m = np.tile([0.0, 0.0, 1.0], (cube2.N, 1))
    s = cross_form(cube2, m).toarray()
    mass = assemble_mass(cube2).toarray()
    block = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    expected = np.kron(mass, block)
    assert np.abs(s - expected).max() <= 1e-15


def test_cross_skew_bit_exact(cube2):
    m = random_unit_field(cube2.N, seed=5)
    s = cross_form(cube2, m)
    assert (s + s.T).nnz == 0
    # the slots (i, j) and (j, i) hold the moments of the same pair
    moments = assemble_cross(cube2, m)
    assert np.array_equal(moments, moments[:, transpose_slots(cube2)])


def test_cross_quadratic_form_vanishes(cube2, rng):
    s = cross_form(cube2, random_unit_field(cube2.N, seed=6))
    scale = np.abs(s).max()
    for _ in range(100):
        x = rng.standard_normal(3 * cube2.N)
        assert abs(x @ (s @ x)) <= 1e-12 * scale * (x @ x)


def test_cross_sign_linearity(cube2):
    m = random_unit_field(cube2.N, seed=7)
    s_pos = assemble_cross(cube2, m)
    s_neg = assemble_cross(cube2, -m)
    assert np.abs((s_pos + s_neg)).max() == 0.0


def test_rhs_constant_magnetization_zero(cube2, cube2_matrices):
    m = np.tile([1.0, 0.0, 0.0], (cube2.N, 1))
    b = assemble_rhs(cube2, m, np.zeros((cube2.N, 3)), 10.0, *cube2_matrices)
    assert np.abs(b).max() <= 1e-13


def test_rhs_constant_lower_order_term(cube2, cube2_matrices):
    m = np.tile([1.0, 0.0, 0.0], (cube2.N, 1))
    c = np.array([0.3, -1.2, 2.0])
    lh = np.tile(c, (cube2.N, 1))
    b = assemble_rhs(cube2, m, lh, 0.0, *cube2_matrices).reshape(cube2.N, 3)
    rowsums = np.asarray(assemble_mass(cube2).sum(axis=1)).ravel()
    assert np.abs(b - np.outer(rowsums, c)).max() <= 1e-15


def test_rhs_zero_exchange_is_mass_apply(cube2, cube2_matrices, rng):
    m = random_unit_field(cube2.N, seed=8)
    lh = rng.standard_normal((cube2.N, 3))
    b = assemble_rhs(cube2, m, lh, 0.0, *cube2_matrices)
    mass = assemble_mass(cube2)
    assert np.array_equal(b, (mass @ lh).ravel())


def test_block_form_componentwise_equals_kron(cube2, cube2_matrices, rng):
    # with beta_k = 0 the diagonal of each 3x3 block of the system matrix is
    # the mass entry and the rest is the cross form: adding the cross back
    # gives the mass tensored with the identity, bit for bit
    mass, stiffness = cube2_matrices
    m = random_unit_field(cube2.N, seed=11)
    sys_ = build_system(cube2, m, 1.0, 0.0, None, np.zeros((cube2.N, 3)), 10.0,
                        mass, stiffness)
    kron = sp.kron(mass, sp.identity(3, format="csr"), format="csr")
    assert np.array_equal(sys_.dense_matrix() + cross_form(cube2, m).toarray(),
                          kron.toarray())


def test_system_positive_definite(cube2, cube2_matrices, rng):
    mass, stiffness = cube2_matrices
    m = random_unit_field(cube2.N, seed=9)
    weights = np.ones(cube2.elem_count)
    sys_ = build_system(cube2, m, alpha=0.5, beta_k=0.1, weights=weights,
                        lh=np.zeros((cube2.N, 3)), ell_ex2=10.0, mass=mass,
                        stiffness=stiffness)
    weighted_mass = assemble_weighted_mass(cube2, weights)
    for _ in range(100):
        x = rng.standard_normal(3 * cube2.N)
        xn = x.reshape(cube2.N, 3)
        sym_part = 0.5 * np.vdot(xn, weighted_mass @ xn) \
            + 0.1 * np.vdot(xn, stiffness @ xn)
        assert sym_part > 0
        assert x @ (sys_.apply(x)) > 0


def test_assembly_deterministic(cube2):
    m = random_unit_field(cube2.N, seed=10)
    assert np.array_equal(assemble_cross(cube2, m), assemble_cross(cube2, m))
    m1 = assemble_mass(cube2)
    m2 = assemble_mass(cube2)
    assert np.array_equal(m1.data, m2.data)


@pytest.mark.parametrize("n", [2, 4])
def test_cube_meshes_are_nested(n):
    """The P1 prolongation P from cube n to cube 2n carries the coarse
    node coordinates to the fine ones, and the Galerkin products
    P^T M_2n P and P^T L_2n P are M_n and L_n to a few rounding units."""
    coarse = generate_structured_cube(UNIT_BOUNDS, (n, n, n))
    fine = generate_structured_cube(UNIT_BOUNDS, (2 * n, 2 * n, 2 * n))
    p = cube_prolongation(n)
    assert np.array_equal(p @ coarse.nodes, fine.nodes)
    for assemble in (assemble_mass, assemble_stiffness):
        galerkin, direct = (p.T @ assemble(fine) @ p).toarray(), assemble(coarse).toarray()
        assert np.abs(galerkin - direct).max() <= 4 * np.finfo(float).eps * np.abs(direct).max()
