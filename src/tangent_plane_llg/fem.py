"""P1 finite element assembly on tetrahedra.

Every matrix lives on the N x N node-adjacency pattern of the mesh
(Mesh.adjacency): an element-assembled matrix is one np.bincount of the
element contributions over the pattern's slots, so each entry is summed
element by element in element order.  Mass, stiffness and weighted mass are
N x N CSR matrices on that pattern.  The cross-product form and the 3N
system matrix are 3x3-block (BSR) matrices on the same pattern: block
(i, j) of the cross form is sum_d C_d[ij] E_d, with C_d the mass matrix
weighted by the P1 function m_d and E_d[p, q] = e_d . (e_p x e_q) a skew
3x3 generator.  The moments C_d need no element tensor: the exact cubic
moments reduce them to two sums over the elements of each node pair, taken
by one product with the mesh's pair incidence (Mesh.pair_incidence).

All integrals of polynomial integrands are exact (barycentric moment
formulas), so no quadrature error enters any of the assembled matrices.
The element kernels work on (component, element) arrays, not on stacks of
small matrices.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp


class AssemblyError(ValueError):
    pass


# Local P1 mass matrix over an element, divided by |K|:
# integral of lambda_a * lambda_b = |K| (1 + delta_ab) / 20.
_LOCAL_MASS = (np.ones((4, 4)) + np.eye(4)) / 20.0

# The entries of a 3x3 block sum_d C_d E_d, E_d[p, q] = e_d . (e_p x e_q),
# as columns of (C_0, C_1, C_2, -C_0, -C_1, -C_2, 0): E_d[d+1, d+2] = 1 =
# -E_d[d+2, d+1], indices mod 3, and zero elsewhere.
_CROSS_BLOCK = np.array([6, 2, 4, 5, 6, 0, 1, 3, 6])


def _scatter(mesh, local_data):
    """Sum (M,4,4) element contributions onto the mesh pattern, in element order."""
    _, indices, slot = mesh.adjacency()
    return np.bincount(slot.ravel(), weights=local_data.ravel(), minlength=len(indices))


def _scatter_scalar(mesh, local_data):
    """Assemble (M,4,4) local contributions into a CSR N x N matrix."""
    indptr, indices, _ = mesh.adjacency()
    return sp.csr_array((_scatter(mesh, local_data), indices, indptr), shape=(mesh.N, mesh.N))


def assemble_mass(mesh):
    """Scalar P1 mass matrix, exact: element entry |K|(1+delta_ab)/20."""
    vol = mesh.element_volumes()
    return _scatter_scalar(mesh, vol[:, None, None] * _LOCAL_MASS[None])


def assemble_stiffness(mesh):
    """Scalar P1 stiffness matrix from constant element gradients:
    element entry |K| grad_a . grad_b."""
    vol, grad = mesh.element_volumes(), mesh.gradient_components()
    local = np.empty((mesh.elem_count, 4, 4))
    for a in range(4):
        for b in range(a, 4):
            dot = grad[a, 0] * grad[b, 0] + grad[a, 1] * grad[b, 1] + grad[a, 2] * grad[b, 2]
            local[:, a, b] = local[:, b, a] = vol * dot
    return _scatter_scalar(mesh, local)


def assemble_weighted_mass(mesh, weights):
    """N x N weighted mass matrix for a positive piecewise-constant weight.

    The weight multiplies each component identically, so the 3N form is
    this matrix tensored with the 3x3 identity; with weight 1 it is
    bit-identical to assemble_mass(mesh).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (mesh.elem_count,):
        raise AssemblyError(f"need one weight per element, got shape {weights.shape}")
    if (weights <= 0).any():
        bad = int(np.nonzero(weights <= 0)[0][0])
        raise AssemblyError(f"non-positive weight {weights[bad]} on element {bad}")
    vol = mesh.element_volumes()
    return _scatter_scalar(mesh, (weights * vol)[:, None, None] * _LOCAL_MASS[None])


def assemble_cross(mesh, m):
    """Skew-symmetric 3N x 3N matrix of the cross-product form, 3x3 blocks.

    Entry ((i,p),(j,q)) integrates (m x phi_i e_p) . (phi_j e_q) exactly
    (degree-3 integrand), so block (i, j) is sum_d C_d[ij] E_d with C_d[ij]
    the integral of phi_i phi_j m_d.  On an element K, with S_K the sum of
    m over its vertices, the cubic moments give |K| (S_K + m_i + m_j) / 120
    for i != j and |K| (S_K + 2 m_i) / 60 for i = j, so

        C[ij] = (sum_K |K| S_K + (m_i + m_j) sum_K |K|) / (120 or 60),

    both sums over the elements K of the pair, in element order, by one
    product with the pair incidence of the mesh.  The slots (i, j) and
    (j, i) take the same moments and E_d is skew, so the skew-symmetry is
    bit-exact.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (mesh.N, 3):
        raise AssemblyError(f"magnetization must be (N, 3), got {m.shape}")
    incidence, (i, j), mirror = mesh.pair_incidence()
    vol = mesh.element_volumes()
    mloc = np.take(m.T, mesh.tets.T, axis=1)  # mloc[d, a, e]: m_d at local vertex a of e
    weighted = np.empty((mesh.elem_count, 4))
    weighted[:, :3] = (vol * (mloc[:, 0] + mloc[:, 1] + mloc[:, 2] + mloc[:, 3])).T
    weighted[:, 3] = vol
    sums = incidence @ weighted
    moments = ((sums[:, :3] + (np.take(m, i, axis=0) + np.take(m, j, axis=0)) * sums[:, 3:])
               / np.where(i == j, 60.0, 120.0)[:, None])
    # block (i, j) of the pair's slots, from the columns (C, -C, 0)
    signed = np.concatenate([moments, -moments, np.zeros((len(moments), 1))], axis=1)
    blocks = signed.take(_CROSS_BLOCK, axis=1).take(mirror, axis=0).reshape(-1, 3, 3)
    indptr, indices, _ = mesh.adjacency()
    return sp.bsr_array((blocks, indices, indptr), shape=(3 * mesh.N, 3 * mesh.N))


def assemble_rhs(mesh, m_n, lh, ell_ex2, mass=None, stiffness=None):
    """Right-hand side: -ell_ex2 (grad m, grad phi_j) + (lh, phi_j).

    The exchange part is exact (piecewise-constant gradients); the
    lower-order part applies the mass matrix to the P1 interpolant lh.
    """
    if mass is None:
        mass = assemble_mass(mesh)
    if stiffness is None:
        stiffness = assemble_stiffness(mesh)
    m_n = np.asarray(m_n, dtype=np.float64).reshape(mesh.N, 3)
    lh = np.asarray(lh, dtype=np.float64).reshape(mesh.N, 3)
    return (-ell_ex2 * (stiffness @ m_n) + mass @ lh).ravel()


@dataclass
class AssembledSystem:
    """Per-step linear system data for the tangent plane scheme.

    The 3N system matrix has 3x3 blocks on the mesh pattern: block (i, j) is
    (alpha M_k + beta_k L)_ij I_3 - S_ij, with M_k the weighted mass, L the
    stiffness and S the cross form, each summed in element order.  A step
    solves with the reduced 2N matrix formed from scalar() and moments()
    (ReducedOperator), so the 3N matrix itself is built only on demand, on
    the first use of matrix, apply() or dense_matrix(): by checks and
    oracles.
    """

    alpha: float
    beta_k: float
    mass: sp.csr_array
    stiffness: sp.csr_array
    weighted_mass: sp.csr_array  # N x N, on the pattern of stiffness
    cross: sp.bsr_array          # 3N x 3N, skew, 3x3 blocks on the same pattern
    rhs: np.ndarray              # (3N,)

    @property
    def n_nodes(self):
        return self.mass.shape[0]

    def scalar(self):
        """The (nnz,) values of alpha M_k + beta_k L on the cross form's pattern."""
        return self.alpha * self.weighted_mass.data + self.beta_k * self.stiffness.data

    def moments(self):
        """The (3, nnz) cross moments C_d: entry (d + 1, d + 2) of each block."""
        return self.cross.data.reshape(-1, 9).T[[5, 6, 1]]

    @cached_property
    def matrix(self):
        """The 3N x 3N system matrix as BSR, built on first use."""
        blocks = self.scalar()[:, None, None] * np.eye(3) - self.cross.data
        return sp.bsr_array((blocks, self.cross.indices, self.cross.indptr),
                            shape=self.cross.shape)

    def apply(self, v):
        """y = (alpha M_k + beta_k L - S) v on stacked 3N vectors."""
        return self.matrix @ v

    def dense_matrix(self):
        """Dense 3N x 3N system matrix (test/oracle use only)."""
        return self.matrix.toarray()


def build_system(mesh, m, alpha, beta_k, weights, lh, ell_ex2, mass=None, stiffness=None):
    """Assemble all pieces of the per-step system for magnetization m.

    weights=None stands for the unit weight: the weighted mass is then the
    plain mass matrix, and nothing is assembled for it.
    """
    if mass is None:
        mass = assemble_mass(mesh)
    if stiffness is None:
        stiffness = assemble_stiffness(mesh)
    return AssembledSystem(
        alpha=float(alpha),
        beta_k=float(beta_k),
        mass=mass,
        stiffness=stiffness,
        weighted_mass=mass if weights is None else assemble_weighted_mass(mesh, weights),
        cross=assemble_cross(mesh, m),
        rhs=assemble_rhs(mesh, m, lh, ell_ex2, mass=mass, stiffness=stiffness),
    )
