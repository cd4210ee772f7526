"""P1 finite element assembly on tetrahedra.

Every matrix lives on the N x N node-adjacency pattern of the mesh
(Mesh.adjacency): an element-assembled matrix is one np.bincount of the
element contributions over the pattern's slots, so each entry is summed
element by element in element order.  Mass, stiffness and weighted mass are
N x N CSR matrices on that pattern.  The cross-product form and the 3N
system matrix are 3x3-block (BSR) matrices on the same pattern: block
(i, j) of the cross form is sum_d C_d[ij] E_d, with C_d the mass matrix
weighted by the P1 function m_d and E_d[p, q] = e_d . (e_p x e_q) a skew
3x3 generator.

All integrals of polynomial integrands use the exact barycentric moment
formula, so no quadrature error enters any of the assembled matrices.
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

# Cubic moments: integral of lambda_a lambda_b lambda_c = |K| * _LOCAL_CUBIC[a,b,c]
# (1/120 all distinct, 1/60 for one repeated pair, 1/20 for a=b=c).
_LOCAL_CUBIC = np.empty((4, 4, 4))
for _a in range(4):
    for _b in range(4):
        for _c in range(4):
            reps = len({_a, _b, _c})
            _LOCAL_CUBIC[_a, _b, _c] = {3: 1 / 120, 2: 1 / 60, 1: 1 / 20}[reps]


# The skew generators of the cross form: _LEVI_CIVITA[d] = E_d with
# E_d[p, q] = e_d . (e_p x e_q).
_LEVI_CIVITA = np.zeros((3, 3, 3))
_LEVI_CIVITA[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
_LEVI_CIVITA[[0, 1, 2], [2, 0, 1], [1, 2, 0]] = -1.0


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
    """Scalar P1 stiffness matrix from constant element gradients."""
    vol, grad = mesh.element_geometry()
    local = np.einsum("ead,ebd->eab", grad, grad)
    return _scatter_scalar(mesh, vol[:, None, None] * local)


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
    (degree-3 integrand), so block (i, j) is sum_d C_d[ij] E_d.  C_d[ij] and
    C_d[ji] sum the same terms in the same order, and E_d is skew, so the
    skew-symmetry is bit-exact.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (mesh.N, 3):
        raise AssemblyError(f"magnetization must be (N, 3), got {m.shape}")
    # values[d, e, a, b] = integral over element e of lambda_a lambda_b m_d,
    # summed over the local vertices c in order
    mloc = m.T[:, mesh.tets]  # mloc[d, e, c]: m_d at local vertex c of e
    values = mloc[:, :, 0, None, None] * _LOCAL_CUBIC[:, :, 0]
    for c in range(1, 4):
        values += mloc[:, :, c, None, None] * _LOCAL_CUBIC[:, :, c]
    values *= mesh.element_volumes()[:, None, None]
    moments = np.stack([_scatter(mesh, values[d]) for d in range(3)])
    indptr, indices, _ = mesh.adjacency()
    blocks = np.einsum("dk,dpq->kpq", moments, _LEVI_CIVITA)
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
    solves with the reduced 2N matrix formed from blocks() (ReducedOperator),
    so the 3N matrix itself is built only on demand, on the first use of
    matrix, apply() or dense_matrix(): by checks and oracles.
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

    def blocks(self):
        """The (nnz, 3, 3) blocks of the system matrix on the cross form's pattern."""
        scalar = self.alpha * self.weighted_mass.data + self.beta_k * self.stiffness.data
        return scalar[:, None, None] * np.eye(3) - self.cross.data

    @cached_property
    def matrix(self):
        """The 3N x 3N system matrix as BSR, built on first use."""
        return sp.bsr_array((self.blocks(), self.cross.indices, self.cross.indptr),
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
