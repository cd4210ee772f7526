"""P1 finite element assembly on tetrahedra.

Every matrix lives on the N x N pattern of the mesh's node pairs
(Mesh.node_pairs): the slots (i, j) and (j, i) of each pair {i, j} that
shares an element.  An element-assembled matrix is one np.bincount of the
ten entries a <= b of every element's symmetric local matrix over the pair
numbering, so each pair sums its addends element by element in element
order, and both of its slots take that sum through the slot -> pair mirror.
Mass, stiffness and weighted mass are N x N CSR matrices on that pattern.
The cross-product form is kept as its moments: C_d[ij], the mass matrix
weighted by the P1 function m_d, one (3, nnz) array on the same slots.
Block (i, j) of the 3N cross form is sum_d C_d[ij] E_d, with E_d[p, q] =
e_d . (e_p x e_q) a skew 3x3 generator.  The moments need no element
tensor: the exact cubic moments reduce them to two sums over the elements
of each node pair, taken by one product with the pair x element incidence.

A step's system is the scalar values s = alpha M_k + beta_k L, the moments
and the right-hand side (AssembledSystem); the 3x3 blocks of the 3N matrix
are expanded from (s, C) only where a check asks for them (block_matrix).

All integrals of polynomial integrands are exact (barycentric moment
formulas), so no quadrature error enters any of the assembled matrices.
The element kernels work on (component, element) arrays, not on stacks of
small matrices.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import LOCAL_PAIRS, once_per_mesh


class AssemblyError(ValueError):
    pass


# The local P1 mass entries of the pairs LOCAL_PAIRS, divided by |K|:
# integral of lambda_a * lambda_b = |K| (1 + delta_ab) / 20.
_LOCAL_MASS = (1.0 + (LOCAL_PAIRS[0] == LOCAL_PAIRS[1])) / 20.0


def _scatter_scalar(mesh, local):
    """The N x N CSR matrix on the mesh pattern whose slots (i, j) and
    (j, i) sum the (M, 10) local entries of their pair, in element order."""
    pairs = mesh.node_pairs()
    sums = np.bincount(pairs.element_pairs.ravel(), weights=local.ravel(),
                       minlength=len(pairs.slots[0]))
    return sp.csr_array((sums.take(pairs.mirror), pairs.indices, pairs.indptr),
                        shape=(mesh.N, mesh.N))


@once_per_mesh
def assemble_mass(mesh):
    """Scalar P1 mass matrix, exact: element entry |K|(1+delta_ab)/20.
    Assembled once per mesh, read-only."""
    mass = _scatter_scalar(mesh, mesh.element_volumes()[:, None] * _LOCAL_MASS)
    mass.data.setflags(write=False)
    return mass


@once_per_mesh
def assemble_stiffness(mesh):
    """Scalar P1 stiffness matrix from constant element gradients: element
    entry |K| grad_a . grad_b.  Assembled once per mesh, read-only."""
    vol, grad = mesh.element_volumes(), mesh.gradient_components()
    a, b = LOCAL_PAIRS
    dot = grad[a, 0] * grad[b, 0] + grad[a, 1] * grad[b, 1] + grad[a, 2] * grad[b, 2]
    stiffness = _scatter_scalar(mesh, (vol * dot).T)
    stiffness.data.setflags(write=False)
    return stiffness


def assemble_weighted_mass(mesh, weights):
    """N x N weighted mass matrix for a positive piecewise-constant weight.

    The weight multiplies each component identically, so the 3N form is
    this matrix tensored with the 3x3 identity; with weight 1 it is
    bit-identical to assemble_mass(mesh).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (mesh.elem_count,):
        raise AssemblyError(f"need one weight per element, got shape {weights.shape}")
    if not (weights > 0).all():  # NaN fails too
        bad = int(np.argmin(weights > 0))
        raise AssemblyError(f"weight {weights[bad]} on element {bad} is not positive")
    vol = mesh.element_volumes()
    return _scatter_scalar(mesh, (weights * vol)[:, None] * _LOCAL_MASS)


def assemble_cross(mesh, m):
    """The (3, nnz) cross moments C_d on the slots of the mesh pattern.

    Entry ((i,p),(j,q)) of the cross form S integrates (m x phi_i e_p) .
    (phi_j e_q) exactly (degree-3 integrand), so block (i, j) of S is
    sum_d C_d[ij] E_d with C_d[ij] the integral of phi_i phi_j m_d, and
    column s of the result holds C[ij] of slot s of Mesh.node_pairs().  On
    an element K, with S_K the sum of m over its vertices, the cubic
    moments give |K| (S_K + m_i + m_j) / 120 for i != j and
    |K| (S_K + 2 m_i) / 60 for i = j, so

        C[ij] = (sum_K |K| S_K + (m_i + m_j) sum_K |K|) / (120 or 60),

    both sums over the elements K of the pair, in element order, by one
    product with the pair incidence of the mesh.  The slots (i, j) and
    (j, i) take the moments of the same pair and E_d is skew, so S is
    skew-symmetric bit for bit.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (mesh.N, 3):
        raise AssemblyError(f"magnetization must be (N, 3), got {m.shape}")
    pairs = mesh.node_pairs()
    i, j = pairs.ends
    vol = mesh.element_volumes()
    mloc = np.take(m.T, mesh.tets.T, axis=1)  # mloc[d, a, e]: m_d at local vertex a of e
    weighted = np.empty((mesh.elem_count, 4))
    weighted[:, :3] = (vol * (mloc[:, 0] + mloc[:, 1] + mloc[:, 2] + mloc[:, 3])).T
    weighted[:, 3] = vol
    sums = (pairs.incidence @ weighted).T
    moments = ((sums[:3] + (np.take(m.T, i, axis=1) + np.take(m.T, j, axis=1)) * sums[3])
               / np.where(i == j, 60.0, 120.0))
    return moments.take(pairs.mirror, axis=1)


def assemble_rhs(mesh, m_n, lh, ell_ex2, mass, stiffness):
    """Right-hand side: -ell_ex2 (grad m, grad phi_j) + (lh, phi_j).

    The exchange part is exact (piecewise-constant gradients); the
    lower-order part applies the mass matrix to the P1 interpolant lh.
    """
    m_n = np.asarray(m_n, dtype=np.float64).reshape(mesh.N, 3)
    lh = np.asarray(lh, dtype=np.float64).reshape(mesh.N, 3)
    return (-ell_ex2 * (stiffness @ m_n) + mass @ lh).ravel()


def block_matrix(indptr, indices, scalar, moments):
    """The 3N x 3N BSR matrix with blocks s_ij I_3 - sum_d c_ij,d E_d.

    scalar (nnz,) and moments (3, nnz) lie on the pattern (indptr, indices);
    E_d[p, q] = e_d . (e_p x e_q), so the cross form S itself is the negated
    matrix of zero scalar part.  For checks, oracles and tests: a step never
    expands the blocks.
    """
    c0, c1, c2 = moments
    blocks = np.empty((len(indices), 3, 3))
    blocks[:, 0, 0] = blocks[:, 1, 1] = blocks[:, 2, 2] = scalar
    blocks[:, 1, 2], blocks[:, 2, 1] = -c0, c0
    blocks[:, 2, 0], blocks[:, 0, 2] = -c1, c1
    blocks[:, 0, 1], blocks[:, 1, 0] = -c2, c2
    n = 3 * (len(indptr) - 1)
    return sp.bsr_array((blocks, indices, indptr), shape=(n, n))


@dataclass
class AssembledSystem:
    """Per-step linear system data for the tangent plane scheme, on the
    pattern of the mesh (Mesh.node_pairs).

    The 3N system matrix A has the 3x3 blocks s_ij I_3 - S_ij: s is the
    scalar part alpha M_k + beta_k L, with M_k the weighted mass and L the
    stiffness, and S the cross form of the moments (assemble_cross), each
    summed in element order.  A step forms the reduced 2N matrix from s and
    the moments (ReducedOperator); the blocks of A are expanded only on the
    first use of matrix, apply() or dense_matrix(): by checks and oracles.
    """

    mesh: object
    scalar: np.ndarray   # (nnz,)
    moments: np.ndarray  # (3, nnz)
    rhs: np.ndarray      # (3N,)

    @cached_property
    def matrix(self):
        """The 3N x 3N system matrix as BSR, built on first use."""
        pairs = self.mesh.node_pairs()
        return block_matrix(pairs.indptr, pairs.indices, self.scalar, self.moments)

    def apply(self, v):
        """y = (alpha M_k + beta_k L - S) v on stacked 3N vectors."""
        return self.matrix @ v

    def dense_matrix(self):
        """Dense 3N x 3N system matrix (test/oracle use only)."""
        return self.matrix.toarray()


def build_system(mesh, m, alpha, beta_k, weights, lh, ell_ex2, mass, stiffness):
    """Assemble the per-step system for magnetization m from the static mass
    and stiffness of the mesh.

    weights=None stands for the unit weight: the weighted mass is then the
    plain mass matrix, and nothing is assembled for it.
    """
    weighted_mass = mass if weights is None else assemble_weighted_mass(mesh, weights)
    return AssembledSystem(
        mesh=mesh,
        scalar=float(alpha) * weighted_mass.data + float(beta_k) * stiffness.data,
        moments=assemble_cross(mesh, m),
        rhs=assemble_rhs(mesh, m, lh, ell_ex2, mass, stiffness),
    )
