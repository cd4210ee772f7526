"""P1 finite element assembly on tetrahedra.

Scalar mass/stiffness matrices are stored N x N; their block-diagonal action
on 3-vector fields is applied componentwise (the 3N forms are these blocks
tensored with the 3x3 identity).  The magnetization-dependent weighted-mass
and cross-product matrices are assembled at the 3N level.

All integrals of polynomial integrands use the exact barycentric moment
formula, so no quadrature error enters any of the assembled matrices.
"""

from dataclasses import dataclass

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


def _scatter_scalar(mesh, local_data):
    """Assemble (M,4,4) local contributions into a CSR N x N matrix."""
    rows = np.repeat(mesh.tets, 4, axis=1).ravel()
    cols = np.tile(mesh.tets, (1, 4)).ravel()
    mat = sp.coo_array((local_data.ravel(), (rows, cols)), shape=(mesh.N, mesh.N))
    return mat.tocsr()


def assemble_mass(mesh):
    """Scalar P1 mass matrix, exact: element entry |K|(1+delta_ab)/20."""
    vol = mesh.element_volumes()
    return _scatter_scalar(mesh, vol[:, None, None] * _LOCAL_MASS[None])


def assemble_stiffness(mesh):
    """Scalar P1 stiffness matrix from constant element gradients."""
    vol, grad = mesh.element_geometry()
    local = np.einsum("ead,ebd->eab", grad, grad)
    return _scatter_scalar(mesh, vol[:, None, None] * local)


def _weighted_scalar_mass(mesh, weights):
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (mesh.elem_count,):
        raise AssemblyError(f"need one weight per element, got shape {weights.shape}")
    if (weights <= 0).any():
        bad = int(np.nonzero(weights <= 0)[0][0])
        raise AssemblyError(f"non-positive weight {weights[bad]} on element {bad}")
    vol = mesh.element_volumes()
    return _scatter_scalar(mesh, (weights * vol)[:, None, None] * _LOCAL_MASS[None])


def assemble_weighted_mass(mesh, weights):
    """3N x 3N weighted mass matrix for a positive piecewise-constant weight.

    The weight multiplies each component identically, so the matrix is the
    weighted scalar mass tensored with the 3x3 identity; with weight 1 this
    is bit-identical to assemble_mass(mesh) x I_3.
    """
    ms = _weighted_scalar_mass(mesh, weights)
    return sp.kron(ms, sp.identity(3, format="csr"), format="csr")


def assemble_cross(mesh, m):
    """Skew-symmetric 3N x 3N matrix of the cross-product form.

    Entry ((i,p),(j,q)) integrates (m x phi_i e_p) . (phi_j e_q) exactly
    (degree-3 integrand).  Only strictly-upper entries are accumulated and
    mirrored with negation, so the skew-symmetry is bit-exact.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (mesh.N, 3):
        raise AssemblyError(f"magnetization must be (N, 3), got {m.shape}")
    vol = mesh.element_volumes()
    mloc = m[mesh.tets]  # (M, 4, 3)

    # axis[e,c,p,q] = m_c . (e_p x e_q), antisymmetric in (p, q)
    axis = np.zeros((mesh.elem_count, 4, 3, 3))
    axis[:, :, 0, 1] = mloc[:, :, 2]
    axis[:, :, 1, 0] = -mloc[:, :, 2]
    axis[:, :, 1, 2] = mloc[:, :, 0]
    axis[:, :, 2, 1] = -mloc[:, :, 0]
    axis[:, :, 2, 0] = mloc[:, :, 1]
    axis[:, :, 0, 2] = -mloc[:, :, 1]

    blocks = np.einsum("abc,ecpq->eabpq", _LOCAL_CUBIC, axis)
    blocks *= vol[:, None, None, None, None]

    gi = mesh.tets[:, :, None, None, None]
    gj = mesh.tets[:, None, :, None, None]
    p = np.arange(3)[None, None, None, :, None]
    q = np.arange(3)[None, None, None, None, :]
    rows = np.broadcast_to(3 * gi + p, blocks.shape).ravel()
    cols = np.broadcast_to(3 * gj + q, blocks.shape).ravel()
    data = blocks.ravel()

    keep = rows < cols
    upper = sp.coo_array((data[keep], (rows[keep], cols[keep])), shape=(3 * mesh.N, 3 * mesh.N)).tocsr()
    return (upper - upper.T).tocsr()


def apply_componentwise(scalar_mat, v):
    """Apply a scalar N x N matrix blockwise to a stacked 3N vector."""
    n = scalar_mat.shape[0]
    return (scalar_mat @ np.asarray(v).reshape(n, 3)).ravel()


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

    The 3N system matrix alpha * weighted_mass + beta_k * stiffness (x I_3)
    - cross is never formed explicitly; apply() evaluates its action.
    """

    alpha: float
    beta_k: float
    mass: sp.csr_array
    stiffness: sp.csr_array
    weighted_mass: sp.csr_array  # 3N x 3N
    cross: sp.csr_array          # 3N x 3N, skew
    rhs: np.ndarray              # (3N,)

    @property
    def n_nodes(self):
        return self.mass.shape[0]

    def apply(self, v):
        """y = (alpha M_k + beta_k L - S) v on stacked 3N vectors."""
        return (
            self.alpha * (self.weighted_mass @ v)
            + self.beta_k * apply_componentwise(self.stiffness, v)
            - self.cross @ v
        )

    def dense_matrix(self):
        """Dense 3N x 3N system matrix (test/oracle use only)."""
        n3 = 3 * self.n_nodes
        stiff3 = sp.kron(self.stiffness, sp.identity(3, format="csr"), format="csr")
        full = self.alpha * self.weighted_mass + self.beta_k * stiff3 - self.cross
        return full.toarray().reshape(n3, n3)


def build_system(mesh, m, alpha, beta_k, weights, lh, ell_ex2, mass=None, stiffness=None):
    """Assemble all pieces of the per-step system for magnetization m."""
    if mass is None:
        mass = assemble_mass(mesh)
    if stiffness is None:
        stiffness = assemble_stiffness(mesh)
    return AssembledSystem(
        alpha=float(alpha),
        beta_k=float(beta_k),
        mass=mass,
        stiffness=stiffness,
        weighted_mass=assemble_weighted_mass(mesh, weights),
        cross=assemble_cross(mesh, m),
        rhs=assemble_rhs(mesh, m, lh, ell_ex2, mass=mass, stiffness=stiffness),
    )
