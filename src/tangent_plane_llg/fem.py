"""P1 finite element assembly on tetrahedra.

Scalar mass, stiffness and weighted-mass matrices are stored N x N; their
block-diagonal action on 3-vector fields is applied componentwise (the 3N
forms are these blocks tensored with the 3x3 identity).  The
magnetization-dependent cross-product matrix is assembled at the 3N level.

All integrals of polynomial integrands use the exact barycentric moment
formula, so no quadrature error enters any of the assembled matrices.
"""

import weakref
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


# Per-mesh index data of assemble_cross, dropped with the mesh.
_CROSS_PATTERNS = weakref.WeakKeyDictionary()


def _cross_pattern(mesh):
    """Strictly-upper entries of the element blocks of the cross matrix.

    Entry ((i,p),(j,q)) of element e's block is sign(p,q) times
    values[a,b,d,e] with d the axis orthogonal to p and q; for p = q it is
    a zero (sign 0).  Returns the rows and columns of the entries with
    row < col, in element-block order, the flat index of their value and
    their sign; the indices are int32 unless the mesh is too large for it.
    """
    pattern = _CROSS_PATTERNS.get(mesh)
    if pattern is None:
        # e_p x e_q = sign[p, q] e_{axis[p, q]}
        sign = np.array([0, 1, -1, -1, 0, 1, 1, -1, 0], dtype=np.int8)
        axis = np.array([0, 2, 1, 2, 1, 0, 1, 0, 2])
        index = np.int32 if max(3 * mesh.N, 48 * mesh.elem_count) < 2**31 else np.int64
        gi = 3 * mesh.tets.astype(index)
        shape = (mesh.elem_count, 4, 4, 3, 3)
        p = np.arange(3, dtype=index)
        rows = np.broadcast_to(gi[:, :, None, None, None] + p[:, None], shape).ravel()
        cols = np.broadcast_to(gi[:, None, :, None, None] + p, shape).ravel()
        keep = np.flatnonzero(rows < cols)
        pq = keep % 9
        # flat index into the (4, 4, 3, M) value array of assemble_cross
        value = ((keep // 9 % 16) * 3 + axis[pq]) * mesh.elem_count + keep // 144
        pattern = (rows[keep], cols[keep], value.astype(index), sign[pq])
        _CROSS_PATTERNS[mesh] = pattern
    return pattern


def assemble_cross(mesh, m):
    """Skew-symmetric 3N x 3N matrix of the cross-product form.

    Entry ((i,p),(j,q)) integrates (m x phi_i e_p) . (phi_j e_q) exactly
    (degree-3 integrand).  Only strictly-upper entries are accumulated and
    mirrored with negation, so the skew-symmetry is bit-exact.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (mesh.N, 3):
        raise AssemblyError(f"magnetization must be (N, 3), got {m.shape}")
    rows, cols, value, sign = _cross_pattern(mesh)
    # values[a,b,d,e] = integral over element e of lambda_a lambda_b m_d,
    # summed over the local vertices c in order (elements innermost)
    mloc = m.T[:, mesh.tets.T]  # mloc[d, c, e]: m_d at local vertex c of e
    values = _LOCAL_CUBIC[:, :, 0, None, None] * mloc[:, 0]
    for c in range(1, 4):
        values += _LOCAL_CUBIC[:, :, c, None, None] * mloc[:, c]
    values *= mesh.element_volumes()
    data = values.ravel()[value] * sign
    n3 = 3 * mesh.N
    upper = sp.coo_array((data, (rows, cols)), shape=(n3, n3)).tocsr()
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

    The 3N system matrix (alpha * weighted_mass + beta_k * stiffness) (x I_3)
    - cross is never formed explicitly; apply() evaluates its action.
    """

    alpha: float
    beta_k: float
    mass: sp.csr_array
    stiffness: sp.csr_array
    weighted_mass: sp.csr_array  # N x N
    cross: sp.csr_array          # 3N x 3N, skew
    rhs: np.ndarray              # (3N,)

    @property
    def n_nodes(self):
        return self.mass.shape[0]

    def apply(self, v):
        """y = (alpha M_k + beta_k L - S) v on stacked 3N vectors."""
        return (
            self.alpha * apply_componentwise(self.weighted_mass, v)
            + self.beta_k * apply_componentwise(self.stiffness, v)
            - self.cross @ v
        )

    def dense_matrix(self):
        """Dense 3N x 3N system matrix (test/oracle use only)."""
        eye3 = sp.identity(3, format="csr")
        full = (self.alpha * sp.kron(self.weighted_mass, eye3, format="csr")
                + self.beta_k * sp.kron(self.stiffness, eye3, format="csr") - self.cross)
        return full.toarray()


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
