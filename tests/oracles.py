"""Dense oracles, the paper's identities and bounds, and the muMAG numbers.

No run calls anything here; the tests compare the sparse, iterative
production path against it.  dense_oracle_solve solves the reduced system
by dense LU.  check_mapping_identities, check_bounded_ratio and
check_inverse_bounds each return their worst error, and energy_norm
evaluates the energy norm by two routes; every test holds the result to its
own bound.

cube_prolongation is the P1 prolongation between two cube meshes, one the
uniform refinement of the other.

The SI functions restate how the bundled muMAG configs' dimensionless
numbers were derived.  The gyromagnetic ratio gamma0 is an argument, since
the configs were made with two values of it: k (and T = 5k) with GAMMA0_K,
the spin velocity u of configs/mumag5_like.json with GAMMA0_U.
"""

import itertools

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from tangent_plane_llg import apply_q

DENSE_MAX_NODES = 200

MU0 = 4e-7 * np.pi
# Second muMAG #4 switching field, mu0 * H_ext in millitesla.
MUMAG4_FIELD_MT = (-35.5, -6.3, 0.0)
# Permalloy of muMAG #4 and #5: exchange constant (J/m), saturation (A/m)
A, MS = 1.3e-11, 8.0e5
# gyromagnetic ratios, m/(A s)
GAMMA0_K = 2.211e5
GAMMA0_U = 2.21e5


def dense_reduced_system(system, frame):
    """Dense reduced matrix Q^T A Q, right-hand side Q^T b and Q."""
    if frame.n_nodes > DENSE_MAX_NODES:
        raise ValueError(f"dense oracle limited to N <= {DENSE_MAX_NODES}, "
                         f"got {frame.n_nodes}")
    q = frame.as_sparse().toarray()
    return q.T @ system.dense_matrix() @ q, q.T @ system.rhs, q


def dense_oracle_solve(system, frame):
    """LU solve of the reduced system; returns (x, lifted v = Q x)."""
    reduced, rhs, _ = dense_reduced_system(system, frame)
    x = sla.solve(reduced, rhs)
    return x, apply_q(frame, x)


def check_mapping_identities(frame, m, n_vectors=20, seed=0):
    """Worst deviation from Q^T Q = I on 2N vectors, from Q Q^T idempotent
    on 3N vectors, and from Q^T m = 0 on the stacked magnetization."""
    rng = np.random.default_rng(seed)
    n = frame.n_nodes
    q = frame.as_sparse()
    worst = 0.0
    for _ in range(n_vectors):
        x = rng.standard_normal(2 * n)
        worst = max(worst, float(np.abs(q.T @ (q @ x) - x).max()))
        y = rng.standard_normal(3 * n)
        py = q @ (q.T @ y)
        worst = max(worst, float(np.abs(q @ (q.T @ py) - py).max()))
    stacked = np.asarray(m, dtype=np.float64).ravel()
    return max(worst, float(np.abs(q.T @ stacked).max()))


def energy_norm(mass, stiffness, frame, alpha_P, beta_k, x, mesh):
    """Energy norm of a tangent coefficient vector, computed two ways.

    Matrix route: v . (a_P M + bk L) v through the sparse assembly, with
    v = Q x as N x 3 rows, the scalar matrix acting on each component.
    FEM route: integrate a_P |v|^2 + bk |grad v|^2 element by element with
    the exact P1 formulas.  Returns (matrix_form, fem_form).
    """
    v = apply_q(frame, x).reshape(frame.n_nodes, 3)
    scalar = alpha_P * mass + beta_k * stiffness
    matrix_form = float(np.sqrt(max(np.vdot(v, scalar @ v), 0.0)))

    vol, grad = mesh.element_geometry()
    vloc = v[mesh.tets]                                    # (M, 4, 3)
    pair = np.einsum("eac,ebc->eab", vloc, vloc)
    local_mass = (np.ones((4, 4)) + np.eye(4)) / 20.0
    l2_part = float(np.einsum("e,eab,ab->", vol, pair, local_mass))
    grad_v = np.einsum("ead,eac->edc", grad, vloc)
    h1_part = float(np.einsum("e,edc,edc->", vol, grad_v, grad_v))
    fem_form = float(np.sqrt(max(alpha_P * l2_part + beta_k * h1_part, 0.0)))
    return matrix_form, fem_form


def check_bounded_ratio(mesh, mu, depth=6):
    """Largest |mu_i mu_j / (1 + mu_3)|, i, j in {1, 2}, sampled on a
    barycentric grid of the given depth inside every element; the appendix
    bounds it by 2.

    Requires 1 + mu_3 > 0 at the nodes; affine interpolation then keeps the
    denominator positive throughout each element.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if (1.0 + mu[:, 2] <= 0.0).any():
        raise ValueError("1 + mu_3 must be positive at every node")
    bary = np.array([(i, j, k, depth - i - j - k)
                     for i, j, k in itertools.product(range(depth + 1), repeat=3)
                     if i + j + k <= depth]) / depth            # (P, 4)
    vals = np.einsum("pa,eac->epc", bary, mu[mesh.tets])        # (M, P, 3)
    products = vals[:, :, :2, None] * vals[:, :, None, :2]      # (M, P, 2, 2)
    return float(np.abs(products / (1.0 + vals[:, :, 2, None, None])).max())


def inverse_bound_constants(B, B0):
    """c1, the least generalized eigenvalue of (sym(B), B0), and c2, the
    spectral norm of B in the B0 geometry, |B0^{-1/2} B B0^{-1/2}|."""
    c1 = float(sla.eigh(0.5 * (B + B.T), B0, eigvals_only=True).min())
    w, u = np.linalg.eigh(B0)
    inv_sqrt = (u / np.sqrt(w)) @ u.T
    return c1, float(np.linalg.norm(inv_sqrt @ B @ inv_sqrt, 2))


def check_inverse_bounds(B, B0, n_pairs=100, seed=0):
    """Transfer of two-sided bounds to inverses, with computed constants.

    On random pairs x, y, the worst relative violation of
    x.B^{-1}x >= (c1/c2^2) x.B0^{-1}x and of the Cauchy-Schwarz-type bound
    |x.B^{-1}y| <= c1^{-1} (x.B0^{-1}x)^{1/2} (y.B0^{-1}y)^{1/2}; positive
    only where a bound fails.  B0 is symmetric positive definite, B has a
    positive definite symmetric part, and their dimension is at most 40.
    """
    B = np.asarray(B, dtype=np.float64)
    B0 = np.asarray(B0, dtype=np.float64)
    if B.shape[0] > 40:
        raise ValueError("inverse-bound check limited to dim <= 40")
    c1, c2 = inverse_bound_constants(B, B0)
    if c1 <= 0:
        raise ValueError("B must be positive definite (sym part)")
    binv, b0inv = np.linalg.inv(B), np.linalg.inv(B0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        x = rng.standard_normal(B.shape[0])
        y = rng.standard_normal(B.shape[0])
        actual = x @ binv @ x
        lower = (c1 / c2**2) * (x @ b0inv @ x)
        bound = np.sqrt((x @ b0inv @ x) * (y @ b0inv @ y)) / c1
        worst = max(worst, (lower - actual) / max(abs(actual), 1e-300),
                    (abs(x @ binv @ y) - bound) / max(bound, 1e-300))
    return float(worst)


def cube_prolongation(n):
    """The P1 prolongation from the cube mesh of n sub-boxes per axis to that
    of 2n on the same box (generate_structured_cube), as a sparse matrix of
    shape ((2n + 1)^3, (n + 1)^3) on their (z, y, x)-ordered nodes.

    The Kuhn tetrahedra of the 2n mesh split those of the n mesh, so a P1
    function of the n mesh is P1 on the 2n mesh.  Fine node (z, y, x) lies
    at the midpoint of coarse nodes lo = (z, y, x) // 2 and lo + d, where
    d = (z, y, x) % 2 marks its odd axes; the two lie on one edge of the n
    mesh (on one node where d = 0), so the fine value is their mean.
    """
    fine = np.indices((2 * n + 1,) * 3).reshape(3, -1).T
    lo, d = fine // 2, fine % 2
    place = np.array([(n + 1) ** 2, n + 1, 1])
    cols = np.column_stack([lo @ place, (lo + d) @ place]).ravel()
    rows = np.repeat(np.arange(len(fine)), 2)
    # where d = 0 the two entries 1/2 sum to 1
    return sp.csr_array((np.full(cols.size, 0.5), (rows, cols)),
                        shape=(len(fine), (n + 1) ** 3))


def mumag4_nondimensional(gamma0, L=1e-9):
    """ell_ex2 = 2A / (mu0 Ms^2 L^2), k = gamma0 Ms dt and h = dx / L of
    the bundled muMAG #4 runs, dt = 0.1 ps and dx = 5 nm, with lengths
    scaled by L (m)."""
    return {"ell_ex2": 2.0 * A / (MU0 * MS**2 * L**2), "k": gamma0 * MS * 0.1e-12,
            "h": 5e-9 / L}


def applied_field_mumag4(mu0_H_mT=MUMAG4_FIELD_MT):
    """Dimensionless applied field from mu0*H_ext given in mT.

    Convention: divide by mu0 only (A/m), matching the reported value
    (-28250, -5013.4, 0) for the second muMAG #4 field.
    """
    return np.asarray(mu0_H_mT, dtype=np.float64) * 1e-3 / MU0


def mumag5_spin_velocity(gamma0):
    """Dimensionless Zhang-Li spin velocity of muMAG #5: (72.17, 0, 0)/(gamma0 Ms L), L = 1 nm."""
    return np.array([72.17, 0.0, 0.0]) / (gamma0 * MS * 1e-9)
