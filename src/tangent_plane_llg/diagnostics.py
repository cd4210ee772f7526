"""Dense reference solves and theory-facing measurements.

Everything here exists to cross-check the sparse/iterative production path:
dense LU solves of the reduced system, the frame mapping identities, the
two independent evaluations of the energy norm, and the two appendix-style
numeric checks (bounded nodal ratio, inverse-bound transfer for positive
definite matrices).
"""

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .tangent import apply_q

_DENSE_GUARD = 200


class OracleError(RuntimeError):
    pass


@dataclass
class CheckReport:
    check: str
    max_error: float
    threshold: float
    passed: bool

    def to_dict(self):
        return {"check": self.check, "max_error": self.max_error,
                "threshold": self.threshold, "pass": self.passed}


def dense_reduced_system(system, frame):
    """Dense reduced matrix and right-hand side (oracle path)."""
    n = frame.n_nodes
    if n > _DENSE_GUARD:
        raise OracleError(f"dense oracle limited to N <= {_DENSE_GUARD}, got {n}")
    a_full = system.dense_matrix()
    q = frame.as_sparse().toarray()
    reduced = q.T @ a_full @ q
    rhs = q.T @ system.rhs
    return reduced, rhs, a_full, q


def dense_oracle_solve(system, frame):
    """LU solve of the reduced system; returns (x, lifted v).

    A singular reduced matrix would contradict the positive definiteness of
    the constrained system and is treated as a fatal assembly bug.
    """
    reduced, rhs, _, _ = dense_reduced_system(system, frame)
    try:
        x = sla.solve(reduced, rhs)
    except sla.LinAlgError as exc:
        raise OracleError(f"reduced matrix singular: {exc}") from exc
    return x, apply_q(frame, x)


def check_mapping_identities(frame, m, n_vectors=20, seed=0):
    """Frame identities on random vectors.

    Checks Q^T Q = I on 2N vectors, that Q Q^T is idempotent on 3N vectors,
    and that Q Q^T annihilates the stacked magnetization.
    """
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
    worst = max(worst, float(np.abs(q.T @ stacked).max()))
    return CheckReport("frame_mapping_identities", worst, 1e-13, worst <= 1e-13)


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


def _barycentric_grid(depth):
    pts = []
    for i, j, k in itertools.product(range(depth + 1), repeat=3):
        l = depth - i - j - k
        if l >= 0:
            pts.append((i / depth, j / depth, k / depth, l / depth))
    return np.array(pts)


def check_bounded_ratio(mesh, mu, depth=6):
    """|mu_i mu_j / (1 + mu_3)| <= 2 sampled densely inside every element.

    Requires 1 + mu_3 > 0 at the nodes; affine interpolation then keeps the
    denominator positive throughout each element.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if (1.0 + mu[:, 2] <= 0.0).any():
        raise OracleError("1 + mu_3 must be positive at every node")
    bary = _barycentric_grid(depth)                      # (P, 4)
    vals = np.einsum("pa,eac->epc", bary, mu[mesh.tets])  # (M, P, 3)
    denom = 1.0 + vals[:, :, 2]
    worst = 0.0
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        ratio = np.abs(vals[:, :, i] * vals[:, :, j] / denom)
        worst = max(worst, float(ratio.max()))
    threshold = 2.0 + 1e-12
    return CheckReport("bounded_nodal_ratio", worst, threshold, worst <= threshold)


def check_inverse_bounds(B, B0, n_pairs=100, seed=0):
    """Transfer of two-sided bounds to inverses, with computed constants.

    c1 is the minimal generalized eigenvalue of (sym(B), B0); c2 is the
    spectral norm of B in the B0 geometry.  Verifies, on random pairs,
    x.B^{-1}x >= (c1/c2^2) x.B0^{-1}x and the c1^{-1} Cauchy-Schwarz-type
    bound on x.B^{-1}y.
    """
    B = np.asarray(B, dtype=np.float64)
    B0 = np.asarray(B0, dtype=np.float64)
    n = B.shape[0]
    if n > 40:
        raise OracleError("inverse-bound check limited to dim <= 40")
    sym = 0.5 * (B + B.T)
    eig0 = np.linalg.eigvalsh(B0)
    if eig0.min() <= 0:
        raise OracleError("B0 must be symmetric positive definite")
    c1 = float(sla.eigh(sym, B0, eigvals_only=True).min())
    if c1 <= 0:
        raise OracleError("B must be positive definite (sym part)")
    # c2: operator norm of B0^{-1/2} B B0^{-1/2}
    w, u = np.linalg.eigh(B0)
    inv_sqrt = (u / np.sqrt(w)) @ u.T
    c2 = float(np.linalg.norm(inv_sqrt @ B @ inv_sqrt, 2))

    binv = np.linalg.inv(B)
    b0inv = np.linalg.inv(B0)
    rng = np.random.default_rng(seed)
    slack = 1e-10
    worst = 0.0
    for _ in range(n_pairs):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        lower = (c1 / c2**2) * (x @ b0inv @ x)
        actual = x @ binv @ x
        worst = max(worst, (lower - actual) / max(abs(actual), 1e-300))
        cross = x @ binv @ y
        bound = (1.0 / c1) * np.sqrt((x @ b0inv @ x) * (y @ b0inv @ y))
        worst = max(worst, (abs(cross) - bound) / max(bound, 1e-300))
    report = CheckReport("inverse_transfer_bounds", float(worst), slack, worst <= slack)
    report.c1 = c1
    report.c2 = c2
    return report
