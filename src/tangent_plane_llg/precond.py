"""Preconditioners for the tangent-space system.

All variants expose a symmetric positive definite apply-action on 2N
residual vectors.  The inner SPD matrix alpha_P * mass + beta_k * stiffness
is inverted by a cached sparse direct factorization; the stationary and
practical variants share one scalar N x N factorization (the practical one
only adds frame applications), while the frame-dependent theoretical
variant factors its own 2N x 2N matrix and must be rebuilt whenever the
frame it was built from should follow the magnetization.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .tangent import apply_q, apply_qt

PRECONDITIONER_KINDS = ("theoretical", "stationary", "practical", "jacobi", "none")


class PreconditionerError(RuntimeError):
    pass


class ScalarFactorization:
    """Cached direct factorization of alpha_P * M + beta_k * L (N x N SPD)."""

    def __init__(self, mass, stiffness, alpha_P, beta_k):
        if alpha_P <= 0:
            raise PreconditionerError(f"alpha_P must be positive, got {alpha_P}")
        if beta_k < 0:
            raise PreconditionerError(f"beta_k must be nonnegative, got {beta_k}")
        self.alpha_P = float(alpha_P)
        self.beta_k = float(beta_k)
        self.matrix = (alpha_P * mass + beta_k * stiffness).tocsc()
        try:
            self._lu = splu(self.matrix)
        except RuntimeError as exc:
            raise PreconditionerError(f"scalar operator factorization failed: {exc}") from exc

    def solve(self, rhs):
        return self._lu.solve(rhs)


class Preconditioner:
    """Apply-action wrapper; kind in {theoretical, stationary, practical, jacobi, none}."""

    def __init__(self, kind, n_nodes, apply_fn, scalar_factor=None):
        self.kind = kind
        self.n_nodes = n_nodes
        self.scalar_factor = scalar_factor
        self._apply = apply_fn

    def apply(self, r):
        r = np.asarray(r, dtype=np.float64)
        if self.n_nodes is not None and r.shape != (2 * self.n_nodes,):
            raise PreconditionerError(
                f"expected ({2 * self.n_nodes},) residual, got {r.shape}")
        return self._apply(r)


def build_none(n_nodes=None):
    return Preconditioner("none", n_nodes, lambda r: r.copy())


def build_theoretical(frame, mass, stiffness, alpha_P, beta_k):
    """Inverse of the frame-congruent SPD matrix Q^T (a_P M + bk L) Q.

    With K = a_P M + bk L, block (i, j) of the 2N x 2N matrix is the 2x2
    block K_ij Q_i^T Q_j on the pattern of K.  It is assembled and factored
    once per build; the frame may be kept stale for several steps (rebuild
    cadence is the caller's knob).
    """
    if alpha_P <= 0:
        raise PreconditionerError(f"alpha_P must be positive, got {alpha_P}")
    scalar = (alpha_P * mass + beta_k * stiffness).tocsr()
    n = frame.n_nodes
    rows = np.repeat(np.arange(n), np.diff(scalar.indptr))
    blocks = np.einsum("k,kpa,kpb->kab", scalar.data, frame.blocks[rows],
                       frame.blocks[scalar.indices])
    inner = sp.bsr_array((blocks, scalar.indices, scalar.indptr), shape=(2 * n, 2 * n)).tocsc()
    # exact zeros (Q_i^T Q_j = I where the frame is uniform) only add fill
    inner.eliminate_zeros()
    try:
        lu = splu(inner)
    except RuntimeError as exc:
        raise PreconditionerError(
            f"theoretical preconditioner factorization failed (SPD lost?): {exc}") from exc
    return Preconditioner("theoretical", n, lu.solve)


def build_stationary_2d(mass, stiffness, alpha_P, beta_k, scalar_factor=None):
    """Frame-independent preconditioner: scalar solve on both components.

    Equals the inverse of the nodal 2D-basis matrix a_P M2D + bk L2D, whose
    block form reduces to the scalar N x N matrix applied componentwise.
    """
    if scalar_factor is None:
        scalar_factor = ScalarFactorization(mass, stiffness, alpha_P, beta_k)
    elif scalar_factor.alpha_P != alpha_P or scalar_factor.beta_k != beta_k:
        raise PreconditionerError("shared scalar factorization has mismatched coefficients")
    n = mass.shape[0]

    def apply_fn(r):
        return scalar_factor.solve(r.reshape(n, 2)).ravel()

    return Preconditioner("stationary", n, apply_fn, scalar_factor=scalar_factor)


def build_practical(frame, mass, stiffness, alpha_P, beta_k, scalar_factor=None):
    """Q^T (a_P M + bk L)^{-1} Q, reusing the scalar factorization blockwise.

    Only meaningful with the frame of the current magnetization; the frame
    application is the only per-step work.
    """
    if scalar_factor is None:
        scalar_factor = ScalarFactorization(mass, stiffness, alpha_P, beta_k)
    elif scalar_factor.alpha_P != alpha_P or scalar_factor.beta_k != beta_k:
        raise PreconditionerError("shared scalar factorization has mismatched coefficients")
    n = frame.n_nodes

    def apply_fn(r):
        lifted = apply_q(frame, r).reshape(n, 3)
        return apply_qt(frame, scalar_factor.solve(lifted).ravel())

    return Preconditioner("practical", n, apply_fn, scalar_factor=scalar_factor)


def build_jacobi(mass, stiffness, alpha_P, beta_k):
    """Nodal diagonal preconditioner (a_P M_ii + bk L_ii)^{-1} per component."""
    if alpha_P <= 0:
        raise PreconditionerError(f"alpha_P must be positive, got {alpha_P}")
    diag = alpha_P * mass.diagonal() + beta_k * stiffness.diagonal()
    if (diag <= 0).any():
        bad = int(np.nonzero(diag <= 0)[0][0])
        raise PreconditionerError(
            f"non-positive diagonal {diag[bad]} at node {bad} (assembly bug)")
    n = mass.shape[0]
    inv = 1.0 / diag

    def apply_fn(r):
        return (r.reshape(n, 2) * inv[:, None]).ravel()

    return Preconditioner("jacobi", n, apply_fn)


def make_preconditioner(kind, mass, stiffness, alpha_P, beta_k, frame=None,
                        scalar_factor=None):
    """The one map from a preconditioner kind to its builder; theoretical
    and practical need the frame of the step."""
    if frame is None and kind in ("theoretical", "practical"):
        raise PreconditionerError(f"{kind} preconditioner needs a frame")
    if kind == "none":
        return build_none(mass.shape[0])
    if kind == "jacobi":
        return build_jacobi(mass, stiffness, alpha_P, beta_k)
    if kind == "stationary":
        return build_stationary_2d(mass, stiffness, alpha_P, beta_k, scalar_factor)
    if kind == "practical":
        return build_practical(frame, mass, stiffness, alpha_P, beta_k, scalar_factor)
    if kind == "theoretical":
        return build_theoretical(frame, mass, stiffness, alpha_P, beta_k)
    raise PreconditionerError(f"unknown preconditioner kind {kind!r}")
