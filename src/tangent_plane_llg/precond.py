"""Preconditioners for the tangent-space system.

All variants expose a symmetric positive definite apply-action on 2N
residual vectors.  The inner SPD matrix alpha_P * mass + beta_k * stiffness
is inverted by a cached sparse direct factorization; the stationary and
practical variants share one scalar N x N factorization (the practical one
only adds frame applications), while the frame-dependent theoretical
variant factors its own 2N x 2N matrix and must be rebuilt whenever the
frame it was built from should follow the magnetization.

Both factored matrices are SPD, so Gaussian elimination is stable in any
symmetric order without pivoting.  They are factored by SuperLU in the
nested-dissection order of the mesh (Mesh.dissection_order) and in its
symmetric mode: the rows and columns are permuted once by that order, and
the diagonal is taken as pivot (diag_pivot_thresh = 0), so the factor fills
only as that order predicts.  The solves permute the right-hand side and
un-permute the result.
"""

import numpy as np
from scipy.sparse.linalg import splu

from .tangent import apply_q, apply_qt, reduce_blocks

PRECONDITIONER_KINDS = ("theoretical", "stationary", "practical", "jacobi", "none")
# the kinds that factor an SPD matrix in the elimination order of the mesh
FACTORED_KINDS = ("theoretical", "stationary", "practical")


class PreconditionerError(RuntimeError):
    pass


def _factor_spd(matrix, what):
    """SuperLU factors of an SPD matrix already in elimination order."""
    try:
        return splu(matrix.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise PreconditionerError(f"{what} factorization failed (SPD lost?): {exc}") from exc


class ScalarFactorization:
    """Cached factorization of alpha_P * M + beta_k * L (N x N SPD).

    The matrix is factored as P^T (alpha_P M + beta_k L) P, with P the
    permutation of order (node order[i] is eliminated i-th), in SuperLU's
    symmetric mode without pivoting; solve applies P on both sides.
    """

    def __init__(self, mass, stiffness, alpha_P, beta_k, order):
        if alpha_P <= 0:
            raise PreconditionerError(f"alpha_P must be positive, got {alpha_P}")
        if beta_k < 0:
            raise PreconditionerError(f"beta_k must be nonnegative, got {beta_k}")
        self.alpha_P = float(alpha_P)
        self.beta_k = float(beta_k)
        self._order = order
        self._inverse = np.argsort(order)
        scalar = (alpha_P * mass + beta_k * stiffness).tocsr()
        self._lu = _factor_spd(scalar[order][:, order], "scalar operator")

    def solve(self, rhs):
        """(alpha_P M + beta_k L)^{-1} rhs for rhs of shape (N,) or (N, k)."""
        # take: a row gather several times faster than fancy indexing
        return self._lu.solve(rhs.take(self._order, axis=0)).take(self._inverse, axis=0)


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


def build_theoretical(frame, mass, stiffness, alpha_P, beta_k, order):
    """Inverse of the frame-congruent SPD matrix Q^T (a_P M + bk L) Q.

    With K = a_P M + bk L, block (i, j) of the 2N x 2N matrix is the 2x2
    block K_ij Q_i^T Q_j on the pattern of K: tangent.reduce_blocks of the
    3x3 blocks K_ij I_3, the congruence that forms the reduced system
    matrix.  It is assembled in the node order of order (the 2x2 blocks of
    node order[i] at rows 2i, 2i+1) and factored in SuperLU's symmetric
    mode without pivoting, once per build; the frame may be kept stale for
    several steps (rebuild cadence is the caller's knob).
    """
    if alpha_P <= 0:
        raise PreconditionerError(f"alpha_P must be positive, got {alpha_P}")
    scalar = (alpha_P * mass + beta_k * stiffness).tocsr()[order][:, order]
    n = frame.n_nodes
    inner = reduce_blocks(frame.blocks[order], scalar.indptr, scalar.indices,
                          scalar.data[:, None, None] * np.eye(3)).tocsc()
    # exact zeros (Q_i^T Q_j = I where the frame is uniform) only add fill
    inner.eliminate_zeros()
    lu = _factor_spd(inner, "theoretical preconditioner")
    inverse = np.argsort(order)

    def apply_fn(r):
        y = lu.solve(r.reshape(n, 2).take(order, axis=0).ravel())
        return y.reshape(n, 2).take(inverse, axis=0).ravel()

    return Preconditioner("theoretical", n, apply_fn)


def build_stationary_2d(mass, stiffness, alpha_P, beta_k, order, scalar_factor=None):
    """Frame-independent preconditioner: scalar solve on both components.

    Equals the inverse of the nodal 2D-basis matrix a_P M2D + bk L2D, whose
    block form reduces to the scalar N x N matrix applied componentwise.
    The scalar matrix is factored in order, unless scalar_factor is shared.
    """
    if scalar_factor is None:
        scalar_factor = ScalarFactorization(mass, stiffness, alpha_P, beta_k, order)
    elif scalar_factor.alpha_P != alpha_P or scalar_factor.beta_k != beta_k:
        raise PreconditionerError("shared scalar factorization has mismatched coefficients")
    n = mass.shape[0]

    def apply_fn(r):
        return scalar_factor.solve(r.reshape(n, 2)).ravel()

    return Preconditioner("stationary", n, apply_fn, scalar_factor=scalar_factor)


def build_practical(frame, mass, stiffness, alpha_P, beta_k, order, scalar_factor=None):
    """Q^T (a_P M + bk L)^{-1} Q, reusing the scalar factorization blockwise.

    Only meaningful with the frame of the current magnetization; the frame
    application is the only per-step work.  The scalar matrix is factored
    in order, unless scalar_factor is shared.
    """
    if scalar_factor is None:
        scalar_factor = ScalarFactorization(mass, stiffness, alpha_P, beta_k, order)
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


def make_preconditioner(kind, mass, stiffness, alpha_P, beta_k, order=None, frame=None,
                        scalar_factor=None):
    """The one map from a preconditioner kind to its builder.  The kinds
    that factor need the elimination order of the mesh (order, see
    Mesh.dissection_order); theoretical and practical need the frame of
    the step."""
    if frame is None and kind in ("theoretical", "practical"):
        raise PreconditionerError(f"{kind} preconditioner needs a frame")
    if order is None and kind in FACTORED_KINDS:
        raise PreconditionerError(f"{kind} preconditioner needs an elimination order")
    if kind == "none":
        return build_none(mass.shape[0])
    if kind == "jacobi":
        return build_jacobi(mass, stiffness, alpha_P, beta_k)
    if kind == "stationary":
        return build_stationary_2d(mass, stiffness, alpha_P, beta_k, order, scalar_factor)
    if kind == "practical":
        return build_practical(frame, mass, stiffness, alpha_P, beta_k, order, scalar_factor)
    if kind == "theoretical":
        return build_theoretical(frame, mass, stiffness, alpha_P, beta_k, order)
    raise PreconditionerError(f"unknown preconditioner kind {kind!r}")
