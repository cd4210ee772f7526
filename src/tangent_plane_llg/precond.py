"""Preconditioners for the tangent-space system.

Every preconditioner of a run comes from one SPD matrix K = alpha_P M +
beta_k L, which does not depend on the time step (so neither, essentially,
do the iteration counts): stationary solves with K on both tangent
components of a node, practical wraps that solve in the step's frame,
Q^T K^{-1} Q, theoretical factors the frame congruence Q^T (K (x) I_3) Q,
jacobi scales by (diag K)^{-1}, and none is the identity.  The one
PreconditionerSource of a run forms K and decides what is built when.

Both factored matrices are SPD, so Gaussian elimination is stable in any
symmetric order without pivoting.  They are factored by SuperLU in the
nested-dissection order of the mesh (Mesh.dissection_order) and in its
symmetric mode: K is permuted once by that order, the 2N x 2N matrix is
assembled on the 2x2 node blocks of the permuted K, and the diagonal is
taken as pivot (diag_pivot_thresh = 0), so the factor fills only as that
order predicts.  The solves permute the right-hand side and un-permute the
result.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .tangent import apply_q, apply_qt, reduce_blocks

PRECONDITIONER_KINDS = ("theoretical", "stationary", "practical", "jacobi", "none")


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
    """Cached factorization of K = alpha_P M + beta_k L (N x N SPD).

    ordered is P^T K P (CSR), with P the permutation of order (node
    order[i] is eliminated i-th); it is factored in SuperLU's symmetric
    mode without pivoting, and solve applies P on both sides.
    """

    def __init__(self, ordered, order):
        self.n_nodes = len(order)
        self._order = order
        self._inverse = np.argsort(order)
        self._lu = _factor_spd(ordered, "scalar operator")

    def solve(self, rhs):
        """K^{-1} rhs for rhs of shape (N,) or (N, k)."""
        # take: a row gather several times faster than fancy indexing
        return self._lu.solve(rhs.take(self._order, axis=0)).take(self._inverse, axis=0)


class Preconditioner:
    """Apply-action wrapper; kind in {theoretical, stationary, practical, jacobi, none}."""

    def __init__(self, kind, n_nodes, apply_fn):
        self.kind = kind
        self.n_nodes = n_nodes
        self._apply = apply_fn

    def apply(self, r):
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (2 * self.n_nodes,):
            raise PreconditionerError(
                f"expected ({2 * self.n_nodes},) residual, got {r.shape}")
        return self._apply(r)


def build_none(n_nodes):
    return Preconditioner("none", n_nodes, lambda r: r.copy())


def build_theoretical(frame, ordered, order):
    """Inverse of the frame-congruent SPD matrix Q^T (K (x) I_3) Q.

    Block (i, j) of the 2N x 2N matrix is the 2x2 block K_ij Q_i^T Q_j on
    the pattern of K: tangent.reduce_blocks of the scalar values K_ij with
    no cross moments, the kernel that forms the reduced system matrix.  It
    is assembled from ordered = P^T K P (CSR, P the permutation of order),
    so the 2x2 blocks of node order[i] sit at rows 2i, 2i+1, and factored
    in SuperLU's symmetric mode without pivoting, once per build.
    """
    n = frame.n_nodes
    inner = reduce_blocks(frame.blocks[order], ordered.indptr, ordered.indices,
                          ordered.data).tocsc()
    # exact zeros (Q_i^T Q_j = I where the frame is uniform) only add fill
    inner.eliminate_zeros()
    lu = _factor_spd(inner, "theoretical preconditioner")
    inverse = np.argsort(order)

    def apply_fn(r):
        y = lu.solve(r.reshape(n, 2).take(order, axis=0).ravel())
        return y.reshape(n, 2).take(inverse, axis=0).ravel()

    return Preconditioner("theoretical", n, apply_fn)


def build_stationary_2d(scalar_factor):
    """Frame-independent preconditioner: scalar solve on both components.

    Equals the inverse of the nodal 2D-basis matrix a_P M2D + bk L2D, whose
    block form reduces to K applied componentwise: the shared
    ScalarFactorization.
    """
    n = scalar_factor.n_nodes

    def apply_fn(r):
        return scalar_factor.solve(r.reshape(n, 2)).ravel()

    return Preconditioner("stationary", n, apply_fn)


def build_practical(frame, scalar_factor):
    """Q^T K^{-1} Q, on the shared ScalarFactorization.

    Only meaningful with the frame of the current magnetization; the frame
    application is the only per-step work.
    """
    n = frame.n_nodes

    def apply_fn(r):
        lifted = apply_q(frame, r).reshape(n, 3)
        return apply_qt(frame, scalar_factor.solve(lifted).ravel())

    return Preconditioner("practical", n, apply_fn)


def build_jacobi(scalar):
    """Nodal diagonal preconditioner (diag K)^{-1} per component."""
    diag = scalar.diagonal()
    if (diag <= 0).any():
        bad = int(np.nonzero(diag <= 0)[0][0])
        raise PreconditionerError(
            f"non-positive diagonal {diag[bad]} at node {bad} (assembly bug)")
    n = scalar.shape[0]
    inv = 1.0 / diag

    def apply_fn(r):
        return (r.reshape(n, 2) * inv[:, None]).ravel()

    return Preconditioner("jacobi", n, apply_fn)


class PreconditionerSource:
    """The preconditioners of one run, all from K = alpha_p M + beta_k L.

    kind, alpha_p and rebuild_every are the options of the config's precond
    section.  K is formed and checked here, once, and the kinds that factor
    permute it once into the mesh's dissection order; stationary and
    practical share its one factorization.  The frame-independent kinds are
    built here, practical on every step, and theoretical is refactored
    every rebuild_every steps with a stale frame in between (builds counts
    its factorizations).
    """

    def __init__(self, mesh, mass, stiffness, beta_k, kind, alpha_p, rebuild_every=1):
        if kind not in PRECONDITIONER_KINDS:
            raise PreconditionerError(f"unknown preconditioner kind {kind!r}")
        if alpha_p <= 0:
            raise PreconditionerError(f"alpha_P must be positive, got {alpha_p}")
        if beta_k < 0:
            raise PreconditionerError(f"beta_k must be nonnegative, got {beta_k}")
        self.kind = kind
        self.rebuild_every = rebuild_every
        self.builds = 0
        self._current = None
        # on the mesh pattern that M and L share, as the step's scalar part is
        indptr, indices, _ = mesh.adjacency()
        scalar = sp.csr_array((alpha_p * mass.data + beta_k * stiffness.data, indices, indptr),
                              shape=mass.shape)
        if kind == "none":
            self._current = build_none(mesh.N)
        elif kind == "jacobi":
            self._current = build_jacobi(scalar)
        else:
            order = mesh.dissection_order()
            ordered = scalar[order][:, order]
            if kind == "theoretical":
                self._ordered, self._order = ordered, order
            else:
                self._factor = ScalarFactorization(ordered, order)
            if kind == "stationary":
                self._current = build_stationary_2d(self._factor)

    def for_step(self, frame, step):
        """The preconditioner of step (counted from 0) with the frame of its field."""
        if self.kind == "practical":
            return build_practical(frame, self._factor)
        if self.kind == "theoretical" and (self._current is None
                                           or step % self.rebuild_every == 0):
            self._current = build_theoretical(frame, self._ordered, self._order)
            self.builds += 1
        return self._current
