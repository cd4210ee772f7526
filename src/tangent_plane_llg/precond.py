"""Preconditioners for the tangent-space system.

Every preconditioner of a run comes from one SPD matrix K = alpha_P M +
beta_k L, which does not depend on the time step (so neither, essentially,
do the iteration counts): stationary solves with K on both tangent
components of a node, practical wraps that solve in the step's frame,
Q^T K^{-1} Q, theoretical factors the frame congruence Q^T (K (x) I_3) Q,
jacobi scales by (diag K)^{-1}, and none is the identity.  The one
PreconditionerSource of a run forms K and decides what is built when.

Both factored matrices are SPD, so elimination is stable in any symmetric
order without pivoting.  One rule (_factor_spd) factors either: given the
lower triangle of the matrix in an elimination order, it factors by
LAPACK's banded Cholesky (dpbtrf, dpbtrs) while the lower band takes at
most BAND_BYTES, and above by SuperLU in its symmetric mode with the
diagonal as pivot; its solve permutes the right-hand side into that order
and back.  The source picks the order from the mesh's cached band width:
reverse Cuthill-McKee (Mesh.band_order) where the band fits, else nested
dissection (Mesh.dissection_order), so that SuperLU fills only as that
order predicts.  The 2N x 2N matrix is assembled on the 2x2 node blocks of
the permuted K.  K of a small mesh is not factored but inverted, once and
in node order (DENSE_INVERSE_BYTES): each of its solves is then one dense
product.

A run holds at most one theoretical factorization: the source lets go of
the stale one before it factors the next, so the two are never alive at
once (at cube n = 16 each takes 43.5 MiB).  A caller that kept an earlier
preconditioner keeps its factor, which is never refilled in place.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from .tangent import apply_q, apply_qt, reduce_blocks

PRECONDITIONER_KINDS = ("theoretical", "stationary", "practical", "jacobi", "none")


class PreconditionerError(RuntimeError):
    pass


# The largest lower band, 8 n (w + 1) bytes for an n x n matrix whose
# entries lie within w of the diagonal, that _factor_spd factors by LAPACK's
# banded Cholesky; above it, SuperLU factors the matrix in the mesh's
# nested-dissection order.  It puts the scalar K of cube n <= 21 and the
# theoretical matrix (2N rows, width 2w + 1) of cube n <= 16 on the band.
# With one BLAS thread on a 2-core host the band factor was 2.3-2.9x faster
# from cube n = 12 to 24.  Its solves read the band once per column: a
# 1-column theoretical solve took 3.3 against 5.7 ms at n = 16 and 21.6
# against 14.9 ms at n = 20, and a 3-column scalar solve 2.4 against 2.1 ms
# at n = 16 and 12.4 against 8.1 ms at n = 22.  README.md has the table.
BAND_BYTES = 48 * 2**20


def band_fits(n, width):
    """Whether an n x n matrix of half-bandwidth width is factored in band
    storage (8 n (width + 1) <= BAND_BYTES)."""
    return 8 * n * (width + 1) <= BAND_BYTES


def _factor_spd(lower, order, what):
    """The solve of an SPD matrix A, factored in a given elimination order.

    lower is P^T A P in CSR, P the permutation of order (unknown order[i]
    is eliminated i-th), and holds at least its lower triangle; nothing
    above the diagonal is read.  If its lower band fits (band_fits), it is
    copied to LAPACK's lower band storage, factored there by the banded
    Cholesky dpbtrf and solved by dpbtrs.  Otherwise SuperLU factors the
    matrix mirrored from the lower triangle in its symmetric mode without
    pivoting.  solve takes rhs of shape (n,) or (n, k) in the caller's
    order and returns A^{-1} rhs in that order.
    """
    n = lower.shape[0]
    offset = np.repeat(np.arange(n), np.diff(lower.indptr)) - lower.indices
    below = offset >= 0
    width = int(offset[below].max(initial=0))
    if band_fits(n, width):
        # Fortran order: column j of the band is contiguous, as LAPACK reads it
        band = np.zeros((width + 1, n), order="F")
        band[offset[below], lower.indices[below]] = lower.data[below]
        factor, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:
            raise PreconditionerError(
                f"{what} factorization failed (SPD lost?): LAPACK info {info}")

        def solve(rhs):
            return lapack.dpbtrs(factor, rhs, lower=1)[0]
    else:
        full = (sp.tril(lower) + sp.tril(lower, -1).T).tocsc()
        # exact zeros (theoretical blocks Q_i^T Q_j = I where the frame is
        # uniform) only add fill
        full.eliminate_zeros()
        try:
            solve = splu(full, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True}).solve
        except RuntimeError as exc:
            raise PreconditionerError(
                f"{what} factorization failed (SPD lost?): {exc}") from exc
    inverse = np.argsort(order)
    # take: a row gather several times faster than fancy indexing
    return lambda rhs: solve(rhs.take(order, axis=0)).take(inverse, axis=0)


# The largest K^{-1} that ScalarFactorization forms densely: 8 N^2 bytes, so
# N <= 362.  At a few hundred nodes a SuperLU solve is mostly fixed cost.
# With one BLAS thread on a 2-core host, a 3-column solve took 61 us against
# 18 us for the product with K^{-1} at N = 252, and 85 against 36 us at
# N = 343, while the inversion cost 0.7 and 1.7 ms more than the factor.  At
# N = 512 the product barely won and the inversion cost 10 ms more; at
# N = 729, where K^{-1} (4 MiB) no longer fits in L2, the product was 2.6x
# slower.  README.md has the table.
DENSE_INVERSE_BYTES = 2**20


class ScalarFactorization:
    """Cached factorization of K = alpha_P M + beta_k L (N x N SPD).

    scalar is K (CSR, node order).  solve(rhs) is K^{-1} rhs for rhs of
    shape (N,) or (N, k).  Up to DENSE_INVERSE_BYTES, K^{-1} is formed once
    by LAPACK's Cholesky factorization and inversion (dpotrf, dpotri), and
    solve is one product with it.  Above, solve is the _factor_spd solve of
    K, eliminated in order (node order[i] is eliminated i-th).
    """

    def __init__(self, scalar, order):
        n = len(order)
        self.n_nodes = n
        if 8 * n * n <= DENSE_INVERSE_BYTES:
            k_inv = _spd_inverse(scalar.toarray())
            self.solve = lambda rhs: k_inv @ rhs
        else:
            self.solve = _factor_spd(scalar[order][:, order], order, "scalar operator")


def _spd_inverse(dense):
    """The inverse of a dense SPD matrix, from the lower Cholesky factor;
    overwrites dense."""
    # dense is symmetric, so its transpose is itself in Fortran order, which
    # LAPACK factors and inverts in place
    factor, info = lapack.dpotrf(dense.T, lower=1, overwrite_a=1)
    if info == 0:
        inverse, info = lapack.dpotri(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise PreconditionerError(
            f"scalar operator inversion failed (SPD lost?): LAPACK info {info}")
    # dpotri fills the lower triangle and keeps the upper one of factor,
    # which dpotrf zeroed: adding the transpose mirrors it
    full = inverse + inverse.T
    full.flat[::len(full) + 1] = inverse.diagonal()
    return full


class Preconditioner:
    """Apply-action wrapper; kind in {theoretical, stationary, practical, jacobi, none}."""

    def __init__(self, kind, n_nodes, apply_fn):
        self.kind = kind
        self.n_nodes = n_nodes
        self._apply = apply_fn

    def apply(self, r):
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
    is assembled from the lower triangle of ordered = P^T K P (CSR, P the
    permutation of order), so the 2x2 blocks of node order[i] sit at rows
    2i, 2i+1, and factored by _factor_spd once per build.  K (x) I_3 has no
    cross moments, so block (j, i) is the transpose of block (i, j) and
    only the lower blocks are formed.
    """
    lower = sp.tril(ordered, format="csr")
    inner = reduce_blocks(frame.blocks[order], lower.indptr, lower.indices, lower.data)
    # order on the 2N unknowns: the two of node order[i] at 2i, 2i + 1
    dofs = (2 * order[:, None] + np.arange(2)).ravel()
    return Preconditioner("theoretical", frame.n_nodes,
                          _factor_spd(inner, dofs, "theoretical preconditioner"))


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
    section.  K is formed and checked here, once; theoretical permutes it
    once into the mesh's elimination order, and stationary and practical
    share its one ScalarFactorization.  The order is the mesh's reverse
    Cuthill-McKee order when the band of the matrix to factor fits
    (band_fits), else its nested-dissection order, which is computed only
    then.  The frame-independent kinds are built here, practical on every
    step, and theoretical is refactored every rebuild_every steps with a
    stale frame in between (builds counts its factorizations).  The source
    drops its stale theoretical preconditioner before it refactors, so it
    holds at most one factorization; if the new one fails, none is held and
    the next step refactors.
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
            order, width = mesh.band_order()
            if kind == "theoretical":  # two dofs per node
                fits = band_fits(2 * mesh.N, 2 * width + 1)
            else:
                fits = band_fits(mesh.N, width)
            if not fits:
                order = mesh.dissection_order()
            if kind == "theoretical":
                self._order = order
                self._ordered = scalar[order][:, order]
            else:
                self._factor = ScalarFactorization(scalar, order)
            if kind == "stationary":
                self._current = build_stationary_2d(self._factor)

    def for_step(self, frame, step):
        """The preconditioner of step (counted from 0) with the frame of its field."""
        if self.kind == "practical":
            return build_practical(frame, self._factor)
        if self.kind == "theoretical" and (self._current is None
                                           or step % self.rebuild_every == 0):
            # drop the stale factor first, so that at most one is alive
            self._current = None
            self._current = build_theoretical(frame, self._ordered, self._order)
            self.builds += 1
        return self._current
