"""Preconditioners for the tangent-space system.

Every preconditioner of a run comes from one SPD matrix K = alpha_P M +
beta_k L, which does not depend on the time step (so neither, essentially,
do the iteration counts): stationary solves with K on both tangent
components of a node, practical wraps that solve in the step's frame,
Q^T K^{-1} Q, theoretical factors the frame congruence Q^T (K (x) I_3) Q,
jacobi scales by (diag K)^{-1}, and none is the identity.  The one
PreconditionerSource of a run forms K and decides what is built when.  The
2N x 2N matrix is the reduced system matrix without cross moments:
tangent.reduced_matrix forms both, once per node pair of the mesh, on the
one index structure of the mesh (tangent.reduced_pattern).

Both solved matrices are SPD, so elimination is stable in any symmetric
order without pivoting.  One rule (_factor_spd) decides, from the matrix
and its mesh alone, how either is stored, ordered and solved: a matrix with
one unknown per node whose inverse takes at most DENSE_INVERSE_BYTES is
inverted in node order; otherwise one whose lower band, in the mesh's
reverse Cuthill-McKee order (Mesh.band_order), takes at most BAND_BYTES is
factored there by LAPACK's banded Cholesky (dpbtrf, dpbtrs); otherwise
SuperLU factors it in the mesh's nested-dissection order
(Mesh.dissection_order), in its symmetric mode with the diagonal as pivot.

A run holds at most one theoretical factorization: the source lets go of
the stale one before it factors the next, so the two are never alive at
once (at cube n = 16 each takes 43.5 MiB).  A caller that kept an earlier
preconditioner keeps its factor, which is never refilled in place.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from .tangent import apply_q, apply_qt, reduced_matrix

PRECONDITIONER_KINDS = ("theoretical", "stationary", "practical", "jacobi", "none")


class PreconditionerError(RuntimeError):
    pass


# The largest inverse, 8 n^2 bytes, that _factor_spd forms densely: K of N
# <= 362 nodes.  At a few hundred nodes a SuperLU or band solve is mostly
# fixed cost, and the product with K^{-1} is cheaper while K^{-1} fits the
# per-core L2 cache; past 1 MiB the products no longer win back the extra
# cost of the inversion (CHANGES.md has the measurements).
DENSE_INVERSE_BYTES = 2**20

# The largest lower band, 8 n (w + 1) bytes for an n x n matrix whose
# entries lie within w of the diagonal, that _factor_spd factors by LAPACK's
# banded Cholesky.  It puts the scalar K of cube n <= 21 and the theoretical
# matrix (2N rows, width 2w + 1) of cube n <= 16 on the band.  The band
# factors faster than SuperLU at every size, but its solves read the whole
# band once per column and lose to SuperLU's once the band is large: up to
# the cap the faster factor outweighs the slower solves of a run (CHANGES.md
# has the measurements).
BAND_BYTES = 48 * 2**20


def _factor_spd(matrix, mesh, what):
    """The solve of an SPD matrix A on the nodes of mesh, by the one rule.

    matrix is A in CSR, n x n, with per = n / N unknowns per node: those of
    a node consecutive, the nodes in node order.  With w the width of
    mesh.band_order(), the first row that holds decides how A is stored and
    in which order of the nodes it is eliminated (a node's unknowns
    together):

    | per | cap                           | storage                 | order              |
    |-----|-------------------------------|-------------------------|--------------------|
    | 1   | 8 n^2 <= DENSE_INVERSE_BYTES  | A^{-1} (dpotrf, dpotri) | node order         |
    | any | 8 n per (w + 1) <= BAND_BYTES | band (dpbtrf, dpbtrs)   | band_order()       |
    | any | otherwise                     | SuperLU, symmetric mode | dissection_order() |

    The band holds the per (w + 1) diagonals on and below the main one of
    P^T A P, P the permutation of that order, and is filled from the ranked
    entries of A; SuperLU factors P^T A P mirrored from its lower triangle,
    the diagonal as pivot.  Either reads only the entries on and below the
    diagonal of P^T A P.  solve takes rhs of shape (n,) or (n, k) in node
    order and returns A^{-1} rhs in node order.
    """
    n = matrix.shape[0]
    per = n // mesh.N
    if per == 1 and 8 * n * n <= DENSE_INVERSE_BYTES:
        inverse = _spd_inverse(matrix.toarray(), what)
        return lambda rhs: inverse @ rhs
    nodes, width = mesh.band_order()
    width = per * (width + 1) - 1  # in unknowns, a node's together
    fits = 8 * n * (width + 1) <= BAND_BYTES
    if not fits:
        nodes = mesh.dissection_order()
    # unknown a of node nodes[i] is eliminated (per i + a)-th
    order = (per * nodes[:, None] + np.arange(per)).ravel()
    # entry (i, j) of A is entry (rank[i], rank[j]) of P^T A P
    rank = np.empty(n, dtype=matrix.indices.dtype)
    rank[order] = np.arange(n, dtype=rank.dtype)
    col = rank.take(matrix.indices)
    offset = np.repeat(rank, np.diff(matrix.indptr)) - col
    below = offset >= 0
    offset, col, data = offset[below], col[below], matrix.data[below]
    if fits:
        # Fortran order: column j of the band is contiguous, as LAPACK reads it
        band = np.zeros((width + 1, n), order="F")
        band[offset, col] = data
        # the ranked entries are in the band: free them before the factor
        del offset, col, data, below
        factor, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:
            raise PreconditionerError(
                f"{what} factorization failed (SPD lost?): LAPACK info {info}")

        def solve(rhs):
            return lapack.dpbtrs(factor, rhs, lower=1)[0]
    else:
        lower = sp.csc_array((data, (offset + col, col)), shape=(n, n))
        full = (lower + sp.tril(lower, -1).T).tocsc()
        # exact zeros (theoretical blocks Q_i^T Q_j = I where the frame is
        # uniform) only add fill
        full.eliminate_zeros()
        try:
            solve = splu(full, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True}).solve
        except RuntimeError as exc:
            raise PreconditionerError(
                f"{what} factorization failed (SPD lost?): {exc}") from exc
    # take: a row gather several times faster than fancy indexing
    return lambda rhs: solve(rhs.take(order, axis=0)).take(rank, axis=0)


def _spd_inverse(dense, what):
    """The inverse of a dense SPD matrix, from the lower Cholesky factor;
    overwrites dense."""
    # dense is symmetric, so its transpose is itself in Fortran order, which
    # LAPACK factors and inverts in place
    factor, info = lapack.dpotrf(dense.T, lower=1, overwrite_a=1)
    if info == 0:
        inverse, info = lapack.dpotri(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise PreconditionerError(
            f"{what} inversion failed (SPD lost?): LAPACK info {info}")
    # dpotri fills the lower triangle and keeps the upper one of factor,
    # which dpotrf zeroed: adding the transpose mirrors it
    full = inverse + inverse.T
    full.flat[::len(full) + 1] = inverse.diagonal()
    return full


class ScalarFactorization:
    """Cached factorization of K = alpha_P M + beta_k L (N x N SPD).

    scalar is K (CSR, node order) on the nodes of mesh.  solve(rhs) is
    K^{-1} rhs for rhs of shape (N,) or (N, k), by the _factor_spd rule.
    """

    def __init__(self, scalar, mesh):
        self.n_nodes = mesh.N
        self.solve = _factor_spd(scalar, mesh, "scalar operator")


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


def build_theoretical(frame, mesh, scalar):
    """Inverse of the frame-congruent SPD matrix Q^T (K (x) I_3) Q.

    scalar holds K on the slots of mesh.node_pairs().  Block (i, j) of the
    2N x 2N matrix is the 2x2 block K_ij Q_i^T Q_j: the reduced system
    matrix without cross moments, formed by the same tangent.reduced_matrix
    on the same structure, node order, and solved by the _factor_spd rule.
    """
    return Preconditioner("theoretical", frame.n_nodes,
                          _factor_spd(reduced_matrix(mesh, frame.blocks, scalar), mesh,
                                      "theoretical preconditioner"))


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
    if not (diag > 0).all():  # NaN fails too
        bad = int(np.argmin(diag > 0))
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
    section, taken unchecked (SimulationConfig.validate holds alpha_p > 0,
    and beta_k >= 0).  K is formed here, once; theoretical keeps its values
    on the mesh's slots, and stationary and practical share its one
    ScalarFactorization.  factors, a dict that the caller keeps for the
    runs on this mesh, holds that factorization by (alpha_p, beta_k): the
    source takes it from there, or builds it and stores it there, so runs
    with equal K factor it once; with factors None it is the run's own.
    The frame-independent kinds are built here, practical on every step,
    and theoretical is refactored every rebuild_every steps with a stale
    frame in between (builds counts its factorizations).  The source drops
    its stale theoretical preconditioner before it refactors, so it holds
    at most one factorization; if the new one fails, none is held and the
    next step refactors.
    """

    def __init__(self, mesh, mass, stiffness, beta_k, kind, alpha_p, rebuild_every=1,
                 factors=None):
        self.kind = kind
        self.rebuild_every = rebuild_every
        self.builds = 0
        self._current = None
        # on the mesh pattern that M and L share, as the step's scalar part is
        values = alpha_p * mass.data + beta_k * stiffness.data
        scalar = sp.csr_array((values, mass.indices, mass.indptr), shape=mass.shape)
        if kind == "none":
            self._current = build_none(mesh.N)
        elif kind == "jacobi":
            self._current = build_jacobi(scalar)
        elif kind == "theoretical":
            self._theoretical = (mesh, values)
        else:
            factors = {} if factors is None else factors
            if (alpha_p, beta_k) not in factors:
                factors[alpha_p, beta_k] = ScalarFactorization(scalar, mesh)
            self._factor = factors[alpha_p, beta_k]
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
            self._current = build_theoretical(frame, *self._theoretical)
            self.builds += 1
        return self._current
