"""Nodal tangent frames for unit-length P1 fields.

Each node carries a 3x2 matrix with orthonormal columns spanning the plane
orthogonal to the local magnetization; stacking them block-diagonally gives
the 3N x 2N change of basis between tangent coefficients and full vectors.
The frame is a Householder reflection mapping e3 to -m; a global
signed-axis involution T relabels the coordinate axes first, and can be
picked adaptively to keep 1 + (T m)_3 away from zero at every node.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import once_per_mesh

_E = np.eye(3)

# The six admissible axis involutions, keyed as in the CLI (--tn).
FIXED_INVOLUTIONS = {
    "t1+": np.column_stack([-_E[:, 2], _E[:, 1], -_E[:, 0]]),
    "t1-": np.column_stack([_E[:, 2], _E[:, 1], _E[:, 0]]),
    "t2+": np.column_stack([_E[:, 0], -_E[:, 2], -_E[:, 1]]),
    "t2-": np.column_stack([_E[:, 0], _E[:, 2], _E[:, 1]]),
    "t3+": np.column_stack([_E[:, 0], _E[:, 1], -_E[:, 2]]),
    "t3-": np.eye(3),
}
_ADAPTIVE_ORDER = ["t1+", "t1-", "t2+", "t2-", "t3+", "t3-"]

# The reflection takes its exact -e3 branch where the row norm of w is below
# this bound.  There the tangential part of m is the rounding of a field on
# the pole (sin 2 pi = -2.4e-16): the direction of w is rounding noise, and
# the exact frame is off m-perp by less than the bound.  The bound also
# keeps vecdot(w, w) far inside the normal range, so w can be normalized.
# Above it, with the near-pole w_3 of _householder, the frame is tangent.
_POLE_GUARD = 1e-15


class FrameError(ValueError):
    pass


def _row_norms(v):
    # sqrt of ddot per row: bit-identical to np.linalg.norm of each row alone
    return np.sqrt(np.vecdot(v, v))


def _householder(m):
    # reflection vector w = (m + e3)/|m + e3|; exact -e3 branch at the pole
    w = m + _E[:, 2]
    # I - 2 w w^T/|w|^2 maps e3 to -m only if |m| = 1, so the rounding of |m|
    # tilts the columns off m-perp by about eps/|w|.  Near -e3, w_3 = 1 + m_3
    # is taken as (m_1^2 + m_2^2)/(1 - m_3), its value on the unit sphere
    # through (m_1, m_2), which cuts the tilt to about eps |w|.  Above 1e-6
    # the tilt is at most about 700 eps, and w_3 stays 1 + m_3
    near = w[:, 2] < 1e-6
    mn = m[near]
    w[near, 2] = (mn[:, 0] * mn[:, 0] + mn[:, 1] * mn[:, 1]) / (1.0 - mn[:, 2])
    wn = _row_norms(w)
    pole = wn < _POLE_GUARD
    w /= np.where(pole, 1.0, wn)[:, None]
    # first two columns of I - 2 w w^T
    blocks = _E[:, :2] - 2.0 * (w[:, :, None] * w[:, None, :2])
    blocks[pole] = _E[:, :2]
    return blocks


@dataclass(frozen=True)
class FrameSelection:
    """Outcome of the adaptive axis-involution choice."""

    d_plus: np.ndarray   # (3,) values 1 - max_z m_l(z)
    d_minus: np.ndarray  # (3,) values 1 + min_z m_l(z)
    chosen_key: str
    chosen_T: np.ndarray
    gamma: float

    def all_d(self):
        """The six candidates in scan order (1+, 1-, 2+, 2-, 3+, 3-)."""
        return np.array([self.d_plus[0], self.d_minus[0], self.d_plus[1],
                         self.d_minus[1], self.d_plus[2], self.d_minus[2]])


def select_tn_adaptive(m):
    """Pick the axis involution maximizing the nodal bound on 1 + (T m)_3.

    Ties are broken by the fixed scan order t1+, t1-, t2+, t2-, t3+, t3-.
    gamma = 0 is a valid outcome (all six signed axes present in the field).
    """
    m = np.asarray(m, dtype=np.float64)
    d_plus = 1.0 - m.max(axis=0)
    d_minus = 1.0 + m.min(axis=0)
    order = [d_plus[0], d_minus[0], d_plus[1], d_minus[1], d_plus[2], d_minus[2]]
    best = int(np.argmax(order))
    key = _ADAPTIVE_ORDER[best]
    return FrameSelection(
        d_plus=d_plus,
        d_minus=d_minus,
        chosen_key=key,
        chosen_T=FIXED_INVOLUTIONS[key],
        gamma=float(order[best]),
    )


def frame_gamma(m, T):
    """min over nodes of 1 + m(z) . (T e3)."""
    axis = np.asarray(T)[:, 2]
    return float(1.0 + (np.asarray(m) @ axis).min())


class TangentFrame:
    """Per-node orthonormal tangent bases under a global axis involution."""

    def __init__(self, blocks):
        self.blocks = blocks  # (N, 3, 2)
        self._sparse = None
        blocks.setflags(write=False)

    @property
    def n_nodes(self):
        return self.blocks.shape[0]

    def as_sparse(self):
        """Block-diagonal 3N x 2N CSR matrix of the frame."""
        if self._sparse is None:
            n = self.n_nodes
            self._sparse = sp.bsr_array((self.blocks, np.arange(n), np.arange(n + 1)),
                                        shape=(3 * n, 2 * n)).tocsr()
        return self._sparse


def build_frame(m, T=None):
    """Build the nodal frame field: block i = T frame(T m(z_i)).

    T must be a symmetric involution (defaults to the identity).  The 3x2
    frame of a unit vector m is the first two columns of the reflection
    I - 2 w w^T with w = (m + e3)/|m + e3|: it maps e3 to -m, so they are
    orthonormal and span the plane orthogonal to m; at m = -e3 the limit
    branch [e1, e2, -e3] applies.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != 3:
        raise FrameError(f"magnetization must be (N, 3), got {m.shape}")
    if T is None:
        T = np.eye(3)
    T = np.asarray(T, dtype=np.float64)
    if np.abs(T - T.T).max() > 1e-14 or np.abs(T @ T - np.eye(3)).max() > 1e-14:
        raise FrameError("T must be a symmetric involution (T = T^T, T T = I)")

    # with the signed permutations of FIXED_INVOLUTIONS both products are exact
    mt = m @ T.T
    nrm = _row_norms(mt)
    bad = np.abs(nrm - 1.0) > 1e-12
    if bad.any():
        i = int(np.argmax(bad))
        raise FrameError(f"node {i}: frame input must be a unit vector, |m| = {float(nrm[i])}")
    blocks = T @ _householder(mt)
    return TangentFrame(blocks)


def reduce_pairs(q, pairs, scalar, at, size, moments=None):
    """The data of the congruence R = Q^T B Q, formed once per node pair.

    B is a 3x3-block matrix with the blocks B_ij = s_ij I_3 - sum_d c_ij,d E_d
    and B_ji = B_ij^T (s and c the same at (i, j) and (j, i)); q holds the
    (N, 3, 2) frame blocks.  Pair p is the nodes (i, j) = pairs[:, p] with
    s = scalar[p] and c = moments[:, p], or c = 0 when moments is None.  With

        G_ab = s (q_ia . q_jb),   H_ab = c . (q_ia x q_jb),

    block (i, j) of R is G - H and block (j, i) is (G + H)^T, bit for bit
    the blocks evaluated on their own: q_jb . q_ia is the same products in
    the same order, and q_jb x q_ia is exactly -(q_ia x q_jb).  With
    (first, width) = at[0][:, p], entry (a, b) of block (i, j) goes to
    data[first + a width + b], and entry (b, a) of block (j, i) goes to
    data[first + b width + a], (first, width) = at[1][:, p].  Returns data,
    of size entries.
    """
    frame = np.ascontiguousarray(q.transpose(2, 1, 0))  # frame[a, p]: component p of q_a
    right = np.take(frame, pairs[1], axis=2)            # q_jb over the pairs
    data = np.empty(size)
    for a in range(2):
        x = np.take(frame[a], pairs[0], axis=1)         # q_ia over the pairs
        for b in range(2):
            y = right[b]
            g = scalar * (x[0] * y[0] + x[1] * y[1] + x[2] * y[2])
            h = 0.0 if moments is None else (
                moments[0] * (x[1] * y[2] - x[2] * y[1])
                + moments[1] * (x[2] * y[0] - x[0] * y[2])
                + moments[2] * (x[0] * y[1] - x[1] * y[0]))
            data[at[0, 0] + a * at[0, 1] + b] = g - h
            data[at[1, 0] + b * at[1, 1] + a] = g + h
    return data


@once_per_mesh
def reduced_pattern(mesh):
    """Where the reduced matrices on mesh live: the 2N x 2N CSR index
    structure with a 2x2 block at every slot of mesh.adjacency(), and the
    positions at of reduce_pairs for the pairs of mesh.pair_slots().

    Rows 2i and 2i + 1 hold the blocks of the slots of row i in slot order,
    so entry (a, b) of the block of slot s is entry first + a width + b of
    the data; at[k][:, p] is (first, width) of slot pair_slots()[k, p].
    The structure is canonical CSR.  Returns (indptr, indices, at).
    Computed once per mesh, on first use, and read-only: every
    reduced_matrix on mesh shares indptr and indices.
    """
    indptr, indices, _ = mesh.adjacency()
    indptr = indptr.astype(np.int64)
    n, nnz = mesh.N, len(indices)
    count = np.diff(indptr)
    index = np.int32 if 4 * nnz < 2**31 else np.int64
    # row 2i + a starts at 4 indptr[i] + 2 a count[i], and slot s of row i
    # takes its columns 2 (s - indptr[i]) and 2 (s - indptr[i]) + 1
    at = np.stack([2 * (np.repeat(indptr[:-1], count) + np.arange(nnz)),
                   np.repeat(2 * count, count)]).astype(index)
    indptr2 = np.empty(2 * n + 1, dtype=index)
    indptr2[:-1:2] = 4 * indptr[:-1]
    indptr2[1::2] = 4 * indptr[:-1] + 2 * count
    indptr2[-1] = 4 * nnz
    indices2 = np.empty(4 * nnz, dtype=index)
    for a in range(2):
        for b in range(2):
            indices2[at[0] + a * at[1] + b] = 2 * indices + b
    at = np.ascontiguousarray(at[:, mesh.pair_slots()].transpose(1, 0, 2))
    for arr in (indptr2, indices2, at):
        arr.setflags(write=False)
    return indptr2, indices2, at


def reduced_matrix(mesh, q, scalar, moments=None):
    """The congruence R = Q^T B Q on mesh, as 2N x 2N CSR on
    reduced_pattern(mesh).

    scalar (and moments, (3, slots)) hold B's scalar part s and cross
    moments c on the slots of mesh.adjacency(), q the (N, 3, 2) frame
    blocks; reduce_pairs forms each node pair's two blocks.  With moments,
    R is the reduced system matrix of a step; without, the cross term is
    zero and R = Q^T (K (x) I_3) Q, the matrix of the theoretical
    preconditioner, bit for bit R with zero moments.
    """
    indptr, indices, at = reduced_pattern(mesh)
    _, pairs, _ = mesh.pair_incidence()
    upper = mesh.pair_slots()[0]
    if moments is not None:
        moments = moments.take(upper, axis=1)
    data = reduce_pairs(q, pairs, scalar.take(upper), at, len(indices), moments)
    n = len(indptr) - 1
    return sp.csr_array((data, indices, indptr), shape=(n, n))


def apply_q(frame, x):
    """Lift tangent coefficients (2N,) to a stacked vector field (3N,)."""
    n = frame.n_nodes
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (2 * n,):
        raise FrameError(f"expected ({2 * n},) vector, got {x.shape}")
    return np.einsum("npq,nq->np", frame.blocks, x.reshape(n, 2)).ravel()


def apply_qt(frame, y):
    """Project a stacked vector field (3N,) onto tangent coefficients (2N,)."""
    n = frame.n_nodes
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (3 * n,):
        raise FrameError(f"expected ({3 * n},) vector, got {y.shape}")
    return np.einsum("npq,np->nq", frame.blocks, y.reshape(n, 3)).ravel()
