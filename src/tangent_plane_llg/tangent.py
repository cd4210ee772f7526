"""Nodal tangent frames for unit-length P1 fields.

Each node carries a 3x2 matrix with orthonormal columns spanning the plane
orthogonal to the local magnetization; stacking them block-diagonally gives
the 3N x 2N change of basis between tangent coefficients and full vectors.
The frame is a Householder reflection mapping e3 to -m; a global
signed-axis involution T relabels the coordinate axes first, and can be
picked adaptively to keep 1 + (T m)_3 away from zero at every node.
reduced_matrix forms Q^T B Q, B of 3x3 blocks on the mesh pattern, as 2x2
blocks on that pattern, afresh at each call: nothing is kept on the mesh.
"""

import numpy as np
import scipy.sparse as sp

_E = np.eye(3)

# The six admissible axis involutions, keyed as in the config's frame.tn,
# in the scan order of select_tn_adaptive.  Each is a signed permutation,
# symmetric and its own inverse.
FIXED_INVOLUTIONS = {
    "t1+": np.column_stack([-_E[:, 2], _E[:, 1], -_E[:, 0]]),
    "t1-": np.column_stack([_E[:, 2], _E[:, 1], _E[:, 0]]),
    "t2+": np.column_stack([_E[:, 0], -_E[:, 2], -_E[:, 1]]),
    "t2-": np.column_stack([_E[:, 0], _E[:, 2], _E[:, 1]]),
    "t3+": np.column_stack([_E[:, 0], _E[:, 1], -_E[:, 2]]),
    "t3-": np.eye(3),
}

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


def select_tn_adaptive(m, tn="adaptive"):
    """The axis involution of a step: (key, gamma, d_adapt).

    The bound of key t<l>+ is 1 - max_z m_l(z), that of t<l>- is
    1 + min_z m_l(z): exactly min_z 1 + (T m(z))_3 for T =
    FIXED_INVOLUTIONS[key].  d_adapt is the largest of the six bounds, and
    key is tn, or for tn = "adaptive" the first key in FIXED_INVOLUTIONS
    order whose bound is d_adapt; gamma is the bound of key.  d_adapt = 0
    is a valid outcome (all six signed axes present in the field).
    """
    m = np.asarray(m, dtype=np.float64)
    bounds = np.column_stack([1.0 - m.max(axis=0), 1.0 + m.min(axis=0)]).ravel()
    keys = list(FIXED_INVOLUTIONS)
    best = int(np.argmax(bounds))
    key = keys[best] if tn == "adaptive" else tn
    return key, float(bounds[keys.index(key)]), float(bounds[best])


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


def build_frame(m, key):
    """Build the nodal frame field: block i = T frame(T m(z_i)), with T =
    FIXED_INVOLUTIONS[key].

    The 3x2 frame of a unit vector m is the first two columns of the
    reflection I - 2 w w^T with w = (m + e3)/|m + e3|: it maps e3 to -m, so
    they are orthonormal and span the plane orthogonal to m; at m = -e3 the
    limit branch [e1, e2, -e3] applies.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != 3:
        raise FrameError(f"magnetization must be (N, 3), got {m.shape}")
    T = FIXED_INVOLUTIONS[key]

    # with the signed permutations of FIXED_INVOLUTIONS both products are exact
    mt = m @ T.T
    nrm = _row_norms(mt)
    bad = ~(np.abs(nrm - 1.0) <= 1e-12)  # NaN fails too
    if bad.any():
        i = int(np.argmax(bad))
        raise FrameError(f"node {i}: frame input must be a unit vector, |m| = {float(nrm[i])}")
    blocks = T @ _householder(mt)
    return TangentFrame(blocks)


def reduced_matrix(mesh, q, scalar, moments=None):
    """The congruence R = Q^T B Q on mesh, as 2N x 2N CSR.

    B is a 3x3-block matrix with the blocks B_ij = s_ij I_3 - sum_d c_ij,d E_d
    and B_ji = B_ij^T on the slots of mesh.node_pairs(): s = scalar and
    c = moments (3, slots), or c = 0 when moments is None; q holds the
    (N, 3, 2) frame blocks.  Each node pair (i, j), i <= j, is evaluated
    once: with

        G_ab = s (q_ia . q_jb),   H_ab = c . (q_ia x q_jb),

    block (i, j) of R is G - H and block (j, i) is (G + H)^T, bit for bit
    the blocks evaluated on their own: q_jb . q_ia is the same products in
    the same order, and q_jb x q_ia is exactly -(q_ia x q_jb).  The 2x2
    blocks fill the slots of the mesh pattern, which scipy lays out as CSR
    (BSR to CSR: rows 2i and 2i + 1 take the blocks of row i in slot order).
    With moments, R is the reduced system matrix of a step; without, the
    cross term is zero and R = Q^T (K (x) I_3) Q, the matrix of the
    theoretical preconditioner, bit for bit R with zero moments.
    """
    pairs = mesh.node_pairs()
    upper, lower = pairs.slots
    scalar = scalar.take(upper)
    if moments is not None:
        moments = moments.take(upper, axis=1)
    frame = np.ascontiguousarray(q.transpose(2, 1, 0))  # frame[a, p]: component p of q_a
    right = np.take(frame, pairs.ends[1], axis=2)       # q_jb over the pairs
    blocks = np.empty((len(pairs.indices), 2, 2))
    for a in range(2):
        x = np.take(frame[a], pairs.ends[0], axis=1)    # q_ia over the pairs
        for b in range(2):
            y = right[b]
            g = scalar * (x[0] * y[0] + x[1] * y[1] + x[2] * y[2])
            h = 0.0 if moments is None else (
                moments[0] * (x[1] * y[2] - x[2] * y[1])
                + moments[1] * (x[2] * y[0] - x[0] * y[2])
                + moments[2] * (x[0] * y[1] - x[1] * y[0]))
            blocks[upper, a, b] = g - h
            blocks[lower, b, a] = g + h
    del frame, right, x, y, g, h  # before the CSR copy of the blocks
    n = 2 * mesh.N
    return sp.bsr_array((blocks, pairs.indices, pairs.indptr), shape=(n, n)).tocsr()


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
