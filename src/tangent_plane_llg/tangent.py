"""Nodal tangent frames for unit-length P1 fields.

Each node carries a 3x2 matrix with orthonormal columns spanning the plane
orthogonal to the local magnetization; stacking them block-diagonally gives
the 3N x 2N change of basis between tangent coefficients and full vectors.
The default construction is a Householder reflection mapping e3 to -m; a
global signed-axis involution T relabels the coordinate axes first, and can
be picked adaptively to keep 1 + (T m)_3 away from zero at every node.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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

# The reflection takes its exact -e3 branch, and the rotation falls back to
# the reflection, where the row norm of w (of the rotation axis) is below
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


def _reflect(w):
    """First two columns of I - 2 w w^T for each unit row w."""
    return _E[:, :2] - 2.0 * (w[:, :, None] * w[:, None, :2])


def _householder(m):
    # reflection vector w = (m + e3)/|m + e3|; exact -e3 branch at the pole
    w = m + _E[:, 2]
    # I - 2 w w^T/|w|^2 maps e3 to -m only if |m| = 1, so the rounding of |m|
    # tilts the columns off m-perp by about eps/|w|.  Near -e3, w_3 = 1 + m_3
    # is taken as (m_1^2 + m_2^2)/(1 - m_3), its value on the unit sphere
    # through (m_1, m_2), which cuts the tilt to about eps |w|.  Above 1e-6
    # the tilt is at most about 700 eps, and the frame stays bit for bit
    near = w[:, 2] < 1e-6
    mn = m[near]
    w[near, 2] = (mn[:, 0] * mn[:, 0] + mn[:, 1] * mn[:, 1]) / (1.0 - mn[:, 2])
    wn = _row_norms(w)
    pole = wn < _POLE_GUARD
    blocks = _reflect(w / np.where(pole, 1.0, wn)[:, None])
    blocks[pole] = _E[:, :2]
    return blocks


def _signflip(m):
    sigma = np.where(m[:, 2] >= 0, 1.0, -1.0)
    w = m + sigma[:, None] * _E[:, 2]
    return _reflect(w / _row_norms(w)[:, None])


def _rotation(m):
    # rotation about e3 x m carrying e3 onto m; first two columns span m-perp
    axis = np.cross(_E[:, 2], m)
    s = _row_norms(axis)
    pole = s < _POLE_GUARD
    a = axis / np.where(pole, 1.0, s)[:, None]
    c = m[:, 2]
    zero = np.zeros(len(m))
    # first two columns of the cross-product matrix of a
    K = np.stack([zero, -a[:, 2], a[:, 2], zero, -a[:, 1], a[:, 0]], axis=1).reshape(-1, 3, 2)
    blocks = (c[:, None, None] * _E[:, :2] + s[:, None, None] * K
              + (1 - c)[:, None, None] * (a[:, :, None] * a[:, None, :2]))
    # the axis degenerates at m = +-e3: fall back to the reflection branch
    blocks[pole] = _householder(m[pole])
    return blocks


# Batched frame constructions on (N, 3) unit rows, giving (N, 3, 2) blocks.
_FRAME_BUILDERS = {"householder": _householder, "signflip": _signflip,
                   "rotation": _rotation}
FRAME_STRATEGIES = tuple(_FRAME_BUILDERS)


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

    def __init__(self, T, blocks, strategy):
        self.T = np.asarray(T, dtype=np.float64)
        self.blocks = blocks  # (N, 3, 2)
        self.strategy = strategy
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


def build_frame(m, T=None, strategy="householder"):
    """Build the nodal frame field: block i = T frame(T m(z_i)).

    T must be a symmetric involution (defaults to the identity).  The 3x2
    frame of a unit vector m, by strategy:
    householder: the reflection I - 2 w w^T with w = (m + e3)/|m + e3| maps
    e3 to -m, so its first two columns are orthonormal and span the plane
    orthogonal to m; at m = -e3 the limit branch [e1, e2, -e3] applies.
    signflip: the same reflection about (m + sign(m_3) e3).  rotation: the
    rotation about e3 x m carrying e3 onto m (householder at m = +-e3).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != 3:
        raise FrameError(f"magnetization must be (N, 3), got {m.shape}")
    if T is None:
        T = np.eye(3)
    T = np.asarray(T, dtype=np.float64)
    if np.abs(T - T.T).max() > 1e-14 or np.abs(T @ T - np.eye(3)).max() > 1e-14:
        raise FrameError("T must be a symmetric involution (T = T^T, T T = I)")
    if strategy not in FRAME_STRATEGIES:
        raise FrameError(f"unknown frame strategy {strategy!r}")

    # with the signed permutations of FIXED_INVOLUTIONS both products are exact
    mt = m @ T.T
    nrm = _row_norms(mt)
    bad = np.abs(nrm - 1.0) > 1e-12
    if bad.any():
        i = int(np.argmax(bad))
        raise FrameError(f"node {i}: frame input must be a unit vector, |m| = {float(nrm[i])}")
    blocks = T @ _FRAME_BUILDERS[strategy](mt)
    return TangentFrame(T=T, blocks=blocks, strategy=strategy)


def reduce_blocks(q, indptr, indices, scalar, moments=None):
    """The 2N x 2N congruence R = Q^T B Q of a 3x3-block matrix B, as CSR.

    B has the blocks B_ij = s_ij I_3 - sum_d c_ij,d E_d at the block
    pattern (indptr, indices) of an N x N matrix, with s = scalar (nnz,)
    and c = moments (3, nnz), or c = 0 when moments is None; q holds the
    (N, 3, 2) frame blocks in the same node order.  Entry (a, b) of block
    (i, j) is

        q_ia . B_ij q_jb = s_ij (q_ia . q_jb) - c_ij . (q_ia x q_jb),

    evaluated on (component, slot) arrays.  The 2x2 blocks keep the
    pattern of B, explicit zeros included, and are converted to CSR.
    """
    n = len(indptr) - 1
    frame = np.ascontiguousarray(q.transpose(2, 1, 0))  # frame[a, p]: component p of q_a
    left = np.repeat(frame, np.diff(indptr), axis=2)    # q_ia over the slots
    right = np.take(frame, indices, axis=2)             # q_jb over the slots
    reduced = np.empty((len(indices), 2, 2))
    for a in range(2):
        x = left[a]
        for b in range(2):
            y = right[b]
            entry = scalar * (x[0] * y[0] + x[1] * y[1] + x[2] * y[2])
            if moments is not None:
                entry -= (moments[0] * (x[1] * y[2] - x[2] * y[1])
                          + moments[1] * (x[2] * y[0] - x[0] * y[2])
                          + moments[2] * (x[0] * y[1] - x[1] * y[0]))
            reduced[:, a, b] = entry
    return sp.bsr_array((reduced, indices, indptr), shape=(2 * n, 2 * n)).tocsr()


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
