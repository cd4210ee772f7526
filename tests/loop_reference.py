"""Per-node and per-element loop implementations kept as oracles.

These are the straightforward loop forms of the batched code in
tangent_plane_llg: nodal frames built one node at a time, the Kuhn cube
connectivity and the mesh checks built one element at a time, and the
3x3 blocks of the cross-product matrix from the closed-form cubic moments,
summed one element at a time.  The library's vectorized versions must
reproduce their arrays bit for bit.

node_pairs numbers the node pairs that share an element with a dict, one
element at a time, and builds from it the pattern, the two slots of each
pair, the pair of each slot and the pair x element incidence that
Mesh.node_pairs builds from one sort.  scatter_16 assembles (M, 4, 4) local
matrices over the 16 slots of every element, numbered by np.unique of the
pair keys; it sums the same addends in the same order as the library's ten
pairs per element.

assemble_cross_tensor integrates the cross form from the full 5-index
element tensor of the cubic moments instead.  It sums in another order, so
it checks the closed form to rounding, not bit for bit.

reduce_blocks is the congruence R = Q^T B Q of a 3x3-block matrix
evaluated slot by slot, both (i, j) and (j, i), and converted from BSR to
CSR.  The library forms each node pair's two blocks at once, straight into
CSR, and must reproduce its indptr, indices and data bit for bit.

signflip_frame and rotation_frame are two more orthonormal tangent frames,
with no counterpart in the library: the reduced-operator tests run on them
too, since R = Q^T B Q must hold for any orthonormal Q, not only for the
Householder frame that build_frame implements.

nodal_directional_derivative recovers (u . grad) m at the nodes with one
np.add.at scatter per local vertex.  The library sums the same terms in the
same order with np.bincount and must reproduce it bit for bit.

mesh_quality is the quality report from the (M, 4, 3) stack of element
vertices, each squared edge length summed over its last axis.  The library
gathers the coordinates component by component and must reproduce every
figure bit for bit.

gmres_solve is the restarted GMRES whose Arnoldi step orthogonalizes one
basis vector at a time (single-pass modified Gram-Schmidt, or one classical
Gram-Schmidt pass).  The library's CGS2 sums in another order, so it is
compared to a tolerance and by iteration count, not bit for bit.
"""

import itertools

import numpy as np
import scipy.sparse as sp

from tangent_plane_llg.gmres import SolverStats

_E = np.eye(3)
_POLE_GUARD = 1e-15


class LoopError(ValueError):
    pass


def _check_unit(m, tol=1e-12):
    nrm = float(np.linalg.norm(m))
    if abs(nrm - 1.0) > tol:
        raise LoopError(f"frame input must be a unit vector, |m| = {nrm}")


def householder_frame(m):
    _check_unit(m)
    w = m + _E[:, 2]
    if w[2] < 1e-6:
        w[2] = (m[0] * m[0] + m[1] * m[1]) / (1.0 - m[2])
    wn = np.linalg.norm(w)
    if wn < _POLE_GUARD:
        return np.column_stack([_E[:, 0], _E[:, 1]])
    w = w / wn
    return np.eye(3)[:, :2] - 2.0 * np.outer(w, w[:2])


def signflip_frame(m):
    _check_unit(m)
    sigma = 1.0 if m[2] >= 0 else -1.0
    w = m + sigma * _E[:, 2]
    w = w / np.linalg.norm(w)
    return np.eye(3)[:, :2] - 2.0 * np.outer(w, w[:2])


def rotation_frame(m):
    _check_unit(m)
    axis = np.cross(_E[:, 2], m)
    s = np.linalg.norm(axis)
    if s < _POLE_GUARD:
        return householder_frame(m)
    axis = axis / s
    c = m[2]
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    rot = c * np.eye(3) + s * K + (1 - c) * np.outer(axis, axis)
    return rot[:, :2]


FRAMES = {"householder": householder_frame, "signflip": signflip_frame,
          "rotation": rotation_frame}


def frame_blocks(m, T, frame="householder"):
    """(N, 3, 2) blocks T frame(T m_i), one node at a time."""
    m = np.asarray(m, dtype=np.float64)
    T = np.asarray(T, dtype=np.float64)
    blocks = np.empty((len(m), 3, 2))
    for i in range(len(m)):
        try:
            blocks[i] = T @ FRAMES[frame](T @ m[i])
        except LoopError as exc:
            raise LoopError(f"node {i}: {exc}") from exc
    return blocks


def _kuhn_paths():
    paths = []
    for perm in itertools.permutations(range(3)):
        path = [np.zeros(3, dtype=np.int64)]
        for axis in perm:
            step = path[-1].copy()
            step[axis] = 1
            path.append(step)
        paths.append(np.array(path))
    return paths


def cube_tets(n):
    """Kuhn connectivity of an n[0] x n[1] x n[2] box, one element at a time."""
    nx, ny, nz = (int(v) for v in n)

    def nid(ix, iy, iz):
        return (iz * (ny + 1) + iy) * (nx + 1) + ix

    tets = np.empty((6 * nx * ny * nz, 4), dtype=np.int64)
    e = 0
    for iz in range(nz):
        for iy in range(ny):
            for ix in range(nx):
                for path in _kuhn_paths():
                    tets[e] = [nid(ix + p[0], iy + p[1], iz + p[2]) for p in path]
                    e += 1
    return tets


def mesh_check_message(tets):
    """The first repeated-index or conformity error of oriented tets, or None.

    Messages match the library's, with the face printed as plain ints.
    """
    for e, t in enumerate(tets):
        if len(set(t.tolist())) != 4:
            return f"element {e} has repeated node indices {t.tolist()}"
    faces = {}
    for e, t in enumerate(tets):
        for a, b, c in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]:
            key = tuple(sorted((int(t[a]), int(t[b]), int(t[c]))))
            faces[key] = faces.get(key, 0) + 1
            if faces[key] > 2:
                return f"face {key} shared by more than two elements (element {e})"
    return None


def mesh_quality(mesh):
    """(h, max_diam, c_mesh, min_vol, max_vol) of mesh."""
    vol = mesh.element_volumes()
    v = mesh.nodes[mesh.tets]
    pairs = list(itertools.combinations(range(4), 2))
    d2 = np.stack([((v[:, a] - v[:, b]) ** 2).sum(axis=1) for a, b in pairs])
    diam = np.sqrt(d2.max(axis=0))
    h = float(vol.min() ** (1.0 / 3.0))
    return h, float(diam.max()), float((diam / h).max()), float(vol.min()), float(vol.max())


def assemble_cross(mesh, m):
    """The cross matrix from the closed-form cubic moments, element by element.

    Each element K, in element order, adds |K| S_K (S_K the sum of m over
    its vertices, in local order) and |K| to the two sums of every node
    pair (i, j) it holds; then C[ij] = (sum |K| S_K + (m_i + m_j) sum |K|)
    / (60 if i == j else 120) and block (i, j) is sum_d C_d[ij] E_d.
    Returns the BSR arrays (indptr, indices, blocks) with the node pairs in
    row-major order.
    """
    vol = mesh.element_volumes()
    m = np.asarray(m, dtype=np.float64)
    weighted, volume = {}, {}
    for e, tet in enumerate(mesh.tets.tolist()):
        s_k = vol[e] * (m[tet[0]] + m[tet[1]] + m[tet[2]] + m[tet[3]])
        for i in tet:
            for j in tet:
                weighted[i, j] = weighted.get((i, j), 0.0) + s_k
                volume[i, j] = volume.get((i, j), 0.0) + vol[e]
    pairs = sorted(weighted)
    blocks = []
    for i, j in pairs:
        c = (weighted[i, j] + (m[i] + m[j]) * volume[i, j]) / (60.0 if i == j else 120.0)
        blocks.append([[0.0, c[2], -c[1]], [-c[2], 0.0, c[0]], [c[1], -c[0], 0.0]])
    indptr = np.searchsorted([i for i, _ in pairs], np.arange(mesh.N + 1))
    indices = np.array([j for _, j in pairs])
    return indptr, indices, np.array(blocks)


def node_pairs(mesh):
    """(indptr, indices, ends, slots, mirror, element_pairs, incidence) as
    Mesh.node_pairs documents them, from a dict of the pairs (i, j), i <= j,
    filled one element at a time."""
    elements = {}  # pair -> the elements that hold it, in element order
    local = []     # the pairs (a, b), a <= b, of every element, row by row
    for e, tet in enumerate(mesh.tets.tolist()):
        local.append([])
        for a in range(4):
            for b in range(a, 4):
                pair = (min(tet[a], tet[b]), max(tet[a], tet[b]))
                elements.setdefault(pair, []).append(e)
                local[-1].append(pair)
    ends = sorted(elements)
    number = {pair: p for p, pair in enumerate(ends)}
    rows = [[] for _ in range(mesh.N)]
    for i, j in ends:
        rows[i].append(j)
        if i != j:
            rows[j].append(i)
    indptr, indices = [0], []
    for row in rows:
        indices.extend(sorted(row))
        indptr.append(len(indices))
    slot, mirror = {}, []
    for i in range(mesh.N):
        for s in range(indptr[i], indptr[i + 1]):
            j = indices[s]
            slot[i, j] = s
            mirror.append(number[min(i, j), max(i, j)])
    slots = [[slot[i, j] for i, j in ends], [slot[j, i] for i, j in ends]]
    element_pairs = [[number[pair] for pair in pairs] for pairs in local]
    incidence = sp.csr_array((np.ones(10 * mesh.elem_count),
                              np.concatenate([elements[pair] for pair in ends]),
                              np.cumsum([0] + [len(elements[pair]) for pair in ends])),
                             shape=(len(ends), mesh.elem_count))
    return (np.array(indptr), np.array(indices), np.array(ends).T, np.array(slots),
            np.array(mirror), np.array(element_pairs), incidence)


def scatter_16(mesh, local):
    """The N x N CSR matrix that sums the (M, 4, 4) local matrices onto the
    node pairs of mesh, one np.bincount over the 16 slots of every element
    in element order, the slots numbered by np.unique of the keys i N + j."""
    n = mesh.N
    keys = mesh.tets[:, :, None] * n + mesh.tets[:, None, :]
    pairs, slot = np.unique(keys.ravel(), return_inverse=True)
    data = np.bincount(slot, weights=local.ravel(), minlength=len(pairs))
    indptr = np.searchsorted(pairs, np.arange(n + 1) * n)
    return sp.csr_array((data, pairs % n, indptr), shape=(n, n))


# Cubic moments: integral of lambda_a lambda_b lambda_c = |K| * _LOCAL_CUBIC[a,b,c]
# (1/120 all distinct, 1/60 for one repeated pair, 1/20 for a=b=c).
_LOCAL_CUBIC = np.array([[[{3: 1 / 120, 2: 1 / 60, 1: 1 / 20}[len({a, b, c})]
                           for c in range(4)] for b in range(4)] for a in range(4)])


def assemble_cross_tensor(mesh, m):
    """The cross matrix from the 5-index element tensor over a mostly-zero axis.

    The 3x3 element blocks are summed into their node pair one element at a
    time, in element order.  Returns the BSR arrays (indptr, indices, blocks)
    with the node pairs in row-major order.
    """
    vol = mesh.element_volumes()
    mloc = np.asarray(m, dtype=np.float64)[mesh.tets]
    axis = np.zeros((mesh.elem_count, 4, 3, 3))
    axis[:, :, 0, 1] = mloc[:, :, 2]
    axis[:, :, 1, 0] = -mloc[:, :, 2]
    axis[:, :, 1, 2] = mloc[:, :, 0]
    axis[:, :, 2, 1] = -mloc[:, :, 0]
    axis[:, :, 2, 0] = mloc[:, :, 1]
    axis[:, :, 0, 2] = -mloc[:, :, 1]
    blocks = np.einsum("abc,ecpq->eabpq", _LOCAL_CUBIC, axis)
    blocks *= vol[:, None, None, None, None]
    summed = {}
    for e, tet in enumerate(mesh.tets.tolist()):
        for a, i in enumerate(tet):
            for b, j in enumerate(tet):
                if (i, j) in summed:
                    summed[i, j] = summed[i, j] + blocks[e, a, b]
                else:
                    summed[i, j] = blocks[e, a, b]
    pairs = sorted(summed)
    indptr = np.searchsorted([i for i, _ in pairs], np.arange(mesh.N + 1))
    indices = np.array([j for _, j in pairs])
    return indptr, indices, np.array([summed[pair] for pair in pairs])


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


def nodal_directional_derivative(mesh, m, u):
    vol, grad = mesh.element_geometry()
    grad_m = np.einsum("ead,eac->edc", grad, m[mesh.tets])
    elem_val = np.einsum("d,edc->ec", np.asarray(u, dtype=np.float64), grad_m)
    num = np.zeros((mesh.N, 3))
    den = np.zeros(mesh.N)
    weighted = elem_val * vol[:, None]
    for a in range(4):
        np.add.at(num, mesh.tets[:, a], weighted)
        np.add.at(den, mesh.tets[:, a], vol)
    return num / den[:, None]


def mgs(basis, w):
    """Single-pass modified Gram-Schmidt of w against the rows of basis, in place."""
    h = np.empty(len(basis))
    for i in range(len(basis)):
        h[i] = basis[i] @ w
        w -= h[i] * basis[i]
    return h


def cgs(basis, w):
    """One classical Gram-Schmidt pass of w against the rows of basis, in place."""
    h = basis @ w
    w -= h @ basis
    return h


def gmres_solve(op, precond, b, tol=1e-14, restart=200, maxit=100000,
                orthogonalize=mgs):
    """Restarted left-preconditioned GMRES from a zero initial guess, with the
    library's stopping rule, happy-breakdown test and explicit-residual
    restarts; returns (x, SolverStats) with iterations, restarts, converged
    and final_relative_residual set."""
    matvec = op.matvec if hasattr(op, "matvec") else op
    papply = (lambda r: r.copy()) if precond is None else precond.apply
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    stats = SolverStats()
    x = np.zeros(n)
    pb = papply(b)
    norm_pb = float(np.linalg.norm(pb))
    threshold = tol * norm_pb
    basis = np.empty((restart + 1, n))
    hess = np.zeros((restart + 1, restart))
    cs = np.zeros(restart)
    sn = np.zeros(restart)
    while True:
        r = pb.copy() if not x.any() else papply(b - matvec(x))
        stats.residual_computations += 1
        beta = float(np.linalg.norm(r))
        stats.final_relative_residual = beta / norm_pb
        if beta <= threshold:
            stats.converged = True
            return x, stats
        if stats.iterations >= maxit:
            return x, stats
        if stats.residual_computations > 1:
            stats.restarts += 1
        basis[0] = r / beta
        g = np.zeros(restart + 1)
        g[0] = beta
        hess[:] = 0.0
        happy = False
        for j in range(restart):
            w = papply(matvec(basis[j]))
            norm_before = float(np.linalg.norm(w))
            hess[:j + 1, j] = orthogonalize(basis[:j + 1], w)
            hij = float(np.linalg.norm(w))
            hess[j + 1, j] = hij
            if hij <= 1e-14 * max(norm_before, 1e-300):
                happy = True
            else:
                basis[j + 1] = w / hij
            for i in range(j):
                t = cs[i] * hess[i, j] + sn[i] * hess[i + 1, j]
                hess[i + 1, j] = -sn[i] * hess[i, j] + cs[i] * hess[i + 1, j]
                hess[i, j] = t
            denom = np.hypot(hess[j, j], hess[j + 1, j])
            cs[j] = hess[j, j] / denom
            sn[j] = hess[j + 1, j] / denom
            hess[j, j] = denom
            hess[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            stats.iterations += 1
            if happy or abs(g[j + 1]) <= threshold or stats.iterations >= maxit:
                break
        k = j + 1
        x = x + basis[:k].T @ np.linalg.solve(np.triu(hess[:k, :k]), g[:k])
        if happy:
            r = papply(b - matvec(x))
            beta = float(np.linalg.norm(r))
            stats.final_relative_residual = beta / norm_pb
            stats.converged = beta <= threshold
            return x, stats
