"""Tetrahedral meshes: structured cube generation, quality metrics, JSON I/O.

Meshes are immutable after construction.  Element orientation is normalized
to positive signed volume when a mesh is built, so downstream assembly can
use signed determinants directly.

Set-up that depends only on the mesh runs once per mesh and is kept on it,
read-only (once_per_mesh): the gradients, the elimination orders and the
node pairs (Mesh.node_pairs), numbered by one sort of the ten local pairs
of every element: the pattern every assembled matrix lives on, the two
slots of each pair, the pair of every slot and the pair x element incidence.
"""

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee


class MeshError(ValueError):
    """Invalid mesh data (bad indices, degenerate or non-conforming elements)."""


# The six tetrahedra of the Kuhn subdivision of the unit cube, as vertex
# paths 0 -> e_{s1} -> e_{s1}+e_{s2} -> (1,1,1) for each permutation s:
# _KUHN_PATHS[s, v] is the (x, y, z) corner offset of vertex v of tet s.
_KUHN_PATHS = np.array([
    [np.isin(np.arange(3), perm[:step]) for step in range(4)]
    for perm in itertools.permutations(range(3))
], dtype=np.int64)

# The ten local vertex pairs (a, b), a <= b, of a tetrahedron, row by row:
# the columns of NodePairs.element_pairs.
LOCAL_PAIRS = np.triu_indices(4)

# Local vertex triples of the four faces of a tetrahedron.
_LOCAL_FACES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])

# An element is degenerate where its volume is at most this times
# max(|x|, 1)^3, x the largest node coordinate of its mesh.
DEGENERATE_VOLUME = 1e-14


def _array(key, rows, dtype=None):
    """rows as an array; MeshError where numpy cannot convert them (ragged
    rows, or an entry that is not a number)."""
    try:
        return np.asarray(rows, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise MeshError(f"{key}: not an array of numbers ({exc})") from exc


def once_per_mesh(build):
    """build(mesh), computed on the first call for a mesh and kept on it: the
    set-up that depends only on the mesh runs once per mesh.  The result is
    shared, so it must be read-only."""
    @functools.wraps(build)
    def cached(mesh):
        if build not in mesh._cache:
            mesh._cache[build] = build(mesh)
        return mesh._cache[build]
    return cached


class NodePairs(NamedTuple):
    """The P node pairs {i, j} that share an element (Mesh.node_pairs),
    numbered by (i, j), i <= j, ascending.  Every assembled matrix lives on
    the pattern (indptr, indices): the N x N canonical CSR structure of the
    slots (i, j) and (j, i) of every pair."""

    indptr: np.ndarray         # (N + 1,) row pointers of the pattern
    indices: np.ndarray        # (nnz,) column indices, ascending in each row
    ends: np.ndarray           # (2, P) the nodes i <= j of each pair
    slots: np.ndarray          # (2, P) the slots of (i, j) and (j, i), one for i = j
    mirror: np.ndarray         # (nnz,) the pair of every slot
    element_pairs: np.ndarray  # (M, 10) the pair of each local pair of each element
    incidence: sp.csr_array    # P x M, columns of each pair in element order


class Mesh:
    """Conforming tetrahedral mesh given by node coordinates and connectivity."""

    def __init__(self, nodes, tets):
        nodes = np.ascontiguousarray(_array("nodes", nodes, np.float64))
        tets = _array("tets", tets)
        if tets.dtype.kind == "f":
            # indices read as reals (JSON allows 3.5) must be whole numbers
            # that int64 holds, which NaN and inf are not
            whole = (tets == np.trunc(tets)) & (np.abs(tets) < 2.0**63)
            if not whole.all():
                at = [int(i) for i in np.argwhere(~whole)[0]]
                raise MeshError(f"node index {float(tets[tuple(at)])!r} at tets{at} "
                                "is not an int64 integer")
        tets = np.ascontiguousarray(_array("tets", tets, np.int64))
        if nodes.ndim != 2 or nodes.shape[1] != 3:
            raise MeshError(f"nodes must be (N, 3), got {nodes.shape}")
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise MeshError(f"tets must be (M, 4), got {tets.shape}")
        if not np.all(np.isfinite(nodes)):
            raise MeshError("non-finite node coordinates")

        n = len(nodes)
        if tets.size and (tets.min() < 0 or tets.max() >= n):
            bad = int(np.nonzero((tets < 0).any(axis=1) | (tets >= n).any(axis=1))[0][0])
            raise MeshError(f"element {bad} references a node index outside [0, {n})")
        ordered = np.sort(tets, axis=1)
        repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if repeated.any():
            bad = int(np.argmax(repeated))
            raise MeshError(f"element {bad} has repeated node indices {tets[bad].tolist()}")
        unused = np.bincount(tets.ravel(), minlength=n) == 0
        if unused.any():
            raise MeshError(f"node {int(np.argmax(unused))} belongs to no element")

        # The signed volume is the triple product e1 . (e2 x e3) / 6.  Swapping
        # vertices 2 and 3 negates every component of e2 x e3 exactly, so it
        # negates the volume bit for bit: where the volume is negative the
        # swap orients the element and abs gives its volume.  Degenerate
        # elements, and those whose volume overflows, are rejected.
        scale = np.abs(nodes).max() if len(nodes) else 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            e1, e2, e3 = _edge_components(nodes, tets)
            vol = _dot(e1, _cross(e2, e3)) / 6.0
            degenerate = np.abs(vol) <= DEGENERATE_VOLUME * max(scale, 1.0) ** 3
        if not np.isfinite(vol).all():
            bad = int(np.argmax(~np.isfinite(vol)))
            raise MeshError(f"element {bad} volume overflows ({vol[bad]:.3e})")
        if degenerate.any():
            bad = int(np.nonzero(degenerate)[0][0])
            raise MeshError(f"element {bad} is degenerate (volume {vol[bad]:.3e})")
        neg = vol < 0
        if neg.any():
            tets = tets.copy()
            tets[neg, 2], tets[neg, 3] = tets[neg, 3].copy(), tets[neg, 2].copy()
            vol = np.abs(vol)

        _check_conforming(tets)

        for arr in (nodes, tets, vol):
            arr.setflags(write=False)
        self.nodes = nodes
        self.tets = tets
        self._volumes = vol
        self._cache = {}  # once_per_mesh

    @property
    def N(self):
        return len(self.nodes)

    @property
    def elem_count(self):
        return len(self.tets)

    def element_volumes(self):
        """Volumes |K| per element (positive by construction, read-only)."""
        return self._volumes

    def element_geometry(self):
        """Per-element volumes and constant hat-function gradients.

        Returns (vol, grad) with vol of shape (M,) and grad of shape
        (M, 4, 3): grad[e, a] is the gradient of the barycentric coordinate
        of local vertex a on element e.  grad is a view of
        gradient_components(); both are computed once and read-only.
        """
        return self._volumes, self.gradient_components().transpose(2, 0, 1)

    @once_per_mesh
    def gradient_components(self):
        """The hat-function gradients as (4, 3, M) component arrays:
        [a, d] holds component d of the gradient of local vertex a over the
        elements.  With the edges e_a = x_a - x_0 and det = e_1 . (e_2 x e_3),
        the gradients of vertices 1, 2, 3 are the rows of the inverse edge
        matrix, (e_2 x e_3, e_3 x e_1, e_1 x e_2) / det, and vertex 0 takes
        minus their sum.  Computed once and read-only.
        """
        e1, e2, e3 = _edge_components(self.nodes, self.tets)
        grad = np.empty((4, 3, self.elem_count))
        grad[1], grad[2], grad[3] = _cross(e2, e3), _cross(e3, e1), _cross(e1, e2)
        grad[1:] /= _dot(e1, grad[1])
        grad[0] = -(grad[1] + grad[2] + grad[3])
        grad.setflags(write=False)
        return grad

    @once_per_mesh
    def node_pairs(self):
        """The node pairs of the mesh and the pattern they span (NodePairs).

        One stable sort of the ten local pairs of every element by their
        node ids (i, j), i <= j, numbers the pairs: a run of equal keys is
        one pair, and lists its elements in element order, which is the
        incidence.  Row r of the pattern holds the pairs (i, r), i < r, then
        the pairs (r, j), j >= r; a stable order of the pairs by j ranks the
        first.  Computed once and read-only.
        """
        n, (a, b) = self.N, LOCAL_PAIRS
        local = self.tets[:, a], self.tets[:, b]
        keys = (np.minimum(*local) * n + np.maximum(*local)).ravel()
        by_key = np.argsort(keys, kind="stable")
        keys = keys.take(by_key)
        ptr = np.append(np.flatnonzero(np.diff(keys, prepend=-1)), len(keys))
        i, j = keys[ptr[:-1]] // n, keys[ptr[:-1]] % n
        pair = np.arange(len(i))
        element_pairs = np.empty(len(keys), dtype=np.intp)
        element_pairs[by_key] = np.repeat(pair, np.diff(ptr))
        # row r holds its left[r] pairs (i, r), i < r, then its upper[r]
        # pairs (r, j), j >= r: pair p = (i, j) is upper pair p - sum_{r<i}
        # upper of row i, so its slot is p + sum_{r<=i} left, and the pair
        # of rank q in the order by (j, i) has the slot q + sum_{r<j} (upper - 1)
        upper = np.bincount(i, minlength=n)
        left = np.bincount(j, minlength=n) - 1
        index = np.int32 if 2 * len(keys) < 2**31 else np.int64  # nnz < 2 * 10 M
        indptr = np.concatenate([[0], np.cumsum(upper + left)]).astype(index)
        slots = np.empty((2, len(i)), dtype=index)
        slots[0] = pair + np.cumsum(left)[i]
        by_j = np.argsort(j, kind="stable")
        slots[1, by_j] = pair + (np.cumsum(upper - 1) - (upper - 1))[j[by_j]]
        indices = np.empty(indptr[-1], dtype=index)
        indices[slots[0]], indices[slots[1]] = j, i
        mirror = np.empty(indptr[-1], dtype=index)
        mirror[slots[0]] = mirror[slots[1]] = pair
        incidence = sp.csr_array((np.ones(len(keys)), (by_key // 10).astype(index),
                                  ptr.astype(index)), shape=(len(i), self.elem_count))
        pairs = NodePairs(indptr, indices, np.stack([i, j]).astype(index), slots, mirror,
                          element_pairs.reshape(-1, 10), incidence)
        for arr in (*pairs[:-1], incidence.data, incidence.indices, incidence.indptr):
            arr.setflags(write=False)
        return pairs

    @once_per_mesh
    def dissection_order(self):
        """A nested-dissection elimination order of the nodes.

        Returns order, a permutation of 0..N-1: order[i] is the node
        eliminated i-th.  Each subdomain, starting from the whole mesh, is
        split at the median coordinate of its longest axis (where the
        median is the smallest coordinate, the lower half takes the nodes
        at it); the nodes of the upper half with an adjacency neighbour in
        the lower half are its separator.  The lower half, then the upper
        half, each dissected in turn, come first and the separator after
        them, so the Cholesky-type factor of a matrix on the pattern of
        node_pairs() fills only within the blocks of a subdomain and its
        separators (George, SIAM J. Numer. Anal. 10, 1973).  Subdomains of
        at most DISSECTION_LEAF nodes, or whose nodes all coincide, are not
        split.  The nodes of a leaf or a separator are ordered by their
        coordinates, the subdomain's longest axis first, so the order
        depends on the node coordinates, not on the node numbering.
        Computed once and read-only.
        """
        pairs = self.node_pairs()
        order = _nested_dissection(self.nodes, pairs.indptr, pairs.indices)
        order.setflags(write=False)
        return order

    @once_per_mesh
    def band_order(self):
        """A reverse Cuthill-McKee order of the nodes and its half-bandwidth.

        Returns (order, width): order[i] is the node eliminated i-th, and
        width is the largest distance |rank_i - rank_j| in that order
        between two nodes that share an element, so every matrix on the
        pattern of node_pairs() has its entries within width of the diagonal
        once permuted by order (Cuthill and McKee, ACM National Conference,
        1969).  The order depends on the node numbering.  Computed once and
        read-only.
        """
        indptr, indices = self.node_pairs()[:2]
        pattern = sp.csr_array((np.ones(len(indices)), indices, indptr), shape=(self.N,) * 2)
        order = reverse_cuthill_mckee(pattern, symmetric_mode=True).astype(np.int64)
        rank = np.empty_like(order)
        rank[order] = np.arange(self.N)
        rows = np.repeat(rank, np.diff(indptr))
        width = int(np.abs(rows - rank[indices]).max(initial=0))
        order.setflags(write=False)
        return order, width

    def __repr__(self):
        return f"Mesh(N={self.N}, elems={self.elem_count})"


def _edge_components(nodes, tets):
    """The edges x_a - x_0, a = 1, 2, 3, of every element as (3, 3, M)
    component arrays: [a - 1, d] holds component d over the elements."""
    x = np.take(nodes.T, tets.T, axis=1)  # x[d, a, e]
    return (x[:, 1:] - x[:, :1]).transpose(1, 0, 2)


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return np.array([u[1] * v[2] - u[2] * v[1],
                     u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def _check_conforming(tets):
    """MeshError unless every face belongs to at most two elements.  A face
    seen three times gives three equal neighbours among the sorted keys of
    the faces of the sorted rows.  Only then are the faces taken in each
    element's own vertex order, to name the element at which, in element
    order, some face is seen a third time."""
    n = int(tets.max()) + 1 if tets.size else 1
    keys = np.sort(_face_keys(np.sort(tets, axis=1)[:, _LOCAL_FACES], n))
    if not (keys[2:] == keys[:-2]).any():
        return
    faces = np.sort(tets[:, _LOCAL_FACES], axis=2).reshape(-1, 3)
    keys = _face_keys(faces, n)
    by_face = np.argsort(keys, kind="stable")
    keys = keys[by_face]
    # by_face[i + 2] with keys[i] == keys[i + 2] sees its face a third time or later
    third = int(by_face[2:][keys[2:] == keys[:-2]].min())
    key = tuple(int(i) for i in faces[third])
    raise MeshError(f"face {key} shared by more than two elements (element {third // 4})")


def _face_keys(faces, n):
    """One int64 per sorted node triple of faces (..., 3), equal where the
    triples are: the triple in base n, or past 2**21 nodes, where that
    overflows, the rank of the triple among the distinct ones."""
    if n ** 3 < 2 ** 63:
        return ((faces[..., 0] * n + faces[..., 1]) * n + faces[..., 2]).ravel()
    return np.unique(faces.reshape(-1, 3), axis=0, return_inverse=True)[1].reshape(-1)


DISSECTION_LEAF = 32


def _nested_dissection(nodes, indptr, indices):
    """The order of Mesh.dissection_order, by the recursion it states: a
    subdomain is its node ids, ascending, and the two ends of its edges."""
    xyz = np.ascontiguousarray(nodes.T)
    side = np.empty(len(nodes), dtype=np.int8)  # 0 lower, 1 upper half, 2 separator
    order = [np.empty(0, dtype=np.int64)]

    def dissect(ids, head, tail):
        pts = xyz.take(ids, axis=1)  # take: faster than fancy indexing
        low = pts.min(axis=1)
        extent = pts.max(axis=1) - low
        axes = np.argsort(-extent, kind="stable")  # longest first
        # a leaf, or a subdomain whose nodes all coincide, is not split
        if len(ids) <= DISSECTION_LEAF or extent.max() == 0:
            order.append(ids[np.lexsort(pts[axes[::-1]])])  # the last key sorts first
            return
        coord = pts[axes[0]]
        median = np.partition(coord, (len(ids) - 1) // 2)[(len(ids) - 1) // 2]
        # where the median is the minimum, the lower half takes its ties
        side[ids] = coord > median if median == low[axes[0]] else coord >= median
        # the separator: upper nodes with an edge into the lower half
        up_head, up_tail = side.take(head) == 1, side.take(tail) == 1
        side[head[up_head & ~up_tail]] = 2
        side[tail[up_tail & ~up_head]] = 2
        part, part_head, part_tail = side.take(ids), side.take(head), side.take(tail)
        for half in (0, 1):  # the lower half, the upper half, then the separator
            if (part == half).any():
                inner = (part_head == half) & (part_tail == half)
                dissect(ids[part == half], head[inner], tail[inner])
        sep = part == 2
        order.append(ids[sep][np.lexsort(pts[axes[::-1]][:, sep])])

    if len(nodes):
        rows = np.repeat(np.arange(len(nodes), dtype=indices.dtype), np.diff(indptr))
        upper = rows < indices
        dissect(np.arange(len(nodes)), rows[upper], indices[upper])
    return np.concatenate(order)


@dataclass(frozen=True)
class QualityReport:
    """Mesh-size metrics: h = min |K|^(1/3), c_mesh = max diam(K)/h."""

    h: float
    max_diam: float
    c_mesh: float
    min_vol: float
    max_vol: float


def check_box(bounds, n):
    """MeshError unless generate_structured_cube meshes the box: n three
    integers >= 1, hi > lo for each (lo, hi) of bounds, and Kuhn tetrahedra
    whose volume h_x h_y h_z / 6, h = (hi - lo) / n, is finite and not
    degenerate.  Each message starts with the argument at fault."""
    n = [int(count) for count in n]
    bounds = [[float(lo), float(hi)] for lo, hi in bounds]
    if len(n) != 3 or any(count < 1 for count in n):
        raise MeshError(f"n must be three integers >= 1, got {n}")
    if any(hi <= lo for lo, hi in bounds):
        raise MeshError(f"bounds: box must have positive extent in every axis, got {bounds}")
    volume = math.prod((hi - lo) / count for (lo, hi), count in zip(bounds, n)) / 6.0
    scale = max(max(abs(x) for axis in bounds for x in axis), 1.0)
    if not math.isfinite(volume):
        raise MeshError(f"bounds: the element volume overflows ({volume:.3e})")
    if volume <= DEGENERATE_VOLUME * scale * scale * scale:
        raise MeshError(f"bounds: the elements of the box are degenerate (volume {volume:.3e})")


def generate_structured_cube(bounds, n):
    """Structured tetrahedral mesh of an axis-aligned box (check_box).

    Each of the n1*n2*n3 sub-boxes is split into the six Kuhn tetrahedra
    sharing the main diagonal, which yields a conforming mesh with uniform
    element volume per sub-box.  Nodes are ordered lexicographically by
    (z, y, x) grid index.
    """
    check_box(bounds, n)
    nx, ny, nz = (int(count) for count in n)
    axes = [np.linspace(lo, hi, count + 1) for (lo, hi), count in zip(bounds, (nx, ny, nz))]
    zz, yy, xx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    nodes = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])

    # the tets of a sub-box are the id of its lower corner plus the id
    # offsets of the six Kuhn paths; sub-boxes in (z, y, x) order
    ids = np.arange(len(nodes), dtype=np.int64).reshape(nz + 1, ny + 1, nx + 1)
    offsets = _KUHN_PATHS @ np.array([1, nx + 1, (nx + 1) * (ny + 1)])
    tets = (ids[:-1, :-1, :-1].reshape(-1, 1, 1) + offsets).reshape(-1, 4)
    return Mesh(nodes, tets)


@once_per_mesh
def mesh_quality(mesh):
    """Quality metrics computed exactly from coordinates, once per mesh."""
    vol = mesh.element_volumes()
    x = np.take(mesh.nodes.T, mesh.tets.T, axis=1)  # x[d, a, e]
    edges = [x[:, a] - x[:, b] for a, b in itertools.combinations(range(4), 2)]
    diam = np.sqrt(np.max([_dot(edge, edge) for edge in edges], axis=0))
    h = float(vol.min() ** (1.0 / 3.0))
    return QualityReport(
        h=h,
        max_diam=float(diam.max()),
        c_mesh=float((diam / h).max()),
        min_vol=float(vol.min()),
        max_vol=float(vol.max()),
    )


def save_mesh(mesh):
    """Canonical JSON serialization (UTF-8 bytes)."""
    doc = {
        "nodes": [[float(c) for c in p] for p in mesh.nodes],
        "tets": [[int(i) for i in t] for t in mesh.tets],
    }
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


def load_mesh(source):
    """Load a mesh from JSON bytes/str/file-object; validates all invariants."""
    if hasattr(source, "read"):
        source = source.read()
    try:
        doc = json.loads(source.decode("utf-8") if isinstance(source, bytes) else source)
    # not UTF-8, not JSON, an integer too long for int(), or nested too deep
    except (ValueError, RecursionError) as exc:
        raise MeshError(f"mesh JSON parse error: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc or "tets" not in doc:
        raise MeshError('mesh JSON must be an object with "nodes" and "tets"')
    for key in ("nodes", "tets"):
        _check_numbers(key, doc[key])
    return Mesh(doc["nodes"], doc["tets"])


def _check_numbers(key, rows):
    """MeshError on an entry of a mesh file's rows that numpy would misread:
    a string (parsed), a boolean (0 or 1), null, or an integer outside int64
    (an overflow).  Rows and entries of any other shape are left to Mesh."""
    for i, row in enumerate(rows if isinstance(rows, list) else ()):
        for j, value in enumerate(row if isinstance(row, list) else ()):
            if isinstance(value, (str, bool)) or value is None:
                raise MeshError(f"{json.dumps(value)} at {key}[{i}, {j}] is not a number")
            if isinstance(value, int) and not -2**63 <= value < 2**63:
                raise MeshError(f"integer {value} at {key}[{i}, {j}] is outside int64")
