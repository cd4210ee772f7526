"""Tetrahedral meshes: structured cube generation, quality metrics, JSON I/O.

Meshes are immutable after construction.  Element orientation is normalized
to positive signed volume when a mesh is built, so downstream assembly can
use signed determinants directly.
"""

import itertools
import json
from dataclasses import dataclass

import numpy as np


class MeshError(ValueError):
    """Invalid mesh data (bad indices, degenerate or non-conforming elements)."""


# The six tetrahedra of the Kuhn subdivision of the unit cube, as vertex
# paths 0 -> e_{s1} -> e_{s1}+e_{s2} -> (1,1,1) for each permutation s:
# _KUHN_PATHS[s, v] is the (x, y, z) corner offset of vertex v of tet s.
_KUHN_PATHS = np.array([
    [np.isin(np.arange(3), perm[:step]) for step in range(4)]
    for perm in itertools.permutations(range(3))
], dtype=np.int64)

# Local vertex triples of the four faces of a tetrahedron.
_LOCAL_FACES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


class Mesh:
    """Conforming tetrahedral mesh given by node coordinates and connectivity."""

    def __init__(self, nodes, tets):
        nodes = np.ascontiguousarray(np.asarray(nodes, dtype=np.float64))
        tets = np.ascontiguousarray(np.asarray(tets, dtype=np.int64))
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

        # Normalize orientation: swap two vertices where the signed volume is
        # negative; reject degenerate elements.
        vol = _signed_volumes(nodes, tets)
        scale = np.abs(nodes).max() if len(nodes) else 1.0
        degenerate = np.abs(vol) <= 1e-14 * max(scale, 1.0) ** 3
        if degenerate.any():
            bad = int(np.nonzero(degenerate)[0][0])
            raise MeshError(f"element {bad} is degenerate (volume {vol[bad]:.3e})")
        neg = vol < 0
        if neg.any():
            tets = tets.copy()
            tets[neg, 2], tets[neg, 3] = tets[neg, 3].copy(), tets[neg, 2].copy()
            vol = _signed_volumes(nodes, tets)

        _check_conforming(tets)

        for arr in (nodes, tets, vol):
            arr.setflags(write=False)
        self.nodes = nodes
        self.tets = tets
        self._volumes = vol
        self._grad = None
        self._adjacency = None

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
        of local vertex a on element e.  Both are computed once and
        read-only.
        """
        if self._grad is None:
            inv = np.linalg.inv(_edge_matrices(self.nodes, self.tets))
            grad = np.empty((self.elem_count, 4, 3))
            grad[:, 1:, :] = inv
            grad[:, 0, :] = -inv.sum(axis=1)
            grad.setflags(write=False)
            self._grad = grad
        return self._volumes, self._grad

    def adjacency(self):
        """The N x N node-adjacency pattern every assembled matrix lives on.

        Returns (indptr, indices, slot): the CSR row pointers and sorted
        column indices of the node pairs that share an element, diagonal
        included, and slot of shape (M, 4, 4), where slot[e, a, b] is the
        position in indices of the pair (tets[e, a], tets[e, b]).  Computed
        once and read-only.
        """
        if self._adjacency is None:
            n = self.N
            keys = self.tets[:, :, None] * n + self.tets[:, None, :]
            pairs, slot = np.unique(keys.ravel(), return_inverse=True)
            index = np.int32 if len(pairs) < 2**31 else np.int64
            indptr = np.searchsorted(pairs, np.arange(n + 1) * n).astype(index)
            indices = (pairs % n).astype(index)
            slot = slot.reshape(keys.shape)
            for arr in (indptr, indices, slot):
                arr.setflags(write=False)
            self._adjacency = (indptr, indices, slot)
        return self._adjacency

    def __repr__(self):
        return f"Mesh(N={self.N}, elems={self.elem_count})"


def _edge_matrices(nodes, tets):
    v = nodes[tets]
    return np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0], v[:, 3] - v[:, 0]], axis=-1)


def _signed_volumes(nodes, tets):
    return np.linalg.det(_edge_matrices(nodes, tets)) / 6.0


def _check_conforming(tets):
    # A face shared by two tets must appear as the same node set; any face
    # appearing more than twice breaks conformity.  The error names the
    # element at which, in element order, some face is seen a third time.
    faces = np.sort(tets[:, _LOCAL_FACES], axis=2).reshape(-1, 3)
    n = int(tets.max()) + 1 if tets.size else 1
    if n ** 3 < 2 ** 63:
        keys = (faces[:, 0] * n + faces[:, 1]) * n + faces[:, 2]
        _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    else:
        _, inverse, counts = np.unique(faces, axis=0, return_inverse=True,
                                       return_counts=True)
    if counts.max(initial=0) <= 2:
        return
    # position of the third occurrence of every face seen more than twice
    order = np.argsort(inverse, kind="stable")
    first = np.cumsum(counts) - counts
    third = int(order[first[counts > 2] + 2].min())
    key = tuple(int(i) for i in faces[third])
    raise MeshError(f"face {key} shared by more than two elements (element {third // 4})")


@dataclass(frozen=True)
class QualityReport:
    """Mesh-size metrics: h = min |K|^(1/3), c_mesh = max diam(K)/h."""

    h: float
    max_diam: float
    c_mesh: float
    min_vol: float
    max_vol: float


def generate_structured_cube(bounds, n):
    """Structured tetrahedral mesh of an axis-aligned box.

    Each of the n1*n2*n3 sub-boxes is split into the six Kuhn tetrahedra
    sharing the main diagonal, which yields a conforming mesh with uniform
    element volume per sub-box.  Nodes are ordered lexicographically by
    (z, y, x) grid index.
    """
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.shape != (3, 2):
        raise MeshError(f"bounds must be (3, 2) [per-axis (lo, hi)], got {bounds.shape}")
    n = np.asarray(n, dtype=np.int64)
    if n.shape != (3,) or (n < 1).any():
        raise MeshError(f"subdivision counts must be three integers >= 1, got {n}")
    if (bounds[:, 1] <= bounds[:, 0]).any():
        raise MeshError("box must have positive extent in every axis")

    nx, ny, nz = (int(v) for v in n)
    axes = [np.linspace(bounds[i, 0], bounds[i, 1], n[i] + 1) for i in range(3)]
    zz, yy, xx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    nodes = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])

    # the tets of a sub-box are the id of its lower corner plus the id
    # offsets of the six Kuhn paths; sub-boxes in (z, y, x) order
    ids = np.arange(len(nodes), dtype=np.int64).reshape(nz + 1, ny + 1, nx + 1)
    offsets = _KUHN_PATHS @ np.array([1, nx + 1, (nx + 1) * (ny + 1)])
    tets = (ids[:-1, :-1, :-1].reshape(-1, 1, 1) + offsets).reshape(-1, 4)
    return Mesh(nodes, tets)


def mesh_quality(mesh):
    """Quality metrics computed exactly from coordinates."""
    vol = mesh.element_volumes()
    v = mesh.nodes[mesh.tets]
    pairs = list(itertools.combinations(range(4), 2))
    d2 = np.stack([((v[:, a] - v[:, b]) ** 2).sum(axis=1) for a, b in pairs])
    diam = np.sqrt(d2.max(axis=0))
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
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise MeshError(f"mesh JSON parse error: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc or "tets" not in doc:
        raise MeshError('mesh JSON must be an object with "nodes" and "tets"')
    return Mesh(doc["nodes"], doc["tets"])
