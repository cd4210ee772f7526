import json

import numpy as np
import pytest

from tangent_plane_llg import (Mesh, assemble_cross, assemble_mass, assemble_stiffness,
                               generate_structured_cube, load_mesh, save_mesh)
from tangent_plane_llg.fem import block_matrix

UNIT_BOUNDS = [[0, 1], [0, 1], [0, 1]]


@pytest.fixture(scope="session")
def cube1():
    return generate_structured_cube(UNIT_BOUNDS, (1, 1, 1))


@pytest.fixture(scope="session")
def cube2():
    """27-node structured cube used throughout the oracle tests."""
    return generate_structured_cube(UNIT_BOUNDS, (2, 2, 2))


@pytest.fixture(scope="session")
def cube2_matrices(cube2):
    return assemble_mass(cube2), assemble_stiffness(cube2)


@pytest.fixture(scope="session")
def shuffled_cube():
    """A 3x3x3 cube read back from JSON with shuffled node ids, shuffled
    element order and about a third of its tets negatively oriented."""
    doc = json.loads(save_mesh(generate_structured_cube(UNIT_BOUNDS, (3, 3, 3))))
    rng = np.random.default_rng(48)
    nodes, tets = np.array(doc["nodes"]), np.array(doc["tets"])
    ids = rng.permutation(len(nodes))  # new id of every node
    shuffled = np.empty_like(nodes)
    shuffled[ids] = nodes
    tets = ids[tets][rng.permutation(len(tets))]
    flip = rng.random(len(tets)) < 0.3
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]
    mesh = load_mesh(json.dumps({"nodes": shuffled.tolist(), "tets": tets.tolist()}))
    # the mesh re-orients exactly the flipped tets, and stays shuffled
    assert np.array_equal((mesh.tets != tets).any(axis=1), flip) and flip.any()
    assert (np.diff(mesh.tets[:, 0]) < 0).any()
    return mesh


@pytest.fixture(scope="session")
def perturbed_cube():
    """A 4x4x4 cube with every node moved by up to a fifth of the mesh size
    in each coordinate: elements of unequal volume and shape."""
    cube = generate_structured_cube(UNIT_BOUNDS, (4, 4, 4))
    rng = np.random.default_rng(52)
    return Mesh(cube.nodes + 0.05 * rng.uniform(-1.0, 1.0, cube.nodes.shape), cube.tets)


def cross_form(mesh, m):
    """The 3N x 3N cross form S as BSR, expanded from the moments of m: the
    negated block matrix of zero scalar part."""
    indptr, indices, _ = mesh.adjacency()
    return -block_matrix(indptr, indices, np.zeros(len(indices)), assemble_cross(mesh, m))


def transpose_slots(mesh):
    """slot[t] of the pair (j, i) for every slot t = (i, j) of the mesh pattern."""
    indptr, indices, _ = mesh.adjacency()
    rows = np.repeat(np.arange(mesh.N), np.diff(indptr))
    return np.searchsorted(rows * mesh.N + indices, indices * mesh.N + rows)


def spd_in_order(mass, stiffness, alpha_p, beta_k, order):
    """K = alpha_p M + beta_k L, formed apart from the package, as P^T K P
    (CSR, P the permutation of order): the matrix the factoring builders
    take."""
    scalar = (alpha_p * mass + beta_k * stiffness).tocsr()
    return scalar[order][:, order]


def random_unit_field(n, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, 3))
    return m / np.linalg.norm(m, axis=1)[:, None]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
