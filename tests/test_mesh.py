import dataclasses
import io
import json

import numpy as np
import pytest

from tangent_plane_llg import (Mesh, MeshError, generate_structured_cube,
                               load_mesh, mesh_quality, save_mesh)
from tangent_plane_llg.fem import assemble_mass
from tangent_plane_llg.mesh import _cross, _dot, _edge_components, check_box

import loop_reference as ref
from conftest import UNIT_BOUNDS


def test_single_kuhn_split_counts(cube1):
    assert cube1.N == 8
    assert cube1.elem_count == 6
    assert cube1.element_volumes().sum() == pytest.approx(1.0, abs=1e-14)


def test_counts_n2(cube2):
    assert cube2.N == 27
    assert cube2.elem_count == 48


def test_volume_sum_n4():
    mesh = generate_structured_cube(UNIT_BOUNDS, (4, 4, 4))
    assert abs(mesh.element_volumes().sum() - 1.0) <= 1e-14


def test_volume_sum_anisotropic_box():
    mesh = generate_structured_cube([[0, 2], [-1, 1], [0, 0.5]], (3, 2, 1))
    assert mesh.element_volumes().sum() == pytest.approx(2 * 2 * 0.5, rel=1e-13)


def test_generator_rejects_bad_input():
    with pytest.raises(MeshError):
        generate_structured_cube(UNIT_BOUNDS, (0, 1, 1))
    with pytest.raises(MeshError):
        generate_structured_cube([[0, 0], [0, 1], [0, 1]], (1, 1, 1))


@pytest.mark.parametrize("bounds, n, message", [
    (UNIT_BOUNDS, (0, 1, 1), r"n must be three integers >= 1, got \[0, 1, 1\]"),
    ([[0, 0], [0, 1], [0, 1]], (1, 1, 1), "bounds: box must have positive extent"),
    ([[0, 1e10], [0, 1], [0, 1]], (2, 2, 2), "bounds: the elements of the box are degenerate"),
    ([[0, 1e200]] * 3, (1, 1, 1), "bounds: the element volume overflows"),
])
def test_check_box_is_the_rule_of_the_generator(bounds, n, message):
    # the one statement of the box rules, which the config check calls too
    with pytest.raises(MeshError, match=message):
        check_box(bounds, n)
    with pytest.raises(MeshError, match=message):
        generate_structured_cube(bounds, n)


@pytest.mark.parametrize("name", ["shuffled_cube", "perturbed_cube"])
def test_closed_form_geometry_matches_det_and_inv(request, name):
    """Volumes from the triple product and gradients from the cross products
    of the edges, against LAPACK's determinant and inverse of the edge
    matrix, element by element."""
    mesh = request.getfixturevalue(name)
    v = mesh.nodes[mesh.tets]
    edges = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0], v[:, 3] - v[:, 0]], axis=-1)
    det_vol = np.linalg.det(edges) / 6.0
    inv = np.linalg.inv(edges)
    inv_grad = np.concatenate([-inv.sum(axis=1, keepdims=True), inv], axis=1)
    vol, grad = mesh.element_geometry()
    assert (np.abs(vol - det_vol) <= 1e-13 * det_vol).all()
    scale = np.abs(inv_grad).max(axis=(1, 2))
    assert (np.abs(grad - inv_grad).max(axis=(1, 2)) <= 1e-13 * scale).all()
    assert np.shares_memory(grad, mesh.gradient_components())


def test_swapping_vertices_2_and_3_negates_the_volume_exactly(perturbed_cube):
    mesh = perturbed_cube
    flip = np.random.default_rng(53).random(mesh.elem_count) < 0.5
    tets = mesh.tets.copy()
    tets[flip, 2], tets[flip, 3] = mesh.tets[flip, 3], mesh.tets[flip, 2]

    def triple(tets):
        e1, e2, e3 = _edge_components(mesh.nodes, tets)
        return _dot(e1, _cross(e2, e3))

    oriented = triple(mesh.tets)
    assert (oriented > 0).all()
    assert np.array_equal(triple(tets), np.where(flip, -oriented, oriented))
    # the mesh swaps them back, and the volumes stay bit for bit
    again = Mesh(mesh.nodes, tets)
    assert np.array_equal(again.tets, mesh.tets)
    assert np.array_equal(again.element_volumes(), mesh.element_volumes())


def test_quality_reference_tet():
    mesh = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2, 3]])
    q = mesh_quality(mesh)
    assert q.min_vol == pytest.approx(1 / 6, abs=1e-15)
    assert q.max_diam == pytest.approx(np.sqrt(2), abs=1e-14)
    assert q.h == pytest.approx((1 / 6) ** (1 / 3), abs=1e-14)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_quality_uniform_cube(k):
    mesh = generate_structured_cube(UNIT_BOUNDS, (k, k, k))
    q = mesh_quality(mesh)
    assert q.h == pytest.approx((1 / (6 * k**3)) ** (1 / 3), abs=1e-14)
    assert q.c_mesh >= 1.0
    # chain h <= |K|^(1/3) <= diam <= c_mesh h for every element
    vol = mesh.element_volumes()
    assert (q.h <= vol ** (1 / 3) + 1e-15).all()
    assert q.max_diam <= q.c_mesh * q.h * (1 + 1e-14)


@pytest.mark.parametrize("name", ["cube", "shuffled_cube", "perturbed_cube", "file_mesh"])
def test_quality_matches_the_element_stack_reference(name, shuffled_cube, perturbed_cube):
    """Every figure of mesh_quality equals, bit for bit, that of the (M, 4, 3)
    vertex stack in loop_reference."""
    meshes = {"cube": generate_structured_cube(UNIT_BOUNDS, (5, 4, 3)),
              "shuffled_cube": shuffled_cube, "perturbed_cube": perturbed_cube,
              "file_mesh": load_mesh(save_mesh(perturbed_cube))}
    mesh = meshes[name]
    assert dataclasses.astuple(mesh_quality(mesh)) == ref.mesh_quality(mesh)


def test_kuhn_shape_constant_across_resolutions():
    cs = [mesh_quality(generate_structured_cube(UNIT_BOUNDS, (k, k, k))).c_mesh
          for k in (1, 2, 4)]
    assert max(cs) - min(cs) <= 1e-12


def test_roundtrip_byte_identical(cube2):
    blob = save_mesh(cube2)
    again = save_mesh(load_mesh(blob))
    assert blob == again


def test_load_cube_file_volume(cube1):
    mesh = load_mesh(io.BytesIO(save_mesh(cube1)))
    assert mesh.N == 8 and mesh.elem_count == 6
    assert mesh.element_volumes().sum() == pytest.approx(1.0, abs=1e-14)


def test_load_rejects_out_of_range_index():
    doc = {"nodes": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
           "tets": [[0, 1, 2, 4]]}
    with pytest.raises(MeshError, match="element 0"):
        load_mesh(json.dumps(doc))


def test_load_rejects_parse_error():
    with pytest.raises(MeshError, match="parse"):
        load_mesh(b"{not json")


def test_load_rejects_degenerate_element():
    doc = {"nodes": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0]],
           "tets": [[0, 1, 2, 3]]}
    with pytest.raises(MeshError, match="degenerate"):
        load_mesh(json.dumps(doc))


def test_negative_orientation_is_normalized():
    mesh = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 2, 3]])
    assert (mesh.element_volumes() > 0).all()


def test_nonconforming_mesh_rejected():
    # three tets sharing one face
    nodes = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1]]
    tets = [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]]
    with pytest.raises(MeshError, match="shared"):
        Mesh(nodes, tets)


def test_repeated_node_in_element_rejected():
    with pytest.raises(MeshError, match="repeated"):
        Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2, 2]])


def test_mesh_errors_name_the_first_bad_element(cube1):
    # the element at which, in element order, a face is seen a third time;
    # the face is printed as plain ints
    with pytest.raises(MeshError) as err:
        Mesh(cube1.nodes, np.vstack([cube1.tets, cube1.tets[[0]]]))
    assert str(err.value) == "face (0, 1, 7) shared by more than two elements (element 6)"
    with pytest.raises(MeshError) as err:
        Mesh(cube1.nodes, np.vstack([cube1.tets[[2]], cube1.tets]))
    assert str(err.value) == "face (0, 3, 7) shared by more than two elements (element 3)"
    tets = cube1.tets.copy()
    tets[4, 3] = tets[4, 1]
    tets[5, 0] = tets[5, 2]
    with pytest.raises(MeshError) as err:
        Mesh(cube1.nodes, tets)
    assert str(err.value) == "element 4 has repeated node indices [0, 4, 5, 4]"


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("d", [1, 3])
def test_nodal_l2_scaling_equivalence(k, d):
    """Nodal sums of P1 fields are equivalent to L2 norms.

    Exact elementwise form of the scaling argument: the lumped form
    sum_K (|K|/4) sum_{z in K} |phi(z)|^2 lies within [1, 5] times the exact
    L2 norm squared (5 = space dimension + 2); the raw h^3-weighted nodal sum
    obeys the same equivalence with explicit nodal patch-volume constants.
    """
    mesh = generate_structured_cube(UNIT_BOUNDS, (k, k, k))
    mass = assemble_mass(mesh)
    vol = mesh.element_volumes()
    rng = np.random.default_rng(42 + k + d)

    patch = np.zeros(mesh.N)
    for a in range(4):
        np.add.at(patch, mesh.tets[:, a], vol)
    h3 = float(vol.min())
    c_lo = 4.0 * h3 / patch.max()
    c_hi = 20.0 * h3 / patch.min()

    for _ in range(25):
        phi = rng.standard_normal((mesh.N, d))
        l2sq = float(np.einsum("nd,nd->", phi, mass @ phi))
        nodal_sq = np.einsum("nd,nd->n", phi, phi)
        lumped = float((vol[:, None] / 4.0 * nodal_sq[mesh.tets]).sum())
        assert l2sq <= lumped * (1 + 1e-12)
        assert lumped <= 5.0 * l2sq * (1 + 1e-12)
        raw = h3 * float(nodal_sq.sum())
        assert c_lo * l2sq * (1 - 1e-12) <= raw <= c_hi * l2sq * (1 + 1e-12)


def test_mesh_is_immutable(cube2):
    with pytest.raises(ValueError):
        cube2.nodes[0, 0] = 5.0
    with pytest.raises(ValueError):
        cube2.tets[0, 0] = 1
