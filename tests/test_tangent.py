import numpy as np
import pytest

from tangent_plane_llg import (FIXED_INVOLUTIONS, apply_q, apply_qt, assemble_mass,
                               assemble_stiffness, build_frame, build_system,
                               gmres_solve, select_tn_adaptive)
from tangent_plane_llg.gmres import ReducedOperator
from tangent_plane_llg.tangent import FrameError

from conftest import random_unit_field

E1, E2, E3 = np.eye(3)


def random_units(n, seed):
    return random_unit_field(n, seed)


def frame_of(m):
    """The 3x2 frame of one unit vector, as build_frame makes it."""
    return build_frame(np.asarray(m, dtype=np.float64)[None], "t3-").blocks[0]


def test_householder_at_poles():
    assert np.array_equal(frame_of(E3), np.column_stack([E1, E2]))
    assert np.array_equal(frame_of(-E3), np.column_stack([E1, E2]))


def test_householder_at_e1():
    h = frame_of(E1)
    expected = np.column_stack([[0, 0, -1], [0, 1, 0]])
    assert np.abs(h - expected).max() <= 1e-15


def test_householder_rejects_non_unit():
    with pytest.raises(FrameError):
        frame_of([1.0, 1.0, 0.0])


def test_householder_rational_representation():
    # independent closed form: column j of H is e_j - (m_j/(1+m_3)) (m + e3)
    # valid away from the south pole
    for i, m in enumerate(random_units(200, seed=21)):
        if 1 + m[2] < 1e-3:
            continue
        r1 = np.array([[1.0, 0.0], [0.0, 1.0], [-m[0], -m[1]]])
        r2 = np.array([[m[0] ** 2, m[0] * m[1]],
                       [m[0] * m[1], m[1] ** 2],
                       [0.0, 0.0]]) / (1.0 + m[2])
        tol = 1e-14 / (1.0 + m[2])
        assert np.abs(frame_of(m) - (r1 - r2)).max() <= tol, f"sample {i}"


def test_reflection_is_involution_mapping_e3():
    for m in random_units(1000, seed=22):
        h = frame_of(m)
        full = np.column_stack([h, -m])  # reflection reconstructed from frame
        assert np.abs(full @ full.T - np.eye(3)).max() <= 1e-14
        assert np.abs(full - full.T).max() <= 1e-14
        assert np.abs(full @ E3 + m).max() <= 1e-14


def test_fixed_involutions_exact():
    for key, t in FIXED_INVOLUTIONS.items():
        assert np.array_equal(t, t.T), key
        assert np.array_equal(t @ t, np.eye(3)), key


def six_bounds(m):
    """The bound of every key, in FIXED_INVOLUTIONS order."""
    return [select_tn_adaptive(m, key)[1] for key in FIXED_INVOLUTIONS]


def test_adaptive_selection_e1():
    m = np.tile(E1, (10, 1))
    assert six_bounds(m) == [0, 2, 1, 1, 1, 1]
    assert select_tn_adaptive(m) == ("t1-", 2.0, 2.0)
    assert np.array_equal(FIXED_INVOLUTIONS["t1-"], np.column_stack([E3, E2, E1]))


def test_adaptive_selection_e3():
    assert select_tn_adaptive(np.tile(E3, (4, 1))) == ("t3-", 2.0, 2.0)
    assert np.array_equal(FIXED_INVOLUTIONS["t3-"], np.eye(3))


def test_adaptive_gamma_zero_when_all_axes_present():
    m = np.vstack([np.eye(3), -np.eye(3)])
    # all six bounds tie at 0: the scan order picks the first key
    assert six_bounds(m) == [0.0] * 6
    assert select_tn_adaptive(m) == ("t1+", 0.0, 0.0)


def bound_fields():
    """Unit fields for the bound checks: random ones, the six signed axes,
    and fields with exact and signed zero components."""
    fields = [random_units(64, seed=seed) for seed in range(25, 45)]
    fields.append(np.vstack([np.eye(3), -np.eye(3)]))
    fields.append(np.tile([-0.0, 0.0, 1.0], (4, 1)))
    fields.append(np.tile([0.0, -0.0, -1.0], (4, 1)))
    for seed in range(45, 50):
        m = random_units(64, seed=seed)
        m[:, seed % 3] = np.where(np.arange(64) % 2, 0.0, -0.0)
        fields.append(m / np.linalg.norm(m, axis=1)[:, None])
    return fields


def test_selection_lower_bound_holds_exactly():
    """gamma is bit for bit min_i 1 + (T m_i)_3 for T of its key, under
    every key, and d_adapt is the largest of the six bounds."""
    for m in bound_fields():
        expected = [1.0 + (m @ t.T)[:, 2].min() for t in FIXED_INVOLUTIONS.values()]
        for key, bound in zip(FIXED_INVOLUTIONS, expected):
            chosen, gamma, d_adapt = select_tn_adaptive(m, key)
            assert chosen == key and d_adapt == max(expected)
            assert np.float64(gamma).tobytes() == np.float64(bound).tobytes(), key
        key, gamma, d_adapt = select_tn_adaptive(m)
        assert gamma == d_adapt == max(expected)
        assert key == list(FIXED_INVOLUTIONS)[expected.index(d_adapt)]


def test_build_frame_identity_reduces_to_householder():
    m = random_units(20, seed=26)
    frame = build_frame(m, "t3-")
    for i in range(20):
        assert np.array_equal(frame.blocks[i], frame_of(m[i]))


def test_build_frame_t3plus_constant_e3():
    m = np.tile(E3, (5, 1))
    frame = build_frame(m, "t3+")
    for block in frame.blocks:
        assert np.array_equal(block, np.column_stack([E1, E2]))


def test_frame_orthonormal_columns(rng):
    m = random_units(40, seed=27)
    frame = build_frame(m, select_tn_adaptive(m)[0])
    q = frame.as_sparse()
    eye = (q.T @ q).toarray()
    assert np.abs(eye - np.eye(2 * 40)).max() <= 1e-14
    for i in range(40):
        assert np.abs(frame.blocks[i].T @ m[i]).max() <= 1e-14


def test_build_frame_errors():
    m = random_units(5, seed=28)
    m[3] *= 1.5
    with pytest.raises(FrameError, match="node 3"):
        build_frame(m, "t3-")
    with pytest.raises(KeyError):
        build_frame(random_units(5, seed=28), "t4+")


def test_build_frame_rejects_a_nan_row():
    m = random_units(5, seed=28)
    m[2, 0] = np.nan
    with pytest.raises(FrameError, match="node 2"):
        build_frame(m, "t3-")


def test_apply_roundtrip(rng):
    m = random_units(30, seed=29)
    frame = build_frame(m, select_tn_adaptive(m)[0])
    x = rng.standard_normal(60)
    assert np.abs(apply_qt(frame, apply_q(frame, x)) - x).max() <= 1e-14
    lifted = apply_q(frame, x)
    assert np.abs(apply_q(frame, apply_qt(frame, lifted)) - lifted).max() <= 1e-14


def test_lifted_field_is_nodally_tangent(rng):
    m = random_units(30, seed=30)
    frame = build_frame(m, select_tn_adaptive(m)[0])
    v = apply_q(frame, rng.standard_normal(60)).reshape(30, 3)
    assert np.abs(np.einsum("nc,nc->n", v, m)).max() <= 1e-13 * (1 + np.abs(v).max())


def test_apply_dimension_mismatch(rng):
    m = random_units(4, seed=31)
    frame = build_frame(m, "t3-")
    with pytest.raises(FrameError):
        apply_q(frame, np.zeros(9))
    with pytest.raises(FrameError):
        apply_qt(frame, np.zeros(11))


def test_projector_identities(cube2, rng):
    m = random_units(cube2.N, seed=32)
    frame = build_frame(m, select_tn_adaptive(m)[0])
    q = frame.as_sparse().toarray()
    proj = q @ q.T
    assert np.abs(proj @ proj - proj).max() <= 1e-13
    assert np.abs(proj @ m.ravel()).max() <= 1e-13
    # rank 2N with N zero singular values
    s = np.linalg.svd(proj, compute_uv=False)
    assert np.sum(s > 0.5) == 2 * cube2.N


def test_projector_constant_field_blocks():
    m = np.tile(FIXED_INVOLUTIONS["t2-"][:, 2], (6, 1))
    frame = build_frame(m, "t2-")
    for i in range(6):
        block = frame.blocks[i] @ frame.blocks[i].T
        assert np.abs(block - (np.eye(3) - np.outer(m[i], m[i]))).max() <= 1e-15


def test_reduced_solution_is_frame_independent(cube2, rng):
    """The lifted update Q x is the same under every axis involution."""
    m = random_units(cube2.N, seed=33)
    lh = rng.standard_normal((cube2.N, 3))
    sys_ = build_system(cube2, m, alpha=0.5, beta_k=0.1,
                        weights=np.ones(cube2.elem_count), lh=lh, ell_ex2=10.0,
                        mass=assemble_mass(cube2), stiffness=assemble_stiffness(cube2))
    lifted = {}
    for key in FIXED_INVOLUTIONS:
        frame = build_frame(m, key)
        op = ReducedOperator(sys_, frame)
        x, stats = gmres_solve(op, None, op.reduced_rhs())
        assert stats.converged
        lifted[key] = apply_q(frame, x)
    ref = lifted["t3-"]
    scale = np.linalg.norm(ref)
    for key, v in lifted.items():
        assert np.linalg.norm(v - ref) <= 1e-9 * scale, key
