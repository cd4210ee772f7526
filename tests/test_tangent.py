import numpy as np
import pytest

from tangent_plane_llg import (FIXED_INVOLUTIONS, apply_q, apply_qt, assemble_mass,
                               assemble_stiffness, build_frame, build_system,
                               frame_gamma, gmres_solve, select_tn_adaptive)
from tangent_plane_llg.gmres import ReducedOperator
from tangent_plane_llg.tangent import FrameError

from conftest import random_unit_field

E1, E2, E3 = np.eye(3)


def random_units(n, seed):
    return random_unit_field(n, seed)


def frame_of(m, strategy="householder"):
    """The 3x2 frame of one unit vector, as build_frame makes it."""
    return build_frame(np.asarray(m, dtype=np.float64)[None], None, strategy).blocks[0]


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


@pytest.mark.parametrize("strategy", ["signflip", "rotation"])
def test_alt_frames_orthonormal_and_perpendicular(strategy):
    for m in random_units(300, seed=23):
        h = frame_of(m, strategy)
        assert np.abs(h.T @ h - np.eye(2)).max() <= 1e-13
        assert np.abs(h.T @ m).max() <= 1e-13


def test_signflip_upper_hemisphere_matches_householder():
    for m in random_units(100, seed=24):
        if m[2] <= 0:
            continue
        assert np.array_equal(frame_of(m, "signflip"), frame_of(m))


def test_rotation_at_e1_quarter_turn():
    h = frame_of(E1, "rotation")
    expected = np.column_stack([[0, 0, -1], [0, 1, 0]])
    assert np.abs(h - expected).max() <= 1e-15


def test_rotation_pole_falls_back():
    assert np.array_equal(frame_of(E3, "rotation"), frame_of(E3))
    assert np.array_equal(frame_of(-E3, "rotation"), frame_of(-E3))


def test_fixed_involutions_exact():
    for key, t in FIXED_INVOLUTIONS.items():
        assert np.array_equal(t, t.T), key
        assert np.array_equal(t @ t, np.eye(3)), key


def test_adaptive_selection_e1():
    m = np.tile(E1, (10, 1))
    sel = select_tn_adaptive(m)
    assert np.array_equal(sel.all_d(), [0, 2, 1, 1, 1, 1])
    assert sel.chosen_key == "t1-"
    assert np.array_equal(sel.chosen_T, np.column_stack([E3, E2, E1]))
    assert sel.gamma == 2.0


def test_adaptive_selection_e3():
    sel = select_tn_adaptive(np.tile(E3, (4, 1)))
    assert sel.chosen_key == "t3-"
    assert np.array_equal(sel.chosen_T, np.eye(3))
    assert sel.gamma == 2.0


def test_adaptive_gamma_zero_when_all_axes_present():
    m = np.vstack([np.eye(3), -np.eye(3)])
    sel = select_tn_adaptive(m)
    assert sel.gamma == 0.0


def test_selection_lower_bound_holds_exactly():
    m = random_units(64, seed=25)
    sel = select_tn_adaptive(m)
    assert frame_gamma(m, sel.chosen_T) >= sel.gamma
    for key, t in FIXED_INVOLUTIONS.items():
        d = dict(zip(["t1+", "t1-", "t2+", "t2-", "t3+", "t3-"], sel.all_d()))[key]
        assert frame_gamma(m, t) == pytest.approx(d, abs=1e-15)


def test_build_frame_identity_reduces_to_householder():
    m = random_units(20, seed=26)
    frame = build_frame(m, np.eye(3))
    for i in range(20):
        assert np.array_equal(frame.blocks[i], frame_of(m[i]))


def test_build_frame_t3plus_constant_e3():
    m = np.tile(E3, (5, 1))
    frame = build_frame(m, FIXED_INVOLUTIONS["t3+"])
    for block in frame.blocks:
        assert np.array_equal(block, np.column_stack([E1, E2]))


def test_frame_orthonormal_columns(rng):
    m = random_units(40, seed=27)
    frame = build_frame(m, select_tn_adaptive(m).chosen_T, "rotation")
    q = frame.as_sparse()
    eye = (q.T @ q).toarray()
    assert np.abs(eye - np.eye(2 * 40)).max() <= 1e-14
    for i in range(40):
        assert np.abs(frame.blocks[i].T @ m[i]).max() <= 1e-14


def test_build_frame_errors():
    m = random_units(5, seed=28)
    m[3] *= 1.5
    with pytest.raises(FrameError, match="node 3"):
        build_frame(m, np.eye(3))
    with pytest.raises(FrameError, match="involution"):
        build_frame(random_units(5, seed=28), np.diag([1.0, 1.0, 2.0]))


def test_apply_roundtrip(rng):
    m = random_units(30, seed=29)
    frame = build_frame(m, select_tn_adaptive(m).chosen_T)
    x = rng.standard_normal(60)
    assert np.abs(apply_qt(frame, apply_q(frame, x)) - x).max() <= 1e-14
    lifted = apply_q(frame, x)
    assert np.abs(apply_q(frame, apply_qt(frame, lifted)) - lifted).max() <= 1e-14


def test_lifted_field_is_nodally_tangent(rng):
    m = random_units(30, seed=30)
    frame = build_frame(m, select_tn_adaptive(m).chosen_T)
    v = apply_q(frame, rng.standard_normal(60)).reshape(30, 3)
    assert np.abs(np.einsum("nc,nc->n", v, m)).max() <= 1e-13 * (1 + np.abs(v).max())


def test_apply_dimension_mismatch(rng):
    m = random_units(4, seed=31)
    frame = build_frame(m, np.eye(3))
    with pytest.raises(FrameError):
        apply_q(frame, np.zeros(9))
    with pytest.raises(FrameError):
        apply_qt(frame, np.zeros(11))


def test_projector_identities(cube2, rng):
    m = random_units(cube2.N, seed=32)
    frame = build_frame(m, select_tn_adaptive(m).chosen_T)
    q = frame.as_sparse().toarray()
    proj = q @ q.T
    assert np.abs(proj @ proj - proj).max() <= 1e-13
    assert np.abs(proj @ m.ravel()).max() <= 1e-13
    # rank 2N with N zero singular values
    s = np.linalg.svd(proj, compute_uv=False)
    assert np.sum(s > 0.5) == 2 * cube2.N


def test_projector_constant_field_blocks():
    t = FIXED_INVOLUTIONS["t2-"]
    m = np.tile(t[:, 2], (6, 1))
    frame = build_frame(m, t)
    for i in range(6):
        block = frame.blocks[i] @ frame.blocks[i].T
        assert np.abs(block - (np.eye(3) - np.outer(m[i], m[i]))).max() <= 1e-15


def test_reduced_solution_is_strategy_independent(cube2, rng):
    m = random_units(cube2.N, seed=33)
    lh = rng.standard_normal((cube2.N, 3))
    sys_ = build_system(cube2, m, alpha=0.5, beta_k=0.1,
                        weights=np.ones(cube2.elem_count), lh=lh, ell_ex2=10.0,
                        mass=assemble_mass(cube2), stiffness=assemble_stiffness(cube2))
    t = select_tn_adaptive(m).chosen_T
    lifted = {}
    for strategy in ("householder", "signflip", "rotation"):
        frame = build_frame(m, t, strategy)
        op = ReducedOperator(sys_, frame)
        x, stats = gmres_solve(op, None, op.reduced_rhs())
        assert stats.converged
        lifted[strategy] = apply_q(frame, x)
    ref = lifted["householder"]
    scale = np.linalg.norm(ref)
    for strategy in ("signflip", "rotation"):
        assert np.linalg.norm(lifted[strategy] - ref) <= 1e-9 * scale
