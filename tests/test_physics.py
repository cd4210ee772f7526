import numpy as np
import pytest

import loop_reference as ref
from tangent_plane_llg import applied_field, generate_structured_cube, pi_apply
from tangent_plane_llg.physics import nodal_directional_derivative
from tangent_plane_llg.scheme import ConfigError, SimulationConfig

from conftest import random_unit_field
from oracles import (GAMMA0_K, GAMMA0_U, MU0, applied_field_mumag4, mumag4_nondimensional,
                     mumag5_spin_velocity)


def test_mumag4_nondimensional_values():
    out = mumag4_nondimensional(GAMMA0_K)
    assert out["ell_ex2"] == pytest.approx(32.3283, abs=1e-3)
    assert out["k"] == pytest.approx(0.017688, abs=1e-5)
    assert out["h"] == pytest.approx(5.0, abs=1e-12)


def test_scale_consistency_doubling_L():
    assert mumag4_nondimensional(GAMMA0_K, L=2e-9)["ell_ex2"] * 4 == pytest.approx(
        mumag4_nondimensional(GAMMA0_K)["ell_ex2"], rel=1e-15)


def test_applied_field_mumag4_value():
    f = applied_field_mumag4()
    assert abs(f[0] + 28250) <= 0.001 * 28250
    assert abs(f[1] + 5013.4) <= 0.001 * 5013.4
    assert f[2] == 0.0


def test_applied_field_mumag4_linearity():
    assert np.array_equal(applied_field_mumag4((0, 0, 0)), np.zeros(3))
    plus = applied_field_mumag4((1.0, -2.0, 3.0))
    minus = applied_field_mumag4((-1.0, 2.0, -3.0))
    assert np.array_equal(plus, -minus)


def test_mumag5_spin_velocity():
    u = mumag5_spin_velocity(GAMMA0_U)
    expected = 72.17 / (2.21e5 * 8.0e5 * 1e-9)
    assert abs(u[0] - expected) <= 1e-6 * expected
    assert u[1] == 0.0 and u[2] == 0.0


def test_pi_zero(cube2):
    m = random_unit_field(cube2.N, seed=50)
    out = pi_apply(dict(kind="zero"), cube2, m)
    assert np.array_equal(out, np.zeros_like(m))


def test_pi_uniaxial_aligned(cube2):
    m = np.tile([0.0, 0.0, 1.0], (cube2.N, 1))
    cfg = dict(kind="uniaxial", axis=(0.0, 0.0, 1.0), strength=1.0)
    out = pi_apply(cfg, cube2, m)
    assert np.abs(out - m).max() <= 1e-15


def test_pi_uniaxial_projection(cube2):
    m = random_unit_field(cube2.N, seed=51)
    cfg = dict(kind="uniaxial", axis=(1.0, 0.0, 0.0), strength=2.5)
    out = pi_apply(cfg, cube2, m)
    assert np.abs(out[:, 1:]).max() == 0.0
    assert np.abs(out[:, 0] - 2.5 * m[:, 0]).max() <= 1e-15


def test_uniaxial_axis_must_be_unit():
    # checked where a config is resolved; pi_apply takes its values unchecked
    field = {"pi": {"kind": "uniaxial", "axis": [1.0, 1.0, 0.0], "strength": 1.0}}
    with pytest.raises(ConfigError, match="field.pi: anisotropy axis must be unit length"):
        SimulationConfig.from_dict({"field": field})
    field["pi"]["axis"] = [0.6, 0.0, 0.8]
    SimulationConfig.from_dict({"field": field})


def test_zhang_li_constant_field_vanishes(cube2):
    m = np.tile([1.0, 0.0, 0.0], (cube2.N, 1))
    cfg = dict(kind="zhang_li", u=(0.4, 0.0, 0.0), beta_zl=0.05)
    out = pi_apply(cfg, cube2, m)
    assert np.abs(out).max() <= 1e-14


def test_zhang_li_linear_field_exact(cube2):
    # m = (0, x1, 0): (u.grad) m = u1 * e2 on every element, so the nodal
    # recovery reproduces it exactly
    m = np.zeros((cube2.N, 3))
    m[:, 1] = cube2.nodes[:, 0]
    u = (0.7, 0.0, 0.0)
    adv = nodal_directional_derivative(cube2, m, u)
    assert np.abs(adv - np.array([0.0, 0.7, 0.0])).max() <= 1e-13
    cfg = dict(kind="zhang_li", u=u, beta_zl=0.05)
    out = pi_apply(cfg, cube2, m)
    expected = np.cross(m, adv) + 0.05 * adv
    assert np.abs(out - expected).max() <= 1e-14


def test_directional_derivative_matches_the_scatter_reference(shuffled_cube):
    """np.bincount sums the same terms in the same order as one np.add.at per
    local vertex: bit for bit, on the mesh of configs/mumag5_like.json and
    on a shuffled cube."""
    mumag5 = generate_structured_cube([[0, 100], [0, 100], [0, 10]], (8, 8, 1))
    u = (0.4082013574660634, 0.1, -0.2)
    for seed, mesh in enumerate((mumag5, shuffled_cube)):
        m = random_unit_field(mesh.N, seed=90 + seed)
        assert np.array_equal(nodal_directional_derivative(mesh, m, u),
                              ref.nodal_directional_derivative(mesh, m, u))


def test_pi_operator_bound(cube2):
    """||pi(m)||_inf <= C (1 + max |grad m|) with the explicit constant C of
    each kind: 0, |strength|, and (1 + |beta_zl|) |u|."""
    for seed in range(5):
        m = random_unit_field(cube2.N, seed=60 + seed)
        vol, grad = cube2.element_geometry()
        gm = np.einsum("ead,eac->edc", grad, m[cube2.tets])
        max_grad = np.sqrt(np.einsum("edc,edc->e", gm, gm).max())
        for cfg, constant in ((dict(kind="zero"), 0.0),
                              (dict(kind="uniaxial", axis=(0, 0, 1), strength=0.8), 0.8),
                              (dict(kind="zhang_li", u=(0.4, 0.1, 0.0), beta_zl=0.05),
                               1.05 * np.linalg.norm([0.4, 0.1, 0.0]))):
            out = pi_apply(cfg, cube2, m)
            bound = constant * (1.0 + max_grad)
            assert np.linalg.norm(out, axis=1).max() <= bound + 1e-12


def test_academic_applied_field(cube2):
    f = applied_field(dict(kind="academic"), cube2)
    x1 = cube2.nodes[:, 0]
    assert np.abs(f[:, 0] - 10 * np.sin(x1)).max() == 0.0
    assert np.abs(f[:, 1] - 10 * np.cos(x1)).max() == 0.0
    assert np.abs(f[:, 2]).max() == 0.0


def test_constant_applied_field(cube2):
    f = applied_field(dict(kind="constant", value=(1.0, 2.0, 3.0)), cube2)
    assert np.array_equal(f, np.tile([1.0, 2.0, 3.0], (cube2.N, 1)))


def test_mu0_matches_definition():
    assert MU0 == pytest.approx(4e-7 * np.pi, rel=0)
