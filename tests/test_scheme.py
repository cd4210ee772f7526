import math

import numpy as np
import pytest

from tangent_plane_llg import (SchemeCoefficients, SimulationConfig,
                               lambda_field, lh_term, normalize_update,
                               run_simulation, tps_step)
from tangent_plane_llg.physics import AppliedFieldConfig, PiConfig
from tangent_plane_llg.scheme import (ConfigError, StepContext,
                                      assert_unit_nodal, exchange_energy)

from conftest import UNIT_BOUNDS, random_unit_field


def academic_config(**over):
    base = {
        "scheme": "tps1", "alpha": 0.5, "ell_ex2": 10.0, "T": 0.03, "k": 0.01,
        "mesh": {"kind": "cube", "bounds": UNIT_BOUNDS, "n": [2, 2, 2]},
        "field": {"pi": {"kind": "zero"}, "applied": {"kind": "academic"},
                  "m0": {"kind": "constant", "value": [1, 0, 0]}},
        "precond": {"kind": "practical", "alpha_p": 1.0},
    }
    for key, val in over.items():
        if isinstance(val, dict) and key in base and isinstance(base[key], dict):
            base[key] = {**base[key], **val}
        else:
            base[key] = val
    return base


class TestCoefficients:
    def test_tps1_constants(self):
        c = SchemeCoefficients("tps1", alpha=0.5, ell_ex2=10.0, theta=0.7)
        assert c.beta(0.01) == 10.0 * 0.7
        c.check_timestep(0.01)
        assert c.wk(0.01, 3.7) == 0.5
        assert c.wk(0.01, -123.0) == 0.5

    def test_tps2_values(self):
        c = SchemeCoefficients("tps2", alpha=0.5, ell_ex2=10.0)
        k = 0.01
        c.check_timestep(k)
        rho = abs(k * math.log(k))
        assert c.rho(k) == pytest.approx(rho, rel=1e-15)
        assert c.beta(k) == pytest.approx(5.0 * (1 + rho), rel=1e-15)
        # both branches give alpha at s = 0
        assert c.wk(k, 0.0) == 0.5
        assert c.wk(k, -1e-300) == pytest.approx(0.5, rel=1e-12)
        # capped branches
        cap = 1.0 / rho
        expect_hi = 0.5 + 1.0 / (2.0 * abs(math.log(k)))
        assert c.wk(k, cap) == pytest.approx(expect_hi, rel=1e-14)
        assert c.wk(k, 10 * cap) == pytest.approx(expect_hi, rel=1e-14)
        expect_lo = 0.5 / (1.0 + 1.0 / (2 * 0.5 * abs(math.log(k))))
        assert c.wk(k, -1e12) == pytest.approx(expect_lo, rel=1e-14)

    def test_tps2_weight_lower_bound_on_grid(self):
        # alpha = 0.5, k = 0.01 satisfies the uniform lower bound alpha/2
        c = SchemeCoefficients("tps2", alpha=0.5, ell_ex2=10.0)
        grid = np.linspace(-1e6, 1e6, 20001)
        w = c.wk(0.01, grid)
        assert (w >= 0.25).all()
        assert (w > 0).all()

    def test_tps2_rejects_large_k(self):
        c = SchemeCoefficients("tps2", alpha=0.5, ell_ex2=10.0)
        with pytest.raises(ConfigError):
            c.check_timestep(1.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SchemeCoefficients("tps3", alpha=0.5, ell_ex2=1.0)
        with pytest.raises(ConfigError):
            SchemeCoefficients("tps1", alpha=0.0, ell_ex2=1.0)
        with pytest.raises(ConfigError):
            SchemeCoefficients("tps1", alpha=0.5, ell_ex2=1.0, theta=1.5)


class TestLambdaField:
    def test_constant_field_no_forcing(self, cube2):
        m = np.tile([0.0, 1.0, 0.0], (cube2.N, 1))
        lam = lambda_field(cube2, m, np.zeros((cube2.N, 3)), ell_ex2=10.0)
        assert np.abs(lam).max() <= 1e-14

    def test_constant_field_aligned_forcing(self, cube2):
        m = np.tile([0.0, 1.0, 0.0], (cube2.N, 1))
        lam = lambda_field(cube2, m, 3.5 * m, ell_ex2=10.0)
        assert np.abs(lam - 3.5).max() <= 1e-13

    def test_unit_gradient_element(self, cube1):
        # nodal interpolant of m = (x1, 0, 0): grad has Frobenius norm 1
        m = np.zeros((cube1.N, 3))
        m[:, 0] = cube1.nodes[:, 0]
        lam = lambda_field(cube1, m, np.zeros((cube1.N, 3)), ell_ex2=10.0)
        assert np.abs(lam + 10.0).max() <= 1e-13


class TimeLinearField:
    """Stub applied field f(t) = t * c for the combination tests."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=np.float64)

    def nodal(self, mesh, t):
        return np.tile(t * self.c, (mesh.N, 1))


class TestLhTerm:
    def test_constant_field_both_variants(self, cube2):
        m = random_unit_field(cube2.N, seed=40)
        applied = AppliedFieldConfig(kind="constant", value=(1.0, 2.0, 3.0))
        pi = PiConfig(kind="zero")
        for variant in ("tps1", "tps2"):
            c = SchemeCoefficients(variant, alpha=0.5, ell_ex2=1.0)
            lh = lh_term(c, m, m, applied, 0.0, 0.01, pi, cube2)
            assert np.abs(lh - np.array([1.0, 2.0, 3.0])).max() <= 1e-15

    def test_tps2_equal_steps_collapse(self, cube2):
        m = random_unit_field(cube2.N, seed=41)
        pi = PiConfig(kind="uniaxial", axis=(0, 0, 1), strength=2.0)
        c = SchemeCoefficients("tps2", alpha=0.5, ell_ex2=1.0)
        f = TimeLinearField([1.0, 0.0, 0.0])
        t_n, k = 2.0, 0.01
        lh = lh_term(c, m, m, f, t_n, k, pi, cube2)
        from tangent_plane_llg.physics import pi_apply
        expected = pi_apply(pi, cube2, m) + f.nodal(cube2, t_n + k / 2)
        assert np.abs(lh - expected).max() <= 1e-14

    def test_tps1_time_evaluation(self, cube2):
        m = random_unit_field(cube2.N, seed=42)
        pi = PiConfig(kind="uniaxial", axis=(0, 0, 1), strength=2.0)
        c = SchemeCoefficients("tps1", alpha=0.5, ell_ex2=1.0)
        fvec = np.array([0.5, -1.0, 0.0])
        lh = lh_term(c, m, m, TimeLinearField(fvec), 2.0, 0.01, pi, cube2)
        from tangent_plane_llg.physics import pi_apply
        expected = 2.0 * fvec + pi_apply(pi, cube2, m)
        assert np.abs(lh - expected).max() <= 1e-14


class TestNormalizeUpdate:
    def test_zero_update(self):
        m = random_unit_field(10, seed=43)
        out = normalize_update(m, np.zeros((10, 3)), 0.1)
        assert np.abs(out - m).max() <= 1e-15

    def test_quarter_rotation(self):
        m = np.array([[1.0, 0.0, 0.0]])
        v = np.array([[0.0, 1.0, 0.0]])
        out = normalize_update(m, v, 1.0)
        assert np.abs(out - np.array([[1, 1, 0]]) / np.sqrt(2)).max() <= 1e-15

    def test_pythagoras_identity(self, rng):
        m = random_unit_field(50, seed=44)
        raw = rng.standard_normal((50, 3))
        v = raw - np.einsum("nc,nc->n", raw, m)[:, None] * m  # exact-ish tangent
        k = 0.3
        updated = m + k * v
        nsq = np.einsum("nc,nc->n", updated, updated)
        pred = 1.0 + k**2 * np.einsum("nc,nc->n", v, v)
        assert np.abs(nsq - pred).max() <= 1e-12 * (1 + pred.max())
        out = normalize_update(m, v, k)
        assert np.abs(np.linalg.norm(out, axis=1) - 1).max() <= 1e-15

    def test_rejects_non_tangent_update(self):
        m = random_unit_field(5, seed=45)
        with pytest.raises(ValueError, match="not tangent"):
            normalize_update(m, m.copy(), 0.1)


class TestStep:
    def test_equilibrium_constant_field(self, cube2):
        cfg = SimulationConfig.from_dict(academic_config(
            field={"applied": {"kind": "constant", "value": [0, 0, 0]}},
            T=0.02))
        res = run_simulation(cfg, keep_states=True)
        m0 = res.states[0].m_n
        for st in res.states[1:]:
            assert np.array_equal(st.m_n, m0) or np.abs(st.m_n - m0).max() <= 1e-14
            assert np.abs(st.last_v).max() <= 1e-12

    def test_single_step_equals_run_with_T_eq_k(self):
        cfg_run = SimulationConfig.from_dict(academic_config(T=0.01))
        res = run_simulation(cfg_run)
        ctx = StepContext(SimulationConfig.from_dict(academic_config(T=0.01)))
        state, record = tps_step(ctx, ctx.initial_state())
        assert np.array_equal(res.final_state.m_n, state.m_n)
        assert res.records[0].gmres_iterations == record.gmres_iterations

    def test_unit_norm_after_every_step(self):
        cfg = SimulationConfig.from_dict(academic_config(
            T=0.05, field={"m0": {"kind": "spiral", "turns": 1.0}}))
        res = run_simulation(cfg, keep_states=True)
        for st in res.states:
            assert_unit_nodal(st.m_n, tol=1e-14)

    def test_unit_check_fails_on_nan(self):
        m = np.tile([1.0, 0.0, 0.0], (3, 1))
        assert assert_unit_nodal(m) == 0.0
        m[1] = np.nan
        with pytest.raises(ValueError, match="unit sphere"):
            assert_unit_nodal(m)

    def test_variational_consistency(self, cube2):
        # residual of the solved reduced system against all tangent basis vectors
        import tangent_plane_llg.fem as fem
        from tangent_plane_llg import build_frame, select_tn_adaptive, gmres_solve
        from tangent_plane_llg.gmres import ReducedOperator
        from tangent_plane_llg.scheme import lh_term as lh_fn

        ctx = StepContext(SimulationConfig.from_dict(academic_config(
            field={"m0": {"kind": "spiral", "turns": 1.0}})))
        st = ctx.initial_state()
        lh = lh_fn(ctx.coeffs, st.m_n, st.m_nm1, ctx.applied, 0.0, ctx.k,
                   ctx.pi_cfg, ctx.mesh)
        sys_ = fem.build_system(ctx.mesh, st.m_n, ctx.coeffs.alpha, ctx.beta_k,
                                np.ones(ctx.mesh.elem_count), lh,
                                ctx.coeffs.ell_ex2, mass=ctx.mass,
                                stiffness=ctx.stiffness)
        frame = build_frame(st.m_n, select_tn_adaptive(st.m_n).chosen_T)
        op = ReducedOperator(sys_, frame)
        rhs = op.reduced_rhs()
        x, stats = gmres_solve(op, None, rhs)
        assert stats.converged
        residual = np.abs(op.matvec(x) - rhs).max()
        assert residual <= 1e-9 * np.abs(rhs).max()

    def test_tps1_weighted_mass_is_plain_mass(self, monkeypatch):
        import tangent_plane_llg.fem as fem
        ctx = StepContext(SimulationConfig.from_dict(academic_config()))
        mk = fem.assemble_weighted_mass(ctx.mesh, np.ones(ctx.mesh.elem_count))
        assert (mk != ctx.mass).nnz == 0
        # without weights the system takes the static mass, and a tps1 step
        # assembles no weighted mass
        st = ctx.initial_state()
        sys_ = fem.build_system(ctx.mesh, st.m_n, ctx.coeffs.alpha, ctx.beta_k, None,
                                np.zeros((ctx.mesh.N, 3)), ctx.coeffs.ell_ex2,
                                mass=ctx.mass, stiffness=ctx.stiffness)
        assert np.array_equal(sys_.scalar, ctx.coeffs.alpha * ctx.mass.data
                              + ctx.beta_k * ctx.stiffness.data)

        def no_assembly(mesh, weights):
            raise AssertionError("tps1 step assembled a weighted mass")

        monkeypatch.setattr(fem, "assemble_weighted_mass", no_assembly)
        tps_step(ctx, st)

    def test_projection_free_norms_grow(self):
        cfg = SimulationConfig.from_dict(academic_config(
            projection=False, T=0.05,
            field={"m0": {"kind": "spiral", "turns": 1.0}}))
        res = run_simulation(cfg, keep_states=True)
        prev_min = 1.0
        for st in res.states[1:]:
            norms = np.linalg.norm(st.m_n, axis=1)
            assert (norms >= 1.0 - 1e-12).all()
            assert norms.min() >= prev_min - 1e-12
            prev_min = norms.min()

    def test_projection_free_requires_tps1(self):
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict(academic_config(scheme="tps2", projection=False))

    def test_tps2_runs_and_stays_on_sphere(self):
        cfg = SimulationConfig.from_dict(academic_config(
            scheme="tps2", T=0.03,
            field={"m0": {"kind": "spiral", "turns": 1.0}}))
        res = run_simulation(cfg, keep_states=True)
        for st in res.states:
            assert_unit_nodal(st.m_n, tol=1e-14)

    def test_exchange_energy_decay_zero_field(self):
        cfg = SimulationConfig.from_dict(academic_config(
            T=0.05, field={"applied": {"kind": "constant", "value": [0, 0, 0]},
                           "m0": {"kind": "spiral", "turns": 1.0}}))
        res = run_simulation(cfg)
        energies = [r.exchange_energy for r in res.records]
        final = exchange_energy(StepContext(cfg).stiffness, res.final_state.m_n,
                                cfg.ell_ex2)
        seq = energies + [final]
        assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))

    def test_theoretical_rebuild_cadence(self):
        cfg = SimulationConfig.from_dict(academic_config(
            T=0.05, precond={"kind": "theoretical", "rebuild_every": 2},
            field={"m0": {"kind": "spiral", "turns": 1.0}}))
        res = run_simulation(cfg)
        assert res.precond_builds == 3  # steps 0, 2, 4

    def test_determinism(self, tmp_path):
        cfg = dict(academic_config(T=0.03,
                                   field={"m0": {"kind": "spiral", "turns": 1.0}}))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        r1 = run_simulation(SimulationConfig.from_dict(
            {**cfg, "output": {"dir": str(out1)}}))
        r2 = run_simulation(SimulationConfig.from_dict(
            {**cfg, "output": {"dir": str(out2)}}))
        assert np.array_equal(r1.final_state.m_n, r2.final_state.m_n)
        assert (out1 / "steps.csv").read_bytes() == (out2 / "steps.csv").read_bytes()


class TestConfig:
    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            SimulationConfig.from_dict({"schem": "tps1"})

    def test_rejects_non_integer_step_count(self):
        with pytest.raises(ConfigError, match="integer step count"):
            SimulationConfig.from_dict(academic_config(T=0.0305))

    def test_rejects_bad_precond(self):
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict(academic_config(precond={"kind": "ilu"}))

    def test_rejects_bad_tn(self):
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict(academic_config(frame={"tn": "t4+"}))

    def test_gamma_and_d_adapt_reported(self):
        cfg = SimulationConfig.from_dict(academic_config(
            frame={"tn": "t1-"}, T=0.01))
        res = run_simulation(cfg)
        rec = res.records[0]
        # constant m0 = e1: fixed T1- achieves the adaptive optimum d = 2
        assert rec.gamma == pytest.approx(2.0, abs=1e-15)
        assert rec.d_adapt == pytest.approx(2.0, abs=1e-15)


def test_zhang_li_simulation_end_to_end():
    from tangent_plane_llg.physics import mumag5_spin_velocity
    u = mumag5_spin_velocity()
    cfg = SimulationConfig.from_dict(academic_config(
        T=0.02,
        field={"pi": {"kind": "zhang_li", "u": list(u), "beta_zl": 0.05},
               "applied": {"kind": "constant", "value": [0, 0, 0]},
               "m0": {"kind": "spiral", "turns": 0.5}},
        precond={"kind": "practical", "alpha_p": 1.0}))
    res = run_simulation(cfg, keep_states=True)
    assert all(s.last_stats.converged for s in res.states[1:])
    for st in res.states:
        assert_unit_nodal(st.m_n, tol=1e-14)
    # the spin torque actually moves the configuration
    assert np.abs(res.final_state.m_n - res.states[0].m_n).max() > 1e-8


def test_single_step_matches_dense_oracle_step():
    """Full step cross-check: solve the same step system densely, apply the
    same normalization, and compare the advanced field nodally."""
    import tangent_plane_llg.fem as fem
    from tangent_plane_llg import build_frame, select_tn_adaptive
    from tangent_plane_llg.diagnostics import dense_oracle_solve
    from tangent_plane_llg.scheme import lh_term as lh_fn

    base = academic_config(field={"m0": {"kind": "spiral", "turns": 1.0}},
                           precond={"kind": "theoretical", "alpha_p": 1.0})
    ctx = StepContext(SimulationConfig.from_dict(base))
    st0 = ctx.initial_state()
    stepped, _ = tps_step(ctx, st0)

    lh = lh_fn(ctx.coeffs, st0.m_n, st0.m_nm1, ctx.applied, 0.0, ctx.k,
               ctx.pi_cfg, ctx.mesh)
    sys_ = fem.build_system(ctx.mesh, st0.m_n, ctx.coeffs.alpha, ctx.beta_k,
                            np.ones(ctx.mesh.elem_count), lh,
                            ctx.coeffs.ell_ex2, mass=ctx.mass,
                            stiffness=ctx.stiffness)
    frame = build_frame(st0.m_n, select_tn_adaptive(st0.m_n).chosen_T)
    _, v_dense = dense_oracle_solve(sys_, frame)
    m_ref = normalize_update(st0.m_n, v_dense.reshape(ctx.mesh.N, 3), ctx.k)
    assert np.abs(stepped.m_n - m_ref).max() <= 1e-9


def test_mesh_from_file_config(tmp_path):
    from tangent_plane_llg import generate_structured_cube, save_mesh
    mesh = generate_structured_cube([[0, 1], [0, 1], [0, 1]], (2, 2, 2))
    path = tmp_path / "mesh.json"
    path.write_bytes(save_mesh(mesh))
    doc = academic_config(T=0.01)
    doc["mesh"] = {"kind": "file", "path": str(path)}  # cube keys would be unknown
    cfg = SimulationConfig.from_dict(doc)
    res = run_simulation(cfg)
    assert res.mesh.N == 27
    assert res.records[0].final_residual <= 1e-13


def test_static_preconditioners_built_once():
    from tangent_plane_llg import build_frame, select_tn_adaptive
    for kind in ("stationary", "jacobi", "none"):
        ctx = StepContext(SimulationConfig.from_dict(academic_config(
            T=0.03, precond={"kind": kind, "alpha_p": 1.0},
            field={"m0": {"kind": "spiral", "turns": 1.0}})))
        state = ctx.initial_state()
        seen = set()
        for _ in range(3):
            state, _ = tps_step(ctx, state)
            frame = build_frame(state.m_n, select_tn_adaptive(state.m_n).chosen_T)
            seen.add(id(ctx.preconditioners.for_step(frame, state.n)))
        assert len(seen) == 1


def test_solver_failure_carries_step_index():
    from tangent_plane_llg import SolverFailure
    cfg = SimulationConfig.from_dict(academic_config(
        T=0.02, precond={"kind": "none"},
        solver={"tol": 1e-14, "restart": 5, "maxit": 3}))
    with pytest.raises(SolverFailure) as exc:
        run_simulation(cfg)
    assert exc.value.step == 0


def test_constant_state_update_matches_macrospin_closed_form():
    """With constant m and constant f the discrete update is the exact
    single-spin relaxation-precession vector (alpha f_perp - m x f_perp) /
    (1 + alpha^2): gradients vanish, mass matrices factor out, and the
    tangent test space sees only the perpendicular part.  This pins the
    orientation of the cross-product term end to end."""
    alpha = 0.37
    f = np.array([0.0, 0.6, 0.8])
    m0 = np.array([1.0, 0.0, 0.0])
    cfg = SimulationConfig.from_dict(academic_config(
        alpha=alpha, T=0.01,
        field={"applied": {"kind": "constant", "value": list(f)},
               "m0": {"kind": "constant", "value": list(m0)}},
        precond={"kind": "theoretical", "alpha_p": 1.0}))
    res = run_simulation(cfg, keep_states=True)
    v = res.states[1].last_v
    f_perp = f - (f @ m0) * m0
    expected = (alpha * f_perp - np.cross(m0, f_perp)) / (1.0 + alpha**2)
    assert np.abs(v - expected).max() <= 1e-10


def test_constant_state_alignment_is_monotone():
    # relaxation toward the constant applied field, unit length preserved
    f = np.array([0.0, 0.0, 10.0])
    cfg = SimulationConfig.from_dict(academic_config(
        alpha=0.5, T=0.5, k=0.01,
        field={"applied": {"kind": "constant", "value": list(f)},
               "m0": {"kind": "constant", "value": [1.0, 0.0, 0.0]}},
        precond={"kind": "stationary", "alpha_p": 1.0},
        frame={"tn": "adaptive"}))
    res = run_simulation(cfg, keep_states=True)
    f_hat = f / np.linalg.norm(f)
    proj = [float((st.m_n @ f_hat).mean()) for st in res.states]
    assert all(b > a for a, b in zip(proj, proj[1:]))
    assert proj[-1] > 0.9
    for st in res.states:
        assert_unit_nodal(st.m_n, tol=1e-14)
