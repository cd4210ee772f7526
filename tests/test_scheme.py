import math

import numpy as np
import pytest

import tangent_plane_llg.fem as fem_mod
import tangent_plane_llg.scheme as scheme_mod
from tangent_plane_llg import (SimulationConfig, generate_structured_cube, lambda_field,
                               lh_term, mesh_quality, normalize_update, run_simulation,
                               tps_step, wk)
from tangent_plane_llg.physics import applied_field, pi_apply
from tangent_plane_llg.scheme import (ConfigError, SolverFailure, StepContext,
                                      assert_unit_nodal, exchange_energy)

from conftest import UNIT_BOUNDS, random_unit_field, step_states


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


def beta_k(**over):
    return StepContext(SimulationConfig.from_dict(academic_config(**over))).beta_k


class TestCoefficients:
    def test_tps1_constants(self):
        # beta = ell_ex2 theta
        assert beta_k(theta=0.7) == 10.0 * 0.7 * 0.01

    def test_tps2_values(self):
        k = 0.01
        rho = abs(k * math.log(k))
        assert beta_k(scheme="tps2") == pytest.approx(5.0 * (1 + rho) * k, rel=1e-15)
        # both branches give alpha at s = 0
        assert wk(0.5, k, 0.0) == 0.5
        assert wk(0.5, k, -1e-300) == pytest.approx(0.5, rel=1e-12)
        # capped branches
        cap = 1.0 / rho
        expect_hi = 0.5 + 1.0 / (2.0 * abs(math.log(k)))
        assert wk(0.5, k, cap) == pytest.approx(expect_hi, rel=1e-14)
        assert wk(0.5, k, 10 * cap) == pytest.approx(expect_hi, rel=1e-14)
        expect_lo = 0.5 / (1.0 + 1.0 / (2 * 0.5 * abs(math.log(k))))
        assert wk(0.5, k, -1e12) == pytest.approx(expect_lo, rel=1e-14)

    def test_tps2_weight_lower_bound_on_grid(self):
        # alpha = 0.5, k = 0.01 satisfies the uniform lower bound alpha/2
        grid = np.linspace(-1e6, 1e6, 20001)
        w = wk(0.5, 0.01, grid)
        assert (w >= 0.25).all()
        assert (w > 0).all()

    # wk and StepContext take their values unchecked: a config is checked
    # where it is resolved, by SimulationConfig.from_dict
    def test_tps2_rejects_large_k(self):
        SimulationConfig.from_dict(academic_config(scheme="tps2", k=0.5, T=0.5))
        with pytest.raises(ConfigError, match=r"second-order variant needs k in \(0, 1\)"):
            SimulationConfig.from_dict(academic_config(scheme="tps2", k=1.0, T=1.0))

    def test_validation(self):
        with pytest.raises(ConfigError, match="scheme: unknown value 'tps3'"):
            SimulationConfig.from_dict(academic_config(scheme="tps3"))
        for key, value, message in [
                ("alpha", 0.0, r"alpha must be in \(0, 1\], got 0.0"),
                ("alpha", 1.5, r"alpha must be in \(0, 1\], got 1.5"),
                ("theta", 1.5, r"theta must be in \(0, 1\], got 1.5"),
                ("theta", 0.0, r"theta must be in \(0, 1\], got 0.0"),
                ("ell_ex2", -1.0, "ell_ex2 must be nonnegative, got -1.0"),
                ("k", 0.0, "time step must be positive, got 0.0"),
                ("k", -0.01, "time step must be positive, got -0.01")]:
            with pytest.raises(ConfigError, match=message):
                SimulationConfig.from_dict(academic_config(**{key: value}))


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


class TestLhTerm:
    def test_constant_field_both_variants(self, cube2):
        m = random_unit_field(cube2.N, seed=40)
        f = applied_field(dict(kind="constant", value=(1.0, 2.0, 3.0)), cube2)
        pi = dict(kind="zero")
        for scheme in ("tps1", "tps2"):
            pi_n = pi_apply(pi, cube2, m)
            lh = lh_term(scheme, pi_n, pi_n, f)
            assert np.abs(lh - np.array([1.0, 2.0, 3.0])).max() <= 1e-15

    def test_tps2_equal_steps_collapse(self, cube2):
        m = random_unit_field(cube2.N, seed=41)
        pi = dict(kind="uniaxial", axis=(0, 0, 1), strength=2.0)
        f = applied_field(dict(kind="academic"), cube2)
        pi_n = pi_apply(pi, cube2, m)
        lh = lh_term("tps2", pi_n, pi_n, f)
        expected = pi_n + f
        assert np.abs(lh - expected).max() <= 1e-14

    def test_tps2_extrapolates_pi(self, cube2):
        pi = dict(kind="uniaxial", axis=(0, 0, 1), strength=2.0)
        pi_n, pi_nm1 = (pi_apply(pi, cube2, random_unit_field(cube2.N, seed=seed))
                        for seed in (43, 44))
        f = applied_field(dict(kind="academic"), cube2)
        lh = lh_term("tps2", pi_n, pi_nm1, f)
        expected = 1.5 * pi_n - 0.5 * pi_nm1 + f
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

    def test_rejects_a_nan_update(self):
        m = random_unit_field(5, seed=45)
        v = np.zeros((5, 3))
        v[3, 1] = np.nan
        with pytest.raises(ValueError, match="not tangent"):
            normalize_update(m, v, 0.1)


class TestStep:
    def test_equilibrium_constant_field(self, cube2):
        cfg = SimulationConfig.from_dict(academic_config(
            field={"applied": {"kind": "constant", "value": [0, 0, 0]}},
            T=0.02))
        states = step_states(cfg)
        m0 = states[0].m_n
        for st in states[1:]:
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
        for st in step_states(cfg):
            assert_unit_nodal(st.m_n, tol=1e-14)

    def test_a_nan_update_fails_the_step(self, monkeypatch):
        """A solved update with NaN entries fails the tangency check of the
        step itself, also without the projection that checks it again."""
        ctx = StepContext(SimulationConfig.from_dict(academic_config(T=0.01, projection=False)))
        monkeypatch.setattr(scheme_mod, "apply_q",
                            lambda frame, x: np.full(3 * frame.n_nodes, np.nan))
        with pytest.raises(SolverFailure, match="step 0: solved update lost tangency: nan"):
            tps_step(ctx, ctx.initial_state())

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
        pi_0 = pi_apply(ctx.config.field["pi"], ctx.mesh, st.m_n)
        lh = lh_fn(ctx.config.scheme, pi_0, pi_0, ctx.applied)
        sys_ = fem.build_system(ctx.mesh, st.m_n, ctx.config.alpha, ctx.beta_k,
                                np.ones(ctx.mesh.elem_count), lh,
                                ctx.config.ell_ex2, mass=ctx.mass,
                                stiffness=ctx.stiffness)
        frame = build_frame(st.m_n, select_tn_adaptive(st.m_n)[0])
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
        sys_ = fem.build_system(ctx.mesh, st.m_n, ctx.config.alpha, ctx.beta_k, None,
                                np.zeros((ctx.mesh.N, 3)), ctx.config.ell_ex2,
                                mass=ctx.mass, stiffness=ctx.stiffness)
        assert np.array_equal(sys_.scalar, ctx.config.alpha * ctx.mass.data
                              + ctx.beta_k * ctx.stiffness.data)

        def no_assembly(mesh, weights):
            raise AssertionError("tps1 step assembled a weighted mass")

        monkeypatch.setattr(fem, "assemble_weighted_mass", no_assembly)
        tps_step(ctx, st)

    def test_projection_free_norms_grow(self):
        cfg = SimulationConfig.from_dict(academic_config(
            projection=False, T=0.05,
            field={"m0": {"kind": "spiral", "turns": 1.0}}))
        prev_min = 1.0
        for st in step_states(cfg)[1:]:
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
        for st in step_states(cfg):
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

    def test_step_csv_columns_are_the_record_fields(self, tmp_path):
        """The step CSV, pinned byte for byte: the header names StepRecord's
        fields in order, and a row writes an int by str, a float by repr(float)."""
        cfg = SimulationConfig.from_dict({**academic_config(T=0.02),
                                          "output": {"dir": str(tmp_path)}})
        records = run_simulation(cfg).records
        lines = (tmp_path / "steps.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == ("step,t,gmres_iterations,restarts,final_residual,"
                            "gamma,d_adapt,exchange_energy")
        rows = [",".join([str(r.step), repr(float(r.t)), str(r.gmres_iterations),
                          str(r.restarts), repr(float(r.final_residual)), repr(float(r.gamma)),
                          repr(float(r.d_adapt)), repr(float(r.exchange_energy))])
                for r in records]
        assert lines[1:] == rows


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

    def test_a_resolved_config_is_checked_once(self, monkeypatch):
        """from_dict checks a config; a run takes it as resolved and calls
        validate no more."""
        calls = []
        validate = SimulationConfig.validate

        def counting_validate(config):
            calls.append(1)
            return validate(config)

        monkeypatch.setattr(SimulationConfig, "validate", counting_validate)
        cfg = SimulationConfig.from_dict(academic_config(
            T=0.01, field={"pi": {"kind": "uniaxial", "axis": [0, 0, 1], "strength": 0.5}}))
        assert len(calls) == 1
        run_simulation(cfg)
        assert len(calls) == 1

    def test_a_key_added_to_the_table_needs_no_other_edit(self, monkeypatch):
        """CONFIG_TABLE alone states a config's shape: a new top-level key
        and a new key of a field.pi kind resolve onto the config, and a run
        takes the config with them."""
        import tangent_plane_llg.scheme as scheme_mod
        monkeypatch.setitem(scheme_mod.CONFIG_TABLE, "added", 3)
        uniaxial = scheme_mod.CONFIG_TABLE["field"]["pi"].variants["uniaxial"]
        monkeypatch.setitem(uniaxial, "added", 0.25)
        cfg = SimulationConfig.from_dict(academic_config(
            T=0.01, added=7,
            field={"pi": {"kind": "uniaxial", "axis": [0, 0, 1], "strength": 0.5}}))
        assert cfg.added == 7
        assert cfg.field["pi"]["added"] == 0.25
        assert len(run_simulation(cfg).records) == 1

    def test_gamma_and_d_adapt_reported(self):
        cfg = SimulationConfig.from_dict(academic_config(
            frame={"tn": "t1-"}, T=0.01))
        res = run_simulation(cfg)
        rec = res.records[0]
        # constant m0 = e1: fixed T1- achieves the adaptive optimum d = 2
        assert rec.gamma == pytest.approx(2.0, abs=1e-15)
        assert rec.d_adapt == pytest.approx(2.0, abs=1e-15)


def test_zhang_li_simulation_end_to_end():
    from oracles import GAMMA0_U, mumag5_spin_velocity
    u = mumag5_spin_velocity(GAMMA0_U)
    cfg = SimulationConfig.from_dict(academic_config(
        T=0.02,
        field={"pi": {"kind": "zhang_li", "u": list(u), "beta_zl": 0.05},
               "applied": {"kind": "constant", "value": [0, 0, 0]},
               "m0": {"kind": "spiral", "turns": 0.5}},
        precond={"kind": "practical", "alpha_p": 1.0}))
    states = step_states(cfg)
    assert all(s.last_stats.converged for s in states[1:])
    for st in states:
        assert_unit_nodal(st.m_n, tol=1e-14)
    # the spin torque actually moves the configuration
    assert np.abs(states[-1].m_n - states[0].m_n).max() > 1e-8


def test_tps2_evaluates_pi_once_per_step(monkeypatch):
    """A tps2 step evaluates pi at m^n only: pi(m^{n-1}) is the last step's
    pi(m^n), carried bit for bit (at step 0, pi(m^0) serves for both)."""
    import tangent_plane_llg.scheme as scheme_mod
    calls = []

    def counting(config, mesh, m):
        calls.append(1)
        return pi_apply(config, mesh, m)

    monkeypatch.setattr(scheme_mod, "pi_apply", counting)
    cfg = SimulationConfig.from_dict(academic_config(
        scheme="tps2", T=0.03,
        field={"pi": {"kind": "zhang_li", "u": [0.4, 0.1, 0.0]},
               "m0": {"kind": "spiral", "turns": 0.5}}))
    states = step_states(cfg)
    assert len(calls) == 3
    assert states[0].pi_nm1 is None
    mesh = cfg.build_mesh()
    for prev, cur in zip(states, states[1:]):
        fresh = pi_apply(cfg.field["pi"], mesh, prev.m_n)
        assert cur.pi_nm1.dtype == fresh.dtype and cur.pi_nm1.tobytes() == fresh.tobytes()


def test_single_step_matches_dense_oracle_step():
    """Full step cross-check: solve the same step system densely, apply the
    same normalization, and compare the advanced field nodally."""
    import tangent_plane_llg.fem as fem
    from tangent_plane_llg import build_frame, select_tn_adaptive
    from oracles import dense_oracle_solve
    from tangent_plane_llg.scheme import lh_term as lh_fn

    base = academic_config(field={"m0": {"kind": "spiral", "turns": 1.0}},
                           precond={"kind": "theoretical", "alpha_p": 1.0})
    ctx = StepContext(SimulationConfig.from_dict(base))
    st0 = ctx.initial_state()
    stepped, _ = tps_step(ctx, st0)

    pi_0 = pi_apply(ctx.config.field["pi"], ctx.mesh, st0.m_n)
    lh = lh_fn(ctx.config.scheme, pi_0, pi_0, ctx.applied)
    sys_ = fem.build_system(ctx.mesh, st0.m_n, ctx.config.alpha, ctx.beta_k,
                            np.ones(ctx.mesh.elem_count), lh,
                            ctx.config.ell_ex2, mass=ctx.mass,
                            stiffness=ctx.stiffness)
    frame = build_frame(st0.m_n, select_tn_adaptive(st0.m_n)[0])
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
            frame = build_frame(state.m_n, select_tn_adaptive(state.m_n)[0])
            seen.add(id(ctx.preconditioners.for_step(frame, state.n)))
        assert len(seen) == 1


def test_mesh_only_set_up_runs_once_per_mesh(monkeypatch):
    """Two StepContexts on one mesh share its mass and stiffness, assembled
    once and read-only, and mesh_quality is computed once per mesh (a
    second computation would return an equal report, not the same one)."""
    assembled = []
    scatter = fem_mod._scatter_scalar
    monkeypatch.setattr(fem_mod, "_scatter_scalar",
                        lambda mesh, local: assembled.append(mesh) or scatter(mesh, local))
    # a new mesh: the cube memo of build_mesh may hold one from another test
    mesh = generate_structured_cube(UNIT_BOUNDS, (2, 2, 2))
    cfg = SimulationConfig.from_dict(academic_config())
    first, second = StepContext(cfg, mesh=mesh), StepContext(cfg, mesh=mesh)
    assert assembled == [mesh, mesh]  # M and L
    assert first.mass is second.mass and first.stiffness is second.stiffness
    assert not first.mass.data.flags.writeable and not first.stiffness.data.flags.writeable
    assert mesh_quality(mesh) is mesh_quality(mesh)


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
    v = step_states(cfg)[1].last_v
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
    states = step_states(cfg)
    f_hat = f / np.linalg.norm(f)
    proj = [float((st.m_n @ f_hat).mean()) for st in states]
    assert all(b > a for a, b in zip(proj, proj[1:]))
    assert proj[-1] > 0.9
    for st in states:
        assert_unit_nodal(st.m_n, tol=1e-14)
