import json

import numpy as np
import pytest
import scipy.sparse as sp

from tangent_plane_llg import (PreconditionerSource, ScalarFactorization, assemble_mass,
                               assemble_stiffness, build_frame, build_system,
                               build_stationary_2d, gmres_solve, select_tn_adaptive)
from tangent_plane_llg.diagnostics import (OracleError, check_bounded_ratio,
                                           check_inverse_bounds,
                                           check_mapping_identities,
                                           dense_oracle_solve,
                                           dense_reduced_system, energy_norm,
                                           theory_factors)
from tangent_plane_llg.gmres import ReducedOperator
from tangent_plane_llg.mesh import mesh_quality

from conftest import random_unit_field, spd_in_order


def make_system(mesh, m, lh=None, alpha=0.5, beta_k=0.1, ell_ex2=10.0, seed=0):
    if lh is None:
        lh = np.random.default_rng(seed).standard_normal((mesh.N, 3))
    return build_system(mesh, m, alpha=alpha, beta_k=beta_k,
                        weights=np.ones(mesh.elem_count), lh=lh, ell_ex2=ell_ex2,
                        mass=assemble_mass(mesh), stiffness=assemble_stiffness(mesh))


class TestDenseOracle:
    def test_zero_rhs_gives_zero(self, cube2):
        m = random_unit_field(cube2.N, seed=90)
        sys_ = make_system(cube2, m, lh=np.zeros((cube2.N, 3)), ell_ex2=0.0)
        frame = build_frame(m, select_tn_adaptive(m).chosen_T)
        x, v = dense_oracle_solve(sys_, frame)
        assert np.abs(x).max() <= 1e-14
        assert np.abs(v).max() <= 1e-14

    def test_lifted_solution_tangent(self, cube2):
        m = random_unit_field(cube2.N, seed=91)
        sys_ = make_system(cube2, m, seed=91)
        frame = build_frame(m, select_tn_adaptive(m).chosen_T)
        x, v = dense_oracle_solve(sys_, frame)
        dots = np.abs(np.einsum("nc,nc->n", v.reshape(cube2.N, 3), m))
        assert dots.max() <= 1e-12 * (1 + np.abs(v).max())

    def test_matches_gmres(self, cube2, cube2_matrices):
        m = random_unit_field(cube2.N, seed=92)
        sys_ = make_system(cube2, m, seed=92)
        frame = build_frame(m, select_tn_adaptive(m).chosen_T)
        xd, _ = dense_oracle_solve(sys_, frame)
        op = ReducedOperator(sys_, frame)
        order = cube2.dissection_order()
        pc = build_stationary_2d(ScalarFactorization(
            spd_in_order(*cube2_matrices, 1.0, 0.1, order), order))
        xg, stats = gmres_solve(op, pc, op.reduced_rhs())
        assert stats.converged
        assert np.linalg.norm(xg - xd) <= 1e-9 * np.linalg.norm(xd)

    def test_reduced_matrix_consistency(self, cube2, rng):
        m = random_unit_field(cube2.N, seed=93)
        sys_ = make_system(cube2, m, seed=93)
        frame = build_frame(m, select_tn_adaptive(m).chosen_T)
        reduced, rhs, _, _ = dense_reduced_system(sys_, frame)
        op = ReducedOperator(sys_, frame)
        x = rng.standard_normal(2 * cube2.N)
        assert np.abs(reduced @ x - op.matvec(x)).max() <= 1e-13 * np.abs(reduced @ x).max()

    def test_size_guard(self):
        from tangent_plane_llg import generate_structured_cube
        mesh = generate_structured_cube([[0, 1], [0, 1], [0, 1]], (6, 6, 6))
        m = random_unit_field(mesh.N, seed=94)
        sys_ = make_system(mesh, m, seed=94)
        frame = build_frame(m, np.eye(3))
        with pytest.raises(OracleError):
            dense_oracle_solve(sys_, frame)


class TestMappingIdentities:
    def test_random_frames_pass(self, cube2):
        for seed in range(3):
            m = random_unit_field(cube2.N, seed=95 + seed)
            frame = build_frame(m, select_tn_adaptive(m).chosen_T)
            report = check_mapping_identities(frame, m)
            assert report.passed, report
            assert report.max_error <= 1e-13

    def test_report_serializes(self, cube2):
        m = random_unit_field(cube2.N, seed=98)
        frame = build_frame(m, np.eye(3))
        report = check_mapping_identities(frame, m)
        doc = json.loads(json.dumps(report.to_dict()))
        assert set(doc) == {"check", "max_error", "threshold", "pass"}


class TestEnergyNorm:
    def test_zero_vector(self, cube2, cube2_matrices):
        mass, stiffness = cube2_matrices
        m = random_unit_field(cube2.N, seed=99)
        frame = build_frame(m, np.eye(3))
        a, b = energy_norm(mass, stiffness, frame, 1.0, 0.1,
                           np.zeros(2 * cube2.N), mesh=cube2)
        assert a == 0.0 and b == 0.0

    def test_dual_route_agreement(self, cube2, cube2_matrices, rng):
        mass, stiffness = cube2_matrices
        m = random_unit_field(cube2.N, seed=100)
        frame = build_frame(m, select_tn_adaptive(m).chosen_T)
        for _ in range(10):
            x = rng.standard_normal(2 * cube2.N)
            a, b = energy_norm(mass, stiffness, frame, 1.0, 0.1, x, mesh=cube2)
            assert abs(a - b) <= 1e-12 * a

    def test_mass_only_is_l2_norm(self, cube2, cube2_matrices, rng):
        mass, stiffness = cube2_matrices
        m = random_unit_field(cube2.N, seed=101)
        frame = build_frame(m, np.eye(3))
        x = rng.standard_normal(2 * cube2.N)
        a, b = energy_norm(mass, stiffness, frame, 1.0, 0.0, x, mesh=cube2)
        from tangent_plane_llg import apply_q
        v = apply_q(frame, x).reshape(cube2.N, 3)
        l2 = np.sqrt(np.einsum("nc,nc->", v, mass @ v))
        assert abs(a - l2) <= 1e-12 * l2

    def test_polarized_energy_product_matches_fem(self, cube2, cube2_matrices, rng):
        # x . (Q^T (aP M + bk L) Q) y equals the FEM form of the two lifted fields
        mass, stiffness = cube2_matrices
        m = random_unit_field(cube2.N, seed=102)
        frame = build_frame(m, select_tn_adaptive(m).chosen_T)
        q = frame.as_sparse()
        scalar3 = sp.kron(1.0 * mass + 0.1 * stiffness,
                          sp.identity(3, format="csr"), format="csr")
        inner = (q.T @ scalar3 @ q).tocsr()
        from tangent_plane_llg import apply_q
        vol, grad = cube2.element_geometry()
        local_mass = (np.ones((4, 4)) + np.eye(4)) / 20.0
        for _ in range(5):
            x = rng.standard_normal(2 * cube2.N)
            y = rng.standard_normal(2 * cube2.N)
            matrix_val = x @ (inner @ y)
            vx = apply_q(frame, x).reshape(cube2.N, 3)[cube2.tets]
            vy = apply_q(frame, y).reshape(cube2.N, 3)[cube2.tets]
            pair = np.einsum("eac,ebc->eab", vx, vy)
            l2 = np.einsum("e,eab,ab->", vol, pair, local_mass)
            gx = np.einsum("ead,eac->edc", grad, vx)
            gy = np.einsum("ead,eac->edc", grad, vy)
            h1 = np.einsum("e,edc,edc->", vol, gx, gy)
            fem_val = 1.0 * l2 + 0.1 * h1
            assert abs(matrix_val - fem_val) <= 1e-12 * max(abs(matrix_val), 1.0)


class TestTheoryFactors:
    def test_identical_fields_give_unit_factor(self, cube2):
        m = random_unit_field(cube2.N, seed=103)
        t = select_tn_adaptive(m).chosen_T
        h = mesh_quality(cube2).h
        out = theory_factors(cube2, m, m, t, 1.0, 0.1, h)
        assert out.F_theoretical == pytest.approx(1.0, abs=1e-12)
        assert out.kappa_tilde == pytest.approx(1.0, abs=1e-12)

    def test_zero_beta_makes_all_factors_one(self, cube2):
        m = random_unit_field(cube2.N, seed=104)
        mu = random_unit_field(cube2.N, seed=105)
        t = np.eye(3)
        h = mesh_quality(cube2).h
        out = theory_factors(cube2, m, mu, t, 1.0, 0.0, h)
        assert out.F_practical == 1.0
        if out.gamma_valid:
            assert out.F_practical_gamma == 1.0
            # only the beta-free gamma term survives in the theoretical factor
            d = np.linalg.norm(m - mu, axis=1).max()
            assert out.F_theoretical_gamma == pytest.approx(
                1.0 + d**2 / out.gamma**2, rel=1e-12)

    def test_constant_frame_field_reduction(self, cube2):
        m = random_unit_field(cube2.N, seed=106)
        sel = select_tn_adaptive(m)
        t = sel.chosen_T
        mu = np.tile(t[:, 2], (cube2.N, 1))
        h = mesh_quality(cube2).h
        out = theory_factors(cube2, m, mu, t, 1.0, 0.1, h)
        assert out.gamma_valid
        # hand evaluation with grad(mu) = 0
        d = np.linalg.norm(m - mu, axis=1).max()
        vol, grad = cube2.element_geometry()
        gm = np.einsum("ead,eac->edc", grad, m[cube2.tets])
        g = np.sqrt(np.einsum("edc,edc->e", gm, gm).max())
        gamma = out.gamma
        expected = 1 + d**2 / gamma**2 + 0.1 * g**2 / gamma**2 \
            + 0.1 * g**2 * d**2 / gamma**6
        assert out.F_theoretical_gamma == pytest.approx(expected, rel=1e-12)

    def test_factors_at_least_one(self, cube2):
        h = mesh_quality(cube2).h
        for seed in range(5):
            m = random_unit_field(cube2.N, seed=110 + seed)
            mu = random_unit_field(cube2.N, seed=120 + seed)
            out = theory_factors(cube2, m, mu, np.eye(3), 1.0, 0.3, h)
            assert out.F_theoretical >= 1.0
            assert out.F_practical >= 1.0
            assert out.kappa_tilde >= 1.0
            if out.gamma_valid:
                assert out.F_theoretical_gamma >= 1.0
                assert out.F_practical_gamma >= 1.0
                assert out.kappa >= 1.0

    def test_gamma_invalid_reported_not_thrown(self, cube2):
        m = random_unit_field(cube2.N, seed=130)
        m[0] = [0.0, 0.0, -1.0]  # forces gamma = 0 for T = identity
        out = theory_factors(cube2, m, m, np.eye(3), 1.0, 0.1, mesh_quality(cube2).h)
        assert not out.gamma_valid
        assert out.F_theoretical_gamma is None
        assert out.F_theoretical >= 1.0


class TestBoundedRatio:
    def test_aligned_field_zero_ratio(self, cube2):
        m = np.tile([0.0, 0.0, 1.0], (cube2.N, 1))
        report = check_bounded_ratio(cube2, m)
        assert report.passed
        assert report.max_error == 0.0

    def test_near_south_pole(self, cube2):
        mu3 = -(1.0 - 1e-3)
        r = np.sqrt(1.0 - mu3**2)
        m = np.tile([r, 0.0, mu3], (cube2.N, 1))
        report = check_bounded_ratio(cube2, m)
        assert report.passed

    def test_random_fields(self, cube2):
        for seed in range(20):
            m = random_unit_field(cube2.N, seed=140 + seed)
            if (1.0 + m[:, 2] <= 0).any():
                continue
            assert check_bounded_ratio(cube2, m).passed

    def test_rejects_pole_nodes(self, cube2):
        m = np.tile([0.0, 0.0, -1.0], (cube2.N, 1))
        with pytest.raises(OracleError):
            check_bounded_ratio(cube2, m)


class TestInverseBounds:
    def test_identity_case(self, rng):
        g = rng.standard_normal((8, 8))
        b0 = g @ g.T + 8 * np.eye(8)
        report = check_inverse_bounds(b0, b0)
        assert report.passed
        assert report.c1 == pytest.approx(1.0, rel=1e-10)
        assert report.c2 == pytest.approx(1.0, rel=1e-10)

    def test_scaling_case(self, rng):
        g = rng.standard_normal((8, 8))
        b0 = g @ g.T + 8 * np.eye(8)
        report = check_inverse_bounds(2.0 * b0, b0)
        assert report.passed
        assert report.c1 == pytest.approx(2.0, rel=1e-10)
        assert report.c2 == pytest.approx(2.0, rel=1e-10)

    def test_real_assembly_pair(self, cube1):
        m = random_unit_field(cube1.N, seed=150)
        sys_ = make_system(cube1, m, seed=150)
        frame = build_frame(m, select_tn_adaptive(m).chosen_T)
        reduced, _, _, q = dense_reduced_system(sys_, frame)
        inner = q.T @ sp.kron(1.0 * assemble_mass(cube1) + 0.1 * assemble_stiffness(cube1),
                              sp.identity(3, format="csr"),
                              format="csr").toarray() @ q
        report = check_inverse_bounds(reduced, inner)
        assert report.passed

    def test_dim_guard(self):
        with pytest.raises(OracleError):
            check_inverse_bounds(np.eye(41), np.eye(41))


def test_early_contraction_fit_predicts_uniform_rate(cube2, cube2_matrices):
    """Qualitative linear-convergence check on the residual histories.

    The whole history admits a uniform geometric bound r_l <= r0 * rho^l
    with rho well below 1, and the contraction fitted from the first two
    residuals predicts that uniform rate to within 50% in at least 90% of
    runs.  (The raw early fit does not literally upper-bound the tail: the
    opening GMRES steps contract faster than the asymptotic rate.)
    """
    mass, stiffness = cube2_matrices
    sources = [PreconditionerSource(cube2, mass, stiffness, 0.1, kind, 1.0)
               for kind in ("theoretical", "stationary", "practical")]
    total, held = 0, 0
    for seed in range(5):
        m = random_unit_field(cube2.N, seed=160 + seed)
        sys_ = make_system(cube2, m, seed=160 + seed)
        frame = build_frame(m, select_tn_adaptive(m).chosen_T)
        op = ReducedOperator(sys_, frame)
        for source in sources:
            pc = source.for_step(frame, 0)
            _, stats = gmres_solve(op, pc, op.reduced_rhs())
            hist = np.array(stats.residual_history)
            assert stats.converged and len(hist) >= 3
            levels = np.arange(1, len(hist))
            rho_uniform = ((hist[1:] / hist[0]) ** (1.0 / levels)).max()
            assert rho_uniform < 0.9  # genuine linear convergence
            rho_fit = hist[1] / hist[0]
            total += 1
            if rho_uniform <= 1.5 * rho_fit:
                held += 1
    assert held >= 0.9 * total
