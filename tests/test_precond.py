import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from tangent_plane_llg import (FIXED_INVOLUTIONS, PreconditionerSource, build_frame,
                               build_jacobi, build_none, build_practical,
                               build_stationary_2d, build_theoretical, select_tn_adaptive)
import tangent_plane_llg.precond as precond_mod
from tangent_plane_llg.precond import (PRECONDITIONER_KINDS, PreconditionerError,
                                       ScalarFactorization)
from tangent_plane_llg.scheme import ConfigError, SimulationConfig

from conftest import k_slots, random_unit_field, spd

ALPHA_P, BETA_K = 1.0, 0.1
def theoretical(frame, mesh):
    """build_theoretical of ALPHA_P M + BETA_K L, formed by the test."""
    return build_theoretical(frame, mesh, k_slots(mesh, ALPHA_P, BETA_K))


def scalar_factorization(mesh, mass, stiffness, beta_k=BETA_K):
    return ScalarFactorization(spd(mass, stiffness, ALPHA_P, beta_k), mesh)


def kron3(scalar):
    return sp.kron(scalar, sp.identity(3, format="csr"), format="csr")


def kron2(scalar):
    return sp.kron(scalar, sp.identity(2, format="csr"), format="csr")


@pytest.fixture(scope="module")
def setup(cube2, cube2_matrices):
    mass, stiffness = cube2_matrices
    m = random_unit_field(cube2.N, seed=70)
    frame = build_frame(m, select_tn_adaptive(m)[0])
    return cube2, mass, stiffness, m, frame


@pytest.fixture(scope="module")
def factor(cube2, cube2_matrices):
    """The shared scalar factorization of ALPHA_P M + BETA_K L."""
    return scalar_factorization(cube2, *cube2_matrices)


class TestTheoretical:
    def test_inverse_consistency(self, setup, rng):
        mesh, mass, stiffness, m, frame = setup
        pc = theoretical(frame, mesh)
        q = frame.as_sparse()
        inner = (q.T @ kron3(ALPHA_P * mass + BETA_K * stiffness) @ q).tocsr()
        for _ in range(5):
            r = rng.standard_normal(2 * mesh.N)
            back = inner @ pc.apply(r)
            assert np.linalg.norm(back - r) <= 1e-12 * np.linalg.norm(r)

    def test_mass_only_inner_matrix_spd(self, setup):
        mesh, mass, stiffness, m, frame = setup
        q = frame.as_sparse()
        inner = (q.T @ kron3(mass) @ q).toarray()
        eig = np.linalg.eigvalsh(0.5 * (inner + inner.T))
        assert eig.min() > 0

    def test_constant_field_equals_stationary(self, setup, factor):
        mesh, mass, stiffness, _, _ = setup
        for key in ("t3-", "t1+", "t2-"):
            t = FIXED_INVOLUTIONS[key]
            mu = np.tile(t[:, 2], (mesh.N, 1))
            frame = build_frame(mu, key)
            theo = theoretical(frame, mesh)
            stat = build_stationary_2d(factor)
            worst = 0.0
            for i in range(2 * mesh.N):
                e = np.zeros(2 * mesh.N)
                e[i] = 1.0
                worst = max(worst, np.abs(theo.apply(e) - stat.apply(e)).max())
            assert worst <= 1e-13

    def test_rejects_nonpositive_alpha_p(self):
        # checked once, where a config is resolved, for every kind;
        # PreconditionerSource takes alpha_p unchecked
        for kind in PRECONDITIONER_KINDS:
            for alpha_p in (0.0, -1.0):
                with pytest.raises(ConfigError, match="precond.alpha_p must be positive"):
                    SimulationConfig.from_dict({"precond": {"kind": kind, "alpha_p": alpha_p}})


class TestStationary:
    def test_matches_dense_2d_inverse(self, setup, factor, rng):
        mesh, mass, stiffness, _, _ = setup
        pc = build_stationary_2d(factor)
        dense = np.linalg.inv(kron2(ALPHA_P * mass + BETA_K * stiffness).toarray())
        for _ in range(5):
            r = rng.standard_normal(2 * mesh.N)
            assert np.abs(pc.apply(r) - dense @ r).max() <= 1e-13 * np.abs(dense @ r).max()

    def test_mass_inverse_recovery(self, setup, rng):
        mesh, mass, stiffness, _, _ = setup
        pc = build_stationary_2d(scalar_factorization(mesh, mass, stiffness, 0.0))
        r = rng.standard_normal((mesh.N, 2))
        w = ALPHA_P * (mass @ r)
        assert np.abs(pc.apply(w.ravel()).reshape(mesh.N, 2) - r).max() <= 1e-12

    def test_stateless_reuse(self, setup, factor, rng):
        mesh, mass, stiffness, _, _ = setup
        pc = build_stationary_2d(factor)
        r = rng.standard_normal(2 * mesh.N)
        assert np.array_equal(pc.apply(r), pc.apply(r))


class TestPractical:
    def test_symmetry_and_positivity(self, setup, factor, rng):
        mesh, mass, stiffness, m, frame = setup
        pc = build_practical(frame, factor)
        for _ in range(100):
            r1 = rng.standard_normal(2 * mesh.N)
            r2 = rng.standard_normal(2 * mesh.N)
            s12 = r1 @ pc.apply(r2)
            s21 = r2 @ pc.apply(r1)
            assert abs(s12 - s21) <= 1e-12 * max(abs(s12), 1e-300)
            assert r1 @ pc.apply(r1) > 0

    def test_sandwich_bound_vs_theoretical(self, setup, rng):
        # the practical action never exceeds the theoretical one in energy
        mesh, mass, stiffness, m, frame = setup
        q = frame.as_sparse().toarray()
        scalar3 = kron3(ALPHA_P * mass + BETA_K * stiffness).toarray()
        theo_inv = q.T @ scalar3 @ q
        prac = q.T @ np.linalg.inv(scalar3) @ q
        prac_inv = np.linalg.inv(prac)
        for _ in range(50):
            x = rng.standard_normal(2 * mesh.N)
            assert x @ prac_inv @ x <= (x @ theo_inv @ x) * (1 + 1e-10)

    def test_shared_scalar_factorization(self, setup, monkeypatch, rng):
        # both kinds solve with the one factorization they are given, and
        # factor nothing of their own
        mesh, mass, stiffness, m, frame = setup
        factor = scalar_factorization(mesh, mass, stiffness)
        monkeypatch.setattr(precond_mod, "splu", None)
        solves = []
        solve = factor.solve
        monkeypatch.setattr(factor, "solve", lambda rhs: solves.append(rhs) or solve(rhs))
        for pc in (build_stationary_2d(factor), build_practical(frame, factor)):
            pc.apply(rng.standard_normal(2 * mesh.N))
        assert [rhs.shape for rhs in solves] == [(mesh.N, 2), (mesh.N, 3)]


class TestJacobi:
    def test_equals_diag_of_stationary_inner(self, setup):
        mesh, mass, stiffness, _, _ = setup
        pc = build_jacobi(ALPHA_P * mass + BETA_K * stiffness)
        inner2d = kron2(ALPHA_P * mass + BETA_K * stiffness)
        diag = inner2d.diagonal()
        for i in range(2 * mesh.N):
            e = np.zeros(2 * mesh.N)
            e[i] = 1.0
            out = pc.apply(e)
            assert out[i] == 1.0 / diag[i]
            out[i] = 0.0
            assert np.abs(out).max() == 0.0

    def test_proposition_triple_coincidence(self, setup):
        mesh, mass, stiffness, _, _ = setup
        scalar = ALPHA_P * mass + BETA_K * stiffness
        d = scalar.diagonal()
        p_plain = np.repeat(1.0 / d, 2)
        worst = 0.0
        for seed in range(5):
            m = random_unit_field(mesh.N, seed=80 + seed)
            for key in (select_tn_adaptive(m)[0], "t3-", "t2+"):
                frame = build_frame(m, key)
                q = frame.as_sparse()
                inner = (q.T @ kron3(scalar) @ q).tocsr()
                p_congruent = 1.0 / inner.diagonal()
                worst = max(worst, np.abs(p_plain - p_congruent).max())
                d3inv = sp.diags(np.repeat(1.0 / d, 3))
                full = (q.T @ d3inv @ q).toarray()
                worst = max(worst, np.abs(np.diag(p_plain) - full).max())
        assert worst <= 1e-13

    def test_rejects_bad_diagonal(self, setup):
        mesh, mass, stiffness, _, _ = setup
        with pytest.raises(PreconditionerError):
            build_jacobi(-1.0 * mass)

    def test_rejects_a_nan_diagonal(self, setup):
        mesh, mass, stiffness, _, _ = setup
        scalar = (ALPHA_P * mass + BETA_K * stiffness).tolil()
        scalar[4, 4] = np.nan
        with pytest.raises(PreconditionerError, match="diagonal nan at node 4"):
            build_jacobi(scalar.tocsr())


def test_scalar_operator_that_is_not_spd_is_rejected(cube2, cube2_matrices):
    with pytest.raises(PreconditionerError, match="SPD lost"):
        ScalarFactorization(spd(*cube2_matrices, -ALPHA_P, BETA_K), cube2)


def test_a_singular_matrix_fails_the_superlu_factor(cube2, monkeypatch):
    """With both caps at 0 every matrix goes to SuperLU; a zero diagonal
    entry, dropped as an explicit zero, leaves the matrix structurally
    singular, and SuperLU's error becomes a PreconditionerError."""
    monkeypatch.setattr(precond_mod, "DENSE_INVERSE_BYTES", 0)
    monkeypatch.setattr(precond_mod, "BAND_BYTES", 0)
    diag = np.ones(cube2.N)
    diag[5] = 0.0
    with pytest.raises(PreconditionerError, match="scalar operator factorization failed"):
        precond_mod._factor_spd(sp.diags_array(diag).tocsr(), cube2, "scalar operator")


class TestApplyDispatch:
    def test_none_is_identity(self, rng):
        pc = build_none(5)
        r = rng.standard_normal(10)
        out = pc.apply(r)
        assert np.array_equal(out, r)
        assert out is not r

    def test_linearity(self, setup, factor, rng):
        mesh, mass, stiffness, m, frame = setup
        for pc in (build_stationary_2d(factor), build_practical(frame, factor),
                   build_jacobi(ALPHA_P * mass + BETA_K * stiffness)):
            r1 = rng.standard_normal(2 * mesh.N)
            r2 = rng.standard_normal(2 * mesh.N)
            lhs = pc.apply(2.0 * r1 - 3.0 * r2)
            rhs = 2.0 * pc.apply(r1) - 3.0 * pc.apply(r2)
            assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    def test_theoretical_vs_dense_inverse_small_cube(self, cube1, rng):
        from tangent_plane_llg import assemble_mass, assemble_stiffness
        mass, stiffness = assemble_mass(cube1), assemble_stiffness(cube1)
        m = random_unit_field(cube1.N, seed=81)
        frame = build_frame(m, "t3-")
        pc = build_theoretical(frame, cube1, k_slots(cube1, ALPHA_P, BETA_K))
        q = frame.as_sparse().toarray()
        dense = np.linalg.inv(q.T @ kron3(ALPHA_P * mass + BETA_K * stiffness).toarray() @ q)
        r = rng.standard_normal(2 * cube1.N)
        assert np.abs(pc.apply(r) - dense @ r).max() <= 1e-12 * np.abs(dense @ r).max()

    def test_dimension_mismatch(self, setup):
        mesh, mass, stiffness, _, _ = setup
        pc = build_jacobi(ALPHA_P * mass + BETA_K * stiffness)
        with pytest.raises(PreconditionerError):
            pc.apply(np.zeros(3 * mesh.N))

    def test_make_preconditioner_dispatch(self, setup):
        # the source supplies each kind's factorization and frame
        # itself, so a kind is all a caller names
        mesh, mass, stiffness, m, frame = setup
        for kind in PRECONDITIONER_KINDS:
            source = PreconditionerSource(mesh, mass, stiffness, BETA_K, kind, ALPHA_P)
            pc = source.for_step(frame, 0)
            assert pc.kind == kind
            assert pc.apply(np.zeros(2 * mesh.N)).shape == (2 * mesh.N,)
        # an unknown kind is rejected where a config is resolved
        with pytest.raises(ConfigError, match="precond.kind: unknown value 'ilu'"):
            SimulationConfig.from_dict({"precond": {"kind": "ilu"}})


def test_theoretical_with_stale_frame_still_solves(setup, rng):
    # a preconditioner built from a different field changes iteration counts,
    # never the solution
    mesh, mass, stiffness, m, frame = setup
    from tangent_plane_llg import build_system, gmres_solve
    from tangent_plane_llg.gmres import ReducedOperator
    lh = rng.standard_normal((mesh.N, 3))
    sys_ = build_system(mesh, m, alpha=0.5, beta_k=BETA_K,
                        weights=np.ones(mesh.elem_count), lh=lh, ell_ex2=10.0,
                        mass=mass, stiffness=stiffness)
    op = ReducedOperator(sys_, frame)
    rhs = op.reduced_rhs()
    x_fresh, s_fresh = gmres_solve(op, theoretical(frame, mesh), rhs)
    stale_field = random_unit_field(mesh.N, seed=999)
    stale_frame = build_frame(stale_field, select_tn_adaptive(stale_field)[0])
    stale = theoretical(stale_frame, mesh)
    x_stale, s_stale = gmres_solve(op, stale, rhs)
    assert s_fresh.converged and s_stale.converged
    assert np.linalg.norm(x_stale - x_fresh) <= 1e-9 * np.linalg.norm(x_fresh)


def test_theoretical_step_operator_tends_to_a_shifted_skew_operator(setup):
    """As beta_k -> 0, P^{-1} R tends to (alpha/alpha_P) I + G^{-1} C / alpha_P
    for R = alpha G + beta_k Q^T (L (x) I_3) Q + C the tps1 step matrix, P
    the theoretical preconditioner of the run's source, G = Q^T (M (x) I_3) Q
    and C the skew cross part.  G^{-1} C is skew-adjoint in the G inner
    product, so the preconditioned spectrum tends to the line Re = alpha /
    alpha_P, with imaginary parts of order 1/alpha_P.  Checked densely on
    the 27-node cube: the distance to the limit falls linearly in beta_k."""
    from tangent_plane_llg import build_system
    from tangent_plane_llg.gmres import ReducedOperator
    mesh, mass, stiffness, m, frame = setup
    alpha = 0.5

    def step_matrix(beta_k):
        system = build_system(mesh, m, alpha, beta_k, None, np.zeros((mesh.N, 3)), 1.0,
                              mass, stiffness)
        return ReducedOperator(system, frame).matrix.toarray()

    q = frame.as_sparse()
    gram = (q.T @ kron3(mass) @ q).toarray()
    cross = step_matrix(0.0) - alpha * gram
    assert np.abs(cross + cross.T).max() <= 1e-14 * np.abs(cross).max()
    skew_part = np.linalg.solve(gram, cross)
    identity = np.eye(2 * mesh.N)
    spread = {}
    for alpha_p in (1.0, 4.0):
        limit = (alpha / alpha_p) * identity + skew_part / alpha_p
        distance = {}
        for beta_k in (1e-4, 1e-6):
            pc = PreconditionerSource(mesh, mass, stiffness, beta_k, "theoretical",
                                      alpha_p).for_step(frame, 0)
            operator = np.column_stack([pc.apply(col) for col in step_matrix(beta_k).T])
            distance[beta_k] = np.abs(operator - limit).max()
        assert 50.0 <= distance[1e-4] / distance[1e-6] <= 200.0
        assert distance[1e-6] <= 1e-3 * np.abs(limit).max()
        eigenvalues = np.linalg.eigvals(operator)
        assert np.abs(eigenvalues.real - alpha / alpha_p).max() <= 1e-3 * alpha / alpha_p
        spread[alpha_p] = np.abs(eigenvalues.imag).max()
    assert spread[1.0] > 0.1
    assert spread[4.0] == pytest.approx(spread[1.0] / 4.0, rel=1e-3)


def test_source_builds_every_kind_by_its_rule(setup, monkeypatch, rng):
    """One PreconditionerSource per kind over five steps, a new field each
    step: the static kinds hand out one object, practical a new one per
    step, and theoretical refactors at steps 0, r, 2r; every step's
    preconditioner applies exactly as its builder fed a K formed here.
    The factorizations are counted where the rule of _factor_spd picks
    dense inverse, band storage or SuperLU."""
    mesh, mass, stiffness, _, _ = setup
    rebuild_every, steps = 2, 5
    frames = []
    for step in range(steps):
        m = random_unit_field(mesh.N, seed=300 + step)
        frames.append(build_frame(m, select_tn_adaptive(m)[0]))
    factorizations = []
    factor_spd = precond_mod._factor_spd
    monkeypatch.setattr(precond_mod, "_factor_spd",
                        lambda a, *args: factorizations.append(a) or factor_spd(a, *args))

    scalar = (ALPHA_P * mass + BETA_K * stiffness).tocsr()
    factor = scalar_factorization(mesh, mass, stiffness)
    rebuilt = [0, 0, 2, 2, 4]  # the step whose frame each step's theoretical uses
    expected = {
        "none": lambda step: build_none(mesh.N),
        "jacobi": lambda step: build_jacobi(scalar),
        "stationary": lambda step: build_stationary_2d(factor),
        "practical": lambda step: build_practical(frames[step], factor),
        "theoretical": lambda step: build_theoretical(
            frames[rebuilt[step]], mesh, k_slots(mesh, ALPHA_P, BETA_K)),
    }
    counts = {"none": 0, "jacobi": 0, "stationary": 1, "practical": 1, "theoretical": 3}
    for kind in PRECONDITIONER_KINDS:
        before = len(factorizations)
        source = PreconditionerSource(mesh, mass, stiffness, BETA_K, kind, ALPHA_P,
                                      rebuild_every)
        pcs = [source.for_step(frames[step], step) for step in range(steps)]
        assert len(factorizations) - before == counts[kind]
        assert source.builds == (3 if kind == "theoretical" else 0)
        same = [pcs[step] is pcs[step - 1] for step in range(1, steps)]
        if kind == "practical":
            assert not any(same)
        elif kind == "theoretical":
            assert same == [True, False, True, False]
        else:
            assert all(same)
        for step, pc in enumerate(pcs):
            assert pc.kind == kind
            r = rng.standard_normal(2 * mesh.N)
            assert np.array_equal(pc.apply(r), expected[kind](step).apply(r))


@pytest.mark.parametrize("band", [True, False], ids=["band", "superlu"])
def test_theoretical_source_holds_one_factorization(setup, monkeypatch, rng, band):
    """Refactoring every step, the source lets go of the stale theoretical
    factor before it factors the next one, on either path of _factor_spd,
    so a caller that keeps none of the preconditioners holds at most one."""
    mesh, mass, stiffness, _, _ = setup
    if not band:
        monkeypatch.setattr(precond_mod, "BAND_BYTES", 0)
    solves, earlier_dead = [], []
    factor_spd = precond_mod._factor_spd

    def tracked(*args):
        earlier_dead.append(all(ref() is None for ref in solves))
        solve = factor_spd(*args)
        solves.append(weakref.ref(solve))
        return solve

    monkeypatch.setattr(precond_mod, "_factor_spd", tracked)
    source = PreconditionerSource(mesh, mass, stiffness, BETA_K, "theoretical", ALPHA_P, 1)
    for step in range(3):
        m = random_unit_field(mesh.N, seed=400 + step)
        frame = build_frame(m, select_tn_adaptive(m)[0])
        source.for_step(frame, step).apply(rng.standard_normal(2 * mesh.N))
    assert source.builds == 3
    assert earlier_dead == [True, True, True]
