import numpy as np
import pytest
import scipy.sparse as sp

from tangent_plane_llg import (FIXED_INVOLUTIONS, PreconditionerSource, build_frame,
                               build_jacobi, build_none, build_practical,
                               build_stationary_2d, build_theoretical,
                               generate_structured_cube, select_tn_adaptive)
import tangent_plane_llg.precond as precond_mod
from tangent_plane_llg.precond import (PRECONDITIONER_KINDS, PreconditionerError,
                                       ScalarFactorization)

from conftest import UNIT_BOUNDS, random_unit_field, spd_in_order

ALPHA_P, BETA_K = 1.0, 0.1
# the nested-dissection order of the 27-node cube of the setup fixture
ORDER = generate_structured_cube(UNIT_BOUNDS, (2, 2, 2)).dissection_order()


def ordered_k(mass, stiffness, beta_k=BETA_K):
    """ALPHA_P M + beta_k L in ORDER, formed by the test."""
    return spd_in_order(mass, stiffness, ALPHA_P, beta_k, ORDER)


def kron3(scalar):
    return sp.kron(scalar, sp.identity(3, format="csr"), format="csr")


def kron2(scalar):
    return sp.kron(scalar, sp.identity(2, format="csr"), format="csr")


@pytest.fixture(scope="module")
def setup(cube2, cube2_matrices):
    mass, stiffness = cube2_matrices
    m = random_unit_field(cube2.N, seed=70)
    frame = build_frame(m, select_tn_adaptive(m).chosen_T)
    return cube2, mass, stiffness, m, frame


@pytest.fixture(scope="module")
def factor(cube2_matrices):
    """The shared scalar factorization of ALPHA_P M + BETA_K L."""
    return ScalarFactorization(ordered_k(*cube2_matrices), ORDER)


class TestTheoretical:
    def test_inverse_consistency(self, setup, rng):
        mesh, mass, stiffness, m, frame = setup
        pc = build_theoretical(frame, ordered_k(mass, stiffness), ORDER)
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
            frame = build_frame(mu, t)
            theo = build_theoretical(frame, ordered_k(mass, stiffness), ORDER)
            stat = build_stationary_2d(factor)
            worst = 0.0
            for i in range(2 * mesh.N):
                e = np.zeros(2 * mesh.N)
                e[i] = 1.0
                worst = max(worst, np.abs(theo.apply(e) - stat.apply(e)).max())
            assert worst <= 1e-13

    def test_rejects_nonpositive_alpha_p(self, setup):
        # checked once, where K is formed, for every kind
        mesh, mass, stiffness, m, frame = setup
        for kind in PRECONDITIONER_KINDS:
            with pytest.raises(PreconditionerError, match="alpha_P must be positive"):
                PreconditionerSource(mesh, mass, stiffness, BETA_K, kind, 0.0)


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
        pc = build_stationary_2d(ScalarFactorization(ordered_k(mass, stiffness, 0.0), ORDER))
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
        factor = ScalarFactorization(ordered_k(mass, stiffness), ORDER)
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
            for t in (select_tn_adaptive(m).chosen_T, np.eye(3),
                      FIXED_INVOLUTIONS["t2+"]):
                frame = build_frame(m, t)
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
        frame = build_frame(m, np.eye(3))
        order = cube1.dissection_order()
        pc = build_theoretical(frame, spd_in_order(mass, stiffness, ALPHA_P, BETA_K, order),
                               order)
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
        # the source supplies each kind's order, factorization and frame
        # itself, so a kind is all a caller names
        mesh, mass, stiffness, m, frame = setup
        for kind in PRECONDITIONER_KINDS:
            source = PreconditionerSource(mesh, mass, stiffness, BETA_K, kind, ALPHA_P)
            pc = source.for_step(frame, 0)
            assert pc.kind == kind
            assert pc.apply(np.zeros(2 * mesh.N)).shape == (2 * mesh.N,)
        with pytest.raises(PreconditionerError, match="unknown preconditioner kind"):
            PreconditionerSource(mesh, mass, stiffness, BETA_K, "ilu", ALPHA_P)


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
    x_fresh, s_fresh = gmres_solve(op, build_theoretical(frame, ordered_k(mass, stiffness),
                                                         ORDER), rhs)
    stale_field = random_unit_field(mesh.N, seed=999)
    stale_frame = build_frame(stale_field, select_tn_adaptive(stale_field).chosen_T)
    stale = build_theoretical(stale_frame, ordered_k(mass, stiffness), ORDER)
    x_stale, s_stale = gmres_solve(op, stale, rhs)
    assert s_fresh.converged and s_stale.converged
    assert np.linalg.norm(x_stale - x_fresh) <= 1e-9 * np.linalg.norm(x_fresh)


def test_source_builds_every_kind_by_its_rule(setup, monkeypatch, rng):
    """One PreconditionerSource per kind over five steps, a new field each
    step: the static kinds hand out one object, practical a new one per
    step, and theoretical refactors at steps 0, r, 2r; every step's
    preconditioner applies exactly as its builder fed a K formed here."""
    mesh, mass, stiffness, _, _ = setup
    rebuild_every, steps = 2, 5
    frames = []
    for step in range(steps):
        m = random_unit_field(mesh.N, seed=300 + step)
        frames.append(build_frame(m, select_tn_adaptive(m).chosen_T))
    factorizations = []
    splu = precond_mod.splu
    monkeypatch.setattr(precond_mod, "splu",
                        lambda a, **options: factorizations.append(a) or splu(a, **options))

    scalar = (ALPHA_P * mass + BETA_K * stiffness).tocsr()
    factor = ScalarFactorization(ordered_k(mass, stiffness), ORDER)
    rebuilt = [0, 0, 2, 2, 4]  # the step whose frame each step's theoretical uses
    expected = {
        "none": lambda step: build_none(mesh.N),
        "jacobi": lambda step: build_jacobi(scalar),
        "stationary": lambda step: build_stationary_2d(factor),
        "practical": lambda step: build_practical(frames[step], factor),
        "theoretical": lambda step: build_theoretical(frames[rebuilt[step]],
                                                      ordered_k(mass, stiffness), ORDER),
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
    with pytest.raises(PreconditionerError, match="unknown preconditioner kind"):
        PreconditionerSource(mesh, mass, stiffness, BETA_K, "ilu", ALPHA_P)
