import inspect
import json
import pathlib
import types

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import loop_reference as ref
from tangent_plane_llg import gmres_solve, scheme
from tangent_plane_llg.gmres import GmresError
from tangent_plane_llg.precond import PRECONDITIONER_KINDS

REPO = pathlib.Path(__file__).resolve().parent.parent


class MatOp:
    def __init__(self, a):
        self.a = np.asarray(a, dtype=np.float64)

    def matvec(self, x):
        return self.a @ x


def dense_precond(p):
    p = np.asarray(p, dtype=np.float64)
    return types.SimpleNamespace(apply=lambda r: p @ r)


def random_pd(n, seed, skew_scale=0.5):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    spd = g @ g.T + n * np.eye(n)
    skew = rng.standard_normal((n, n))
    return spd + skew_scale * (skew - skew.T), rng


def random_nonnormal(n, seed, spread):
    """Q (D + U / sqrt(n)) Q^T: eigenvalues log-uniform in [1, spread], a
    random strictly upper triangular U and a random orthogonal Q."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.exp(rng.uniform(0.0, np.log(spread), n))
    u = 0.5 * np.triu(rng.standard_normal((n, n)), 1)
    return q @ (np.diag(d) + u / np.sqrt(n)) @ q.T, rng


def test_identity_operator_one_iteration(rng):
    b = rng.standard_normal(12)
    x, stats = gmres_solve(MatOp(np.eye(12)), None, b)
    assert stats.converged
    assert stats.iterations == 1
    assert np.abs(x - b).max() <= 1e-14


def test_exact_inverse_preconditioner_one_iteration():
    a, rng = random_pd(20, seed=1)
    b = rng.standard_normal(20)
    x, stats = gmres_solve(MatOp(a), dense_precond(np.linalg.inv(a)), b, tol=1e-10)
    assert stats.converged
    assert stats.iterations == 1
    assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_matches_dense_solve_40dim():
    a, rng = random_pd(40, seed=2)
    p = np.linalg.inv(np.diag(np.diag(a)))
    b = rng.standard_normal(40)
    x, stats = gmres_solve(MatOp(a), dense_precond(p), b, tol=1e-14)
    assert stats.converged
    ref = np.linalg.solve(p @ a, p @ b)
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


def test_residual_history_monotone_within_cycles():
    a, rng = random_pd(40, seed=3, skew_scale=2.0)
    b = rng.standard_normal(40)
    x, stats = gmres_solve(MatOp(a), None, b, tol=1e-12, restart=5, maxit=2000)
    assert stats.converged
    assert stats.restarts >= 1
    hist = np.array(stats.residual_history)
    # cycle boundaries: explicit residual entries every (restart + 1) items
    cycle_len = 6
    for start in range(0, len(hist) - 1, cycle_len):
        chunk = hist[start:start + cycle_len]
        assert (np.diff(chunk) <= 1e-13 * chunk[0]).all()


def test_apply_counts():
    """SolverStats against the applies gmres_solve really makes.  From the
    zero initial guess the start residual is P b, whose operator and
    preconditioner applies are booked without being performed."""
    a, rng = random_pd(30, seed=4)
    b = rng.standard_normal(30)
    calls = {"op": 0, "pc": 0}

    def matvec(x):
        calls["op"] += 1
        return a @ x

    def papply(r):
        calls["pc"] += 1
        return r.copy()

    x, stats = gmres_solve(matvec, types.SimpleNamespace(apply=papply), b,
                           tol=1e-13, restart=7)
    assert stats.converged and stats.restarts >= 1
    assert calls["op"] == stats.iterations + stats.residual_computations - 1
    assert calls["pc"] == calls["op"] + 1  # P b
    assert stats.op_applies == calls["op"] + 1
    assert stats.precond_applies == calls["pc"] + 1


def test_defaults_follow_experiment_settings():
    """Every library default that restates a CONFIG_TABLE default equals it."""
    from tangent_plane_llg import PreconditionerSource
    defaults = scheme.config_schema()["defaults"]
    restated = [
        (gmres_solve, "tol", defaults["solver"]["tol"]),
        (gmres_solve, "restart", defaults["solver"]["restart"]),
        (gmres_solve, "maxit", defaults["solver"]["maxit"]),
        (PreconditionerSource, "rebuild_every", defaults["precond"]["rebuild_every"]),
    ]
    for owner, name, default in restated:
        assert inspect.signature(owner).parameters[name].default == default, (owner, name)


def test_zero_rhs():
    x, stats = gmres_solve(MatOp(np.eye(5)), None, np.zeros(5))
    assert stats.converged
    assert np.array_equal(x, np.zeros(5))


def test_maxit_exhaustion_reports_not_converged():
    a, rng = random_pd(25, seed=5)
    b = rng.standard_normal(25)
    x, stats = gmres_solve(MatOp(a), None, b, tol=1e-15, restart=3, maxit=4)
    assert not stats.converged
    assert stats.iterations == 4
    assert stats.final_relative_residual > 1e-15


def test_nan_detection_raises():
    def bad(v):
        out = v.copy()
        out[0] = np.nan
        return out

    with pytest.raises(GmresError):
        gmres_solve(bad, None, np.ones(4))


def test_non_finite_explicit_residual_raises():
    """The identity for the Arnoldi step, NaN for the explicit residual at
    the cycle end: the solve stops there instead of restarting from NaN."""
    calls = []

    def identity_then_nan(v):
        calls.append(None)
        return v.copy() if len(calls) == 1 else np.full_like(v, np.nan)

    with pytest.raises(GmresError, match="non-finite residual after 1 iterations"):
        gmres_solve(identity_then_nan, None, np.ones(4))


def test_zero_operator_is_a_singular_hessenberg_column():
    with pytest.raises(GmresError, match="singular Hessenberg column at iteration 0"):
        gmres_solve(np.zeros_like, None, np.ones(4))


def test_cycle_that_does_not_lower_the_residual_ends_the_solve():
    """GMRES(1) on a rotation by pi/2 with b = e1: A b is orthogonal to b,
    so the one-dimensional cycle leaves x = 0 and the residual at b.  Every
    later cycle would repeat it; the solve stops after the first."""
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    x, stats = gmres_solve(MatOp(a), None, np.array([1.0, 0.0]), restart=1)
    assert stats.iterations == 1
    assert stats.stagnated and not stats.converged
    assert stats.final_relative_residual == 1.0


def test_invalid_arguments():
    with pytest.raises(ValueError):
        gmres_solve(MatOp(np.eye(3)), None, np.ones(3), tol=0.0)
    with pytest.raises(ValueError):
        gmres_solve(MatOp(np.eye(3)), None, np.ones(3), restart=0)


def test_restart_longer_than_the_system_is_capped():
    """A cycle cannot use more Arnoldi vectors than the dimension, so a
    restart of 1e9 on a 40-dimensional system allocates and solves as
    restart = 40 does; this one takes all 40."""
    a, rng = random_nonnormal(40, 0, 100.0)
    b = rng.standard_normal(40)
    x, stats = gmres_solve(MatOp(a), None, b, restart=40)
    x_big, stats_big = gmres_solve(MatOp(a), None, b, restart=10**9)
    assert stats.converged and stats.iterations == 40
    assert np.array_equal(x_big, x)
    assert stats_big == stats


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_happy_breakdown_above_tol_restarts(seed):
    """A cycle over the whole 40-dimensional space ends in a happy
    breakdown with its explicit residual at 1.3e-14 to 2.2e-14, above the
    1e-14 threshold but far below the cycle's start: the solve restarts
    from that residual instead of stopping as stagnated, and the restarts
    still number the residual computations less two."""
    a, rng = random_nonnormal(40, seed, 1e3)
    b = rng.standard_normal(40)
    x, stats = gmres_solve(MatOp(a), None, b, restart=40)
    assert stats.converged and not stats.stagnated
    assert 1 <= stats.restarts == stats.residual_computations - 2
    assert stats.final_relative_residual <= 1e-14
    x_ref = np.linalg.solve(a, b)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


# (n, seed, eigenvalue spread, restart, allowed extra iterations)
REFERENCE_CASES = [
    (150, 1, 100.0, 200, 0),
    (150, 2, 100.0, 200, 0),
    (300, 2, 100.0, 200, 0),
    (300, 0, 30.0, 200, 0),
    (150, 1, 100.0, 20, 0),
    (300, 3, 30.0, 25, 0),
    (150, 0, 100.0, 200, 0),
]
# Above the attainable accuracy of these systems (explicit residuals of
# 7e-15 to 1e-14 at the end of a converged cycle), so that BLAS rounding
# cannot decide whether a cycle passes: at 1e-14, one BLAS thread or two
# moved the (150, 0) row between 97 and 98 iterations and between 0 and 2
# restarts for either solver.  At 1e-13 the rows of restart = 200 end in
# 81-123 iterations without a restart, equal for both solvers, under one
# BLAS thread and two.
REFERENCE_TOL = 1e-13


@pytest.mark.parametrize("n, seed, spread, restart, extra", REFERENCE_CASES)
def test_matches_mgs_reference_on_nonnormal_systems(n, seed, spread, restart, extra):
    a, rng = random_nonnormal(n, seed, spread)
    b = rng.standard_normal(n)
    x, stats = gmres_solve(MatOp(a), None, b, tol=REFERENCE_TOL, restart=restart)
    x_ref, stats_ref = ref.gmres_solve(MatOp(a), None, b, tol=REFERENCE_TOL, restart=restart)
    assert stats.converged and stats_ref.converged
    assert (stats_ref.restarts > 0) == (restart < 200)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert stats.iterations <= stats_ref.iterations + extra


def test_one_classical_gram_schmidt_pass_is_not_enough():
    """A single CGS pass loses orthogonality and costs iterations here
    (115 against 97); the second pass is what keeps the MGS counts."""
    a, rng = random_nonnormal(150, 2, 100.0)
    b = rng.standard_normal(150)
    _, stats = gmres_solve(MatOp(a), None, b)
    _, stats_mgs = ref.gmres_solve(MatOp(a), None, b)
    _, stats_cgs = ref.gmres_solve(MatOp(a), None, b, orthogonalize=ref.cgs)
    assert stats.converged and stats_cgs.converged
    assert stats.iterations <= stats_mgs.iterations < stats_cgs.iterations


def test_arnoldi_basis_stays_orthonormal():
    """The operator is applied to each Arnoldi vector in turn, so the first
    200 applies of a 200-iteration cycle are the basis.  MGS and one CGS
    pass leave it orthonormal only to about 1e-2 on this system."""
    a, rng = random_nonnormal(300, 0, 1e3)
    b = rng.standard_normal(300)
    seen = []

    def matvec(v):
        seen.append(v.copy())
        return a @ v

    _, stats = gmres_solve(matvec, None, b, restart=200, maxit=200)
    assert stats.iterations == 200 and not stats.converged
    basis = np.array(seen[:200])
    assert np.abs(basis @ basis.T - np.eye(200)).max() <= 1e-13


@pytest.mark.parametrize("n", [48, 50, 63])
def test_arnoldi_basis_rows_are_cache_line_aligned(n):
    """Every basis row starts on a 64-byte boundary, also when n is not a
    multiple of 8, so the cost of the Gram-Schmidt products does not depend
    on where the heap put the basis."""
    a, rng = random_nonnormal(n, 0, 1e3)
    offsets = []

    def matvec(v):
        offsets.append(v.ctypes.data % 64)
        return a @ v

    _, stats = gmres_solve(matvec, None, rng.standard_normal(n), restart=20, maxit=20)
    assert stats.iterations == 20
    assert offsets[:20] == [0] * 20


# iterations of step 0 of configs/academic_lite.json (cube n = 4) per
# preconditioner with single-pass MGS, of the same config on the cube n = 8
# with COLAMD-ordered factorizations, and of configs/mumag4_like.json
# (alpha_P = 1) with the matrix-free reduced operator; a numerics change
# must not raise them
ACADEMIC_LITE_STEP0_ITERATIONS = {
    "theoretical": 20, "stationary": 20, "practical": 20, "jacobi": 58, "none": 86,
}
CUBE8_STEP0_ITERATIONS = {"theoretical": 19, "stationary": 19, "practical": 19}
MUMAG4_STEP0_ITERATIONS = {
    "theoretical": 80, "stationary": 94, "practical": 80, "jacobi": 136, "none": 202,
}
# the benchmark's cube workloads: cube_tps2_theoretical (n = 16) and
# cube_ladder on its n = 12 rung
CUBE_TPS2_STEP0_ITERATIONS = {"theoretical": 20}
CUBE_LADDER12_STEP0_ITERATIONS = {"practical": 24}


def step0_solves(config, kinds, n=None):
    """Per preconditioner: the reduced operator, preconditioner and
    right-hand side tps_step hands to gmres_solve in step 0 of the config
    file <config> of the repository (on the cube n, if given), and the
    step's record."""
    doc = json.loads((REPO / config).read_text())
    doc.pop("sweep", None)
    if n is not None:
        doc["mesh"]["n"] = [n, n, n]
    steps = {}
    for kind in kinds:
        doc["precond"]["kind"] = kind
        ctx = scheme.StepContext(scheme.SimulationConfig.from_dict(doc))
        calls = []

        def capture(op, pc, b, **options):
            calls.append((op, pc, b, options))
            return gmres_solve(op, pc, b, **options)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scheme, "gmres_solve", capture)
            _, record = scheme.tps_step(ctx, ctx.initial_state())
        steps[kind] = (*calls[0], record)
    return steps


@pytest.fixture(scope="module")
def academic_lite_step0():
    return step0_solves("configs/academic_lite.json", PRECONDITIONER_KINDS, n=4)


@pytest.fixture(scope="module")
def cube8_step0():
    return step0_solves("configs/academic_lite.json", CUBE8_STEP0_ITERATIONS, n=8)


@pytest.fixture(scope="module")
def mumag4_step0():
    return step0_solves("configs/mumag4_like.json", MUMAG4_STEP0_ITERATIONS)


@pytest.fixture(scope="module")
def cube_tps2_step0():
    return step0_solves("bench/configs/cube_tps2_theoretical.json", CUBE_TPS2_STEP0_ITERATIONS)


@pytest.fixture(scope="module")
def cube_ladder12_step0():
    return step0_solves("bench/configs/cube_ladder.json", CUBE_LADDER12_STEP0_ITERATIONS, n=12)


ITERATION_BOUNDS = {"academic_lite_step0": ACADEMIC_LITE_STEP0_ITERATIONS,
                    "cube8_step0": CUBE8_STEP0_ITERATIONS,
                    "mumag4_step0": MUMAG4_STEP0_ITERATIONS,
                    "cube_tps2_step0": CUBE_TPS2_STEP0_ITERATIONS,
                    "cube_ladder12_step0": CUBE_LADDER12_STEP0_ITERATIONS}


@pytest.mark.parametrize("steps, kind", [
    *[pytest.param("academic_lite_step0", kind, id=kind) for kind in PRECONDITIONER_KINDS],
    *[pytest.param("cube8_step0", kind, id=f"cube8-{kind}") for kind in CUBE8_STEP0_ITERATIONS],
    *[pytest.param("mumag4_step0", kind, id=f"mumag4-{kind}")
      for kind in MUMAG4_STEP0_ITERATIONS],
    pytest.param("cube_tps2_step0", "theoretical", id="bench-cube_tps2-theoretical"),
    pytest.param("cube_ladder12_step0", "practical", id="bench-cube_ladder12-practical"),
])
def test_step_iterations_do_not_rise(request, steps, kind):
    record = request.getfixturevalue(steps)[kind][-1]
    assert record.gmres_iterations <= ITERATION_BOUNDS[steps][kind]


@pytest.mark.parametrize("kind", PRECONDITIONER_KINDS)
def test_matches_mgs_reference_on_step_systems(academic_lite_step0, kind):
    op, pc, b, options, _ = academic_lite_step0[kind]
    x, stats = gmres_solve(op, pc, b, **options)
    x_ref, stats_ref = ref.gmres_solve(op, pc, b, **options)
    assert stats.converged and stats_ref.converged
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert stats.iterations <= stats_ref.iterations


@pytest.mark.parametrize("kind", PRECONDITIONER_KINDS)
@pytest.mark.parametrize("restart", [200, 20])
def test_matches_scipy_gmres_on_step_systems(academic_lite_step0, kind, restart):
    """scipy's GMRES on the left-preconditioned reduced operator P Q^T A Q.
    Its residual is the preconditioned one too, but it stops on its own
    estimate and explicit checks, so the counts may differ by 2 at 1e-14."""
    op, pc, b, options, _ = academic_lite_step0[kind]
    n = b.shape[0]
    lin = spla.LinearOperator((n, n), matvec=lambda v: pc.apply(op.matvec(v)),
                              dtype=np.float64)
    calls = []
    x_sp, info = spla.gmres(lin, pc.apply(b), rtol=options["tol"], atol=0.0,
                            restart=restart, maxiter=100, callback=calls.append,
                            callback_type="pr_norm")
    x, stats = gmres_solve(op, pc, b, tol=options["tol"], restart=restart)
    assert info == 0 and stats.converged
    assert np.linalg.norm(x - x_sp) <= 1e-12 * np.linalg.norm(x_sp)
    assert abs(stats.iterations - len(calls)) <= 2
