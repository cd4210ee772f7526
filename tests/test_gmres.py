import inspect

import numpy as np
import pytest

from tangent_plane_llg import gmres_solve
from tangent_plane_llg.gmres import GmresError
from tangent_plane_llg.precond import Preconditioner


class MatOp:
    def __init__(self, a):
        self.a = np.asarray(a, dtype=np.float64)

    def matvec(self, x):
        return self.a @ x


def dense_precond(p):
    p = np.asarray(p, dtype=np.float64)
    return Preconditioner("none", None, lambda r: p @ r)


def random_pd(n, seed, skew_scale=0.5):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    spd = g @ g.T + n * np.eye(n)
    skew = rng.standard_normal((n, n))
    return spd + skew_scale * (skew - skew.T), rng


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

    x, stats = gmres_solve(matvec, Preconditioner("none", None, papply), b,
                           tol=1e-13, restart=7)
    assert stats.converged and stats.restarts >= 1
    assert calls["op"] == stats.iterations + stats.residual_computations - 1
    assert calls["pc"] == calls["op"] + 1  # P b
    assert stats.op_applies == calls["op"] + 1
    assert stats.precond_applies == calls["pc"] + 1


def test_defaults_follow_experiment_settings():
    sig = inspect.signature(gmres_solve)
    assert sig.parameters["tol"].default == 1e-14
    assert sig.parameters["restart"].default == 200
    assert sig.parameters["x0"].default is None  # zero initial guess


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


def test_nonzero_initial_guess():
    a, rng = random_pd(15, seed=6)
    b = rng.standard_normal(15)
    x0 = rng.standard_normal(15)
    x, stats = gmres_solve(MatOp(a), None, b, x0=x0, tol=1e-12)
    assert stats.converged
    assert np.linalg.norm(a @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        gmres_solve(MatOp(np.eye(3)), None, np.ones(3), tol=0.0)
    with pytest.raises(ValueError):
        gmres_solve(MatOp(np.eye(3)), None, np.ones(3), restart=0)


def test_reorthogonalization_path():
    a, rng = random_pd(30, seed=7)
    b = rng.standard_normal(30)
    x1, s1 = gmres_solve(MatOp(a), None, b, tol=1e-13)
    x2, s2 = gmres_solve(MatOp(a), None, b, tol=1e-13, reorthogonalize=True)
    assert s1.converged and s2.converged
    assert np.linalg.norm(x1 - x2) <= 1e-10 * np.linalg.norm(x1)
