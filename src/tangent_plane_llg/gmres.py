"""Restarted, left-preconditioned GMRES with full residual-history reporting.

Arnoldi by classical Gram-Schmidt applied twice (CGS2: as well conditioned as
modified Gram-Schmidt, in four matrix-vector products; one pass is not
enough) and Givens-rotation least squares.  Convergence is measured on the
preconditioned residual, the quantity the iteration minimizes under left
preconditioning; the check precedes any restart.  Defaults: tolerance
1e-14, restart length 200, zero initial guess.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .tangent import apply_q, apply_qt


class GmresError(RuntimeError):
    """Hard solver failure (non-finite values in the iteration)."""


@dataclass
class ReducedOperator:
    """Action of the tangent-space reduced system matrix on 2N vectors."""

    system: object        # AssembledSystem
    frame: object         # TangentFrame

    @property
    def n(self):
        return 2 * self.frame.n_nodes

    def matvec(self, x):
        return apply_qt(self.frame, self.system.apply(apply_q(self.frame, x)))

    def reduced_rhs(self):
        return apply_qt(self.frame, self.system.rhs)


@dataclass
class SolverStats:
    iterations: int = 0
    restarts: int = 0
    residual_history: list = field(default_factory=list)
    converged: bool = False
    final_relative_residual: float = float("nan")
    op_applies: int = 0
    precond_applies: int = 0
    residual_computations: int = 0
    breakdown: bool = False


def gmres_solve(op, precond, b, x0=None, tol=1e-14, restart=200, maxit=100000):
    """Solve P A x = P b; returns (x, SolverStats).

    op provides the action of A (object with .matvec or a callable); precond
    provides P via .apply (None means no preconditioning).  Terminates when
    ||P(b - A x)||_2 <= tol * ||P b||_2 or maxit total inner iterations are
    exhausted.  op_applies and precond_applies book one of each per inner
    iteration and per explicit residual (start, restarts, verifications),
    precond_applies one more for P b; from a zero initial guess the start
    residual is P b, so its two applies are booked but not performed.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if restart < 1:
        raise ValueError("restart must be >= 1")
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    matvec = op.matvec if hasattr(op, "matvec") else op
    papply = (lambda r: r.copy()) if precond is None else precond.apply

    stats = SolverStats()

    def apply_operator(v):
        stats.op_applies += 1
        return matvec(v)

    def apply_precond(v):
        stats.precond_applies += 1
        return papply(v)

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)

    pb = apply_precond(b)
    norm_pb = float(np.linalg.norm(pb))
    if not np.isfinite(norm_pb):
        raise GmresError("non-finite preconditioned right-hand side")
    if norm_pb == 0.0:
        # P b = 0 and A regular: x = 0 solves the system
        stats.converged = True
        stats.final_relative_residual = 0.0
        stats.residual_history = [0.0]
        return np.zeros(n), stats
    threshold = tol * norm_pb

    # rows on 64-byte boundaries: Gram-Schmidt cost independent of the heap layout
    stride = -(-n // 8) * 8
    raw = np.empty((restart + 1) * stride + 8)
    basis = raw[(-raw.ctypes.data % 64) // 8:][:(restart + 1) * stride].reshape(-1, stride)[:, :n]
    hess = np.zeros((restart + 1, restart))

    while True:
        # explicit preconditioned residual; convergence check precedes restart
        zero_start = not x.any()
        r = pb.copy() if zero_start else apply_precond(b - apply_operator(x))
        if zero_start:
            stats.op_applies += 1
            stats.precond_applies += 1
        stats.residual_computations += 1
        beta = float(np.linalg.norm(r))
        if not np.isfinite(beta):
            raise GmresError(f"non-finite residual after {stats.iterations} iterations")
        stats.final_relative_residual = beta / norm_pb
        if beta <= threshold:
            stats.converged = True
            return x, stats
        if stats.iterations >= maxit:
            return x, stats
        # history records cycle-start residuals and per-iteration estimates;
        # final verification values land in final_relative_residual only
        stats.residual_history.append(beta)
        if stats.residual_computations > 1:
            stats.restarts += 1

        basis[0] = r / beta
        g = [beta]
        rotations = []
        happy = False
        for j in range(restart):
            w = apply_precond(apply_operator(basis[j]))
            norm_before = float(np.linalg.norm(w))
            v = basis[:j + 1]
            h = v @ w
            w -= h @ v
            h2 = v @ w
            w -= h2 @ v
            h += h2
            hij = float(np.linalg.norm(w))
            if not np.isfinite(hij):
                raise GmresError(f"non-finite Arnoldi vector at iteration {stats.iterations}")
            if hij <= 1e-14 * max(norm_before, 1e-300):
                # happy breakdown: Krylov space is invariant, solution exact
                happy = True
            else:
                basis[j + 1] = w / hij

            # Givens update of column j and the residual norm estimate
            col = h.tolist()
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], -s * col[i] + c * col[i + 1]
            denom = math.hypot(col[j], hij)
            if denom == 0.0:
                raise GmresError(
                    f"singular Hessenberg column at iteration {stats.iterations} "
                    "(operator not positive definite?)"
                )
            c, s = col[j] / denom, hij / denom
            rotations.append((c, s))
            col[j] = denom
            hess[:j + 1, j] = col
            g.append(-s * g[j])
            g[j] = c * g[j]

            stats.iterations += 1
            stats.residual_history.append(abs(g[j + 1]))
            if happy or abs(g[j + 1]) <= threshold or stats.iterations >= maxit:
                break

        # update x from the least-squares solution in the current subspace;
        # only the upper triangle of hess is read, and this cycle wrote it
        k = j + 1
        y = solve_triangular(hess[:k, :k], g[:k])
        x = x + basis[:k].T @ y
        if happy:
            r = apply_precond(b - apply_operator(x))
            stats.residual_computations += 1
            beta = float(np.linalg.norm(r))
            stats.final_relative_residual = beta / norm_pb
            stats.converged = beta <= threshold
            stats.breakdown = not stats.converged
            return x, stats
