"""Restarted, left-preconditioned GMRES with full residual-history reporting.

Arnoldi by classical Gram-Schmidt applied twice (CGS2: as well conditioned as
modified Gram-Schmidt, in four matrix-vector products; one pass is not
enough) and Givens-rotation least squares.  Convergence is measured on the
preconditioned residual, the quantity the iteration minimizes under left
preconditioning; the check precedes any restart.  Defaults: tolerance
1e-14, restart length 200, zero initial guess.

The operator of a step is the reduced matrix Q^T A Q, formed explicitly once
per step as a 2N x 2N CSR matrix (ReducedOperator, which says why), so each
iteration applies it with one sparse matrix-vector product.

The Givens rotations of a cycle are carried as one open row omega of their
product: entry j of rotated column j is omega . h, a dot product, and the
finished rows give the triangle of the least-squares problem with one
matrix product at the end of the cycle.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

# apply_q stays importable from this module: bench/instrument.py wraps it here
from .tangent import apply_q, apply_qt, reduce_blocks


class GmresError(RuntimeError):
    """Hard solver failure (non-finite values in the iteration)."""


@dataclass
class ReducedOperator:
    """The tangent-space reduced system matrix R = Q^T A Q on 2N vectors.

    R is formed once, at construction, as a 2N x 2N CSR matrix on the mesh
    pattern with 2x2 blocks Q_i^T B_ij Q_j, B_ij the 3x3 blocks of the
    system matrix A (tangent.reduce_blocks).  One BLAS thread, 2-core host:
    forming R costs 11 to 16 matrix-free applies Q^T (A (Q x)), and a
    product with R a quarter to a fifth of one (11 against 41 us at
    N = 252, 0.37 against 1.78 ms at N = 9261), so R pays for itself within
    13 to 21 iterations.  Steps of the bundled configs take 18 or more, the
    cube ones about 22, so there is no matrix-free route.
    """

    system: object        # AssembledSystem
    frame: object         # TangentFrame

    def __post_init__(self):
        cross = self.system.cross
        self.matrix = reduce_blocks(self.frame.blocks, cross.indptr, cross.indices,
                                    self.system.blocks())

    @property
    def n(self):
        return 2 * self.frame.n_nodes

    def matvec(self, x):
        return self.matrix @ x

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

    # a cycle uses at most n Arnoldi vectors: with n of them CGS2 leaves the
    # next at rounding level, and the happy-breakdown test ends the cycle
    cycle = min(restart, n)
    # rows on 64-byte boundaries: Gram-Schmidt cost independent of the heap layout
    stride = -(-n // 8) * 8
    raw = np.empty((cycle + 1) * stride + 8)
    basis = raw[(-raw.ctypes.data % 64) // 8:][:(cycle + 1) * stride].reshape(-1, stride)[:, :n]
    # hess: the Hessenberg matrix of the cycle; rows[i]: row i of the product
    # Omega of its Givens rotations, final once rotation i is applied
    hess = np.zeros((cycle + 1, cycle))
    rows = np.zeros((cycle, cycle + 1))
    omega = np.empty(cycle + 1)

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
        # omega: the last, still open row of Omega
        omega[0] = 1.0
        happy = False
        for j in range(cycle):
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
            hess[:j + 1, j] = h
            hess[j + 1, j] = hij

            # Givens rotation j: the earlier ones leave omega . h in entry j
            # of column j, and rotation j maps (omega, 0), (0, 1) to the
            # finished row (c omega, s) and the open row (-s omega, c)
            rotated = float(omega[:j + 1] @ h)
            denom = math.hypot(rotated, hij)
            if denom == 0.0:
                raise GmresError(
                    f"singular Hessenberg column at iteration {stats.iterations} "
                    "(operator not positive definite?)"
                )
            c, s = rotated / denom, hij / denom
            np.multiply(omega[:j + 1], c, out=rows[j, :j + 1])
            rows[j, j + 1] = s
            omega[:j + 1] *= -s
            omega[j + 1] = c
            g.append(-s * g[j])
            g[j] = c * g[j]

            stats.iterations += 1
            stats.residual_history.append(abs(g[j + 1]))
            if happy or abs(g[j + 1]) <= threshold or stats.iterations >= maxit:
                break

        # update x from the least-squares solution in the current subspace:
        # the triangle Omega H, of which only the upper part is read
        k = j + 1
        y = solve_triangular(rows[:k, :k + 1] @ hess[:k + 1, :k], g[:k])
        x = x + basis[:k].T @ y
        if happy:
            r = apply_precond(b - apply_operator(x))
            stats.residual_computations += 1
            beta = float(np.linalg.norm(r))
            stats.final_relative_residual = beta / norm_pb
            stats.converged = beta <= threshold
            stats.breakdown = not stats.converged
            return x, stats
