"""Restarted, left-preconditioned GMRES with full residual-history reporting.

Arnoldi by classical Gram-Schmidt applied twice (CGS2: as well conditioned as
modified Gram-Schmidt, in four matrix-vector products; one pass is not
enough) and Givens-rotation least squares.  Convergence is measured on the
preconditioned residual, the quantity the iteration minimizes under left
preconditioning.  Every cycle ends with one explicit residual, and one rule
reads it: converged, or stagnated if the cycle did not lower it (on the
tangent-space system preconditioned GMRES converges linearly, so every
cycle must), or out of iterations, or restart.  The solve starts from
x = 0.  Defaults: tolerance 1e-14, restart length 200.

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
from .tangent import apply_q, apply_qt, reduced_matrix


class GmresError(RuntimeError):
    """Hard solver failure (non-finite values in the iteration)."""


@dataclass
class ReducedOperator:
    """The tangent-space reduced system matrix R = Q^T A Q on 2N vectors.

    R is formed once, at construction, as a 2N x 2N CSR matrix on the mesh
    pattern with 2x2 blocks Q_i^T B_ij Q_j, B_ij the 3x3 blocks of the
    system matrix A: tangent.reduced_matrix of the system's scalar values
    and cross moments, read as they were assembled, evaluated once per node
    pair and written straight into the data of the mesh's CSR structure
    (tangent.reduced_pattern, built on the first step and shared by every
    step's R and the theoretical preconditioner), so the blocks of A are
    never expanded.  Forming R costs a few matrix-free applies
    Q^T (A (Q x)), and a product with R a fraction of one, so R pays for
    itself within about 10 iterations (CHANGES.md has the measurements).
    Steps of the bundled configs take 18 or more, the cube ones about 22, so
    there is no matrix-free route.
    """

    system: object        # AssembledSystem
    frame: object         # TangentFrame

    def __post_init__(self):
        s = self.system
        self.matrix = reduced_matrix(s.mesh, self.frame.blocks, s.scalar, s.moments)

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
    stagnated: bool = False


def gmres_solve(op, precond, b, tol=1e-14, restart=200, maxit=100000):
    """Solve P A x = P b from x = 0; returns (x, SolverStats).

    op provides the action of A (object with .matvec or a callable); precond
    provides P via .apply (None means no preconditioning).  A cycle ends
    when its Givens estimate reaches tol * ||P b||_2, when the Krylov space
    is invariant (happy breakdown), after restart iterations or at maxit
    total iterations, and then computes r = P(b - A x) for the updated x.
    That residual decides, in this order: converged if ||r||_2 <= tol *
    ||P b||_2; stagnated if it is not below the residual the cycle started
    from, since another cycle would repeat this one; not converged if maxit
    is spent; otherwise the next cycle starts from r.  op_applies and
    precond_applies count one of each per inner iteration and per explicit
    residual, precond_applies one more for P b, so they are derived from
    iterations and residual_computations at every cycle end.  The first
    cycle starts from r = P b, so its two applies are counted but not
    performed.
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
    pb = papply(b)
    with np.errstate(over="ignore"):
        # an overflowing norm is inf, and the check below reports it
        norm_pb = math.sqrt(pb @ pb)
    if not math.isfinite(norm_pb):
        raise GmresError("non-finite preconditioned right-hand side")
    if norm_pb == 0.0:
        # P b = 0 and A regular: x = 0 solves the system
        stats.converged = True
        stats.final_relative_residual = 0.0
        stats.residual_history = [0.0]
        stats.precond_applies = 1
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

    # from x = 0 the start residual is P b: counted as computed, not computed
    x = np.zeros(n)
    r = pb.copy()
    stats.residual_computations = 1
    start = math.inf
    while True:
        # r: the explicit residual of x, computed once per cycle end
        beta = math.sqrt(r @ r)
        if not math.isfinite(beta):
            raise GmresError(f"non-finite residual after {stats.iterations} iterations")
        stats.final_relative_residual = beta / norm_pb
        stats.op_applies = stats.iterations + stats.residual_computations
        stats.precond_applies = stats.op_applies + 1
        if beta <= threshold:
            stats.converged = True
            return x, stats
        if beta >= start:
            stats.stagnated = True
            return x, stats
        if stats.iterations >= maxit:
            return x, stats
        # history records cycle-start residuals and per-iteration estimates;
        # the residual that ends the solve lands in final_relative_residual only
        stats.residual_history.append(beta)
        if stats.residual_computations > 1:
            stats.restarts += 1
        start = beta

        np.divide(r, beta, out=basis[0])
        g = [beta]
        # omega: the last, still open row of Omega
        omega[0] = 1.0
        happy = False
        for j in range(cycle):
            w = papply(matvec(basis[j]))
            norm_before = math.sqrt(w @ w)
            v = basis[:j + 1]
            h = v @ w
            w -= h @ v
            h2 = v @ w
            w -= h2 @ v
            h += h2
            hij = math.sqrt(w @ w)
            if not math.isfinite(hij):
                raise GmresError(f"non-finite Arnoldi vector at iteration {stats.iterations}")
            if hij <= 1e-14 * max(norm_before, 1e-300):
                # happy breakdown: the Krylov space is invariant, the cycle ends
                happy = True
            else:
                np.divide(w, hij, out=basis[j + 1])
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
        r = papply(b - matvec(x))
        stats.residual_computations += 1
