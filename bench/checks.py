"""Correctness checks the benchmark applies to every sweep point it runs.

None of them compares with a stored copy of earlier output: each one is an
invariant of the scheme or a recomputation of the last solve by other means.
A point check returns a list of failure messages (empty when it passes);
a failing point counts as failed, and the run goes on.
"""

import os

import numpy as np

# The solver stops at a preconditioned residual of 1e-14.  On the three
# workloads the two recomputations below land at or under 3e-13, so the
# bounds leave a margin of about 300 without hiding a lost digit.
UNIT_TOL = 1e-12              # | |m| - 1 | at every node of the final field
REDUCED_RESIDUAL_TOL = 1e-10  # ||Q^T (A Q x - b)|| / ||Q^T b||, unpreconditioned
DENSE_TOL = 1e-10             # ||x - x_dense|| / ||x_dense||
DENSE_MAX_NODES = 1000        # largest N whose reduced system is solved densely
PROBE_TOL = 1e-13             # matrix-free operator against the assembled one
H_ROBUST_BAND = 0.25          # (max - min) / min of the average iterations


def check_point(result, last_solve, out_dir, rng):
    cfg = result.config
    failures = []
    n_steps = cfg.n_steps()
    if len(result.records) != n_steps:
        failures.append(f"{len(result.records)} steps, T/k = {n_steps}")
    tol = float(cfg.solver.get("tol", 1e-14))
    for stats in result.step_stats:
        if not stats.converged or not stats.final_relative_residual <= tol:
            failures.append(f"a step ended at residual {stats.final_relative_residual:.3e}"
                            f" (tol {tol:.1e}, converged {stats.converged})")
            break
    csv_path = os.path.join(out_dir, cfg.output["basename"] + ".csv")
    with open(csv_path, encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != n_steps:
        failures.append(f"{csv_path} has {rows} step rows, T/k = {n_steps}")

    m = result.final_state.m_n
    unit_defect = float(np.abs(np.linalg.norm(m, axis=1) - 1.0).max())
    if not unit_defect <= UNIT_TOL:
        failures.append(f"final field leaves the unit sphere by {unit_defect:.3e}")

    op, x = last_solve
    q = op.frame.as_sparse()
    rhs = q.T @ op.system.rhs
    residual = q.T @ (op.system.apply(q @ x) - op.system.rhs)
    rel = float(np.linalg.norm(residual) / np.linalg.norm(rhs))
    if not rel <= REDUCED_RESIDUAL_TOL:
        failures.append(f"unpreconditioned reduced residual {rel:.3e}")

    if op.frame.n_nodes <= DENSE_MAX_NODES:
        dense = q.T @ op.system.dense_matrix() @ q
        x_dense = np.linalg.solve(dense, rhs)
        err = float(np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense))
        if not err <= DENSE_TOL:
            failures.append(f"update differs from the dense solve by {err:.3e}")
        probe = rng.standard_normal(len(x))
        expected = dense @ probe
        err = float(np.linalg.norm(op.matvec(probe) - expected) / np.linalg.norm(expected))
        if not err <= PROBE_TOL:
            failures.append(f"matrix-free operator differs from Q^T A Q by {err:.3e}")
    return failures


def one_factorization_per_step(result):
    """theoretical with rebuild_every = 1 refactors on every step."""
    steps = len(result.records)
    if result.precond_builds != steps:
        return [f"{result.precond_builds} factorizations for {steps} steps"]
    return []


def h_robust(points):
    """Average iterations per step stay in the 25 % band across the ladder."""
    avg = [p.avg_iterations for p in points]
    spread = (max(avg) - min(avg)) / min(avg)
    if not spread <= H_ROBUST_BAND:
        return [f"average iterations {avg} spread {spread:.0%} across h"]
    return []


def alpha_p_ordering(points):
    """alpha_p = 1 beats alpha_p = alpha for the three main preconditioners,
    and the unpreconditioned points need the most iterations."""
    its = {(p.kind, p.alpha_p): p.iterations for p in points}
    failures = []
    for kind in ("theoretical", "stationary", "practical"):
        low = min(a for k, a in its if k == kind)
        if not its[(kind, 1.0)] < its[(kind, low)]:
            failures.append(f"{kind}: alpha_p=1 needs {its[(kind, 1.0)]} iterations, "
                            f"alpha_p={low:g} needs {its[(kind, low)]}")
    worst_other = max(v for (k, _), v in its.items() if k != "none")
    if not min(v for (k, _), v in its.items() if k == "none") > worst_other:
        failures.append("an unpreconditioned point does not need the most iterations")
    return failures
