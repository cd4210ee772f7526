"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
interleaved; all tolerances are pinned here and nowhere else.
"""

import json
import math
import pathlib
import sys
import time

import numpy as np
import pytest
import scipy.sparse as sp

from tangent_plane_llg import (FIXED_INVOLUTIONS, PreconditionerSource,
                               ScalarFactorization, SimulationConfig,
                               assemble_mass, assemble_stiffness,
                               build_frame, build_stationary_2d, build_system,
                               build_theoretical, generate_structured_cube,
                               gmres_solve, run_simulation, save_mesh, select_tn_adaptive)
from tangent_plane_llg import precond as precond_mod
from tangent_plane_llg.gmres import ReducedOperator
from tangent_plane_llg.physics import applied_field, pi_apply
from tangent_plane_llg.scheme import lambda_field, lh_term, wk

from conftest import (UNIT_BOUNDS, cross_form, k_slots, perturbed_unit_cube, random_unit_field,
                      spd, step_states)
from oracles import (GAMMA0_K, GAMMA0_U, applied_field_mumag4, check_bounded_ratio,
                     check_inverse_bounds, check_mapping_identities, dense_oracle_solve,
                     energy_norm, mumag4_nondimensional, mumag5_spin_velocity)

REPO = pathlib.Path(__file__).resolve().parent.parent

MODULE_T0 = time.perf_counter()

ALL_PRECONDS = ("theoretical", "stationary", "practical", "jacobi", "none")
MAIN_PRECONDS = ("theoretical", "stationary", "practical")


def report(num, name, passed):
    line = f"ACCEPTANCE {num:2d} {name:<42s} {'PASS' if passed else 'FAIL'}"
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def spiral_field(mesh, turns=1.0):
    x = mesh.nodes[:, 0]
    span = x.max() - x.min()
    phase = 2 * np.pi * turns * (x - x.min()) / span
    m = np.zeros((mesh.N, 3))
    m[:, 0] = np.cos(phase)
    m[:, 1] = np.sin(phase)
    return m


def academic_config(**over):
    base = {
        "scheme": "tps1", "alpha": 0.5, "ell_ex2": 10.0, "T": 0.03, "k": 0.01,
        "mesh": {"kind": "cube", "bounds": UNIT_BOUNDS, "n": [4, 4, 4]},
        "field": {"pi": {"kind": "zero"}, "applied": {"kind": "academic"},
                  "m0": {"kind": "constant", "value": [1, 0, 0]}},
        "precond": {"kind": "stationary", "alpha_p": 1.0},
        "frame": {"tn": "t3-", "strategy": "householder"},
    }
    for key, val in over.items():
        if isinstance(val, dict) and key in base:
            base[key] = {**base[key], **val}
        else:
            base[key] = val
    return SimulationConfig.from_dict(base)


def mumag_like_config(kind, alpha_p):
    f = applied_field_mumag4()
    return SimulationConfig.from_dict({
        "scheme": "tps1", "alpha": 0.02, "ell_ex2": 32.3283,
        "T": 3 * 0.017688, "k": 0.017688,
        "mesh": {"kind": "cube", "bounds": [[0, 100], [0, 25], [0, 3]],
                 "n": [20, 5, 1]},
        "field": {"pi": {"kind": "uniaxial", "axis": [0, 0, 1], "strength": 0.5},
                  "applied": {"kind": "constant", "value": list(f)},
                  "m0": {"kind": "spiral", "turns": 1.0}},
        "precond": {"kind": kind, "alpha_p": alpha_p},
        "frame": {"tn": "adaptive"},
    })


@pytest.fixture(scope="module")
def cube27():
    return generate_structured_cube(UNIT_BOUNDS, (2, 2, 2))


def build_step_system(mesh, variant, mass, stiffness):
    """Initial-step linear system of the scheme on the 27-node cube."""
    alpha, ell_ex2, k = 0.5, 10.0, 0.01
    # beta = ell_ex2 theta (theta = 1) for tps1, (ell_ex2 / 2)(1 + |k log k|) for tps2
    beta = ell_ex2 if variant == "tps1" else 0.5 * ell_ex2 * (1.0 + abs(k * math.log(k)))
    beta_k = beta * k
    m = spiral_field(mesh)
    f = applied_field(dict(kind="academic"), mesh)
    if variant == "tps2":
        weights = wk(alpha, k, lambda_field(mesh, m, f, ell_ex2)) / alpha
    else:
        weights = np.ones(mesh.elem_count)
    pi_0 = pi_apply(dict(kind="zero"), mesh, m)
    lh = lh_term(variant, pi_0, pi_0, f)
    system = build_system(mesh, m, alpha, beta_k, weights, lh, ell_ex2, mass, stiffness)
    return m, system, beta_k


def test_criterion_01_oracle_equivalence(cube27):
    started = time.perf_counter()
    ok = True
    mass, stiffness = assemble_mass(cube27), assemble_stiffness(cube27)
    for variant in ("tps1", "tps2"):
        m, system, beta_k = build_step_system(cube27, variant, mass, stiffness)
        sources = [PreconditionerSource(cube27, mass, stiffness, beta_k, kind, 1.0)
                   for kind in ALL_PRECONDS]
        # the adaptive involution and two fixed ones
        for key in (select_tn_adaptive(m)[0], "t1+", "t2-"):
            frame = build_frame(m, key)
            x_ref, _ = dense_oracle_solve(system, frame)
            op = ReducedOperator(system, frame)
            rhs = op.reduced_rhs()
            for source in sources:
                pc = source.for_step(frame, 0)
                x, stats = gmres_solve(op, pc, rhs, tol=1e-14)
                ok &= stats.converged
                rel = np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
                ok &= rel <= 1e-9
                residual = np.abs(op.matvec(x) - rhs).max()
                ok &= residual <= 1e-9 * np.abs(rhs).max()
    elapsed = time.perf_counter() - started
    ok &= elapsed < 30.0
    report(1, "oracle equivalence (30 combos, <30 s)", ok)


def test_criterion_02_jacobi_triple_coincidence(cube27):
    mass, stiffness = assemble_mass(cube27), assemble_stiffness(cube27)
    alpha_p, beta_k = 1.0, 0.1
    scalar = alpha_p * mass + beta_k * stiffness
    diag = scalar.diagonal()
    plain = np.repeat(1.0 / diag, 2)
    worst = 0.0
    for seed in range(5):
        m = random_unit_field(cube27.N, seed=200 + seed)
        for key in (select_tn_adaptive(m)[0], "t1+"):
            frame = build_frame(m, key)
            q = frame.as_sparse()
            inner = (q.T @ sp.kron(scalar, sp.identity(3, format="csr"),
                                   format="csr") @ q).tocsr()
            congruent = 1.0 / inner.diagonal()
            worst = max(worst, float(np.abs(plain - congruent).max()))
            d3inv = sp.diags(np.repeat(1.0 / diag, 3))
            sandwiched = (q.T @ d3inv @ q).toarray()
            worst = max(worst, float(np.abs(np.diag(plain) - sandwiched).max()))
    report(2, f"Jacobi triple coincidence (err {worst:.1e})", worst <= 1e-13)


def test_criterion_03_constant_field_identity(cube27):
    mass, stiffness = assemble_mass(cube27), assemble_stiffness(cube27)
    worst = 0.0
    for key in ("t3-", "t1-", "t2+"):
        t = FIXED_INVOLUTIONS[key]
        mu = np.tile(t[:, 2], (cube27.N, 1))
        frame = build_frame(mu, key)
        theo = build_theoretical(frame, cube27, k_slots(cube27, 1.0, 0.1))
        stat = build_stationary_2d(ScalarFactorization(spd(mass, stiffness, 1.0, 0.1), cube27))
        for i in range(2 * cube27.N):
            e = np.zeros(2 * cube27.N)
            e[i] = 1.0
            worst = max(worst, float(np.abs(theo.apply(e) - stat.apply(e)).max()))
    report(3, f"theoretical = stationary, constant field ({worst:.1e})",
           worst <= 1e-13)


def test_criterion_04_h_robustness():
    started = time.perf_counter()
    avg = {}
    for n in (4, 6, 8):
        for kind in MAIN_PRECONDS + ("none",):
            cfg = academic_config(mesh={"n": [n, n, n]},
                                  precond={"kind": kind, "alpha_p": 1.0})
            res = run_simulation(cfg)
            avg[(n, kind)] = res.average_iterations()
    ok = True
    for kind in MAIN_PRECONDS:
        vals = [avg[(n, kind)] for n in (4, 6, 8)]
        ok &= (max(vals) - min(vals)) / min(vals) <= 0.25
    growth = (avg[(8, "none")] - avg[(4, "none")]) / avg[(4, "none")]
    ok &= growth >= 0.5
    elapsed = time.perf_counter() - started
    ok &= elapsed < 180.0
    report(4, f"h-robust preconds, none grows {growth:.0%} (<3 min)", ok)


def test_criterion_04_off_the_uniform_grid(tmp_path, monkeypatch):
    """Criterion 04's band on cubes whose interior nodes are moved by up to
    0.2 h per axis: the theory asks only for shape-regular meshes.  One run
    reads its mesh from a file, and one factors on the SuperLU path, where
    nested dissection splits the irregular mesh."""
    meshes = {n: perturbed_unit_cube(n, seed=n) for n in (4, 6, 8)}
    runs = {(n, kind): run_simulation(academic_config(precond={"kind": kind, "alpha_p": 1.0}),
                                      mesh=mesh)
            for n, mesh in meshes.items() for kind in MAIN_PRECONDS}
    avg = {kind: [runs[(n, kind)].average_iterations() for n in meshes]
           for kind in MAIN_PRECONDS}

    # the file holds the mesh exactly, so the run is the same run
    path = tmp_path / "perturbed6.json"
    path.write_bytes(save_mesh(meshes[6]))
    cfg = vars(runs[(6, "practical")].config)
    cfg = SimulationConfig.from_dict({**cfg, "mesh": {"kind": "file", "path": str(path)}})
    ok = run_simulation(cfg).records == runs[(6, "practical")].records

    monkeypatch.setattr(precond_mod, "BAND_BYTES", 0)
    cfg = academic_config(precond={"kind": "theoretical", "alpha_p": 1.0})
    avg["theoretical"].append(run_simulation(cfg, mesh=meshes[8]).average_iterations())
    for vals in avg.values():
        ok &= (max(vals) - min(vals)) / min(vals) <= 0.25
    report(4, "h-robust preconds on perturbed cubes", ok)


def test_criterion_05_alpha_p_study():
    avg = {}
    for alpha_p in (1.0, 0.02):
        for kind in MAIN_PRECONDS:
            res = run_simulation(mumag_like_config(kind, alpha_p))
            avg[(alpha_p, kind)] = res.average_iterations()
    ok = all(avg[(1.0, kind)] < avg[(0.02, kind)] for kind in MAIN_PRECONDS)
    detail = ", ".join(f"{k}: {avg[(1.0, k)]:.0f}<{avg[(0.02, k)]:.0f}"
                       for k in MAIN_PRECONDS)
    report(5, f"alpha_p=1 beats alpha_p=alpha ({detail})", ok)


def test_criterion_06_constraint_suite():
    runs = [
        academic_config(field={"m0": {"kind": "spiral", "turns": 1.0}},
                        precond={"kind": "practical", "alpha_p": 1.0}),
        academic_config(scheme="tps2",
                        field={"m0": {"kind": "spiral", "turns": 1.0}},
                        precond={"kind": "theoretical", "alpha_p": 1.0},
                        frame={"tn": "adaptive"}),
        mumag_like_config("stationary", 1.0),
    ]
    ok = True
    for cfg in runs:
        states = step_states(cfg)
        k = cfg.k
        for prev, cur in zip(states, states[1:]):
            m_prev, v, m_new = prev.m_n, cur.last_v, cur.m_n
            ok &= float(np.abs(np.linalg.norm(m_new, axis=1) - 1).max()) <= 1e-14
            defect = np.abs(np.einsum("nc,nc->n", m_prev, v)).max()
            ok &= defect <= 1e-9 * (1 + np.abs(v).max())
            updated = m_prev + k * v
            nsq = np.einsum("nc,nc->n", updated, updated)
            pred = 1.0 + k**2 * np.einsum("nc,nc->n", v, v)
            ok &= float(np.abs(nsq - pred).max() / (1.0 + pred.max())) <= 1e-12
    report(6, "unit norm, tangency, orthogonality identity", ok)


def test_criterion_07_structural_matrices(cube27):
    from tangent_plane_llg import assemble_weighted_mass
    rng = np.random.default_rng(77)
    mass, stiffness = assemble_mass(cube27), assemble_stiffness(cube27)
    m = random_unit_field(cube27.N, seed=300)
    ok = True

    cross = cross_form(cube27, m)
    ok &= (cross + cross.T).nnz == 0  # skew-symmetry, bit-exact

    ok &= np.linalg.eigvalsh(mass.toarray()).min() > 0
    weights = 0.5 + rng.random(cube27.elem_count)
    mk = assemble_weighted_mass(cube27, weights).toarray()
    ok &= np.linalg.eigvalsh(0.5 * (mk + mk.T)).min() > 0
    ok &= np.linalg.eigvalsh(stiffness.toarray()).min() >= -1e-12

    frame = build_frame(m, select_tn_adaptive(m)[0])
    q = frame.as_sparse()
    ok &= np.abs((q.T @ q).toarray() - np.eye(2 * cube27.N)).max() <= 1e-14

    ok &= check_mapping_identities(frame, m) <= 1e-13

    worst_energy = 0.0
    for _ in range(5):
        x = rng.standard_normal(2 * cube27.N)
        a, b = energy_norm(mass, stiffness, frame, 1.0, 0.1, x, mesh=cube27)
        worst_energy = max(worst_energy, abs(a - b) / a)
    ok &= worst_energy <= 1e-12
    report(7, "structural matrix suite", ok)


def printed_half_unit(value):
    """Half a unit in the last decimal that a config file prints of value."""
    return 0.5 * 10.0 ** -len(repr(float(value)).partition(".")[2])


def test_criterion_08_nondimensionalization():
    """The bundled muMAG configs hold the numbers of their SI derivation:
    k (to 1e-12 relative) and T = 5k made with GAMMA0_K, ell_ex2 and the
    applied field to the digits each file prints, and the mumag5 spin
    velocity u (to 1e-12 relative) made with GAMMA0_U."""
    derived = mumag4_nondimensional(GAMMA0_K)
    k = derived["k"]
    u = mumag5_spin_velocity(GAMMA0_U)
    ok = True
    for name in ("mumag4_like", "mumag4_axis_modes", "mumag5_like"):
        doc = json.loads((REPO / "configs" / f"{name}.json").read_text())
        ok &= abs(doc["k"] - k) <= 1e-12 * k
        ok &= abs(doc["T"] - 5 * k) <= 5e-12 * k
        ok &= abs(doc["ell_ex2"] - derived["ell_ex2"]) <= printed_half_unit(doc["ell_ex2"])
        # muMAG #5 applies no field
        field = np.zeros(3) if name == "mumag5_like" else applied_field_mumag4()
        ok &= all(abs(printed - value) <= printed_half_unit(printed)
                  for printed, value in zip(doc["field"]["applied"]["value"], field))
        if name == "mumag5_like":
            ok &= np.abs(np.subtract(doc["field"]["pi"]["u"], u)).max() <= 1e-12 * u[0]
    report(8, f"k={k:.6f} (gamma0 {GAMMA0_K:g}), u={u[0]:.6f} (gamma0 {GAMMA0_U:g})", ok)


def test_criterion_09_linear_convergence():
    ok = True
    for kind in MAIN_PRECONDS:
        cfg = academic_config(mesh={"n": [6, 6, 6]},
                              precond={"kind": kind, "alpha_p": 1.0})
        res = run_simulation(cfg)
        hist = np.array(res.step_stats[0].residual_history)
        ratios = hist[1:] / hist[:-1]
        ok &= np.mean(ratios < 1.0) >= 0.95
        logs = np.log(hist)
        grid = np.arange(len(logs))
        design = np.vstack([grid, np.ones_like(grid)]).T
        coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
        predicted = design @ coef
        r2 = 1.0 - ((logs - predicted) ** 2).sum() / ((logs - logs.mean()) ** 2).sum()
        ok &= coef[0] < 0
        ok &= r2 >= 0.95
    report(9, "linear convergence (ratio<1, R2>=0.95)", ok)


def test_criterion_10_appendix_checks(cube27):
    rng = np.random.default_rng(99)
    ok = True
    for seed in range(100):
        mu = random_unit_field(cube27.N, seed=400 + seed)
        if (1.0 + mu[:, 2] <= 0).any():
            mu[:, 2] = np.abs(mu[:, 2])  # keep away from the excluded pole
        ok &= check_bounded_ratio(cube27, mu, depth=5) <= 2.0 + 1e-12

    for trial in range(100):
        dim = int(rng.integers(5, 41))
        g = rng.standard_normal((dim, dim))
        b0 = g @ g.T + dim * np.eye(dim)
        g2 = rng.standard_normal((dim, dim))
        skew = rng.standard_normal((dim, dim))
        b = g2 @ g2.T + dim * np.eye(dim) + 0.7 * (skew - skew.T)
        ok &= check_inverse_bounds(b, b0, n_pairs=100, seed=trial) <= 1e-10
    report(10, "appendix bounds (ratio<=2, inverse transfer)", ok)


# Average iterations of the academic_lite settings (alpha_P = 1, 3 steps)
# at k = 0.1, 0.01, 1e-3, 1e-4, as measured; the counts rise as k shrinks
# and level off below 1e-3
K_VALUES = (0.1, 0.01, 1e-3, 1e-4)
K_ROBUST_AVERAGES = {
    ("theoretical", 4): (10.0, 19.0, 35.0, 34.0),
    ("practical", 4): (10.0, 19.0, 35.0, 34.0),
    ("stationary", 4): (10.667, 19.333, 35.0, 34.0),
    ("theoretical", 8): (10.0, 18.333, 35.0, 40.667),
    ("practical", 8): (10.0, 18.333, 35.0, 40.667),
    ("stationary", 8): (10.667, 18.333, 35.0, 40.667),
}


def test_criterion_12_k_robustness():
    ok = True
    worst = 0.0
    for (kind, n), expected in K_ROBUST_AVERAGES.items():
        avg = [run_simulation(academic_config(
            k=k, T=3 * k, mesh={"n": [n, n, n]},
            precond={"kind": kind, "alpha_p": 1.0})).average_iterations() for k in K_VALUES]
        ok &= all(abs(a - e) <= 1.0 for a, e in zip(avg, expected))
        # essentially independent of k: k = 1e-4 within 20 % of k = 1e-3
        rise = abs(avg[3] - avg[2]) / avg[2]
        worst = max(worst, rise)
        ok &= rise <= 0.2
    report(12, f"k-robust counts, level off within {worst:.0%}", ok)


# Observed rates log2(e(k) / e(k/2)) of the max nodal error at T against a
# run at k = T/256, over k = T/4, T/8, T/16, T/32 (cube n = 3, alpha = 1,
# ell_ex2 = 1, zero field, spiral of 0.25 turns, T = 0.08).  tps1 is first
# order: its rates over k = T/8 ... T/32 lie in [0.9, 1.1].  tps2 falls from
# 1.73 toward 1 as k shrinks on this mesh, so its measured rates are
# regression bounds, not a claim of order 2
TPS2_RATES = (1.731, 1.479, 1.311)


def test_criterion_13_order_in_time():
    T = 0.08

    def final(scheme, k):
        cfg = academic_config(scheme=scheme, alpha=1.0, ell_ex2=1.0, T=T, k=k,
                              mesh={"n": [3, 3, 3]},
                              field={"applied": {"kind": "constant", "value": [0, 0, 0]},
                                     "m0": {"kind": "spiral", "turns": 0.25}})
        return run_simulation(cfg).final_state.m_n

    rates = {}
    for scheme in ("tps1", "tps2"):
        ref = final(scheme, T / 256)
        errs = np.array([np.abs(final(scheme, T / d) - ref).max() for d in (4, 8, 16, 32)])
        rates[scheme] = np.log2(errs[:-1] / errs[1:])
    ok = bool(np.all((rates["tps1"][1:] >= 0.9) & (rates["tps1"][1:] <= 1.1)))
    ok &= bool(np.all(np.abs(rates["tps2"] - TPS2_RATES) <= 0.05))
    detail = ", ".join(f"{s} {' '.join(f'{r:.2f}' for r in rates[s])}" for s in rates)
    report(13, f"rates in time ({detail})", ok)


# last, so that it times the whole module
def test_criterion_11_total_runtime():
    elapsed = time.perf_counter() - MODULE_T0
    report(11, f"acceptance suite runtime {elapsed:.1f}s (<300 s)",
           elapsed < 300.0)
