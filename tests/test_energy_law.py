"""Oracles of the tangent plane scheme that need no computed reference.

The energy law.  A step solves A v = b in the tangent space of m^n, with
A = alpha M_k + beta_k L - C(m^n) and b = -ell^2 L m^n + M lh; tested with
its own solution, v^T A v = v^T b, and the cross form drops out because
v^T C v = 0.  With E(m) = (ell^2 / 2) m^T L m this is

    E(m^n + k v) - E(m^n) = k v^T M lh - k alpha v^T M_k v
                            - (k beta_k - k^2 ell^2 / 2) v^T L v,

that is -k^2 ell^2 (theta - 1/2) v^T L v for tps1 (beta_k = ell^2 theta k,
M_k = M) and -(ell^2 / 2) k^3 |log k| v^T L v for tps2, the forms the
test states, from theta and k, not from the step's beta_k.  It holds up to
GMRES's tolerance at m^n + k v: the next state of tps1 without projection,
and the field before the nodal projection of tps2.

The projection.  Where every off-diagonal entry of L is <= 0 (a weakly
acute mesh, as the Kuhn cube is), normalizing the nodes of m^n + k v
cannot raise the exchange energy (Bartels, SIAM J. Numer. Anal. 43, 2005).

The macrospin.  A uniform m in the constant field H e3, with pi zero and
no exchange (uniform fields have no gradient), follows the closed form
tan(theta / 2) = tan(theta_0 / 2) exp(-alpha H t / (1 + alpha^2)),
phi = phi_0 + H t / (1 + alpha^2); tps1 converges to it at rate 1 in k,
tps2 at rate 2.
"""

import math

import numpy as np
import pytest

import tangent_plane_llg.scheme as scheme_mod
from tangent_plane_llg import SimulationConfig, assemble_weighted_mass, tps_step
from tangent_plane_llg.precond import PRECONDITIONER_KINDS
from tangent_plane_llg.scheme import StepContext

from conftest import UNIT_BOUNDS


def law_config(scheme, kind, theta, pi, projection=True):
    return SimulationConfig.from_dict({
        "scheme": scheme, "alpha": 0.3, "theta": theta, "ell_ex2": 2.0,
        "T": 0.05, "k": 0.01, "projection": projection,
        "mesh": {"kind": "cube", "bounds": UNIT_BOUNDS, "n": [4, 4, 4]},
        "field": {"pi": pi, "applied": {"kind": "academic"},
                  "m0": {"kind": "spiral", "turns": 0.25}},
        "precond": {"kind": kind, "alpha_p": 1.0},
    })


# The energy law's defect, relative to |E(m^n)| + k |v^T M lh|, may reach
# the solver's tolerance (1e-14): about ten times the worst defect of these
# runs, 1.3e-15, which is the rounding of the two energies it subtracts.
LAW_BOUND = 1e-14

UNIAXIAL = {"kind": "uniaxial", "axis": [0.0, 0.0, 1.0], "strength": 2.0}
ZERO = {"kind": "zero"}


def energy(ctx, m):
    return 0.5 * ctx.config.ell_ex2 * float(np.vdot(m, ctx.stiffness @ m))


def law_steps(config, monkeypatch):
    """(ctx, steps) of a run of config: steps holds (m^n, v, weights, lh,
    m^{n+1}) of every step, weights and lh as the step passes them to
    build_system."""
    systems = []
    build_system = scheme_mod.fem.build_system

    def recording(mesh, m, alpha, beta_k, weights, lh, *args, **kwargs):
        systems.append((weights, lh))
        return build_system(mesh, m, alpha, beta_k, weights, lh, *args, **kwargs)

    monkeypatch.setattr(scheme_mod.fem, "build_system", recording)
    ctx = StepContext(config)
    state = ctx.initial_state()
    steps = []
    for _ in range(config.n_steps()):
        m_n = state.m_n
        state, _ = tps_step(ctx, state)
        steps.append((m_n, state.last_v, *systems[-1], state.m_n))
    return ctx, steps


def law_defects(ctx, steps):
    """The energy law's defect at every step, relative to |E(m^n)| + k |v^T M lh|."""
    cfg, k = ctx.config, ctx.k
    if cfg.scheme == "tps1":
        dissipation = k * k * cfg.ell_ex2 * (cfg.theta - 0.5)
    else:
        dissipation = 0.5 * cfg.ell_ex2 * k**3 * abs(math.log(k))
    defects = []
    for m_n, v, weights, lh, _ in steps:
        mass_k = ctx.mass if weights is None else assemble_weighted_mass(ctx.mesh, weights)
        forcing = k * float(np.vdot(v, ctx.mass @ lh))
        predicted = (forcing - k * cfg.alpha * float(np.vdot(v, mass_k @ v))
                     - dissipation * float(np.vdot(v, ctx.stiffness @ v)))
        change = energy(ctx, m_n + k * v) - energy(ctx, m_n)
        defects.append(abs(change - predicted) / (abs(energy(ctx, m_n)) + abs(forcing)))
    return defects


@pytest.mark.parametrize("kind", PRECONDITIONER_KINDS)
@pytest.mark.parametrize("theta, pi", [(1.0, UNIAXIAL), (0.7, ZERO)])
def test_tps1_energy_law_holds_per_step(kind, theta, pi, monkeypatch):
    ctx, steps = law_steps(law_config("tps1", kind, theta, pi, projection=False), monkeypatch)
    for m_n, v, _, _, m_next in steps:
        assert np.array_equal(m_next, m_n + ctx.k * v)
    assert max(law_defects(ctx, steps)) <= LAW_BOUND


@pytest.mark.parametrize("kind", PRECONDITIONER_KINDS)
def test_tps2_energy_law_holds_per_step_before_projection(kind, monkeypatch):
    ctx, steps = law_steps(law_config("tps2", kind, 1.0, UNIAXIAL), monkeypatch)
    assert max(law_defects(ctx, steps)) <= LAW_BOUND


def test_projection_cannot_raise_the_energy_on_the_kuhn_cube(monkeypatch):
    ctx, steps = law_steps(law_config("tps1", "practical", 1.0, ZERO), monkeypatch)
    stiffness = ctx.stiffness.tocoo()
    assert (stiffness.data[stiffness.row != stiffness.col] <= 0.0).all()
    for m_n, v, _, _, m_next in steps:
        assert energy(ctx, m_next) <= energy(ctx, m_n + ctx.k * v)


def macrospin_error(scheme, steps):
    alpha, field, theta0, T = 0.5, 4.0, math.pi / 3, 0.5
    cfg = SimulationConfig.from_dict({
        "scheme": scheme, "alpha": alpha, "T": T, "k": T / steps,
        "mesh": {"kind": "cube", "bounds": UNIT_BOUNDS, "n": [1, 1, 1]},
        "field": {"pi": {"kind": "zero"},
                  "applied": {"kind": "constant", "value": [0.0, 0.0, field]},
                  "m0": {"kind": "constant",
                         "value": [math.sin(theta0), 0.0, math.cos(theta0)]}},
        "precond": {"kind": "stationary", "alpha_p": 1.0},
    })
    ctx = StepContext(cfg)
    state = ctx.initial_state()
    for _ in range(steps):
        state, _ = tps_step(ctx, state)
    scale = 1.0 + alpha * alpha
    theta = 2.0 * math.atan(math.tan(theta0 / 2) * math.exp(-alpha * field * T / scale))
    phi = field * T / scale
    exact = [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    return float(np.abs(state.m_n - exact).max())


@pytest.mark.parametrize("scheme, low, high", [("tps1", 0.9, 1.1), ("tps2", 1.9, 2.1)])
def test_macrospin_converges_at_the_schemes_order(scheme, low, high):
    errors = [macrospin_error(scheme, steps) for steps in (16, 32, 64, 128)]
    rates = np.log2(np.array(errors[:-1]) / errors[1:])
    assert ((low <= rates) & (rates <= high)).all(), rates
