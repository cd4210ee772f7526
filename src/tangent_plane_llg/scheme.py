"""First- and second-order tangent plane time stepping.

Each step solves one linear variational problem in the discrete tangent
space of the current magnetization (reduced to 2N unknowns through nodal
frames) and advances by nodal normalization of m + k v.  The first-order
variant uses a plain mass matrix and needs no weight precomputation; the
second-order variant weights the mass term through a capped function of
the local field strength.
"""

import functools
import math
import os
import types
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from . import fem, precond as precond_mod
from .gmres import GmresError, ReducedOperator, gmres_solve
from .mesh import Mesh, MeshError, check_box, generate_structured_cube, load_mesh
from .physics import applied_field, pi_apply
from .tangent import FIXED_INVOLUTIONS, apply_q, build_frame, frame_gamma, select_tn_adaptive


class ConfigError(ValueError):
    pass


class SolverFailure(RuntimeError):
    def __init__(self, step, message):
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class SchemeCoefficients:
    """Variant-dependent coefficient family of the tangent plane scheme; the
    values, and k in (0, 1) for tps2, are SimulationConfig.validate's to check."""

    variant: str                 # "tps1" | "tps2"
    alpha: float                 # Gilbert damping
    ell_ex2: float               # exchange length squared
    theta: float = 1.0           # first-order stabilization parameter

    def rho(self, k):
        """|k log k| (natural logarithm)."""
        return abs(k * math.log(k))

    def cap(self, k):
        """Weight cap 1 / |k log k| (second-order variant)."""
        return 1.0 / self.rho(k)

    def beta(self, k):
        if self.variant == "tps1":
            return self.ell_ex2 * self.theta
        return 0.5 * self.ell_ex2 * (1.0 + self.rho(k))

    def wk(self, k, s):
        """Weight function W_k; accepts scalars or arrays."""
        if self.variant == "tps1":
            return self.alpha * np.ones_like(np.asarray(s, dtype=np.float64))
        s = np.asarray(s, dtype=np.float64)
        cap = self.cap(k)
        pos = self.alpha + 0.5 * k * np.minimum(np.maximum(s, 0.0), cap)
        neg_arg = np.minimum(np.maximum(-s, 0.0), cap)
        neg = self.alpha / (1.0 + (0.5 * k / self.alpha) * neg_arg)
        return np.where(s >= 0.0, pos, neg)


def lambda_field(mesh, m, f_plus_pi, ell_ex2):
    """Per-element weight input: -ell_ex2 |grad m|^2 + avg((f + pi(m)) . m).

    The gradient term is exactly piecewise constant; the lower-order term is
    the barycenter value of the P1 interpolant of the nodal product.
    """
    m = np.asarray(m, dtype=np.float64).reshape(mesh.N, 3)
    grad = mesh.gradient_components()
    mloc = np.take(m.T, mesh.tets.T, axis=1)  # mloc[c, a, e]: m_c at local vertex a of e
    frob2 = np.zeros(mesh.elem_count)
    for d in range(3):
        for c in range(3):
            # d m_c / d x_d on each element
            dm = (grad[0, d] * mloc[c, 0] + grad[1, d] * mloc[c, 1]
                  + grad[2, d] * mloc[c, 2] + grad[3, d] * mloc[c, 3])
            frob2 += dm * dm
    nodal = np.einsum("nc,nc->n", np.asarray(f_plus_pi, dtype=np.float64), m)
    lower = nodal[mesh.tets].mean(axis=1)
    return -ell_ex2 * frob2 + lower


def lh_term(coeffs, pi_n, pi_nm1, applied, t_n, k):
    """Nodal lower-order right-hand-side combination for the current step,
    given pi_n = pi(m^n), pi_nm1 = pi(m^{n-1}) and applied(t), the nodal
    applied field at time t: taken at t_n by tps1, at t_n + k/2 by tps2."""
    if coeffs.variant == "tps1":
        return pi_n + applied(t_n)
    return 1.5 * pi_n - 0.5 * pi_nm1 + applied(t_n + 0.5 * k)


def assert_unit_nodal(m, tol=1e-14):
    worst = float(np.abs(np.linalg.norm(m, axis=1) - 1.0).max())
    if not worst <= tol:  # NaN fails too
        raise ValueError(f"field leaves the unit sphere by {worst:.3e} at some node")
    return worst


def tangency_defect(m, v):
    """max over nodes of |v . m|, and the scale 1 + max |v|."""
    dots = np.abs(np.einsum("nc,nc->n", m, v))
    return float(dots.max()), 1.0 + float(np.abs(v).max())


def normalize_update(m, v, k):
    """Nodewise (m + k v)/|m + k v| with the orthogonality identity asserted.

    Requires v tangent to m at every node; then |m + kv|^2 = |m|^2 + k^2|v|^2
    never falls below 1 for unit m.
    """
    m = np.asarray(m, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    defect, scale = tangency_defect(m, v)
    if defect > 1e-8 * scale:
        worst = int(np.argmax(np.abs(np.einsum("nc,nc->n", m, v))))
        raise ValueError(
            f"update is not tangent: |v.m| = {defect:.3e} at node {worst} (scale {scale:.3e})")
    updated = m + k * v
    nsq = np.einsum("nc,nc->n", updated, updated)
    predicted = np.einsum("nc,nc->n", m, m) + k * k * np.einsum("nc,nc->n", v, v)
    err = float(np.abs(nsq - predicted).max() / (1.0 + predicted.max()))
    if err > 1e-10:
        raise ValueError(f"orthogonality identity violated by {err:.3e}")
    return updated / np.sqrt(nsq)[:, None]


def exchange_energy(stiffness, m, ell_ex2):
    """(ell_ex2 / 2) ||grad m||_L2^2 from the assembled stiffness matrix."""
    m = np.asarray(m, dtype=np.float64)
    return 0.5 * ell_ex2 * float(np.einsum("nc,nc->", m, stiffness @ m))


@dataclass
class TimeStepState:
    n: int
    t_n: float
    m_n: np.ndarray
    pi_nm1: np.ndarray = None  # pi(m^{n-1}), from the last step; None at step 0
    last_stats: object = None
    last_v: np.ndarray = None


@dataclass
class StepRecord:
    """One step's row of the step CSV: a column per field, in this order."""

    step: int
    t: float
    gmres_iterations: int
    restarts: int
    final_residual: float
    gamma: float
    d_adapt: float
    exchange_energy: float


STEP_CSV_HEADER = ",".join(f.name for f in fields(StepRecord))


TN_MODES = ("adaptive",) + tuple(sorted(FIXED_INVOLUTIONS))

# CONFIG_TABLE entries that are not plain defaults: a string from options, a
# section whose keys depend on its "kind" (variants: kind -> {key: default}),
# and a key without default whose example gives the type of its value.
Choice = namedtuple("Choice", "default options")
Kinds = namedtuple("Kinds", "default variants")
Required = namedtuple("Required", "example")

# The one table of config keys, defaults and allowed values.  A value must
# have the type of its default: bool, integer, finite real, string, or a
# list of these as long as the default (resolved as a tuple).
CONFIG_TABLE = {
    "scheme": Choice("tps1", ("tps1", "tps2")),
    "alpha": 0.5,
    "theta": 1.0,
    "ell_ex2": 10.0,
    "T": 0.05,
    "k": 0.01,
    "projection": True,
    "mesh": Kinds("cube", {
        "cube": {"bounds": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]], "n": [2, 2, 2]},
        "file": {"path": Required("")},
    }),
    "field": {
        "pi": Kinds("zero", {
            "zero": {},
            "uniaxial": {"axis": Required([0.0, 0.0, 0.0]), "strength": Required(0.0)},
            "zhang_li": {"u": Required([0.0, 0.0, 0.0]), "beta_zl": 0.05},
        }),
        "applied": Kinds("academic", {
            "academic": {},
            "constant": {"value": [0.0, 0.0, 0.0]},
        }),
        "m0": Kinds("constant", {
            "constant": {"value": [1.0, 0.0, 0.0]},
            "spiral": {"turns": 1.0},
        }),
    },
    "solver": {"tol": 1e-14, "restart": 200, "maxit": 100000},
    "precond": {"kind": Choice("stationary", precond_mod.PRECONDITIONER_KINDS),
                "alpha_p": 1.0, "rebuild_every": 1},
    # the Householder reflection is the one frame; the key stays because
    # bench/configs/*.json name it
    "frame": {"tn": Choice("adaptive", TN_MODES),
              "strategy": Choice("householder", ("householder",))},
    # dir "" writes no files; the sweep runner sets dir and basename per point
    "output": {"dir": "", "basename": "steps", "snapshot_every": 0, "residual_csv": False},
}

_MISSING = object()


def _join(path, key):
    return f"{path}.{key}" if path else key


def _resolve(path, value, spec):
    """value checked against spec and converted to the type of its default,
    with the defaults of spec filled in; ConfigError on any mismatch."""
    if isinstance(spec, (dict, Kinds)):
        value = {} if value is _MISSING else value
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object, got {value!r}")
    if isinstance(spec, Kinds):
        kind = value.get("kind", spec.default)
        if kind not in list(spec.variants):
            raise ConfigError(f"{_join(path, 'kind')}: unknown kind {kind!r}, "
                              f"expected one of {list(spec.variants)}")
        rest = {key: val for key, val in value.items() if key != "kind"}
        return {"kind": kind, **_resolve(path, rest, spec.variants[kind])}
    if isinstance(spec, dict):
        unknown = [_join(path, key) for key in sorted(set(value) - set(spec))]
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        return {key: _resolve(_join(path, key), value.get(key, _MISSING), sub)
                for key, sub in spec.items()}
    if isinstance(spec, Choice):
        if value is _MISSING:
            return spec.default
        if value not in spec.options:
            raise ConfigError(f"{path}: unknown value {value!r}, "
                              f"expected one of {list(spec.options)}")
        return value
    if isinstance(spec, Required):
        if value is _MISSING:
            raise ConfigError(f"{path} is required")
        spec = spec.example
    elif value is _MISSING:
        value = spec
    if isinstance(spec, list):
        if not isinstance(value, (list, tuple)) or len(value) != len(spec):
            raise ConfigError(f"{path} must be a list of {len(spec)}, got {value!r}")
        return tuple(_resolve(f"{path}[{i}]", val, ex)
                     for i, (val, ex) in enumerate(zip(value, spec)))
    if type(spec) in (int, float):
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise ConfigError(f"{path} must be a finite number, got {value!r}")
        if isinstance(spec, float):
            return float(value)
        if value != int(value):
            raise ConfigError(f"{path} must be an integer, got {value!r}")
        return int(value)
    if not isinstance(value, type(spec)):
        raise ConfigError(f"{path} must be a {type(spec).__name__}, got {value!r}")
    return value


def config_schema():
    """CONFIG_TABLE as plain data: the default document, the options of
    every enum, and the keys of every kind (null marks a required key)."""
    enums, kinds = {}, {}

    def plain(path, spec):
        if isinstance(spec, Choice):
            enums[path] = list(spec.options)
            return spec.default
        if isinstance(spec, Kinds):
            enums[_join(path, "kind")] = list(spec.variants)
            kinds[path] = {kind: plain(path, keys) for kind, keys in spec.variants.items()}
            return {"kind": spec.default, **kinds[path][spec.default]}
        if isinstance(spec, dict):
            return {key: plain(_join(path, key), sub) for key, sub in spec.items()}
        return None if isinstance(spec, Required) else _resolve(path, spec, spec)

    return {"enums": enums, "kinds": kinds, "defaults": plain("", CONFIG_TABLE)}


@functools.lru_cache(maxsize=1)
def _cube_mesh(bounds, n):
    """The cube mesh of the last (bounds, n) asked for: a Mesh is immutable,
    so sweep points on the same cube can share it and what it caches."""
    return generate_structured_cube(bounds, n)


class SimulationConfig(types.SimpleNamespace):
    """A resolved config: the document that _resolve returns over
    CONFIG_TABLE, checked, with each top-level key as the attribute of its
    name (cfg.k, cfg.field["pi"]).  CONFIG_TABLE alone states its keys."""

    @staticmethod
    def from_dict(d):
        """Resolve a config document over CONFIG_TABLE.

        Raises ConfigError on an unknown key or kind, a value of the wrong
        type, and every range check of validate().  A top-level "sweep" is
        the experiment runner's and is ignored here.
        """
        doc = {key: val for key, val in d.items() if key != "sweep"}
        return SimulationConfig(**_resolve("", doc, CONFIG_TABLE)).validate()

    def validate(self):
        """ConfigError on the first value out of range: every range rule of
        a config, stated once (_resolve checks kinds, choices and types)."""
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError(f"theta must be in (0, 1], got {self.theta}")
        if self.ell_ex2 < 0.0:
            raise ConfigError(f"ell_ex2 must be nonnegative, got {self.ell_ex2}")
        if self.k <= 0.0:
            raise ConfigError(f"time step must be positive, got {self.k}")
        if self.scheme == "tps2" and self.k >= 1.0:
            raise ConfigError("second-order variant needs k in (0, 1): |log k| degenerates")
        if self.T <= 0:
            raise ConfigError(f"final time must be positive, got {self.T}")
        steps = self.T / self.k
        if not math.isfinite(steps):
            raise ConfigError(f"T/k = {steps} is not a finite step count")
        if abs(steps - round(steps)) > 1e-8 * max(1.0, steps):
            raise ConfigError(f"T/k = {steps} is not an integer step count")
        if not self.projection and self.scheme != "tps1":
            raise ConfigError("projection can only be skipped for the first-order scheme")
        if self.solver["tol"] <= 0:
            raise ConfigError(f"solver.tol must be positive, got {self.solver['tol']!r}")
        for key in ("restart", "maxit"):
            if self.solver[key] < 1:
                raise ConfigError(f"solver.{key} must be >= 1, got {self.solver[key]!r}")
        if self.precond["alpha_p"] <= 0:
            raise ConfigError("precond.alpha_p must be positive")
        if self.precond["rebuild_every"] < 1:
            raise ConfigError("precond.rebuild_every must be >= 1")
        if self.output["snapshot_every"] < 0:
            raise ConfigError("output.snapshot_every must be >= 0, "
                              f"got {self.output['snapshot_every']!r}")
        if self.mesh["kind"] == "cube":
            try:  # before any mesh is built
                check_box(self.mesh["bounds"], self.mesh["n"])
            except MeshError as exc:  # its message starts with the key at fault
                raise ConfigError(f"mesh.{exc}") from exc
        elif not (os.path.isfile(self.mesh["path"]) and os.access(self.mesh["path"], os.R_OK)):
            raise ConfigError(f"mesh.path: {self.mesh['path']!r} is not a readable file")
        m0 = self.field["m0"]
        if m0["kind"] == "constant" and not any(m0["value"]):
            raise ConfigError("field.m0.value must be a nonzero vector")
        if m0["kind"] == "spiral":
            # a file mesh's x-extent is checked once the file is read; here,
            # on a unit extent, that 2 pi turns is finite
            x_lo, x_hi = self.mesh["bounds"][0] if self.mesh["kind"] == "cube" else (0.0, 1.0)
            check_spiral_phase(m0["turns"], x_lo, x_hi)
        pi = self.field["pi"]
        if pi["kind"] == "uniaxial":
            norm = math.hypot(*pi["axis"])  # neither overflows nor underflows
            if abs(norm - 1.0) > 1e-12:
                raise ConfigError(f"field.pi: anisotropy axis must be unit length, |a| = {norm}")
        return self

    def coefficients(self):
        return SchemeCoefficients(variant=self.scheme, alpha=self.alpha,
                                  ell_ex2=self.ell_ex2, theta=self.theta)

    def n_steps(self):
        return int(round(self.T / self.k))

    def build_mesh(self):
        """The mesh of the config: a file mesh is read on every call, a cube
        mesh comes from a one-entry memo keyed by its bounds and n."""
        if self.mesh["kind"] == "cube":
            return _cube_mesh(self.mesh["bounds"], self.mesh["n"])
        with open(self.mesh["path"], "rb") as fh:
            return load_mesh(fh)


def check_spiral_phase(turns, x_lo, x_hi):
    """ConfigError unless the largest intermediate of the spiral phase of
    initial_magnetization, 2 pi turns (x_hi - x_lo), is finite on a mesh
    whose nodes span [x_lo, x_hi] in x."""
    if not math.isfinite(2.0 * math.pi * turns * (x_hi - x_lo)):
        raise ConfigError("field.m0.turns: the spiral phase 2 pi turns (x_hi - x_lo) "
                          f"is not finite, got turns = {turns!r} on x in [{x_lo!r}, {x_hi!r}]")


def initial_magnetization(cfg, mesh):
    """Nodal unit field from the resolved m0 config section."""
    if cfg["kind"] == "constant":
        value = np.asarray(cfg["value"], dtype=np.float64)
        # scaled first, so that the norm neither overflows nor underflows
        value = value / np.abs(value).max()
        value = value / np.linalg.norm(value)
        return np.tile(value, (mesh.N, 1))
    # spiral: unit field winding in the (1,2)-plane along the first axis
    x = mesh.nodes[:, 0]
    span = x.max() - x.min()
    phase = 2.0 * np.pi * cfg["turns"] * (x - x.min()) / (span if span > 0 else 1.0)
    m = np.zeros((mesh.N, 3))
    m[:, 0] = np.cos(phase)
    m[:, 1] = np.sin(phase)
    return m


class StepContext:
    """Per-run data, all built at set-up: the mesh, its static matrices, the
    applied field as a function of time alone, and the run's
    PreconditionerSource, which each step asks for that step's
    preconditioner (the only state that changes).  config is a resolved
    config (SimulationConfig.from_dict), not checked again; a step reads
    its field.pi section as it is."""

    def __init__(self, config, mesh=None):
        self.config = config
        self.mesh = mesh if mesh is not None else config.build_mesh()
        self.coeffs = config.coefficients()
        self.k = float(config.k)
        self.beta_k = self.coeffs.beta(self.k) * self.k
        self.mass = fem.assemble_mass(self.mesh)
        self.stiffness = fem.assemble_stiffness(self.mesh)
        self.applied = functools.partial(applied_field, config.field["applied"], self.mesh)
        # the precond section holds exactly the options of PreconditionerSource
        self.preconditioners = precond_mod.PreconditionerSource(
            self.mesh, self.mass, self.stiffness, self.beta_k, **config.precond)

    def initial_state(self):
        m0 = initial_magnetization(self.config.field["m0"], self.mesh)
        try:
            assert_unit_nodal(m0, tol=1e-12)
        except ValueError as exc:
            raise ConfigError(f"field.m0: {exc}") from exc
        return TimeStepState(n=0, t_n=0.0, m_n=m0)


def tps_step(ctx, state):
    """One step of the tangent plane scheme; returns (new_state, record).
    A numerical failure of the step raises SolverFailure with its index."""
    cfg = ctx.config
    coeffs = ctx.coeffs
    mesh = ctx.mesh
    k = ctx.k
    m = state.m_n

    norms = np.linalg.norm(m, axis=1)
    mdir = m / norms[:, None]

    selection = select_tn_adaptive(mdir)
    tn = cfg.frame["tn"]
    T = selection.chosen_T if tn == "adaptive" else FIXED_INVOLUTIONS[tn]
    frame = build_frame(mdir, T)

    pi_n = pi_apply(cfg.field["pi"], mesh, m)
    if coeffs.variant == "tps2":
        f_plus_pi = ctx.applied(state.t_n) + pi_n
        lam = lambda_field(mesh, m, f_plus_pi, coeffs.ell_ex2)
        with np.errstate(over="ignore", invalid="ignore"):
            weights = coeffs.wk(k, lam) / coeffs.alpha
        if not np.isfinite(weights).all():  # W_k / alpha overflows for a tiny alpha
            raise SolverFailure(state.n, f"non-finite W_k weights (alpha = {coeffs.alpha!r})")
    else:
        # first-order: W_k is the constant alpha, so the weighted mass is the mass
        weights = None

    # at step 0, pi(m^0) serves for both time levels
    pi_nm1 = pi_n if state.pi_nm1 is None else state.pi_nm1
    lh = lh_term(coeffs, pi_n, pi_nm1, ctx.applied, state.t_n, k)
    system = fem.build_system(mesh, m, coeffs.alpha, ctx.beta_k, weights, lh,
                              coeffs.ell_ex2, mass=ctx.mass, stiffness=ctx.stiffness)

    try:
        pc = ctx.preconditioners.for_step(frame, state.n)
        op = ReducedOperator(system, frame)
        # the solver section holds exactly the options of gmres_solve
        x, stats = gmres_solve(op, pc, op.reduced_rhs(), **cfg.solver)
        if not stats.converged:
            reason = "stagnated" if stats.stagnated else "did not converge within maxit"
            raise SolverFailure(state.n, f"GMRES {reason} at residual "
                                f"{stats.final_relative_residual:.3e} "
                                f"after {stats.iterations} iterations")
        v = apply_q(frame, x).reshape(mesh.N, 3)
        defect, scale = tangency_defect(m, v)
        if defect > 1e-8 * scale:
            raise SolverFailure(state.n, f"solved update lost tangency: {defect:.3e}")
        m_next = normalize_update(m, v, k) if cfg.projection else m + k * v
    except (GmresError, precond_mod.PreconditionerError, ValueError, ArithmeticError) as exc:
        raise SolverFailure(state.n, str(exc)) from exc

    record = StepRecord(
        step=state.n,
        t=state.t_n,
        gmres_iterations=stats.iterations,
        restarts=stats.restarts,
        final_residual=stats.final_relative_residual,
        gamma=frame_gamma(mdir, T),
        d_adapt=selection.gamma,
        exchange_energy=exchange_energy(ctx.stiffness, m, coeffs.ell_ex2),
    )
    new_state = TimeStepState(n=state.n + 1, t_n=state.t_n + k, m_n=m_next,
                              pi_nm1=pi_n, last_stats=stats, last_v=v)
    return new_state, record


@dataclass
class SimulationResult:
    config: SimulationConfig
    mesh: Mesh
    records: list
    step_stats: list
    final_state: TimeStepState
    precond_builds: int

    def average_iterations(self):
        return float(np.mean([r.gmres_iterations for r in self.records]))

    def max_iterations(self):
        return int(max(r.gmres_iterations for r in self.records))


def run_simulation(config, mesh=None):
    """Run T/k steps; returns records, per-step solver stats and final state.

    Deterministic for a fixed config.  If config.output carries a directory,
    per-step CSV rows and optional field snapshots are written as the run
    progresses (partial output survives a failing step).
    """
    ctx = StepContext(config, mesh=mesh)
    cfg = ctx.config
    n_steps = cfg.n_steps()
    state = ctx.initial_state()

    out_dir = cfg.output["dir"]
    basename = cfg.output["basename"]
    snapshot_every = cfg.output["snapshot_every"]
    csv_fh = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        csv_fh = open(os.path.join(out_dir, basename + ".csv"), "w", encoding="utf-8")
        csv_fh.write(STEP_CSV_HEADER + "\n")

    records = []
    step_stats = []
    try:
        for n in range(n_steps):
            state, record = tps_step(ctx, state)
            records.append(record)
            step_stats.append(state.last_stats)
            if csv_fh is not None:
                csv_fh.write(format_step_row(record) + "\n")
                csv_fh.flush()
            if out_dir and cfg.output["residual_csv"]:
                path = os.path.join(out_dir, f"{basename}_residuals_step{record.step:06d}.csv")
                write_residual_csv(state.last_stats, path)
            if out_dir and snapshot_every > 0 and (record.step + 1) % snapshot_every == 0:
                path = os.path.join(out_dir, f"{basename}_m_{record.step + 1:06d}.vtk")
                write_vtk(ctx.mesh, state.m_n, path)
    finally:
        if csv_fh is not None:
            csv_fh.close()

    return SimulationResult(config=cfg, mesh=ctx.mesh, records=records,
                            step_stats=step_stats, final_state=state,
                            precond_builds=ctx.preconditioners.builds)


def _fmt(v):
    return repr(float(v))


def format_step_row(r):
    """The step CSV row of record r: an int field by str, a float by _fmt."""
    return ",".join((str if f.type is int else _fmt)(getattr(r, f.name))
                    for f in fields(StepRecord))


def write_residual_csv(stats, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,residual\n")
        for i, res in enumerate(stats.residual_history):
            fh.write(f"{i},{_fmt(res)}\n")


def write_vtk(mesh, m, path):
    """Legacy ASCII VTK snapshot with the nodal field as POINT_DATA vectors."""
    lines = [
        "# vtk DataFile Version 3.0",
        "magnetization snapshot",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.N} double",
    ]
    lines += [" ".join(_fmt(c) for c in p) for p in mesh.nodes]
    lines.append(f"CELLS {mesh.elem_count} {5 * mesh.elem_count}")
    lines += ["4 " + " ".join(str(i) for i in t) for t in mesh.tets]
    lines.append(f"CELL_TYPES {mesh.elem_count}")
    lines += ["10"] * mesh.elem_count
    lines.append(f"POINT_DATA {mesh.N}")
    lines.append("VECTORS m double")
    lines += [" ".join(_fmt(c) for c in row) for row in np.asarray(m)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
