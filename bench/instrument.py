"""Wrappers the benchmark installs around the program's functions.

Nothing under src/ is edited: every probe replaces a module or class
attribute for the duration of one round and restores it afterwards.  Names
are patched in the namespace that calls them (for example
``scheme.build_frame``, not ``tangent.build_frame``), because the program
binds them with ``from .x import y``.

Two kinds of probe exist:

* ``Tracer`` keeps, per span name, the call count, the total time and the
  self time (total minus the time of wrapped children).  On every round it
  wraps the four calls the end-to-end times are summed from: mesh build,
  mesh quality, ``StepContext`` and ``tps_step``.  On traced rounds it also
  wraps the public functions of the mesh, fem, tangent, precond, gmres and
  scheme layers.
* ``Recorder`` is installed on every round.  It keeps what each sweep point
  did (N, preconditioner, step count, last GMRES solve) and runs the
  correctness checks outside the timed sweep.
"""

import time
from collections import defaultdict

import checks


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name, make):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Point:
    """What one sweep point did, as seen from outside the program."""

    def __init__(self, index):
        self.index = index
        self.steps = 0
        self.n_nodes = 0
        self.kind = None
        self.alpha_p = None
        self.iterations = 0
        self.restarts = 0
        self.avg_iterations = 0.0
        self.failures = []
        self.last_solve = None

    @property
    def failed(self):
        return bool(self.failures)


class Recorder:
    """Per-round capture of what each sweep point did, and its checks."""

    def __init__(self, pkg, out_dir, point_check, rng, tracer):
        self.pkg = pkg
        self.out_dir = out_dir
        self.point_check = point_check
        self.rng = rng
        self.tracer = tracer
        self.points = []
        self.check_s = 0.0

    def _current(self):
        return self.points[-1]

    def install(self, patches):
        cli, scheme = self.pkg.cli, self.pkg.scheme
        calls = self.tracer.calls

        def build_mesh(fn):
            # the sweep loop builds the mesh first, so a new point starts here
            def wrapper(cfg):
                self.points.append(Point(len(self.points)))
                return fn(cfg)
            return wrapper

        def gmres_solve(fn):
            def wrapper(op, precond, b, **kwargs):
                x, stats = fn(op, precond, b, **kwargs)
                self._current().last_solve = (op, x)
                return x, stats
            return wrapper

        def run_simulation(fn):
            def wrapper(cfg, mesh=None, **kwargs):
                point = self._current()
                point.kind = cfg.precond["kind"]
                point.alpha_p = float(cfg.precond["alpha_p"])
                point.n_nodes = mesh.N
                steps_before = calls["scheme.step"]
                try:
                    result = fn(cfg, mesh=mesh, **kwargs)
                except scheme.SolverFailure as exc:
                    point.failures.append(f"solver failure: {exc}")
                    point.last_solve = None
                    raise
                finally:
                    point.steps = calls["scheme.step"] - steps_before
                self._check(point, result)
                return result
            return wrapper

        patches.wrap(scheme.SimulationConfig, "build_mesh", build_mesh)
        patches.wrap(scheme, "gmres_solve", gmres_solve)
        patches.wrap(cli, "run_simulation", run_simulation)

    def _check(self, point, result):
        started = time.perf_counter()
        self.tracer.paused = True
        try:
            records = result.records
            point.iterations = sum(r.gmres_iterations for r in records)
            point.restarts = sum(r.restarts for r in records)
            point.avg_iterations = result.average_iterations()
            point.failures += checks.check_point(result, point.last_solve,
                                                 self.out_dir, self.rng)
            if self.point_check is not None:
                point.failures += self.point_check(result)
        finally:
            point.last_solve = None
            self.tracer.paused = False
            self.check_s += time.perf_counter() - started


class Tracer:
    """Span timing and call counts at the boundaries of the program's layers."""

    def __init__(self, pkg, layers):
        self.pkg = pkg
        self.layers = layers
        self.paused = False
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.fill_nnz = 0
        self.solves = []
        self._stack = []

    def span(self, name):
        clock = time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                if self.paused:
                    return fn(*args, **kwargs)
                self.calls[name] += 1
                frame = [0.0]
                self._stack.append(frame)
                started = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - started
                    self._stack.pop()
                    self.total[name] += elapsed
                    self.self_time[name] += elapsed - frame[0]
                    if self._stack:
                        self._stack[-1][0] += elapsed
            return traced
        return make

    def install(self, patches):
        pkg = self.pkg
        cli, scheme, fem = pkg.cli, pkg.scheme, pkg.fem
        precond, gmres = pkg.precond, pkg.gmres

        spans = [
            (scheme.SimulationConfig, "build_mesh", "mesh.build"),
            (cli, "mesh_quality", "mesh.quality"),
            (scheme, "StepContext", "scheme.setup"),
            (scheme, "tps_step", "scheme.step"),
        ]
        for owner, attr, name in spans:
            patches.wrap(owner, attr, self.span(name))
        if not self.layers:
            return
        spans = [
            (cli, "run_simulation", "scheme.run"),
            (scheme, "lambda_field", "scheme.lambda"),
            (scheme, "normalize_update", "scheme.project"),
            (scheme, "exchange_energy", "scheme.energy"),
            (scheme, "select_tn_adaptive", "tangent.select"),
            (scheme, "build_frame", "tangent.frame"),
            (scheme, "apply_q", "tangent.q"),
            (gmres, "apply_q", "tangent.q"),
            (gmres, "apply_qt", "tangent.q"),
            (precond, "apply_q", "tangent.q"),
            (precond, "apply_qt", "tangent.q"),
            (fem, "assemble_mass", "fem.static"),
            (fem, "assemble_stiffness", "fem.static"),
            (fem, "build_system", "fem.system"),
            (fem, "assemble_cross", "fem.cross"),
            (fem, "assemble_weighted_mass", "fem.weighted_mass"),
            (fem, "assemble_rhs", "fem.rhs"),
            (precond, "ScalarFactorization", "precond.build"),
            (precond, "build_theoretical", "precond.build"),
            (precond, "build_practical", "precond.build"),
            (precond, "build_stationary_2d", "precond.build"),
            (precond, "build_jacobi", "precond.build"),
            (precond, "build_none", "precond.build"),
            (precond.Preconditioner, "apply", "precond.apply"),
            (gmres.ReducedOperator, "matvec", "gmres.matvec"),
        ]
        for owner, attr, name in spans:
            patches.wrap(owner, attr, self.span(name))
        patches.wrap(precond, "splu", self._splu)
        patches.wrap(scheme, "gmres_solve", self._gmres_solve)

    def _splu(self, fn):
        traced = self.span("precond.factor")(fn)

        def wrapper(*args, **kwargs):
            lu = traced(*args, **kwargs)
            self.fill_nnz = max(self.fill_nnz, int(lu.nnz))
            return lu
        return wrapper

    def _gmres_solve(self, fn):
        traced = self.span("gmres.solve")(fn)

        def wrapper(*args, **kwargs):
            op0 = self.calls["gmres.matvec"]
            pc0 = self.calls["precond.apply"]
            x, stats = traced(*args, **kwargs)
            self.solves.append((self.calls["gmres.matvec"] - op0,
                                self.calls["precond.apply"] - pc0, stats.op_applies,
                                stats.precond_applies, stats.iterations,
                                stats.residual_computations, stats.restarts))
            return x, stats
        return wrapper

    def reconcile(self):
        """Failures of the wrapped counts against the program's SolverStats.

        gmres_solve books one operator and one preconditioner apply for the
        start residual of every solve, which from a zero initial guess it
        takes as P b without calling either.  The offset d between the
        booked and the performed applies must therefore be the same, 0 or 1,
        in every solve of the run; with it the identities below are exact.
        """
        offsets = {stats_op - op for op, _, stats_op, *_ in self.solves}
        if len(offsets) != 1 or not offsets <= {0, 1}:
            return [f"op_applies offset per solve is not one constant in {{0, 1}}: "
                    f"{sorted(offsets)}"]
        d = offsets.pop()
        bad = []
        for i, (op, pc, s_op, s_pc, its, rescomp, restarts) in enumerate(self.solves):
            if pc + d != s_pc:
                bad.append(f"solve {i}: {pc} precond applies, SolverStats {s_pc}")
            if op + d != its + rescomp:
                bad.append(f"solve {i}: {op} op applies != {its} iterations "
                           f"+ {rescomp} residuals - {d}")
            if restarts != rescomp - 2:
                bad.append(f"solve {i}: {restarts} restarts, {rescomp} residuals")
        return bad

    def setup_s(self):
        """Set-up time of the sweep: mesh build and quality, StepContext."""
        t = self.total
        return t["mesh.build"] + t["mesh.quality"] + t["scheme.setup"]

    def metrics(self):
        t, s, c = self.total, self.self_time, self.calls
        return {
            "mesh.build_s": (t["mesh.build"], "s"),
            "mesh.quality_s": (t["mesh.quality"], "s"),
            "fem.static_s": (t["fem.static"], "s"),
            "fem.cross_s": (t["fem.cross"], "s"),
            "fem.weighted_mass_s": (t["fem.weighted_mass"], "s"),
            "fem.rhs_s": (t["fem.rhs"], "s"),
            "fem.system_s": (t["fem.system"], "s"),
            "tangent.select_s": (t["tangent.select"], "s"),
            "tangent.frame_s": (t["tangent.frame"], "s"),
            "tangent.q_s": (t["tangent.q"], "s"),
            "tangent.q_applies": (c["tangent.q"], "count"),
            "precond.build_s": (t["precond.build"], "s"),
            "precond.factor_s": (t["precond.factor"], "s"),
            "precond.factorizations": (c["precond.factor"], "count"),
            "precond.fill_nnz": (self.fill_nnz, "count"),
            "precond.apply_s": (t["precond.apply"], "s"),
            "precond.applies": (c["precond.apply"], "count"),
            "gmres.solve_s": (t["gmres.solve"], "s"),
            "gmres.arnoldi_s": (s["gmres.solve"], "s"),
            "gmres.matvec_s": (t["gmres.matvec"], "s"),
            "gmres.op_applies": (c["gmres.matvec"], "count"),
            "gmres.iterations": (sum(row[4] for row in self.solves), "count"),
            "gmres.restarts": (sum(row[6] for row in self.solves), "count"),
            "scheme.setup_s": (t["scheme.setup"], "s"),
            "scheme.step_s": (t["scheme.step"], "s"),
            "scheme.step_self_s": (s["scheme.step"], "s"),
            "scheme.lambda_s": (t["scheme.lambda"], "s"),
            "scheme.project_s": (t["scheme.project"], "s"),
            "scheme.energy_s": (t["scheme.energy"], "s"),
            "scheme.output_s": (s["scheme.run"], "s"),
        }
