"""Command line with two subcommands.  `run` sweeps a config over mesh
sizes, preconditioners, alpha_P and frame axis modes, writing per-step and
summary CSV files plus optional VTK snapshots; `schema` prints the config
table.  Plot rendering stays out of scope; the CSVs are ready for gnuplot
or a spreadsheet.

Exit codes: 0 success; 2 an error the pre-flight finds, before any output
is written; 3 a sweep point that failed after it (numerical, out of
memory, I/O, or its mesh file changed), its partial outputs kept and the
later points still run.
"""

import argparse
import copy
import itertools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .mesh import MeshError, load_mesh, mesh_quality
from .precond import PRECONDITIONER_KINDS, PreconditionerError
from .scheme import (TN_MODES, ConfigError, SimulationConfig, SolverFailure,
                     _fmt, check_spiral_phase, config_schema, run_simulation)

SUMMARY_HEADER = ("h,k,precond,alpha,alpha_p,tn_mode,"
                  "avg_iterations,max_iterations,steps,wall_time_s")

# sweep axis -> (the config key it sets, its schema text), in sweep order;
# an override of that key pins the axis
SWEEP_AXES = {"mesh": ("mesh", "[mesh configs]"),
              "precond": ("precond.kind", "[kinds]"),
              "alpha_p": ("precond.alpha_p", "[floats]"),
              "tn": ("frame.tn", "[modes]")}


def print_config_schema(out=None):
    """Emit the config table: defaults, allowed values and per-kind keys."""
    out = out if out is not None else sys.stdout
    schema = {
        "description": "simulation config; an optional top-level 'sweep' crosses mesh "
                       "configs, preconditioners, alpha_p values and tn modes; "
                       "under 'kinds', null marks a key that its kind requires",
        "sweep": {axis: text for axis, (_, text) in SWEEP_AXES.items()},
        **config_schema(),
    }
    json.dump(schema, out, indent=2)
    out.write("\n")


def _sweep_points(doc):
    """Cartesian product over the sweep axes, in deterministic order; an
    axis the sweep leaves out takes its value from the resolved config."""
    base = SimulationConfig.from_dict(doc)
    sweep = doc.get("sweep", {})
    if not isinstance(sweep, dict):
        raise ConfigError(f"sweep must be an object, got {sweep!r}")
    unknown = set(sweep) - set(SWEEP_AXES)
    if unknown:
        raise ConfigError(f"unknown sweep axes: {sorted(unknown)}")
    for axis, values in sweep.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep axis {axis!r} must be a non-empty list")
    axes = {"mesh": [base.mesh], "precond": [base.precond["kind"]],
            "alpha_p": [base.precond["alpha_p"]], "tn": [base.frame["tn"]], **sweep}
    return list(itertools.product(*(axes[axis] for axis in SWEEP_AXES)))


def _point_config(doc, *point):
    """The resolved config of one sweep point (values in SWEEP_AXES order)."""
    keys = [key for key, _ in SWEEP_AXES.values()]
    return SimulationConfig.from_dict(_apply_overrides(doc, dict(zip(keys, point))))


def run_experiment(config_path, out_dir=None, overrides=None):
    """Run every sweep point; returns the process exit code.

    overrides maps dotted config keys to values; one that sets the key of a
    sweep axis replaces that axis by its single value.  The pre-flight
    resolves every point and reads every mesh file before any output; what
    it finds gives 2 with nothing written.  After it, a point that fails
    (_run_point) gives 3 and the later points still run.
    """
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ConfigError(f"a config is a JSON object, got {type(doc).__name__}")
        overrides = overrides or {}
        doc = _apply_overrides(doc, overrides)
        if isinstance(doc.get("sweep"), dict):
            pinned = {axis for axis, (key, _) in SWEEP_AXES.items() if key in overrides}
            doc["sweep"] = {axis: values for axis, values in doc["sweep"].items()
                            if axis not in pinned}
        configs = [_point_config(doc, *point) for point in _sweep_points(doc)]
        meshes = {path: _check_mesh_file(path) for path in
                  sorted({cfg.mesh["path"] for cfg in configs if cfg.mesh["kind"] == "file"})}
        for cfg in configs:
            m0 = cfg.field["m0"]
            if cfg.mesh["kind"] == "file" and m0["kind"] == "spiral":
                x = meshes[cfg.mesh["path"]].nodes[:, 0]
                check_spiral_phase(m0["turns"], float(x.min()), float(x.max()))
        out_dir = out_dir or configs[0].output["dir"] or "out"
        os.makedirs(out_dir, exist_ok=True)
        summary = open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8")
    # ValueError: a ConfigError, or a file that json cannot read (not UTF-8,
    # not JSON, or an integer too long); RecursionError: one nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    code = 0
    # the scalar factorizations of the current mesh, by (alpha_P, beta_k)
    factors, factors_mesh = {}, None
    with summary:
        summary.write(SUMMARY_HEADER + "\n")
        for idx, cfg in enumerate(configs):
            if cfg.mesh != factors_mesh:
                factors.clear()  # before the next mesh is built
                factors_mesh = cfg.mesh
            code = max(code, _run_point(idx, len(configs), cfg, out_dir, summary, factors))
    return code


def _run_point(idx, count, cfg, out_dir, summary, factors):
    """Run sweep point idx of count into out_dir, write its summary row and
    progress line; returns its exit code, 0 or 3.

    The point's mesh, set-up and result live only in this call, so none of
    them is reachable when the next point builds its mesh: a sweep holds one
    point at a time, and the one-entry cube memo frees the last mesh with
    its caches.  factors is the sweep's table of scalar factorizations on
    this point's mesh (PreconditionerSource), which the caller empties
    before a point on another mesh; a factorization the point builds is
    timed in its wall time.  Whatever ends the point early, from building
    its mesh to writing its row, ends it the same way: one line naming the
    point on stderr, its partial outputs kept, 3.  That is a numerical
    failure (a SolverFailure in a step, a PreconditionerError at set-up, or
    a floating-point overflow, invalid operation or division by zero
    anywhere), a MemoryError, an OSError, or a mesh file that no longer
    reads as it did in the pre-flight (MeshError, ConfigError).
    """
    pkind = cfg.precond["kind"]
    alpha_p = cfg.precond["alpha_p"]
    tn = cfg.frame["tn"]
    cfg.output["dir"] = out_dir
    cfg.output["basename"] = (f"steps_{idx:03d}_{pkind}_ap{alpha_p:g}_"
                              f"{tn.replace('+', 'p').replace('-', 'm')}")
    started = time.perf_counter()
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            mesh = cfg.build_mesh()
            h = mesh_quality(mesh).h
            result = run_simulation(cfg, mesh=mesh, factors=factors)
        wall = time.perf_counter() - started
        avg = result.average_iterations()
        summary.write(",".join([
            _fmt(h), _fmt(cfg.k), pkind, _fmt(cfg.alpha), _fmt(alpha_p), tn, _fmt(avg),
            str(result.max_iterations()), str(len(result.records)), _fmt(wall),
        ]) + "\n")
        summary.flush()
        print(f"[{idx + 1}/{count}] {pkind:12s} alpha_p={alpha_p:<8g} "
              f"tn={tn:8s} h={h:.4g} avg_it={avg:.1f}")
        return 0
    except (SolverFailure, PreconditionerError, ArithmeticError, MemoryError,
            ConfigError, MeshError, OSError) as exc:
        what = ("out of memory" if isinstance(exc, MemoryError) else
                "I/O error" if isinstance(exc, OSError) else
                "mesh error" if isinstance(exc, (ConfigError, MeshError)) else
                "solver failure")
        print(f"{what} on sweep point {idx} ({pkind}): {exc}", file=sys.stderr)
        return 3


def _check_mesh_file(path):
    """The mesh of a mesh file, parsed and checked before any sweep point
    runs; the points read it again when they build their mesh."""
    try:
        with open(path, "rb") as fh:
            return load_mesh(fh)
    except (ValueError, TypeError) as exc:  # MeshError is a ValueError
        raise ConfigError(f"mesh.path: {path!r}: {exc}") from exc


def _apply_overrides(doc, overrides):
    """A copy of doc with each dotted key of overrides set to its value."""
    doc = copy.deepcopy(doc)
    for dotted, value in overrides.items():
        *parents, last = dotted.split(".")
        target = doc
        for part in parents:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"{part} must be an object, got {target!r}")
        target[last] = value
    return doc


# run flags: each sets one dotted config key over the config file
RUN_FLAGS = (
    ("--precond", "precond.kind", {"choices": PRECONDITIONER_KINDS}),
    ("--alpha-p", "precond.alpha_p", {"type": float}),
    ("--precond-rebuild-every", "precond.rebuild_every", {"type": int}),
    ("--tn", "frame.tn", {"choices": TN_MODES}),
    ("--tol", "solver.tol", {"type": float}),
    ("--restart", "solver.restart", {"type": int}),
    ("--maxit", "solver.maxit", {"type": int}),
    ("--no-projection", "projection", {"action": "store_const", "const": False}),
)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tangent-plane-llg",
        description="Tangent plane LLG solver and preconditioner experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="JSON config path")
    p_run.add_argument("--out", help="output directory (default: config output.dir or ./out)")
    for flag, key, options in RUN_FLAGS:
        p_run.add_argument(flag, dest=key, **options)

    sub.add_parser("schema", help="print the config schema with defaults")

    args = parser.parse_args(argv)

    if args.command == "schema":
        print_config_schema()
        return 0

    overrides = {key: getattr(args, key) for _, key, _ in RUN_FLAGS
                 if getattr(args, key) is not None}
    return run_experiment(args.config, out_dir=args.out, overrides=overrides)


if __name__ == "__main__":
    sys.exit(main())
