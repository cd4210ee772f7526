"""Experiment runner: sweeps over mesh sizes, preconditioners, alpha_P and
frame axis modes, writing per-step and summary CSV files plus optional VTK
snapshots.  Plot rendering stays out of scope; the CSVs are ready for
gnuplot or a spreadsheet.

Exit codes: 0 success, 2 configuration error, 3 solver failure or a sweep
point out of memory (partial outputs are kept).
"""

import argparse
import copy
import itertools
import json
import os
import sys
import time
from collections import namedtuple

import numpy as np

from . import __version__
from .diagnostics import (CheckReport, check_bounded_ratio, check_inverse_bounds,
                          check_mapping_identities, energy_norm)
from .mesh import MeshError, generate_structured_cube, load_mesh, mesh_quality
from .precond import PRECONDITIONER_KINDS, PreconditionerError
from .scheme import (TN_MODES, ConfigError, SimulationConfig, SolverFailure,
                     _fmt, check_spiral_phase, config_schema, run_simulation)
from .tangent import build_frame, select_tn_adaptive

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
    """Run every sweep point; returns process exit code.

    overrides maps dotted config keys to values; one that sets the key of a
    sweep axis replaces that axis by its single value.
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
    with summary:
        summary.write(SUMMARY_HEADER + "\n")
        for idx, cfg in enumerate(configs):
            pkind = cfg.precond["kind"]
            alpha_p = cfg.precond["alpha_p"]
            tn = cfg.frame["tn"]
            base = f"steps_{idx:03d}_{pkind}_ap{alpha_p:g}_{tn.replace('+', 'p').replace('-', 'm')}"
            cfg.output["dir"] = out_dir
            cfg.output["basename"] = base
            point_code, row = _run_point(idx, cfg)
            if point_code == 2:
                return 2
            code = max(code, point_code)
            if row is None:
                continue
            summary.write(",".join([
                _fmt(row.h), _fmt(cfg.k), pkind, _fmt(cfg.alpha), _fmt(alpha_p), tn,
                _fmt(row.avg_iterations), str(row.max_iterations), str(row.steps),
                _fmt(row.wall_time_s),
            ]) + "\n")
            summary.flush()
            print(f"[{idx + 1}/{len(configs)}] {pkind:12s} alpha_p={alpha_p:<8g} "
                  f"tn={tn:8s} h={row.h:.4g} avg_it={row.avg_iterations:.1f}")
    return code


# what the summary row and the progress line of a finished sweep point need
PointRow = namedtuple("PointRow", "h avg_iterations max_iterations steps wall_time_s")


def _run_point(idx, cfg):
    """Run sweep point idx; returns (exit code, its PointRow or None).

    The point's mesh, set-up and result live only in this call, so none of
    them is reachable when the next point builds its mesh: a sweep holds one
    point at a time, and the one-entry cube memo frees the last mesh with
    its caches.  A numerical failure (a SolverFailure in a step, a
    PreconditionerError at set-up, or a floating-point overflow, invalid
    operation or division by zero anywhere) and a MemoryError print one
    line and give 3; a config error found only now gives 2.
    """
    pkind = cfg.precond["kind"]
    started = time.perf_counter()
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            mesh = cfg.build_mesh()
            h = mesh_quality(mesh).h
            result = run_simulation(cfg, mesh=mesh)
    except (SolverFailure, PreconditionerError, ArithmeticError) as exc:
        print(f"solver failure on sweep point {idx} ({pkind}): {exc}", file=sys.stderr)
        return 3, None
    except MemoryError as exc:
        print(f"out of memory on sweep point {idx} ({pkind}): {exc}", file=sys.stderr)
        return 3, None
    except (ConfigError, MeshError, OSError) as exc:
        print(f"config error on sweep point {idx}: {exc}", file=sys.stderr)
        return 2, None
    wall = time.perf_counter() - started
    return 0, PointRow(h, result.average_iterations(), result.max_iterations(),
                       len(result.records), wall)


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


def run_checks(out=None):
    """Self-contained diagnostics pass; prints one JSON report per check."""
    out = out if out is not None else sys.stdout
    rng = np.random.default_rng(7)
    mesh = generate_structured_cube([[0, 1], [0, 1], [0, 1]], (2, 2, 2))
    m = rng.standard_normal((mesh.N, 3))
    m /= np.linalg.norm(m, axis=1)[:, None]
    selection = select_tn_adaptive(m)
    frame = build_frame(m, selection.chosen_T)

    reports = [check_mapping_identities(frame, m)]
    reports.append(check_bounded_ratio(mesh, m))

    from .fem import assemble_mass, assemble_stiffness
    mass, stiffness = assemble_mass(mesh), assemble_stiffness(mesh)
    worst = 0.0
    for _ in range(5):
        x = rng.standard_normal(2 * mesh.N)
        a, b = energy_norm(mass, stiffness, frame, 1.0, 0.1, x, mesh=mesh)
        worst = max(worst, abs(a - b) / max(a, 1e-300))
    reports.append(CheckReport("energy_norm_dual_route", worst, 1e-12, worst <= 1e-12))

    dim = 12
    for trial in range(3):
        g = rng.standard_normal((dim, dim))
        b0 = g @ g.T + dim * np.eye(dim)
        skew = rng.standard_normal((dim, dim))
        b = b0 + 0.5 * (skew - skew.T)
        reports.append(check_inverse_bounds(b, b0, n_pairs=30, seed=trial))

    ok = True
    for rep in reports:
        out.write(json.dumps(rep.to_dict()) + "\n")
        ok = ok and rep.passed
    return 0 if ok else 1


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
    sub.add_parser("check", help="run the diagnostics suite")

    args = parser.parse_args(argv)

    if args.command == "schema":
        print_config_schema()
        return 0
    if args.command == "check":
        return run_checks()

    overrides = {key: getattr(args, key) for _, key, _ in RUN_FLAGS
                 if getattr(args, key) is not None}
    return run_experiment(args.config, out_dir=args.out, overrides=overrides)


if __name__ == "__main__":
    sys.exit(main())
