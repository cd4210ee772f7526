"""End-to-end and per-layer benchmark of the tangent-plane LLG sweep runner.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload cube_ladder --seed 1 --seconds 30 --trace 0

Each round runs one workload's whole sweep through ``cli.run_experiment``,
the code path of ``tangent-plane-llg run``, in this process, then checks the
outputs.  Rounds repeat until ``--seconds`` is spent; every reported time is
the median over rounds.  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

The program is imported from ``src/`` of the current directory, never from
an installed copy; without it the benchmark exits with code 2.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
details (round times, output digest, library versions).
"""

import os

# One BLAS thread, set before numpy loads OpenBLAS: the process then uses
# one core of the two, and on a shared 2-core machine the second OpenBLAS
# thread made the cube workloads slower and their times noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

import checks
import instrument

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".bench_out"


@dataclass(frozen=True)
class Workload:
    config: str
    point_check: object = None
    sweep_check: object = None


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {
    "thinfilm_sweep": Workload("configs/mumag4_like.json",
                               sweep_check=checks.alpha_p_ordering),
    "cube_ladder": Workload(os.path.join(BENCH_DIR, "configs", "cube_ladder.json"),
                            sweep_check=checks.h_robust),
    "cube_tps2_theoretical": Workload(
        os.path.join(BENCH_DIR, "configs", "cube_tps2_theoretical.json"),
        point_check=checks.one_factorization_per_step),
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no program, config error)."""


class Program:
    """The modules of the checkout's own tangent_plane_llg package."""

    def __init__(self, root):
        src = os.path.realpath(os.path.join(root, "src"))
        if not os.path.isfile(os.path.join(src, "tangent_plane_llg", "cli.py")):
            raise BenchError(f"no tangent_plane_llg sources under {src}")
        sys.path.insert(0, src)
        for name in ("cli", "scheme", "fem", "precond", "gmres"):
            module = importlib.import_module(f"tangent_plane_llg.{name}")
            if not os.path.realpath(module.__file__).startswith(src + os.sep):
                raise BenchError(f"imported {module.__file__}, not the checkout's copy")
            setattr(self, name, module)


@dataclass
class Round:
    traced: bool
    time_to_solution_s: float
    setup_s: float
    step_s: float
    node_steps: int
    points: list
    digest: str
    csv_iterations: int
    csv_restarts: int
    tracer: object
    peak_rss_mb: float


def steps_csv_digest(out_dir):
    """sha256 over every steps_*.csv, plus the sums of two of their columns."""
    digest = hashlib.sha256()
    iterations = restarts = 0
    for name in sorted(os.listdir(out_dir)):
        if not (name.startswith("steps_") and name.endswith(".csv")):
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data)
        header, *rows = data.decode("utf-8").splitlines()
        cols = header.split(",")
        i_it, i_rs = cols.index("gmres_iterations"), cols.index("restarts")
        for row in rows:
            fields = row.split(",")
            iterations += int(fields[i_it])
            restarts += int(fields[i_rs])
    return digest.hexdigest(), iterations, restarts


def run_round(program, workload, out_dir, rng, traced):
    shutil.rmtree(out_dir, ignore_errors=True)
    tracer = instrument.Tracer(program, layers=traced)
    recorder = instrument.Recorder(program, out_dir, workload.point_check, rng, tracer)
    patches = instrument.Patches()
    gc.collect()
    try:
        tracer.install(patches)
        recorder.install(patches)
        started = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            code = program.cli.run_experiment(workload.config, out_dir=out_dir)
        wall = time.perf_counter() - started
    finally:
        patches.restore()
    if code not in (0, 3):
        raise BenchError(f"run_experiment returned exit code {code}")
    points = recorder.points
    digest, csv_iterations, csv_restarts = steps_csv_digest(out_dir)
    return Round(
        traced=traced,
        time_to_solution_s=wall - recorder.check_s,
        setup_s=tracer.setup_s(),
        step_s=tracer.total["scheme.step"],
        node_steps=sum(p.n_nodes * p.steps for p in points),
        points=points,
        digest=digest,
        csv_iterations=csv_iterations,
        csv_restarts=csv_restarts,
        tracer=tracer,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )


def sweep_failures(workload, rounds):
    """Checks over whole sweeps and across rounds; any failure makes the run
    incorrect.  A failed point is already counted as failed, and the checks
    after the first need every point, so they are skipped then."""
    first = rounds[0]
    if any(r.digest != first.digest for r in rounds):
        return ["steps_*.csv differ between rounds of one run"]
    if any(p.failed for r in rounds for p in r.points):
        return []
    failures = []
    if workload.sweep_check is not None:
        failures += workload.sweep_check(first.points)
    for r in rounds:
        totals = (sum(p.iterations for p in r.points), sum(p.restarts for p in r.points))
        if (r.csv_iterations, r.csv_restarts) != totals:
            failures.append(f"steps_*.csv sum to {r.csv_iterations} iterations and "
                            f"{r.csv_restarts} restarts, the results to {totals}")
        if r.traced:
            failures += r.tracer.reconcile()
            layer = r.tracer.metrics()
            if (layer["gmres.iterations"][0], layer["gmres.restarts"][0]) != totals:
                failures.append("traced GMRES counts differ from the results")
    return failures


def end_to_end(rounds):
    med = statistics.median
    # Peak memory is read after the first round, the whole of a user's run:
    # later rounds in the same process only add heap fragmentation.
    return {
        "time_to_solution_s": (med([r.time_to_solution_s for r in rounds]), "s"),
        "setup_s": (med([r.setup_s for r in rounds]), "s"),
        "node_steps_per_s": (med([r.node_steps / r.step_s for r in rounds]), "1/s"),
        "gmres_iterations": (rounds[0].csv_iterations, "count"),
        "peak_rss_mb": (rounds[0].peak_rss_mb, "MB"),
    }


def per_layer(rounds):
    traced = [r for r in rounds if r.traced]
    # the first round also pays the process's first allocations and lazy
    # imports; compare against later untraced rounds where there are any
    untraced = [r for r in rounds[1:] if not r.traced] or rounds[:1]
    layers = [r.tracer.metrics() for r in traced]
    out = {}
    for name, (_, unit) in layers[0].items():
        out[name] = (statistics.median(m[name][0] for m in layers), unit)
    overhead = (statistics.median(r.time_to_solution_s for r in traced)
                - statistics.median(r.time_to_solution_s for r in untraced))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the random probe vectors of the checks; the "
                             "workload inputs themselves are fixed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-{os.getpid()}")
    rng = np.random.default_rng(args.seed)
    try:
        program = Program(os.getcwd())
        rounds = []
        started = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(run_round(program, workload, out_dir, rng, traced))
            elapsed = time.perf_counter() - started
            enough = len(rounds) >= (2 if args.trace else 1)
            if enough and elapsed + 0.5 * elapsed / len(rounds) >= args.seconds:
                break
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(OUT_ROOT)

    failures = sweep_failures(workload, rounds)
    points = [p for r in rounds for p in r.points]
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds)

    for p in points:
        for msg in p.failures:
            print(f"point {p.index} ({p.kind}, alpha_p={p.alpha_p:g}, N={p.n_nodes}) "
                  f"failed: {msg}", file=sys.stderr)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds, {len(points)} sweep points attempted, "
          f"{sum(p.failed for p in points)} failed", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:14.6g} {unit}", file=sys.stderr)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": [{"traced": r.traced, "time_to_solution_s": r.time_to_solution_s,
                    "setup_s": r.setup_s} for r in rounds],
        "steps_csv_sha256": rounds[0].digest,
        "check_failures": failures,
        "environment": {
            "nproc": os.cpu_count(),
            "blas_threads": blas_threads(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(points),
        "failed": sum(p.failed for p in points),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
