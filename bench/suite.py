"""Run every workload of BENCHMARK.json repeatedly and check that reruns agree.

Usage, from the root of a source checkout:

    python3 bench/suite.py                 # 10 runs per workload, seeds 1..10
    python3 bench/suite.py --repeats 1     # one run of every workload
    python3 bench/suite.py --trace         # one traced run per workload

Each run is a separate ``bench/run.py`` process, started one after another.
For every end-to-end metric the suite prints the median and quartiles over
the runs, and the quartile spread as a share of the median against the
metric's bound from BENCHMARK.json.  It also prints the sweep points
attempted and failed, and whether every run wrote byte-identical
``steps_*.csv`` files.  Every workload runs for BENCHMARK.json's
``run_seconds``.  The exit code is 0 when every run is correct, no point
failed, every spread is within its bound and the CSV digests agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--trace", action="store_true",
                        help="one traced run per workload, per-layer metrics")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    repeats = 1 if args.trace else args.repeats
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, repeats + 1):
            detail, result = run_once(name, seed, seconds, args.trace)
            runs.append((detail, result))
            times = ", ".join(f"{r['time_to_solution_s']:.3f}" for r in detail["rounds"])
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"rounds [{times}]", flush=True)
            for msg in detail["check_failures"]:
                print(f"  check failed: {msg}")
            ok &= result["correct"] and result["failed"] == 0
        if args.trace:
            for metric, entry in runs[0][1]["metrics"].items():
                print(f"  {metric:24s} {entry['value']:14.6g} {entry['unit']}")
            continue
        digests = {d["steps_csv_sha256"] for d, _ in runs}
        print(f"  steps_*.csv identical across {len(runs)} runs: {len(digests) == 1} "
              f"(sha256 {' '.join(sorted(d[:12] for d in digests))})")
        ok &= len(digests) == 1
        attempted = sum(r["attempted"] for _, r in runs)
        failed = sum(r["failed"] for _, r in runs)
        print(f"  sweep points attempted {attempted}, failed {failed}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for _, r in runs]
            med, q1, q3, share = spread(values)
            within = share <= metric["bound"]
            ok &= within
            print(f"  {metric['name']:20s} median {med:12.6g} {metric['unit']:6s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {share:7.2%} "
                  f"bound {metric['bound']:.0%} {'ok' if within else 'WIDE'}")
    print("suite", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
