"""mbbox benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 15 --trace 0

Run from the repository root.  The program is used only through
``mbbox.cli`` (``cmd_sweep`` with its report written to a file, and
``cmd_expand``), imported from ``src`` in a fresh worker process, so no
installation is needed.  This process makes the seeded grid and its mpmath
reference (stored per seed under ``perfbench/out/ref``), starts the worker,
and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``points_per_s``, ``min_digits``, ``median_digits``, ``peak_rss_mb``);
with ``--trace 1`` they are the per-layer ones, from one extra traced
round, plus the import times from ``-X importtime``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from grid import WORKLOADS, make_grid  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
BENCHMARK_FILE = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKER_TIMEOUT_S = 170
SWEEP_KEYS = ("integral", "s", "t", "msq", "eps", "methods")
IMPORT_MODULES = ("mbbox", "scipy.integrate", "numpy")


def _env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_times(src: str) -> dict:
    """Cumulative import seconds of a few modules in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mbbox.cli"],
                          env=_env(src), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"importing mbbox.cli failed:\n{proc.stderr[-2000:]}")
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in IMPORT_MODULES:
            found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {f"import.{name}_s": found.get(name, 0.0) for name in IMPORT_MODULES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mbbox benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "mbbox", "cli.py")):
        print("error: run from the repository root; src/mbbox/cli.py not found",
              file=sys.stderr)
        return 2

    import reference  # mpmath stays out of the worker process

    spec = WORKLOADS[args.workload]
    points = make_grid(args.workload, args.seed)
    ref = reference.load_or_make(OUT_DIR, args.workload, args.seed, points, spec["expand"])
    tag = f"{args.workload}-{args.seed}"
    run_dir = os.path.join(OUT_DIR, "runs")
    os.makedirs(run_dir, exist_ok=True)
    job = {
        "points": points,
        "reference": ref["points"],
        "expand": spec["expand"],
        "seconds": args.seconds,
        "grid_file": os.path.join(run_dir, f"grid-{tag}.json"),
        "report_file": os.path.join(run_dir, f"report-{tag}.json"),
        "spans_file": os.path.join(run_dir, f"spans-{tag}.tsv"),
    }
    with open(job["grid_file"], "w") as fh:
        json.dump({"points": [{k: p[k] for k in SWEEP_KEYS} for p in points]}, fh)
    job_file = os.path.join(run_dir, f"job-{tag}.json")
    with open(job_file, "w") as fh:
        json.dump(job, fh)

    layers = import_times(src) if args.trace else {}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_file,
                           repr(start), str(args.trace)],
                          env=_env(src), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}:\n{proc.stderr[-4000:]}",
              file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for problem in result["unexpected"]:
        print(f"unexpected failure: {problem}", file=sys.stderr)
    walls = sorted(result["round_s"])
    print(f"{tag}: {len(walls)} rounds of {len(points)} points, round time "
          f"{walls[0]:.3f}/{walls[len(walls) // 2]:.3f}/{walls[-1]:.3f} s (min/median/max), "
          f"{result['failed']}/{result['attempted']} operations failed", file=sys.stderr)

    # the metrics and units declared in BENCHMARK.json, each one measured
    with open(BENCHMARK_FILE) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    values = {**layers, **result["layers"]} if args.trace else result
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not result["unexpected"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
