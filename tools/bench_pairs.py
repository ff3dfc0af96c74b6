"""Paired benchmark runs of two checkouts, summarised per workload and side.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_17.json

``--parent`` and ``--change`` are repository roots, for example a parent
commit unpacked with ``git archive <rev> | tar -x -C ../parent``.  For every
workload of ``BENCHMARK.json``, pair i runs its command with ``--seed i``
(seeds 1..PAIRS) once in each checkout, the parent first in odd pairs and
the change first in even ones, each run in a fresh process from its own root.  The output file
holds, per workload and side, the median and quartiles of every end-to-end
metric that ``BENCHMARK.json`` declares and of the failed-operation count,
the pairs the change won on each metric, the no-regression verdict on
each metric (see :func:`verdict`), every command that was run with its
result, and under ``reports_identical`` whether each seed's sweep report
(``perfbench/out/runs/report-<workload>-<seed>.json``) is byte for byte the
same on both sides, with the seeds that differ under ``reports_differ``.
Under ``import`` it holds, per side, the median and quartiles of
IMPORT_PAIRS alternating cold ``import mbbox.cli`` timings, each in a fresh
interpreter with ``PYTHONPATH=<root>/src``, and under ``src_lines`` each
side's count of lines in the Python files under ``src/``.  Each
``--trace WORKLOAD`` adds, under ``trace``, one traced run (``--trace 1``,
seed 1) of that workload per side, with its per-layer metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

PAIRS = 10
IMPORT_PAIRS = 30
RUN_TIMEOUT_S = 600
IMPORT_CODE = ("import time\nstart = time.perf_counter()\nimport mbbox.cli\n"
               "print(time.perf_counter() - start)")


def run_once(root: str, command: list, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark run in ``root``; its JSON result and the command."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"cwd": root, "command": cmd, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def import_once(root: str) -> float:
    """Seconds that a fresh interpreter takes to import ``mbbox.cli`` from ``root``."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(root), "src")}
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=root, env=env,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
    return float(proc.stdout)


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def src_lines(root: str) -> int:
    """Lines in the Python files under ``<root>/src``."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def report_file(root: str, workload: str, seed: int) -> str:
    return os.path.join(root, "perfbench", "out", "runs", f"report-{workload}-{seed}.json")


def differing_reports(roots: dict, workload: str, seeds) -> list:
    """The seeds whose sweep report is missing on a side or differs between the sides."""
    differ = []
    for seed in seeds:
        texts = []
        for root in (roots["parent"], roots["change"]):
            try:
                with open(report_file(root, workload, seed), "rb") as fh:
                    texts.append(fh.read())
            except FileNotFoundError:
                texts.append(None)
        if texts[0] is None or texts[0] != texts[1]:
            differ.append(seed)
    return differ


def verdict(parent: dict, change: dict, metric: dict) -> str:
    """``worse`` when the change's median is worse than the parent's by more
    than the metric's bound, a share of the parent median; else
    ``unresolved`` when the parent's quartile spread is wider than that
    bound; else ``ok``."""
    allowed = metric["bound"] * abs(parent["median"])
    sign = 1.0 if metric["better"] == "higher" else -1.0
    if sign * (parent["median"] - change["median"]) > allowed:
        return "worse"
    if parent["q3"] - parent["q1"] > allowed:
        return "unresolved"
    return "ok"


def summarise(runs: dict, declared: list) -> dict:
    """Per side, a summary of each declared metric and of ``failed``; per
    metric, the pairs whose change run reads better than its parent run and
    the verdict."""
    out = {side: {"failed": summary([r["failed"] for r in runs[side]]),
                  "correct": all(r["correct"] for r in runs[side])} for side in runs}
    wins, verdicts = {}, {}
    for metric in declared:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        for side in runs:
            out[side][name] = summary([r["metrics"][name] for r in runs[side]])
        pairs = zip(runs["parent"], runs["change"])
        wins[name] = sum(sign * (c["metrics"][name] - p["metrics"][name]) > 0 for p, c in pairs)
        verdicts[name] = verdict(out["parent"][name], out["change"][name], metric)
    out["change_wins"] = wins
    out["verdict"] = verdicts
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paired parent/change benchmark runs")
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the changed checkout")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--trace", action="append", default=[], metavar="WORKLOAD",
                        help="add one traced run of WORKLOAD per side (repeatable)")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    roots = {"parent": args.parent, "change": args.change}
    report = {"pairs": PAIRS, "run_seconds": seconds, "cpus": os.cpu_count(),
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "src_lines": {side: src_lines(root) for side, root in roots.items()},
              "workloads": {}}
    imports = {"parent": [], "change": []}
    for i in range(IMPORT_PAIRS):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            imports[side].append(import_once(roots[side]))
    report["import"] = {side: summary(values) for side, values in imports.items()}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(roots[side], bench["command"], workload, i + 1, seconds)
                runs[side].append(run)
                print(f"{workload} pair {i + 1} {side}: points_per_s "
                      f"{run['metrics']['points_per_s']:.1f}", file=sys.stderr)
        differ = differing_reports(roots, workload, range(1, PAIRS + 1))
        report["workloads"][workload] = {**summarise(runs, bench["end_to_end"]),
                                         "reports_identical": not differ,
                                         "reports_differ": differ, "runs": runs}
    report["trace"] = {workload: {side: run_once(root, bench["command"], workload, 1, seconds,
                                                 trace=1)
                                  for side, root in roots.items()}
                       for workload in args.trace}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
