"""Byte-for-byte comparison of the benchmark sweep reports and the
``verify --suite all`` report of two checkouts.

    python3 tools/sweep_diff.py --base ../parent

``--base`` is the root of another checkout, for example a parent commit
unpacked with ``git archive <rev> | tar -x -C ../parent``.  The grids of
the three benchmark workloads (``analytic``, ``mb-massless``,
``mb-onemass``), seeds 1-3, are built once with this checkout's
``perfbench/grid.make_grid``, and each checkout sweeps all nine with
``mbbox.cli.cmd_sweep`` and then runs ``verify --suite all --out``, in one
fresh interpreter with ``PYTHONPATH=<root>/src``, the two sides at once.
For each report that differs it prints its name (the workload and the
seed, or ``verify``) and the first record that differs, with both sides
(or the summary, when every record is the same); it exits 1 on any
difference and 0 when all ten reports are byte-identical.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
SIDES = ("base", "change")
VERIFY = "verify"
# sweeps each (grid, report) pair of arguments, then writes the verify report
# to the last argument; verify's exit 1, a failed check, is in its report
RUN_CODE = ("import sys\nfrom mbbox.cli import cmd_sweep, main\n"
            "for grid, out in zip(sys.argv[1:-1:2], sys.argv[2:-1:2]):\n"
            "    cmd_sweep(grid, out)\n"
            "status = main(['verify', '--suite', 'all', '--out', sys.argv[-1]])\n"
            "sys.exit(0 if status == 1 else status)\n")


def write_grids(directory: str) -> list[str]:
    """Write ``<workload>-<seed>.json`` grids into ``directory``; their names."""
    spec = importlib.util.spec_from_file_location(
        "grid", os.path.join(ROOT, "perfbench", "grid.py"))
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    names = []
    for workload in grid.WORKLOADS:
        for seed in SEEDS:
            name = f"{workload}-{seed}"
            with open(os.path.join(directory, f"{name}.json"), "w") as fh:
                json.dump(grid.make_grid(workload, seed), fh)
            names.append(name)
    return names


def sweep(root: str, directory: str, names: list[str], side: str) -> subprocess.Popen:
    """Start sweeping each grid of ``names`` through ``root``'s ``src/``
    into ``<directory>/<side>/<name>.json``, then running ``verify --suite
    all`` into ``<directory>/<side>/verify.json``."""
    os.makedirs(os.path.join(directory, side), exist_ok=True)
    args = [path for name in names
            for path in (os.path.join(directory, f"{name}.json"),
                         os.path.join(directory, side, f"{name}.json"))]
    args.append(os.path.join(directory, side, f"{VERIFY}.json"))
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(root), "src")}
    return subprocess.Popen([sys.executable, "-c", RUN_CODE, *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def first_difference(base: str, change: str) -> str:
    """Where two report texts first differ: a record, or else the summary."""
    a, b = json.loads(base), json.loads(change)
    for i, (ra, rb) in enumerate(zip(a["records"], b["records"])):
        if json.dumps(ra) != json.dumps(rb):
            return f"record {i}\n  base:   {json.dumps(ra)}\n  change: {json.dumps(rb)}"
    if len(a["records"]) != len(b["records"]):
        return f"{len(a['records'])} records against {len(b['records'])}"
    return f"summary\n  base:   {json.dumps(a['summary'])}\n  change: {json.dumps(b['summary'])}"


def differences(directory: str, names: list[str]) -> list[str]:
    """One line per report of ``names`` whose two sides differ, naming it
    and its first difference."""
    found = []
    for name in names:
        base, change = (pathlib.Path(directory, side, f"{name}.json").read_text()
                        for side in SIDES)
        if base != change:
            found.append(f"{name}: {first_difference(base, change)}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="byte-for-byte sweep- and verify-report "
                                                 "diff of this checkout against another")
    parser.add_argument("--base", required=True, help="root of the checkout to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        names = write_grids(directory)
        roots = (args.base, ROOT)
        procs = [sweep(root, directory, names, side) for side, root in zip(SIDES, roots)]
        for root, proc in zip(roots, procs):
            err = proc.communicate()[1]
            if proc.returncode != 0:
                raise RuntimeError(f"sweeping in {root} exited {proc.returncode}:\n{err[-2000:]}")
        found = differences(directory, names + [VERIFY])
    for line in found:
        print(line)
    verify_differs = any(line.startswith(f"{VERIFY}:") for line in found)
    print(f"{len(names) - len(found) + verify_differs} of {len(names)} sweep reports "
          f"byte-identical")
    print(f"verify --suite all reports {'differ' if verify_differs else 'byte-identical'}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
