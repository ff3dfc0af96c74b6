"""Timed phase of one benchmark run; started by run.py, one per run.

Usage: python3 perfbench/worker.py JOB_FILE START_CLOCK TRACE

The first thing this process does is import ``mbbox.cli``; START_CLOCK is
the parent's ``time.perf_counter()`` taken just before this process was
started (the clock is system-wide), so ``setup_s`` is the cold set-up of
a fresh interpreter.  The process then holds only the program, the grid
and the stored reference: it runs whole rounds of the grid through
``cli.cmd_sweep`` (report written to a file) and ``cli.cmd_expand`` until
the rounds add up to the run length, and checks every value after each
round, outside the timed region.  The result is one JSON line on stdout.
"""

import sys
import time

_START = float(sys.argv[2])
import mbbox.cli as cli  # noqa: E402  (timed: the cold import a user pays)

SETUP_S = time.perf_counter() - _START

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402

# relative tolerance of each route against the reference.  Each sits at
# least 3x above the worst error found on its workload's domain and at least
# 3x below the named fault that must fail it; README.md has the figures
TOL = {"closed": 1e-10, "closed_alt": 1e-6, "residue": 7e-10, "feynman": 1e-6,
       "mb-massless": 1e-10, "mb-onemass": 1e-6, "laurent": 1e-10}
FLOOR = 2.0 ** -53
ROUTES = ("closed", "closed_alt", "residue", "feynman", "mb", "laurent")


def _rel_err(value: complex, ref: list) -> float:
    hi, lo = ref
    return abs(complex(value.real - hi - lo, value.imag)) / abs(hi)


def _digits(err: float) -> float:
    return -math.log10(max(err, FLOOR))


def _norm_err(got: list, want: list) -> float:
    return max(abs(g - w) for g, w in zip(got, want)) / max(abs(w) for w in want)


def _tol(route: str, point: dict) -> float:
    if route == "mb":
        return TOL["mb-" + point["integral"]]
    return TOL[route]


def _scaled_laurent(coeffs: list, lam: float) -> list:
    # I(lam x) = lam^(eps-2) I(x): multiply by lam^-2 sum_k (eps ln lam)^k/k!
    c2, c1, c0 = coeffs
    big_l = math.log(lam)
    return [c2 / lam ** 2, (c1 + big_l * c2) / lam ** 2,
            (c0 + big_l * c1 + 0.5 * big_l ** 2 * c2) / lam ** 2]


class Round:
    """Runs one round of the grid and checks its outputs."""

    def __init__(self, job: dict):
        self.points = job["points"]
        self.ref = job["reference"]
        self.grid_file = job["grid_file"]
        self.report_file = job["report_file"]
        self.expand = job["expand"]

    def run(self):
        """Evaluate the grid once.

        Returns the wall seconds, True or the error text of a sweep that
        raised, and per point the Laurent rows or the error text.
        """
        start = time.perf_counter()
        try:
            cli.cmd_sweep(self.grid_file, self.report_file)
            swept = True
        except Exception as exc:  # a raising sweep loses all its values
            swept = repr(exc)
        laurent = []
        if self.expand:
            for p in self.points:
                cfg = cli.RunConfig(integral=p["integral"], s=p["s"], t=p["t"],
                                    eps=p["eps"], msq=p["msq"])
                try:
                    laurent.append(cli.cmd_expand(cfg).records[0]["laurent"])
                except Exception as exc:
                    laurent.append(repr(exc))
        wall = time.perf_counter() - start
        return wall, swept, laurent

    def values(self, swept, laurent) -> tuple:
        """Per point, route -> complex value, coefficient list or error text;
        and per point index, the error estimate the mb route reported."""
        out = [{} for _ in self.points]
        estimates = {}
        if swept is True:
            with open(self.report_file) as fh:
                report = cli.Report.from_json(fh.read())
            for rec in report.records:
                row = out[rec["index"]]
                for route in self.points[rec["index"]]["methods"]:
                    if rec["status"] != "ok":
                        row[route] = rec["status"]
                    else:
                        v = rec["values"][route]
                        row[route] = complex(v["re"], v["im"])
                if "mb" in rec.get("diagnostics", {}):
                    estimates[rec["index"]] = rec["diagnostics"]["mb"]["error_estimate"]
        else:
            for row, p in zip(out, self.points):
                row.update({route: swept for route in p["methods"]})
        for row, coeffs in zip(out, laurent):
            if isinstance(coeffs, str):
                row["laurent"] = coeffs
            else:
                row["laurent"] = [complex(c["re"], c["im"])
                                  for c in sorted(coeffs, key=lambda c: c["power"])]
        return out, estimates

    def check(self, outputs: tuple, stats: "Stats") -> None:
        values, estimates = outputs
        for i, (p, row) in enumerate(zip(self.points, values)):
            for route, got in row.items():
                stats.attempted += 1
                if route == "mb" and isinstance(got, complex):
                    true_abs = max(_rel_err(got, self.ref[i]["value"]), FLOOR) \
                        * abs(self.ref[i]["value"][0])
                    stats.estimate_ratios.append(estimates[i] / true_abs)
                problem, err = self._problem(i, p, route, got, values)
                if problem is None:
                    stats.digits.setdefault(route, []).append(_digits(err))
                    continue
                stats.failed += 1
                if route not in p.get("fails", ()):
                    stats.unexpected.append(f"{p['role']} point {i} {route}: {problem}")

    def _problem(self, i, p, route, got, values):
        """(None, relative error) when the value passes, else (what is wrong, None)."""
        if isinstance(got, str):
            return got, None
        ref = self.ref[i]
        tol = _tol(route, p)
        if route == "laurent":
            want = [hi + lo for hi, lo in ref["laurent"]]
            err = _norm_err(got, want)
        else:
            err = _rel_err(got, ref["value"])
        if not err <= tol:
            return f"error {err:.3e} above {tol:.0e}", None
        if "of" in p:
            orig = values[p["of"]].get(route)
            if not isinstance(orig, (complex, list)):
                return "original point failed, property not checked", None
            lam = p.get("scale", 1.0)
            if route == "laurent":
                want = _scaled_laurent(orig, lam) if p["role"] == "scaled" else orig
                dev = _norm_err(got, want)
            else:
                want = orig * lam ** (p["eps"] - 2.0)
                dev = abs(got - want) / abs(want)
            if not dev <= tol:
                return f"{p['role']} property broken by {dev:.3e}", None
        return None, err


class Stats:
    """Operations attempted and failed, and per-route digits, over all rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list = []
        self.digits: dict = {}
        self.estimate_ratios: list = []


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    job_file, trace = sys.argv[1], sys.argv[3] == "1"
    with open(job_file) as fh:
        job = json.load(fh)
    rnd = Round(job)
    stats = Stats()
    walls = []
    cpu0 = _cpu_s()
    while sum(walls) < job["seconds"]:
        wall, swept, laurent = rnd.run()
        walls.append(wall)
        rnd.check(rnd.values(swept, laurent), stats)
    cpu_s = _cpu_s() - cpu0
    n_points = len(rnd.points)
    all_digits = [d for ds in stats.digits.values() for d in ds]
    result = {
        "attempted": stats.attempted,
        "failed": stats.failed,
        "unexpected": stats.unexpected[:20],
        "round_s": walls,
        "setup_s": SETUP_S,
        "points_per_s": n_points * len(walls) / sum(walls),
        "min_digits": min(all_digits, default=0.0),
        "median_digits": statistics.median(all_digits) if all_digits else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        result["layers"] = traced_round(job, rnd, stats, walls, cpu_s)
        result["attempted"], result["failed"] = stats.attempted, stats.failed
        result["unexpected"] = stats.unexpected[:20]
    print(json.dumps(result))
    return 0


def traced_round(job, rnd, stats, walls, cpu_s) -> dict:
    """One more round with every target wrapped; returns per-layer metrics."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall, swept, laurent = rnd.run()
    finally:
        tracer.remove()
    report_bytes = os.path.getsize(rnd.report_file) if swept is True else 0
    rnd.check(rnd.values(swept, laurent), stats)
    tracer.write(job["spans_file"])
    summary = tracer.summary()
    calls, self_s, total_s = summary["calls"], summary["self_s"], summary["total_s"]

    layers = {}
    for name in tracing.all_names():
        if name in (tracing.ROUTE_SPAN, "cli.cmd_sweep", "cli.Report.to_json"):
            continue
        layers[name + ".calls"] = calls.get(name, 0)
        layers[name + ".self_s"] = self_s.get(name, 0.0)
    layers["cli.cmd_sweep.self_s"] = self_s.get("cli.cmd_sweep", 0.0)
    layers["cli.Report.to_json.self_s"] = self_s.get("cli.Report.to_json", 0.0)
    layers["cli.report_bytes"] = report_bytes
    sweep_s = total_s.get("cli.cmd_sweep", 0.0)
    route_cpu_s = summary["counts"].get(tracing.ROUTE_SPAN + ".cpu_s", 0.0)
    layers["cli.sweep.concurrency"] = route_cpu_s / sweep_s if sweep_s else 0.0
    layers["process.cpu_s"] = cpu_s
    layers["mb_engine.estimate_over_error.min"] = min(stats.estimate_ratios, default=0.0)
    layers["mb_engine.estimate_over_error.max"] = max(stats.estimate_ratios, default=0.0)
    grid_points = summary["counts"].get("specfun.ln_gamma_grid.points", 0)
    grid_self = self_s.get("specfun.ln_gamma_grid", 0.0)
    layers["specfun.ln_gamma_grid.points"] = grid_points
    layers["specfun.ln_gamma_grid.points_per_s"] = grid_points / grid_self if grid_self else 0.0
    layers["oracles.quad.neval"] = summary["counts"].get("oracles.quad.neval", 0)
    for route in ROUTES:
        layers[f"digits.{route}"] = min(stats.digits.get(route, []), default=0.0)
    layers["trace.overhead_s"] = wall - statistics.median(walls)

    # every (point, route) pair of the grid is exactly one call of its route
    expected = {}
    for p in rnd.points:
        for route in p["methods"] + (["laurent"] if job["expand"] else []):
            expected[route] = expected.get(route, 0) + 1
    seen = {}
    for name, route in tracing.ROUTE_OF.items():
        seen[route] = seen.get(route, 0) + calls.get(name, 0)
    for route in set(expected) | {r for r, n in seen.items() if n}:
        if seen.get(route, 0) != expected.get(route, 0):
            stats.unexpected.append(f"traced calls of {route}: {seen.get(route, 0)}"
                                    f" for {expected.get(route, 0)} grid pairs")
    return layers


if __name__ == "__main__":
    sys.exit(main())
