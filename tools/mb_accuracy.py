"""Seeded accuracy scan of both ``mb`` routes against an mpmath reference.

    python3 tools/mb_accuracy.py --points 400 --seed 1 [--root .]

Draws ``--points`` massless points (``tests/helpers.sample``), evaluates each
with ``mb_engine.mb_massless_eval(k, crossed)`` from ``<root>/src`` on both of
its lines, the crossed one at (eps - 1)/2 and the uncrossed one at
-1 + eps/2, each refining its step as the route does by default, and
compares each value with ``tests/helpers._mp_box`` at 40 digits
(``tests/helpers.mp_error``), both helpers taken from the tool's own
checkout.  For each line and eps band (below 1/2, where the crossed line is
the default, and from 1/2 on, where the uncrossed one is) it prints how
many points the line refused (the node cap), the mean coarse node count
of the last pass and how many points took more than one pass over the
points it evaluated, the mean and largest relative error, the median
digits (-log10 of the relative error, floored at 2^-53 like the benchmark),
the smallest and largest ratio of ``error_estimate`` to the true error, how
many estimates fall below their error, and the largest ratio of the true
error to the rounding term alone (``rounding_estimate``), which stays
below 1 where the rounding term covers the error by itself.  Then it draws
as many one-mass points (``tests/helpers.sample_onemass``, same seed) and
prints the same columns for ``mb_engine.mb_onemass_eval`` on its default
pair, per eps band, with the coarse nodes per line.
``--root`` points the scan at the ``src/`` of another checkout whose
``mb_massless_eval`` takes ``crossed``; the points and the reference stay
the same.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import statistics
import sys

FLOOR = 2.0 ** -53
DPS = 40
HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
LINES = (("crossed", True), ("uncrossed", False))
BANDS = (("eps<0.5", lambda e: e < 0.5), ("eps>=0.5", lambda e: e >= 0.5))
ONEMASS_BANDS = (("eps<0.01", lambda e: e < 0.01), ("0.01-0.1", lambda e: 0.01 <= e < 0.1),
                 ("0.1-0.5", lambda e: 0.1 <= e < 0.5), ("eps>=0.5", lambda e: e >= 0.5))


def row(line: str, evaluate, s: float, t: float, eps: float, msq: float | None = None) -> tuple:
    """(line, eps, relative error, error_estimate / error, error / rounding_estimate,
    coarse nodes per line, passes) of ``evaluate()``, the route at the point
    (s, t, eps, msq), all but the first two None where the route refused
    the point."""
    from helpers import mp_error
    from mbbox.errors import NotConverged

    try:
        v = evaluate()
    except NotConverged:
        return (line, eps, None, None, None, None, None)
    value = v.value.real
    error = mp_error(value, s, t, eps, msq, dps=DPS)
    d = v.diagnostics
    nodes = d["nodes"] if msq is None else statistics.fmean(d["nodes"])
    return (line, eps, error / abs(value), d["error_estimate"] / error,
            error / d["rounding_estimate"], nodes, d["passes"])


def scan(points: list) -> list:
    """The rows (see :func:`row`) of every massless point on both lines."""
    from mbbox.closed_form import Kinematics
    from mbbox.mb_engine import mb_massless_eval

    rows = []
    for s, t, eps in points:
        k = Kinematics(s=s, t=t, eps=eps)
        for line, crossed in LINES:
            rows.append(row(line, lambda: mb_massless_eval(k, crossed), s, t, eps))
    return rows


def scan_onemass(points: list) -> list:
    """The rows (see :func:`row`) of every one-mass point on its default pair."""
    from mbbox.closed_form import Kinematics
    from mbbox.mb_engine import mb_onemass_eval

    return [row("onemass", lambda: mb_onemass_eval(Kinematics(s=s, t=t, eps=eps, msq=msq)),
                s, t, eps, msq) for s, t, msq, eps in points]


def bands(rows: list, eps_bands=BANDS) -> dict:
    """The scan's summary per (line, band), the lines in the rows' order."""
    out = {}
    for line in dict.fromkeys(r[0] for r in rows):
        for band, keep in eps_bands:
            cell = [r for r in rows if r[0] == line and keep(r[1])]
            done = [r for r in cell if r[2] is not None]
            if not done:
                continue
            rels, ratios = [r[2] for r in done], [r[3] for r in done]
            out[line, band] = {
                "points": len(cell),
                "refused": len(cell) - len(done),
                "mean_nodes": statistics.fmean(r[5] for r in done),
                "refined": sum(r[6] > 1 for r in done),
                "mean_rel_err": statistics.fmean(rels),
                "max_rel_err": max(rels),
                "median_digits": statistics.median(-math.log10(max(r, FLOOR)) for r in rels),
                "min_estimate_over_error": min(ratios),
                "max_estimate_over_error": max(ratios),
                "estimates_below_error": sum(r < 1.0 for r in ratios),
                "max_error_over_rounding": max(r[4] for r in done),
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="massless mb accuracy scan against mpmath")
    parser.add_argument("--points", type=int, default=400)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--root", default=HERE, help="checkout whose src/ is scanned")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(os.path.abspath(args.root), "src"), os.path.join(HERE, "tests")]

    from helpers import sample, sample_onemass
    summary = bands(scan(sample(random.Random(args.seed), args.points)))
    summary.update(bands(scan_onemass(sample_onemass(random.Random(args.seed), args.points)),
                         ONEMASS_BANDS))
    print(f"{'line':9} {'band':9} {'points':>6} {'refused':>7} {'nodes':>6} {'refined':>7} "
          f"{'mean rel':>9} {'max rel':>9} "
          f"{'med dig':>7} {'min est/err':>11} {'max est/err':>11} {'under':>5} {'err/round':>9}")
    for (line, band), b in summary.items():
        print(f"{line:9} {band:9} {b['points']:6d} {b['refused']:7d} {b['mean_nodes']:6.0f} "
              f"{b['refined']:7d} {b['mean_rel_err']:9.2e} "
              f"{b['max_rel_err']:9.2e} {b['median_digits']:7.2f} "
              f"{b['min_estimate_over_error']:11.3g} {b['max_estimate_over_error']:11.3g} "
              f"{b['estimates_below_error']:5d} {b['max_error_over_rounding']:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
