"""Seeded accuracy scan of the massless ``mb`` route against an mpmath reference.

    python3 tools/mb_accuracy.py --points 400 --seed 1 [--root .]

Draws ``--points`` massless points (``tests/helpers.sample``), evaluates each
with ``mb_engine.mb_massless_eval`` from ``<root>/src`` on both of its lines,
the crossed one at (eps - 1)/2 and the uncrossed one at -1 + eps/2
(``mb_engine.massless_line``), and compares each value with
``tests/helpers._mp_box`` at 40 digits (``tests/helpers.mp_error``), both
helpers taken from the tool's own checkout.  For each line and eps band
(below 1/2, where the crossed line is the default, and from 1/2 on, where
the uncrossed one is) it prints how many points the line refused (node cap
or node-doubling delta), the mean and largest relative error, the median
digits (-log10 of the relative error, floored at 2^-53 like the benchmark),
the smallest and largest ratio of ``error_estimate`` to the true error, how
many estimates fall below their error, and the largest ratio of the true
error to the rounding term alone (``mb_engine._MASSLESS_ULPS``), which stays
below 1 where the rounding term covers the error by itself.
``--root`` points the scan at the ``src/`` of another checkout that has
``massless_line(k, crossed)``; the points and the reference stay the same.
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


def scan(points: list) -> list:
    """Per point and line: (line, eps, relative error, error_estimate / error,
    error / rounding_estimate), the last three None where the line refused
    the point."""
    from helpers import mp_error
    from mbbox.closed_form import Kinematics
    from mbbox.errors import NotConverged
    from mbbox.mb_engine import massless_line, mb_massless_eval

    rows = []
    for s, t, eps in points:
        k = Kinematics(s=s, t=t, eps=eps)
        for line, crossed in LINES:
            try:
                v = mb_massless_eval(k, massless_line(k, crossed))
            except NotConverged:
                rows.append((line, eps, None, None, None))
                continue
            value = v.value.real
            error = mp_error(value, s, t, eps, dps=DPS)
            d = v.diagnostics
            rows.append((line, eps, error / abs(value), d["error_estimate"] / error,
                         error / d["rounding_estimate"]))
    return rows


def bands(rows: list) -> dict:
    """The scan's summary per (line, band)."""
    out = {}
    for line, _ in LINES:
        for band, keep in BANDS:
            cell = [r for r in rows if r[0] == line and keep(r[1])]
            done = [r for r in cell if r[2] is not None]
            if not done:
                continue
            rels, ratios = [r[2] for r in done], [r[3] for r in done]
            out[line, band] = {
                "points": len(cell),
                "refused": len(cell) - len(done),
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

    from helpers import sample
    summary = bands(scan(sample(random.Random(args.seed), args.points)))
    print(f"{'line':9} {'band':9} {'points':>6} {'refused':>7} {'mean rel':>9} {'max rel':>9} "
          f"{'med dig':>7} {'min est/err':>11} {'max est/err':>11} {'under':>5} {'err/round':>9}")
    for (line, band), b in summary.items():
        print(f"{line:9} {band:9} {b['points']:6d} {b['refused']:7d} {b['mean_rel_err']:9.2e} "
              f"{b['max_rel_err']:9.2e} {b['median_digits']:7.2f} "
              f"{b['min_estimate_over_error']:11.3g} {b['max_estimate_over_error']:11.3g} "
              f"{b['estimates_below_error']:5d} {b['max_error_over_rounding']:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
