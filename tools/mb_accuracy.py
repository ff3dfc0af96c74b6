"""Seeded accuracy scan of the massless ``mb`` route against an mpmath reference.

    python3 tools/mb_accuracy.py --points 400 --seed 1 [--root .]

Draws ``--points`` massless points (``tests/helpers.sample``), evaluates each
with ``mb_engine.mb_massless_eval`` from ``<root>/src`` and compares it with
``tests/helpers._mp_box`` at 40 digits (``tests/helpers.mp_error``), both
helpers taken from the tool's own checkout.  For each eps band (below 1/2,
where the default line has crossed the double pole, and from 1/2 on) it
prints the mean and largest relative error, the median digits
(-log10 of the relative error, floored at 2^-53 like the benchmark), the
smallest and largest ratio of ``error_estimate`` to the true error, and how
many estimates fall below their error.  ``--root`` points the scan at the
``src/`` of another checkout, such as a parent commit unpacked with
``git archive``; the points and the reference stay the same.
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


def scan(points: list) -> list:
    """Per point: (eps, relative error, error_estimate / error)."""
    from helpers import mp_error
    from mbbox.closed_form import Kinematics
    from mbbox.mb_engine import mb_massless_eval

    rows = []
    for s, t, eps in points:
        v = mb_massless_eval(Kinematics(s=s, t=t, eps=eps))
        value = v.value.real
        error = mp_error(value, s, t, eps, dps=DPS)
        rows.append((eps, error / abs(value), v.diagnostics["error_estimate"] / error))
    return rows


def bands(rows: list) -> dict:
    """The scan's summary for eps < 1/2 and eps >= 1/2."""
    out = {}
    for name, keep in (("eps<0.5", lambda e: e < 0.5), ("eps>=0.5", lambda e: e >= 0.5)):
        band = [r for r in rows if keep(r[0])]
        if not band:
            continue
        rels, ratios = [r[1] for r in band], [r[2] for r in band]
        out[name] = {
            "points": len(band),
            "mean_rel_err": statistics.fmean(rels),
            "max_rel_err": max(rels),
            "median_digits": statistics.median(-math.log10(max(r, FLOOR)) for r in rels),
            "min_estimate_over_error": min(ratios),
            "max_estimate_over_error": max(ratios),
            "estimates_below_error": sum(r < 1.0 for r in ratios),
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
    print(f"{'band':9} {'points':>6} {'mean rel':>9} {'max rel':>9} {'med dig':>7} "
          f"{'min est/err':>11} {'max est/err':>11} {'under':>5}")
    for name, b in summary.items():
        print(f"{name:9} {b['points']:6d} {b['mean_rel_err']:9.2e} {b['max_rel_err']:9.2e} "
              f"{b['median_digits']:7.2f} {b['min_estimate_over_error']:11.3g} "
              f"{b['max_estimate_over_error']:11.3g} {b['estimates_below_error']:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
