"""Bitwise comparison of the public special functions of two checkouts.

    python3 tools/specfun_diff.py --parent ../parent --change . [--points 20000] [--seed 1]

``--parent`` and ``--change`` are repository roots.  One seeded sample of
real points (x, eps) is drawn: half with |x| log-uniform in [1e-3, 1e3] and
a random sign, half with x uniform in [-3, 3], and eps uniform in
[0.001, 0.999].  Each checkout evaluates, in its own interpreter with
``PYTHONPATH=<root>/src``, ``f21_1e(x, eps)``, ``f21_2e(x, eps)``,
``f21_11(x, eps)``, both pieces of ``f21_11_split(x, eps)`` and ``li2(x)``
under each of the three cut prescriptions, and ``gamma(x)`` and
``digamma(x)``.  A second seeded sample holds lines of LINE heights y
uniform in [0, 14], one line per x log-uniform in [1e-3, 2], as many
(x, y) as ``--points``; on it each checkout evaluates
``gamma_abs2_line(x, y)`` (its real part) and ``ln_gamma_line(x, y)``
(ln|Gamma| as the real part, arg Gamma as the imaginary one), one call per
line.  For each function and cut it prints how many real and
how many imaginary parts differ bit for bit, with +0 and -0 taken as equal
(a point where one side raises and the other does not, or the two raise
different errors, counts as differing in both).  Among the differing
parts it prints the worst error of each side against mpmath at 40 digits,
relative to the modulus of the reference, and at how many of them the
change is the closer.  The reference of a one-sided value is taken 1e-35
off the real axis on that side, and the principal value is the mean of
the two sides; that of a line function is mpmath's log-gamma at x + iy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CUTS = ("pv", "above", "below")
CUT_FUNCTIONS = ("f21_1e", "f21_2e", "f21_11", "f21_11_split.head", "f21_11_split.tail", "li2")
LINE_FUNCTIONS = ("gamma_abs2_line", "ln_gamma_line")
LINE = 160
OFF_AXIS = 1e-35
DPS = 40


def sample(seed: int, points: int) -> list:
    """``points`` seeded (x, eps) pairs, x != 0 and x != 1."""
    rng = random.Random(seed)
    out = []
    while len(out) < points:
        if len(out) % 2:
            x = rng.uniform(-3.0, 3.0)
        else:
            x = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        if x not in (0.0, 1.0):
            out.append((x, rng.uniform(0.001, 0.999)))
    return out


def sample_lines(seed: int, points: int) -> list:
    """About ``points`` seeded (x, y) heights as [x, [y, ...]] lines of LINE heights."""
    rng = random.Random(seed)
    return [[10.0 ** rng.uniform(-3.0, math.log10(2.0)), [rng.uniform(0.0, 14.0)
                                                          for _ in range(LINE)]]
            for _ in range(max(1, points // LINE))]


def line_points(lines: list) -> list:
    """The (x, y) of every height of ``lines``, in order."""
    return [(x, y) for x, ys in lines for y in ys]


def evaluate(points: list, lines: list) -> dict:
    """Every function's outcome at every point, and every line function's at
    every height of ``lines``, in this interpreter's ``mbbox``: [re, im] or
    the name of the error it raised."""
    import numpy as np

    from mbbox import specfun as sf

    def outcome(call):
        try:
            v = complex(call())
        except Exception as exc:  # recorded, compared by type
            return type(exc).__name__
        return [v.real, v.imag]

    out = {}
    for cut_name in CUTS:
        cut = {"pv": sf.PV, "above": sf.ABOVE, "below": sf.BELOW}[cut_name]
        rows = {name: [] for name in CUT_FUNCTIONS}
        for x, e in points:
            rows["f21_1e"].append(outcome(lambda: sf.f21_1e(x, e, cut)))
            rows["f21_2e"].append(outcome(lambda: sf.f21_2e(x, e, cut)))
            rows["f21_11"].append(outcome(lambda: sf.f21_11(x, e, cut)))
            rows["f21_11_split.head"].append(outcome(lambda: sf.f21_11_split(x, e, cut)[0]))
            rows["f21_11_split.tail"].append(outcome(lambda: sf.f21_11_split(x, e, cut)[1]))
            rows["li2"].append(outcome(lambda: sf.li2(x, cut)))
        for name, values in rows.items():
            out[f"{name} {cut_name}"] = values
    out["gamma"] = [outcome(lambda: sf.gamma(x)) for x, _ in points]
    out["digamma"] = [outcome(lambda: sf.digamma(x)) for x, _ in points]
    out["gamma_abs2_line"], out["ln_gamma_line"] = [], []
    for x, ys in lines:
        y = np.array(ys)
        out["gamma_abs2_line"] += [[g, 0.0] for g in sf.gamma_abs2_line(x, y).tolist()]
        out["ln_gamma_line"] += [list(pair) for pair in zip(*(a.tolist()
                                                              for a in sf.ln_gamma_line(x, y)))]
    return out


def run_checkout(root: str, points: list, lines: list) -> dict:
    """:func:`evaluate` in a fresh interpreter on ``root``'s ``src/``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(os.path.abspath(root), "src"),
                                                         HERE])}
    code = ("import json, sys, specfun_diff\n"
            "json.dump(specfun_diff.evaluate(*json.load(sys.stdin)), sys.stdout)")
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps([points, lines]), env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def reference(key: str, x: float, e: float) -> complex:
    """mpmath's value of the function and cut named by ``key`` at (x, eps),
    or of the line function at (x, y)."""
    import mpmath

    name, _, cut = key.partition(" ")
    with mpmath.workdps(DPS):
        x, e = mpmath.mpf(x), mpmath.mpf(e)
        if name == "gamma_abs2_line":
            return complex(mpmath.exp(2 * mpmath.re(mpmath.loggamma(mpmath.mpc(x, e)))))
        if name == "ln_gamma_line":
            return complex(mpmath.loggamma(mpmath.mpc(x, e)))
        if name == "gamma":
            return complex(mpmath.gamma(x))
        if name == "digamma":
            return complex(mpmath.digamma(x))

        def side(sign):
            z = mpmath.mpc(x, sign * OFF_AXIS)
            if name == "f21_1e":
                return mpmath.hyp2f1(1, e, 1 + e, z)
            if name == "f21_2e":
                return mpmath.hyp2f1(1, 1 + e, 2 + e, z)
            if name == "f21_11":
                return mpmath.hyp2f1(1, 1, 2 - e, z)
            if name == "li2":
                return mpmath.polylog(2, z)
            # f21_11_split at t/s = x: the connection pieces at z = -1/x, whose
            # side is that of 1 + x, the head's argument
            r = mpmath.mpc(x, sign * OFF_AXIS)
            if name == "f21_11_split.head":
                return (1 - e) / e * x * mpmath.hyp2f1(1, e, 1 + e, 1 + r)
            w = -1 / r
            return mpmath.gamma(2 - e) * mpmath.gamma(e) * (1 - w) ** (-e) * w ** (e - 1)

        if cut == "above":
            return complex(side(1))
        if cut == "below":
            return complex(side(-1))
        return complex((side(1) + side(-1)) / 2)


def compare(points: list, heights: list, parent: dict, change: dict) -> list:
    """One summary row per function and cut (see the module docstring);
    ``heights`` are the (x, y) of the line functions."""
    rows = []
    for key in parent:
        where = heights if key in LINE_FUNCTIONS else points
        differ = {0: [], 1: []}
        for i, (a, b) in enumerate(zip(parent[key], change[key])):
            for part in (0, 1):
                if isinstance(a, str) or isinstance(b, str):
                    if a != b:
                        differ[part].append(i)
                elif a[part] != b[part]:
                    differ[part].append(i)
        row = {"function": key}
        for part, label in ((0, "re"), (1, "im")):
            worst = [0.0, 0.0]
            closer = 0
            for i in differ[part]:
                a, b = parent[key][i], change[key][i]
                ref = reference(key, *where[i])
                scale = abs(ref) or 1.0
                errors = [math.inf if isinstance(v, str)
                          else abs(v[part] - (ref.real, ref.imag)[part]) / scale for v in (a, b)]
                worst = [max(w, err) for w, err in zip(worst, errors)]
                closer += errors[1] < errors[0]
            row[label] = {"differ": len(differ[part]), "parent_worst": worst[0],
                          "change_worst": worst[1], "change_closer": closer}
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bitwise special-function diff of two checkouts")
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the changed checkout")
    parser.add_argument("--points", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    points, lines = sample(args.seed, args.points), sample_lines(args.seed, args.points)
    rows = compare(points, line_points(lines), run_checkout(args.parent, points, lines),
                   run_checkout(args.change, points, lines))
    print(f"{args.points} points and {len(lines)} lines of {LINE} heights, seed {args.seed}; "
          "worst errors are relative to |mpmath|")
    print(f"{'function':24} {'re differ':>9} {'parent':>9} {'change':>9} {'closer':>6} "
          f"{'im differ':>9} {'parent':>9} {'change':>9} {'closer':>6}")
    for r in rows:
        cells = " ".join(f"{r[p]['differ']:9d} {r[p]['parent_worst']:9.2e} "
                         f"{r[p]['change_worst']:9.2e} {r[p]['change_closer']:6d}"
                         for p in ("re", "im"))
        print(f"{r['function']:24} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
