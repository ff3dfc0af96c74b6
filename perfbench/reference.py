"""Independent mpmath reference for the benchmark grids.

The box values come from the closed hypergeometric form evaluated with
mpmath's own ``hyp2f1`` and ``gamma`` at 30 digits; no code of the program
is used.  On the Euclidean region every invariant is negative, so the
powers are real and the principal value on the cut of 2F1(1, e; 1+e; z)
is the real part of either one-sided limit.

The Laurent coefficients of the regulator expansion are the Taylor
coefficients of f(e) = e**2 * I(e) at e = 0.  Two extractions exist:

* ``laurent_step``: a degree-5 polynomial through f at e = h .. 6h
  (h = 1e-8, 60 digits), about 25 ms per point, used for every grid point;
* ``laurent_cauchy``: mpmath ``taylor(..., method='quad')``, a Cauchy
  integral on a circle of radius 1/2 around e = 0, several seconds per
  point, stored for the fixed anchor points in ``laurent_anchors.json``.

Make a reference anew:

    python3 perfbench/reference.py --workload analytic --seed 3
    python3 perfbench/reference.py --anchors     # rewrites laurent_anchors.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import mpmath as mp

from grid import ANCHOR_POINTS, WORKLOADS, make_grid

HERE = os.path.dirname(os.path.abspath(__file__))
ANCHOR_FILE = os.path.join(HERE, "laurent_anchors.json")
DPS = 30


def _f21_pv(e, z):
    # 2F1(1, e; 1+e; z): real e gives the principal value as the real
    # part; complex e (the Cauchy circle) takes the limit from above, whose
    # Taylor coefficients in e have the principal value as real part
    if isinstance(e, mp.mpf):
        return mp.re(mp.hyp2f1(1, e, 1 + e, z))
    if z > 1:
        z = mp.mpc(z, mp.mpf(10) ** (-3 * mp.mp.dps))
    return mp.hyp2f1(1, e, 1 + e, z)


def box(s, t, eps, msq=None):
    """Box value from the closed form, at the current mpmath precision."""
    s, t = mp.mpf(s), mp.mpf(t)
    e = eps if isinstance(eps, (mp.mpf, mp.mpc)) else mp.mpf(eps)
    pref = mp.gamma(e) ** 2 * mp.gamma(1 - e) / (mp.gamma(2 * e) * e) / (s * t)
    if msq is None:
        return pref * ((-s) ** e * _f21_pv(e, 1 + s / t)
                       + (-t) ** e * _f21_pv(e, 1 + t / s))
    m = mp.mpf(msq)
    q = s + t - m
    return pref * ((-s) ** e * _f21_pv(e, q / t) + (-t) ** e * _f21_pv(e, q / s)
                   - (-m) ** e * _f21_pv(e, m * q / (s * t)))


def feynman(s, t, eps, msq=None):
    """Box value from the Feynman-parameter integral, by mpmath quadrature.

    I = G(e)^2 G(1-e) / G(2e) * int_0^1 (a^(e-1) - b^(e-1)) / (b - a) dz
    with a = z(-s) + (1-z)(-msq), b = (1-z)(-t).  Each half of [0, 1] is
    mapped by z = u^(1/e) (lower) or 1 - z = u^(1/e) (upper), which makes
    the endpoint singularities bounded; z and 1 - z are both carried so
    that neither is formed by cancellation.
    """
    s, t, e = mp.mpf(s), mp.mpf(t), mp.mpf(eps)
    m = mp.mpf(0) if msq is None else mp.mpf(msq)
    inv = 1 / e

    def f(z, w):
        a = z * (-s) + w * (-m)
        b = w * (-t)
        return (a ** (e - 1) - b ** (e - 1)) / (b - a)

    def lower(u):
        z = u ** inv
        return f(z, 1 - z) * inv * u ** (inv - 1)

    def upper(u):
        w = u ** inv
        return f(1 - w, w) * inv * u ** (inv - 1)

    top = mp.mpf(0.5) ** e
    # with a small mass the lower half has a boundary layer at z ~ msq/(msq + s)
    cuts = [0, top]
    if msq is not None:
        layer = (m / (m + s)) ** e
        cuts = [0] + [c for c in (layer / 4, layer, 4 * layer) if c < top] + [top]
    pref = mp.gamma(e) ** 2 * mp.gamma(1 - e) / mp.gamma(2 * e)
    return pref * (mp.quad(lower, cuts) + mp.quad(upper, [0, top]))


def leading_coefficient(s, t, msq=None):
    """Exact coefficient of 1/eps^2: 4/(st) massless, 2/(st) one-mass."""
    return (4 if msq is None else 2) / (mp.mpf(s) * mp.mpf(t))


def laurent_step(s, t, msq=None):
    """Coefficients of eps^-2, eps^-1, eps^0 from real-eps interpolation."""
    with mp.workdps(60):
        h = mp.mpf("1e-8")
        xs = [h * j for j in range(1, 7)]
        ys = mp.matrix([x ** 2 * box(s, t, x, msq) for x in xs])
        vander = mp.matrix([[x ** k for k in range(6)] for x in xs])
        c = mp.lu_solve(vander, ys)
        return [+c[0], +c[1], +c[2]]


def laurent_cauchy(s, t, msq=None):
    """Coefficients of eps^-2, eps^-1, eps^0 by Cauchy-integral extraction."""
    f = lambda e: e ** 2 * box(s, t, e, msq)
    return [mp.re(c) for c in mp.taylor(f, 0, 2, method="quad", radius=0.5)]


def split(x) -> list:
    """A real mpmath number as [hi, lo] doubles with hi + lo ~ x to 1e-32."""
    hi = float(x)
    return [hi, float(mp.mpf(x) - hi)]


def grid_digest(points: list) -> str:
    keys = ("integral", "s", "t", "msq", "eps")
    text = json.dumps([[p[k] for k in keys] for p in points])
    return hashlib.sha256(text.encode()).hexdigest()


def make_reference(workload: str, seed: int, points: list, expand: bool) -> dict:
    anchors = load_anchors() if expand else {}
    rows = []
    with mp.workdps(DPS):
        for p in points:
            row = {"value": split(box(p["s"], p["t"], p["eps"], p["msq"]))}
            if expand:
                key = anchor_key(p)
                if key in anchors:
                    row["laurent"] = anchors[key]
                    row["laurent_source"] = "cauchy"
                else:
                    row["laurent"] = [split(c) for c in laurent_step(p["s"], p["t"], p["msq"])]
                    row["laurent_source"] = "step"
            rows.append(row)
    return {"workload": workload, "seed": seed, "dps": DPS,
            "command": f"python3 perfbench/reference.py --workload {workload} --seed {seed}",
            "grid_sha256": grid_digest(points), "points": rows}


def anchor_key(p: dict) -> str:
    return json.dumps([p["integral"], p["s"], p["t"], p["msq"]])


def load_anchors() -> dict:
    with open(ANCHOR_FILE) as fh:
        return {anchor_key(a): a["laurent"] for a in json.load(fh)["anchors"]}


def write_anchors() -> None:
    rows = []
    with mp.workdps(DPS):
        for a in ANCHOR_POINTS:
            coeffs = laurent_cauchy(a["s"], a["t"], a["msq"])
            rows.append({**{k: a[k] for k in ("integral", "s", "t", "msq")},
                         "laurent": [split(c) for c in coeffs],
                         "laurent_text": [mp.nstr(c, DPS) for c in coeffs]})
            print(a, [mp.nstr(c, 20) for c in coeffs], file=sys.stderr)
    with open(ANCHOR_FILE, "w") as fh:
        json.dump({"method": "mpmath taylor(eps^2 I(eps), 0, 2, method='quad', radius=0.5)",
                   "dps": DPS, "command": "python3 perfbench/reference.py --anchors",
                   "anchors": rows}, fh, indent=1)
        fh.write("\n")


def reference_path(out_dir: str, workload: str, seed: int) -> str:
    return os.path.join(out_dir, "ref", f"{workload}-{seed}.json")


def load_or_make(out_dir: str, workload: str, seed: int, points: list,
                 expand: bool) -> dict:
    """The stored reference for this grid, made and stored first if missing."""
    path = reference_path(out_dir, workload, seed)
    try:
        with open(path) as fh:
            ref = json.load(fh)
        if ref["grid_sha256"] == grid_digest(points):
            return ref
    except (OSError, ValueError, KeyError):
        pass
    ref = make_reference(workload, seed, points, expand)
    store(out_dir, workload, seed, ref)
    return ref


def store(out_dir: str, workload: str, seed: int, ref: dict) -> None:
    path = reference_path(out_dir, workload, seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(ref, fh)
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--anchors", action="store_true")
    args = parser.parse_args(argv)
    if args.anchors:
        write_anchors()
        return 0
    if args.workload is None or args.seed is None:
        parser.error("need --workload and --seed, or --anchors")
    points = make_grid(args.workload, args.seed)
    out_dir = os.path.join(HERE, "out")
    store(out_dir, args.workload, args.seed,
          make_reference(args.workload, args.seed, points, WORKLOADS[args.workload]["expand"]))
    print(reference_path(out_dir, args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
