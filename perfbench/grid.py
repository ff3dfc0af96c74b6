"""Seeded kinematic grids for the benchmark workloads.

The random points form a centred Latin hypercube: each coordinate takes
the midpoints of ``n`` equal strata of its range, and the seed decides how
the coordinates pair up, which points are massless and which get mirrored
and scaled copies.  Work and accuracy depend most on eps and on the
kinematic ratios, so with the same marginal values in every seed the
figures of one seed are comparable with those of another.
"""

from __future__ import annotations

import random

# Named-fault edge points of the analytic grid.  Each fails on the routes
# it names, far beyond their tolerances, and passes on every other route.
EDGE_POINTS = (
    # F1: closed_alt one-mass returns a value with relative error 1.0
    {"name": "F1", "integral": "onemass", "s": -0.0905, "t": -1.267e-7,
     "msq": -26294.7, "eps": 0.9685, "fails": ["closed_alt"]},
    # F2/F3: the msq**eps boundary layer; feynman misses it (2e-1, 1e-3)
    # and the residue route loses digits as msq -> 0 (2.4e-9, 8.0e-9)
    {"name": "F2F3-eps0.05", "integral": "onemass", "s": -1.0, "t": -2.0,
     "msq": -1e-9, "eps": 0.05, "fails": ["feynman", "residue"]},
    {"name": "F2F3-eps0.3", "integral": "onemass", "s": -1.0, "t": -2.0,
     "msq": -1e-9, "eps": 0.3, "fails": ["feynman", "residue"]},
)

# Fixed analytic points whose Laurent coefficients are stored from the
# Cauchy-integral extraction (laurent_anchors.json); eps only matters for
# the routes.
ANCHOR_POINTS = (
    {"integral": "massless", "s": -1.0, "t": -2.0, "msq": None, "eps": 0.3},
    {"integral": "massless", "s": -37.0, "t": -0.05, "msq": None, "eps": 0.07},
    {"integral": "massless", "s": -0.013, "t": -9.1, "msq": None, "eps": 0.85},
    {"integral": "onemass", "s": -1.0, "t": -2.0, "msq": -0.5, "eps": 0.25},
    {"integral": "onemass", "s": -0.03, "t": -20.0, "msq": -0.001, "eps": 0.6},
    {"integral": "onemass", "s": -55.0, "t": -0.4, "msq": -3000.0, "eps": 0.45},
)

ANALYTIC_ROUTES = ("closed", "closed_alt", "residue", "feynman")

# per workload: random points per grid, mirrored and scaled copies, routes
# of the sweep, whether expand runs too, massless share, eps range, and the
# log10 ranges of t/s and msq/s
WORKLOADS = {
    "analytic": dict(points=600, mirrored=40, scaled=40, routes=ANALYTIC_ROUTES,
                     expand=True, massless_share=0.5, eps=(0.02, 0.99),
                     t_over_s=(-3.0, 3.0), msq_over_s=(-3.0, 3.0)),
    "mb-massless": dict(points=24, mirrored=3, scaled=3, routes=("mb",),
                        expand=False, massless_share=1.0, eps=(0.02, 0.99),
                        t_over_s=(-4.0, 4.0), msq_over_s=None),
    "mb-onemass": dict(points=4, mirrored=1, scaled=1, routes=("mb",),
                       expand=False, massless_share=0.0, eps=(0.2, 0.95),
                       t_over_s=(-2.0, 2.0), msq_over_s=(-2.0, 2.0)),
}

S_DECADES = (-2.0, 2.0)
DEGENERACY_MARGIN = 0.05


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    cells = list(range(n))
    rng.shuffle(cells)
    return [lo + (hi - lo) * (c + 0.5) / n for c in cells]


def _clear_of_boundaries(s: float, t: float, msq: float) -> float:
    # the one-mass box is singular on msq = s, msq = t and msq = s + t;
    # keep sampled points a relative distance DEGENERACY_MARGIN away
    while any(abs(msq / x - 1.0) < DEGENERACY_MARGIN for x in (s, t, s + t)):
        msq *= 1.0 + 2.0 * DEGENERACY_MARGIN
    return msq


def corner_points(workload: str) -> list[dict]:
    """The corners of the workload's domain, at s = -1.

    A route's worst error sits at a corner of the domain (eps near 0 or 1,
    extreme ratios), so every round holds the corners; otherwise
    min_digits would hinge on how near a corner each seed happens to land.
    """
    spec = WORKLOADS[workload]
    routes = list(spec["routes"])
    out = []
    kinds = []
    if spec["massless_share"] > 0.0:
        kinds.append("massless")
    if spec["massless_share"] < 1.0:
        kinds.append("onemass")
    for kind in kinds:
        msq_ends = spec["msq_over_s"] if kind == "onemass" else (None,)
        for eps in spec["eps"]:
            for log_t in spec["t_over_s"]:
                for log_m in msq_ends:
                    s, t = -1.0, -(10.0 ** log_t)
                    msq = None if log_m is None else _clear_of_boundaries(s, t, -(10.0 ** log_m))
                    out.append({"integral": kind, "s": s, "t": t, "msq": msq,
                                "eps": eps, "methods": routes, "role": "corner"})
    return out


def make_grid(workload: str, seed: int) -> list[dict]:
    """Points of one round: random points, their copies, then fixed points.

    Each point is a sweep input (``integral``, ``s``, ``t``, ``msq``,
    ``eps``, ``methods``) plus ``role`` (``random``, ``mirrored``,
    ``scaled``, ``corner``, ``anchor``, ``edge``), ``of`` (index of the
    original of a copy), ``scale`` (the power of two of a scaled copy) and
    ``fails`` (the routes an edge point fails on).
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    n = spec["points"]
    n_massless = round(n * spec["massless_share"])
    routes = list(spec["routes"])
    eps = _strata(rng, n, *spec["eps"])
    log_s = _strata(rng, n, *S_DECADES)
    log_t = _strata(rng, n, *spec["t_over_s"])
    log_m = _strata(rng, n, *spec["msq_over_s"]) if spec["msq_over_s"] else None
    massless = [True] * n_massless + [False] * (n - n_massless)
    rng.shuffle(massless)
    points = []
    for i in range(n):
        s = -(10.0 ** log_s[i])
        t = s * 10.0 ** log_t[i]
        point = {"integral": "massless" if massless[i] else "onemass",
                 "s": s, "t": t, "msq": None, "eps": eps[i],
                 "methods": routes, "role": "random"}
        if not massless[i]:
            point["msq"] = _clear_of_boundaries(s, t, s * 10.0 ** log_m[i])
        points.append(point)
    # one copy from each of k equal eps bands, so that the copies, which
    # double their originals' weight in median_digits, spread over eps
    k = spec["mirrored"] + spec["scaled"]
    by_eps = sorted(range(n), key=lambda i: eps[i])
    originals = [by_eps[rng.randrange(j * n // k, (j + 1) * n // k)] for j in range(k)]
    mirrored = set(rng.sample(range(k), spec["mirrored"]))
    for j, i in enumerate(originals):
        p = points[i]
        if j in mirrored:
            copy = {**p, "s": p["t"], "t": p["s"], "role": "mirrored", "of": i}
        else:
            lam = 2.0 ** rng.choice((-3, -2, -1, 1, 2, 3))
            copy = {**p, "s": lam * p["s"], "t": lam * p["t"],
                    "msq": None if p["msq"] is None else lam * p["msq"],
                    "role": "scaled", "of": i, "scale": lam}
        points.append(copy)
    points.extend(corner_points(workload))
    if workload == "analytic":
        points += [{**a, "methods": routes, "role": "anchor"} for a in ANCHOR_POINTS]
        points += [{**e, "methods": routes, "role": "edge"} for e in EDGE_POINTS]
    return points
