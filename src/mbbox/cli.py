"""Command-line front-end: point evaluation, expansion, verification, sweeps.

Commands
--------
``eval``    evaluate one kinematic point with a chosen method
``expand``  emit the Laurent coefficients of the regulator expansion
``verify``  run the cross-validation suites on fixed grids
``sweep``   evaluate a JSON grid of points and write a report

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 numerical failure.  Reports are JSON on stdout (or ``--out``),
with full-precision repr floats and no locale formatting.

Environment overrides: ``MBBOX_TOL`` (the tolerance of ``verify`` and
``sweep``), ``MBBOX_QUAD_NODES`` and ``MBBOX_QUAD_HEIGHT`` (the contour of
``eval --method mb``, the only reader of ``--nodes`` and ``--height``;
``sweep`` always runs the default contours).  Explicit flags win over the
environment, and a command does not parse a variable it does not read.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import mb_engine, oracles
from .closed_form import (
    Kinematics,
    massless_box,
    massless_box_alt,
    massless_box_laurent,
    onemass_box,
    onemass_box_alt,
    onemass_box_laurent,
)
from .errors import (
    DegenerateKinematics,
    InfeasibleContour,
    MbboxError,
    NonConvergence,
)
from .specfun import (
    ABOVE,
    BELOW,
    PV,
    CutPrescription,
    f21_1e,
    f21_2e,
    f21_11,
    f21_11_split,
    f21_general_series,
    cut_power,
    gamma,
    li2,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NOT_CONVERGED = 3

_CUTS = {"pv": PV, "above": ABOVE, "below": BELOW}
_METHODS = ("closed", "closed_alt", "mb", "residue", "feynman")
# the methods that read a cut prescription; mb and feynman give the PV value only
_CUT_METHODS = ("closed", "closed_alt", "residue")
_INTEGRALS = ("massless", "onemass")
_NUMBER_OPTIONS = ("--s", "--t", "--msq", "--eps", "--height")


@dataclass
class RunConfig:
    """Validated inputs of one evaluation request."""

    integral: str
    s: float
    t: float
    eps: float
    msq: float | None = None
    method: str = "closed"
    cut: CutPrescription = PV
    quad_nodes: int | None = None
    quad_height: float | None = None

    def kinematics(self) -> Kinematics:
        _check_integral(self.integral, self.msq, "")
        return Kinematics(s=self.s, t=self.t, eps=self.eps, msq=self.msq)


def _check_integral(integral, msq, where: str) -> None:
    if integral not in _INTEGRALS or (msq is None) != (integral == "massless"):
        raise DegenerateKinematics(f"{where}integral={integral!r} with msq={msq}: "
                                   "msq is given for onemass and only for it")


@dataclass
class Report:
    """Machine-readable result container with a lossless JSON form.

    ``to_json`` writes compact JSON, which the ``json`` module encodes in C;
    ``from_json`` reads any JSON layout, indented or not."""

    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"records": self.records, "summary": self.summary},
                          allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        raw = json.loads(text)
        return cls(records=raw["records"], summary=raw["summary"])


def _c(value: complex) -> dict:
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def _jsonable(obj):
    if isinstance(obj, complex):
        return _c(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _env_default(name, cast, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise DegenerateKinematics(f"bad {name}={raw!r}")


def _tolerance(args, default: float) -> float:
    """``--tol``, else ``MBBOX_TOL``, else ``default``: a finite number >= 0."""
    name, value = "--tol", args.tol
    if value is None:
        name, value = "MBBOX_TOL", _env_default("MBBOX_TOL", float, default)
    if not 0.0 <= value < math.inf:
        raise DegenerateKinematics(f"{name}={value!r} is not a finite number >= 0")
    return value


def _contours(cfg: RunConfig, k: Kinematics) -> tuple:
    """The route's contours when a node count or a height is configured,
    else none, so that the route selects its own.  Only the configured
    field changes: a height given without a node count keeps the step.
    """
    if cfg.quad_nodes is None and cfg.quad_height is None:
        return ()
    if cfg.integral == "massless":
        specs = (mb_engine.select_contour_massless(k),)
    else:
        specs = mb_engine.select_contour_onemass(k)
    if cfg.quad_nodes is None:
        return tuple(mb_engine.ContourSpec.from_step(c.abscissa, cfg.quad_height, c.step)
                     for c in specs)
    return tuple(mb_engine.ContourSpec(c.abscissa, c.height if cfg.quad_height is None
                                       else cfg.quad_height, cfg.quad_nodes) for c in specs)


# (integral, method) -> route; the lambdas look the functions up at call time
_ROUTES = {
    ("massless", "closed"): lambda cfg, k: massless_box(k, cfg.cut),
    ("massless", "closed_alt"): lambda cfg, k: massless_box_alt(k, cfg.cut),
    ("massless", "feynman"): lambda cfg, k: oracles.feynman_1d_massless(k),
    ("massless", "mb"): lambda cfg, k: mb_engine.mb_massless_eval(k, *_contours(cfg, k)),
    ("massless", "residue"): lambda cfg, k: mb_engine.residue_massless(k, cfg.cut),
    ("onemass", "closed"): lambda cfg, k: onemass_box(k, cfg.cut),
    ("onemass", "closed_alt"): lambda cfg, k: onemass_box_alt(k, cfg.cut),
    ("onemass", "feynman"): lambda cfg, k: oracles.feynman_1d_onemass(k),
    ("onemass", "mb"): lambda cfg, k: mb_engine.mb_onemass_eval(k, *_contours(cfg, k)),
    ("onemass", "residue"): lambda cfg, k: mb_engine.residue_onemass(k, cfg.cut),
}


def _numerical(what: str, k: Kinematics, compute, numbers):
    """compute(), where a float overflow, a zero divisor, a first number of
    numbers(result) (the value or the eps^-2 coefficient) outside the normal
    double range, or another one that is not finite, is NonConvergence."""
    try:
        with np.errstate(all="ignore"):
            result = compute()
    except MbboxError:
        raise
    except ArithmeticError as exc:
        raise NonConvergence(f"{what} failed: {type(exc).__name__}: {exc}") from exc
    values = numbers(result)
    if not (sys.float_info.min <= abs(values[0]) < math.inf and all(map(cmath.isfinite, values))):
        raise NonConvergence(f"{what} at the scale -s={-k.s!r} gave "
                             f"{' '.join(map(repr, values))}, out of the double range")
    return result


def _evaluate(cfg: RunConfig, k: Kinematics):
    """The BoxValue of cfg's method at k."""
    route = _ROUTES.get((cfg.integral, cfg.method))
    if route is None:
        raise DegenerateKinematics(f"unknown method {cfg.method}")
    if cfg.cut is not PV and cfg.method not in _CUT_METHODS:
        raise DegenerateKinematics(f"--cut {cfg.cut.value} is not read by method {cfg.method}, "
                                   "which gives the principal value only; use "
                                   f"{', '.join(_CUT_METHODS)}")
    for option, value in (("--nodes", cfg.quad_nodes), ("--height", cfg.quad_height)):
        if value is not None and cfg.method != "mb":
            raise DegenerateKinematics(f"{option} is not read by method {cfg.method}; "
                                       "only mb has a contour")
    return _numerical(f"method {cfg.method}", k, lambda: route(cfg, k), lambda r: (r.value,))


def _record(cfg: RunConfig, k: Kinematics, method: str, **fields) -> dict:
    return {"integral": cfg.integral,
            "kinematics": {"s": k.s, "t": k.t, "msq": k.msq, "eps": k.eps},
            "method": method, **fields}


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

MASSLESS_GRID = tuple((s, t, e)
                      for s in (-0.5, -1.0, -3.0)
                      for t in (-0.5, -1.0, -3.0)
                      for e in (0.02, 0.2, 0.3, 0.45, 0.7))

ONEMASS_GRID = tuple((s, t, m2, e)
                     for s in (-0.5, -1.0, -2.0)
                     for t in (-0.5, -1.0, -2.0)
                     for m2 in (-0.5, -1.0, -2.0)
                     for e in (0.25, 0.4)
                     if m2 not in (s, t, s + t))


def _check(checks: list, name: str, deviation: float, tol: float):
    checks.append({"check": name, "deviation": deviation, "tol": tol,
                   "pass": bool(deviation <= tol)})


def _suite_report(suite: str, checks: list) -> Report:
    return Report(records=checks, summary={
        "suite": suite,
        "checks": len(checks),
        "failures": sum(not c["pass"] for c in checks),
        "max_deviation": max(c["deviation"] for c in checks),
    })


def verify_identities(tol: float = 1e-11) -> Report:
    """Two-sided numeric checks of the function-level identities."""
    checks: list = []
    cut_tol = 10.0 * tol

    for x in (0.2, 0.5, 1.0, 2.5, 6.0, 0.9):
        lhs = li2(-x) + li2(-1.0 / x)
        rhs = -0.5 * math.log(x) ** 2 - math.pi ** 2 / 6.0
        _check(checks, f"dilog inversion sum x={x}", abs(lhs - rhs), tol)

    for x in (0.1, 0.25, 0.5, 0.8, 0.95):
        lhs = li2(1.0 - x)
        rhs = math.pi ** 2 / 6.0 - li2(x) - math.log(x) * math.log(1.0 - x)
        _check(checks, f"dilog reflection x={x}", abs(lhs - rhs), tol)

    for (e, z) in ((0.3, 0.6), (0.4, 0.5), (0.25, -0.8), (0.7, 0.2), (0.55, -2.5)):
        lhs = f21_1e(z, e) / e
        rhs = 1.0 / e + z / (1.0 + e) * f21_2e(z, e)
        _check(checks, f"parameter-shift identity e={e} z={z}",
               abs(lhs - rhs) / max(1.0, abs(lhs)), tol)
    for (e, z) in ((0.3, 1.5), (0.45, 2.0), (0.2, 3.5), (0.6, 1.2), (0.35, 5.0)):
        for cut in (PV, ABOVE, BELOW):
            lhs = f21_1e(z, e, cut) / e
            rhs = 1.0 / e + z / (1.0 + e) * f21_2e(z, e, cut)
            _check(checks, f"parameter-shift identity e={e} z={z} {cut.value}",
                   abs(lhs - rhs) / max(1.0, abs(lhs)), cut_tol)

    for (s, t, e) in ((-1.0, -2.0, 0.3), (-3.0, -1.0, 0.45), (-0.5, -2.0, 0.2),
                      (-1.0, -1.0, 0.35), (-2.0, -3.0, 0.6)):
        for cut in (PV, ABOVE, BELOW):
            head, alg = f21_11_split(t / s, e, cut)
            direct = f21_11(-s / t, e, cut)
            _check(checks, f"resummation split s={s} t={t} e={e} {cut.value}",
                   abs(head + alg - direct) / max(1.0, abs(direct)), cut_tol)

    for (e, z) in ((0.3, -0.5), (0.45, -3.0), (0.2, 0.4), (0.35, -9.0), (0.6, 0.85)):
        # both cut-sensitive factors taken from above; the imaginary parts
        # cancel in the sum for z < 0 where the left side is real
        lhs = f21_11(z, e)
        head = -((1.0 - e) / e) / z * f21_1e(1.0 - 1.0 / z, e, ABOVE)
        tail = gamma(2.0 - e) * gamma(e) * cut_power(1.0 - z, -e) \
            * cut_power(z, e - 1.0, ABOVE)
        rhs = head + tail
        _check(checks, f"inverse-argument connection e={e} z={z}",
               abs(lhs - rhs) / max(1.0, abs(lhs)),
               cut_tol if z < 0.0 else tol)

    for (e, d, z) in ((0.3, 1e-3, 0.4), (0.45, 3e-3, 0.3), (0.25, 1e-3, 0.55),
                      (0.6, 2e-3, 0.2), (0.35, 5e-4, 0.7)):
        lhs = f21_general_series(1.0, e - d, 1.0 - d, z)
        c1 = gamma(1.0 - d) * gamma(-e) / (gamma(-d) * gamma(1.0 - e))
        c2 = gamma(1.0 - d) * gamma(e) / gamma(e - d)
        rhs = c1 * f21_general_series(1.0, e - d, 1.0 + e, 1.0 - z) \
            + c2 * (1.0 - z) ** (-e) * z ** d
        _check(checks, f"regulated connection e={e} d={d} z={z}",
               abs(lhs - rhs) / max(1.0, abs(lhs)), tol)

    for e in (0.3, 0.45, 0.5, 0.7, 0.9):
        lhs = oracles.beta_oracle(e)
        rhs = abs(gamma(e)) ** 2 / gamma(2.0 * e).real
        _check(checks, f"beta integral e={e}", abs(lhs - rhs) / abs(rhs), 1e-10)
    return _suite_report("identities", checks)


def verify_massless(tol_residue: float = 1e-10, tol_oracle: float = 1e-8,
                    tol_spurious: float = 1e-11, tol_pole: float = 1e-12) -> Report:
    """Four-way agreement plus cancellation checks on the massless grid."""
    checks: list = []
    for (s, t, e) in MASSLESS_GRID:
        k = Kinematics(s=s, t=t, eps=e)
        tag = f"s={s} t={t} e={e}"
        closed = massless_box(k).value
        res = mb_engine.residue_massless(k)
        _check(checks, f"residue vs closed {tag}",
               abs(res.value - closed) / abs(closed), tol_residue)
        _check(checks, f"spurious cancellation {tag}",
               abs(res.diagnostics["spurious_sum"]) / abs(closed), tol_spurious)
        _check(checks, f"regulator pole cancellation {tag}",
               abs(res.diagnostics["delta_pole_coefficient"]) / abs(closed), tol_pole)
        feyn = oracles.feynman_1d_massless(k).value
        _check(checks, f"feynman vs closed {tag}",
               abs(feyn - closed) / abs(closed), tol_oracle)
        mbv = mb_engine.mb_massless_eval(k)
        _check(checks, f"mb vs closed {tag}",
               abs(mbv.value - closed) / abs(closed), tol_oracle)
        _check(checks, f"mb error within estimate {tag}",
               abs(mbv.value - closed), mbv.diagnostics["error_estimate"])
        # below eps = 1/2 the default line has crossed the pole at eps - 1
        # and adds its residue; this one has not
        uncrossed = mb_engine.massless_line(k, -1.0 + 0.75 * e)
        drift = abs(mb_engine.mb_massless_eval(k, uncrossed).value - mbv.value)
        _check(checks, f"abscissa-shift drift {tag}", drift / abs(closed), 1e-10)
    return _suite_report("massless", checks)


def verify_onemass(tol_residue: float = 1e-10, tol_spurious: float = 1e-11,
                   tol_mb: float = 1e-11) -> Report:
    """Residue/closed/contour agreement on the one-mass grid, plus the massless limit."""
    checks: list = []
    for (s, t, m2, e) in ONEMASS_GRID:
        k = Kinematics(s=s, t=t, eps=e, msq=m2)
        tag = f"s={s} t={t} m2={m2} e={e}"
        closed = onemass_box(k).value
        res = mb_engine.residue_onemass(k)
        _check(checks, f"residue vs closed {tag}",
               abs(res.value - closed) / abs(closed), tol_residue)
        _check(checks, f"spurious cancellation {tag}",
               abs(res.diagnostics["spurious_sum"]) / abs(closed), tol_spurious)
        mbv = mb_engine.mb_onemass_eval(k)
        _check(checks, f"double-contour vs closed {tag}",
               abs(mbv.value - closed) / abs(closed), tol_mb)
        _check(checks, f"mb error within estimate {tag}",
               abs(mbv.value - closed), mbv.diagnostics["error_estimate"])
    for (s, t, e) in ((-1.0, -2.0, 0.3), (-0.5, -3.0, 0.45)):
        base = massless_box(Kinematics(s=s, t=t, eps=e)).value
        m2s = (-1e-2, -1e-3, -1e-4)
        diffs = [abs(onemass_box(Kinematics(s=s, t=t, eps=e, msq=m2)).value - base)
                 for m2 in m2s]
        slope = np.polyfit(np.log(np.abs(m2s)), np.log(diffs), 1)[0]
        _check(checks, f"massless-limit slope s={s} t={t} e={e}",
               abs(slope - e), 0.05)
    return _suite_report("onemass", checks)


def verify_all(tol: float = 1e-11) -> Report:
    parts = [verify_identities(tol), verify_massless(), verify_onemass()]
    return _suite_report("all", [r for p in parts for r in p.records])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_eval(cfg: RunConfig) -> Report:
    k = cfg.kinematics()
    result = _evaluate(cfg, k)
    record = _record(cfg, k, cfg.method, value=_c(result.value),
                     diagnostics=_jsonable(result.diagnostics))
    return Report(records=[record], summary={"points": 1, "failures": 0})


def cmd_expand(cfg: RunConfig, order: int = 0) -> Report:
    if order > 0 or order < -2:
        raise DegenerateKinematics("expansion order limited to -2 .. 0")
    k = cfg.kinematics()
    laurent = massless_box_laurent if cfg.integral == "massless" else onemass_box_laurent
    coeffs = _numerical("expansion", k, lambda: laurent(k), lambda r: r)
    rows = [{"power": p, **_c(c)} for p, c in zip((-2, -1, 0), coeffs) if p <= order]
    record = _record(cfg, k, "laurent", laurent=rows, provenance="analytic-series")
    return Report(records=[record], summary={"points": 1, "failures": 0})


def cmd_verify(suite: str, tol: float = 1e-11) -> Report:
    if suite == "identities":
        return verify_identities(tol)
    if suite == "massless":
        return verify_massless()
    if suite == "onemass":
        return verify_onemass()
    if suite == "all":
        return verify_all(tol)
    raise DegenerateKinematics(f"unknown suite {suite!r}")


def _grid_inputs(index: int, point) -> tuple[dict, list]:
    """A grid point's integral and invariants, which must be finite numbers,
    with msq given for the onemass integral only, and its list of method
    names (``["closed"]`` when absent)."""
    if not isinstance(point, dict):
        raise DegenerateKinematics(f"grid point {index} is not an object")
    inputs = {"integral": point.get("integral", "massless")}
    for key in ("s", "t", "msq", "eps"):
        value = point.get(key)
        if key == "msq" and value is None:
            inputs[key] = None
        elif type(value) in (int, float) and abs(value) <= sys.float_info.max:
            inputs[key] = float(value)
        else:
            raise DegenerateKinematics(
                f"grid point {index}: {key}={value!r} is not a finite number")
    _check_integral(inputs["integral"], inputs["msq"], f"grid point {index}: ")
    methods = point.get("methods", ["closed"])
    if not (isinstance(methods, list) and all(m in _METHODS for m in methods)):
        raise DegenerateKinematics(f"grid point {index}: methods={methods!r} is not a list "
                                   f"of method names from {', '.join(_METHODS)}")
    return inputs, methods


def _sweep_point(index: int, inputs: dict, methods: list) -> dict:
    base = {"index": index, "inputs": inputs}
    try:
        k = Kinematics(s=inputs["s"], t=inputs["t"], eps=inputs["eps"], msq=inputs["msq"])
        results = {m: _evaluate(RunConfig(method=m, **inputs), k) for m in methods}
    except DegenerateKinematics as exc:
        return {**base, "status": "skipped-degenerate", "reason": str(exc)}
    except MbboxError as exc:
        return {**base, "status": "failed", "reason": f"{type(exc).__name__}: {exc}"}
    deviations = {}
    for m1, m2 in itertools.combinations(sorted(results), 2):
        v1, v2 = complex(results[m1].value), complex(results[m2].value)
        deviations[f"{m1}/{m2}"] = abs(v1 - v2) / max(abs(v1), 1e-300)
    return {**base, "status": "ok", "values": {m: _c(r.value) for m, r in results.items()},
            "deviations": deviations,
            "diagnostics": {m: _jsonable(r.diagnostics) for m, r in results.items()}}


def cmd_sweep(grid_file: str, out_file: str | None, tol: float = 1e-8) -> Report:
    """Evaluate a grid whose invariants are all checked first.  A point that
    raises is recorded as ``skipped-degenerate`` (counted in ``warnings``)
    or ``failed`` (in ``errors``), and the sweep goes on."""
    try:
        with open(grid_file) as fh:
            grid = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DegenerateKinematics(f"cannot read grid file: {exc}")
    points = grid.get("points") if isinstance(grid, dict) else grid
    if not isinstance(points, list):
        raise DegenerateKinematics("grid must be a list of points or an object "
                                   "whose 'points' key holds one")
    checked = [_grid_inputs(i, p) for i, p in enumerate(points)]
    inputs = [c[0] for c in checked]
    methods = [c[1] for c in checked]
    # threads pay only for mb: numpy releases the interpreter lock, the other routes hold it
    workers = 4 if any("mb" in m for m in methods) else 1
    with ThreadPoolExecutor(max_workers=min(workers, max(1, len(points)))) as pool:
        records = list(pool.map(_sweep_point, range(len(points)), inputs, methods))
    failures = 0
    max_dev = 0.0
    for rec in records:
        if rec["status"] != "ok":
            continue
        worst = max(rec["deviations"].values(), default=0.0)
        max_dev = max(max_dev, worst)
        rec["pass"] = worst <= tol
        if not rec["pass"]:
            failures += 1
    report = Report(records=records, summary={
        "points": len(records), "failures": failures,
        "warnings": sum(r["status"] == "skipped-degenerate" for r in records),
        "errors": sum(r["status"] == "failed" for r in records),
        "max_deviation": max_dev, "tol": tol,
    })
    if out_file:
        with open(out_file, "w") as fh:
            fh.write(report.to_json() + "\n")
    return report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbbox",
        description="One-loop box integrals: closed forms, contour quadrature, "
                    "residue resummation, and their cross-validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kinematics(p):
        p.add_argument("--integral", choices=_INTEGRALS,
                       default="massless")
        p.add_argument("--s", type=float, required=True)
        p.add_argument("--t", type=float, required=True)
        p.add_argument("--msq", type=float, default=None)
        p.add_argument("--eps", type=float, required=True)

    p_eval = sub.add_parser("eval", help="evaluate one point")
    add_kinematics(p_eval)
    p_eval.add_argument("--method", choices=_METHODS, default="closed")
    p_eval.add_argument("--cut", choices=sorted(_CUTS), default="pv")
    p_eval.add_argument("--nodes", type=int, default=None)
    p_eval.add_argument("--height", type=float, default=None)
    p_eval.add_argument("--json", action="store_true",
                        help="emit the full JSON record (default: value only)")
    p_eval.add_argument("--out", default=None)

    p_exp = sub.add_parser("expand", help="Laurent coefficients of the expansion")
    add_kinematics(p_exp)
    p_exp.add_argument("--order", type=int, default=0,
                       help="highest emitted power (-2 .. 0)")
    p_exp.add_argument("--json", action="store_true")
    p_exp.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", choices=("identities", "massless", "onemass", "all"),
                       default="all")
    p_ver.add_argument("--tol", type=float, default=None)
    p_ver.add_argument("--json", action="store_true")
    p_ver.add_argument("--out", default=None)

    p_sw = sub.add_parser("sweep", help="evaluate a JSON grid of points")
    p_sw.add_argument("grid_file")
    p_sw.add_argument("--out", default=None)
    p_sw.add_argument("--tol", type=float, default=None)
    return parser


def _is_number(arg: str) -> bool:
    try:
        float(arg)
    except ValueError:
        return False
    return True


def _join_numbers(argv: list[str]) -> list[str]:
    """``--s -1e-3`` as ``--s=-1e-3``: argparse's negative-number pattern has
    no exponent, so it would take a separate ``-1e-3`` for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _NUMBER_OPTIONS and arg.startswith("-") and _is_number(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _emit(report: Report, args) -> None:
    text = report.to_json()
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(_join_numbers(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "eval":
            nodes, height = args.nodes, args.height
            if args.method == "mb":  # the one method with a contour reads the environment
                nodes = _env_default("MBBOX_QUAD_NODES", int, None) if nodes is None else nodes
                height = _env_default("MBBOX_QUAD_HEIGHT", float, None) if height is None else height
            cfg = RunConfig(integral=args.integral, s=args.s, t=args.t,
                            eps=args.eps, msq=args.msq, method=args.method,
                            cut=_CUTS[args.cut], quad_nodes=nodes, quad_height=height)
            report = cmd_eval(cfg)
            if args.json or args.out:
                _emit(report, args)
            else:
                value = report.records[0]["value"]
                print(f"{value['re']!r} {value['im']!r}")
            return EXIT_OK
        if args.command == "expand":
            cfg = RunConfig(integral=args.integral, s=args.s, t=args.t,
                            eps=args.eps, msq=args.msq)
            report = cmd_expand(cfg, order=args.order)
            if args.json or args.out:
                _emit(report, args)
            else:
                for row in report.records[0]["laurent"]:
                    print(f"{row['power']:+d} {row['re']!r} {row['im']!r}")
            return EXIT_OK
        if args.command == "verify":
            tol = _tolerance(args, 1e-11)
            report = cmd_verify(args.suite, tol)
            _emit(report, args)
            return EXIT_OK if report.summary["failures"] == 0 else EXIT_VERIFY_FAILED
        if args.command == "sweep":
            tol = _tolerance(args, 1e-8)
            report = cmd_sweep(args.grid_file, args.out, tol)
            if not args.out:
                _emit(report, args)
            if report.summary["errors"]:
                return EXIT_NOT_CONVERGED
            return EXIT_OK if report.summary["failures"] == 0 else EXIT_VERIFY_FAILED
        raise DegenerateKinematics(f"unknown command {args.command}")
    except MbboxError as exc:
        # bad input is named by these two classes; every other failure is numerical
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, (DegenerateKinematics, InfeasibleContour)):
            return EXIT_INPUT_ERROR
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
