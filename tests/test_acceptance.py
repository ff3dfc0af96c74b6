"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines; any failure carries the offending point in its assertion.
"""

import math
import time

import numpy as np

from helpers import extract_laurent_by_sampling

from mbbox import cli, specfun as sf
from mbbox.closed_form import (
    Kinematics,
    massless_box,
    massless_box_laurent,
    onemass_box,
    onemass_box_laurent,
)
from mbbox.mb_engine import (
    massless_line,
    mb_massless_eval,
    mb_onemass_eval,
    residue_massless,
    residue_onemass,
)
from mbbox.oracles import beta_oracle, feynman_1d_massless

MASSLESS_GRID = [(s, t, e)
                 for s in (-0.5, -1.0, -3.0)
                 for t in (-0.5, -1.0, -3.0)
                 for e in (0.2, 0.3, 0.45)]

ONEMASS_GRID = [(s, t, m2, e)
                for s in (-0.5, -1.0, -2.0)
                for t in (-0.5, -1.0, -2.0)
                for m2 in (-0.5, -1.0, -2.0)
                for e in (0.25, 0.4)
                if m2 not in (s, t, s + t)]


def _report(name, worst, tol, extra=""):
    status = "PASS" if worst <= tol else "FAIL"
    print(f"{status} {name}: worst {worst:.3e} (tol {tol:.1e}) {extra}")


def test_criterion_1_four_way_massless_agreement():
    t0 = time.time()
    worst = {"residue": 0.0, "feynman": 0.0, "mb": 0.0}
    for (s, t, e) in MASSLESS_GRID:
        k = Kinematics(s=s, t=t, eps=e)
        closed = massless_box(k).value
        res = residue_massless(k).value
        fey = feynman_1d_massless(k).value
        mbv = mb_massless_eval(k).value
        worst["residue"] = max(worst["residue"], abs(res - closed) / abs(closed))
        worst["feynman"] = max(worst["feynman"], abs(fey - closed) / abs(closed))
        worst["mb"] = max(worst["mb"], abs(mbv - closed) / abs(closed))
    elapsed = time.time() - t0
    _report("criterion 1 (closed vs residue)", worst["residue"], 1e-10)
    _report("criterion 1 (closed vs feynman)", worst["feynman"], 1e-8)
    _report("criterion 1 (closed vs mb)", worst["mb"], 1e-8,
            extra=f"runtime {elapsed:.1f}s")
    assert worst["residue"] <= 1e-10
    assert worst["feynman"] <= 1e-8
    assert worst["mb"] <= 1e-8
    assert elapsed <= 10.0


def test_criterion_2_spurious_cancellation_massless():
    worst = 0.0
    for (s, t, e) in MASSLESS_GRID:
        res = residue_massless(Kinematics(s=s, t=t, eps=e))
        worst = max(worst, abs(res.diagnostics["spurious_sum"]) / abs(res.value))
    _report("criterion 2 (spurious sum)", worst, 1e-11)
    assert worst <= 1e-11


def test_criterion_3_regulator_pole_cancellation():
    worst = 0.0
    for (s, t, e) in MASSLESS_GRID:
        res = residue_massless(Kinematics(s=s, t=t, eps=e))
        worst = max(worst,
                    abs(res.diagnostics["delta_pole_coefficient"]) / abs(res.value))
    _report("criterion 3 (pole coefficient)", worst, 1e-12)
    assert worst <= 1e-12


def test_criterion_4_onemass_agreement():
    t0 = time.time()
    worst_res = worst_spur = worst_mb = 0.0
    for (s, t, m2, e) in ONEMASS_GRID:
        k = Kinematics(s=s, t=t, eps=e, msq=m2)
        closed = onemass_box(k).value
        res = residue_onemass(k)
        worst_res = max(worst_res, abs(res.value - closed) / abs(closed))
        worst_spur = max(worst_spur, abs(res.diagnostics["spurious_sum"]) / abs(closed))
        mbv = mb_onemass_eval(k).value
        worst_mb = max(worst_mb, abs(mbv - closed) / abs(closed))
    elapsed = time.time() - t0
    _report("criterion 4 (residue total)", worst_res, 1e-10)
    _report("criterion 4 (spurious sum)", worst_spur, 1e-11)
    _report("criterion 4 (double contour)", worst_mb, 1e-11,
            extra=f"runtime {elapsed:.1f}s over {len(ONEMASS_GRID)} points")
    assert worst_res <= 1e-10
    assert worst_spur <= 1e-11
    assert worst_mb <= 1e-11
    assert elapsed <= 10.0


def test_criterion_5_massless_limit_slope():
    worst = 0.0
    for (s, t, e) in ((-1.0, -2.0, 0.3), (-0.5, -3.0, 0.45), (-1.0, -1.0, 0.2)):
        base = massless_box(Kinematics(s=s, t=t, eps=e)).value
        m2s = (-1e-2, -1e-3, -1e-4)
        diffs = [abs(onemass_box(Kinematics(s=s, t=t, eps=e, msq=m2)).value - base)
                 for m2 in m2s]
        slope = np.polyfit(np.log(np.abs(m2s)), np.log(diffs), 1)[0]
        worst = max(worst, abs(slope - e))
    _report("criterion 5 (massless-limit slope)", worst, 0.05)
    assert worst <= 0.05


def test_criterion_6_laurent_coefficients():
    worst = 0.0
    for (s, t) in ((-1.0, -2.0), (-0.5, -3.0), (-1.0, -1.0)):
        analytic = massless_box_laurent(Kinematics(s=s, t=t, eps=0.3))
        sampled = extract_laurent_by_sampling(
            lambda e: massless_box(Kinematics(s=s, t=t, eps=e)).value)
        for want, c in zip(analytic, sampled):
            worst = max(worst, abs(c - want) / abs(want))
    for (s, t, m2) in ((-1.0, -2.0, -0.5), (-0.5, -0.5, -2.0), (-2.0, -1.0, -0.5)):
        analytic = onemass_box_laurent(Kinematics(s=s, t=t, eps=0.3, msq=m2))
        sampled = extract_laurent_by_sampling(
            lambda e: onemass_box(Kinematics(s=s, t=t, eps=e, msq=m2)).value)
        for want, c in zip(analytic, sampled):
            worst = max(worst, abs(c - want) / abs(want))
    _report("criterion 6 (laurent coefficients)", worst, 1e-6)
    assert worst <= 1e-6

    # dilogarithm combinations entering the finite parts
    worst_id = 0.0
    for (s, t) in ((-1.0, -2.0), (-0.5, -3.0)):
        lhs = sf.li2(-s / t).real + sf.li2(-t / s).real
        rhs = -0.5 * math.log(s / t) ** 2 - math.pi ** 2 / 6.0
        worst_id = max(worst_id, abs(lhs - rhs))
    for (s, t, m2) in ((-1.0, -2.0, -0.5), (-2.0, -2.0, -1.0)):
        u, v = (m2 - t) / s, (m2 - s) / t
        direct = (sf.li2(u, sf.PV) + sf.li2(v, sf.PV) - sf.li2(u * v, sf.PV)).real

        def reflected(x):
            return math.pi ** 2 / 6.0 - sf.li2(1.0 - x, sf.PV).real \
                - sf.cut_log(x, sf.PV).real * sf.cut_log(1.0 - x, sf.PV).real

        via = reflected(u) + reflected(v) - reflected(u * v)
        worst_id = max(worst_id, abs(direct - via))
    _report("criterion 6 (dilog combinations)", worst_id, 1e-12)
    assert worst_id <= 1e-12


def test_criterion_7_identity_suite():
    report = cli.verify_identities(tol=1e-11)
    failures = [c for c in report.records if not c["pass"]]
    _report("criterion 7 (identity suite)", report.summary["max_deviation"], 1e-10,
            extra=f"{report.summary['checks']} checks")
    assert not failures, failures

    worst_beta = 0.0
    for e in (0.3, 0.45, 0.7):
        ref = sf.gamma(e).real ** 2 / sf.gamma(2.0 * e).real
        worst_beta = max(worst_beta, abs(beta_oracle(e) - ref) / ref)
    _report("criterion 7 (beta integral)", worst_beta, 1e-10)
    assert worst_beta <= 1e-10


def test_criterion_8_contour_robustness():
    worst_drift = 0.0
    worst_ratio = 0.0
    for (s, t, e) in MASSLESS_GRID:
        k = Kinematics(s=s, t=t, eps=e)
        base = mb_massless_eval(k)
        # the default line has crossed the pole at eps - 1, this one has not
        uncrossed = massless_line(k, -1.0 + 0.7 * e)
        drift = abs(mb_massless_eval(k, uncrossed).value - base.value) \
            / abs(base.value)
        worst_drift = max(worst_drift, drift)
        error = abs(base.value - massless_box(k).value)
        worst_ratio = max(worst_ratio, error / base.diagnostics["error_estimate"])
    _report("criterion 8 (abscissa drift)", worst_drift, 1e-10)
    _report("criterion 8 (error over estimate)", worst_ratio, 1.0)
    assert worst_drift <= 1e-10
    assert worst_ratio <= 1.0
