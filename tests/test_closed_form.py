import math

import mpmath
import numpy as np
import pytest

from helpers import mp_box
from mbbox import specfun as sf
from mbbox.closed_form import (
    Kinematics,
    massless_box,
    massless_box_alt,
    massless_box_laurent,
    onemass_box,
    onemass_box_alt,
    onemass_box_laurent,
)
from mbbox.errors import DegenerateKinematics, EuclideanRegionViolation
from mbbox.oracles import feynman_1d_massless, feynman_1d_onemass
from mbbox.series import RegulatorSeries, gamma_series, power_series

MASSLESS_GRID = [(s, t, e)
                 for s in (-0.5, -1.0, -3.0)
                 for t in (-0.5, -1.0, -3.0)
                 for e in (0.2, 0.3, 0.45)]

ONEMASS_POINTS = [(-1.0, -2.0, -0.5, 0.3), (-2.0, -0.5, -1.0, 0.25),
                  (-0.5, -0.5, -2.0, 0.4), (-2.0, -2.0, -0.5, 0.25),
                  (-0.5, -1.0, -2.0, 0.4), (-2.0, -1.0, -0.5, 0.4)]


class TestKinematics:
    def test_euclidean_enforced(self):
        with pytest.raises(EuclideanRegionViolation):
            Kinematics(s=1.0, t=-2.0, eps=0.3)
        with pytest.raises(EuclideanRegionViolation):
            Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=0.5)

    def test_eps_range(self):
        with pytest.raises(DegenerateKinematics):
            Kinematics(s=-1.0, t=-2.0, eps=1.2)

    @pytest.mark.parametrize("field", ["s", "t", "msq", "eps"])
    @pytest.mark.parametrize("value", [-math.inf, math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        point = dict(s=-1.0, t=-2.0, eps=0.3, msq=-0.5)
        point[field] = value
        with pytest.raises(DegenerateKinematics, match=f"{field}=.* is not finite"):
            Kinematics(**point)

    def test_degeneracies_rejected(self):
        with pytest.raises(DegenerateKinematics):
            Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=-3.0)   # s+t = msq
        with pytest.raises(DegenerateKinematics):
            Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=-1.0)   # s = msq
        with pytest.raises(DegenerateKinematics):
            Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=-2.0)   # t = msq


# ratios 10^+-3; (-1, -1e-3, -1e3, 0.99) is where the alternative form's
# head and tail cancel to 1e-9 (6.3e-8 against mpmath)
EXTREME_POINTS = [(-1.0, t, m2, e)
                  for (t, m2) in ((-1e-3, None), (-1e3, None), (-1e-3, -1e3), (-1e3, -1e-3))
                  for e in (0.02, 0.5, 0.99)]


CLOSED_ROUTES = {("closed", True): massless_box, ("closed_alt", True): massless_box_alt,
                 ("closed", False): onemass_box, ("closed_alt", False): onemass_box_alt}


@pytest.mark.parametrize("s, t, m2, e", EXTREME_POINTS)
@pytest.mark.parametrize("form", ["closed", "closed_alt"])
def test_closed_forms_against_mpmath(form, s, t, m2, e):
    value = CLOSED_ROUTES[form, m2 is None](Kinematics(s=s, t=t, eps=e, msq=m2)).value
    ref = mp_box(s, t, e, m2)
    tol = 1e-6 if (form, s, t, m2, e) == ("closed_alt", -1.0, -1e-3, -1e3, 0.99) else 1e-11
    assert abs(value - ref) <= tol * abs(ref)


# the gamma factors near eps = 0 and 1: Gamma(-e), the Gamma(1 - b) of the 2F1
# inversion, taken by a reflection that forms sin(pi x) next to x = -1 puts
# closed_alt 2e-8 off at eps = 0.999; Gamma(e)^2 / Gamma(2e) taken as
# exp(2 ln Gamma(e) - ln Gamma(2e)), with ln Gamma(e) ~ 9, puts both forms
# 5e-15 off at eps = 1e-4
@pytest.mark.parametrize("form, e, tol", [("closed_alt", 0.999, 1e-9),
                                          ("closed", 1e-4, 1e-15),
                                          ("closed_alt", 1e-4, 1e-15)])
@pytest.mark.parametrize("m2", [None, -0.5])
def test_closed_forms_at_edge_eps(form, e, tol, m2):
    value = CLOSED_ROUTES[form, m2 is None](Kinematics(s=-1.0, t=-2.0, eps=e, msq=m2)).value
    ref = mp_box(-1.0, -2.0, e, m2, dps=50)
    assert abs(value - ref) <= tol * abs(ref)


class TestMasslessBox:
    def test_against_feynman_quadrature(self):
        k = Kinematics(s=-1.0, t=-1.0, eps=0.3)
        box = massless_box(k)
        assert abs(box.value.imag) < 1e-12
        oracle = feynman_1d_massless(k)
        assert abs(box.value - oracle.value) < 1e-9 * abs(box.value)

    def test_swap_symmetry(self):
        for (s, t, e) in MASSLESS_GRID:
            a = massless_box(Kinematics(s=s, t=t, eps=e)).value
            b = massless_box(Kinematics(s=t, t=s, eps=e)).value
            assert abs(a - b) <= 1e-13 * abs(a)

    def test_alt_form_matches(self):
        for (s, t, e) in MASSLESS_GRID:
            k = Kinematics(s=s, t=t, eps=e)
            a = massless_box(k).value
            b = massless_box_alt(k).value
            assert abs(a - b) < 1e-11 * abs(a), (s, t, e)

    def test_alt_form_small_eps(self):
        for e in (0.05, 0.01):
            k = Kinematics(s=-1.0, t=-2.0, eps=e)
            a = massless_box(k).value
            b = massless_box_alt(k).value
            assert abs(a - b) < 1e-11 * abs(a)

    def test_dimensional_scaling(self):
        # scaling all invariants by lam multiplies the box by lam**(e-2),
        # also where s t leaves the double range
        for lam in (0.5, 3.0, 1e154, 1e160, 1e170, 1e-154, 1e-160, 1e-170):
            for (s, t, e) in ((-1.0, -2.0, 0.3), (-0.5, -3.0, 0.45)):
                a = massless_box(Kinematics(s=lam * s, t=lam * t, eps=e)).value
                b = massless_box(Kinematics(s=s, t=t, eps=e)).value * lam ** (e - 2.0)
                assert abs(a - b) < 1e-11 * abs(a), lam

    def test_imaginary_part_bound(self):
        for (s, t, e) in MASSLESS_GRID:
            v = massless_box(Kinematics(s=s, t=t, eps=e)).value
            assert abs(v.imag) <= 1e-9 * abs(v)


class TestMasslessLaurent:
    def test_double_pole_coefficient(self):
        lau = massless_box_laurent(Kinematics(s=-1.0, t=-1.0, eps=0.3))
        assert abs(lau.coeff(-2) - 4.0) < 1e-12

    def test_double_pole_by_sampling(self):
        lau = massless_box_laurent(Kinematics(s=-1.0, t=-2.0, eps=0.3))
        g = []
        for e in (0.02, 0.01):
            g.append(massless_box(Kinematics(s=-1.0, t=-2.0, eps=e)).value.real * e * e)
        extrap = 2.0 * g[1] - g[0]
        assert abs(extrap - lau.coeff(-2).real) < 2e-3 * abs(lau.coeff(-2))

    def test_gamma_prefactor_coefficients(self):
        # the constants of Gamma(1-e) Gamma(1+e)^2 / Gamma(1+2e) through e^2
        with mpmath.workdps(30):
            c = mpmath.taylor(lambda e: mpmath.gamma(1 - e) * mpmath.gamma(1 + e) ** 2
                              / mpmath.gamma(1 + 2 * e), 0, 2)
            assert abs(c[0] - 1) < 1e-25
            assert abs(c[1] - mpmath.euler) < 1e-25
            assert abs(c[2] - (mpmath.euler ** 2 / 2 - mpmath.pi ** 2 / 12)) < 1e-25
            # at s = t = -1 the channels sum to 2 - (pi^2/2) e^2 and 2/(s t) = 2
            expected = (4, 4 * c[1], 4 * c[2] - mpmath.pi ** 2)
        lau = massless_box_laurent(Kinematics(s=-1.0, t=-1.0, eps=0.3))
        for p, ref in zip((-2, -1, 0), expected):
            assert abs(lau.coeff(p) - float(ref)) <= 1e-15 * abs(ref), p

    def test_symmetric_point_finite_part(self):
        # at s = t the squared-log sector vanishes
        lau_a = massless_box_laurent(Kinematics(s=-2.0, t=-2.0, eps=0.3))
        lau_b = massless_box_laurent(Kinematics(s=-2.0, t=-2.0, eps=0.45))
        assert abs(lau_a.coeff(0) - lau_b.coeff(0)) < 1e-12

    def test_dilog_combination(self):
        s, t = -1.0, -2.0
        lhs = sf.li2(-s / t).real + sf.li2(-t / s).real
        rhs = -0.5 * math.log(s / t) ** 2 - math.pi ** 2 / 6.0
        assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("ratio", [1e-3, 0.5, 1.0, 1e3])
    def test_finite_part_is_log_squared_form(self, ratio):
        # the shared dilogarithm finite part against -log(s/t)^2/2 - pi^2/2
        s, t = -ratio, -1.0
        gammas = gamma_series(1.0, 2).scaled_arg(-1) * gamma_series(1.0, 2) \
            * gamma_series(1.0, 2) / gamma_series(1.0, 2).scaled_arg(2)
        finite = -0.5 * math.log(s / t) ** 2 - 0.5 * math.pi ** 2
        bracket = power_series(-s, 2) + power_series(-t, 2) \
            + RegulatorSeries(2, (complex(finite),))
        ref = (gammas * bracket * (2.0 / (s * t))).shifted(-2).truncated(0)
        lau = massless_box_laurent(Kinematics(s=s, t=t, eps=0.3))
        for p in (-2, -1, 0):
            assert abs(lau.coeff(p) - ref.coeff(p)) <= 1e-13 * max(1.0, abs(ref.coeff(p)))

    def test_matches_closed_form_at_small_eps(self):
        lau = massless_box_laurent(Kinematics(s=-0.5, t=-3.0, eps=0.3))
        resid = []
        for e in (0.02, 0.01):
            full = massless_box(Kinematics(s=-0.5, t=-3.0, eps=e)).value.real
            model = sum(lau.coeff(p).real * e ** p for p in (-2, -1, 0))
            resid.append(abs(full - model) / abs(full))
        assert resid[1] < resid[0] < 1e-4


class TestOneMassBox:
    def test_against_feynman_quadrature(self):
        for (s, t, m2, e) in ONEMASS_POINTS:
            k = Kinematics(s=s, t=t, eps=e, msq=m2)
            a = onemass_box(k).value
            b = feynman_1d_onemass(k).value
            assert abs(a - b) < 1e-9 * abs(a), (s, t, m2, e)
            assert abs(a.imag) <= 1e-9 * abs(a)

    def test_swap_symmetry(self):
        # reflecting the box swaps the two channels while fixing the
        # massive corner, so s <-> t at fixed msq leaves the value alone;
        # the quadrature oracle confirms it independently of the closed form
        a = onemass_box(Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=-0.5)).value
        b = onemass_box(Kinematics(s=-2.0, t=-1.0, eps=0.3, msq=-0.5)).value
        assert abs(a - b) <= 1e-13 * abs(a)
        oa = feynman_1d_onemass(Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=-0.5)).value
        ob = feynman_1d_onemass(Kinematics(s=-2.0, t=-1.0, eps=0.3, msq=-0.5)).value
        assert abs(oa - ob) <= 1e-12 * abs(oa)

    def test_alt_form_matches(self):
        for (s, t, m2, e) in ONEMASS_POINTS:
            k = Kinematics(s=s, t=t, eps=e, msq=m2)
            a = onemass_box(k).value
            b = onemass_box_alt(k).value
            assert abs(a - b) < 1e-11 * abs(a), (s, t, m2, e)

    def test_alt_form_small_eps(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.05, msq=-0.5)
        a = onemass_box(k).value
        b = onemass_box_alt(k).value
        assert abs(a - b) < 1e-11 * abs(a)

    def test_massless_limit_value(self):
        base = massless_box(Kinematics(s=-1.0, t=-2.0, eps=0.3)).value
        near = onemass_box(Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=-1e-8)).value
        assert abs(near - base) < 1e-2 * abs(base)

    def test_massless_limit_slope(self):
        e = 0.3
        base = massless_box(Kinematics(s=-1.0, t=-2.0, eps=e)).value
        m2s = (-1e-2, -1e-3, -1e-4)
        diffs = [abs(onemass_box(Kinematics(s=-1.0, t=-2.0, eps=e, msq=m2)).value - base)
                 for m2 in m2s]
        slope = np.polyfit(np.log(np.abs(m2s)), np.log(diffs), 1)[0]
        assert abs(slope - e) < 0.05

    def test_scaling(self):
        e = 0.25
        for lam in (2.5, 1e154, 1e160, 1e170, 1e-154, 1e-160, 1e-170):
            a = onemass_box(Kinematics(s=-lam, t=-2 * lam, eps=e, msq=-0.5 * lam)).value
            b = onemass_box(Kinematics(s=-1.0, t=-2.0, eps=e, msq=-0.5)).value * lam ** (e - 2.0)
            assert abs(a - b) < 1e-11 * abs(a), lam


class TestOneMassLaurent:
    def test_double_pole_coefficient(self):
        lau = onemass_box_laurent(Kinematics(s=-1.0, t=-1.0, eps=0.3, msq=-0.5))
        assert abs(lau.coeff(-2) - 2.0) < 1e-12

    def test_pole_structure_by_sampling(self):
        k0 = dict(s=-1.0, t=-2.0, msq=-0.5)
        lau = onemass_box_laurent(Kinematics(eps=0.3, **k0))
        g = []
        for e in (0.02, 0.01):
            g.append(onemass_box(Kinematics(eps=e, **k0)).value.real * e * e)
        extrap = 2.0 * g[1] - g[0]
        assert abs(extrap - lau.coeff(-2).real) < 2e-3 * abs(lau.coeff(-2))

    def test_dilog_combination_two_routes(self):
        # direct dilogarithms vs the reflection-identity route
        s, t, m2 = -1.0, -2.0, -0.5
        u = (m2 - t) / s
        v = (m2 - s) / t
        direct = (sf.li2(u, sf.PV) + sf.li2(v, sf.PV) - sf.li2(u * v, sf.PV)).real \
            - math.pi ** 2 / 6.0
        def reflect(x):
            return math.pi ** 2 / 6.0 - sf.li2(1.0 - x, sf.PV).real \
                - sf.cut_log(x, sf.PV).real * sf.cut_log(1.0 - x, sf.PV).real
        via_reflection = reflect(u) + reflect(v) - reflect(u * v) - math.pi ** 2 / 6.0
        assert abs(direct - via_reflection) < 1e-12
