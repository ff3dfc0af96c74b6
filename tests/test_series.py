import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbbox import specfun as sf
from mbbox.errors import DivisionByZeroSeries, DomainError
from mbbox.series import (
    Regulator,
    RegulatorSeries,
    f21_1e_expansion,
    f21_2e_expansion,
    gamma_series,
    power_series,
)

EULER_GAMMA = 0.5772156649015328606

coeff = st.complex_numbers(min_magnitude=0.0, max_magnitude=10.0,
                           allow_nan=False, allow_infinity=False)


def series_strategy():
    return st.builds(
        lambda m, cs: RegulatorSeries(m, tuple(cs)),
        st.integers(min_value=-2, max_value=1),
        st.lists(coeff, min_size=1, max_size=5),
    )


def _common_window(*series_list):
    lo = max(s.min_power for s in series_list)
    hi = min(s.max_power for s in series_list)
    return range(lo, hi + 1)


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestRingAxioms:
    @settings(max_examples=150, deadline=None)
    @given(series_strategy(), series_strategy(), series_strategy())
    def test_add_associative(self, a, b, c):
        left = (a + b) + c
        right = a + (b + c)
        for p in _common_window(left, right):
            assert _close(left.coeff(p), right.coeff(p))

    @settings(max_examples=150, deadline=None)
    @given(series_strategy(), series_strategy(), series_strategy())
    def test_mul_associative(self, a, b, c):
        left = (a * b) * c
        right = a * (b * c)
        for p in _common_window(left, right):
            assert _close(left.coeff(p), right.coeff(p))

    @settings(max_examples=150, deadline=None)
    @given(series_strategy(), series_strategy(), series_strategy())
    # c = 0 + O(eps) is an inexact zero: a*c must keep its truncation order
    @example(RegulatorSeries(-1, (1,)), RegulatorSeries(0, (0, 1)), RegulatorSeries(0, (0,)))
    def test_distributive(self, a, b, c):
        left = a * (b + c)
        right = a * b + a * c
        for p in _common_window(left, right):
            assert _close(left.coeff(p), right.coeff(p))

    @settings(max_examples=100, deadline=None)
    @given(series_strategy())
    def test_leading_coefficient_normalized(self, a):
        if not a.is_zero:
            assert a.coeffs[0] != 0


class TestArithmetic:
    def test_product_truncates(self):
        one = RegulatorSeries.constant(1.0)
        eps = RegulatorSeries.variable()
        p = (one + eps) * (one - eps)
        assert p.coeff(0) == 1 and p.coeff(1) == 0 and p.coeff(2) == -1

    def test_pole_times_variable(self):
        inv_eps = RegulatorSeries(-1, (1.0,))
        eps = RegulatorSeries.variable()
        assert (inv_eps * eps).coeff(0) == 1.0

    def test_geometric_inverse(self):
        one = RegulatorSeries.constant(1.0)
        eps = RegulatorSeries.variable()
        inv = one / (one - eps)
        for p in range(0, 3):
            assert abs(inv.coeff(p) - 1.0) < 1e-14

    def test_division_by_zero_series(self):
        with pytest.raises(DivisionByZeroSeries):
            RegulatorSeries.constant(1.0) / RegulatorSeries.zero()

    def test_mixed_labels_rejected(self):
        with pytest.raises(DomainError):
            RegulatorSeries.constant(1.0, Regulator.EPSILON) \
                + RegulatorSeries.constant(1.0, Regulator.DELTA)

    def test_unknown_coefficient_raises(self):
        trunc = power_series(2.0, 2)
        with pytest.raises(DomainError):
            trunc.coeff(3)


class TestExpLog:
    def test_exp_linear(self):
        c = 1.7
        s = (RegulatorSeries.variable() * c).exp()
        for k in range(0, 3):
            assert abs(s.coeff(k) - c ** k / math.factorial(k)) < 1e-14

    def test_log_one_plus(self):
        s = (RegulatorSeries.constant(1.0) + RegulatorSeries.variable()).log()
        assert abs(s.coeff(1) - 1.0) < 1e-14
        assert abs(s.coeff(2) + 0.5) < 1e-14

    def test_round_trip(self):
        s = (RegulatorSeries.constant(1.0) + RegulatorSeries.variable()).log().exp()
        assert abs(s.coeff(0) - 1.0) < 1e-14
        assert abs(s.coeff(1) - 1.0) < 1e-14
        assert abs(s.coeff(2)) < 1e-14

    def test_exp_rejects_pole(self):
        with pytest.raises(DomainError):
            RegulatorSeries(-1, (1.0,)).exp()

    def test_log_rejects_zero_constant(self):
        with pytest.raises(DomainError):
            RegulatorSeries.variable().log()


class TestGammaSeries:
    def test_taylor_at_one(self):
        g = gamma_series(1.0, 4)
        assert abs(g.coeff(0) - 1.0) < 1e-14
        # first coefficient is psi(1) = -euler_gamma, and signs alternate
        assert abs(g.coeff(1) - sf.digamma(1.0).real) < 1e-12
        assert abs(g.coeff(1) + EULER_GAMMA) < 1e-12
        signs = [math.copysign(1.0, g.coeff(k).real) for k in range(5)]
        assert signs == [1.0, -1.0, 1.0, -1.0, 1.0]

    @pytest.mark.parametrize("a", [1.0, 0.3, 0.7])
    def test_coefficients_against_mpmath(self, a):
        g = gamma_series(a, 4)
        for k, ref in enumerate(mpmath.taylor(mpmath.gamma, a, 4)):
            ref = float(ref)
            assert abs(g.coeff(k) - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_laurent_pole_part(self):
        g = gamma_series(0.0, 2)
        assert abs(g.coeff(-1) - 1.0) < 1e-14
        assert abs(g.coeff(0) + EULER_GAMMA) < 1e-12

    def test_reflection_product_expansion(self):
        # Gamma(e+d) Gamma(1-e-d) about d=0 at fixed e
        e = 0.3
        prod = gamma_series(e, 2, Regulator.DELTA) \
            * gamma_series(1.0 - e, 2, Regulator.DELTA).scaled_arg(-1)
        base = sf.gamma(e).real * sf.gamma(1.0 - e).real
        slope = base * (sf.digamma(e) - sf.digamma(1.0 - e)).real
        assert abs(prod.coeff(0) - base) < 1e-12 * abs(base)
        assert abs(prod.coeff(1) - slope) < 1e-9 * abs(slope)

    def test_sampling_consistency_richardson(self):
        # truncated polynomial vs the exact function: the residual must
        # shrink like xi**(order+1) under halving
        a, order = 0.7, 3
        g = gamma_series(a, order)
        xi = 1e-3
        r1 = abs(g.eval_at(xi) - sf.gamma(a + xi))
        r2 = abs(g.eval_at(xi / 2) - sf.gamma(a + xi / 2))
        ratio = r1 / r2
        assert 2 ** (order + 1) / 2.5 < ratio < 2 ** (order + 1) * 2.5


class TestPowerSeries:
    def test_base_one(self):
        p = power_series(1.0, 3)
        assert p.coeff(0) == 1.0
        assert all(p.coeff(k) == 0 for k in range(1, 4))

    def test_base_e(self):
        p = power_series(math.e, 4)
        for k in range(5):
            assert abs(p.coeff(k) - 1.0 / math.factorial(k)) < 1e-14

    def test_log_exp_round_trip(self):
        p = power_series(2.0, 4)
        for k in range(5):
            assert abs(p.coeff(k) - math.log(2.0) ** k / math.factorial(k)) < 1e-14

    def test_negative_base_cut(self):
        above = power_series(-2.0, 1, cut=sf.ABOVE)
        below = power_series(-2.0, 1, cut=sf.BELOW)
        pv = power_series(-2.0, 1, cut=sf.PV)
        assert abs(above.coeff(1) - (math.log(2.0) + 1j * math.pi)) < 1e-14
        assert abs((above.coeff(1) + below.coeff(1)) / 2 - pv.coeff(1)) < 1e-14

    def test_zero_base_rejected(self):
        with pytest.raises(DomainError):
            power_series(0.0, 2)


class TestHypergeometricExpansions:
    def test_zero_argument(self):
        s = f21_1e_expansion(0.0, 2)
        assert s.coeff(0) == 1.0 and s.coeff(1) == 0 and s.coeff(2) == 0

    def test_log_coefficient_on_cut(self):
        # z = 1 + s/t with s=-1, t=-2: the linear coefficient is -log(s/t)
        s, t = -1.0, -2.0
        z = 1.0 + s / t
        exp = f21_1e_expansion(z, 2, sf.PV)
        assert abs(exp.coeff(1) - (-math.log(s / t))) < 1e-13

    def test_dilog_coefficient(self):
        exp = f21_1e_expansion(0.5, 2)
        ref = -(math.pi ** 2 / 12 - math.log(2.0) ** 2 / 2)
        assert abs(exp.coeff(2) - ref) < 1e-13

    def test_matches_direct_small_eps(self):
        for z, cut in ((0.5, sf.PV), (1.5, sf.ABOVE), (-2.0, sf.PV)):
            series = f21_1e_expansion(z, 2, cut)
            e = 1e-3
            assert abs(series.eval_at(e) - sf.f21_1e(z, e, cut)) < 5e-8

    def test_shifted_family_combination(self):
        s2 = f21_2e_expansion(0.5, 1)
        assert abs(s2.coeff(0) - math.log(2.0)) < 1e-14
        # z -> 0 sends the whole combination to zero at leading order
        assert abs(f21_2e_expansion(0.0, 1).coeff(0)) == 0.0

    def test_order1_dilog_against_specfun(self):
        s, t = -2.0, -1.0
        z = 1.0 + t / s
        exp = f21_2e_expansion(z, 1, sf.PV)
        assert abs(exp.coeff(1) + sf.li2(z, sf.PV)) < 1e-13
