import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbbox import specfun as sf
from mbbox.errors import DivisionByZeroSeries, DomainError
from mbbox.series import (
    RegulatorSeries,
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

    def test_exp_rejects_pole(self):
        with pytest.raises(DomainError):
            RegulatorSeries(-1, (1.0,)).exp()


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

    def test_reflection_product_expansion(self):
        # Gamma(e+x) Gamma(1-e-x) about x=0 at fixed e
        e = 0.3
        prod = gamma_series(e, 2) * gamma_series(1.0 - e, 2).scaled_arg(-1)
        base = sf.gamma(e).real * sf.gamma(1.0 - e).real
        slope = base * (sf.digamma(e) - sf.digamma(1.0 - e)).real
        assert abs(prod.coeff(0) - base) < 1e-12 * abs(base)
        assert abs(prod.coeff(1) - slope) < 1e-9 * abs(slope)

    def test_sampling_consistency_richardson(self):
        # truncated polynomial vs the exact function: the residual must
        # shrink like xi**(order+1) under halving
        a, order = 0.7, 3
        g = gamma_series(a, order)

        def horner(x):
            total = 0j
            for k in range(order, -1, -1):
                total = total * x + g.coeff(k)
            return total

        xi = 1e-3
        r1 = abs(horner(xi) - sf.gamma(a + xi))
        r2 = abs(horner(xi / 2) - sf.gamma(a + xi / 2))
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

    def test_zero_base_rejected(self):
        with pytest.raises(DomainError):
            power_series(0.0, 2)
