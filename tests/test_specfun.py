import cmath
import math

import mpmath
import pytest

from mbbox import specfun as sf
from mbbox.errors import DomainError, NonConvergence, PoleError
from mbbox.oracles import euler_f21_oracle
from mbbox.specfun import ABOVE, BELOW, PV

EULER_GAMMA = 0.5772156649015328606

# the real gamma arguments of the box routes, on an eps grid that reaches
# 1e-6 and 1 - 1e-6 (ten points a decade)
BOX_GAMMA_ARGUMENTS = {
    "e": lambda e: e, "1-e": lambda e: 1.0 - e, "2e": lambda e: 2.0 * e,
    "2-e": lambda e: 2.0 - e, "e-1": lambda e: e - 1.0, "-e": lambda e: -e,
    "1+e": lambda e: 1.0 + e, "2+e": lambda e: 2.0 + e,
}
EDGE_EPS = [x for k in range(1, 61) for x in (10.0 ** (-k / 10), 1.0 - 10.0 ** (-k / 10))]


class TestGammaFamily:
    def test_ln_gamma_known_values(self):
        assert abs(sf.ln_gamma(1.0)) < 1e-14
        assert abs(sf.ln_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-13

    def test_ln_gamma_recurrence_complex(self):
        z = 3 + 4j
        lhs = sf.ln_gamma(z + 1)
        rhs = sf.ln_gamma(z) + cmath.log(z)
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    def test_gamma_trivia(self):
        assert abs(sf.gamma(1.0) - 1.0) < 1e-14
        assert abs(sf.gamma(5.0) - 24.0) < 1e-12

    def test_reflection(self):
        for z in (0.3, 0.77, 2.6, -0.45):
            val = sf.gamma(z) * sf.gamma(1.0 - z) * math.sin(math.pi * z) / math.pi
            assert abs(val - 1.0) < 1e-12, z

    def test_recurrence(self):
        for z in (0.3, 1.9, 4.4, -0.6):
            assert abs(sf.gamma(z + 1) - z * sf.gamma(z)) < 1e-12 * abs(sf.gamma(z + 1))
            assert abs(sf.digamma(z + 1) - sf.digamma(z) - 1.0 / z) < 1e-12

    def test_poles_raise(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                sf.gamma(z)
            with pytest.raises(PoleError):
                sf.digamma(z)

    def test_digamma_known(self):
        assert abs(sf.digamma(1.0) + EULER_GAMMA) < 1e-13
        assert abs(sf.digamma(2.0) - (1.0 - EULER_GAMMA)) < 1e-13

    def test_digamma_matches_ln_gamma_slope(self):
        h = 1e-6
        for z in (0.3, 1.7, 5.2):
            fd = (sf.ln_gamma(z + h) - sf.ln_gamma(z - h)).real / (2 * h)
            assert abs(sf.digamma(z).real - fd) < 1e-8

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_polygamma_against_mpmath(self, k):
        for x in (-1.3, -0.5, 0.02, 0.3, 1.0, 2.5, 3.5, 15.9, 16.0, 40.0):
            ref = float(mpmath.polygamma(k, x))
            assert abs(sf.polygamma(k, x) - ref) <= 1e-14 * abs(ref)

    def test_polygamma_poles(self):
        for x in (0.0, -2.0):
            with pytest.raises(PoleError):
                sf.polygamma(1, x)

    def test_overflow_is_an_error(self):
        with pytest.raises(OverflowError):
            sf.gamma(500.0)

    @pytest.mark.parametrize("form", sorted(BOX_GAMMA_ARGUMENTS))
    def test_real_gamma_within_8_ulps(self, form):
        # a reflection that forms sin(pi x) next to a nonzero integer puts
        # Gamma(e - 1) and Gamma(-e) 2e5 ulps off at e = 1e-6 and 1 - 1e-6
        for e in EDGE_EPS:
            x = BOX_GAMMA_ARGUMENTS[form](e)
            value = sf.gamma(x)
            assert value.imag == 0.0
            with mpmath.workdps(30):
                ref = mpmath.gamma(x)
                ulps = float(abs(mpmath.mpf(value.real) - ref)) / math.ulp(float(ref))
            assert ulps <= 8.0, (form, e, ulps)

    def test_grid_matches_scalar(self):
        import numpy as np

        pts = np.array([0.6 + 0j, 1.5 + 3j, 2.0 - 10j, 0.9 + 40j])
        grid = sf.ln_gamma_grid(pts)
        for p, g in zip(pts, grid):
            assert abs(g - sf.ln_gamma(complex(p))) < 1e-12 * max(1.0, abs(g))

    @pytest.mark.parametrize("height, rtol", [(1.0, 2e-15), (6.0, 1.5e-14)])
    def test_abs2_line_against_mpmath(self, height, rtol):
        # the worst measured on this grid: 1.5e-15 for |y| <= 1, and 1.0e-14
        # at |y| = 6 and x = 1/4, where the Lanczos sum itself is that far
        # off; below x = 1/4 the kernel steps up to x + 1, without which it
        # was 9.1e-12 off at x = 1e-5
        import numpy as np

        y = np.linspace(-height, height, 49)
        for x in [1e-5, 1e-4, 1.3e-3, 0.01, 0.1, 0.2, 0.2499, *np.linspace(0.25, 0.75, 11)]:
            for yi, g in zip(y, sf.gamma_abs2_line(x, y)):
                ref = abs(mpmath.gamma(mpmath.mpc(x, yi))) ** 2
                assert abs(g - ref) <= rtol * ref, (x, yi)


    @pytest.mark.parametrize("height, bound", [(3.0, 5e-15), (14.0, 1.6e-14)])
    def test_ln_line_against_mpmath(self, height, bound):
        # |ln|Gamma| error| + |arg Gamma error|, arg on the continuous branch
        # of mpmath's loggamma; the one-mass sigma line runs to 2 x 7.  The
        # worst measured on this grid: 3.3e-15 for |y| <= 3 and 1.46e-14 up
        # to 14, where y ln|T| and y arg T carry an ulp of about 40
        import numpy as np

        y = np.linspace(-height, height, 57)
        for x in [1e-5, 1e-4, 6.7e-4, 0.01, 0.1, 0.2, 0.2499, *np.linspace(0.25, 1.0, 13)]:
            modulus, phase = sf.ln_gamma_line(x, y)
            with mpmath.workdps(30):
                for yi, m, p in zip(y, modulus, phase):
                    ref = mpmath.loggamma(mpmath.mpc(x, yi))
                    assert float(abs(m - ref.real) + abs(p - ref.imag)) <= bound, (x, yi)

    @pytest.mark.parametrize("n", [2, 31, 160, 1369])
    def test_lanczos_block_sums_as_the_loop(self, n):
        # the (14, n) block takes the terms in the order of a loop over
        # k = 14 .. 1, bit for bit, at the massless and one-mass lengths
        import numpy as np

        def loop(x, y, y2):
            re_s, sum_im = np.full(y.shape, sf._LANCZOS_COEF[0]), np.zeros(y.shape)
            for k in range(len(sf._LANCZOS_COEF) - 1, 0, -1):
                xk = x - 1.0 + k
                term = sf._LANCZOS_COEF[k] / (xk * xk + y2)
                re_s += xk * term
                sum_im += term
            return re_s, -y * sum_im

        rng = np.random.default_rng(n)
        for x in rng.uniform(0.25, 2.0, 8):
            y = rng.uniform(-14.0, 14.0, n)
            for block, ref in zip(sf._lanczos_sums(x, y, y * y), loop(x, y, y * y)):
                assert np.array_equal(block, ref), x


class TestDilogarithm:
    def test_trivia(self):
        assert sf.li2(0.0) == 0.0
        assert abs(sf.li2(1.0) - math.pi ** 2 / 6) < 1e-14
        assert abs(sf.li2(-1.0) + math.pi ** 2 / 12) < 1e-14
        assert abs(sf.li2(0.5) - (math.pi ** 2 / 12 - math.log(2) ** 2 / 2)) < 1e-14

    def test_quadrature_oracle(self):
        # Li2(z) = -int_0^z log(1-u)/u du
        from scipy.integrate import quad
        for z in (0.37, -0.8, 0.9):
            ref, _ = quad(lambda u: -math.log(1.0 - u) / u if u != 0 else 1.0, 0.0, z,
                          epsabs=1e-13, epsrel=1e-13)
            assert abs(sf.li2(z).real - ref) < 1e-11

    def test_reflection_identity(self):
        for x in (0.1, 0.3, 0.5, 0.62, 0.9):
            lhs = sf.li2(1.0 - x)
            rhs = math.pi ** 2 / 6 - sf.li2(x) - math.log(x) * math.log(1.0 - x)
            assert abs(lhs - rhs) < 1e-12

    def test_inversion_sum(self):
        for x in (0.2, 1.0, 3.7, 12.0):
            lhs = sf.li2(-x) + sf.li2(-1.0 / x)
            rhs = -math.pi ** 2 / 6 - 0.5 * math.log(x) ** 2
            assert abs(lhs - rhs) < 1e-12

    def test_cut_prescriptions(self):
        x = 2.5
        above = sf.li2(x, ABOVE)
        below = sf.li2(x, BELOW)
        assert above.imag > 0 > below.imag
        assert abs(above.imag - math.pi * math.log(x)) < 1e-12
        assert abs((above + below) / 2 - sf.li2(x, PV)) < 1e-13

    @pytest.mark.parametrize("x", [-50.0, -1.4, -1.39, -0.76, -0.75, 0.25, 0.75, 0.76,
                                   0.999, 1.0, 1.001, 1.4, 50.0])
    def test_against_mpmath(self, x):
        # every reduction of li2 and both sides of each switch between them
        with mpmath.workdps(40):
            ref = mpmath.re(mpmath.polylog(2, x))
            val = sf.li2(x)
            assert val.imag == 0.0
            assert abs((val.real - ref) / ref) <= 1e-15


class TestHypergeometric:
    def test_at_zero(self):
        for f in (sf.f21_1e, sf.f21_2e, sf.f21_11):
            assert f(0.0, 0.37) == 1.0

    def test_general_series_trivia(self):
        val = sf.f21_general_series(1.0, 1.0, 2.0, 0.5)
        assert abs(val - (-math.log(0.5) / 0.5)) < 1e-13
        assert abs(sf.f21_general_series(1.0, 0.4, 1.4, 0.3) - sf.f21_1e(0.3, 0.4)) < 1e-13
        # a == c collapses to the binomial
        assert abs(sf.f21_general_series(1.7, 1.0, 1.7, 0.2) - 1.25) < 1e-13

    def test_general_series_raises(self):
        with pytest.raises(NonConvergence):
            sf.f21_general_series(1.0, 0.3, 1.3, 1.05)
        with pytest.raises(PoleError):
            sf.f21_general_series(1.0, 1.0, -2.0, 0.3)

    @pytest.mark.parametrize("a, b, c, z", [(1e-20, 1.0, 2.0, 0.9999999),
                                            (-2.0, 1.0, 2.0, 0.99999999),
                                            (-2.059, 2.932, 2.346, -0.99995)])
    def test_near_unit_series_that_converge_are_summed(self, a, b, c, z):
        # near |z| = 1 yet convergent: tiny terms, a polynomial, large early terms
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(a, b, c, z))
        assert abs(sf.f21_general_series(a, b, c, z) - ref) <= 1e-9 * abs(ref)

    def test_series_that_cannot_converge_raises_at_the_cap(self, monkeypatch):
        # |z| = 0.9999 needs about 4e5 terms, more than the cap: refused
        # before the loop, from the size of the term at the cap; the loop's
        # own refusal stays for a series that the check lets through
        with pytest.raises(NonConvergence, match="cannot reach 1e-16 within the 100000-term cap"):
            sf.f21_general_series(1.0, 0.3, 1.3, 0.9999)
        monkeypatch.setattr(sf, "_cap_falls_short", lambda *args: False)
        with pytest.raises(NonConvergence, match="hit the 100000-term cap at [|]z[|]=0.999900"):
            sf.f21_general_series(1.0, 0.3, 1.3, 0.9999)

    @pytest.mark.parametrize("z", [0.999, 0.99965, -0.999])
    def test_series_that_the_cap_reaches_is_summed(self, z):
        # |z|^cap alone is above 1e-16 at 0.99965, but the 1/n of the terms
        # takes them below it: summed, as at 0.999 (the tolerance of the
        # near-unit sums above: 9e4 terms carry rounding)
        assert not sf._cap_falls_short(1.0, 0.3, 1.3, z)
        with mpmath.workdps(30):
            ref = float(mpmath.hyp2f1(1, 0.3, 1.3, z))
        assert abs(sf.f21_general_series(1.0, 0.3, 1.3, z) - ref) <= 1e-9 * abs(ref)

    def test_euler_integral_agreement(self):
        # series evaluation against the Euler-integral quadrature
        for eps in (0.2, 0.5, 0.8):
            for z in (-0.9, -0.5, 0.0, 0.5, 0.9):
                lhs = sf.f21_1e(z, eps) / eps
                rhs = euler_f21_oracle(eps, z)
                assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs)), (eps, z)

    def test_euler_integral_2e(self):
        eps, z = 0.25, -0.8
        from scipy.integrate import quad
        ref, _ = quad(lambda u: u ** eps / (1.0 - z * u), 0.0, 1.0,
                      epsabs=1e-13, epsrel=1e-13)
        assert abs(sf.f21_2e(z, eps) / (1.0 + eps) - ref) < 1e-11

    def test_parameter_shift_identity(self):
        for (e, z) in ((0.4, 0.5), (0.3, 0.6), (0.25, -0.8)):
            lhs = sf.f21_1e(z, e) / e
            rhs = 1.0 / e + z / (1.0 + e) * sf.f21_2e(z, e)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
        for cut in (PV, ABOVE, BELOW):
            e, z = 0.35, 2.2
            lhs = sf.f21_1e(z, e, cut) / e
            rhs = 1.0 / e + z / (1.0 + e) * sf.f21_2e(z, e, cut)
            assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))

    def test_two_route_consistency_negative_axis(self):
        # Pfaff-transformed series vs the inversion route
        e, z = 0.3, -2.0
        direct = sf.f21_11(z, e)
        pfaff = sf.f21_general_series(1.0, 1.0 - e, 2.0 - e, z / (z - 1.0)) / (1.0 - z)
        assert abs(direct - pfaff) < 1e-12 * abs(direct)

    def test_pv_is_average(self):
        for f, e, z in ((sf.f21_1e, 0.3, 1.8), (sf.f21_2e, 0.45, 2.6),
                        (sf.f21_11, 0.2, 1.4)):
            pv = f(z, e, PV)
            avg = (f(z, e, ABOVE) + f(z, e, BELOW)) / 2.0
            assert abs(pv - avg) < 1e-13 * max(1.0, abs(pv))
            assert pv.imag == 0.0

    def test_against_euler_on_cut(self):
        e, z = 0.3, 2.0
        for cut in (PV, ABOVE, BELOW):
            lhs = sf.f21_1e(z, e, cut) / e
            rhs = euler_f21_oracle(e, z, cut)
            assert abs(lhs - rhs) < 1e-13 * abs(lhs), cut

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            sf.f21_1e(0.5, 1.3)


class TestContinuationSplit:
    @pytest.mark.parametrize("s,t,eps", [(-1.0, -2.0, 0.3), (-3.0, -1.0, 0.45),
                                         (-0.5, -2.0, 0.2)])
    def test_pieces_sum(self, s, t, eps):
        for cut in (PV, ABOVE, BELOW):
            head, alg = sf.f21_11_split(t / s, eps, cut)
            direct = sf.f21_11(-s / t, eps, cut)
            assert abs(head + alg - direct) < 1e-12 * max(1.0, abs(direct))

    def test_small_ratio_limit(self):
        # -s/t -> 0 forces the resummed function to one
        eps = 0.3
        head, alg = sf.f21_11_split(t_over_s=1e5, eps=eps)
        assert abs(head + alg - 1.0) < 1e-4

    def test_rejects_zero_ratio(self):
        with pytest.raises(DomainError):
            sf.f21_11_split(0.0, 0.3)


class TestAppellReduction:
    def test_double_series_oracle(self):
        # F2(2-e; 1, 1; 2-e, 2-e; x, y) collapses to f21_11 at xy/((1-x)(1-y))
        e, x, y = 0.3, 0.2, 0.3
        z = x * y / ((1.0 - x) * (1.0 - y))
        lhs = sf.f21_11(z, e) / ((1.0 - x) * (1.0 - y))
        rhs = complex(mpmath.appellf2(2.0 - e, 1, 1, 2.0 - e, 2.0 - e, x, y))
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


class TestF21OneOneAgainstMpmath:
    """f21_11 against mpmath's hyp2f1(1, 1; 2-eps; z).

    The first arguments are z = xy / ((1-x)(1-y)), where the Appell F2
    reduction with beta = beta' = 1 evaluated it; the others lie on the
    negative axis and on the cut z > 1, where the principal value is the
    real part of either boundary value."""

    @pytest.mark.parametrize("eps, x, y", [(0.3, 0.2, 0.3), (0.45, 0.3, 0.4),
                                           (0.25, -0.3, 0.4), (0.3, 0.3, 0.2)])
    def test_reduction_arguments(self, eps, x, y):
        z = x * y / ((1.0 - x) * (1.0 - y))
        ref = complex(mpmath.hyp2f1(1, 1, 2 - mpmath.mpf(eps), z))
        assert abs(sf.f21_11(z, eps) - ref) < 1e-13 * abs(ref)

    @pytest.mark.parametrize("eps, z", [(0.3, -0.5), (0.45, -3.0), (0.2, -40.0),
                                        (0.3, 1.001), (0.3, 1.4), (0.6, 2.5), (0.15, 9.0)])
    def test_off_the_unit_interval(self, eps, z):
        ref = complex(mpmath.hyp2f1(1, 1, 2 - mpmath.mpf(eps), z)).real
        val = sf.f21_11(z, eps, PV)
        assert val.imag == 0.0
        assert abs(val.real - ref) < 1e-13 * abs(ref)


# (evaluator, its parameters (a, b, c) as functions of eps)
FAMILIES = [(sf.f21_1e, lambda e: (1, e, 1 + e)),
            (sf.f21_2e, lambda e: (1, 1 + e, 2 + e)),
            (sf.f21_11, lambda e: (1, 1, 2 - e))]


class TestOneSidedAgainstMpmath:
    """Every continuation branch, one-sided, against mpmath's hyp2f1 just off
    the real axis at 40 digits: on the cut (the log-case series, the
    inversion and, for f21_11, the connection through 1 - z) and on the
    negative axis (the Pfaff series and the inversion), with both sides of
    each switch between branches: |x| = 0.7, |1 - x| = 0.7 and |x| = 1.4."""

    ON_AXIS = (1.05, 1.3, 1.6, 2.5, 9.0, -0.8, -5.0,
               0.71, 0.95, 1.0 - 1e-9, 1.0 + 1e-9, 1.69, -0.71, -1.39,
               0.69, 0.7, 1.7, 1.71, -0.7, -1.4, -1.41)

    @staticmethod
    def _ref(params, e, z):
        with mpmath.workdps(40):
            a, b, c = params(mpmath.mpf(e))
            return complex(mpmath.hyp2f1(a, b, c, mpmath.mpc(z)))

    @pytest.mark.parametrize("eps", [0.2, 0.45, 0.8])
    @pytest.mark.parametrize("f, params", FAMILIES, ids=["f21_1e", "f21_2e", "f21_11"])
    def test_boundary_values(self, f, params, eps):
        # each side is the one real kernel value plus a purely imaginary jump
        for z in self.ON_AXIS:
            pv = f(z, eps, PV)
            assert pv.imag == 0.0
            for cut, side in ((ABOVE, 1e-35j), (BELOW, -1e-35j)):
                ref = self._ref(params, eps, z + side)
                val = f(z, eps, cut)
                assert abs(val - ref) <= 1e-13 * abs(ref), (z, cut)
                assert val.real == pv.real, (z, cut)


class TestRealArgumentsOnly:
    """The evaluators take real arguments: a complex one fails in float()."""

    @pytest.mark.parametrize("call", [lambda z: sf.f21_1e(z, 0.3), lambda z: sf.f21_2e(z, 0.3),
                                      lambda z: sf.f21_11(z, 0.3),
                                      lambda z: sf.f21_11_split(z, 0.3), sf.li2, sf.gamma,
                                      sf.digamma],
                             ids=["f21_1e", "f21_2e", "f21_11", "f21_11_split", "li2", "gamma",
                                  "digamma"])
    def test_complex_argument_is_refused(self, call):
        with pytest.raises(TypeError):
            call(0.3 + 0.2j)


class TestNaNArgument:
    """A NaN argument is refused at once, naming it, before any series runs."""

    CALLS = {
        "f21_1e argument z": lambda x: sf.f21_1e(x, 0.3),
        "f21_2e argument z": lambda x: sf.f21_2e(x, 0.3),
        "f21_11 argument z": lambda x: sf.f21_11(x, 0.3),
        "f21_11_split argument t_over_s": lambda x: sf.f21_11_split(x, 0.3),
        "f21_general_series argument z": lambda x: sf.f21_general_series(1.0, 0.3, 1.3, x),
        "li2 argument z": sf.li2,
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_raises_naming_the_argument(self, name):
        with pytest.raises(NonConvergence) as info:
            self.CALLS[name](float("nan"))
        assert str(info.value) == f"{name}=nan is not a number"
