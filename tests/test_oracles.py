import math

import numpy as np
import pytest

from helpers import mp_box
from mbbox import specfun as sf
from mbbox.closed_form import Kinematics, massless_box, onemass_box
from mbbox.errors import NotConverged
from mbbox.oracles import (
    beta_oracle,
    feynman_1d_massless,
    feynman_1d_onemass,
    quad,
)


class TestQuad:
    def test_endpoint_singularities(self):
        # x**-0.5 (1-x)**0.5 over [0, 1] is B(1/2, 3/2) = pi/2
        value, abserr, _ = quad(lambda x: x ** -0.5 * (1.0 - x) ** 0.5, 0.0, 1.0, "beta")
        assert abs(value - math.pi / 2.0) <= abserr < 1e-13

    def test_truncation_counted_in_estimate(self):
        # x**-0.7 over [0, 1] loses about 2e-11 below the first node
        value, abserr, _ = quad(lambda x: x ** -0.7, 0.0, 1.0, "power")
        assert 1e-12 < abs(value - 1.0 / 0.3) <= abserr

    def test_rows_are_summed(self):
        value, _, _ = quad(lambda x: x * x, (0.0, 1.0), (1.0, 3.0), "rows")
        assert abs(value - (1.0 / 3.0 + 26.0 / 3.0)) < 1e-14

    def test_nan_stops_at_first_level(self):
        value, _, info = quad(lambda x: np.full_like(x, math.nan), 0.0, 1.0, "nan")
        assert math.isnan(value)
        assert info["neval"] == 65

    def test_interior_jump_not_converged(self):
        with pytest.raises(NotConverged, match="jump"):
            quad(lambda x: np.where(x < 0.3, 0.0, 1.0), 0.0, 1.0, "jump")


# (s, t, msq, eps) at the edges of the domain: small eps, where the integrand
# in v keeps a layer of width about eps next to the upper end, and overall
# scales far from 1
DOMAIN_EDGES = [(-1.0, -2.0, msq, eps) for eps in (1e-3, 1e-4, 1e-6)
                for msq in (None, -1e-9, -0.5)] + [
    (-1e150, -2e150, None, 0.3),
    (-1e-150, -2e-150, None, 0.3),
    (-1e100, -2e100, -0.5e100, 0.3),
]


@pytest.mark.parametrize("s, t, msq, eps", DOMAIN_EDGES)
def test_domain_edges_against_mpmath(s, t, msq, eps):
    k = Kinematics(s=s, t=t, eps=eps, msq=msq)
    v = feynman_1d_massless(k) if msq is None else feynman_1d_onemass(k)
    ref = mp_box(s, t, eps, msq)
    err = abs(v.value - ref)
    assert err <= 1e-13 * abs(ref)
    assert v.diagnostics["abserr"] >= err


class TestFeynmanMassless:
    def test_matches_closed_form(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        a = feynman_1d_massless(k).value
        b = massless_box(k).value
        assert abs(a - b) < 1e-9 * abs(b)

    def test_symmetric_point_real(self):
        k = Kinematics(s=-1.5, t=-1.5, eps=0.4)
        v = feynman_1d_massless(k)
        assert v.value.imag == 0.0
        assert abs(v.value - massless_box(k).value) < 1e-9 * abs(v.value)

    def test_strong_endpoint_singularity_converges(self):
        # eps = 0.8 keeps the endpoint exponent mild; the substitution must
        # not need more than about twice the baseline effort
        base = feynman_1d_massless(Kinematics(s=-1.0, t=-2.0, eps=0.3))
        hard = feynman_1d_massless(Kinematics(s=-1.0, t=-2.0, eps=0.8))
        assert hard.diagnostics["neval"] <= 2 * base.diagnostics["neval"]

    def test_against_mpmath(self):
        # at eps = 0.008, z**(eps-1) underflows near z = 0
        for e in (0.5, 0.7, 0.008):
            ref = mp_box(-1.0, -2.0, e)
            a = feynman_1d_massless(Kinematics(s=-1.0, t=-2.0, eps=e)).value
            assert abs(a - ref) < 1e-12 * abs(ref)


class TestFeynmanOneMass:
    def test_matches_closed_form(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=-0.5)
        a = feynman_1d_onemass(k).value
        b = onemass_box(k).value
        assert abs(a - b) < 1e-9 * abs(b)

    @pytest.mark.parametrize("s, t, msq, eps", [
        (-1.0, -2.0, -1e-9, 0.3),            # a msq**eps boundary layer at z = 0
        (-1.0, -2.0, -1e-9, 0.05),
        (-1.0, -2.0, -0.5, 0.008),           # z**(eps-1) underflows near z = 0
        (-1.0, -2.0, -1.0000001, 0.3),       # msq -> s: a - msq must not cancel
        (-55.0, -0.4, -3000.0, 0.45),        # |msq| > |s|: a falls across the half
    ])
    def test_against_mpmath(self, s, t, msq, eps):
        k = Kinematics(s=s, t=t, eps=eps, msq=msq)
        ref = mp_box(s, t, eps, msq)
        assert abs(feynman_1d_onemass(k).value - ref) < 1e-12 * abs(ref)

    def test_massless_limit(self):
        a = feynman_1d_onemass(Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=-1e-7)).value
        b = feynman_1d_massless(Kinematics(s=-1.0, t=-2.0, eps=0.3)).value
        assert abs(a - b) < 5e-3 * abs(b)

    def test_scaling(self):
        e = 0.35
        for lam in (1.7, 1e154, 1e160, 1e170, 1e-154, 1e-160, 1e-170):
            a = feynman_1d_onemass(
                Kinematics(s=-lam, t=-2 * lam, eps=e, msq=-0.5 * lam)).value
            b = feynman_1d_onemass(
                Kinematics(s=-1.0, t=-2.0, eps=e, msq=-0.5)).value * lam ** (e - 2.0)
            assert abs(a - b) < 1e-9 * abs(a), lam


class TestBetaOracle:
    def test_known_values(self):
        assert abs(beta_oracle(0.5) - math.pi) < 1e-10
        assert abs(beta_oracle(1.0) - 1.0) < 1e-12

    def test_gamma_ratio(self):
        for e in (0.3, 0.45, 0.8):
            ref = sf.gamma(e).real ** 2 / sf.gamma(2.0 * e).real
            assert abs(beta_oracle(e) - ref) < 1e-10 * ref
