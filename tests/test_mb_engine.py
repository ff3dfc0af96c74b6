import math

import numpy as np
import pytest

from helpers import mp_box

from mbbox import mb_engine, specfun as sf
from mbbox.closed_form import Kinematics, massless_box, onemass_box
from mbbox.errors import InfeasibleContour, NotConverged, PoleError
from mbbox.mb_engine import (
    MAX_NODES,
    ContourSpec,
    abscissa_is_feasible,
    circle_residue,
    mb_massless_eval,
    mb_massless_integrand,
    mb_onemass_eval,
    mb_onemass_integrand,
    residue_massless,
    residue_onemass,
    residue_sum_right_closure,
    right_closure_term,
    select_contour_massless,
    select_contour_onemass,
)


class TestContourSelection:
    def test_massless_default_abscissa(self):
        assert abs(select_contour_massless(0.4).abscissa + 0.8) < 1e-15
        spec = select_contour_massless(0.99)
        assert abs(spec.abscissa + 0.505) < 1e-15
        assert -1.0 < spec.abscissa < 0.99 - 1.0

    def test_feasibility_predicate(self):
        for e in (0.2, 0.5, 0.99):
            assert not abscissa_is_feasible(0.0, e)
            assert abscissa_is_feasible(-1.0 + e / 2.0, e)
        assert not abscissa_is_feasible(-1.0, 0.3)

    def test_massless_rejects_bad_eps(self):
        for e in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(InfeasibleContour):
                select_contour_massless(e)

    def test_onemass_example(self):
        ca, cb = select_contour_onemass(0.4)
        assert abs(cb.abscissa + 0.8) < 1e-15
        assert abs(ca.abscissa + 0.1) < 1e-15

    @pytest.mark.parametrize("eps", [0.2, 0.5, 0.8])
    def test_onemass_gamma_arguments_positive(self, eps):
        ca, cb = select_contour_onemass(eps)
        a0, b0 = ca.abscissa, cb.abscissa
        args = (-a0, -b0, 2.0 - eps + a0 + b0, eps - 1.0 - a0 - b0,
                1.0 + b0, eps - 1.0 - b0, 1.0 + a0 + b0)
        assert min(args) > 0.0

    def test_onemass_rejects_bad_eps(self):
        with pytest.raises(InfeasibleContour):
            select_contour_onemass(1.0)

    def test_contourspec_validation(self):
        with pytest.raises(InfeasibleContour):
            ContourSpec(-0.8, -1.0, 64)
        with pytest.raises(InfeasibleContour):
            ContourSpec(-0.8, 10.0, 8)

    @pytest.mark.parametrize("height", [math.nan, math.inf])
    def test_contourspec_rejects_non_finite_height(self, height):
        with pytest.raises(InfeasibleContour, match="finite and positive height"):
            ContourSpec(-0.8, height, 64)
        with pytest.raises(InfeasibleContour, match="finite and positive height"):
            ContourSpec.from_step(-0.8, height, 0.1)


class TestMasslessIntegrand:
    def test_conjugate_symmetry(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        w = -0.85 + 1.3j
        a = mb_massless_integrand(w, k)
        b = mb_massless_integrand(w.conjugate(), k)
        assert abs(a - b.conjugate()) < 1e-13 * abs(a)

    def test_decay_along_contour(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        c = select_contour_massless(0.3).abscissa
        ratio = abs(mb_massless_integrand(c + 30j, k)) / abs(mb_massless_integrand(c + 0j, k))
        assert ratio < 1e-12

    def test_pole_raises(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        with pytest.raises(PoleError):
            mb_massless_integrand(0.0 + 0j, k)

    def test_residue_at_origin_matches_series_term(self):
        k = Kinematics(s=-3.0, t=-1.0, eps=0.3)
        f = lambda w: mb_massless_integrand(w, k)
        numeric = -circle_residue(f, 0.0 + 0j, 0.1)
        closed = right_closure_term(k, 0)
        assert abs(numeric - closed) < 1e-12 * abs(closed)


class TestMasslessQuadrature:
    @pytest.mark.parametrize("s,t,eps", [(-1.0, -2.0, 0.3), (-1.0, -1.0, 0.3),
                                         (-3.0, -0.5, 0.2), (-1.0, -3.0, 0.45)])
    def test_matches_closed_form(self, s, t, eps):
        k = Kinematics(s=s, t=t, eps=eps)
        v = mb_massless_eval(k)
        c = massless_box(k).value
        assert abs(v.value - c) < 1e-12 * abs(c)
        assert abs(v.value - c) <= v.diagnostics["error_estimate"]

    def test_real_at_symmetric_point(self):
        k = Kinematics(s=-1.0, t=-1.0, eps=0.3)
        v = mb_massless_eval(k).value
        assert abs(v.imag) < 1e-10 * abs(v)

    def test_abscissa_shift_invariance(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        spec = select_contour_massless(0.3, k)
        base = mb_massless_eval(k, spec).value
        for c in (-0.95, -0.75):
            shifted = ContourSpec(c, spec.height, spec.nodes)
            v = mb_massless_eval(k, shifted).value
            assert abs(v - base) < 1e-10 * abs(base), c

    def test_infeasible_abscissa_rejected(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        with pytest.raises(InfeasibleContour):
            mb_massless_eval(k, ContourSpec(0.5, 40.0, 4096))

    def test_trapezoid_rule(self):
        # an explicit line, well away from the default height and step
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        v = mb_massless_eval(k, ContourSpec(-0.85, 8.0, 2001))
        c = massless_box(k).value
        assert abs(v.value - c) < 1e-12 * abs(c)
        assert v.diagnostics["step"] == 8.0 / 2000

    def test_not_converged_reported(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        under_resolved = ContourSpec(-0.85, 6.0, 40)
        with pytest.raises(NotConverged):
            mb_massless_eval(k, under_resolved)

    def test_node_cap_checked_before_allocation(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=1e-6)
        spec = select_contour_massless(k.eps, k)
        assert spec.nodes > 1000 * MAX_NODES
        with pytest.raises(NotConverged):
            mb_massless_eval(k)
        with pytest.raises(NotConverged):
            mb_massless_eval(Kinematics(s=-1.0, t=-2.0, eps=0.3),
                             ContourSpec(-0.85, 6.0, 10 ** 12))

    @pytest.mark.parametrize("s,t,eps", [(-1e-3, -2e5, 0.5), (-1.0, -2.0, 0.3),
                                         (-3.0, -0.5, 0.05), (-1.0, -1e-4, 0.9)])
    def test_error_estimate_bounds_true_error(self, s, t, eps):
        # against an mpmath reference: the package's closed form itself is
        # off by 3e-10 at |s/t| = 2e8
        v = mb_massless_eval(Kinematics(s=s, t=t, eps=eps))
        assert abs(v.value - mp_box(s, t, eps)) <= v.diagnostics["error_estimate"]


class TestOneMassQuadrature:
    @pytest.mark.parametrize("s,t,m2,eps", [(-1.0, -2.0, -0.5, 0.3),
                                            (-2.0, -0.5, -1.0, 0.25),
                                            (-0.5, -0.5, -2.0, 0.4)])
    def test_matches_closed_form(self, s, t, m2, eps):
        k = Kinematics(s=s, t=t, eps=eps, msq=m2)
        v = mb_onemass_eval(k)
        c = onemass_box(k).value
        assert abs(v.value - c) < 1e-11 * abs(c)
        assert abs(v.value - c) <= v.diagnostics["error_estimate"]

    def test_small_eps_matches_closed_form(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.05, msq=-0.5)
        v = mb_onemass_eval(k)
        c = onemass_box(k).value
        assert abs(v.value - c) < 1e-11 * abs(c)

    def test_fft_correlation_matches_direct_double_sum(self):
        # the factorised FFT sum against the scalar integrand summed over
        # every node pair of the same doubled grids (65 x 65 nodes)
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=-0.5)
        ca = ContourSpec(-0.075, 4.0, 33)
        cb = ContourSpec(-0.85, 4.0, 33)
        fine, coarse, _ = mb_engine._mb_onemass_sums(k, ca, cb)
        h = ca.step
        alpha = ca.abscissa + 1j * ca.fine_heights()
        beta = cb.abscissa + 1j * cb.fine_heights()
        direct = sum(mb_onemass_integrand(a, b, k) for a in alpha for b in beta)
        direct *= h * h / (4.0 * math.pi ** 2)
        assert abs(fine - direct) < 1e-13 * abs(direct)
        direct_coarse = sum(mb_onemass_integrand(a, b, k)
                            for a in alpha[::2] for b in beta[::2])
        direct_coarse *= 4.0 * h * h / (4.0 * math.pi ** 2)
        assert abs(coarse - direct_coarse) < 1e-13 * abs(direct_coarse)

    def test_contours_share_one_step(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=-0.5)
        with pytest.raises(InfeasibleContour):
            mb_onemass_eval(k, ContourSpec(-0.075, 10.0, 801), ContourSpec(-0.85, 10.0, 802))

    def test_integrand_conjugate_symmetry(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=-0.5)
        a = mb_onemass_integrand(-0.075 + 0.9j, -0.85 - 0.4j, k)
        b = mb_onemass_integrand(-0.075 - 0.9j, -0.85 + 0.4j, k)
        assert abs(a - b.conjugate()) < 1e-13 * abs(a)

    def test_abscissa_shift_invariance(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.4, msq=-0.5)
        ca, cb = select_contour_onemass(0.4)
        base = mb_onemass_eval(k, ca, cb).value
        ca2 = ContourSpec(ca.abscissa * 0.6, ca.height, ca.nodes)
        cb2 = ContourSpec(cb.abscissa + 0.08, cb.height, cb.nodes)
        v = mb_onemass_eval(k, ca2, cb2).value
        assert abs(v - base) < 1e-8 * abs(base)

    def test_massless_trend(self):
        e = 0.3
        near = mb_onemass_eval(Kinematics(s=-1.0, t=-2.0, eps=e, msq=-1e-4)).value
        far = mb_onemass_eval(Kinematics(s=-1.0, t=-2.0, eps=e, msq=-0.5)).value
        target = mb_massless_eval(Kinematics(s=-1.0, t=-2.0, eps=e)).value
        assert abs(near - target) < abs(far - target)


class TestResidueMassless:
    @pytest.mark.parametrize("s,t,eps", [(-1.0, -2.0, 0.3), (-0.5, -3.0, 0.2),
                                         (-1.0, -1.0, 0.45)])
    def test_total_and_cancellations(self, s, t, eps):
        k = Kinematics(s=s, t=t, eps=eps)
        for cut in (sf.PV, sf.ABOVE, sf.BELOW):
            br = residue_massless(k, cut)
            closed = massless_box(k, cut).value
            total = br.pieces["total"]
            assert abs(total - closed) < 1e-10 * abs(closed)
            assert abs(br.pieces["spurious_sum"]) < 1e-11 * abs(total)
            assert abs(br.delta_pole_coefficient) < 1e-12 * abs(total)

    def test_breakdown_is_consistent(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        br = residue_massless(k)
        pieces_sum = br.pieces["I1"] + br.pieces["I2a"] + br.pieces["I2b"]
        assert abs(pieces_sum - br.pieces["total"]) < 1e-14 * abs(pieces_sum)
        spur = sum(br.spurious_terms.values())
        assert abs(spur - br.pieces["spurious_sum"]) < 1e-14

    def test_right_closure_equivalence(self):
        k = Kinematics(s=-3.0, t=-1.0, eps=0.3)
        rc = residue_sum_right_closure(k)
        left_total = residue_massless(k).pieces["total"]
        assert abs(rc - left_total) < 1e-9 * abs(left_total)

    def test_right_closure_requires_convergent_ratio(self):
        with pytest.raises(NotConverged):
            residue_sum_right_closure(Kinematics(s=-1.0, t=-3.0, eps=0.3))


class TestResidueOneMass:
    @pytest.mark.parametrize("s,t,m2,eps", [(-1.0, -2.0, -0.5, 0.3),
                                            (-2.0, -0.5, -1.0, 0.25),
                                            (-0.5, -0.5, -2.0, 0.4)])
    def test_total_and_cancellations(self, s, t, m2, eps):
        k = Kinematics(s=s, t=t, eps=eps, msq=m2)
        for cut in (sf.PV, sf.ABOVE, sf.BELOW):
            br = residue_onemass(k, cut)
            closed = onemass_box(k, cut).value
            total = br.pieces["total"]
            assert abs(total - closed) < 1e-10 * abs(closed)
            assert abs(br.pieces["spurious_sum"]) < 1e-11 * abs(total)
        assert residue_onemass(k).delta_pole_coefficient == 0j

    def test_reduced_function_vs_double_series(self):
        # scaled-down invariants keep the raw double series convergent
        from mbbox.oracles import f2_double_series
        s, t, m2, e = -0.2, -0.3, -1.0, 0.3
        lhs = sf.appell_f2_reduced(1.0, 1.0, 2.0 - e, t / m2, s / m2)
        rhs = f2_double_series(2.0 - e, 1.0, 1.0, 2.0 - e, 2.0 - e, t / m2, s / m2)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)
