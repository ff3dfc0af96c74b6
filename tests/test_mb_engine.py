import math

import numpy as np
import pytest

from helpers import mp_box, mp_error

from mbbox import mb_engine, specfun as sf
from mbbox.closed_form import Kinematics, massless_box, onemass_box
from mbbox.errors import InfeasibleContour, NotConverged, PoleError
from mbbox.mb_engine import (
    MAX_NODES,
    ContourSpec,
    abscissa_is_feasible,
    massless_line,
    mb_massless_eval,
    mb_massless_integrand,
    mb_onemass_eval,
    mb_onemass_integrand,
    residue_massless,
    residue_onemass,
    select_contour_massless,
    select_contour_onemass,
)


def massless_point(eps):
    # s = t: no kinematic phase spread
    return Kinematics(s=-1.0, t=-1.0, eps=eps)


def onemass_point(eps):
    return Kinematics(s=-1.0, t=-2.0, eps=eps, msq=-0.5)


def full_line(spec):
    """w on the doubled rule over the whole line; its even entries are the coarse nodes."""
    return spec.abscissa + 1j * (-spec.height + spec.step * np.arange(2 * spec.nodes - 1))


class TestContourSelection:
    def test_massless_default_abscissa(self):
        # below eps = 1/2 midway between the crossed pole eps - 1 and 0,
        # from 1/2 on midway between -1 and eps - 1
        for eps, c in ((1e-6, -0.4999995), (0.4, -0.3), (0.499, -0.2505),
                       (0.5, -0.75), (0.99, -0.505)):
            spec = select_contour_massless(massless_point(eps))
            assert abs(spec.abscissa - c) < 1e-15, eps
            assert abscissa_is_feasible(spec.abscissa, eps)
            assert (spec.abscissa > eps - 1.0) == (eps < 0.5)

    def test_massless_line_takes_its_band_step(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        for inside in (-0.95, -0.8, -0.75):
            assert massless_line(k, inside).step == massless_line(k, -0.85).step
        for inside in (-0.65, -0.1):
            assert massless_line(k, inside).step == select_contour_massless(k).step
        assert massless_line(k, -0.85).step < select_contour_massless(k).step

    def test_feasibility_predicate(self):
        for e in (1e-6, 0.2, 0.5, 0.99):
            assert abscissa_is_feasible(-1.0 + e / 2.0, e)
            assert abscissa_is_feasible((e - 1.0) / 2.0, e)
            assert not abscissa_is_feasible(e - 1.0, e)
            assert not abscissa_is_feasible(0.0, e)
            assert not abscissa_is_feasible(-1.0, e)
        assert not abscissa_is_feasible(0.2, 0.3)

    def test_onemass_example(self):
        ca, cb = select_contour_onemass(onemass_point(0.4))
        assert abs(cb.abscissa - (-1.0 + 0.8 / 3.0)) < 1e-15
        assert abs(ca.abscissa + 0.4 / 3.0) < 1e-15

    @pytest.mark.parametrize("eps", [1e-6, 0.003, 0.2, 0.5, 0.8, 0.999999])
    def test_onemass_gamma_arguments_positive(self, eps):
        ca, cb = select_contour_onemass(onemass_point(eps))
        a0, b0 = ca.abscissa, cb.abscissa
        args = (-a0, -b0, 2.0 - eps + a0 + b0, eps - 1.0 - a0 - b0,
                1.0 + b0, eps - 1.0 - b0, 1.0 + a0 + b0)
        assert min(args) > 0.0

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
        c = select_contour_massless(k).abscissa
        ratio = abs(mb_massless_integrand(c + 30j, k)) / abs(mb_massless_integrand(c + 0j, k))
        assert ratio < 1e-12

    def test_pole_raises(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        with pytest.raises(PoleError):
            mb_massless_integrand(0.0 + 0j, k)

    @pytest.mark.parametrize("eps, c", [(0.02, None), (0.3, None), (0.99, None),
                                        (0.3, -0.95), (0.3, -0.75)])
    def test_grid_reflection_form_matches_scalar(self, eps, c):
        # two log-gammas and two cosecants against the six gamma factors
        k = Kinematics(s=-1.0, t=-3.0, eps=eps)
        spec = select_contour_massless(k)
        c = spec.abscissa if c is None else c
        w = c + 1j * np.linspace(-spec.height, spec.height, 41)
        grid = mb_massless_integrand(w, k)
        for wi, gi in zip(w, grid):
            ref = mb_massless_integrand(complex(wi), k)
            assert abs(gi - ref) < 1e-13 * abs(ref), wi

    def test_grid_finite_far_up_the_line(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        f = mb_massless_integrand(-0.85 + 1j * np.array([-400.0, 300.0]), k)
        assert np.all(f == 0.0)


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

    @pytest.mark.parametrize("s,t,eps", [(-1.0, -1.0, 0.3), (-3.0, -0.5, 0.2)])
    def test_value_exactly_real(self, s, t, eps):
        assert mb_massless_eval(Kinematics(s=s, t=t, eps=eps)).value.imag == 0.0

    @pytest.mark.parametrize("nodes", [41, 42])
    def test_half_line_sums_match_full_line(self, nodes):
        # nodes - 1 even puts Im w = 0 on the coarse rule, odd leaves it off
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        spec = ContourSpec(-0.85, 6.0, nodes)
        full = mb_massless_integrand(full_line(spec), k)
        upper = mb_massless_integrand(spec.abscissa + 1j * spec.upper_heights(), k)
        first = (nodes - 1) % 2
        for half, whole in ((mb_engine._mirror_sum(upper.real), np.sum(full)),
                            (mb_engine._mirror_sum(upper.real, first, 2), np.sum(full[::2])),
                            (mb_engine._mirror_sum(np.abs(upper)), np.sum(np.abs(full)))):
            assert abs(half - whole) < 1e-13 * abs(whole)

    @pytest.mark.parametrize("nodes", [2001, 2002])
    def test_half_line_eval_matches_full_line(self, nodes):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        spec = ContourSpec(-0.85, 8.0, nodes)
        full = mb_massless_integrand(full_line(spec), k)
        weight = spec.step / (2.0 * math.pi)
        fine, coarse = weight * np.sum(full), 2.0 * weight * np.sum(full[::2])
        v = mb_massless_eval(k, spec)
        assert abs(v.value - fine) < 1e-14 * abs(fine)
        assert abs(v.diagnostics["node_doubling_delta"] - abs(fine - coarse)) < 1e-14 * abs(fine)

    def test_two_log_gammas_per_half_line_node(self, monkeypatch):
        points = []

        def counting(z):
            points.append(z.size)
            return sf.ln_gamma_grid(z)

        monkeypatch.setattr(mb_engine, "ln_gamma_grid", counting)
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        spec = select_contour_massless(k)
        mb_massless_eval(k, spec)
        assert sum(points) == 2 * spec.nodes

    def test_abscissa_shift_invariance(self):
        # lines on both sides of the double pole at eps - 1 = -0.7: the
        # crossed ones add its residue
        for s, t in ((-1.0, -2.0), (-2.0, -1.0)):
            k = Kinematics(s=s, t=t, eps=0.3)
            base = mb_massless_eval(k).value
            for c in (-0.95, -0.85, -0.75, -0.55, -0.15):
                v = mb_massless_eval(k, massless_line(k, c)).value
                assert abs(v - base) < 1e-10 * abs(base), (s, t, c)

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
        with pytest.raises(NotConverged):
            mb_massless_eval(Kinematics(s=-1.0, t=-2.0, eps=0.3),
                             ContourSpec(-0.85, 6.0, 10 ** 12))
        # the one-mass rule still sets its step by a pole gap of eps/3
        k = onemass_point(1e-6)
        assert select_contour_onemass(k)[0].nodes > 1000 * MAX_NODES
        with pytest.raises(NotConverged):
            mb_onemass_eval(k)

    @pytest.mark.parametrize("eps", [1e-6, 1e-4, 0.003, 0.3, 0.499])
    def test_small_eps_against_mpmath(self, eps):
        # the line stays (1 - eps)/2 from the crossed pole, so the node
        # count stays bounded as eps -> 0
        k = Kinematics(s=-1.0, t=-2.0, eps=eps)
        v = mb_massless_eval(k)
        assert v.diagnostics["nodes"] <= 1000
        assert mp_error(v.value.real, k.s, k.t, eps) <= 1e-12 * abs(v.value)

    @pytest.mark.parametrize("eps", [1e-6, 0.02, 0.3, 0.499])
    @pytest.mark.parametrize("s,t", [(-1.0, -2.0), (-3.0, -1e-4), (-0.5, -0.5)])
    def test_s_t_symmetric_bit_for_bit(self, s, t, eps):
        # on the crossed line the box is taken with |t| <= |s| either way
        a = mb_massless_eval(Kinematics(s=s, t=t, eps=eps))
        b = mb_massless_eval(Kinematics(s=t, t=s, eps=eps))
        assert a.value == b.value
        assert a.diagnostics == b.diagnostics

    @pytest.mark.parametrize("s,t,eps", [(-1e-3, -2e5, 0.5), (-1.0, -2.0, 0.3),
                                         (-3.0, -0.5, 0.05), (-1.0, -1e-4, 0.9)])
    def test_error_estimate_bounds_true_error(self, s, t, eps):
        # against an mpmath reference: the package's closed form itself is
        # off by 3e-10 at |s/t| = 2e8
        v = mb_massless_eval(Kinematics(s=s, t=t, eps=eps))
        assert abs(v.value - mp_box(s, t, eps)) <= v.diagnostics["error_estimate"]

    @pytest.mark.parametrize("ratio", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("eps", [1e-6, 0.02, 0.49, 0.5, 0.9])
    def test_error_estimate_is_tight(self, eps, ratio):
        # crossed lines below eps = 1/2, where the residue's rounding is
        # counted too, and uncrossed ones from 1/2 on: the estimate bounds
        # the error and is at most 2e3 times it
        v = mb_massless_eval(Kinematics(s=-1.0, t=-ratio, eps=eps))
        error = mp_error(v.value.real, -1.0, -ratio, eps)
        estimate = v.diagnostics["error_estimate"]
        assert error <= estimate <= 2e3 * error


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

    @pytest.mark.parametrize("s,t,m2,eps", [(-1.0, -2.0, -0.5, 0.02), (-1.0, -2.0, -0.5, 0.2),
                                            (-1.0, -2.0, -0.5, 0.6), (-1.0, -10.0, -3.0, 0.7),
                                            (-1.0, -100.0, -0.01, 0.95),
                                            (-1.0, -0.01, -100.0, 0.95)])
    def test_error_estimate_is_tight(self, s, t, m2, eps):
        # the doubled rule is charged delta^2 / |value|, not the coarse
        # rule's delta, which was 1e5 to 1e7 times the error: the estimate
        # bounds the error and is at most 1e3 times it
        v = mb_onemass_eval(Kinematics(s=s, t=t, eps=eps, msq=m2))
        error = mp_error(v.value.real, s, t, eps, m2)
        estimate = v.diagnostics["error_estimate"]
        assert error <= estimate <= 1e3 * error

    @pytest.mark.parametrize("s,t,m2,eps", [(-1.0, -1.0, -0.5, 0.4), (-1.0, -2.0, -0.5, 0.3)])
    def test_value_exactly_real(self, s, t, m2, eps):
        assert mb_onemass_eval(Kinematics(s=s, t=t, eps=eps, msq=m2)).value.imag == 0.0

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
        alpha = full_line(ca)
        beta = full_line(cb)
        direct = sum(mb_onemass_integrand(a, b, k) for a in alpha for b in beta)
        direct *= h * h / (4.0 * math.pi ** 2)
        assert abs(fine - direct) < 1e-13 * abs(direct)
        direct_coarse = sum(mb_onemass_integrand(a, b, k)
                            for a in alpha[::2] for b in beta[::2])
        direct_coarse *= 4.0 * h * h / (4.0 * math.pi ** 2)
        assert abs(coarse - direct_coarse) < 1e-13 * abs(direct_coarse)

    def test_fft_correlation_matches_direct_double_sum_on_the_default_pair(self):
        # the shared-line path: at eps = 0.3 the default pair is (-0.1, -0.8),
        # where one log-gamma and one cosecant half-line give every factor
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=-0.5)
        a0, b0 = (c.abscissa for c in select_contour_onemass(k))
        assert abs(a0 + 0.1) < 1e-15 and abs(b0 + 0.8) < 1e-15
        ca, cb = ContourSpec(a0, 4.0, 33), ContourSpec(b0, 4.0, 33)
        fine, coarse, _ = mb_engine._mb_onemass_sums(k, ca, cb)
        alpha = full_line(ca)
        beta = full_line(cb)
        weight = ca.step ** 2 / (4.0 * math.pi ** 2)
        direct = weight * sum(mb_onemass_integrand(a, b, k) for a in alpha for b in beta)
        assert abs(fine - direct) < 1e-13 * abs(direct)
        direct_coarse = 4.0 * weight * sum(mb_onemass_integrand(a, b, k)
                                           for a in alpha[::2] for b in beta[::2])
        assert abs(coarse - direct_coarse) < 1e-13 * abs(direct_coarse)

    def test_shared_line_grids_match_three_factor_products(self):
        # the default pair at the heights j h of the sums' upper halves
        k = Kinematics(s=-3.0, t=-2.0, eps=0.3, msq=-0.5)
        ca, cb = select_contour_onemass(k)
        heights = ca.step * np.arange(ca.nodes + cb.nodes - 1)
        alpha = ca.abscissa + 1j * heights[:ca.nodes]
        beta = cb.abscissa + 1j * heights[:cb.nodes]
        sigma = ca.abscissa + cb.abscissa + 1j * heights
        a, b, c = mb_engine._onemass_grids(k, alpha, beta, sigma)
        e, lg = k.eps, sf.ln_gamma
        for ai, al in zip(a[::5], alpha[::5]):
            ref_a = np.exp(lg(-al) + al * math.log(-k.msq))
            assert abs(ai - ref_a) < 1e-13 * abs(ref_a), al
        for bi, be in zip(b[::5], beta[::5]):
            ref_b = np.exp(lg(-be) + lg(1.0 + be) + lg(e - 1.0 - be) + be * math.log(-k.s))
            assert abs(bi - ref_b) < 1e-13 * abs(ref_b), be
        for ci, si in zip(c[::5], sigma[::5]):
            ref_c = np.exp(lg(2.0 - e + si) + lg(e - 1.0 - si) + lg(1.0 + si)
                           - si * math.log(-k.t))
            assert abs(ci - ref_c) < 1e-13 * abs(ref_c), si

    def test_one_log_gamma_half_line_on_the_default_pair(self, monkeypatch):
        points = {"ln_gamma_grid": [], "_pi_csc": []}
        for name in points:
            def counting(z, real=getattr(mb_engine, name), sizes=points[name]):
                sizes.append(z.size)
                return real(z)
            monkeypatch.setattr(mb_engine, name, counting)
        k = Kinematics(s=-1.0, t=-2.0, eps=0.4, msq=-0.5)
        ca, cb = select_contour_onemass(k)
        n = ca.nodes
        mb_engine._mb_onemass_sums(k, ca, cb)
        assert points == {"ln_gamma_grid": [2 * n - 1], "_pi_csc": [2 * n - 1]}
        # a shifted pair: three log-gamma lines and two cosecant lines
        for sizes in points.values():
            sizes.clear()
        mb_engine._mb_onemass_sums(k, ContourSpec(ca.abscissa * 0.6, ca.height, n),
                                   ContourSpec(cb.abscissa + 0.04, cb.height, n))
        assert points == {"ln_gamma_grid": [2 * n - 1, n, n], "_pi_csc": [2 * n - 1, n]}

    def test_reflection_grids_match_three_factor_products(self):
        k = Kinematics(s=-3.0, t=-2.0, eps=0.3, msq=-0.5)
        ca, cb = select_contour_onemass(k)
        y = np.linspace(-cb.height, cb.height, 41)
        beta = cb.abscissa + 1j * y
        sigma = ca.abscissa + cb.abscissa + 2j * y
        _, b, c = mb_engine._onemass_grids(k, ca.abscissa + 1j * y, beta, sigma)
        e, lg = k.eps, sf.ln_gamma
        for bi, ci, be, si in zip(b, c, beta, sigma):
            ref_b = np.exp(lg(-be) + lg(1.0 + be) + lg(e - 1.0 - be) + be * math.log(-k.s))
            ref_c = np.exp(lg(2.0 - e + si) + lg(e - 1.0 - si) + lg(1.0 + si)
                           - si * math.log(-k.t))
            assert abs(bi - ref_b) < 1e-13 * abs(ref_b), be
            assert abs(ci - ref_c) < 1e-13 * abs(ref_c), si

    @pytest.mark.parametrize("s,t,m2,eps", [(-1.0, -2.0, -0.5, 0.3), (-1.0, -100.0, -0.01, 0.95)])
    def test_tail_read_off_the_grids(self, s, t, m2, eps):
        # |f| at the top corner and the top centre of both edges
        k = Kinematics(s=s, t=t, eps=eps, msq=m2)
        ca, cb = select_contour_onemass(k)
        top_a, top_b = ca.abscissa + 1j * ca.height, cb.abscissa + 1j * cb.height
        ref = (abs(mb_onemass_integrand(top_a, top_b, k))
               + abs(mb_onemass_integrand(top_a, cb.abscissa, k))
               + abs(mb_onemass_integrand(ca.abscissa, top_b, k))) / (4.0 * math.pi ** 2)
        tail = mb_onemass_eval(k, ca, cb).diagnostics["tail_estimate"]
        assert abs(tail - ref) < 1e-12 * ref

    def test_contours_share_one_step(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=-0.5)
        with pytest.raises(InfeasibleContour):
            mb_onemass_eval(k, ContourSpec(-0.075, 10.0, 801), ContourSpec(-0.85, 10.0, 802))

    def test_contours_given_together(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=-0.5)
        with pytest.raises(InfeasibleContour, match="both contours or neither"):
            mb_onemass_eval(k, ContourSpec(-0.075, 10.0, 801))
        with pytest.raises(InfeasibleContour, match="both contours or neither"):
            mb_onemass_eval(k, cb=ContourSpec(-0.85, 10.0, 801))

    def test_integrand_conjugate_symmetry(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=-0.5)
        a = mb_onemass_integrand(-0.075 + 0.9j, -0.85 - 0.4j, k)
        b = mb_onemass_integrand(-0.075 - 0.9j, -0.85 + 0.4j, k)
        assert abs(a - b.conjugate()) < 1e-13 * abs(a)

    def test_abscissa_shift_invariance(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.4, msq=-0.5)
        ca, cb = select_contour_onemass(k)
        base = mb_onemass_eval(k, ca, cb).value
        # on the same nodes the shifted pair's nearest pole is 0.6 of the
        # step's gap eps/3 (-alpha at 0.08), and eps - 1 - beta sits at 0.7
        ca2 = ContourSpec(ca.abscissa * 0.6, ca.height, ca.nodes)
        cb2 = ContourSpec(cb.abscissa + 0.04, cb.height, cb.nodes)
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
            res = residue_massless(k, cut)
            closed = massless_box(k, cut).value
            assert res.method == "residue"
            assert abs(res.value - closed) < 1e-10 * abs(closed)
            assert abs(res.diagnostics["spurious_sum"]) < 1e-11 * abs(res.value)
            assert abs(res.diagnostics["delta_pole_coefficient"]) < 1e-12 * abs(res.value)

    def test_breakdown_is_consistent(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        res = residue_massless(k)
        d = res.diagnostics
        pieces_sum = d["I1"] + d["I2a"] + d["I2b"]
        assert abs(pieces_sum - res.value) < 1e-14 * abs(pieces_sum)
        spur = sum(d["spurious_terms"].values())
        assert abs(spur - d["spurious_sum"]) < 1e-14

    @pytest.mark.parametrize("ratio", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("eps", [0.02, 0.5, 0.99])
    def test_wide_ratio_and_eps(self, ratio, eps):
        # beyond the verify grid (eps <= 0.45, |s/t| <= 6): against mpmath,
        # and the one-sided cuts against the closed form
        k = Kinematics(s=-ratio, t=-1.0, eps=eps)
        ref = mp_box(k.s, k.t, eps)
        assert abs(residue_massless(k).value - ref) <= 1e-10 * abs(ref)
        for cut in (sf.ABOVE, sf.BELOW):
            closed = massless_box(k, cut).value
            assert abs(residue_massless(k, cut).value - closed) <= 1e-10 * abs(closed)


class TestResidueOneMass:
    @pytest.mark.parametrize("s,t,m2,eps", [(-1.0, -2.0, -0.5, 0.3),
                                            (-2.0, -0.5, -1.0, 0.25),
                                            (-0.5, -0.5, -2.0, 0.4)])
    def test_total_and_cancellations(self, s, t, m2, eps):
        k = Kinematics(s=s, t=t, eps=eps, msq=m2)
        for cut in (sf.PV, sf.ABOVE, sf.BELOW):
            res = residue_onemass(k, cut)
            closed = onemass_box(k, cut).value
            assert res.method == "residue"
            assert abs(res.value - closed) < 1e-10 * abs(closed)
            assert abs(res.diagnostics["spurious_sum"]) < 1e-11 * abs(res.value)
        assert residue_onemass(k).diagnostics["delta_pole_coefficient"] == 0j
