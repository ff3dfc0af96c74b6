import cmath
import math
import random

import mpmath
import numpy as np
import pytest

from helpers import mp_box, mp_error, sample

from mbbox import mb_engine, specfun as sf
from mbbox.closed_form import Kinematics, massless_box, onemass_box
from mbbox.errors import InfeasibleContour, NotConverged, PoleError
from mbbox.mb_engine import (
    MAX_NODES,
    ContourSpec,
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


def full_nodes(spec):
    """Indices j of Im w = j h on the doubled rule over the whole line; its
    even entries are the coarse nodes."""
    return np.arange(1 - spec.nodes, spec.nodes)


def counting_lines(monkeypatch):
    """The heights of every gamma_abs2_line and ln_gamma_line call that
    mb_engine makes from now on, per function."""
    sizes = {"ln_gamma_line": [], "gamma_abs2_line": []}
    for name in sizes:
        def counting(*args, real=getattr(sf, name), calls=sizes[name]):
            calls.append(args[-1].size)  # the heights y
            return real(*args)
        monkeypatch.setattr(mb_engine, name, counting)
    return sizes


def given_line(monkeypatch, height, nodes):
    """Make mb_massless_eval start from a line of ``nodes`` coarse nodes up
    to ``height`` at its own abscissa, in place of its first line."""
    real = mb_engine.massless_line
    monkeypatch.setattr(mb_engine, "massless_line", lambda k, crossed: ContourSpec(
        real(k, crossed).abscissa, height, nodes))


def mp_integrand(w, k):
    """The massless integrand's six gamma factors in mpmath, at the working precision."""
    s, t, e = mpmath.mpf(k.s), mpmath.mpf(k.t), mpmath.mpf(k.eps)
    return ((-t) ** w * (-s) ** (e - 2 - w) * mpmath.gamma(1 + w) ** 2 * mpmath.gamma(2 - e + w)
            * mpmath.gamma(-w) * mpmath.gamma(e - 1 - w) ** 2 / mpmath.gamma(2 * e))


class TestContourSelection:
    def test_massless_default_abscissa(self):
        # below eps = 1/2 midway between the crossed pole eps - 1 and 0,
        # from 1/2 on midway between -1 and eps - 1
        for eps, c in ((1e-6, -0.4999995), (0.4, -0.3), (0.499, -0.2505),
                       (0.5, -0.75), (0.99, -0.505)):
            spec = select_contour_massless(massless_point(eps))
            assert abs(spec.abscissa - c) < 1e-15, eps
            assert spec == massless_line(massless_point(eps), eps < 0.5)
            assert (spec.abscissa > eps - 1.0) == (eps < 0.5)

    @pytest.mark.parametrize("eps", [1e-6, 0.02, 0.3, 0.5, 0.7, 0.99])
    def test_massless_line_takes_its_band_step(self, eps):
        # the crossed line at (eps - 1)/2 and the uncrossed one at
        # -1 + eps/2, each with the step of its true pole gap (1 - eps)/2 or
        # eps/2, bit for bit
        k = Kinematics(s=-1.0, t=-2.0, eps=eps)
        for crossed, abscissa, pole in ((True, (eps - 1.0) / 2.0, (1.0 - eps) / 2.0),
                                        (False, -1.0 + eps / 2.0, eps / 2.0)):
            step = mb_engine._fine_step(pole, 60.0, math.log(2.0))
            assert massless_line(k, crossed) == ContourSpec.from_step(abscissa, 6.0, step)

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

    @pytest.mark.parametrize("crossed", [True, False])
    @pytest.mark.parametrize("eps", [1e-5, 0.02, 0.3, 0.4999, 0.5, 0.9, 0.999])
    def test_line_form_matches_mpmath(self, eps, crossed):
        # Re f and |f| node by node on the whole line at the heights j/2,
        # exact in binary, negative ones included, against the six gamma
        # factors at 30 digits on the exact line (eps - 1)/2 or -1 + eps/2
        # (the scalar form is 1.8e-11 off at eps = 1e-5 on the uncrossed
        # line); the phase exp(i fl(y fl(ln(t/s)))) was 1.6e-14 off at
        # |y| = 5, |t/s| = 1e8
        j = np.arange(-12, 13)
        y = 0.5 * j
        for ratio in (1e-8, 1.0, 1e8):
            k = Kinematics(s=-1.5, t=-1.5 * ratio, eps=eps)
            re, size = mb_engine._line_nodes(k, 0.5, j, crossed)
            with mpmath.workdps(30):
                e = mpmath.mpf(eps)
                c = (e - 1) / 2 if crossed else e / 2 - 1
                for yi, ri, si in zip(y, re, size):
                    ref = complex(mp_integrand(c + 1j * mpmath.mpf(yi), k))
                    assert abs(ri - ref.real) <= 1e-14 * abs(ref), (ratio, yi)
                    assert abs(si - abs(ref)) <= 1e-14 * abs(ref), (ratio, yi)

    def test_grid_finite_far_up_the_line(self):
        for eps in (0.3, 0.7):
            for crossed in (True, False):
                re, size = mb_engine._line_nodes(Kinematics(s=-1.0, t=-2.0, eps=eps),
                                                 100.0, np.array([-4, 3]), crossed)
                assert np.all(re == 0.0) and np.all(size == 0.0)


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

    @pytest.mark.parametrize("crossed", [True, False])
    @pytest.mark.parametrize("nodes", [41, 42])
    def test_half_line_sums_match_full_line(self, nodes, crossed):
        # nodes - 1 even puts Im w = 0 on the coarse rule, odd leaves it off
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        spec = ContourSpec(massless_line(k, crossed).abscissa, 6.0, nodes)
        full, full_size = mb_engine._line_nodes(k, spec.step, full_nodes(spec), crossed)
        upper, size = mb_engine._line_nodes(k, spec.step, spec.upper_nodes(), crossed)
        first = (nodes - 1) % 2
        for half, whole in ((mb_engine._mirror_sum(upper), np.sum(full)),
                            (mb_engine._mirror_sum(upper, first, 2), np.sum(full[::2])),
                            (mb_engine._mirror_sum(size), np.sum(full_size))):
            assert abs(half - whole) < 1e-13 * abs(whole)

    @pytest.mark.parametrize("crossed", [True, False])
    @pytest.mark.parametrize("nodes", [2001, 2002])
    def test_half_line_eval_matches_full_line(self, nodes, crossed, monkeypatch):
        # at s = -1 with |t| <= |s| the point is its own unit point on both
        # lines; the route runs one pass on a line given by hand
        k = Kinematics(s=-1.0, t=-0.5, eps=0.3)
        spec = ContourSpec(massless_line(k, crossed).abscissa, 8.0, nodes)
        full = mb_engine._line_nodes(k, spec.step, full_nodes(spec), crossed)[0]
        residue = mb_engine._crossed_residue(k, 1.0)[0] if crossed else 0.0
        weight = spec.step / (2.0 * math.pi)
        fine = weight * np.sum(full) - residue
        coarse = 2.0 * weight * np.sum(full[::2]) - residue
        given_line(monkeypatch, 8.0, nodes)
        v = mb_massless_eval(k, crossed)
        assert v.diagnostics["passes"] == 1
        assert abs(v.value - fine) < 1e-14 * abs(fine)
        assert abs(v.diagnostics["node_doubling_delta"] - abs(fine - coarse)) < 1e-14 * abs(fine)

    @pytest.mark.parametrize("crossed", [True, False])
    @pytest.mark.parametrize("eps", [0.3, 0.7])
    def test_one_abs_gamma_line_per_point(self, eps, crossed, monkeypatch):
        # both lines are self-conjugate, also a line given by hand with other
        # nodes and height: one gamma_abs2_line call of ``nodes`` heights and
        # no log-gamma line
        sizes = counting_lines(monkeypatch)
        k = Kinematics(s=-1.0, t=-2.0, eps=eps)
        for given in (None, (4.0, 301)):
            if given:
                given_line(monkeypatch, *given)
            v = mb_massless_eval(k, crossed)
            assert v.diagnostics["passes"] == 1
            assert sizes == {"ln_gamma_line": [], "gamma_abs2_line": [v.diagnostics["nodes"]]}
            sizes["gamma_abs2_line"].clear()

    @pytest.mark.parametrize("ratio", [1e-8, 1e8])
    @pytest.mark.parametrize("eps", [0.6, 0.9])
    def test_refined_point_against_mpmath(self, eps, ratio, monkeypatch):
        # at |t/s| = 1e+-8 the default line's first step misses the delta:
        # the second pass halves it, evaluates the n - 1 new nodes only, and
        # is within 1e-13 of mpmath, its estimate at least its error
        sizes = counting_lines(monkeypatch)
        k = Kinematics(s=-1.0, t=-ratio, eps=eps)
        first = select_contour_massless(k).nodes
        v = mb_massless_eval(k)
        assert v.diagnostics["passes"] == 2
        assert v.diagnostics["nodes"] == 2 * first - 1
        assert v.diagnostics["step"] == select_contour_massless(k).step / 2.0
        assert sizes["gamma_abs2_line"] == [first, first - 1]
        error = mp_error(v.value.real, -1.0, -ratio, eps, dps=40)
        assert error <= 1e-13 * abs(v.value)
        assert error <= v.diagnostics["error_estimate"]

    def test_non_finite_value_is_not_refined(self, monkeypatch):
        # at s = t = -1e-200 the box is out of the double range: one pass,
        # and a value that the CLI refuses as NonConvergence at the scale
        sizes = counting_lines(monkeypatch)
        k = Kinematics(s=-1e-200, t=-1e-200, eps=0.3)
        with np.errstate(all="ignore"):
            v = mb_massless_eval(k)
        assert not cmath.isfinite(v.value)
        assert v.diagnostics["passes"] == 1
        assert sizes["gamma_abs2_line"] == [select_contour_massless(k).nodes]

    @pytest.mark.parametrize("eps", [0.02, 0.3, 0.7, 0.97])
    def test_abscissa_shift_invariance(self, eps):
        # the two lines, on both sides of the double pole at eps - 1: the
        # crossed one subtracts its residue
        for s, t in ((-1.0, -2.0), (-2.0, -1.0)):
            k = Kinematics(s=s, t=t, eps=eps)
            crossed = mb_massless_eval(k, True).value
            uncrossed = mb_massless_eval(k, False).value
            assert abs(crossed - uncrossed) < 1e-10 * abs(uncrossed), (s, t)

    @pytest.mark.parametrize("eps", [1e-6, 0.2, 0.3, 0.5, 0.99])
    def test_infeasible_abscissa_rejected(self, eps):
        # the line is named by a flag: an abscissa in its place, as a float
        # or as a line, is refused, also that of either line itself, and so
        # is the pole eps - 1, the edges 0 and -1, a point past them, and a
        # line next to either
        k = Kinematics(s=-1.0, t=-2.0, eps=eps)
        lines = [massless_line(k, crossed).abscissa for crossed in (True, False)]
        others = [eps - 1.0, 0.0, -1.0, 0.5, -0.8, -0.2] + lines + [
            math.nextafter(c, side) for c in lines for side in (-1.0, 0.0)]
        for c in others:
            for given in (c, ContourSpec(c, 6.0, 4096)):
                with pytest.raises(InfeasibleContour, match="crossed=True or crossed=False"):
                    mb_massless_eval(k, given)

    def test_trapezoid_rule(self):
        # the doubled rule on a line given by hand, well away from the
        # default height and step: h / 2 pi times the sum of Re f over the
        # whole uncrossed line, which subtracts no residue
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        spec = ContourSpec(massless_line(k, False).abscissa, 8.0, 2001)
        assert spec.step == 8.0 / 2000
        re = mb_engine._line_nodes(k, spec.step, full_nodes(spec), False)[0]
        c = massless_box(k).value
        assert abs(spec.step / (2.0 * math.pi) * np.sum(re) - c) < 1e-12 * abs(c)

    def test_not_converged_reported(self):
        # the uncrossed line at eps = 1e-6 is 5e-7 from its poles: its first
        # step needs more nodes than the cap
        k = Kinematics(s=-1.0, t=-2.0, eps=1e-6)
        with pytest.raises(NotConverged):
            mb_massless_eval(k, False)

    def test_node_cap_checked_before_allocation(self):
        with pytest.raises(NotConverged, match="exceed the cap"):
            ContourSpec(-0.35, 6.0, 10 ** 12).upper_nodes()
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
        # the error and is at most 2e2 times it (the worst here is 40, at
        # (0.49, 1e8)); at (0.9, 1e+-8) h sum |f| / 2 pi is 105 times the
        # value, so the rounding term may not charge that sum in full
        v = mb_massless_eval(Kinematics(s=-1.0, t=-ratio, eps=eps))
        error = mp_error(v.value.real, -1.0, -ratio, eps)
        estimate = v.diagnostics["error_estimate"]
        assert error <= estimate <= 2e2 * error

    def test_error_estimate_bounds_error_on_the_domain(self):
        # seeded points over eps in (1e-5, 0.999) and |t/s| in 1e+-8 (the
        # sampler that tools/mb_accuracy.py scans) on both lines, against
        # mpmath at 40 digits; the uncrossed line refuses small eps (node
        # cap) and the crossed one eps near 1; halving both rounding charges
        # falls below the error at two points on the crossed line
        done = {True: 0, False: 0}
        for s, t, eps in sample(random.Random(4), 60):
            k = Kinematics(s=s, t=t, eps=eps)
            for crossed in (True, False):
                try:
                    v = mb_massless_eval(k, crossed)
                except NotConverged:
                    continue
                error = mp_error(v.value.real, s, t, eps, dps=40)
                assert error <= v.diagnostics["error_estimate"], (s, t, eps, crossed)
                done[crossed] += 1
        assert min(done.values()) >= 30, done


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
        assert v.diagnostics["passes"] == 1

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

    @pytest.mark.parametrize("eps", [0.0016, 0.002, 0.0025])
    def test_error_estimate_bounds_error_near_the_cap(self, eps):
        # 53k-84k nodes a line at a pole gap of eps/3: the Lanczos sum taken
        # at real part eps/3 itself, not at eps/3 + 1, is about 1e2 ulp off
        # there, and the value was up to 1.8 times its estimate off
        v = mb_onemass_eval(onemass_point(eps))
        error = mp_error(v.value.real, -1.0, -2.0, eps, -0.5, dps=40)
        assert error <= v.diagnostics["error_estimate"]

    @pytest.mark.parametrize("s,t,m2,eps", [(-1.0, -2.6e6, -6.5e-7, 0.9982),
                                            (-1.0, -0.28, -1.24e7, 0.999999),
                                            (-1.0, -1.18e7, -3.2e-3, 0.9555)])
    def test_refines_where_the_delta_asks(self, s, t, m2, eps, monkeypatch):
        # where the phase cancels the value far below h^2 sum |f| the first
        # pair misses ONEMASS_DELTA_RTOL: the default rule doubles the nodes
        # of both lines and redoes the sums, and gamma_points counts every
        # pass's log-gamma line
        k = Kinematics(s=s, t=t, eps=eps, msq=m2)
        sizes = counting_lines(monkeypatch)["ln_gamma_line"]
        v = mb_onemass_eval(k)
        first, _ = select_contour_onemass(k)
        d = v.diagnostics
        assert d["passes"] == len(sizes) >= 2
        assert d["nodes"][0] == (first.nodes - 1) * 2 ** (d["passes"] - 1) + 1
        assert d["gamma_points"] == sum(sizes)
        error = mp_error(v.value.real, s, t, eps, m2, dps=40)
        assert error <= 1e-12 * abs(v.value)
        assert error <= d["error_estimate"]

    @pytest.mark.parametrize("s,t,m2,eps", [(-1.0, -1.0, -0.5, 0.4), (-1.0, -2.0, -0.5, 0.3)])
    def test_value_exactly_real(self, s, t, m2, eps):
        assert mb_onemass_eval(Kinematics(s=s, t=t, eps=eps, msq=m2)).value.imag == 0.0

    def test_small_eps_matches_closed_form(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.05, msq=-0.5)
        v = mb_onemass_eval(k)
        c = onemass_box(k).value
        assert abs(v.value - c) < 1e-11 * abs(c)

    @staticmethod
    def hexagon_sums(k, ca, cb):
        """h^2 / 4 pi^2 times the scalar integrand summed over the doubled
        and the coarse rule's nodes of the hexagon |alpha|, |beta|,
        |alpha + beta| <= H, with H the higher line's top, then 4 times its
        modulus summed over the even nodes: the coarse nodes of a line are
        those of its top node's parity."""
        top = max(ca.nodes, cb.nodes) - 1
        fine = coarse = 0j
        size = 0.0
        for p in full_nodes(ca):
            for q in full_nodes(cb):
                if abs(p + q) <= top:
                    f = mb_onemass_integrand(ca.abscissa + 1j * ca.step * p,
                                             cb.abscissa + 1j * cb.step * q, k)
                    fine += f
                    if (p - ca.nodes + 1) % 2 == (q - cb.nodes + 1) % 2 == 0:
                        coarse += f
                    if p % 2 == q % 2 == 0:
                        size += abs(f)
        weight = ca.step * cb.step / (4.0 * math.pi ** 2)
        return weight * fine, 4.0 * weight * coarse, 4.0 * weight * size

    def test_fft_correlation_matches_direct_double_sum(self):
        # the spectral sum against the scalar integrand summed over every node
        # pair of the same doubled grids in the hexagon: the default pair at
        # s != -1 (the unit scaling), with 79 x 65 nodes of one step, so the
        # inner line is the longer one and its coarse nodes skip Im 0
        k = Kinematics(s=-2.0, t=-0.5, eps=0.6, msq=-1.0)
        a0, b0 = (c.abscissa for c in select_contour_onemass(k))
        ca, cb = ContourSpec(a0, 4.875, 40), ContourSpec(b0, 4.0, 33)
        assert ca.step == cb.step == 0.125
        fine, coarse, _ = mb_engine._mb_onemass_sums(k, ca, cb)
        direct, direct_coarse, _ = self.hexagon_sums(k, ca, cb)
        assert abs(fine - direct) < 1e-13 * abs(direct)
        assert abs(coarse - direct_coarse) < 1e-13 * abs(direct_coarse)

    @pytest.mark.parametrize("na, nb", [(41, 33), (33, 40), (44, 43), (34, 40)])
    def test_fft_correlation_matches_direct_double_sum_on_the_default_pair(self, na, nb):
        # the shared-line path at height about 4, where the corners the
        # hexagon drops matter at 1e-13: at eps = 0.3 the default pair is
        # (-0.1, -0.8), where one log-gamma and one cosecant half-line give
        # every factor; odd and even node counts on each line, so the coarse
        # nodes of either line include Im 0 or skip it, each line the longer;
        # at 44 x 43 nodes the least length that does not wrap around, 129,
        # is just above a power of two
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=-0.5)
        a0, b0 = (c.abscissa for c in select_contour_onemass(k))
        assert abs(a0 + 0.1) < 1e-15 and abs(b0 + 0.8) < 1e-15
        ca, cb = ContourSpec(a0, (na - 1) / 8.0, na), ContourSpec(b0, (nb - 1) / 8.0, nb)
        fine, coarse, (size, _, length) = mb_engine._mb_onemass_sums(k, ca, cb)
        direct, direct_coarse, direct_size = self.hexagon_sums(k, ca, cb)
        assert abs(fine - direct) < 1e-13 * abs(direct)
        assert abs(coarse - direct_coarse) < 1e-13 * abs(direct_coarse)
        assert abs(size - direct_size) < 1e-13 * direct_size
        # the least even 2^i, 3 2^i or 5 2^i that does not wrap around
        assert length == min(m << i for m in (1, 3, 5) for i in range(1, 12)
                             if m << i >= na + nb + max(na, nb) - 2)

    @pytest.mark.parametrize("s,t,m2,eps", [(-1.0, -2.0, -0.5, 0.3), (-1.0, -100.0, -0.01, 0.95)])
    def test_hexagon_within_the_tail_of_the_square(self, s, t, m2, eps):
        # at the default height the corners of the square that the hexagon
        # drops, alpha and beta of one sign with |alpha + beta| > H, sum to
        # less than the reported tail, also in modulus; they are summed off
        # the same grids, with C up to 2H, and scaled by the scalar integrand
        k = Kinematics(s=s, t=t, eps=eps, msq=m2)
        ca, cb = select_contour_onemass(k)
        na, nb = ca.nodes, cb.nodes
        a, b, _ = mb_engine._onemass_grids(k, ca.step, na, nb)
        c = mb_engine._onemass_grids(k, ca.step, na + nb - 1, nb)[2]
        weight = (ca.step ** 2 / (4.0 * math.pi ** 2)
                  * mb_onemass_integrand(ca.abscissa, cb.abscissa, k) / (a[0] * b[0] * c[0]))
        whole = [np.concatenate([g[:0:-1].conj(), g]) for g in (a, b, c)]
        sigma = full_nodes(ca)[:, None] + full_nodes(cb)[None, :]
        f = weight * whole[0][:, None] * whole[1][None, :] * whole[2][sigma + na + nb - 2]
        inside = abs(sigma) < max(na, nb)
        fine, _, _ = mb_engine._mb_onemass_sums(k, ca, cb)
        assert abs(fine - f[inside].sum().real) < 1e-13 * abs(fine)
        corners = f[~inside]
        assert abs(corners.sum()) <= np.abs(corners).sum() <= mb_onemass_eval(k).diagnostics[
            "tail_estimate"]

    @staticmethod
    def three_factor_products(k, alpha, beta, sigma):
        """A, B and C at the unit point k from the scalar ln_gamma: the seven
        gamma factors and the phases of (-msq)^alpha and (-t)^-sigma."""
        e, lg = k.eps, sf.ln_gamma
        ref_a = [np.exp(lg(-al) + 1j * al.imag * math.log(-k.msq)) for al in alpha]
        ref_b = [np.exp(lg(-be) + lg(1.0 + be) + lg(e - 1.0 - be)) for be in beta]
        ref_c = [np.exp(lg(2.0 - e + si) + lg(e - 1.0 - si) + lg(1.0 + si)
                        - 1j * si.imag * math.log(-k.t)) for si in sigma]
        return ref_a, ref_b, ref_c

    def test_shared_line_grids_match_three_factor_products(self):
        # the default pair at the heights j h of the sums' upper halves, the
        # sigma line as high as the higher of the two
        k = Kinematics(s=-3.0, t=-2.0, eps=0.3, msq=-0.5).unit[0]
        ca, cb = select_contour_onemass(k)
        heights = ca.step * np.arange(max(ca.nodes, cb.nodes))
        alpha = ca.abscissa + 1j * heights[:ca.nodes]
        beta = cb.abscissa + 1j * heights[:cb.nodes]
        sigma = ca.abscissa + cb.abscissa + 1j * heights
        grids = mb_engine._onemass_grids(k, ca.step, ca.nodes, cb.nodes)
        assert [len(g) for g in grids] == [ca.nodes, cb.nodes, len(heights)]
        refs = self.three_factor_products(k, alpha[::5], beta[::5], sigma[::5])
        for grid, ref in zip(grids, refs):
            assert np.all(abs(grid[::5] - ref) < 1e-13 * np.abs(ref))

    def test_one_log_gamma_half_line_on_the_default_pair(self, monkeypatch):
        # one log-gamma and one cosecant line of L = max(na, nb) points, also
        # on pairs given by hand with other nodes and heights, and no complex
        # Lanczos sum; gamma_points counts them
        points = {"ln_gamma_line": [], "_pi_csc_line": []}
        for name in points:
            def counting(x, y, real=getattr(mb_engine, name), sizes=points[name]):
                sizes.append(y.size)
                return real(x, y)
            monkeypatch.setattr(mb_engine, name, counting)
        monkeypatch.setattr(sf, "_lanczos_ln_gamma", None)
        assert not hasattr(mb_engine, "ln_gamma_grid")
        k = Kinematics(s=-1.0, t=-2.0, eps=0.4, msq=-0.5)
        ca, cb = select_contour_onemass(k)
        for pair in ((ca, cb), tuple(ContourSpec(c.abscissa, 4.0, 301) for c in (ca, cb)),
                     (ContourSpec(ca.abscissa, 4.0, 201), ContourSpec(cb.abscissa, 6.0, 301))):
            monkeypatch.setattr(mb_engine, "select_contour_onemass", lambda k, pair=pair: pair)
            v = mb_onemass_eval(k)
            assert v.diagnostics["passes"] == 1
            n = max(c.nodes for c in pair)
            assert points == {"ln_gamma_line": [n], "_pi_csc_line": [n]}
            assert v.diagnostics["gamma_points"] == n
            for sizes in points.values():
                sizes.clear()

    def test_reflection_grids_match_three_factor_products(self):
        # the grids' conjugates are the products on the lower halves, Im < 0,
        # which the real spectra take for granted
        k = Kinematics(s=-3.0, t=-2.0, eps=0.3, msq=-0.5).unit[0]
        ca, cb = select_contour_onemass(k)
        grids = [g[::7].conj() for g in mb_engine._onemass_grids(k, ca.step, ca.nodes, cb.nodes)]
        lower = -ca.step * np.arange(max(ca.nodes, cb.nodes))[::7]
        refs = self.three_factor_products(k, ca.abscissa + 1j * lower[:len(grids[0])],
                                          cb.abscissa + 1j * lower[:len(grids[1])],
                                          ca.abscissa + cb.abscissa + 1j * lower)
        for grid, ref in zip(grids, refs):
            assert np.all(abs(grid - ref) < 1e-13 * np.abs(ref))

    @pytest.mark.parametrize("height, bound", [(3.0, 2e-15), (14.0, 9e-15)])
    def test_csc_line_against_mpmath(self, height, bound):
        # |ln|pi csc| error| + |arg error| on the lines at 2 eps/3; the worst
        # measured on this grid: 1.2e-15 for |y| <= 3 and 7.6e-15 up to 14,
        # where pi |y| carries an ulp of 44
        y = np.linspace(-height, height, 57)
        for u in (2e-5, 1e-3, 0.01, 0.1, 0.2, 0.4, 0.5, 0.6, 0.66):
            modulus, phase = mb_engine._pi_csc_line(u, y)
            with mpmath.workdps(30):
                for yi, m, p in zip(y, modulus, phase):
                    ref = mpmath.log(mpmath.pi / mpmath.sin(mpmath.pi * mpmath.mpc(u, yi)))
                    assert float(abs(m - ref.real) + abs(p - ref.imag)) <= bound, (u, yi)

    @pytest.mark.parametrize("s,t,m2,eps", [(-1.0, -2.0, -0.5, 0.3), (-1.0, -100.0, -0.01, 0.95)])
    def test_tail_read_off_the_grids(self, s, t, m2, eps):
        # |f| at the top centre of the alpha and beta edges and at the middle
        # (H/2, H/2) of the sigma edge, or the node nearest it
        k = Kinematics(s=s, t=t, eps=eps, msq=m2)
        ca, cb = select_contour_onemass(k)
        top_a, top_b = ca.abscissa + 1j * ca.height, cb.abscissa + 1j * cb.height
        half = (ca.nodes - 1) // 2
        cut = (ca.abscissa + 1j * half * ca.step,
               cb.abscissa + 1j * (cb.nodes - 1 - half) * cb.step)
        ref = (abs(mb_onemass_integrand(*cut, k))
               + abs(mb_onemass_integrand(top_a, cb.abscissa, k))
               + abs(mb_onemass_integrand(ca.abscissa, top_b, k))) / (4.0 * math.pi ** 2)
        tail = mb_engine._mb_onemass_sums(k, ca, cb)[2][1]
        assert abs(tail - ref) < 1e-12 * ref

    def test_integrand_conjugate_symmetry(self):
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3, msq=-0.5)
        a = mb_onemass_integrand(-0.075 + 0.9j, -0.85 - 0.4j, k)
        b = mb_onemass_integrand(-0.075 - 0.9j, -0.85 + 0.4j, k)
        assert abs(a - b.conjugate()) < 1e-13 * abs(a)

    def test_step_and_height_invariance(self):
        # the default pair's abscissae on a higher rule with a finer step
        k = Kinematics(s=-1.0, t=-2.0, eps=0.4, msq=-0.5)
        base = mb_onemass_eval(k).value
        v, _, _ = mb_engine._mb_onemass_sums(k, *(ContourSpec(c.abscissa, 9.0, 2 * c.nodes)
                                                  for c in select_contour_onemass(k)))
        assert abs(v - base) < 1e-13 * abs(base)

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
