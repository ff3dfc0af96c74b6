"""Mellin-Barnes pipelines for the box integrals.

Two independent routes live here:

* direct numerical quadrature of the contour representations (one contour
  variable for the massless box, an iterated pair for the one-mass box),
  by one trapezoid rule on vertical lines chosen to separate the left and
  right pole families, except that the massless line crosses the right
  double pole at eps - 1 for eps < 1/2 and subtracts its residue;
* reconstruction from the resummed residue families.  An auxiliary
  regulator delta splits the massless double poles; the delta^-1 and
  delta^0 coefficients of the split families are read off Gamma and psi
  (never a floating delta), and the spurious continuation leftovers are
  tracked explicitly so their cancellation can be verified.

Every route returns a :class:`~mbbox.closed_form.BoxValue`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .closed_form import BoxValue, Kinematics, _gammas
from .errors import InfeasibleContour, NotConverged, PoleError
from .specfun import (
    EULER_GAMMA,
    PV,
    CutPrescription,
    cut_log,
    digamma,
    f21_1e,
    f21_11,
    f21_11_split,
    ln_gamma,
    ln_gamma_grid,
    _f21_11_tail,
)

__all__ = [
    "ContourSpec",
    "massless_line",
    "select_contour_massless",
    "select_contour_onemass",
    "mb_massless_integrand",
    "mb_massless_eval",
    "mb_onemass_integrand",
    "mb_onemass_eval",
    "residue_massless",
    "residue_onemass",
]

# Most coarse nodes one contour may carry, checked before any node array is
# built: eps -> 0 raises NotConverged instead of allocating millions of nodes.
MAX_NODES = 1 << 17

# Largest node-doubling delta, relative to the value, that each contour
# route accepts; above it the evaluation raises NotConverged.
MASSLESS_DELTA_RTOL = 1e-9
ONEMASS_DELTA_RTOL = 1e-5


@dataclass(frozen=True)
class ContourSpec:
    """A truncated vertical line with a uniform trapezoid rule in Im w.

    ``nodes`` coarse nodes span Im w in [-height, height].  The doubled
    rule halves the coarse step and keeps every coarse node.
    """

    abscissa: float
    height: float
    nodes: int

    def __post_init__(self):
        if not 0.0 < self.height < math.inf:
            raise InfeasibleContour(f"need a finite and positive height, got height={self.height}")
        if self.nodes < 32:
            raise InfeasibleContour(f"need at least 32 nodes, got {self.nodes}")

    @classmethod
    def from_step(cls, abscissa: float, height: float, step: float) -> "ContourSpec":
        """The line whose doubled rule has a step of at most ``step``."""
        if not (step > 0.0 and 0.0 < height < math.inf):
            raise InfeasibleContour(f"need a finite and positive height and a positive "
                                    f"step, got height={height}, step={step}")
        return cls(abscissa, height, math.ceil(height / step) + 1)

    @property
    def step(self) -> float:
        """Step of the doubled rule."""
        return self.height / (self.nodes - 1)

    def _check_cap(self):
        if self.nodes > MAX_NODES:
            raise NotConverged(f"{self.nodes} coarse nodes exceed the cap of {MAX_NODES}")

    def upper_heights(self) -> np.ndarray:
        """The doubled rule's Im w >= 0, from 0 up: entry j is coarse when
        j = nodes - 1 (mod 2)."""
        self._check_cap()
        return self.step * np.arange(self.nodes)


# ---------------------------------------------------------------------------
# contour selection
# ---------------------------------------------------------------------------

def abscissa_is_feasible(c: float, eps: float) -> bool:
    """True when the line at c lies between the massless integrand's left
    poles (-1, -2, ... and eps - 2, ...) and its right poles at 0, 1, ...,
    and off the double pole at eps - 1.  A line right of eps - 1 has
    crossed that pole, and its residue is subtracted from the line
    integral (see :func:`mb_massless_eval`)."""
    return -1.0 < c < 0.0 and c != eps - 1.0


def _fine_step(d: float, decay: float, spread: float) -> float:
    """Trapezoid step whose error is about exp(-decay) at pole distance d.

    The rule's error falls like exp(-2 pi d / h) for an integrand analytic
    in the strip |Re(w - c)| < d (Trefethen & Weideman, SIAM Review 56,
    2014).  The kinematic phase exp(i y L) grows to exp(d L) at the strip's
    edge; ``spread`` is that L.
    """
    return 2.0 * math.pi * d / (decay + d * spread)


def massless_line(k: Kinematics, abscissa: float) -> ContourSpec:
    """The massless integrand's line at ``abscissa``, with the step of its band.

    The double pole at eps - 1 splits the lines between the poles at -1
    and 0 into two bands, (-1, eps - 1) and (eps - 1, 0).  A band's step is
    set for a pole at a third of the distance from its midline to its
    edges, eps/6 or (1 - eps)/6, so that lines shifted toward a pole keep
    converging on the same nodes.  The integrand decays like
    exp(-3 pi |Im w|), so the tail beyond height 6 is below 1e-24.
    """
    eps = k.eps
    pole = (1.0 - eps) / 6.0 if abscissa > eps - 1.0 else eps / 6.0
    spread = abs(math.log(k.s / k.t))
    return ContourSpec.from_step(abscissa, 6.0, _fine_step(pole, 60.0, spread))


def select_contour_massless(k: Kinematics) -> ContourSpec:
    """The massless line at the midline of the wider band (see :func:`massless_line`).

    For eps < 1/2 that is (eps - 1)/2, midway between the crossed double
    pole at eps - 1 and the pole at 0, so the pole gap no longer shrinks
    with eps; otherwise -1 + eps/2, midway between -1 and eps - 1.
    """
    eps = k.eps
    return massless_line(k, (eps - 1.0) / 2.0 if eps < 0.5 else -1.0 + eps / 2.0)


def _onemass_abscissae(eps: float) -> tuple[float, float]:
    """(a0, b0) = (-eps/3, -1 + 2 eps/3), the pair whose smallest pole gap is largest."""
    third = eps / 3.0
    return -third, -1.0 + 2.0 * third


def select_contour_onemass(k: Kinematics) -> tuple[ContourSpec, ContourSpec]:
    """Feasible pair of vertical lines for the iterated two-variable representation.

    The seven gamma-factor arguments keep a positive real part on the
    contours.  Three of them, -a0, 1 + a0 + b0 and eps - 1 - b0, sum to
    eps, so the smallest is at most eps/3, and a0 = -eps/3, b0 = -1 + 2 eps/3
    makes all three eps/3 (see :func:`_onemass_abscissae`); the other four
    are 2 eps/3 or 1 - 2 eps/3.  Both lines share one step, set by that
    pole gap of eps/3.  On this pair the three log-gamma lines coincide, and
    so do the two cosecant lines (see :func:`_onemass_grids`).
    """
    eps = k.eps
    a0, b0 = _onemass_abscissae(eps)
    spread = abs(math.log(k.s / k.t)) + abs(math.log(k.msq / k.t))
    step = _fine_step(-a0, 40.0, spread)
    return (ContourSpec.from_step(a0, 10.0, step), ContourSpec.from_step(b0, 10.0, step))


# ---------------------------------------------------------------------------
# contour quadrature
# ---------------------------------------------------------------------------

# Worst absolute error of a grid log-gamma on these contours, against
# mpmath.  The estimates count it once per gamma factor of the scalar
# integrands, six massless and seven one-mass; the grid forms carry fewer
# log-gammas (two a massless node, three a one-mass node, all three off one
# line on the default pair) and turn the reflection pairs into cosecants
# good to a few ulp, so that count bounds them.  The rounding of h sum f
# is at most the count times this times h sum |f|; the FFT correlation
# adds only about log2(length) * 2.2e-16 of the same sum.
_LN_GAMMA_ERR = 1e-14


def _pi_csc(z: np.ndarray) -> np.ndarray:
    """pi / sin(pi z) = Gamma(z) Gamma(1 - z) on a grid, from exponentials
    of the side of Im z that decays, so it stays finite at any height."""
    side = np.where(z.imag < 0.0, -1.0, 1.0)
    phase = 1j * math.pi * side * z
    return 2j * math.pi * side * np.exp(phase) / np.expm1(2.0 * phase)


def mb_massless_integrand(w, k: Kinematics):
    """Contour integrand of the massless box, including the 1/Gamma(2 eps) factor.

    Accepts a complex scalar or an ndarray of contour points.  Scalars take
    the six gamma factors literally and are checked against the pole
    families.  Grids are assumed to sit on a feasible contour and pair
    Gamma(1+w) Gamma(-w) and Gamma(2-eps+w) Gamma(eps-1-w) by reflection,
    each as pi / sin(pi z) at z = 1 + w and z = eps - 1 - w.  The other
    Gamma(eps-1-w) is Gamma(eps-w) / (eps-1-w), whose argument keeps a
    positive real part on either side of the pole at w = eps - 1.
    """
    k.require_massless()
    e = k.eps
    ln_ms, ln_mt = math.log(-k.s), math.log(-k.t)
    lg2e = ln_gamma(2.0 * e).real
    if isinstance(w, np.ndarray):
        a, b = w + 1.0, e - 1.0 - w
        return np.exp(w * ln_mt - (2.0 - e + w) * ln_ms + ln_gamma_grid(a)
                      + ln_gamma_grid(b + 1.0) - lg2e) * _pi_csc(a) * _pi_csc(b) / b
    w = complex(w)
    for arg in (w + 1.0, 2.0 - e + w, -w, e - 1.0 - w):
        if arg.imag == 0.0 and arg.real <= 0.0 and arg.real == math.floor(arg.real):
            raise PoleError(f"integrand pole at w={w}")
    return cmath.exp(w * ln_mt - (2.0 - e + w) * ln_ms
                     + 2.0 * ln_gamma(w + 1.0) + ln_gamma(2.0 - e + w)
                     + ln_gamma(-w) + 2.0 * ln_gamma(e - 1.0 - w) - lg2e)


def _mirror_sum(x: np.ndarray, first: int = 0, stride: int = 1) -> float:
    """Whole-line sum of a quantity even in Im w, from its entries
    x[first::stride] on the upper half, where x[j] sits at Im w = j h."""
    total = 2.0 * float(np.sum(x[first::stride]))
    return total - float(x[0]) if first == 0 else total


def _contour_value(specs: tuple, fine: complex, coarse: complex, tail: float,
                   rounding: float, rtol: float) -> BoxValue:
    """The doubled rule's sum as an ``mb`` BoxValue with its diagnostics.

    A node-doubling delta above ``rtol`` relative to the value raises
    :class:`NotConverged`.  Halving the step squares the rule's relative
    error, so the error estimate adds delta^2 / |value|, the truncation tail
    and the rounding of the sum.  ``specs`` holds the one massless line or
    the (inner, outer) one-mass pair, reported as numbers or as pairs.
    """
    delta = abs(fine - coarse)
    if delta > rtol * abs(fine):
        raise NotConverged(f"node-doubling delta {delta:.3e} above {rtol:.1e} * |value|")
    doubled = delta * (delta / abs(fine)) if delta else 0.0
    lines = {name: tuple(getattr(c, name) for c in specs)
             for name in ("nodes", "height", "abscissa")}
    if len(specs) == 1:
        lines = {name: pair[0] for name, pair in lines.items()}
    return BoxValue(complex(fine), "mb", {
        **lines,
        "step": specs[0].step,
        "tail_estimate": tail,
        "node_doubling_delta": delta,
        "rounding_estimate": rounding,
        "error_estimate": doubled + tail + rounding,
    })


def _crossed_residue(u: Kinematics, factor: float) -> tuple[float, float]:
    """Residue of the massless integrand at its double pole w = eps - 1,
    and the rounding of it, at the unit point ``u`` times ``factor``.

    With w = eps - 1 + d, Gamma(-d)^2 = 1/d^2 + 2 gamma_E/d + O(1), so the
    residue is the rest of the integrand at the pole,
    (-t)^(eps-1) Gamma(eps)^2 Gamma(1-eps) / Gamma(2 eps) at s = -1, times
    2 gamma_E plus its logarithmic derivative there: the bracket
    2 psi(eps) - psi(1-eps) + gamma_E + ln(-t).  The rounding counts the
    four gamma factors on the residue and each bracket term on its own,
    since the bracket can cancel (on a line crossed at eps > 1/2).
    """
    e = u.eps
    ln_mt = math.log(-u.t)
    size = factor * math.exp((e - 1.0) * ln_mt + 2.0 * ln_gamma(e).real
                             + ln_gamma(1.0 - e).real - ln_gamma(2.0 * e).real)
    terms = (2.0 * digamma(e).real, -digamma(1.0 - e).real, EULER_GAMMA, ln_mt)
    bracket = math.fsum(terms)
    rounding = _LN_GAMMA_ERR * size * (4.0 * abs(bracket) + sum(map(abs, terms)))
    return size * bracket, rounding


def mb_massless_eval(k: Kinematics, spec: ContourSpec | None = None) -> BoxValue:
    """Massless box by the trapezoid rule along a truncated vertical line.

    In the Euclidean region f(conj w) = conj f(w), so the rule sums only
    the nodes with Im w >= 0: the node at Im w = 0 once, the others as
    twice their real part, and the value is real.  Each node takes two
    log-gammas and a reflection pair (see :func:`mb_massless_integrand`).
    A line right of the double pole at eps - 1 has crossed it, and the
    value is the line integral minus the pole's residue (see
    :func:`_crossed_residue`); the box is symmetric in s and t, and on such
    a line the integrand is taken with |t| <= |s|, which keeps the residue
    from swamping the box; then it is scaled (see :attr:`Kinematics.unit`).
    The value is the doubled rule; the coarse rule is its even nodes.  The
    rounding term is the error of each node's six gamma factors times
    h sum |f| / 2 pi, plus the residue's, and the delta is held to
    ``MASSLESS_DELTA_RTOL`` (see :func:`_contour_value`).
    Without ``spec`` the line is :func:`select_contour_massless`'s.
    """
    k.require_massless()
    if spec is None:
        spec = select_contour_massless(k)
    if not abscissa_is_feasible(spec.abscissa, k.eps):
        raise InfeasibleContour(f"abscissa {spec.abscissa} infeasible for eps={k.eps}")
    crossed = spec.abscissa > k.eps - 1.0
    if crossed and abs(k.t) > abs(k.s):
        k = Kinematics(s=k.t, t=k.s, eps=k.eps)
    u, factor = k.unit
    f = factor * mb_massless_integrand(spec.abscissa + 1j * spec.upper_heights(), u)
    size = np.abs(f)
    weight = spec.step / (2.0 * math.pi)
    residue, residue_rounding = _crossed_residue(u, factor) if crossed else (0.0, 0.0)
    fine = weight * _mirror_sum(f.real) - residue
    coarse = 2.0 * weight * _mirror_sum(f.real, (spec.nodes - 1) % 2, 2) - residue
    # beyond both ends the integrand decays like exp(-3 pi |Im w|)
    tail = 2.0 * size[-1] / (2.0 * math.pi * 3.0 * math.pi)
    rounding = 6.0 * _LN_GAMMA_ERR * weight * _mirror_sum(size) + residue_rounding
    return _contour_value((spec,), fine, coarse, tail, rounding, MASSLESS_DELTA_RTOL)


def mb_onemass_integrand(alpha, beta, k: Kinematics):
    """Integrand of the iterated two-variable representation (scalar form)."""
    k.require_onemass()
    e = k.eps
    ln_ms, ln_mt, ln_mm = math.log(-k.s), math.log(-k.t), math.log(-k.msq)
    a, b = complex(alpha), complex(beta)
    return cmath.exp(
        a * ln_mm + b * ln_ms + (e - 2.0 - a - b) * ln_mt
        + ln_gamma(-a) + ln_gamma(-b) + ln_gamma(2.0 - e + a + b)
        + ln_gamma(e - 1.0 - a - b) + ln_gamma(1.0 + b)
        + ln_gamma(e - 1.0 - b) + ln_gamma(1.0 + a + b)
        - ln_gamma(2.0 * e).real)


def _correlate(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """out[..., i] = sum_j a[..., j] c[..., i + j] along the last axis, by FFT.

    The circular correlation on a power-of-two length of at least c's
    length wraps around only into the entries it drops.
    """
    na, nc = a.shape[-1], c.shape[-1]
    size = 1 << (nc - 1).bit_length()
    prod = np.fft.fft(a[..., ::-1], size) * np.fft.fft(c, size)
    return np.fft.ifft(prod)[..., na - 1:nc]


def _shared_lines(fn, lines: list) -> list:
    """fn(x + i y) for each line (x, y) of ``lines``, y an array of heights.

    A line reuses the values of an earlier line with the same real part x
    whose heights start with its own, so lines that coincide cost one
    call of fn on the longest of them.
    """
    done, out = [], []
    for x, y in lines:
        for x0, y0, v0 in done:
            if x0 == x and np.array_equal(y, y0[:len(y)]):
                out.append(v0[:len(y)])
                break
        else:
            done.append((x, y, fn(x + 1j * y)))
            out.append(done[-1][2])
    return out


def _onemass_grids(k: Kinematics, alpha: np.ndarray, beta: np.ndarray,
                   sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A(alpha), B(beta) and C(sigma) on three vertical lines, whose product
    at sigma = alpha + beta is the integrand over exp((eps - 2) ln(-t)) /
    Gamma(2 eps).  B and C each pair two of their three gamma factors by
    reflection.

    With Gamma(conj z) = conj Gamma(z), every gamma factor is read off a
    line at the heights Im alpha, Im beta or Im sigma themselves: ln
    Gamma(-alpha), ln Gamma(eps - 1 - beta) and ln Gamma(1 + sigma) off the
    lines at real parts -a0, eps - 1 - b0 and 1 + a0 + b0, and the two
    cosecants off 1 + b0 and eps - 1 - a0 - b0.  On the default pair (by
    exact equality with :func:`_onemass_abscissae`) the log-gamma lines are
    all the line at eps/3 and the cosecant lines the line at 2 eps/3, so
    lines whose heights start alike share one evaluation (see
    :func:`_shared_lines`).
    """
    e = k.eps
    a0, b0, s0 = alpha.real[0], beta.real[0], sigma.real[0]
    if (a0, b0) == _onemass_abscissae(e):
        third = -a0
        xa = xb = xs = third
        pb = ps = 2.0 * third
    else:
        xa, xb, xs = -a0, e - 1.0 - b0, 1.0 + s0
        pb, ps = 1.0 + b0, e - 1.0 - s0
    ya, yb, ys = alpha.imag, beta.imag, sigma.imag
    lg_s, lg_a, lg_b = _shared_lines(ln_gamma_grid, [(xs, ys), (xa, ya), (xb, yb)])
    csc_s, csc_b = _shared_lines(_pi_csc, [(ps, ys), (pb, yb)])
    a = np.exp(lg_a.conj() + alpha * math.log(-k.msq))
    # Gamma(-beta) Gamma(1+beta) and Gamma(2-eps+sigma) Gamma(eps-1-sigma)
    b = np.exp(lg_b.conj() + beta * math.log(-k.s)) * csc_b
    c = np.exp(lg_s - sigma * math.log(-k.t)) * csc_s.conj()
    return a, b, c


def _mirrored(upper: np.ndarray) -> np.ndarray:
    """The whole line of a grid with f(conj w) = conj f(w), from its upper
    half: upper[j] at Im w = j h becomes entry j of the result's Im >= 0 side."""
    return np.concatenate([upper[:0:-1].conj(), upper])


def _mb_onemass_sums(k: Kinematics, ca: ContourSpec, cb: ContourSpec
                     ) -> tuple[float, float, tuple[float, float]]:
    """Real parts of the doubled and coarse trapezoid sums of the double
    contour, then the doubled sum of |f| and the tail estimate.

    Three gamma factors depend on alpha + beta only, so on grids with one
    step h the double sum is sum_i B_i sum_j A_j C_{i+j}, with A in alpha
    (inner), B in beta (outer) and C on the grid of alpha + beta.  That is
    one correlation: O(n) gamma evaluations and an O(n log n) FFT.  A, B
    and C are conjugate-symmetric about Im 0, so they are built on their
    upper halves, at the heights j h, and mirrored; on the default pair
    that takes one log-gamma and one cosecant half-line of the sigma
    grid's length (see :func:`_onemass_grids`).  The tail estimate sums |f|
    at the top corner and at the top centre of both edges, all of them
    grid nodes.
    """
    u, factor = k.unit
    e = u.eps
    h = ca.step
    ya, yb = ca.upper_heights(), cb.upper_heights()
    up_a, up_b, up_c = _onemass_grids(u, ca.abscissa + 1j * ya, cb.abscissa + 1j * yb,
                                      (ca.abscissa + cb.abscissa)
                                      + 1j * h * np.arange(len(ya) + len(yb) - 1))
    a, b, c = _mirrored(up_a), _mirrored(up_b), _mirrored(up_c)
    corr, corr_abs = _correlate(np.stack([a, np.abs(a)]), np.stack([c, np.abs(c)]))
    scale = factor * math.exp((e - 2.0) * math.log(-u.t) - ln_gamma(2.0 * e).real) \
        / (4.0 * math.pi ** 2)
    weight = h * h * scale
    # the box is real in the Euclidean region: the imaginary parts are rounding
    fine = weight * float((b @ corr).real)
    coarse = 4.0 * weight * float((b[::2] @ _correlate(a[::2], c[::2])).real)
    abs_sum = weight * float(np.abs(b) @ corr_abs.real)
    # alpha and beta at the top of their lines or at Im 0
    ia, ib = len(a) - 1, len(b) - 1
    ja, jb = ca.nodes - 1, cb.nodes - 1
    tail = scale * float(abs(a[ia] * b[ib] * c[ia + ib]) + abs(a[ia] * b[jb] * c[ia + jb])
                         + abs(a[ja] * b[ib] * c[ja + ib]))
    return fine, coarse, (abs_sum, tail)


def mb_onemass_eval(k: Kinematics, ca: ContourSpec | None = None,
                    cb: ContourSpec | None = None) -> BoxValue:
    """One-mass box by the trapezoid rule on both contours (inner alpha, outer beta).

    The two lines are given together, and share one step, or not at all,
    and then the pair is :func:`select_contour_onemass`'s.  A node's
    integrand takes three log-gammas and two reflection pairs, and on that
    default pair the grids read them all off one log-gamma and one
    cosecant half-line of 2n - 1 points for n nodes a line (see
    :func:`_mb_onemass_sums`); other pairs take three and two such lines.
    The rounding term counts the seven gamma factors of the scalar
    integrand per node and h^2 sum |f| / 4 pi^2, and the delta is held to
    ``ONEMASS_DELTA_RTOL`` (see :func:`_contour_value`).
    """
    k.require_onemass()
    if (ca is None) != (cb is None):
        raise InfeasibleContour("give both contours or neither")
    if ca is None:
        ca, cb = select_contour_onemass(k)
    if not math.isclose(ca.step, cb.step, rel_tol=1e-12):
        raise InfeasibleContour(f"contour steps differ: {ca.step} and {cb.step}")
    fine, coarse, (abs_sum, tail) = _mb_onemass_sums(k, ca, cb)
    rounding = 7.0 * _LN_GAMMA_ERR * abs_sum
    return _contour_value((ca, cb), fine, coarse, tail, rounding, ONEMASS_DELTA_RTOL)


# ---------------------------------------------------------------------------
# residue resummation, massless
# ---------------------------------------------------------------------------

def residue_massless(k: Kinematics, cut: CutPrescription = PV) -> BoxValue:
    """Massless box reconstructed from the left-closure pole families.

    The simple-pole family resums into F(1, 1; 2-eps; -s/t); its
    continuation splits into half of the exact result plus an algebraic
    leftover.  The double poles are split by the auxiliary regulator delta
    into two simple families, each a product (1/delta) prod Gamma(a + sigma
    delta) x^delta; Gamma(-+delta) Gamma(1+-delta) = -+(1/delta)(1 + O(delta^2))
    leaves the pole sign.  Only the delta^-1 and delta^0 coefficients are
    needed: with P the signed product of the Gamma(a), they are P and
    P (sum sigma psi(a) + log x).  The pole coefficients must cancel between
    the families, and the finite leftovers against the continuation
    leftover.  Every Gamma factor is Gamma(eps), Gamma(1-eps), Gamma(2eps),
    or one of them moved by Gamma(x+1) = x Gamma(x).
    """
    k.require_massless()
    u, factor = k.unit
    e = u.eps
    s, t = u.s, u.t
    st = s * t
    ge, g1me, ratio = _gammas(e)
    g = ratio * ge * g1me  # Gamma(e)^2 Gamma(1-e) / Gamma(2e)

    # simple-pole family: Gamma(e)^2 Gamma(1-e)^2 / (Gamma(2e) Gamma(2-e)) (-t)^(e-2)
    # F(1,1;2-e;-s/t), with Gamma(2-e) = (1-e) Gamma(1-e), split by the continuation
    c1 = g / (1.0 - e) * (-t) ** (e - 2.0) * factor
    hyp_piece, alg_piece = f21_11_split(t / s, e, cut)
    i1 = c1 * (hyp_piece + alg_piece)
    spur_1 = c1 * alg_piece

    # shared real factors of the double-pole sector
    kernel = factor / st * (1.0 + s / t) ** (-e)

    # shifted simple poles, Gamma(e)/Gamma(2e) times -(1/d) Gamma(e+d) Gamma(1-e-d)
    # (s/t)^d: the whole finite part is a continuation artifact
    pref_a = ratio * kernel
    pole_a = -ge * g1me
    i2a = pole_a * (digamma(e) - digamma(1.0 - e) + math.log(s / t)) * pref_a

    # unshifted simple poles: the exact half, -Gamma(e)^2 Gamma(-e) / Gamma(2e) with
    # Gamma(-e) = -Gamma(1-e)/e, plus the pole/log leftover (1/d) (-s/t)^d
    pref_b = g * kernel
    exact = g / e / st * f21_1e(1.0 + s / t, e, cut) * factor
    spur_2b = cut_log(-s / t, cut) * pref_b
    i2b = exact + spur_2b

    return BoxValue(i1 + i2a + i2b, "residue", {
        "I1": i1,
        "I2a": i2a,
        "I2b": i2b,
        "spurious_sum": spur_1 + i2a + spur_2b,
        "spurious_terms": {
            "I1_algebraic": spur_1,
            "I2a_finite": i2a,
            "I2b_pole_log": spur_2b,
        },
        "delta_pole_coefficient": complex(pole_a * pref_a + pref_b),
    })


# ---------------------------------------------------------------------------
# residue resummation, one-mass
# ---------------------------------------------------------------------------

def residue_onemass(k: Kinematics, cut: CutPrescription = PV) -> BoxValue:
    """One-mass box reconstructed from the two-variable pole families.

    The three right-closure families resum into single-variable
    hypergeometric functions; two of them leave algebraic continuation
    leftovers that must cancel in the sum.  Every pole family is simple, and
    the Gamma factors are built as in :func:`residue_massless`.
    """
    k.require_onemass()
    u, factor = k.unit
    e = u.eps
    s, t, m2 = u.s, u.t, u.msq
    st = s * t

    ge, g1me, ratio = _gammas(e)
    g = ratio * ge * g1me  # Gamma(e)^2 Gamma(1-e) / Gamma(2e)

    # first family: Gamma(e) Gamma(1-e) / Gamma(2e) times the beta-contour integral's
    # two closure sub-families, Gamma(e)/(1-e) [tail - F(1,1;2-e;x1)], where F = head + tail
    # is the connection of f21_11_split at t/s = -1/x1 = (t - m2)/s: minus the head remains
    pref_1 = factor * (-t) ** e / (t * (m2 - t)) * (ratio * g1me)
    im1 = -pref_1 * ge / (1.0 - e) * f21_11_split((t - m2) / s, e, cut)[0]

    # second family: reduced two-variable function, then continued, with prefactor
    # Gamma(e) Gamma(1-e) Gamma(e-1) / Gamma(2e), Gamma(e-1) = Gamma(e)/(e-1)
    z2a = st / ((m2 - s) * (m2 - t))
    coef_2a = -factor * (-m2) ** e / ((m2 - t) * (m2 - s)) * (g / (e - 1.0))
    im2a = coef_2a * f21_11(z2a, e, cut)
    spur_2a = coef_2a * _f21_11_tail(e, z2a, cut)

    # third family, with prefactor Gamma(e)^2 Gamma(1-e) / Gamma(2e) / (1-e)
    z2b = t / (m2 - s)
    coef_2b = -factor / (s * (m2 - s)) * g / (1.0 - e)
    im2b = coef_2b * f21_11(z2b, e, cut)
    spur_2b = coef_2b * _f21_11_tail(e, z2b, cut)

    return BoxValue(im1 + im2a + im2b, "residue", {
        "Im1": im1,
        "Im2a": im2a,
        "Im2b": im2b,
        "spurious_sum": spur_2a + spur_2b,
        "spurious_terms": {
            "Im2a_algebraic": spur_2a,
            "Im2b_algebraic": spur_2b,
        },
        "delta_pole_coefficient": 0j,
    })
