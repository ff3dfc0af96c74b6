"""Mellin-Barnes pipelines for the box integrals.

Two independent routes live here:

* direct numerical quadrature of the contour representations (one contour
  variable for the massless box, an iterated pair for the one-mass box),
  by one trapezoid rule on vertical lines chosen to separate the left and
  right pole families;
* reconstruction from the resummed residue families, with the auxiliary
  regulator that splits the massless double poles handled as a truncated
  Laurent series (never as a floating number), and the spurious
  continuation leftovers tracked explicitly so their cancellation can be
  verified.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .closed_form import BoxValue, Kinematics
from .errors import InfeasibleContour, NotConverged, PoleError
from .series import Regulator, gamma_series, power_series
from .specfun import (
    PV,
    CutPrescription,
    cut_power,
    f21_1e,
    f21_11,
    f21_11_split,
    gamma,
    ln_gamma,
    ln_gamma_grid,
    _flip,
)

__all__ = [
    "ContourSpec",
    "EvalBreakdown",
    "select_contour_massless",
    "select_contour_onemass",
    "mb_massless_integrand",
    "mb_massless_eval",
    "mb_onemass_integrand",
    "mb_onemass_eval",
    "residue_massless",
    "residue_onemass",
    "right_closure_term",
    "residue_sum_right_closure",
    "circle_residue",
]

DELTA = Regulator.DELTA


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

    def fine_heights(self) -> np.ndarray:
        """Im w on the doubled rule; its even entries are the coarse nodes."""
        if self.nodes > MAX_NODES:
            raise NotConverged(f"{self.nodes} coarse nodes exceed the cap of {MAX_NODES}")
        return -self.height + self.step * np.arange(2 * self.nodes - 1)


@dataclass(frozen=True)
class EvalBreakdown:
    """Residue-route value split into its named pieces.

    ``pieces`` carries the resummed contributions plus ``spurious_sum`` and
    ``total``; ``spurious_terms`` lists the individual continuation
    leftovers that are summed into ``spurious_sum``; the auxiliary-regulator
    pole coefficient must cancel between the pieces that carry it.
    """

    pieces: dict
    delta_pole_coefficient: complex
    spurious_terms: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# contour selection
# ---------------------------------------------------------------------------

def abscissa_is_feasible(c: float, eps: float) -> bool:
    """True when the line at c separates the massless integrand's left
    poles (-1, -2, ... and eps - 2, ...) from its right ones (0, 1, ...
    and eps - 1, eps, ...)."""
    return -1.0 < c < eps - 1.0


def _fine_step(d: float, decay: float, spread: float) -> float:
    """Trapezoid step whose error is about exp(-decay) at pole distance d.

    The rule's error falls like exp(-2 pi d / h) for an integrand analytic
    in the strip |Re(w - c)| < d (Trefethen & Weideman, SIAM Review 56,
    2014).  The kinematic phase exp(i y L) grows to exp(d L) at the strip's
    edge; ``spread`` is that L.
    """
    return 2.0 * math.pi * d / (decay + d * spread)


def select_contour_massless(eps: float, k: Kinematics | None = None) -> ContourSpec:
    """Vertical line splitting the pole families of the massless integrand.

    The abscissa sits midway between the innermost left pole (-1) and the
    innermost right pole (eps - 1).  The step is set for a pole at eps/6,
    a third of this line's distance, so that lines shifted toward a pole
    keep converging on the same nodes.  The integrand decays like
    exp(-3 pi |Im w|), so the tail beyond height 6 is below 1e-24.
    """
    if not (0.0 < eps < 1.0):
        raise InfeasibleContour(f"eps={eps} outside (0, 1)")
    c = -1.0 + eps / 2.0
    spread = abs(math.log(k.s / k.t)) if k is not None else 0.0
    return ContourSpec.from_step(c, 6.0, _fine_step(eps / 6.0, 60.0, spread))


def select_contour_onemass(eps: float, k: Kinematics | None = None
                           ) -> tuple[ContourSpec, ContourSpec]:
    """Feasible pair of vertical lines for the iterated two-variable representation.

    All seven gamma-factor arguments must keep a positive real part on the
    contours: with b0 = -1 + eps/2 the inner abscissa is the midpoint of
    the interval allowed for a0, clipped below zero.  Both lines share one
    step, set by the smallest of those arguments, the distance to the
    nearest pole.
    """
    if not (0.0 < eps < 1.0):
        raise InfeasibleContour(f"eps={eps} outside (0, 1)")
    b0 = -1.0 + eps / 2.0
    lo = max(eps - 2.0, -1.0) - b0
    hi = min(eps - 1.0 - b0, 0.0)
    if not lo < hi:
        raise InfeasibleContour(f"empty abscissa interval for eps={eps}")
    a0 = 0.5 * (lo + hi)
    args = (-a0, -b0, 2.0 - eps + a0 + b0, eps - 1.0 - a0 - b0,
            1.0 + b0, eps - 1.0 - b0, 1.0 + a0 + b0)
    if min(args) <= 0.0:
        raise InfeasibleContour(f"gamma argument non-positive on contour: {args}")
    spread = 0.0
    if k is not None:
        spread = abs(math.log(k.s / k.t)) + abs(math.log(k.msq / k.t))
    step = _fine_step(min(args), 40.0, spread)
    return (ContourSpec.from_step(a0, 10.0, step), ContourSpec.from_step(b0, 10.0, step))


# ---------------------------------------------------------------------------
# contour quadrature
# ---------------------------------------------------------------------------

# Worst absolute error of a grid log-gamma on these contours, against
# mpmath.  A node's value carries it once per gamma factor, so the rounding
# of h sum f is at most that count times this times h sum |f|; the FFT
# correlation adds only about log2(length) * 2.2e-16 of the same sum.
_LN_GAMMA_ERR = 1e-14


def mb_massless_integrand(w, k: Kinematics):
    """Contour integrand of the massless box, including the 1/Gamma(2 eps) factor.

    Accepts a complex scalar or an ndarray of contour points.  Scalars are
    checked against the pole families; grids are assumed to sit on a
    feasible contour.
    """
    k.require_massless()
    e = k.eps
    ln_ms, ln_mt = math.log(-k.s), math.log(-k.t)
    lg2e = ln_gamma(2.0 * e).real
    if isinstance(w, np.ndarray):
        lg = ln_gamma_grid
        return np.exp(w * ln_mt - (2.0 - e + w) * ln_ms
                      + 2.0 * lg(w + 1.0) + lg(2.0 - e + w) + lg(-w)
                      + 2.0 * lg(e - 1.0 - w) - lg2e)
    w = complex(w)
    for arg in (w + 1.0, 2.0 - e + w, -w, e - 1.0 - w):
        if arg.imag == 0.0 and arg.real <= 0.0 and arg.real == math.floor(arg.real):
            raise PoleError(f"integrand pole at w={w}")
    return cmath.exp(w * ln_mt - (2.0 - e + w) * ln_ms
                     + 2.0 * ln_gamma(w + 1.0) + ln_gamma(2.0 - e + w)
                     + ln_gamma(-w) + 2.0 * ln_gamma(e - 1.0 - w) - lg2e)


def mb_massless_eval(k: Kinematics, spec: ContourSpec | None = None) -> BoxValue:
    """Massless box by the trapezoid rule along a truncated vertical line.

    The value is the doubled rule; the coarse rule is its even nodes.  The
    error estimate adds the doubling delta, the truncation tail and the
    rounding of the sum: the error of each node's six gamma factors times
    h sum |f| / 2 pi.  The evaluation fails with :class:`NotConverged`
    when the doubling delta exceeds ``MASSLESS_DELTA_RTOL`` relative to the
    value.
    """
    k.require_massless()
    if spec is None:
        spec = select_contour_massless(k.eps, k)
    if not abscissa_is_feasible(spec.abscissa, k.eps):
        raise InfeasibleContour(f"abscissa {spec.abscissa} infeasible for eps={k.eps}")
    f = mb_massless_integrand(spec.abscissa + 1j * spec.fine_heights(), k)
    weight = spec.step / (2.0 * math.pi)
    fine = weight * complex(np.sum(f))
    coarse = 2.0 * weight * complex(np.sum(f[::2]))
    delta = abs(fine - coarse)
    # beyond the ends the integrand decays like exp(-3 pi |Im w|)
    tail = (abs(f[0]) + abs(f[-1])) / (2.0 * math.pi * 3.0 * math.pi)
    rounding = 6.0 * _LN_GAMMA_ERR * weight * float(np.sum(np.abs(f)))
    scale = max(abs(fine), 1e-300)
    if delta > MASSLESS_DELTA_RTOL * scale:
        raise NotConverged(f"node-doubling delta {delta:.3e} above "
                           f"{MASSLESS_DELTA_RTOL:.1e} * |value|")
    return BoxValue(fine, "mb", {
        "nodes": spec.nodes,
        "height": spec.height,
        "abscissa": spec.abscissa,
        "step": spec.step,
        "tail_estimate": tail,
        "node_doubling_delta": delta,
        "rounding_estimate": rounding,
        "error_estimate": delta + tail + rounding,
    })


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


def _mb_onemass_sums(k: Kinematics, ca: ContourSpec,
                     cb: ContourSpec) -> tuple[complex, complex, float]:
    """Doubled and coarse trapezoid sums of the double contour, and the
    doubled sum of |f|.

    Three gamma factors depend on alpha + beta only, so on grids with one
    step h the double sum is sum_i B_i sum_j A_j C_{i+j}, with A in alpha
    (inner), B in beta (outer) and C on the grid of alpha + beta.  That is
    one correlation: O(n) gamma evaluations and an O(n log n) FFT.
    """
    e = k.eps
    ln_ms, ln_mt, ln_mm = math.log(-k.s), math.log(-k.t), math.log(-k.msq)
    h = ca.step
    ya, yb = ca.fine_heights(), cb.fine_heights()
    alpha = ca.abscissa + 1j * ya
    beta = cb.abscissa + 1j * yb
    sigma = (ca.abscissa + cb.abscissa) + 1j * (
        h * np.arange(len(ya) + len(yb) - 1) - (ca.height + cb.height))
    lg = ln_gamma_grid
    a = np.exp(lg(-alpha) + alpha * ln_mm)
    b = np.exp(lg(-beta) + lg(1.0 + beta) + lg(e - 1.0 - beta) + beta * ln_ms)
    c = np.exp(lg(2.0 - e + sigma) + lg(e - 1.0 - sigma) + lg(1.0 + sigma)
               - sigma * ln_mt)
    corr, corr_abs = _correlate(np.stack([a, np.abs(a)]), np.stack([c, np.abs(c)]))
    weight = h * h * math.exp((e - 2.0) * ln_mt - ln_gamma(2.0 * e).real) \
        / (4.0 * math.pi ** 2)
    fine = weight * complex(b @ corr)
    coarse = 4.0 * weight * complex(b[::2] @ _correlate(a[::2], c[::2]))
    abs_sum = weight * float(np.abs(b) @ corr_abs.real)
    return fine, coarse, abs_sum


def mb_onemass_eval(k: Kinematics, ca: ContourSpec | None = None,
                    cb: ContourSpec | None = None) -> BoxValue:
    """One-mass box by the trapezoid rule on both contours (inner alpha, outer beta).

    The two lines must share one step.  Diagnostics as for
    :func:`mb_massless_eval`; the rounding term counts seven gamma factors
    per node and h^2 sum |f| / 4 pi^2, and the delta is held to
    ``ONEMASS_DELTA_RTOL``.
    """
    k.require_onemass()
    if ca is None or cb is None:
        ca0, cb0 = select_contour_onemass(k.eps, k)
        ca = ca or ca0
        cb = cb or cb0
    if not math.isclose(ca.step, cb.step, rel_tol=1e-12):
        raise InfeasibleContour(f"contour steps differ: {ca.step} and {cb.step}")
    fine, coarse, abs_sum = _mb_onemass_sums(k, ca, cb)
    delta = abs(fine - coarse)
    corner = abs(mb_onemass_integrand(ca.abscissa + 1j * ca.height,
                                      cb.abscissa + 1j * cb.height, k))
    edge_a = abs(mb_onemass_integrand(ca.abscissa + 1j * ca.height, cb.abscissa, k))
    edge_b = abs(mb_onemass_integrand(ca.abscissa, cb.abscissa + 1j * cb.height, k))
    tail = (corner + edge_a + edge_b) / (4.0 * math.pi ** 2)
    rounding = 7.0 * _LN_GAMMA_ERR * abs_sum
    scale = max(abs(fine), 1e-300)
    if delta > ONEMASS_DELTA_RTOL * scale:
        raise NotConverged(f"node-doubling delta {delta:.3e} above "
                           f"{ONEMASS_DELTA_RTOL:.1e} * |value|")
    return BoxValue(fine, "mb", {
        "nodes": (ca.nodes, cb.nodes),
        "height": (ca.height, cb.height),
        "abscissa": (ca.abscissa, cb.abscissa),
        "step": ca.step,
        "tail_estimate": tail,
        "node_doubling_delta": delta,
        "rounding_estimate": rounding,
        "error_estimate": delta + tail + rounding,
    })


# ---------------------------------------------------------------------------
# residue resummation, massless
# ---------------------------------------------------------------------------

def _gamma_product(*terms) -> complex:
    """Product of gamma factors: terms are (power, argument) pairs.

    Assembled in value space so real arguments give an exactly real
    result; the powers involved here are small integers, far from any
    overflow at the regulator values in (0, 1).
    """
    acc = 1.0 + 0.0j
    for power, arg in terms:
        acc *= gamma(arg) ** power
    return acc


def residue_massless(k: Kinematics, cut: CutPrescription = PV) -> EvalBreakdown:
    """Massless box reconstructed from the left-closure pole families.

    The simple-pole family resums into F(1, 1; 2-eps; -s/t); its
    continuation splits into half of the exact result plus an algebraic
    leftover.  The double poles are split by the auxiliary regulator into
    two simple families whose resummed values are assembled as truncated
    Laurent series; their pole parts must cancel, and the finite leftovers
    must cancel against the continuation leftover.
    """
    k.require_massless()
    e = k.eps
    s, t = k.s, k.t
    st = s * t

    # simple-pole family: C1 * F(1,1;2-e;-s/t), split by the continuation
    c1 = _gamma_product((2.0, e), (2.0, 1.0 - e), (-1.0, 2.0 * e), (-1.0, 2.0 - e)) \
        * (-t) ** (e - 2.0)
    hyp_piece, alg_piece = f21_11_split(t / s, e, cut)
    i1 = c1 * (hyp_piece + alg_piece)
    spur_1 = c1 * alg_piece

    # shared real factors of the double-pole sector
    kernel = (-s) ** e / st * (1.0 + s / t) ** (-e)
    g2e = _gamma_product((2.0, e), (-1.0, 2.0 * e))

    # shifted simple poles: the whole finite part is a continuation artifact
    s_a = (gamma_series(0.0, 2, DELTA).scaled_arg(-1)      # Gamma(-d)
           * gamma_series(1.0, 2, DELTA)                   # Gamma(1+d)
           * gamma_series(e, 2, DELTA)                     # Gamma(e+d)
           * gamma_series(1.0 - e, 2, DELTA).scaled_arg(-1)  # Gamma(1-e-d)
           * power_series(s / t, 2, DELTA))                # (s/t)^d
    i2a_series = s_a * (g2e / math.exp(ln_gamma(e).real) * kernel)

    # unshifted simple poles: exact half plus the pole/log leftover
    exact_coef = -(gamma_series(1.0, 2, DELTA)                    # Gamma(1+d)
                   * gamma_series(e, 2, DELTA).scaled_arg(-1)     # Gamma(e-d)
                   ) * (_gamma_product((1.0, e), (1.0, -e), (-1.0, 2.0 * e)) / st)
    f_exact = f21_1e(1.0 + s / t, e, cut) * (-s) ** e
    spur_coef = (gamma_series(0.0, 2, DELTA)                      # Gamma(d)
                 * gamma_series(1.0, 2, DELTA).scaled_arg(-1)     # Gamma(1-d)
                 * power_series(-s / t, 2, DELTA, cut))           # (-s/t)^d
    s_spur_b = spur_coef * (g2e * math.exp(ln_gamma(1.0 - e).real) * kernel)
    i2b_series = exact_coef * f_exact + s_spur_b

    i2a = i2a_series.coeff(0)
    i2b = i2b_series.coeff(0)
    spur_2a = i2a
    spur_2b = s_spur_b.coeff(0)
    delta_pole = i2a_series.coeff(-1) + i2b_series.coeff(-1)
    spurious_sum = spur_1 + spur_2a + spur_2b
    total = i1 + i2a + i2b
    return EvalBreakdown(
        pieces={
            "I1": i1,
            "I2a": i2a,
            "I2b": i2b,
            "spurious_sum": spurious_sum,
            "total": total,
        },
        delta_pole_coefficient=delta_pole,
        spurious_terms={
            "I1_algebraic": spur_1,
            "I2a_finite": spur_2a,
            "I2b_pole_log": spur_2b,
        },
    )


# ---------------------------------------------------------------------------
# residue resummation, one-mass
# ---------------------------------------------------------------------------

def _power_pair(z: float, a: float, b: float, cut: CutPrescription) -> complex:
    """z**a * (1-z)**b with the coherent two-sided branch convention.

    The side of (1-z) is the mirror of the side of z, matching the
    continuation formulas used by the hypergeometric evaluators.
    """
    zp = cut_power(z, a, cut) if z < 0.0 else complex(z) ** a
    w = 1.0 - z
    wp = cut_power(w, b, _flip(cut)) if w < 0.0 else complex(w) ** b
    return zp * wp


def residue_onemass(k: Kinematics, cut: CutPrescription = PV) -> EvalBreakdown:
    """One-mass box reconstructed from the two-variable pole families.

    The three right-closure families resum into single-variable
    hypergeometric functions; two of them leave algebraic continuation
    leftovers that must cancel in the sum.  No auxiliary regulator is
    needed: every pole family here is simple.
    """
    k.require_onemass()
    e = k.eps
    s, t, m2 = k.s, k.t, k.msq
    st = s * t
    q = s + t - m2

    # first family: the beta-contour integral resummed; its two closure
    # sub-families are evaluated separately, the algebraic parts cancel
    x1 = s / (m2 - t)
    pref_1 = (-t) ** e / (t * (m2 - t)) * _gamma_product((1.0, e), (1.0, 1.0 - e),
                                                        (-1.0, 2.0 * e))
    tilde_a = -math.exp(ln_gamma(e).real) / (1.0 - e) * f21_11(x1, e, cut)
    tilde_b = _gamma_product((2.0, e), (1.0, 1.0 - e)) * _power_pair(x1, e - 1.0, -e, cut)
    im1 = pref_1 * (tilde_a + tilde_b)

    # second family: reduced two-variable function, then continued
    z2a = st / ((m2 - s) * (m2 - t))
    coef_2a = -(-m2) ** e / ((m2 - t) * (m2 - s)) \
        * _gamma_product((1.0, e), (1.0, 1.0 - e), (1.0, e - 1.0), (-1.0, 2.0 * e))
    im2a = coef_2a * f21_11(z2a, e, cut)
    spur_2a = coef_2a * _gamma_product((1.0, 2.0 - e), (1.0, e)) \
        * _power_pair(z2a, e - 1.0, -e, cut)

    # third family
    z2b = t / (m2 - s)
    coef_2b = -(-s) ** e / (s * (m2 - s)) \
        * _gamma_product((2.0, e), (1.0, 1.0 - e), (-1.0, 2.0 * e)) / (1.0 - e)
    im2b = coef_2b * f21_11(z2b, e, cut)
    spur_2b = coef_2b * _gamma_product((1.0, 2.0 - e), (1.0, e)) \
        * _power_pair(z2b, e - 1.0, -e, cut)

    spurious_sum = spur_2a + spur_2b
    total = im1 + im2a + im2b
    return EvalBreakdown(
        pieces={
            "Im1": im1,
            "Im2a": im2a,
            "Im2b": im2b,
            "spurious_sum": spurious_sum,
            "total": total,
        },
        delta_pole_coefficient=0j,
        spurious_terms={
            "Im2a_algebraic": spur_2a,
            "Im2b_algebraic": spur_2b,
        },
    )


# ---------------------------------------------------------------------------
# term-by-term closure (debug oracle)
# ---------------------------------------------------------------------------

def circle_residue(f, w0: complex, radius: float, nodes: int = 64) -> complex:
    """Residue of f at w0 by trapezoidal quadrature on a small circle."""
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    ring = np.exp(1j * theta)
    pts = w0 + radius * ring
    vals = np.array([f(p) for p in pts])
    return complex(np.mean(vals * ring)) * radius


def right_closure_term(k: Kinematics, n: int) -> complex:
    """n-th contribution of the single-pole right family, in closed form.

    Closing the contour to the right picks up minus the residues; this
    returns the contribution (minus the residue) at w = n.
    """
    e = k.eps
    sign = 1.0 if n % 2 == 0 else -1.0
    rest = cmath.exp(
        n * math.log(-k.t) - (2.0 - e + n) * math.log(-k.s)
        + 2.0 * ln_gamma(n + 1.0) + ln_gamma(2.0 - e + n)
        + 2.0 * ln_gamma(e - 1.0 - n) - ln_gamma(2.0 * e).real)
    return sign / math.factorial(n) * rest


def residue_sum_right_closure(k: Kinematics, n_terms: int = 40,
                              tail_rtol: float = 1e-10) -> complex:
    """Massless box by brute-force right closure: term-by-term residues.

    Valid for |t| < |s| where the raw residue series converges.  Simple
    poles contribute their closed-form terms; the double poles are
    extracted numerically by contour-shrink (circle quadrature).  A
    geometric tail bound certifies truncation.
    """
    k.require_massless()
    e = k.eps
    ratio = abs(k.t / k.s)
    if ratio >= 1.0:
        raise NotConverged("right closure requires |t| < |s|")
    f = lambda w: mb_massless_integrand(w, k)
    radius = 0.35 * min(e, 1.0 - e)
    total = 0j
    last = 0.0
    for n in range(n_terms):
        term_simple = right_closure_term(k, n)
        term_double = -circle_residue(f, e - 1.0 + n, radius)
        total += term_simple + term_double
        last = abs(term_simple) + abs(term_double)
        if last < tail_rtol * abs(total) * (1.0 - ratio) and n > 4:
            return total
    tail_bound = last * ratio / (1.0 - ratio)
    if tail_bound > tail_rtol * abs(total):
        raise NotConverged(f"right-closure tail bound {tail_bound:.2e} too large")
    return total
