"""Mellin-Barnes pipelines for the box integrals.

Two independent routes live here:

* direct numerical quadrature of the contour representations (one contour
  variable for the massless box, an iterated pair for the one-mass box),
  by one trapezoid rule on vertical lines of fixed height whose state is
  one coarse node count: the first from the line's pole gap (see
  :func:`_first_nodes`), then 2n - 1 while the node-doubling delta asks.
  The one-mass pair separates the left and right pole families and
  shares one node count.  The massless box has two self-conjugate lines,
  one on each side of the right double pole at eps - 1: the crossed line
  at (eps - 1)/2, whose value is the line integral minus that pole's
  residue (the default for eps < 1/2), and the uncrossed line at
  -1 + eps/2 (the default from 1/2 on); each checks the other;
* reconstruction from the resummed residue families.  An auxiliary
  regulator delta splits the massless double poles; the delta^-1 and
  delta^0 coefficients of the split families are read off Gamma and psi
  (never a floating delta), and the spurious continuation leftovers are
  tracked explicitly so their cancellation can be verified.

Every route returns a :class:`~mbbox.closed_form.BoxValue`.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_form import BoxValue, Kinematics, _gammas
from .errors import NotConverged
from .specfun import (
    EULER_GAMMA,
    cut_log,
    digamma,
    f21_1e,
    f21_11,
    f21_11_split,
    gamma_abs2_line,
    ln_gamma_line,
    _f21_11_tail,
)

__all__ = [
    "mb_massless_eval",
    "mb_onemass_eval",
    "residue_massless",
    "residue_onemass",
]

# Most coarse nodes one contour may carry, checked before any node array is
# built: eps -> 0 raises NotConverged instead of allocating millions of nodes.
MAX_NODES = 1 << 17

# Largest node-doubling delta, relative to the value, that each contour
# route accepts; above it the route halves its step, up to MAX_NODES.
MASSLESS_DELTA_RTOL = 1e-9
ONEMASS_DELTA_RTOL = 1e-5

# Top of each route's lines, Im w in [-height, height].  The massless
# integrand decays like exp(-3 pi |Im w|), so its tail beyond 6 is below
# 1e-24; along the one-mass alpha, beta and alpha = -beta four or six gamma
# factors fall, so beyond 7 |f| is below exp(-2 pi 7) = e^-44 of its peak.
MASSLESS_HEIGHT = 6.0
ONEMASS_HEIGHT = 7.0


def _within_cap(nodes: int) -> int:
    """``nodes``, which :class:`NotConverged` refuses above ``MAX_NODES``."""
    if nodes > MAX_NODES:
        raise NotConverged(f"{nodes} coarse nodes exceed the cap of {MAX_NODES}")
    return nodes


# ---------------------------------------------------------------------------
# contour selection
# ---------------------------------------------------------------------------

def _first_nodes(height: float, d: float, decay: float, spread: float) -> int:
    """Coarse nodes of a line up to ``height`` whose doubled rule's step,
    height / (nodes - 1), is at most 2 pi d / (decay + d spread): its error
    is about exp(-decay) at pole distance d.

    The rule's error falls like exp(-2 pi d / h) for an integrand analytic
    in the strip |Re(w - c)| < d (Trefethen & Weideman, SIAM Review 56,
    2014).  The kinematic phase exp(i y L) grows to exp(d L) at the strip's
    edge; ``spread`` is that L.  A spread that overflows, such as msq/t
    past the double range, gives a step of 0, which no node count refines
    and which raises :class:`NotConverged`.
    """
    step = 2.0 * math.pi * d / (decay + d * spread)
    if not step > 0.0:
        raise NotConverged(f"need a positive step, got step={step}")
    return math.ceil(height / step) + 1


def _massless_gap(eps: float, crossed: bool) -> float:
    """Pole distance d of a massless line: (1 - eps)/2 on the crossed line
    at -d = (eps - 1)/2, eps/2 on the uncrossed one at -1 + d = -1 + eps/2.

    The double pole at eps - 1 splits the strip between the poles at -1
    and 0 into two bands, (-1, eps - 1) and (eps - 1, 0), and each line is
    its band's midline, d from both edges: the crossed line right of
    eps - 1, the uncrossed one left of it.
    """
    return (1.0 - eps) / 2.0 if crossed else eps / 2.0


def _onemass_abscissae(eps: float) -> tuple[float, float]:
    """(a0, b0) = (-eps/3, -1 + 2 eps/3), the pair whose smallest pole gap is largest.

    The seven gamma-factor arguments keep a positive real part on the
    contours.  Three of them, -a0, 1 + a0 + b0 and eps - 1 - b0, sum to
    eps, so the smallest is at most eps/3, and this pair makes all three
    eps/3; the other four are 2 eps/3 or 1 - 2 eps/3.  On this pair the
    three log-gamma lines coincide, and so do the two cosecant lines (see
    :func:`_onemass_grids`).
    """
    third = eps / 3.0
    return -third, -1.0 + 2.0 * third


# ---------------------------------------------------------------------------
# contour quadrature
# ---------------------------------------------------------------------------

# Worst absolute error of a log-gamma on the one-mass lines against mpmath:
# ln|Gamma| plus arg Gamma of specfun.ln_gamma_line is within 4.1e-15 for
# |Im| <= 3 (past that |f| is below about e^-19 of its peak) and 1.5e-14 up to
# 14, twice the sigma line's top; :func:`_pi_csc_line` within 1.3e-15 and 7.6e-15.
# The estimate counts it once per gamma factor of the integrand, seven
# a node, for three log-gammas and two cosecants: the rounding of h^2 sum f is
# at most that times h^2 sum |f|; the spectra add about log2(N) * 2.2e-16 of
# it, for the FFT length N, about 3n for n nodes a line.
_LN_GAMMA_ERR = 1e-14

# The rounding of a massless point on either line (see :func:`_line_nodes`):
# _MASSLESS_ULPS of the line integral's size plus the crossed residue's
# size, for what every node shares (K, the unit scaling) and the residue,
# and _MASSLESS_NODE_ULPS of h sum |f| / 2 pi, for each node's own rounding,
# which mostly cancels across the nodes.  Measured against mpmath at 40
# digits on 4000 seeded points (tools/mb_accuracy.py's sampler) on both
# lines: the sum is at least 1.17 times every error.
_MASSLESS_ULPS = 12.0
_MASSLESS_NODE_ULPS = 4.0


def _mirror_sum(x: np.ndarray, first: int = 0, stride: int = 1) -> float:
    """Whole-line sum of a quantity even in Im w, from its entries
    x[first::stride] on the upper half, where x[j] sits at Im w = j h."""
    total = 2.0 * float(np.sum(x[first::stride]))
    return total - float(x[0]) if first == 0 else total


def _contour_value(step: float, fine: complex, coarse: complex, tail: float,
                   rounding: float, **fields) -> BoxValue:
    """The last pass's doubled rule of step ``step`` as an ``mb`` BoxValue
    with its diagnostics.

    The routes refine until the node-doubling delta is within their
    tolerance of the value or the value is not finite, so the delta is not
    checked here.  Halving the step squares the rule's relative error, so
    the error estimate adds delta^2 / |value|, the truncation tail and the
    rounding of the sum.  ``fields`` lead the diagnostics in their order:
    ``nodes``, ``height`` and ``abscissa`` of the one massless line, or as
    (inner, outer) pairs of the one-mass lines, then ``passes``, 1 plus the
    number of times the step was halved, then the route's work counters.
    """
    delta = abs(fine - coarse)
    doubled = delta * (delta / abs(fine)) if delta else 0.0
    return BoxValue(complex(fine), "mb", {
        **fields,
        "step": step,
        "tail_estimate": tail,
        "node_doubling_delta": delta,
        "rounding_estimate": rounding,
        "error_estimate": doubled + tail + rounding,
    })


def _crossed_residue(u: Kinematics, factor: float) -> tuple[float, float]:
    """Residue of the massless integrand at its double pole w = eps - 1 at
    the unit point ``u`` times ``factor``, and the size its rounding is
    measured against.

    With w = eps - 1 + d, Gamma(-d)^2 = 1/d^2 + 2 gamma_E/d + O(1), so the
    residue is the rest of the integrand at the pole,
    (-t)^(eps-1) Gamma(eps)^2 Gamma(1-eps) / Gamma(2 eps) at s = -1, times
    2 gamma_E plus its logarithmic derivative there: the bracket
    2 psi(eps) - psi(1-eps) + gamma_E + ln(-t).  Every piece is taken so
    that it costs few ulps: the prefactor by ``pow`` and
    Gamma(eps) Gamma(1-eps) = pi / sin(pi eps) times Gamma(eps) / Gamma(2 eps)
    from :func:`closed_form._gammas`, not by the exponential of summed logs,
    which puts ln(-t) ulps on it; psi(eps) as psi(1 + eps) - 1/eps, not by
    the reflection, whose pi cot(pi eps) costs ulps of 1/eps.  The size is
    the prefactor times the bracket's terms in magnitude, since the bracket
    can cancel (on the crossed line from eps = 1/2 on).
    """
    e = u.eps
    ratio = _gammas(e)[2]
    # (-t)^eps / (-t), since the rounding of eps - 1 would cost ln(-t) ulps;
    # sin(pi eps) = sin(pi (1 - eps)), and 1 - eps is exact from eps = 1/2 on
    reflection = math.pi / math.sin(math.pi * min(e, 1.0 - e))
    prefactor = factor * (-u.t) ** e / -u.t * (reflection * ratio)
    terms = (-2.0 / e, 2.0 * digamma(1.0 + e).real, -digamma(1.0 - e).real, EULER_GAMMA,
             math.log(-u.t))
    return prefactor * math.fsum(terms), prefactor * sum(map(abs, terms))


def _pi_csc_abs2(d: float, y: np.ndarray) -> np.ndarray:
    """|pi / sin(pi (x + iy))|^2 = pi^2 / (sin^2 pi d + sinh^2 pi y) at heights y,
    on a line x = d or 1 - d.

    sin pi d, not sin pi x, which cancels as x -> 1.  sinh^2 pi y is
    (1 - q)^2 / 4q with q = exp(-2 pi |y|), so the value stays finite, and
    falls to 0, at any height.
    """
    arg = -2.0 * math.pi * np.abs(y)
    q = np.exp(arg)
    return 4.0 * math.pi ** 2 * q / (4.0 * math.sin(math.pi * d) ** 2 * q + np.expm1(arg) ** 2)


def _phase(k: Kinematics, step: float, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of y ln(t/s) at the heights y = j step, good to about an ulp.

    step ln(t/s) is taken in the long double (on platforms where that is a
    double, rounded) and split as top + rest, top cut to 35 bits so that
    j top is exact for |j| < 2^18 (see ``MAX_NODES``): the phase is
    exp(i j top) (1 + i j rest), and (j rest)^2 < 1e-17.  exp(i fl(y fl(ln(t/s))))
    is off by up to |y ln(t/s)| ulps, 1.6e-14 at |y| = 5, |t/s| = 1e8, and
    fl(ln(t/s))'s share is common to every node, so it does not cancel.
    Halving the step halves top and rest exactly, so a node keeps its phase
    when the step is halved.
    """
    per_step = np.longdouble(step) * np.log(np.longdouble(k.t) / np.longdouble(k.s))
    split = 262145.0 * float(per_step)  # 2^18 + 1
    top = split - (split - float(per_step))
    rest = float(per_step - np.longdouble(top)) * j
    cos, sin = np.cos(top * j), np.sin(top * j)
    return cos - rest * sin, sin + rest * cos


def _line_nodes(k: Kinematics, step: float, j: np.ndarray, crossed: bool
                ) -> tuple[np.ndarray, np.ndarray]:
    """(Re f, |f|) of the massless integrand f on one of its two lines at
    heights y = j step, in real arithmetic.

    The line is given by its pole distance d (see :func:`_massless_gap`),
    not by its rounded abscissa: eps/2 is exact, and so is (1 - eps)/2
    from eps = 1/2 on, where the crossed line nears its poles.  With
    w = c + iy, a = 1 + w = x + iy and b = eps - 1 - w, the reflection pairs
    Gamma(1 + w) Gamma(-w) and Gamma(2 - eps + w) Gamma(eps - 1 - w) are
    pi csc pi a and pi csc pi b, and the rest is Gamma(a) Gamma(b).  On the
    crossed line c = -d, x = 1 - d and b + 1 = conj a, so the product is
    -|Gamma(a)|^2 |pi csc pi a|^2 / b; on the uncrossed line c = d - 1,
    x = d and b = conj a, so it is |Gamma(a)|^2 |pi csc pi a|^2.  Either
    way sin^2 pi x = sin^2 pi d.  Hence f is the real modulus
    m = K |Gamma(x + iy)|^2 |pi csc pi(x + iy)|^2 times the phase
    e^(iy ln(t/s)) = cos + i sin (see :func:`_phase`), divided on the crossed
    line by d + iy: there Re f = m (d cos + y sin) / (d^2 + y^2) and
    |f| = m / |d + iy|.  K = (-t)^c (-s)^(eps-2-c) / Gamma(2 eps) is one
    scalar: (st)^-d / (-s) crossed and (st)^d / (st) uncrossed, since
    eps = 1 - 2d or 2d, taken by ``pow`` and ``math.gamma``.
    """
    e = k.eps
    d = _massless_gap(e, crossed)
    st = k.s * k.t
    x, scale = (1.0 - d, st ** -d / -k.s) if crossed else (d, st ** d / st)
    y = step * j
    size = scale / math.gamma(2.0 * e) * gamma_abs2_line(x, y) * _pi_csc_abs2(d, y)
    cos, sin = _phase(k, step, j)
    if not crossed:
        return size * cos, size
    pole = d * d + y * y
    return size * (d * cos + y * sin) / pole, size / np.sqrt(pole)


def mb_massless_eval(k: Kinematics, crossed: bool | None = None) -> BoxValue:
    """Massless box by the trapezoid rule along one of its two lines.

    ``crossed`` names the line: the crossed one at (eps - 1)/2 or the
    uncrossed one at -1 + eps/2 (see :func:`_massless_gap`); without it the
    line is that of the wider band, crossed for eps < 1/2, so the pole gap
    is at least 1/4 at every eps.  Anything but a bool, such as an
    abscissa, raises :class:`TypeError`.  Both lines are
    self-conjugate, so a node takes one |Gamma|^2 and one |csc|^2 in real
    arithmetic (see :func:`_line_nodes`).  In the Euclidean region
    f(conj w) = conj f(w), so the rule sums only the nodes with Im w >= 0:
    the node at Im w = 0 once, the others as twice their real part, and
    the value is real.
    The crossed line lies right of the double pole at eps - 1, and its
    value is the line integral minus the pole's residue (see
    :func:`_crossed_residue`); the box is symmetric in s and t, and on that
    line the integrand is taken with |t| <= |s|, which keeps the residue
    from swamping the box; then it is scaled (see :attr:`Kinematics.unit`).
    The value is the doubled rule; the coarse rule is its even nodes.  The
    first pass takes the node count for the line's true pole gap d and an
    exp(-60) target (see :func:`_first_nodes`); where the phase cancels the
    value far below h sum |f| (|t/s| near 1e+-8) that coarse rule misses
    ``MASSLESS_DELTA_RTOL``, and while the node-doubling delta is above it
    of the value, n nodes become 2n - 1: the doubled rule becomes the
    coarse one, and only the new nodes, halfway between the old ones, are
    evaluated, up to ``MAX_NODES``, past which it raises
    :class:`NotConverged`.  The rounding term is ``_MASSLESS_ULPS``'s.
    """
    k.require_massless()
    if crossed is None:
        crossed = k.eps < 0.5
    elif not isinstance(crossed, (bool, np.bool_)):
        raise TypeError(f"the massless line is crossed=True or crossed=False, "
                        f"got {crossed!r}")
    crossed = bool(crossed)
    gap = _massless_gap(k.eps, crossed)
    nodes = _first_nodes(MASSLESS_HEIGHT, gap, 60.0, abs(math.log(k.s / k.t)))
    if crossed and abs(k.t) > abs(k.s):
        k = Kinematics(s=k.t, t=k.s, eps=k.eps)
    u, factor = k.unit
    step = MASSLESS_HEIGHT / (nodes - 1)
    re, size = _line_nodes(u, step, np.arange(_within_cap(nodes)), crossed)
    # sums of the doubled rule's Re f and |f| over the whole line, in units of factor
    total, size_total = _mirror_sum(re), _mirror_sum(size)
    coarse_total = 2.0 * _mirror_sum(re, (nodes - 1) % 2, 2)
    # beyond both ends the integrand decays like exp(-3 pi |Im w|)
    tail = 2.0 * factor * size[-1] / (2.0 * math.pi * 3.0 * math.pi)
    residue, residue_size = _crossed_residue(u, factor) if crossed else (0.0, 0.0)
    weight = factor * step / (2.0 * math.pi)
    fine, coarse = weight * total - residue, weight * coarse_total - residue
    passes = 1
    # a value that is not finite ends it: no delta is above a multiple of it
    while abs(fine - coarse) > MASSLESS_DELTA_RTOL * abs(fine):
        nodes = 2 * nodes - 1
        step = MASSLESS_HEIGHT / (nodes - 1)
        re, size = _line_nodes(u, step, np.arange(1, _within_cap(nodes), 2), crossed)
        total += 2.0 * float(np.sum(re))
        size_total += 2.0 * float(np.sum(size))
        weight = factor * step / (2.0 * math.pi)
        fine, coarse = weight * total - residue, fine
        passes += 1
    rounding = 2.0 ** -53 * (_MASSLESS_ULPS * (abs(weight * total) + residue_size)
                             + _MASSLESS_NODE_ULPS * weight * size_total)
    return _contour_value(step, fine, coarse, tail, rounding, nodes=nodes,
                          height=MASSLESS_HEIGHT, abscissa=-gap if crossed else -1.0 + gap,
                          passes=passes)


def _pi_csc_line(u: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ln|pi csc pi(u + iy)|, arg pi csc pi(u + iy)) at heights y, 0 < u < 1.

    ln 2 pi - pi |y| - ln(4 sin^2(pi u) q + (1 - q)^2) / 2, q = exp(-2 pi |y|),
    is finite at any height (see :func:`_pi_csc_abs2`), and the phase is
    -atan2(cos pi u tanh pi y, sin pi u).
    """
    arg = -2.0 * math.pi * np.abs(y)
    sin, cos = math.sin(math.pi * u), math.cos(math.pi * u)
    modulus = (math.log(2.0 * math.pi) + 0.5 * arg
               - 0.5 * np.log(4.0 * sin * sin * np.exp(arg) + np.expm1(arg) ** 2))
    return modulus, -np.arctan2(cos * np.tanh(math.pi * y), sin)


def _onemass_grids(k: Kinematics, h: float, n: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A(alpha), B(beta) and C(sigma) of the default pair at the unit point,
    at the n heights j h >= 0 of each line: their product at
    sigma = alpha + beta is the integrand over (-msq)^a0
    (-t)^(eps - 2 - a0 - b0) / Gamma(2 eps), since (-s)^beta = 1.

    With Gamma(conj z) = conj Gamma(z), Gamma(-alpha), Gamma(eps - 1 - beta)
    and Gamma(1 + sigma) are read off the line at eps/3, and the reflection
    pairs Gamma(-beta) Gamma(1 + beta) = pi csc pi(1 + beta) and
    Gamma(2 - eps + sigma) Gamma(eps - 1 - sigma) = pi csc pi(eps - 1 - sigma)
    off the line at 2 eps/3, each grid as one exp(modulus + i phase).
    """
    third = k.eps / 3.0
    y = h * np.arange(n)
    ln_msq, ln_t = math.log(-k.msq), math.log(-k.t)
    lg, arg = ln_gamma_line(third, y)
    csc, csc_arg = _pi_csc_line(2.0 * third, y)
    modulus, phase = lg + csc, arg - csc_arg
    a = np.exp(lg + 1j * (y * ln_msq - arg))
    b = np.exp(modulus - 1j * phase)
    c = np.exp(modulus + 1j * (phase - y * ln_t))
    return a, b, c


def _fft_length(n: int) -> int:
    """Least even length >= n of the form 2^i, 3 2^i or 5 2^i, which numpy's
    FFT takes faster than the next power of two."""
    return min(m << max(1, (-(-n // m) - 1).bit_length()) for m in (1, 3, 5))


def _mb_onemass_sums(k: Kinematics, h: float, n: int
                     ) -> tuple[float, float, tuple[float, float, int]]:
    """Real parts of the doubled and coarse trapezoid sums of the double
    contour on n nodes of step h a line, then the doubled sum of |f|, the
    tail estimate and the FFT length.

    Three gamma factors depend on sigma = alpha + beta only, so on grids
    with one step h the double sum is sum A_p B_q C'_r over p + q + r = 0,
    with A in alpha (inner), B in beta (outer) and C'_r = C_{-r} = conj C_r
    in sigma: the mean over N frequencies, N too long to wrap around, of the
    product of the three spectra.  A, B and C are conjugate-symmetric about
    Im 0, so each spectrum is real, one ``hfft`` of its upper half (see
    :func:`_onemass_grids`).  The sum runs over the hexagon |alpha|, |beta|,
    |sigma| <= H: the corners of the square that it drops, alpha and beta of
    one sign with |sigma| > H, lie below e^(-5 pi H/2) of the peak, under
    the edge nodes that the tail counts.  The coarse rule keeps each line's
    nodes of its top node's parity, whose spectrum is (X_k + s X_{k+N/2})/2,
    s = +1 when they include Im 0 (n odd) and -1 when not; C's parity is
    the sum of A's and B's, even, so the coarse sum needs the first N/2
    frequencies.  |f| is smooth, so h^2 sum |f| is 4 times the sum over the
    even nodes, at length N/2.  The tail estimate sums |f| at the top
    centre of the alpha and beta edges and at the middle of the sigma edge,
    all of them grid nodes.
    """
    u, factor = k.unit
    e, third = u.eps, u.eps / 3.0
    a, b, c = _onemass_grids(u, h, _within_cap(n))
    top = n - 1
    length = _fft_length(3 * n - 2)
    # (-msq)^a0 (-t)^(eps - 2 - a0 - b0) = (-t)^eps / (-t) (msq t)^(-eps/3) by pow: an
    # exp of summed logs would put ulps of ln(-t) on every node alike
    kinematic = (-u.t) ** e / -u.t * (-u.msq) ** -third * (-u.t) ** -third
    scale = factor * kinematic / math.gamma(2.0 * e) / (4.0 * math.pi ** 2)
    weight = h * h * scale / length
    # the products cancel, so they are summed pairwise, by sum(): a dot
    # product's running sum cost 0.2 digits of the median at eps < 0.01
    spectra = np.array([np.fft.hfft(g, length) for g in (a, b, c.conj())])
    fine = weight * float(spectra.prod(axis=0).sum())
    sign = 1 if n % 2 else -1
    half = spectra[:, :length // 2] + np.array([[sign], [sign], [1]]) * spectra[:, length // 2:]
    coarse = weight * float(half.prod(axis=0).sum())
    even = np.array([np.fft.hfft(np.abs(g[::2]), length // 2) for g in (a, b, c)])
    abs_sum = 8.0 * weight * float(even.prod(axis=0).sum())
    # alpha at its top and beta at Im 0, the reverse, and sigma's top nearest (H/2, H/2)
    mid = top // 2
    tail = scale * float(abs(a[-1] * b[0] * c[top]) + abs(a[0] * b[-1] * c[top])
                         + abs(a[mid] * b[top - mid] * c[top]))
    return fine, coarse, (abs_sum, tail, length)


def mb_onemass_eval(k: Kinematics) -> BoxValue:
    """One-mass box by the trapezoid rule on both contours (inner alpha, outer beta).

    The lines are :func:`_onemass_abscissae`'s, with one step and one node
    count, the first for their pole gap of eps/3 and an exp(-40) target
    (see :func:`_first_nodes`).  The grids read every factor off one
    log-gamma and one cosecant half-line of n points (see
    :func:`_mb_onemass_sums`).  The rounding term counts the seven gamma
    factors of the integrand per node and h^2 sum |f| / 4 pi^2.
    While the node-doubling delta is above ``ONEMASS_DELTA_RTOL`` of the
    value, both lines go to 2n - 1 nodes and the sums are redone, up to
    ``MAX_NODES``, past which it raises :class:`NotConverged`.
    ``gamma_points`` sums the log-gamma lines' heights over the passes.
    """
    k.require_onemass()
    a0, b0 = _onemass_abscissae(k.eps)
    spread = abs(math.log(k.s / k.t)) + abs(math.log(k.msq / k.t))
    nodes = _first_nodes(ONEMASS_HEIGHT, -a0, 40.0, spread)
    passes = gamma_points = 0
    while True:
        step = ONEMASS_HEIGHT / (nodes - 1)
        fine, coarse, (abs_sum, tail, fft_length) = _mb_onemass_sums(k, step, nodes)
        passes += 1
        gamma_points += nodes
        # a value that is not finite ends it: no delta is above a multiple of it
        if not abs(fine - coarse) > ONEMASS_DELTA_RTOL * abs(fine):
            break
        nodes = 2 * nodes - 1
    rounding = 7.0 * _LN_GAMMA_ERR * abs_sum
    return _contour_value(step, fine, coarse, tail, rounding, nodes=(nodes, nodes),
                          height=(ONEMASS_HEIGHT, ONEMASS_HEIGHT), abscissa=(a0, b0),
                          passes=passes, gamma_points=gamma_points, fft_length=fft_length)


# ---------------------------------------------------------------------------
# residue resummation, massless
# ---------------------------------------------------------------------------

def residue_massless(k: Kinematics) -> BoxValue:
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
    hyp_piece, alg_piece = f21_11_split(t / s, e)
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
    exact = g / e / st * f21_1e(1.0 + s / t, e) * factor
    spur_2b = cut_log(-s / t) * pref_b
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

def residue_onemass(k: Kinematics) -> BoxValue:
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
    im1 = -pref_1 * ge / (1.0 - e) * f21_11_split((t - m2) / s, e)[0]

    # second family: reduced two-variable function, then continued, with prefactor
    # Gamma(e) Gamma(1-e) Gamma(e-1) / Gamma(2e), Gamma(e-1) = Gamma(e)/(e-1)
    z2a = st / ((m2 - s) * (m2 - t))
    coef_2a = -factor * (-m2) ** e / ((m2 - t) * (m2 - s)) * (g / (e - 1.0))
    im2a = coef_2a * f21_11(z2a, e)
    spur_2a = coef_2a * _f21_11_tail(e, z2a)

    # third family, with prefactor Gamma(e)^2 Gamma(1-e) / Gamma(2e) / (1-e)
    z2b = t / (m2 - s)
    coef_2b = -factor / (s * (m2 - s)) * g / (1.0 - e)
    im2b = coef_2b * f21_11(z2b, e)
    spur_2b = coef_2b * _f21_11_tail(e, z2b)

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
