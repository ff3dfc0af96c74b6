"""Special functions on the real axis used by the box-integral pipelines.

Everything here is a pure function of its arguments: log-gamma / gamma /
digamma, the dilogarithm, the Gauss hypergeometric family F(1, b; 1+b; x)
with its analytic continuations, F(1, 1; 2-eps; x) from it by one Pfaff
transformation, and the plain Gauss series.  One power-series loop sums
the dilogarithm and F(1, b; 1+b; x) near 0.  They take real arguments, in
real arithmetic; only the log-gamma kernels take complex ones.

Branch conventions, fixed globally:

* powers and logs are cut along the negative real axis, with
  ``(-x)**p = |x|**p * exp(+i*pi*p)`` for ``x > 0`` (the value continued
  from above the cut), as :func:`cut_power` and :func:`cut_log` give it;
* the dilogarithm and the hypergeometric evaluators are cut along
  ``[1, inf)``.  Their kernels give the principal value (the average of the
  two one-sided limits, real), and a :class:`CutPrescription` adds the jump
  in closed form: F(1, b; 1+b; x +- i0) = PV +- i pi b x^(-b) (DLMF
  15.2.3) and Li2(x +- i0) = PV +- i pi ln(x).
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

import numpy as np

from .errors import DomainError, NonConvergence, PoleError

__all__ = [
    "CutPrescription",
    "PV",
    "ABOVE",
    "BELOW",
    "ln_gamma",
    "ln_gamma_grid",
    "gamma_abs2_line",
    "ln_gamma_line",
    "gamma",
    "digamma",
    "polygamma",
    "li2",
    "f21_1e",
    "f21_2e",
    "f21_11",
    "f21_general_series",
    "f21_11_split",
    "cut_log",
    "cut_power",
]

SERIES_RTOL = 1e-16
SERIES_MAX_TERMS = 100_000

EULER_GAMMA = 0.5772156649015328606
PI = math.pi
LN_SQRT_2PI = 0.9189385332046727418


class CutPrescription(Enum):
    """Which boundary value to take on a branch cut."""

    PRINCIPAL_VALUE = "pv"
    ABOVE_CUT = "above"
    BELOW_CUT = "below"


PV = CutPrescription.PRINCIPAL_VALUE
ABOVE = CutPrescription.ABOVE_CUT
BELOW = CutPrescription.BELOW_CUT


def _require_finite(value, what="value"):
    v = complex(value)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise OverflowError(f"non-finite {what}: {v!r}")
    return v


def _argument(x, what: str) -> float:
    """float(x), refused at once when it is NaN, which no series can sum."""
    x = float(x)
    if math.isnan(x):
        raise NonConvergence(f"{what}={x!r} is not a number")
    return x


def _jump(cut: CutPrescription, size: float) -> float:
    """The imaginary part on a cut: +size above it, -size below it, 0 for the PV."""
    return size if cut is ABOVE else -size if cut is BELOW else 0.0


def _is_nonpositive_integer(z) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


# ---------------------------------------------------------------------------
# gamma family
# ---------------------------------------------------------------------------

# Lanczos log-gamma, g = 607/128, 15 coefficients (Godfrey's set): relative
# accuracy ~1e-14 on Re z >= 0.5; reflection extends it to the rest of the plane.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEF = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_TWO_PI_EXP_M2G = 4.777141898008946481e-4  # 2 pi exp(-2 g)


def _lanczos_ln_gamma(z):
    # valid for Re z >= 0.5 (scalar complex or ndarray)
    if isinstance(z, np.ndarray):
        log = np.log
    else:
        log = cmath.log
    w = z - 1.0
    s = _LANCZOS_COEF[0]
    for k in range(1, len(_LANCZOS_COEF)):
        s = s + _LANCZOS_COEF[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return LN_SQRT_2PI + (w + 0.5) * log(t) - t + log(s)


def _log_sin_pi(z: complex) -> complex:
    # log(sin(pi z)) stable for large |Im z|
    if abs(z.imag) < 8.0:
        return cmath.log(cmath.sin(PI * z))
    if z.imag > 0:
        # sin(pi z) = exp(-i pi z) (1 - exp(2 i pi z)) * i / 2
        return -1j * PI * z + cmath.log(1.0 - cmath.exp(2j * PI * z)) + 1j * PI / 2 - math.log(2.0)
    return 1j * PI * z + cmath.log(1.0 - cmath.exp(-2j * PI * z)) - 1j * PI / 2 - math.log(2.0)


def ln_gamma(z) -> complex:
    """Log-gamma, continuous on the cut plane, with exp(ln_gamma(z)) = Gamma(z).

    Real on the positive real axis.  Raises :class:`PoleError` at the
    non-positive integers.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z={z.real}")
    if z.real >= 0.5:
        out = _lanczos_ln_gamma(z)
    else:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        out = math.log(PI) - _log_sin_pi(z) - _lanczos_ln_gamma(1.0 - z)
    if z.imag == 0.0 and z.real > 0.0:
        out = complex(out.real, 0.0)
    return _require_finite(out, "ln_gamma")


def ln_gamma_grid(z: np.ndarray) -> np.ndarray:
    """Vectorised log-gamma for contour grids with Re z > 0.

    No pole checks: callers guarantee the contour stays away from poles.
    """
    return _lanczos_ln_gamma(np.asarray(z, dtype=complex))


# the Lanczos terms k = 14 .. 1 as the rows of one block: c_k and k
_LANCZOS_ROWS = np.array(_LANCZOS_COEF[:0:-1])[:, None]
_LANCZOS_K = np.arange(len(_LANCZOS_COEF) - 1, 0, -1.0)[:, None]


def _lanczos_sums(x: float, y: np.ndarray, y2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re S and Im S of the Lanczos sum S = c0 + sum_k c_k / (x_k + iy) with
    x_k = x - 1 + k, in real arithmetic, the small terms first.

    The 14 terms are the rows of one (14, len(y)) block, which numpy sums
    down its columns a row at a time: for two heights or more that is the
    order of a loop over k = 14 .. 1, bit for bit, in a few array
    operations instead of about 80 (one height is summed pairwise).
    """
    xk = (x - 1.0) + _LANCZOS_K
    block = xk * xk + y2
    np.divide(_LANCZOS_ROWS, block, out=block)
    im_s = -y * block.sum(axis=0)
    block *= xk
    return block.sum(axis=0, initial=_LANCZOS_COEF[0]), im_s


def gamma_abs2_line(x: float, y: np.ndarray) -> np.ndarray:
    """|Gamma(x + iy)|^2 on the vertical line at real part x > 0, at heights y.

    The Lanczos form Gamma(z) = sqrt(2 pi) T^(z - 1/2) e^(-T) S, with
    T = z + g - 1/2, gives |S|^2 exp((2x - 1) ln|T| - 2y arg T - (2x - 1))
    times 2 pi e^(-2g), all of it in real arithmetic, and Re T enters as
    x - 1/2, exact for x in [1/4, 2], plus the constant g.  Below x = 1/4
    the value is |Gamma(x + 1 + iy)|^2 / (x^2 + y^2), since the sum's
    terms near the pole at 0 lose up to 8e4 ulp at x = 1e-5.  Within
    1.5e-15 of mpmath for x in [1/4, 3/4] and |y| <= 1, and 1.0e-14 at
    |y| = 6, where the Lanczos sum itself is that far off.
    exp(2 Re ln_gamma_grid) is not used: its real part is formed from -T
    and ln S, which are of size about 5 and cancel, so it carries about
    one ulp(5) per point.
    """
    y = np.asarray(y, dtype=float)
    y2 = y * y
    if x < 0.25:
        return gamma_abs2_line(x + 1.0, y) / (x * x + y2)
    re_s, im_s = _lanczos_sums(x, y, y2)
    half = x - 0.5
    tr = half + _LANCZOS_G
    power = np.exp(half * np.log(tr * tr + y2) - 2.0 * y * np.arctan2(y, tr) - 2.0 * half)
    return (re_s * re_s + im_s * im_s) * power * _TWO_PI_EXP_M2G


def ln_gamma_line(x: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ln|Gamma(x + iy)|, arg Gamma(x + iy)) on the vertical line at real part x > 0.

    The Lanczos form of :func:`gamma_abs2_line`, with T = x - 1/2 + g + iy:
    ln|Gamma| = ln sqrt(2 pi) + (x - 1/2) ln|T| - y arg T - Re T + ln|S| and
    arg Gamma = (x - 1/2) arg T + y ln|T| - y + arg S, continuous along the
    line; below x = 1/4, Gamma(z + 1) / z.
    """
    y = np.asarray(y, dtype=float)
    if x < 0.25:
        modulus, phase = ln_gamma_line(x + 1.0, y)
        return modulus - 0.5 * np.log(x * x + y * y), phase - np.arctan2(y, x)
    y2 = y * y
    re_s, im_s = _lanczos_sums(x, y, y2)
    half = x - 0.5
    tr = half + _LANCZOS_G
    ln_t = 0.5 * np.log(tr * tr + y2)
    arg_t = np.arctan2(y, tr)
    modulus = LN_SQRT_2PI + half * ln_t - y * arg_t - tr + 0.5 * np.log(re_s * re_s + im_s * im_s)
    return modulus, half * arg_t + y * ln_t - y + np.arctan2(im_s, re_s)


def gamma(x) -> complex:
    """Gamma function of a real x: math.gamma, as a complex number."""
    x = float(x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at z={x}")
    return _require_finite(math.gamma(x), "gamma")


# Bernoulli numbers B_2 .. B_14 for the digamma and polygamma asymptotic tails.
_BERNOULLI_2N = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def digamma(x) -> complex:
    """psi(x) = d/dx ln Gamma(x) of a real x, by recurrence shift plus Stirling
    tail, as a complex number."""
    x = float(x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at z={x}")
    acc = 0.0
    if x < 0.5:
        # psi(x) = psi(1-x) - pi cot(pi x)
        acc -= PI / math.tan(PI * x)
        x = 1.0 - x
    while x < 16.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    p = inv2
    for k, b in enumerate(_BERNOULLI_2N, start=1):
        tail += b / (2 * k) * p
        p *= inv2
    return _require_finite(acc + math.log(x) - 0.5 / x - tail, "digamma")


def polygamma(k: int, x: float) -> float:
    """k-th derivative of digamma at a real non-pole x, k >= 1.

    Upward recurrence psi^(k)(x) = psi^(k)(x+1) + (-1)^(k+1) k! / x^(k+1)
    to x >= 16, then the asymptotic series with the Bernoulli tail of
    :func:`digamma`; that tail is good to double precision for k <= 4.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"polygamma pole at x={x}")
    sign = 1.0 if k % 2 == 1 else -1.0
    kfact = math.factorial(k)
    acc = 0.0
    while x < 16.0:
        acc += kfact / x ** (k + 1)
        x += 1.0
    # (k-1)!/x^k + k!/(2 x^(k+1)) + sum_j B_2j (2j+k-1)!/((2j)! x^(2j+k))
    tail = math.factorial(k - 1) / x ** k + 0.5 * kfact / x ** (k + 1)
    for j, b in enumerate(_BERNOULLI_2N, start=1):
        tail += b * math.factorial(2 * j + k - 1) / (math.factorial(2 * j) * x ** (2 * j + k))
    return sign * (acc + tail)


# ---------------------------------------------------------------------------
# cut-aware elementary pieces
# ---------------------------------------------------------------------------

def cut_log(x, cut: CutPrescription = PV) -> complex:
    """log(x) of a real x, where a negative x is resolved by the cut prescription.

    Above the cut gives ``log|x| + i pi`` (the principal value in the sense
    of the global branch convention), below gives ``-i pi``, and the
    principal-value mode keeps only ``log|x|``.
    """
    x = float(x)
    if x == 0:
        raise DomainError("log of zero")
    return complex(math.log(abs(x)), _jump(cut, PI) if x < 0.0 else 0.0)


def cut_power(x, p: float, cut: CutPrescription = PV) -> complex:
    """x**p of a real x, where a negative x is resolved by the cut prescription.

    The above-cut mode reproduces the global convention
    ``(-1)**p = exp(+i pi p)``; the principal-value mode is the average of
    the two boundary values, ``|x|**p cos(pi p)``.
    """
    x = float(x)
    if x == 0:
        if p > 0:
            return 0.0 + 0.0j
        raise DomainError("zero base with non-positive exponent")
    if x < 0.0:
        mag = (-x) ** p
        return complex(mag * math.cos(PI * p), _jump(cut, mag * math.sin(PI * p)))
    return complex(x ** p, 0.0)


# ---------------------------------------------------------------------------
# dilogarithm
# ---------------------------------------------------------------------------

def _power_sum(x: float, p: int, b: float, c: float, start: float) -> float:
    """start + sum_(n>=1) c x^n / (n + b)^p, |x| <= 0.75, stopped on two
    consecutive negligible terms: Li2 (p = 2, b = 0, c = 1, start 0) and
    F(1, b; 1+b; x) (p = 1, c = b, start 1)."""
    total = start
    xp = 1.0
    small = 0
    for n in range(1, SERIES_MAX_TERMS):
        xp = xp * x
        inc = c * xp / (n + b) ** p
        total += inc
        small = 0 if abs(inc) > SERIES_RTOL * abs(total) else small + 1
        if small >= 2 and n > 3:
            return total
    raise NonConvergence("power series did not converge")


def _li2_below_one(x: float) -> float:
    # Li2(x) at a real x < 1; each reduction's argument is within 0.75 of 0
    ax = abs(x)
    if ax <= 0.75:
        return _power_sum(x, 2, 0, 1, 0.0)
    if ax >= 1.4:
        # Li2(x) + Li2(1/x) = -pi^2/6 - ln(-x)^2/2
        log = math.log(-x)
        return -PI * PI / 6.0 - 0.5 * (log * log) - _power_sum(1.0 / x, 2, 0, 1, 0.0)
    if abs(1.0 - x) <= 0.75:
        # Li2(x) + Li2(1-x) = pi^2/6 - ln(x) ln(1-x)
        return PI * PI / 6.0 - math.log(x) * math.log(1.0 - x) \
            - _power_sum(1.0 - x, 2, 0, 1, 0.0)
    # Landen on -1.4 < x < -0.75: Li2(x) = -Li2(x/(x-1)) - ln(1-x)^2/2
    log = math.log(1.0 - x)
    return -_power_sum(x / (x - 1.0), 2, 0, 1, 0.0) - 0.5 * (log * log)


def li2(z, cut: CutPrescription = PV) -> complex:
    """Dilogarithm Li2(x) of a real x, cut on [1, inf).

    The ``cut`` prescription only matters for x > 1, where it adds
    +-i pi ln(x) to the principal value.
    """
    x = _argument(z, "li2 argument z")
    if x > 1.0:
        # Li2(x +- i0) = pi^2/3 - ln(x)^2/2 - Li2(1/x) +- i pi ln(x)
        log = math.log(x)
        return complex(PI * PI / 3.0 - 0.5 * log ** 2 - _li2_below_one(1.0 / x),
                       _jump(cut, PI * log))
    if x == 1.0:
        return complex(PI * PI / 6.0, 0.0)
    return _require_finite(_li2_below_one(x), "li2")


# ---------------------------------------------------------------------------
# Gauss hypergeometric families
# ---------------------------------------------------------------------------

def _cap_falls_short(a: float, b: float, c: float, x: float) -> bool:
    """Whether the Gauss series of 2F1(a, b; c; x) is sure to run into its
    term cap, told before summing it.

    Only where ln(SERIES_RTOL) / ln|x| exceeds the cap, since |x|^n alone
    takes the terms below SERIES_RTOL otherwise.  The n-th term's size is
    exp(ln|(a)_n (b)_n / (c)_n| - ln n! + n ln|x|) by lgamma, and the series
    is refused when the term at the cap is above SERIES_RTOL times
    1 + cap * the largest term at n = 1, 2, 4, ..., a bound on its partial
    sums.  A series that ends (a or b a non-positive integer) is summed.
    """
    if x == 0.0 or math.log(SERIES_RTOL) / math.log(abs(x)) <= SERIES_MAX_TERMS \
            or _is_nonpositive_integer(a) or _is_nonpositive_integer(b):
        return False

    def ln_term(n: int) -> float:
        return (math.lgamma(a + n) - math.lgamma(a) + math.lgamma(b + n) - math.lgamma(b)
                - math.lgamma(c + n) + math.lgamma(c) - math.lgamma(n + 1.0)
                + n * math.log(abs(x)))

    cap = SERIES_MAX_TERMS
    bound = math.log(cap) + max(ln_term(1 << i) for i in range(cap.bit_length()))
    # ln(1 + e^bound), without overflow
    ln_sums = max(bound, 0.0) + math.log1p(math.exp(-abs(bound)))
    return ln_term(cap) > math.log(SERIES_RTOL) + ln_sums


def f21_general_series(a: float, b: float, c: float, z) -> complex:
    """Plain Gauss series for 2F1(a, b; c; x), real |x| < 1 required.  A series
    that does not converge within its term cap raises :class:`NonConvergence`."""
    x = _argument(z, "f21_general_series argument z")
    if _is_nonpositive_integer(c):
        raise PoleError(f"lower parameter c={c} is a non-positive integer")
    if abs(x) >= 1.0:
        raise NonConvergence(f"series argument |z|={abs(x):.3f} >= 1")
    if _cap_falls_short(a, b, c, x):
        raise NonConvergence(f"2F1 series at |z|={abs(x):.6f} cannot reach {SERIES_RTOL:.0e} "
                             f"within the {SERIES_MAX_TERMS}-term cap")
    total = 1.0
    term = 1.0
    prev_inc = math.inf
    for n in range(SERIES_MAX_TERMS):
        term = term * (a + n) * (b + n) / ((c + n) * (1.0 + n)) * x
        total += term
        inc = abs(term)
        if inc <= SERIES_RTOL * max(abs(total), 1e-300) and prev_inc <= SERIES_RTOL * max(abs(total), 1e-300):
            return _require_finite(total, "2F1 series")
        prev_inc = inc
    raise NonConvergence(f"2F1 series hit the {SERIES_MAX_TERMS}-term cap at |z|={abs(x):.6f}")


def _f21_1b_logcase(b: float, x: float) -> float:
    # expansion around x=1 for the c = a+b (logarithmic) case, at the principal
    # value: F(1,b;1+b;x) = b sum_n (b)_n/n! [psi(n+1) - psi(b+n) - ln|1-x|] (1-x)^n,
    # whose binomial half sum_n (b)_n/n! (1-x)^n is x^(-b)
    w = 1.0 - x
    if w == 0:
        raise PoleError("F(1,b;1+b;z) diverges at z=1")
    binomial = x ** (-b)
    size = abs(binomial)
    psi_n1 = -EULER_GAMMA           # psi(1)
    psi_bn = digamma(b).real        # psi(b)
    s_psi = 0.0
    poch = 1.0
    wp = 1.0
    for n in range(SERIES_MAX_TERMS):
        coeff = poch * wp
        s_psi += coeff * (psi_n1 - psi_bn)
        if n > 4 and abs(coeff) <= SERIES_RTOL * max(size, abs(s_psi)):
            break
        poch *= (b + n) / (1.0 + n)
        wp = wp * w
        psi_n1 += 1.0 / (n + 1.0)
        psi_bn += 1.0 / (b + n)
    else:
        raise NonConvergence("logarithmic 2F1 expansion did not converge")
    return b * (s_psi - math.log(abs(w)) * binomial)


def _flip(cut: CutPrescription) -> CutPrescription:
    # the maps x -> 1-x and x -> x/(x-1) reverse the approach side
    if cut is ABOVE:
        return BELOW
    if cut is BELOW:
        return ABOVE
    return PV


def _f21_1b(b: float, x: float) -> float:
    """The principal value of F(1, b; 1+b; x) at every real x != 1: the
    series for |x| <= 0.7, the log case for |1 - x| <= 0.7, the inversion
    for |x| >= 1.4, and Pfaff on -1.4 < x < -0.7, where x/(x-1) is in
    (0.41, 0.59).  No branch sees a side of the cut (see :func:`_f21_1b_cut`)."""
    if x == 0:
        return 1.0
    ax = abs(x)
    if ax <= 0.7:
        return _power_sum(x, 1, b, b, 1.0)
    if abs(1.0 - x) <= 0.7:
        return _f21_1b_logcase(b, x)
    if ax >= 1.4:
        # inversion: F = b/(b-1) (-x)^{-1} F(1,1-b;2-b;1/x) + G(1+b)G(1-b) (-x)^{-b},
        # where the principal value of (-x)^{-b} on the cut x > 0 is x^{-b} cos(pi b)
        power = (-x) ** (-b) if x < 0.0 else x ** (-b) * math.cos(PI * -b)
        head = b / (b - 1.0) * _f21_1b(1.0 - b, 1.0 / x) / (-x)
        return head + gamma(1.0 + b).real * gamma(1.0 - b).real * power
    # Pfaff: F(1,b;1+b;x) = (1-x)^{-b} F(b,b;1+b;x/(x-1))
    return (1.0 - x) ** (-b) * f21_general_series(b, b, 1.0 + b, x / (x - 1.0)).real


def _f21_1b_cut(b: float, x: float, cut: CutPrescription) -> complex:
    """F(1, b; 1+b; x) on the side ``cut`` of [1, inf): the principal value
    plus the jump +-i pi b x^(-b) for x > 1 (DLMF 15.2.3)."""
    return complex(_f21_1b(b, x), _jump(cut, PI * b * x ** (-b)) if x > 1.0 else 0.0)


def _f21_11_tail(e: float, z: float, cut: CutPrescription) -> complex:
    """Algebraic tail Gamma(2-e) Gamma(e) z^(e-1) (1-z)^(-e) of the connection
    of F(1, 1; 2-e; z) through 1 - z; ``cut`` is the side of z."""
    return gamma(2.0 - e) * gamma(e) * cut_power(1.0 - z, -e, _flip(cut)) \
        * cut_power(z, e - 1.0, cut)


def _check_eps(eps: float):
    if not (0.0 < eps < 1.0):
        raise DomainError(f"regulator eps={eps} outside (0, 1)")


def f21_1e(z, eps: float, cut: CutPrescription = PV) -> complex:
    """2F1(1, eps; eps+1; x) at a real x, with the cut on [1, inf) resolved
    by ``cut``: defined at every real x except the pole x = 1."""
    _check_eps(eps)
    return _require_finite(_f21_1b_cut(eps, _argument(z, "f21_1e argument z"), cut), "f21_1e")


def f21_2e(z, eps: float, cut: CutPrescription = PV) -> complex:
    """2F1(1, 1+eps; 2+eps; x) with the cut on [1, inf) resolved by ``cut``."""
    _check_eps(eps)
    return _require_finite(_f21_1b_cut(1.0 + eps, _argument(z, "f21_2e argument z"), cut),
                           "f21_2e")


def f21_11(z, eps: float, cut: CutPrescription = PV) -> complex:
    """2F1(1, 1; 2-eps; x) with the cut on [1, inf) resolved by ``cut``:
    F(1, 1-eps; 2-eps; x/(x-1)) / (1-x), 0 < eps < 1 (Pfaff, DLMF 15.8.1);
    x/(x-1) is on the cut where x is, on the other side."""
    _check_eps(eps)
    x = _argument(z, "f21_11 argument z")
    if x == 1:
        raise PoleError("F(1,1;2-e;z) diverges at z=1")
    return _require_finite(_f21_1b_cut(1.0 - eps, x / (x - 1.0), _flip(cut)) / (1.0 - x),
                           "f21_11")


def f21_11_split(t_over_s, eps: float, cut: CutPrescription = PV) -> tuple[complex, complex]:
    """Two-piece continuation of 2F1(1, 1; 2-eps; -s/t), given t/s.

    Returns ``(hypergeometric_piece, algebraic_piece)``, the connection
    through 1 - z at z = -s/t, whose sum equals ``f21_11(-1/t_over_s, eps)``
    for every prescription.  The first piece is
    -(1-eps)/eps F(1, eps; eps+1; 1 - 1/z) / z, whose argument 1 - 1/z =
    1 + t/s keeps the side of z; the second, :func:`_f21_11_tail`, is the
    algebraic leftover of the continuation.  For Euclidean ratios (t/s > 0)
    both pieces are individually complex away from the principal-value mode.
    """
    _check_eps(eps)
    r = _argument(t_over_s, "f21_11_split argument t_over_s")
    if r == 0:
        raise DomainError("t/s must be nonzero")
    head = (1.0 - eps) / eps * r * _f21_1b_cut(eps, 1.0 + r, cut)
    return (_require_finite(head, "continuation head"),
            _require_finite(_f21_11_tail(eps, -1.0 / r, cut), "continuation tail"))
