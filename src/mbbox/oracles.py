"""Independent brute-force references for the closed-form and contour pipelines.

Everything here goes through direct quadrature: the one-dimensional
Feynman-parameter integrals for both boxes, the Euler integral behind the
2F1 family, and the Beta integral behind the gamma prefactor.  None of it
calls :mod:`mbbox.specfun`, but the Feynman prefactor's ``math.lgamma`` and the
evaluators' real ``math.gamma`` share CPython's Lanczos sum: only the mpmath
tests of ``specfun.gamma`` check that prefactor independently of the evaluators.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_form import BoxValue, Kinematics
from .errors import DomainError, NotConverged
from .specfun import ABOVE, BELOW, PV, CutPrescription

__all__ = [
    "feynman_1d_massless",
    "feynman_1d_onemass",
    "euler_f21_oracle",
    "beta_oracle",
]

# Tanh-sinh rule: the trapezoid rule in t on |t| <= DE_T_MAX, after the change
# of variable x = a + (b - a) / (1 + exp(-pi sinh t)).  The weights decay
# double-exponentially at both ends, so an algebraic endpoint singularity
# converges as fast as a smooth integrand.  The step starts at DE_FIRST_STEP
# and halves at each of DE_LEVELS levels.
DE_T_MAX = 4.0
DE_FIRST_STEP = 0.125
DE_LEVELS = 5
# stop once the level-doubling delta is this small relative to the value
DE_RTOL = 1e-13
# fail when the error estimate exceeds this times max(1, |value|)
DE_FAIL_RTOL = 1e-8
# rounding error of each term of the sum, in units of DBL_EPSILON
ROUNDING_ULPS = 4.0
DBL_EPSILON = 2.0 ** -52


def _de_table() -> list:
    """(step, nodes on [0, 1], dx/dt weights) of each level: level 0 is the
    whole grid at DE_FIRST_STEP, level k > 0 only the nodes new at its step."""
    stride = 1 << DE_LEVELS
    t = np.linspace(-DE_T_MAX, DE_T_MAX, round(2.0 * DE_T_MAX / DE_FIRST_STEP) * stride + 1)
    e = np.exp(-math.pi * np.sinh(t))
    u, w = 1.0 / (1.0 + e), math.pi * np.cosh(t) * e / (1.0 + e) ** 2
    table = [(DE_FIRST_STEP, u[::stride].copy(), w[::stride].copy())]
    for k in range(1, DE_LEVELS + 1):
        new = slice(stride >> k, None, stride >> (k - 1))
        table.append((DE_FIRST_STEP / 2 ** k, u[new].copy(), w[new].copy()))
    return table


_DE_TABLE = _de_table()


def quad(f, a, b, tag: str) -> tuple[float, float, dict]:
    """Integral of ``f`` over [a, b] by the tanh-sinh rule.

    ``a`` and ``b`` are numbers, or arrays of the ends of m intervals whose
    integrals are summed.  ``f`` maps an (m, n) array of nodes, one row per
    interval, to an array of values.  Nodes keep their relative precision
    next to a = 0, where an endpoint singularity belongs; nodes next to b
    can round to b itself, where ``f`` must be finite.  Each level halves
    the step and evaluates only the new nodes.  The rule stops once the
    level-doubling delta is at most DE_RTOL times the value, and returns
    ``(value, abserr, {"neval": nodes})``; ``abserr`` is the delta, plus a
    bound on the integral beyond |t| = DE_T_MAX, plus the rounding of the
    sum, ``ROUNDING_ULPS`` ulps of each term.  An ``abserr`` above
    DE_FAIL_RTOL * max(1, |value|) raises ``NotConverged``; a non-finite
    value is returned as it is, at the first level that gives one.
    """
    lo = np.reshape(a, (-1, 1))
    span = np.reshape(b, (-1, 1)) - lo
    span_row = span.ravel()
    abs_span = np.abs(span_row)
    total = abs_total = value = delta = 0.0
    neval = 0
    for level, (step, u, w) in enumerate(_DE_TABLE):
        fx = f(lo + span * u)
        neval += fx.size
        total += float(fx @ w @ span_row)
        abs_total += float(np.abs(fx) @ w @ abs_span)
        value, previous = step * total, value
        if level:
            delta = abs(value - previous)
            if delta <= DE_RTOL * abs(value):
                break
        else:
            # level 0 holds the nodes at t = -DE_T_MAX and DE_T_MAX; the
            # integrand times dx/dt there bounds what lies beyond them
            tail = float(np.abs(fx[:, [0, -1]]) @ w[[0, -1]] @ abs_span)
        if not math.isfinite(value):
            break
    abserr = delta + tail + ROUNDING_ULPS * DBL_EPSILON * step * abs_total
    if abserr > DE_FAIL_RTOL * max(1.0, abs(value)):
        raise NotConverged(f"{tag}: error estimate {abserr:.2e} after {neval} nodes")
    return value, abserr, {"neval": neval}


def _gamma_prefactor(eps: float) -> tuple[float, float]:
    """Gamma(eps)**2 Gamma(1-eps) / Gamma(2 eps), and a bound on its relative
    error: exp turns the absolute error of its argument into a relative one,
    and each log-gamma term is good to 4 ulps of max(1, |term|)."""
    logs = (2.0 * math.lgamma(eps), -math.lgamma(2.0 * eps), math.lgamma(1.0 - eps))
    return math.exp(sum(logs)), 4.0 * DBL_EPSILON * (1.0 + sum(max(1.0, abs(x)) for x in logs))


def _quotient(a: np.ndarray, b: np.ndarray, q: float) -> np.ndarray:
    """(1 - (a/b)**q) / (b - a) for a >= 0, b > 0, exact as a -> b and at a = 0.

    With p = -q this is (a**p - b**p) / (b - a) times a**q.  At a = 0 the
    logarithm is -inf and expm1 gives -1, so the quotient is 1/b.
    """
    r = a / b
    d = a - b
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.expm1(q * np.where(r < 0.5, np.log(r), np.log1p(d / b))) / d
    return np.where(d == 0.0, q / b, out)


def _feynman(k: Kinematics, name: str) -> BoxValue:
    """Integral over z in [0, 1] of (a**p - b**p) / (b - a), p = eps - 1,
    times the gamma prefactor, at the unit point (see :meth:`Kinematics.unit`).

    The two halves of [0, 1] are the two rows of one quadrature.  The upper
    half is mirrored, z -> 1-z, so that its singular end also sits at z = 0;
    on each half a = z near + (1-z) near_m and b = z far_m + (1-z) far, z in
    [0, 1/2].  The a**p term is singular at z = 0 when near_m = 0, and has a
    boundary layer of width near_m when near_m is small.  The variable
    v = a**eps - near_m**eps absorbs both: a**p dz/dv is the constant
    1 / (eps (near - near_m)).  The expm1/log1p forms keep a - near_m
    accurate when near_m is close to near.
    """
    u, factor = k.unit()
    eps, neg_t, neg_m2 = u.eps, -u.t, 0.0 if u.msq is None else -u.msq
    q = 1.0 - eps
    inv_eps = 1.0 / eps
    # rows: the lower half, then the mirrored upper half
    near = np.array([[1.0], [neg_t]])
    near_m = np.array([[neg_m2], [0.0]])
    far = np.array([[neg_t], [1.0]])
    span = near - near_m
    slope = (np.array([[0.0], [neg_m2]]) - far) / span
    c = inv_eps / span
    base = neg_m2 ** eps
    if neg_m2 == 0.0:
        top = 0.5 ** eps
    else:
        top = base * math.expm1(eps * math.log1p((1.0 - neg_m2) / (2.0 * neg_m2)))

    def g(v):
        # v ** inv_eps underflows to 0 near v = 0 when eps is small
        da = v ** inv_eps if neg_m2 == 0.0 else np.concatenate(
            (neg_m2 * np.expm1(np.log1p(v[:1] / base) * inv_eps), v[1:] ** inv_eps))
        return c * _quotient(near_m + da, far + slope * da, q)

    value, abserr, info = quad(g, 0.0, (top, (0.5 * neg_t) ** eps), name)
    pref, pref_err = _gamma_prefactor(eps)
    return BoxValue(complex(factor * pref * value), "feynman", {
        "neval": info["neval"],
        "abserr": factor * pref * (abserr + pref_err * abs(value)),
    })


def feynman_1d_massless(k: Kinematics) -> BoxValue:
    """Massless box by direct quadrature of the one-dimensional z-integral.

    The integrand is (a**(e-1) - b**(e-1)) / (b - a) with a = z(-s) and
    b = (1-z)(-t); the apparent zero of the denominator inside (0, 1) is a
    removable point.
    """
    k.require_massless()
    return _feynman(k, "massless")


def feynman_1d_onemass(k: Kinematics) -> BoxValue:
    """One-mass box by direct quadrature of its one-dimensional z-integral:
    the massless integrand with a = z(-s) + (1-z)(-msq)."""
    k.require_onemass()
    return _feynman(k, "onemass")


def euler_f21_oracle(eps: float, w_arg: float, cut: CutPrescription = PV) -> complex:
    """Euler-integral reference for (1/eps) 2F1(1, eps; eps+1; w).

    The integral of z^(eps-1)/(1 - w z) over [0, 1], in u = z^eps, which
    absorbs the z = 0 endpoint.  For w > 1 the integrand has a pole at
    z0 = 1/w.  Its principal value subtracts the pole term
    z0^(eps-1)/(1 - w z), whose principal value is z0^(eps-1) (-ln(w-1)/w);
    the remainder is smooth through z0 and is integrated over [0, z0], in
    u, and over [z0, 1], as the two rows of one quadrature.  The one-sided
    prescriptions add the half-residue term +- i pi w^(-eps).
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps={eps} outside (0, 1)")
    if w_arg == 1.0:
        raise DomainError("integrand pole sits at the endpoint z=1")
    inv_eps = 1.0 / eps
    if w_arg < 1.0:
        val, _, _ = quad(lambda u: inv_eps / (1.0 - w_arg * u ** inv_eps), 0.0, 1.0, "euler")
        return complex(val)

    z0 = 1.0 / w_arg
    q = 1.0 - eps
    weight = np.array([[z0 * inv_eps], [z0 ** eps]])

    def g(x):
        # rows: u on [0, z0^eps], where z = u^(1/eps) <= z0, then z on [z0, 1];
        # the remainder times dz/du or dz is weight * _quotient(min, max)
        z = np.concatenate((x[:1] ** inv_eps, x[1:]))
        return weight * _quotient(np.minimum(z, z0), np.maximum(z, z0), q)

    val, _, _ = quad(g, (0.0, z0), (z0 ** eps, 1.0), "euler on the cut")
    pv = val - z0 ** eps * math.log(w_arg - 1.0)
    if cut is ABOVE:
        return complex(pv, math.pi * w_arg ** (-eps))
    if cut is BELOW:
        return complex(pv, -math.pi * w_arg ** (-eps))
    return complex(pv)


def beta_oracle(eps: float) -> float:
    """Quadrature of the symmetric Beta integrand (y(1-y))**(eps-1)."""
    if not (0.0 < eps <= 1.0):
        raise DomainError(f"eps={eps} outside (0, 1]")
    inv_eps = 1.0 / eps
    val, _, _ = quad(lambda u: inv_eps * (1.0 - u ** inv_eps) ** (eps - 1.0),
                     0.0, 0.5 ** eps, "beta")
    return 2.0 * val
