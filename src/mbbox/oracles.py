"""Independent brute-force references for the closed-form and contour pipelines.

Everything here goes through direct quadrature: the one-dimensional
Feynman-parameter integrals for both boxes, the Euler integral behind the
2F1 family, and the Beta integral behind the gamma prefactor.  The only
shared code with the evaluators under test is the gamma prefactor itself.
"""

from __future__ import annotations

import math

from .closed_form import BoxValue, Kinematics
from .errors import DomainError, NotConverged
from .specfun import ABOVE, BELOW, PV, CutPrescription, ln_gamma

__all__ = [
    "feynman_1d_massless",
    "feynman_1d_onemass",
    "euler_f21_oracle",
    "beta_oracle",
]

QUAD_EPSABS = 1e-13
QUAD_EPSREL = 1e-12
QUAD_LIMIT = 400


def quad(f, a, b, **kwargs):
    """scipy's adaptive ``quad``, imported on the first call so that the
    routes which never integrate numerically do not load scipy."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(f, a, b, **kwargs)


def _quad(f, a, b, tag):
    val, err, info = quad(f, a, b, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
                          limit=QUAD_LIMIT, full_output=True)[:3]
    if err > 1e-8 * max(1.0, abs(val)):
        raise NotConverged(f"{tag}: quadrature error estimate {err:.2e}")
    return val, err, info["neval"]


def _gamma_prefactor(eps: float) -> float:
    return math.exp(2.0 * ln_gamma(eps).real - ln_gamma(2.0 * eps).real
                    + ln_gamma(1.0 - eps).real)


def _quotient(a: float, b: float, q: float) -> float:
    """(1 - (a/b)**q) / (b - a) for a >= 0, b > 0, exact as a -> b and at a = 0.

    With p = -q this is (a**p - b**p) / (b - a) times a**q.
    """
    r = a / b
    if r == 0.0:
        return 1.0 / b
    d = a - b
    if d == 0.0:
        return q / b
    return math.expm1(q * (math.log(r) if r < 0.5 else math.log1p(d / b))) / d


def _half_integral(eps, near, near_m, far, far_m, tag):
    """Integral over z in [0, 1/2] of (a**p - b**p) / (b - a), p = eps - 1,
    with a = z near + (1-z) near_m and b = z far_m + (1-z) far.

    The a**p term is singular at z = 0 when near_m = 0, and has a boundary
    layer of width near_m when near_m is small.  The variable
    v = a**eps - near_m**eps absorbs both: a**p dz/dv is the constant
    1 / (eps (near - near_m)).  The expm1/log1p forms keep a - near_m
    accurate when near_m is close to near.
    """
    q = 1.0 - eps
    span = near - near_m
    c = 1.0 / (eps * span)
    base = near_m ** eps
    if near_m == 0.0:
        top = (0.5 * near) ** eps
    else:
        top = base * math.expm1(eps * math.log1p(span / (2.0 * near_m)))

    def g(v):
        if near_m == 0.0:
            da = v ** (1.0 / eps)  # underflows to 0 near v = 0 when eps is small
        else:
            da = near_m * math.expm1(math.log1p(v / base) / eps)
        z = da / span
        return c * _quotient(near_m + da, z * far_m + (1.0 - z) * far, q)

    return _quad(g, 0.0, top, tag)


def _feynman(eps, neg_s, neg_t, neg_m2, name):
    # the upper half is mirrored, z -> 1-z, so its singular end sits at z = 0
    v1, e1, n1 = _half_integral(eps, neg_s, neg_m2, neg_t, 0.0, f"{name} z lower")
    v2, e2, n2 = _half_integral(eps, neg_t, 0.0, neg_s, neg_m2, f"{name} z upper")
    pref = _gamma_prefactor(eps)
    return BoxValue(complex(pref * (v1 + v2)), "feynman", {
        "neval": n1 + n2,
        "abserr": pref * (e1 + e2),
    })


def feynman_1d_massless(k: Kinematics) -> BoxValue:
    """Massless box by direct quadrature of the one-dimensional z-integral.

    The integrand is (a**(e-1) - b**(e-1)) / (b - a) with a = z(-s) and
    b = (1-z)(-t); the apparent zero of the denominator inside (0, 1) is a
    removable point.
    """
    k.require_massless()
    return _feynman(k.eps, -k.s, -k.t, 0.0, "massless")


def feynman_1d_onemass(k: Kinematics) -> BoxValue:
    """One-mass box by direct quadrature of its one-dimensional z-integral:
    the massless integrand with a = z(-s) + (1-z)(-msq)."""
    k.require_onemass()
    return _feynman(k.eps, -k.s, -k.t, -k.msq, "onemass")


def _euler_segment(eps, w, lo, hi, tag):
    # integral of z^(eps-1)/(1 - w z) over [lo, hi] with the z->u^(1/eps)
    # map absorbing the z = 0 endpoint
    inv_eps = 1.0 / eps

    def g(u):
        z = u ** inv_eps
        return inv_eps / (1.0 - w * z) if u > 0.0 else inv_eps

    return _quad(g, lo ** eps, hi ** eps, tag)


def euler_f21_oracle(eps: float, w_arg: float, cut: CutPrescription = PV,
                     excision: float = 1e-3) -> complex:
    """Euler-integral reference for (1/eps) 2F1(1, eps; eps+1; w).

    For w <= 1 this is a plain quadrature of z^(eps-1)/(1 - w z).  For
    w > 1 the integrand has a pole at z = 1/w; the principal value is
    defined by symmetric excision with one Richardson step in the excision
    radius, and the one-sided prescriptions add the half-residue term
    +- i pi w^(-eps).
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps={eps} outside (0, 1)")
    if w_arg == 1.0:
        raise DomainError("integrand pole sits at the endpoint z=1")
    if w_arg < 1.0:
        val, _, _ = _euler_segment(eps, w_arg, 0.0, 1.0, "euler")
        return complex(val)

    z0 = 1.0 / w_arg

    def excised(r):
        v1, _, _ = _euler_segment(eps, w_arg, 0.0, z0 - r, "euler below pole")
        v2, _, _ = _quad(lambda z: z ** (eps - 1.0) / (1.0 - w_arg * z),
                         z0 + r, 1.0, "euler above pole")
        return v1 + v2

    # excised integral = PV - 2 g'(z0) r + O(r^3): eliminate the linear term
    r = excision
    pv = (10.0 * excised(r / 10.0) - excised(r)) / 9.0
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

    def g(u):
        y = u ** inv_eps
        return inv_eps * (1.0 - y) ** (eps - 1.0) if u > 0.0 else inv_eps

    val, _, _ = _quad(g, 0.0, 0.5 ** eps, "beta")
    return 2.0 * val
