"""Shared helpers for the test suite: extrapolation-based coefficient
extraction, an mpmath reference for the box values and seeded samplers of
massless and one-mass points."""

import math

import mpmath as mp
import numpy as np


def neville_to_zero(xs, ys):
    """Polynomial extrapolation of (xs, ys) samples to x = 0."""
    xs = np.asarray(xs, dtype=float)
    table = list(np.asarray(ys, dtype=complex))
    n = len(table)
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            x0, x1 = xs[i], xs[i + level]
            nxt.append((x0 * table[i + 1] - x1 * table[i]) / (x0 - x1))
        table = nxt
    return table[0]


def extract_laurent_by_sampling(fn, eps0=0.02, levels=6):
    """Leading Laurent coefficients of fn by sampled Richardson extraction.

    ``fn`` maps the regulator to the function value; the function is
    assumed to behave like c2/eps^2 + c1/eps + c0 + O(eps).  Samples sit on
    the geometric ladder eps0 / 2**j; the anchors eps0, eps0/2, eps0/4 are
    refined with further halvings so the sequential extraction of the pole
    coefficients does not contaminate the finite part.
    """
    eps = eps0 / 2.0 ** np.arange(levels)
    g = np.array([complex(fn(e)) * e * e for e in eps])
    c_m2 = neville_to_zero(eps, g)
    r1 = (g - c_m2) / eps
    c_m1 = neville_to_zero(eps, r1)
    r0 = (g - c_m2 - c_m1 * eps) / eps ** 2
    c_0 = neville_to_zero(eps, r0)
    return c_m2, c_m1, c_0


def mp_box(s, t, eps, msq=None, dps=30):
    """Box value from the closed form in mpmath (hyp2f1 and gamma), at
    ``dps`` digits and rounded to a float (see :func:`_mp_box`)."""
    with mp.workdps(dps):
        return float(_mp_box(s, t, eps, msq))


def mp_error(value, s, t, eps, msq=None, dps=30):
    """|value - box| as a float, with the difference taken at ``dps`` digits,
    so that it is not zero when ``value`` is the correctly rounded box."""
    with mp.workdps(dps):
        return float(abs(mp.mpf(value) - _mp_box(s, t, eps, msq)))


def _mp_box(s, t, eps, msq):
    """Box value from the closed form in mpmath (hyp2f1 and gamma), at the
    working precision.

    Shares no code with the package.  On the Euclidean region the powers
    are real and the principal value of 2F1(1, e; 1+e; z) on its cut is the
    real part of either one-sided limit.
    """
    s, t, e = mp.mpf(s), mp.mpf(t), mp.mpf(eps)

    def f21(z):
        return mp.re(mp.hyp2f1(1, e, 1 + e, z))

    pref = mp.gamma(e) ** 2 * mp.gamma(1 - e) / (mp.gamma(2 * e) * e) / (s * t)
    if msq is None:
        return pref * ((-s) ** e * f21(1 + s / t) + (-t) ** e * f21(1 + t / s))
    m = mp.mpf(msq)
    q = s + t - m
    return pref * ((-s) ** e * f21(q / t) + (-t) ** e * f21(q / s)
                   - (-m) ** e * f21(m * q / (s * t)))


def sample(rng, n):
    """n massless points (s, t, eps): eps log-uniform in [1e-5, 0.1] or uniform
    in [0.1, 0.999] with equal odds, |t/s| log-uniform in 1e+-8 and |s| in 1e+-2."""
    points = []
    for _ in range(n):
        if rng.random() < 0.5:
            eps = 10.0 ** rng.uniform(-5.0, -1.0)
        else:
            eps = rng.uniform(0.1, 0.999)
        s = -(10.0 ** rng.uniform(-2.0, 2.0))
        points.append((s, s * 10.0 ** rng.uniform(-8.0, 8.0), eps))
    return points


def sample_onemass(rng, n):
    """n one-mass points (s, t, msq, eps): eps log-uniform in [0.002, 0.99],
    |s| log-uniform in 1e+-2, and t/s and msq/s in 1e+-6, redrawn until msq
    is 5 % (relative) clear of the singular lines msq = s, t and s + t."""
    points = []
    while len(points) < n:
        eps = 10.0 ** rng.uniform(math.log10(0.002), math.log10(0.99))
        s = -(10.0 ** rng.uniform(-2.0, 2.0))
        t, msq = (s * 10.0 ** rng.uniform(-6.0, 6.0) for _ in range(2))
        if all(abs(msq / x - 1.0) >= 0.05 for x in (s, t, s + t)):
            points.append((s, t, msq, eps))
    return points
