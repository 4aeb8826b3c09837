"""High-precision reference for the tests: the overlap potential E(a, eps)
from its closed form in mpmath at 60 significant digits, or at the digits
a caller asks for (radii far below 1e-14 need more).

The wedge term and the band core are built from ``mpmath.polylog`` at the
primitive argument -a*e^(2i*Phi), so nothing here shares code or series
with the package.
"""

from __future__ import annotations

import mpmath

DIGITS = 60


def _primitive(a: mpmath.mpf, s: mpmath.mpf) -> mpmath.mpf:
    # the angular primitive G(a, Phi) at the half-angle whose chord radius
    # is s, inside the caller's working precision
    c2 = (s * s - 1 - a * a) / (2 * a)
    s2 = mpmath.sqrt(1 - c2 * c2)
    im_li2 = mpmath.im(mpmath.polylog(2, -a * mpmath.mpc(c2, s2)))
    return (
        2 * im_li2
        + (1 - a * a) * (mpmath.atan2(s2, c2) - mpmath.atan2(a * s2, 1 + a * c2))
        + a * (2 - mpmath.log(s * s)) * s2
    )


def wedge(a: float, eps: float, digits: int = DIGITS) -> mpmath.mpf:
    """The wedge term at the exact double inputs (0 off the open band)."""
    with mpmath.workdps(digits):
        a = mpmath.mpf(a)
        e = mpmath.mpf(eps)
        if a <= 1 - e or a >= 1 + e:
            return mpmath.mpf(0)
        pi = mpmath.pi
        g = _primitive(a, e)
        if a <= 1:
            return (g - (1 - a * a) * pi) / (8 * pi)
        return (g + 2 * pi * mpmath.log(a)) / (8 * pi)


def core(a: float, eps: float) -> mpmath.mpf:
    """The paper's core (G(a, Phi) - pi*(1 - a^2)) / (8*pi) at the exact
    double inputs, on the open band: the chord radius is eps while
    a^2 <= 1 + eps^2 and sigma = (a^2 - 1)/eps beyond."""
    with mpmath.workdps(DIGITS):
        a = mpmath.mpf(a)
        e = mpmath.mpf(eps)
        q2 = (a - 1) * (a + 1)
        g = _primitive(a, e if q2 <= e * e else q2 / e)
        return (g - (1 - a * a) * mpmath.pi) / (8 * mpmath.pi)


def potential(a: float, eps: float, digits: int = DIGITS) -> mpmath.mpf:
    """E(a, eps) at the exact double inputs, to about ``digits`` digits."""
    with mpmath.workdps(digits):
        a = mpmath.mpf(a)
        e = mpmath.mpf(eps)
        e2 = e * e
        log_e2 = mpmath.log(e2)
        if a <= 1 - e:
            return e2 * (log_e2 - 1) / 4
        if a >= 1 + e:
            return mpmath.mpf(0)
        phi = mpmath.acos((1 - a * a - e2) / (2 * a * e))
        return ((mpmath.pi - phi) / mpmath.pi * e2 * (log_e2 - 1) + 8 * wedge(a, eps, digits)) / 4


def scaled_error(value: float, a: float, eps: float) -> float:
    """|value - E_ref| / (eps^2 |log eps^2|)."""
    ref = potential(a, eps)
    with mpmath.workdps(DIGITS):
        e2 = mpmath.mpf(eps) ** 2
        return float(abs(mpmath.mpf(value) - ref) / (e2 * abs(mpmath.log(e2))))
