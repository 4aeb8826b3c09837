"""High-precision reference for the tests: the overlap potential E(a, eps)
from its closed form in mpmath at 60 significant digits.

The wedge term is built from ``mpmath.polylog`` at the primitive argument
-a*e^(2i*Phi), so nothing here shares code or series with the package.
"""

from __future__ import annotations

import mpmath

DIGITS = 60


def wedge(a: float, eps: float) -> mpmath.mpf:
    """The wedge term at the exact double inputs (0 off the open band)."""
    with mpmath.workdps(DIGITS):
        a = mpmath.mpf(a)
        e = mpmath.mpf(eps)
        if a <= 1 - e or a >= 1 + e:
            return mpmath.mpf(0)
        e2 = e * e
        pi = mpmath.pi
        c2 = (e2 - 1 - a * a) / (2 * a)
        s2 = mpmath.sqrt(1 - c2 * c2)
        im_li2 = mpmath.im(mpmath.polylog(2, -a * mpmath.mpc(c2, s2)))
        g = (
            2 * im_li2
            + (1 - a * a) * (mpmath.atan2(s2, c2) - mpmath.atan2(a * s2, 1 + a * c2))
            + a * (2 - mpmath.log(e2)) * s2
        )
        if a <= 1:
            return (g - (1 - a * a) * pi) / (8 * pi)
        return (g + 2 * pi * mpmath.log(a)) / (8 * pi)


def potential(a: float, eps: float) -> mpmath.mpf:
    """E(a, eps) at the exact double inputs, to about 60 digits."""
    with mpmath.workdps(DIGITS):
        a = mpmath.mpf(a)
        e = mpmath.mpf(eps)
        e2 = e * e
        log_e2 = mpmath.log(e2)
        if a <= 1 - e:
            return e2 * (log_e2 - 1) / 4
        if a >= 1 + e:
            return mpmath.mpf(0)
        phi = mpmath.acos((1 - a * a - e2) / (2 * a * e))
        return ((mpmath.pi - phi) / mpmath.pi * e2 * (log_e2 - 1) + 8 * wedge(a, eps)) / 4


def scaled_error(value: float, a: float, eps: float) -> float:
    """|value - E_ref| / (eps^2 |log eps^2|)."""
    ref = potential(a, eps)
    with mpmath.workdps(DIGITS):
        e2 = mpmath.mpf(eps) ** 2
        return float(abs(mpmath.mpf(value) - ref) / (e2 * abs(mpmath.log(e2))))
