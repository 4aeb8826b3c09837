"""High-precision reference for the lune potential E(a, eps).

The closed form (circular sector plus wedge, the wedge built from
Im Li2(-a*e^{2i*Phi})) is evaluated in mpmath at 60 significant digits
with ``mpmath.polylog``.  Nothing here calls lunepot, so the reference
stays independent of the package's kernels and of any refactor of them.
``test_perfbench.py`` checks it against ``lunepot.quad_lune``.
"""

from __future__ import annotations

import mpmath

DIGITS = 60

# The tolerance lunepot.checks.check_stability uses.  Points above it are
# counted as accuracy exceedances: lost precision, reported, not failed.
TOL_SCALED_ERR = 1e-6
# A scaled error of 1% means a wrong branch or formula, not lost precision:
# above it a point fails and the run's outputs are reported as incorrect.
FAIL_SCALED_ERR = 1e-2


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
        pi = mpmath.pi
        phi = mpmath.acos((1 - a * a - e2) / (2 * a * e))
        # cos and sin of twice the half-angle Phi at the intersection; the
        # interior logarithm log(1 + a^2 + 2a*c2) reduces exactly to log(e^2)
        c2 = (e2 - 1 - a * a) / (2 * a)
        s2 = mpmath.sqrt(1 - c2 * c2)
        im_li2 = mpmath.im(mpmath.polylog(2, -a * mpmath.mpc(c2, s2)))
        g = (
            2 * im_li2
            + (1 - a * a) * (mpmath.atan2(s2, c2) - mpmath.atan2(a * s2, 1 + a * c2))
            + a * (2 - log_e2) * s2
        )
        if a <= 1:
            wedge = (g - (1 - a * a) * pi) / (8 * pi)
        else:
            wedge = (g + 2 * pi * mpmath.log(a)) / (8 * pi)
        return ((pi - phi) / pi * e2 * (log_e2 - 1) + 8 * wedge) / 4


def scaled_error(value: float, a: float, eps: float) -> float:
    """|value - E_ref| / (eps^2 |log eps^2|)."""
    ref = potential(a, eps)
    with mpmath.workdps(DIGITS):
        e2 = mpmath.mpf(eps) ** 2
        return float(abs(mpmath.mpf(value) - ref) / (e2 * abs(mpmath.log(e2))))
