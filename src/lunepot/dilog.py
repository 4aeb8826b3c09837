"""Complex dilogarithm with controlled branch behaviour.

The principal branch is cut along (1, inf); on the cut a zero imaginary
part picks the side by its sign, +0.0 the limit from above.  The closed forms reached
through ``im_dilog_on_path`` instead approach the cut from below (the
argument -a*e^{2*i*phi} travels through the lower half-plane as phi grows
to pi/2), so that path-aware entry point is what every internal caller
uses; ``dilog_lower_boundary`` exposes the same boundary value directly.

Every value sums two fixed-cut tables, the Taylor series and the
Bernoulli form of Li2(z) - z in u = -log(1 - z) (Lewin, *Polylogarithms
and Associated Functions*, 1981), each cut at a length that a bound on its
argument makes exact to 1e-17, with reflection and inversion for the
arguments outside their reach.  ``li2_parts`` and ``im_li2_path`` take and
return plain floats, with complex values as re/im pairs.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left

from .errors import DomainError

PI = math.pi
PI2_6 = PI * PI / 6.0

__all__ = ["dilog", "dilog_lower_boundary", "im_dilog_on_path"]


# B_k / (k+1)! for k = 0..46, each rounded once to double from the exact
# rational (the tests recompute it in fractions); the odd B_k past B_1 are 0
_LOG_COEF = (
    1.0, -0.25,
    0.027777777777777776, 0.0,
    -0.0002777777777777778, 0.0,
    4.72411186696901e-06, 0.0,
    -9.185773074661964e-08, 0.0,
    1.8978869988971e-09, 0.0,
    -4.0647616451442256e-11, 0.0,
    8.921691020456452e-13, 0.0,
    -1.9939295860721074e-14, 0.0,
    4.518980029619918e-16, 0.0,
    -1.0356517612181247e-17, 0.0,
    2.395218621026187e-19, 0.0,
    -5.581785874325009e-21, 0.0,
    1.3091507554183213e-22, 0.0,
    -3.0874198024267403e-24, 0.0,
    7.315975652702203e-26, 0.0,
    -1.740845657234001e-27, 0.0,
    4.1576356446139e-29, 0.0,
    -9.962148488284622e-31, 0.0,
    2.3940344248961652e-32, 0.0,
    -5.76834735536739e-34, 0.0,
    1.393179479647008e-35, 0.0,
    -3.3721219654850894e-37, 0.0,
    8.178208777562102e-39,
)


class _PowerSeries:
    """sum coef[k] * t^k for a float, a complex or an array of either.

    ``cuts`` lists (bound, length) pairs: for |t| <= bound the first
    ``length`` terms leave a tail sum |coef[k]| * bound^k below 1e-17 of
    |coef[0]| (checked in the tests).  Beyond the last bound the whole
    table is summed.  ``_horner[bisect_left(_bounds, |t|)]`` sums a cut:
    each entry compiles its cut on its first call and puts the compiled
    sum in its own place, so import compiles none.
    """

    def __init__(self, coef, cuts):
        self.coef = coef
        self.cuts = cuts
        self._bounds = tuple(bound for bound, _ in cuts)
        lengths = [n for _, n in cuts] + [len(coef)]
        self._horner = [self._first_call(i, coef[:n]) for i, n in enumerate(lengths)]

    def _first_call(self, i, coef):
        def compile_and_call(t):
            horner = self._horner[i] = _compile_horner(coef)
            return horner(t)

        return compile_and_call

    def __call__(self, t):
        t_max = abs(t)
        if type(t_max) is not float:  # an array
            t_max = float(t_max.max())
        return self._horner[bisect_left(self._bounds, t_max)](t)


def _compile_horner(coef):
    # lambda t: (c[n-1] * t + c[n-2]) * t + ... + c[0]: the operations of
    # acc = acc * t + c from acc = 0.0 without the loop, whose first step
    # gives c[n-1] exactly for a finite t; repr round-trips each float.
    body = repr(coef[-1])
    for c in coef[-2::-1]:
        body = f"({body}) * t + {c!r}"
    return eval(f"lambda t: {body}")


# Li2(z) = sum B_k u^(k+1)/(k+1)! and z = sum (-1)^k u^(k+1)/(k+1)! in
# u = -log(1 - z), so Li2(z) - z = u^2 * sum_(k>=1) (B_k - (-1)^k)/(k+1)! * u^(k-1).
# For |u| <= 1.72, 28 of the 46 terms reach 1e-17; beyond, all 46 are summed.
_LI2_EXCESS = _PowerSeries(
    tuple(c - (-1) ** k / math.factorial(k + 1) for k, c in enumerate(_LOG_COEF))[1:],
    ((1e-4, 4), (1e-3, 5), (1e-2, 7), (0.1, 10), (0.7, 16), (1.72, 28)),
)
# sum z^(n-1)/n^2, cut like _LI2_EXCESS; all 46 terms reach 1e-17 for |z| <= 1/2
_LI2_TAYLOR = _PowerSeries(
    tuple(1.0 / (n * n) for n in range(1, len(_LOG_COEF) + 1)),
    ((1e-4, 4), (1e-3, 6), (1e-2, 8), (0.1, 15), (0.25, 24), (0.4, 36)),
)


def _li2_small(z: complex) -> complex:
    # |z| <= 1 and Re z <= 1/2; beyond |z| = 1/2, u = -log(1 - z) has
    # |u| <= hypot(log 2, pi/3) < 1.27, inside the cuts of _LI2_EXCESS
    if abs(z) <= 0.5:
        return z * _LI2_TAYLOR(z)
    u = -cmath.log(1.0 - z)
    return z + u * u * _LI2_EXCESS(u)


def _li2_unit(z: complex) -> complex:
    # |z| <= 1, by the reflection Li2(z) = pi^2/6 - log z log w - Li2(w),
    # w = 1 - z, right of Re z = 1/2
    if z.real <= 0.5:
        return _li2_small(z)
    w = 1.0 - z
    if not w:
        return complex(PI2_6)
    return PI2_6 - cmath.log(z) * cmath.log(w) - _li2_small(w)


def li2_parts(x: float, y: float):
    """Principal-branch dilogarithm of x + iy, returned as (re, im).

    The branch cut runs along (1, inf).  The sign of a zero imaginary part
    selects the boundary value there: y = +0.0 gives the limit from above
    (im = +pi*log x), y = -0.0 the limit from below (im = -pi*log x).
    """
    r2 = x * x + y * y
    if r2 > 1.0:
        # inversion: Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2/2
        log_neg = cmath.log(complex(-x, -y))
        v = -_li2_unit(complex(x / r2, -y / r2)) - PI2_6 - 0.5 * log_neg * log_neg
    else:
        v = _li2_unit(complex(x, y))
    return v.real, v.imag


def im_li2_path(a: float, c2: float, s2: float) -> float:
    """Im Li2(-a*(c2 + i*s2)) continued along the lower half-plane.

    c2, s2 are cos and sin of twice the angle parameter, with s2 >= 0, so
    the argument -a*e^{2*i*phi} stays in the closed lower half-plane.  At
    s2 == 0, c2 == -1 the argument hits the real axis at a; for a > 1 the
    continuation selects the boundary value from below, im = -pi*log(a).
    """
    if s2 == 0.0:
        if c2 < 0.0:
            # argument is +a on the real axis
            if a > 1.0:
                return -PI * math.log(a)
            return 0.0
        return 0.0  # argument is -a: real axis left of 1, dilog is real
    return li2_parts(-a * c2, -a * s2)[1]


def _path_cos_sin(phi: float) -> tuple[float, float]:
    # (cos 2*phi, sin 2*phi) for im_li2_path at the path parameter phi,
    # checked by the caller to lie in [0, pi/2] within 1e-12: a sine below
    # 0 from roundoff is clamped, keeping the path in Im <= 0, and from
    # pi/2 on the point is (-1, 0) exactly
    if phi >= 0.5 * PI:
        return -1.0, 0.0
    two_phi = 2.0 * phi
    s2 = math.sin(two_phi)
    if s2 < 0.0:
        s2 = 0.0
    return math.cos(two_phi), s2


def dilog(z: complex) -> complex:
    """Principal-branch dilogarithm sum_{n>=1} z^n / n^2, continued to C.

    Summed from fixed-cut series tables with no convergence test and no
    term cap; within 5e-15 relative error of the true value over the disc,
    beyond it and on the cut (checked against mpmath in the tests).  On the
    cut (real z > 1) a zero imaginary part picks the side by its sign: +0.0
    gives the value approached from above, -0.0 the one from below.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"dilogarithm argument must be finite, got {z}")
    return complex(*li2_parts(z.real, z.imag))


def dilog_lower_boundary(a: float) -> complex:
    """Boundary value of the dilogarithm on the cut, approached from below.

    For a > 1 the imaginary part is exactly -pi*log(a).
    """
    if not 1.0 < a < math.inf:
        raise DomainError(f"lower boundary value needs a finite a > 1, got {a}")
    return complex(*li2_parts(a, -0.0))


def im_dilog_on_path(a: float, phi: float) -> float:
    """Im Li2(-a*e^{2*i*phi}) continued along phi in [0, pi/2].

    The path stays in the closed lower half-plane, so for phi < pi/2 (or
    a <= 1) this is the principal branch; at phi = pi/2 with a > 1 it is
    the boundary value from below, -pi*log(a).
    """
    if not 0.0 <= a < math.inf:
        raise DomainError(f"modulus must be finite and >= 0, got {a}")
    if not -1e-12 <= phi <= 0.5 * math.pi + 1e-12:
        raise DomainError(f"path parameter {phi} outside [0, pi/2]")
    return im_li2_path(a, *_path_cos_sin(phi))
