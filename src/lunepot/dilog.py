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
from fractions import Fraction

from .errors import DomainError

PI = math.pi
PI2_6 = PI * PI / 6.0

__all__ = ["dilog", "dilog_lower_boundary", "im_dilog_on_path"]


def _log_series_coeffs(n: int = 46) -> tuple[float, ...]:
    # B_k / (k+1)! computed exactly, then rounded once to double.
    bern = [Fraction(0)] * (n + 1)
    bern[0] = Fraction(1)
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * bern[k]
        bern[m] = -acc / (m + 1)
    fact = Fraction(1)
    out = []
    for k in range(n + 1):
        fact *= k + 1
        out.append(float(bern[k] / fact))
    return tuple(out)


_LOG_COEF = _log_series_coeffs()


class _PowerSeries:
    """sum coef[k] * t^k for a float, a complex or an array of either.

    ``cuts`` lists (bound, length) pairs: for |t| <= bound the first
    ``length`` terms leave a tail sum |coef[k]| * bound^k below 1e-17 of
    |coef[0]| (checked in the tests).  Beyond the last bound the whole
    table is summed.  ``_horner[bisect_left(_bounds, |t|)]`` sums a cut.
    """

    def __init__(self, coef, cuts):
        self.coef = coef
        self.cuts = cuts
        self._bounds = tuple(bound for bound, _ in cuts)
        self._horner = tuple(map(_compile_horner, [coef[:n] for _, n in cuts] + [coef]))

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
