"""Hot kernels, in pure Python.

Scalar routines on the critical path: the principal-branch dilogarithm,
the closed-form angular primitives, and the embedded 15/7 quadrature
panels.  They take and return plain floats, with complex values as re/im
pairs.

The dilogarithm sums two fixed-cut tables, the Taylor series and the
Bernoulli form of Li2(z) - z in u = -log(1 - z) (Lewin, *Polylogarithms
and Associated Functions*, 1981), each cut at a length that a bound on its
argument makes exact to 1e-17: no sum tests for convergence or has a cap.

``wedge_panel``, the quadrature oracle's hot loop, integrates the wedge in
the arc angle beta of the unit circle, (1 - a*cos beta)*(log s^2 - 1) with
h = sin^2(beta/2) written as (-x + 2a*h)*(log(x^2 + 4a*h) - 1), x = a - 1:
one sin and one log per node.  It evaluates that integrand inline over one
node table instead of calling ``_wedge_f`` per node, and keeps ``_panel``'s
operation order, so its results are bit-identical to
``_panel(_wedge_f, ...)``.  ``cos_log_panel``, the panel of the cosine-log
integrand, is the same panel negated: that integrand is the wedge's in u.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_left
from fractions import Fraction

PI = math.pi
PI2_6 = PI * PI / 6.0
DBL_EPSILON = sys.float_info.epsilon


def backend_name() -> str:
    """Name of the kernel implementation; there is one, in pure Python."""
    return "python"


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


def angular_primitive_core(a: float, c2: float, s2: float, log_term: float) -> float:
    """Closed-form primitive of -2*(1 + a*cos(2*phi))*(log(1+a^2+2a*cos 2phi) - 1).

    c2 = cos(2*phi), s2 = sin(2*phi) >= 0, and log_term = log(1+a^2+2a*c2)
    supplied by the caller (often available in an exactly reduced form).
    Normalised so the value at phi = 0 is zero.
    """
    two_phi = math.atan2(s2, c2)
    im2 = 2.0 * im_li2_path(a, c2, s2)
    mid = (1.0 - a) * (1.0 + a) * (two_phi - math.atan2(a * s2, 1.0 + a * c2))
    if s2 == 0.0:
        tail = 0.0
    else:
        tail = a * (2.0 - log_term) * s2
    return im2 + mid + tail


def cos_log_primitive_core(a: float, phi: float) -> tuple[float, float]:
    """Closed-form primitive of -(1 - a*cos u)*(log(1+a^2-2a*cos u) - 1),
    with a bound on its rounding error: (value, err).

    Normalised so the value at phi = 0 is zero.  Continuous limit 0 is
    returned at the a = 1, phi -> 0 corner where the log diverges; its
    error there is below |phi|.  Elsewhere ``err`` is DBL_EPSILON times
    the sum of the magnitudes of the three terms summed and of 2*a*arc:
    rounding cos(phi) and sin(phi) moves z = a*e^(i*phi) by an ulp, which
    moves Im Li2(z) by up to |z| times |arg(1 - z)| = arc ulps.  Near the
    corner the terms are O(phi*|log phi|) and cancel to O(phi^3*|log phi|).
    """
    if a == 1.0 and abs(phi) < 1e-14:
        return 0.0, abs(phi)
    c = math.cos(phi)
    s = math.sin(phi)
    half = math.sin(0.5 * phi)
    w2 = (1.0 - a) * (1.0 - a) + 4.0 * a * half * half   # |1 - a e^{i phi}|^2
    im = li2_parts(a * c, a * s)[1]
    arc = math.atan2(a * s, 1.0 - a * c)
    if w2 < 1e-300:
        tail = 0.0
    else:
        tail = 2.0 * a * (0.5 * math.log(w2) - 1.0) * s
    im2 = 2.0 * im
    mid = (1.0 - a) * (1.0 + a) * (phi + arc)
    err = DBL_EPSILON * (abs(im2) + abs(mid) + abs(tail) + 2.0 * a * abs(arc))
    return im2 + mid + tail, err


def chord_radius_core(theta: float, a: float) -> float:
    """Polar radius -a*cos(theta) + sqrt(1 - a^2 sin^2 theta), discriminant
    clamped at zero (callers validate the domain)."""
    st = a * math.sin(theta)
    disc = 1.0 - st * st
    if disc < 0.0:
        disc = 0.0
    return -a * math.cos(theta) + math.sqrt(disc)


# Gauss-Kronrod 15/7 pair on [-1, 1]; positive abscissae, centre last.
# QUADPACK dqk15's values (Piessens et al., 1983), each rounded once to double.
_XGK = (
    0.99145537112081263920685469752633,
    0.94910791234275852452618968404785,
    0.86486442335976907278971278864093,
    0.74153118559939443986386477328079,
    0.58608723546769113029414484569301,
    0.40584515137739716690660641207696,
    0.20778495500789846760068940377324,
)
_WGK = (
    0.02293532201052922496373200805897,
    0.06309209262997855329070066318920,
    0.10479001032225018383987632254152,
    0.14065325971552591874518959051024,
    0.16900472663926790282658342659855,
    0.19035057806478540991325640242101,
    0.20443294007529889241416199923465,
)
_WGK_C = 0.20948214108472782801299917489171
_WG = (
    0.12948496616886969327061143267908,
    0.27970539148927666790146777142378,
    0.38183005050511894495036977548898,
)
_WG_C = 0.41795918367346938775510204081633


def _wedge_f(beta: float, arg: tuple[float, float, float, float]) -> float:
    # (1 - a cos beta)(log s^2 - 1) at the arc angle beta, with
    # h = sin^2(beta/2): 1 - a cos beta = -x + 2a h, s^2 = x^2 + 4a h;
    # arg = (-x, x^2, 2a, 4a), x = a - 1
    nx, x2, a2, a4 = arg
    sh = math.sin(0.5 * beta)
    h = sh * sh
    t = x2 + a4 * h
    if t < 1e-300:
        return 0.0
    return (nx + a2 * h) * (math.log(t) - 1.0)


def _panel(f, a, lo: float, hi: float):
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fc = f(c, a)
    k = _WGK_C * fc
    g = _WG_C * fc
    for i in range(7):
        fp = f(c + h * _XGK[i], a)
        fm = f(c - h * _XGK[i], a)
        k += _WGK[i] * (fp + fm)
        if i & 1:
            g += _WG[(i - 1) >> 1] * (fp + fm)
    return k * h, g * h


# (abscissa, Kronrod weight, Gauss weight or 0) per pair of nodes +-x
_GK_TABLE = tuple(zip(_XGK, _WGK, (0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0)))


def wedge_panel(arg: tuple[float, float, float, float], lo: float, hi: float):
    """15- and 7-point estimates of the integral of
    (1 - a cos beta)(log s^2 - 1) over [lo, hi] in the arc angle beta,
    arg = (-x, x^2, 2a, 4a) with x = a - 1.

    ``_panel(_wedge_f, arg, lo, hi)`` with the integrand written out at
    each node, in the same operation order: the results are bit-identical,
    without two Python calls per node.
    """
    sin = math.sin
    log = math.log
    nx, x2, a2, a4 = arg
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    sh = sin(0.5 * c)
    hc = sh * sh
    t = x2 + a4 * hc
    fc = 0.0 if t < 1e-300 else (nx + a2 * hc) * (log(t) - 1.0)
    k = _WGK_C * fc
    g = _WG_C * fc
    for x, wk, wg in _GK_TABLE:
        dx = h * x
        sh = sin(0.5 * (c + dx))
        hb = sh * sh
        t = x2 + a4 * hb
        fp = 0.0 if t < 1e-300 else (nx + a2 * hb) * (log(t) - 1.0)
        sh = sin(0.5 * (c - dx))
        hb = sh * sh
        t = x2 + a4 * hb
        fm = 0.0 if t < 1e-300 else (nx + a2 * hb) * (log(t) - 1.0)
        k += wk * (fp + fm)
        if wg:
            g += wg * (fp + fm)
    return k * h, g * h


def cos_log_panel(a: float, lo: float, hi: float):
    """15- and 7-point estimates of the integral of
    -(1 - a*cos u)*(log(1+a^2-2a*cos u) - 1) over [lo, hi]: the negated
    ``wedge_panel`` at x = a - 1, whose 1 - a*cos u = (1 - a) + 2a*sin^2(u/2)
    does not cancel near a = 1."""
    k, g = wedge_panel((1.0 - a, (1.0 - a) * (1.0 - a), 2.0 * a, 4.0 * a), lo, hi)
    return -k, -g
