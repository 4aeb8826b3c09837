"""Pure-Python hot kernels.

Scalar routines on the critical path: the principal-branch dilogarithm,
the closed-form angular primitives, and the embedded 15/7 quadrature
panels.  A compiled twin (``_kernels_cy``) implements the same functions
with identical semantics; ``lunepot._backend`` picks one at import time.

Everything here works on plain floats (complex values as re/im pairs) so
the two implementations stay line-for-line comparable, with two
exceptions.  ``wedge_panel``, the quadrature oracle's hot loop, evaluates
its integrand inline over one node table instead of calling ``_wedge_f``
per node.  It keeps ``_panel``'s operation order, so its results are
bit-identical to ``_panel(_wedge_f, ...)``.  ``wedge_panel_turn``, the
same panel in the substituted variable tau = sqrt(theta - theta_t) that
the oracle uses beyond the unit distance, has no compiled twin.
"""

from __future__ import annotations

import math
from fractions import Fraction

PI = math.pi
PI2_6 = PI * PI / 6.0

_SERIES_RTOL = 1e-17
_SERIES_CAP = 200


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


def _li2_taylor(x: float, y: float):
    # sum z^n / n^2 for |z| <= 1/2
    sr, si = x, y
    pr, pi_ = x, y
    for n in range(2, _SERIES_CAP + 1):
        pr, pi_ = pr * x - pi_ * y, pr * y + pi_ * x
        inv = 1.0 / (n * n)
        tr = pr * inv
        ti = pi_ * inv
        sr += tr
        si += ti
        bound = _SERIES_RTOL * (math.hypot(sr, si) + 1.0)
        if math.hypot(tr, ti) <= bound:
            return sr, si, True
    return sr, si, False


def _li2_log_series(ur: float, ui: float):
    # sum_k B_k/(k+1)! * u^(k+1) with u = -log(1-z); converges for |u| < 2*pi
    sr, si = ur, ui                      # k = 0 term (coefficient 1)
    pr, pi_ = ur, ui
    for k in range(1, len(_LOG_COEF)):
        pr, pi_ = pr * ur - pi_ * ui, pr * ui + pi_ * ur
        c = _LOG_COEF[k]
        if c == 0.0:
            continue
        tr = c * pr
        ti = c * pi_
        sr += tr
        si += ti
        bound = _SERIES_RTOL * (math.hypot(sr, si) + 1.0)
        if math.hypot(tr, ti) <= bound:
            return sr, si, True
    return sr, si, False


def _li2_small(x: float, y: float):
    # |z| <= 1 and Re z <= 1/2
    if x * x + y * y <= 0.25:
        return _li2_taylor(x, y)
    wx = 1.0 - x
    wy = -y
    ur = -0.5 * math.log(wx * wx + wy * wy)
    ui = -math.atan2(wy, wx)
    return _li2_log_series(ur, ui)


def _li2_unit(x: float, y: float):
    # |z| <= 1
    if x > 0.5:
        wx = 1.0 - x
        wy = -y
        if wx == 0.0 and wy == 0.0:
            return PI2_6, 0.0, True
        sr, si, ok = _li2_small(wx, wy)
        lzr = 0.5 * math.log(x * x + y * y)
        lzi = math.atan2(y, x)
        lwr = 0.5 * math.log(wx * wx + wy * wy)
        lwi = math.atan2(wy, wx)
        return (
            PI2_6 - (lzr * lwr - lzi * lwi) - sr,
            -(lzr * lwi + lzi * lwr) - si,
            ok,
        )
    return _li2_small(x, y)


def li2_parts(x: float, y: float):
    """Principal-branch dilogarithm of x + iy, returned as (re, im, converged).

    The branch cut runs along (1, inf).  The sign of a zero imaginary part
    selects the boundary value there: y = +0.0 gives the limit from above
    (im = +pi*log x), y = -0.0 the limit from below (im = -pi*log x).
    """
    if x == 0.0 and y == 0.0:
        return 0.0, 0.0, True
    r2 = x * x + y * y
    if r2 > 1.0:
        ir2 = 1.0 / r2
        ur, ui, ok = _li2_unit(x * ir2, -y * ir2)
        lr = 0.5 * math.log(r2)
        li = math.atan2(-y, -x)
        return (
            -ur - PI2_6 - 0.5 * (lr * lr - li * li),
            -ui - lr * li,
            ok,
        )
    return _li2_unit(x, y)


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
    _, im, _ = li2_parts(-a * c2, -a * s2)
    return im


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


def cos_log_primitive_core(a: float, phi: float) -> float:
    """Closed-form primitive of -(1 - a*cos u)*(log(1+a^2-2a*cos u) - 1).

    Normalised so the value at phi = 0 is zero.  Continuous limit 0 is
    returned at the a = 1, phi -> 0 corner where the log diverges.
    """
    if a == 1.0 and abs(phi) < 1e-14:
        return 0.0
    c = math.cos(phi)
    s = math.sin(phi)
    half = math.sin(0.5 * phi)
    w2 = (1.0 - a) * (1.0 - a) + 4.0 * a * half * half   # |1 - a e^{i phi}|^2
    _, im, _ = li2_parts(a * c, a * s)
    arc = math.atan2(a * s, 1.0 - a * c)
    if w2 < 1e-300:
        tail = 0.0
    else:
        tail = 2.0 * a * (0.5 * math.log(w2) - 1.0) * s
    return 2.0 * im + (1.0 - a) * (1.0 + a) * (phi + arc) + tail


def chord_radius_core(theta: float, a: float) -> float:
    """Polar radius -a*cos(theta) + sqrt(1 - a^2 sin^2 theta), discriminant
    clamped at zero (callers validate the domain)."""
    st = a * math.sin(theta)
    disc = 1.0 - st * st
    if disc < 0.0:
        disc = 0.0
    return -a * math.cos(theta) + math.sqrt(disc)


# Gauss-Kronrod 15/7 pair on [-1, 1]; positive abscissae, centre last.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
)
_WGK_C = 0.209482141084728
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
)
_WG_C = 0.417959183673469


def _wedge_f(theta: float, a: float) -> float:
    s = chord_radius_core(theta, a)
    t = s * s
    if t < 1e-300:
        return 0.0
    return t * (math.log(t) - 1.0)


def _cos_log_f(u: float, a: float) -> float:
    c = math.cos(u)
    half = math.sin(0.5 * u)
    arg = (1.0 - a) * (1.0 - a) + 4.0 * a * half * half
    if arg < 1e-300:
        return 0.0
    return -(1.0 - a * c) * (math.log(arg) - 1.0)


def _panel(f, a: float, lo: float, hi: float):
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


def wedge_panel(a: float, lo: float, hi: float):
    """15- and 7-point estimates of the integral of s^2*(log s^2 - 1) over
    [lo, hi] in the polar angle.

    ``_panel(_wedge_f, a, lo, hi)`` with the chord radius and the integrand
    written out at each node, in the same operation order: the results are
    bit-identical, without two Python calls per node.
    """
    sin = math.sin
    cos = math.cos
    sqrt = math.sqrt
    log = math.log
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    na = -a
    st = a * sin(c)
    d = 1.0 - st * st
    if d < 0.0:
        d = 0.0
    s = na * cos(c) + sqrt(d)
    t = s * s
    fc = 0.0 if t < 1e-300 else t * (log(t) - 1.0)
    k = _WGK_C * fc
    g = _WG_C * fc
    for x, wk, wg in _GK_TABLE:
        dx = h * x
        theta = c + dx
        st = a * sin(theta)
        d = 1.0 - st * st
        if d < 0.0:
            d = 0.0
        s = na * cos(theta) + sqrt(d)
        t = s * s
        fp = 0.0 if t < 1e-300 else t * (log(t) - 1.0)
        theta = c - dx
        st = a * sin(theta)
        d = 1.0 - st * st
        if d < 0.0:
            d = 0.0
        s = na * cos(theta) + sqrt(d)
        t = s * s
        fm = 0.0 if t < 1e-300 else t * (log(t) - 1.0)
        k += wk * (fp + fm)
        if wg:
            g += wg * (fp + fm)
    return k * h, g * h


def wedge_panel_turn(arg: tuple[float, float], lo: float, hi: float):
    """15- and 7-point estimates of the integral of s^2*(log s^2 - 1) over
    theta = theta_t + tau^2 for tau in [lo, hi], arg = (theta_t, a): the
    integrand in tau is 2*tau*s^2*(log s^2 - 1).

    At a turning angle theta_t of a > 1, where a*|sin theta_t| = 1, the
    chord radius has a square-root endpoint in theta; in tau it is smooth.
    Written out like ``wedge_panel``: bit-identical to ``_panel`` over
    2*tau*_wedge_f(theta_t + tau*tau, a).
    """
    sin = math.sin
    cos = math.cos
    sqrt = math.sqrt
    log = math.log
    theta_t, a = arg
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    na = -a
    theta = theta_t + c * c
    st = a * sin(theta)
    d = 1.0 - st * st
    if d < 0.0:
        d = 0.0
    s = na * cos(theta) + sqrt(d)
    t = s * s
    fc = 2.0 * c * (0.0 if t < 1e-300 else t * (log(t) - 1.0))
    k = _WGK_C * fc
    g = _WG_C * fc
    for x, wk, wg in _GK_TABLE:
        dx = h * x
        tau = c + dx
        theta = theta_t + tau * tau
        st = a * sin(theta)
        d = 1.0 - st * st
        if d < 0.0:
            d = 0.0
        s = na * cos(theta) + sqrt(d)
        t = s * s
        fp = 2.0 * tau * (0.0 if t < 1e-300 else t * (log(t) - 1.0))
        tau = c - dx
        theta = theta_t + tau * tau
        st = a * sin(theta)
        d = 1.0 - st * st
        if d < 0.0:
            d = 0.0
        s = na * cos(theta) + sqrt(d)
        t = s * s
        fm = 2.0 * tau * (0.0 if t < 1e-300 else t * (log(t) - 1.0))
        k += wk * (fp + fm)
        if wg:
            g += wg * (fp + fm)
    return k * h, g * h


def cos_log_panel(a: float, lo: float, hi: float):
    """15- and 7-point estimates of the integral of
    -(1 - a*cos u)*(log(1+a^2-2a*cos u) - 1) over [lo, hi]."""
    return _panel(_cos_log_f, a, lo, hi)
