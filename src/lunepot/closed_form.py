"""Closed-form evaluation of the overlap potential.

The potential of the overlap region (lune) splits into a circular-sector
part, known in elementary terms, and a wedge part ``F`` cut by the unit
circle.  ``F`` has two exact representations: a direct one built from the
angular primitive ``angular_primitive`` (valid across the whole overlap
band), and a change-of-order one built from radial primitives (valid for
centre distances up to 1, retained purely as a cross-check because it
cancels badly).  ``lune_potential`` assembles the full piecewise result;
the band-only terms check their distance with ``geometry.check_band``.

For centre distances up to 1 the wedge term is the primitive difference
(G(a, Phi) - G(a, pi/2))/(8*pi).  Beyond 1 the unit circle bounds the
region from below, so the roles of the limits swap and the same primitive
yields (G(a, Phi) + 2*pi*log(a))/(8*pi), with G(a, pi/2) = -2*pi*log(a)
supplied by the lower-boundary dilogarithm value.  Both expressions use
the exact reduction of the half-angle data: the cosine of the doubled
argument is (eps^2 - 1 - a^2)/(2a) and the interior logarithm is exactly
2*log(eps), which avoids the cancellation a naive chord-radius composition
would suffer at small radii.

The wedge term itself calls no dilogarithm: with z = -a*e^(2i*Phi), the
reflection Li2(z) = pi^2/6 - log z*log(1-z) - Li2(1-z) and ``dilog``'s
Bernoulli table for Li2(1-z) - (1-z) give every piece of
G(a, Phi) - pi*(1 - a^2) at the size of the result, O(eps^2*log eps),
instead of as the difference of O(1) values, accurate to about 1e-16 of
eps^2*|log eps^2| at every radius.  Each series is summed by straight-line
Horner expressions built at import, one per cut length.  The wedge is
written twice: inline in the scalar ``lune_potential``, which indexes the
Horner expressions itself and calls nothing in ``geometry``, and in
``_band_wedge_array``, which ``lune_potential_array`` runs over arrays and
every other user (``wedge_term``, ``wedge_branch_value``,
``asymptotic.band_core``) runs over one lane.
"""

from __future__ import annotations

import math
import sys
import warnings
from bisect import bisect_left

from .dilog import _LI2_EXCESS, _LI2_TAYLOR, _PowerSeries, _path_cos_sin, im_li2_path, li2_parts
from .errors import AccuracyWarning, DomainError
from .geometry import (
    CLAMP_SLACK,
    OverlapQuery,
    _band_root,
    check_band,
    check_queries,
    intersection_angle,
)

# numpy is imported inside the functions that use it, so that importing
# lunepot and its scalar calls do not load it

# perfbench/tracing.py wraps this former call of lune_potential under this
# name, so it stays importable from here
from .geometry import classify_regime  # noqa: F401

PI = math.pi
EIGHT_PI = 8.0 * PI
DBL_EPSILON = sys.float_info.epsilon

__all__ = [
    "angular_primitive",
    "cos_log_primitive",
    "radial_log_primitive",
    "wedge_term",
    "wedge_term_reordered",
    "lune_potential",
    "lune_potential_array",
    "lune_potential_profile_array",
]


def angular_primitive(a: float, phi: float) -> float:
    """Primitive of -2*(1 + a*cos 2u)*(log(1 + a^2 + 2a*cos 2u) - 1) in u,
    normalised to vanish at u = 0, evaluated at u = phi in [0, pi/2].

    The dilogarithm term is continued through the lower half-plane, so at
    phi = pi/2 with a > 1 the value is -2*pi*log(a); for a <= 1 it is
    pi*(1 - a^2).
    """
    if not 0.0 < a < math.inf:
        raise DomainError(f"modulus must be finite and positive, got {a}")
    if not -1e-12 <= phi <= 0.5 * PI + 1e-12:
        raise DomainError(f"angle {phi} outside [0, pi/2]")
    c2, s2 = _path_cos_sin(phi)
    arg = 1.0 + a * a + 2.0 * a * c2
    if arg < 1e-300:
        log_term = 0.0
        if s2 != 0.0:
            warnings.warn(
                f"log argument underflowed in the angular primitive at a={a}, phi={phi}",
                AccuracyWarning,
                stacklevel=2,
            )
    else:
        log_term = math.log(arg)
    return angular_primitive_core(a, c2, s2, log_term)


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


def cos_log_primitive(a: float, phi: float) -> float:
    """Primitive of -(1 - a*cos u)*(log(1 + a^2 - 2a*cos u) - 1) in u,
    normalised to vanish at u = 0, for a in (0, 1] and phi in [0, pi].

    Continuous limit 0 at the logarithmically singular corner a = 1,
    phi -> 0.  Near that corner the closed form's terms cancel: it warns
    with AccuracyWarning wherever the bound on their rounding error
    exceeds 1e-8 of the value.
    """
    if not 0.0 < a <= 1.0:
        raise DomainError(f"modulus must lie in (0, 1], got {a}")
    if not -1e-12 <= phi <= PI + 1e-12:
        raise DomainError(f"angle {phi} outside [0, pi]")
    value, err = cos_log_primitive_core(a, phi)
    if err > 1e-8 * abs(value):
        warnings.warn(
            f"cancellation near the corner a=1, phi=0: rounding error up to {err:.2e} "
            f"in {value:.6e} (a={a}, phi={phi})",
            AccuracyWarning,
            stacklevel=2,
        )
    return value


def radial_log_primitive(a: float, r: float) -> float:
    """Primitive (in r) of arccos((1 - a^2 - r^2)/(2ar)) * r * log(r) / (2*pi),
    for a in (0, 1] and r in [1-a, 1+a], normalised to vanish at r = 1-a.
    """
    if not 0.0 < a <= 1.0:
        raise DomainError(f"modulus must lie in (0, 1], got {a}")
    if not 1.0 - a - CLAMP_SLACK <= r <= 1.0 + a + CLAMP_SLACK:
        raise DomainError(f"radius {r} outside [1-a, 1+a] for a = {a}")
    # Both angles of the triangle with sides 1, a and r are atan2s of one
    # factored sine, 2*a*r*sin(ell) = 2*a*sin(chi) = root, formed from
    # x = a - 1: the arccos arguments hit +/-1 at the endpoints r = 1 -/+ a,
    # where a plain arccos square-root amplifies roundoff.
    x = a - 1.0
    q2 = x * (2.0 + x)
    root = _band_root(x, r)
    if r <= 0.0:
        arc_term = 0.0
    else:
        arc_term = r * r * (math.log(r * r) - 1.0) * math.atan2(root, -(q2 + r * r))
    chi = math.atan2(root, 2.0 + q2 - r * r)
    return (arc_term + cos_log_primitive_core(a, chi)[0]) / EIGHT_PI


# The wedge term without cancellation.  On the band the primitive argument
# is z = -a*e^(2i*Phi) = a*e^(i*theta), theta = 2*Phi - pi in [-pi/2, 0],
# and w = 1 - z = d + i*a*s2 has modulus |w| = e and argument psi.  The
# reflection Li2(z) = pi^2/6 - log z*log w - Li2(w) turns the closed form
# 2*Im Li2(z) + (1 - a^2)*(theta - psi) + 2*a*(1 - log|w|)*s2 of
# G(a, Phi) - pi*(1 - a^2) into
#
#     -m*psi - x*(2 + x)*theta - 2*log|w|*((theta - sin theta) + x*s2)
#     - 2*Im(Li2(w) - w),        m = 2*(log1p(x) - x) - x^2,  x = a - 1,
#
# using Im w = a*s2 = -a*sin(theta).  The O(eps) parts cancel analytically,
# so every term left is of the size of the result and an ulp in any input
# costs an ulp of the result.  Beyond the unit distance the wedge adds
# pi*(1 - a^2 + 2*log a) = pi*m.
#
# Li2(w) - w = u^2 * _LI2_EXCESS(u) in u = -log z (see dilog).  No
# series below tests for convergence: each is cut, before it is summed, at
# a length that a bound on its argument makes exact to 1e-17.  For a in
# [1/2, 2] and theta in [-pi/2, 0], |u| <= hypot(log 2, pi/2) < 1.72, inside
# the cuts of _LI2_EXCESS.

# theta - sin(theta) = theta^3 * (1/3! - theta^2/5! + ...), in t = theta^2 <= (pi/2)^2
_SIN_TAIL = _PowerSeries(
    tuple((-1) ** (n + 1) / math.factorial(2 * n + 1) for n in range(1, 14)),
    ((1e-8, 2), (1e-4, 4), (1e-2, 5), (0.1, 6), (2.5, 10)),
)
# log1p(x) - x = x^2 * (-1/2 + x/3 - x^2/4 + ...), summed for |x| < 0.05
_LOG1P_TAIL = _PowerSeries(
    tuple((-1.0) ** (n + 1) / n for n in range(2, 17)),
    ((1e-6, 3), (1e-4, 5), (1e-3, 6), (1e-2, 9), (0.05, 13)),
)
_LOG1P_SERIES_MAX = 0.05


def _log1p_minus_x(x: np.ndarray) -> np.ndarray:
    """log1p(x) - x without cancellation over an array: the series below
    |x| = 0.05, the direct difference (relative error under 1e-14) above."""
    import numpy as np

    return np.where(np.abs(x) < _LOG1P_SERIES_MAX, x * x * _LOG1P_TAIL(x), np.log1p(x) - x)


def _im_li2_excess(u):
    # Im(Li2(w) - w) for w = 1 - exp(-u), |u| < 1.72; complex scalar or array
    return (u * u * _LI2_EXCESS(u)).imag


def _im_li2_excess_taylor(z, log_z, log_w):
    # Im(Li2(w) - w) for w = 1 - z with |z| < 1/2, by the reflection from
    # the Taylor series of Li2(z).  Only radii above 1/2 reach |z| < 1/2,
    # and there nothing cancels.
    return -(log_z * log_w).imag - (z * _LI2_TAYLOR(z)).imag - (1.0 - z).imag


# lune_potential indexes the straight-line evaluators itself, without the
# type test and call of _PowerSeries.__call__; each is the series' own list,
# so a cut compiled on its first call is compiled for both.
_LI2_BOUNDS, _LI2_HORNER = _LI2_EXCESS._bounds, _LI2_EXCESS._horner
_SIN_BOUNDS, _SIN_HORNER = _SIN_TAIL._bounds, _SIN_TAIL._horner
_LOG1P_BOUNDS, _LOG1P_HORNER = _LOG1P_TAIL._bounds, _LOG1P_TAIL._horner


def _band_wedge_array(a, x, e, root):
    # The wedge term over band lanes a, x = a - 1 in (-e, e), lane for lane:
    # the regrouped form above, plus pi*m beyond the unit distance, over
    # 8*pi; e a float or an array.  root = 2a*s2 is the square root of
    # (2 + x - e)(2 + x + e)(x + e)(e - x), exact at the band edges; theta
    # and psi are its atan2 against -2a*c2 = 2 + q2 - e^2 and
    # 2*Re w = e^2 - q2, with q2 = a^2 - 1.  lune_potential repeats these
    # operations on floats.
    import numpy as np

    e2 = e * e
    q2 = x * (2.0 + x)
    theta = np.arctan2(-root, 2.0 + q2 - e2)
    psi = np.arctan2(root, e2 - q2)
    log_e = np.log(e)
    log_z = np.log1p(x) + 1j * theta
    im = _im_li2_excess(-log_z)
    low = a < 0.5
    if low.any():
        z = (0.5 * (2.0 + q2 - e2) - 0.5j * root)[low]
        im[low] = _im_li2_excess_taylor(z, log_z[low], (log_e + 1j * psi)[low])
    m = 2.0 * _log1p_minus_x(x) - x * x
    t2 = theta * theta
    s2 = root / (2.0 * a)
    g = -m * psi - q2 * theta - 2.0 * log_e * (theta * t2 * _SIN_TAIL(t2) + x * s2) - 2.0 * im
    return np.where(x > 0.0, g + PI * m, g) / EIGHT_PI


def _branch_from_wedge(a: np.ndarray, e: float, w: np.ndarray) -> np.ndarray:
    # The primitive-difference branch value from the wedge w at the same
    # band distances: the wedge term up to the unit distance, and its
    # reflection-symmetric continuation beyond (orientation of the primitive
    # limits kept fixed instead of following the region).  This is the
    # quantity whose scaled band profile collapses onto a symmetric limit
    # curve; it does not enter the potential.  On the near outer branch it
    # is (G(a, Phi) - 2*pi*log a)/(8*pi) - G_turn/(4*pi)
    # = wedge - (R + pi*m)/(4*pi), with G_turn the primitive at the turning
    # half-angle (pi + 2*asin(1/a))/4 and R = G_turn - pi*(1 - a^2).  There
    # z = 1 - i*q, q = sqrt(x*(2 + x)), so theta = -atan(q), w = i*q and
    # s2 = q/a: R + pi*m is 8*pi times _band_wedge_array with |w| = q in
    # place of eps and root = 2*a*s2 = 2*q.
    import numpy as np

    x = a - 1.0
    out = np.where(x > 0.0, -w, w)
    near = (x > 0.0) & (x * (2.0 + x) < e * e)
    if near.any():
        a, x = a[near], x[near]
        q = np.sqrt(x * (2.0 + x))
        out[near] = w[near] - 2.0 * _band_wedge_array(a, x, q, 2.0 * q)
    return out


def wedge_term(q: OverlapQuery) -> float:
    """Wedge part of the overlap potential: the contribution of the region
    cut by the unit circle, signed so that the sector-plus-wedge assembly
    reproduces the region integral.  Vanishes at both band edges 1 +/- eps
    and is continuous across the interior thresholds.
    """
    import numpy as np

    check_band(q.a, q.eps)
    return float(_potential_array(np.array([q.a]), q.eps, _band_wedge_array)[1][0])


def wedge_branch_value(q: OverlapQuery) -> float:
    """Primitive-difference branch value of the wedge term.

    Coincides with ``wedge_term`` for centre distances up to 1; beyond,
    it continues the primitive difference with fixed limit orientation
    instead of following the region, which makes its profile scaled by
    eps^2*log(eps^2) collapse onto a reflection-symmetric limit curve.
    Used by the band-profile diagnostics only; one lane of
    ``lune_potential_profile_array``.
    """
    check_band(q.a, q.eps)
    return float(lune_potential_profile_array([q.a], q.eps)[1][0])


def wedge_term_reordered(q: OverlapQuery) -> float:
    """Wedge term through the change-of-order representation.

    Valid for centre distances in (1-eps, 1] only.  Kept as an independent
    cross-check of ``wedge_term``; it is cancellation-prone for small radii
    and is not part of the stable evaluation path.
    """
    a, e = q.a, q.eps
    if not (1.0 - e < a <= 1.0):
        raise DomainError(f"a = {a} outside (1-eps, 1] for eps = {e}")
    phi = intersection_angle(q)
    e2 = e * e
    sector = phi * e2 * (math.log(e2) - 1.0) / EIGHT_PI
    return sector - (radial_log_primitive(a, e) - radial_log_primitive(a, 1.0 - a))


def lune_potential(q: OverlapQuery) -> float:
    """Potential of the overlap of the unit disc with the eps-disc, i.e.
    the integral of log|y|/(2*pi) over the overlap region translated to the
    query point.

    Constant eps^2*(log eps^2 - 1)/4 while the small disc is nested, zero
    once the discs separate, and sector-plus-wedge in between, the regime
    read off x = a - 1.  Stable at every radius: ``lune_potential_stable``
    is this function.
    """
    a = q.a
    e = q.eps
    x = a - 1.0
    e2 = e * e
    if x <= -e:
        return 0.25 * e2 * (math.log(e2) - 1.0)
    if x >= e:
        return 0.0
    root = math.sqrt((2.0 + x - e) * (2.0 + x + e) * (x + e) * (e - x))
    q2 = x * (2.0 + x)
    # the sector angle: sin and cos of intersection_angle times 2*a*eps
    phi = math.atan2(root, -(q2 + e2))
    # 8*pi times the wedge: the operations of _band_wedge_array on floats
    theta = math.atan2(-root, 2.0 + q2 - e2)
    psi = math.atan2(root, e2 - q2)
    log_e = math.log(e)
    l1p = math.log1p(x)
    if abs(x) < _LOG1P_SERIES_MAX:
        m = 2.0 * (x * x * _LOG1P_HORNER[bisect_left(_LOG1P_BOUNDS, abs(x))](x)) - x * x
    else:
        m = 2.0 * (l1p - x) - x * x
    if a < 0.5:
        z = complex(0.5 * (2.0 + q2 - e2), -0.5 * root)
        im = _im_li2_excess_taylor(z, complex(l1p, theta), complex(log_e, psi))
    else:
        u = complex(-l1p, -theta)
        im = (u * u * _LI2_HORNER[bisect_left(_LI2_BOUNDS, abs(u))](u)).imag
    t2 = theta * theta
    tail = _SIN_HORNER[bisect_left(_SIN_BOUNDS, t2)](t2)
    s2 = root / (2.0 * a)
    g = -m * psi - q2 * theta - 2.0 * log_e * (theta * t2 * tail + x * s2) - 2.0 * im
    if x > 0.0:
        g += PI * m
    return 0.25 * ((PI - phi) / PI * e2 * (math.log(e2) - 1.0) + g / PI)


def lune_potential_array(a, eps: float) -> np.ndarray:
    """``lune_potential`` over an array of centre distances at one radius.

    The same regimes and closed form as the scalar function, lane for lane,
    without building a query per point: the values agree with it to
    rounding.  Raises DomainError for a radius outside [EPS_MIN, 1), then
    for a negative or non-finite distance.
    """
    return _potential_array(check_queries(a, eps), eps, _band_wedge_array)[0]


def lune_potential_profile_array(a, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """``lune_potential_array`` and ``wedge_branch_value`` over the same
    centre distances, from one evaluation of the wedge; checked as
    ``lune_potential_array`` is."""
    a = check_queries(a, eps)
    values, wedge = _potential_array(a, eps, _band_wedge_array)
    return values, _branch_from_wedge(a, eps, wedge)


def _potential_array(a: np.ndarray, e: float, band_wedge):
    # (values, wedge): the nested constant, 0 outside, and on the open band
    # the sector plus 8 times the wedge band_wedge(a, x, e, root) of the
    # band lanes, with that wedge (0 off the band); ``a`` is already
    # checked.  One root serves the sector angle, as in lune_potential,
    # and the wedge.  The band edges x = -/+ e belong to the nested and
    # outside regimes, where the wedge is 0; just inside them it is
    # O(sqrt(distance)).
    import numpy as np

    x = a - 1.0
    e2 = e * e
    out = np.zeros(a.shape)
    out[x <= -e] = 0.25 * e2 * (math.log(e2) - 1.0)
    wedge = np.zeros(a.shape)
    band = (x > -e) & (x < e)
    if band.any():
        a, x = a[band], x[band]
        root = np.sqrt((2.0 + x - e) * (2.0 + x + e) * (x + e) * (e - x))
        phi = np.arctan2(root, -(x * (2.0 + x) + e2))
        wedge[band] = w = band_wedge(a, x, e, root)
        out[band] = 0.25 * ((PI - phi) / PI * e2 * (math.log(e2) - 1.0) + 8.0 * w)
    return out, wedge


def lune_potential_point(point, eps: float) -> float:
    """Potential at a planar point; reduces to the norm and evaluates."""
    return lune_potential(OverlapQuery.from_point(point, eps))


def turning_angle_primitive_closed_form(a: float) -> float:
    """Independent closed form of the angular primitive at the turning
    half-angle: 2*Im Li2(1 - i*q) + (1 - a^2)*asin(1/a) + (2 - log(q^2))*q
    with q = sqrt(a^2 - 1); exposed for validation.
    """
    if a <= 1.0:
        raise DomainError(f"turning angle needs a > 1, got {a}")
    q2 = (a - 1.0) * (a + 1.0)
    q = math.sqrt(q2)
    alpha = math.asin(min(1.0 / a, 1.0))
    im = li2_parts(1.0, -q)[1]
    return 2.0 * im + (1.0 - a * a) * alpha + (2.0 - math.log(q2)) * q
