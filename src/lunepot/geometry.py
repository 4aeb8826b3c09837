"""Geometry of the unit disc overlapped by a small disc.

The configuration is a unit disc and a disc of radius ``eps`` whose centre
sits at distance ``a`` from the unit disc's centre.  Everything downstream
(closed forms, series, quadrature) is driven by the branch structure in
``a`` relative to the thresholds ``1-eps``, ``1``, ``sqrt(1+eps^2)`` and
``1+eps``, and by the elementary maps defined here: the polar chord radius
``s``, its half-angle companion ``Phi``, the circle intersection angle, and
the angular description of the region cut out beyond the unit distance.
``check_radius`` and ``check_band`` decide the domain for every module.

All functions are pure; radial symmetry reduces any planar query point to
its norm.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import NamedTuple

from .errors import DomainError

# numpy is imported inside the functions that use it, so that importing
# lunepot and its scalar calls do not load it

PI = math.pi
CLAMP_SLACK = 1e-12
# the smallest radius whose square is a normal double: 2^-511
EPS_MIN = math.sqrt(sys.float_info.min)
_tuple_new = tuple.__new__


class Regime(enum.Enum):
    """Branch of the potential selected by the centre distance."""

    NESTED = "Nested"
    OVERLAP_INNER_DISC = "OverlapInnerDisc"
    OVERLAP_AT_UNIT = "OverlapAtUnit"
    OVERLAP_OUTER_NEAR = "OverlapOuterNear"
    OVERLAP_OUTER_FAR = "OverlapOuterFar"
    OUTSIDE = "Outside"


class _QueryFields(NamedTuple):
    a: float
    eps: float


class OverlapQuery(_QueryFields):
    """A single evaluation point: centre distance ``a`` and radius ``eps``.

    An immutable NamedTuple, checked on every construction, ``_make`` and
    ``_replace`` included.  ``eps`` must lie in [EPS_MIN, 1).
    """

    __slots__ = ()

    def __new__(cls, a: float, eps: float) -> "OverlapQuery":
        q = _tuple_new(cls, (a, eps))
        q.__post_init__()
        return q

    @classmethod
    def _make(cls, iterable) -> "OverlapQuery":
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a >= 0.0):
            raise DomainError(f"centre distance must be finite and >= 0, got {self.a}")
        if not EPS_MIN <= self.eps < 1.0:
            check_radius(self.eps)  # raises; valid radii skip the call

    @classmethod
    def from_point(cls, point, eps: float) -> "OverlapQuery":
        """Build a query from a planar point, reduced to its norm."""
        x, y = point
        return cls(math.hypot(x, y), eps)


def check_radius(eps: float) -> None:
    """Reject a disc radius outside [EPS_MIN, 1), where EPS_MIN ~ 1.49e-154
    is the smallest radius whose square is a normal double."""
    if not EPS_MIN <= eps < 1.0:
        raise DomainError(f"disc radius must lie in [{EPS_MIN:.3g}, 1), got {eps}")


def check_band(a: float, eps: float) -> None:
    """Reject a centre distance outside the overlap band [1-eps, 1+eps],
    within CLAMP_SLACK; a nan distance is rejected too."""
    if not 1.0 - eps - CLAMP_SLACK <= a <= 1.0 + eps + CLAMP_SLACK:
        raise DomainError(f"a = {a} outside the overlap band [1-eps, 1+eps] for eps = {eps}")


def check_queries(a, eps: float) -> np.ndarray:
    """``OverlapQuery``'s checks over an array of centre distances at one
    radius, the radius first: the distances as a float array."""
    import numpy as np

    check_radius(eps)
    a = np.asarray(a, dtype=float)
    bad = ~(np.isfinite(a) & (a >= 0.0))
    if bad.any():
        raise DomainError(f"centre distance must be finite and >= 0, got {a[bad].flat[0]}")
    return a


def classify_regime(q: OverlapQuery) -> Regime:
    """Unique branch tag for a query.

    Boundary conventions, on x = a - 1 (exact for a in [1/2, 2]) and not
    on the rounded 1 -/+ eps: the nested (x <= -eps) and outside
    (x >= eps) intervals are closed, the unit distance is its own tag, and
    the seam a^2 = 1 + eps^2 is tested as x*(2 + x) against eps^2, its tie
    falling to the far overlap branch.
    """
    return REGIMES[classify_regimes(q.a, q.eps)]


REGIMES = tuple(Regime)


def classify_regimes(a, eps: float):
    """``classify_regime`` over a float or a float array of centre
    distances at one radius, by the same expression: the index in REGIMES
    of each point's regime."""
    x = a - 1.0
    # the leading 0 makes numpy add bool arrays as integers, not as "or"
    return 0 + (x > -eps) + (x >= 0.0) + (x > 0.0) + (x * (2.0 + x) >= eps * eps) + (x >= eps)


def chord_radius_core(theta: float, a: float) -> float:
    """Polar radius -a*cos(theta) + sqrt(1 - a^2 sin^2 theta), discriminant
    clamped at zero (callers validate the domain)."""
    st = a * math.sin(theta)
    disc = 1.0 - st * st
    if disc < 0.0:
        disc = 0.0
    return -a * math.cos(theta) + math.sqrt(disc)


def chord_radius(theta: float, a: float) -> float:
    """Polar radius s(theta) = -a*cos(theta) + sqrt(1 - a^2 sin^2 theta).

    This is the boundary of the unit circle centred at distance ``a``,
    seen from the origin.  For a > 1 it exists only for angles with
    |sin(theta)| <= 1/a (within a small clamp slack at the edges).
    """
    if not 0.0 <= a < math.inf:
        raise DomainError(f"centre distance must be finite and >= 0, got {a}")
    if not -math.inf < theta < math.inf:
        raise DomainError(f"angle must be finite, got {theta}")
    if a > 1.0:
        st = a * math.sin(theta)
        if st * st > 1.0 + CLAMP_SLACK:
            raise DomainError(
                f"theta = {theta} outside the chord domain for a = {a}"
            )
    return chord_radius_core(theta, a)


def intersection_angle(q: OverlapQuery) -> float:
    """Polar angle of the upper intersection vertex, in [0, pi].

    Equals arccos((1 - a^2 - eps^2) / (2*a*eps)); zero at a = 1-eps and
    pi at a = 1+eps.  Evaluated as atan2 of the factored sine against the
    cosine, both times 2*a*eps, as ``closed_form.lune_potential`` forms
    them: that stays accurate right up to the band edges, where a plain
    arccos square-root amplifies roundoff.  The cosine's numerator is
    formed from x = a - 1 as -(x*(2 + x) + eps^2): 1 - a^2 would lose the
    digits of x near the unit distance.
    """
    a, e = q.a, q.eps
    if a == 0.0:
        raise DomainError("intersection angle undefined at zero centre distance")
    check_band(a, e)
    return _band_angle(a - 1.0, e)


def _band_root(x: float, r: float) -> float:
    # sqrt((2 + x - r)(2 + x + r)(x + r)(r - x)) with x = a - 1: in the
    # triangle with sides 1, a and r, 2*a*r times the sine of the angle
    # opposite the unit side.  Each factor is clamped at 0, so that a point
    # within a rounding slack outside the band gets the edge value 0.
    f1 = 2.0 + x - r
    f2 = 2.0 + x + r
    f3 = x + r
    f4 = r - x
    return math.sqrt(
        (f1 if f1 > 0.0 else 0.0) * (f2 if f2 > 0.0 else 0.0)
        * (f3 if f3 > 0.0 else 0.0) * (f4 if f4 > 0.0 else 0.0)
    )


def _band_angle(x: float, e: float) -> float:
    # intersection_angle from x = a - 1, unchecked; closed_form.lune_potential
    # and quadrature.quad_lune write it out on the open band, where no
    # factor of _band_root needs its clamp
    return math.atan2(_band_root(x, e), -(x * (2.0 + x) + e * e))


def big_l(theta: float, a: float) -> float:
    """The map L(theta) = (s^2(theta) - 1 - a^2) / (2*a); range [-1, 1]."""
    if a <= 0.0:
        raise DomainError(f"centre distance must be positive, got {a}")
    s = chord_radius(theta, a)
    return (s * s - 1.0 - a * a) / (2.0 * a)


def phi_map(theta: float, a: float) -> float:
    """Half-angle map Phi(theta) = arccos(L(theta)) / 2, in [0, pi/2]."""
    val = big_l(theta, a)
    if abs(val) > 1.0 + CLAMP_SLACK:
        raise DomainError(f"half-angle cosine = {val} lies outside [-1, 1]")
    return 0.5 * math.acos(min(max(val, -1.0), 1.0))


def angular_region(q: OverlapQuery) -> list[tuple[float, float]]:
    """Angular intervals covered by the unit circle's boundary arc when the
    centre sits at or beyond the unit distance (a in [1, 1+eps]).

    One interval [pi - alpha, phi] at a = 1; two intervals
    [2pi - alpha, 2pi] and [pi - alpha, phi] while a^2 < 1 + eps^2; a
    single interval [phi + pi, 2pi] once a^2 >= 1 + eps^2, tested as
    ``classify_regime`` tests it.  The domain is decided on x = a - 1, the
    upper edge within CLAMP_SLACK as ``check_band`` allows it.
    """
    a, e = q.a, q.eps
    x = a - 1.0
    if not 0.0 <= x <= e + CLAMP_SLACK:
        raise DomainError(f"a = {a} outside [1, 1+eps]")
    phi = _band_angle(x, e)
    alpha = math.asin(1.0 / a)
    if x == 0.0:
        return [(PI - alpha, phi)]
    if x * (2.0 + x) < e * e:
        return [(2.0 * PI - alpha, 2.0 * PI), (PI - alpha, phi)]
    return [(phi + PI, 2.0 * PI)]
