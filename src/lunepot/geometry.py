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
import os
import sys
import warnings
from typing import NamedTuple

from .errors import DomainError, EpsilonRangeWarning

# numpy is imported inside the functions that use it, so that importing
# lunepot and its scalar calls do not load it

PI = math.pi
CLAMP_SLACK = 1e-12
# the smallest radius whose square is a normal double: 2^-511
EPS_MIN = math.sqrt(sys.float_info.min)
_tuple_new = tuple.__new__
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


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
    ``_replace`` included.  ``eps`` must lie in [EPS_MIN, 1); values above
    1/2 are accepted with a warning since the closed forms remain valid
    there but are untested.
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
        if not EPS_MIN <= self.eps <= 0.5:
            check_radius(self.eps)  # raises or warns; skipped on the common path

    @classmethod
    def from_point(cls, point, eps: float) -> "OverlapQuery":
        """Build a query from a planar point, reduced to its norm."""
        x, y = point
        return cls(math.hypot(x, y), eps)


# namedtuple's _replace, inherited by OverlapQuery and asymptotic.BandPoint,
# calls _make from the collections module; every namedtuple shares its code,
# and the radius warning looks past it
_REPLACE_CODE = OverlapQuery._replace.__code__


def check_radius(eps: float) -> None:
    """Reject a disc radius outside [EPS_MIN, 1), where EPS_MIN ~ 1.49e-154
    is the smallest radius whose square is a normal double; warn, at the
    first caller outside this package, for one above 1/2."""
    if not EPS_MIN <= eps < 1.0:
        raise DomainError(f"disc radius must lie in [{EPS_MIN:.3g}, 1), got {eps}")
    if eps > 0.5:
        frame, level = sys._getframe(1), 2
        while frame is not None and (
            frame.f_code.co_filename.startswith(_PACKAGE_DIR)
            or frame.f_code is _REPLACE_CODE
        ):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"disc radius {eps} is above 1/2; results are untested there",
            EpsilonRangeWarning,
            stacklevel=level,
        )


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
    the tie a^2 == 1 + eps^2 falls to the far overlap branch.
    """
    return REGIMES[int(classify_regimes(q.a, q.eps))]


REGIMES = tuple(Regime)


def classify_regimes(a: np.ndarray, eps: float) -> np.ndarray:
    """``classify_regime`` over an array of centre distances at one radius,
    with the boundary conventions documented there: the index in REGIMES of
    each point's regime."""
    import numpy as np

    a = np.asarray(a, dtype=float)
    e = eps
    x = a - 1.0
    index = REGIMES.index
    return np.select(
        [x <= -e, x < 0.0, x == 0.0, x >= e, a * a < 1.0 + e * e],
        [
            index(Regime.NESTED),
            index(Regime.OVERLAP_INNER_DISC),
            index(Regime.OVERLAP_AT_UNIT),
            index(Regime.OUTSIDE),
            index(Regime.OVERLAP_OUTER_NEAR),
        ],
        index(Regime.OVERLAP_OUTER_FAR),
    )


def _clamped_unit(value: float, what: str) -> float:
    if value > 1.0:
        if value > 1.0 + CLAMP_SLACK:
            raise DomainError(f"{what} = {value} lies outside [-1, 1]")
        return 1.0
    if value < -1.0:
        if value < -1.0 - CLAMP_SLACK:
            raise DomainError(f"{what} = {value} lies outside [-1, 1]")
        return -1.0
    return value


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
    cosine, which stays accurate right up to the band edges where a plain
    arccos square-root amplifies roundoff.  The cosine's numerator is
    formed from x = a - 1 as -(x*(2 + x) + eps^2): 1 - a^2 would lose the
    digits of x near the unit distance.
    """
    a, e = q.a, q.eps
    if a == 0.0:
        raise DomainError("intersection angle undefined at zero centre distance")
    check_band(a, e)
    return _band_angle(a, a - 1.0, e)


def _band_angle(a: float, x: float, e: float) -> float:
    # intersection_angle from x = a - 1, for a > 0 in the band;
    # quadrature.quad_lune calls it directly on the open band.  The clamps
    # are written out: they are on its path.
    lo = x + e                  # a - (1 - eps)
    hi = (1.0 - a) + e          # (1 + eps) - a
    cos_phi = -(x * (2.0 + x) + e * e) / (2.0 * a * e)
    if not -1.0 <= cos_phi <= 1.0:
        cos_phi = _clamped_unit(cos_phi, "intersection-angle cosine")
    prod = (lo if lo > 0.0 else 0.0) * (a + 1.0 + e) * (hi if hi > 0.0 else 0.0) * (1.0 + a - e)
    return math.atan2(math.sqrt(prod) / (2.0 * a * e), cos_phi)


def big_l(theta: float, a: float) -> float:
    """The map L(theta) = (s^2(theta) - 1 - a^2) / (2*a); range [-1, 1]."""
    if a <= 0.0:
        raise DomainError(f"centre distance must be positive, got {a}")
    s = chord_radius(theta, a)
    return (s * s - 1.0 - a * a) / (2.0 * a)


def phi_map(theta: float, a: float) -> float:
    """Half-angle map Phi(theta) = arccos(L(theta)) / 2, in [0, pi/2]."""
    val = _clamped_unit(big_l(theta, a), "half-angle cosine")
    return 0.5 * math.acos(val)


def angular_region(q: OverlapQuery) -> list[tuple[float, float]]:
    """Angular intervals covered by the unit circle's boundary arc when the
    centre sits at or beyond the unit distance (a in [1, 1+eps]).

    One interval [pi - alpha, phi] at a = 1; two intervals
    [2pi - alpha, 2pi] and [pi - alpha, phi] while a^2 < 1 + eps^2; a
    single interval [phi + pi, 2pi] once a^2 >= 1 + eps^2.
    """
    a, e = q.a, q.eps
    if a < 1.0 or a > 1.0 + e:
        raise DomainError(f"a = {a} outside [1, 1+eps]")
    phi = intersection_angle(q)
    alpha = math.asin(_clamped_unit(1.0 / a, "turning-angle sine"))
    if a == 1.0:
        return [(PI - alpha, phi)]
    if a * a < 1.0 + e * e:
        return [(2.0 * PI - alpha, 2.0 * PI), (PI - alpha, phi)]
    return [(phi + PI, 2.0 * PI)]
