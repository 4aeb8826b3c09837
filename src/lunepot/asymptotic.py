"""Small-radius machinery: band reparametrisation and the series
expansions of the paper.

The overlap band [1-eps, 1+eps] is mapped to the unit interval by
lam = (a-1)/(2*eps) + 1/2.  The rescaled core quantity

    H(lam, eps) = (G(a, Phi) - pi*(1 - a^2)) / (8*pi)

(with G the angular primitive at the reduced half-angle) admits two-term
and three-term expansions in eps on the two sides of the crossover
a^2 = 1 + eps^2.  ``lune_potential_series`` is the series route, one lane
of its array form: the sector plus the wedge term rebuilt from the inner
expansion, which equals H~ itself up to the unit distance and

    F = H~ + (1 - a^2)/8 + log(a)/4

beyond it, where H~ is the inner expansion evaluated with the first-case
half-angle data (valid across the whole band) and the extra terms are
computed cancellation-free from x = a - 1.

The stable evaluator needs no series: ``closed_form`` evaluates the wedge
without cancellation, to about 1e-16 of eps^2*|log eps^2| at every radius,
so ``lune_potential_stable`` is ``closed_form.lune_potential`` itself.
``band_core`` forms H through the same closed-form wedge, over one lane.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .closed_form import (
    _band_wedge_array,
    _log1p_minus_x,
    _potential_array,
    lune_potential,
    lune_potential_profile_array,
    wedge_branch_value,
)
from .dilog import im_li2_path
from .errors import DomainError
from .geometry import EPS_MIN, OverlapQuery, check_band, check_queries, check_radius

# numpy is imported inside the functions that use it, so that importing
# lunepot and its scalar calls do not load it

# perfbench/tracing.py wraps this former call of band_core under this name,
# so it stays importable from here
from .closed_form import angular_primitive_core  # noqa: F401

PI = math.pi
_tuple_new = tuple.__new__

__all__ = [
    "BandPoint",
    "BandCoefficients",
    "to_band",
    "from_band",
    "band_core",
    "band_coefficients",
    "band_core_series",
    "unit_wedge_series",
    "band_angle_series",
    "lune_potential_series",
    "lune_potential_series_array",
    "lune_potential_stable",
    "profile_value",
    "band_profile",
]


class _BandFields(NamedTuple):
    lam: float
    eps: float


class BandPoint(_BandFields):
    """Band coordinate lam in [0, 1] with the disc radius eps, checked as
    ``geometry.check_radius`` checks it.

    An immutable NamedTuple, checked on every construction, ``_make`` and
    ``_replace`` included, as ``geometry.OverlapQuery`` is.
    """

    __slots__ = ()

    def __new__(cls, lam: float, eps: float) -> "BandPoint":
        p = _tuple_new(cls, (lam, eps))
        p.__post_init__()
        return p

    @classmethod
    def _make(cls, iterable) -> "BandPoint":
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    def __post_init__(self) -> None:
        if not -1e-12 <= self.lam <= 1.0 + 1e-12:
            raise DomainError(f"band coordinate {self.lam} outside [0, 1]")
        check_radius(self.eps)


class BandCoefficients(NamedTuple):
    """Series coefficients of the rescaled core quantity.

    Inner branch (a^2 <= 1 + eps^2): value = c_log*eps^2*log(eps^2)
    + c_quad*eps^2.  Outer branch: value = c0 + c1*eps + c2*eps^2.
    """

    branch: str
    c_log: float | None = None
    c_quad: float | None = None
    c0: float | None = None
    c1: float | None = None
    c2: float | None = None


def to_band(a: float, eps: float) -> BandPoint:
    """Map a centre distance inside the band to its band coordinate,
    checking the radius first."""
    check_radius(eps)
    check_band(a, eps)
    lam = 0.5 + 0.5 * (a - 1.0) / eps
    return BandPoint(min(max(lam, 0.0), 1.0), eps)


def from_band(p: BandPoint) -> float:
    """Centre distance of a band coordinate: 1 - (1 - 2*lam)*eps."""
    return 1.0 - (1.0 - 2.0 * p.lam) * p.eps


def band_core(p: BandPoint) -> float:
    """Exact rescaled core (G(a, Phi) - pi*(1 - a^2)) / (8*pi).

    Below the unit distance this equals the wedge term itself; above it
    encodes the nontrivial primitive contribution of the outer branches.
    Formed without cancellation by ``closed_form._band_wedge_array`` over
    one lane, with the chord radius eps replaced by (a^2 - 1)/eps where
    a^2 > 1 + eps^2: a few 1e-17 of eps^2*|log eps^2| on the inner branch
    and 1e-14 relative on the outer branch, away from its ends, at radii
    from 1e-14 to 1/2.
    """
    import numpy as np

    e = p.eps
    a = np.array([from_band(p)])
    x = a - 1.0
    q2 = x * (2.0 + x)
    s = np.where(q2 <= e * e, e, q2 / e)
    # from_band can round x an ulp past +/-eps: the clamp then makes root
    # exactly 0 with |w| = s, the band-edge value
    s = np.minimum(np.maximum(s, np.abs(x)), 2.0 + x)
    root = np.sqrt((2.0 + x - s) * (2.0 + x + s) * (x + s) * (s - x))
    # On the outer branch theta runs on to -pi at lam = 1, so |u| exceeds
    # the 1.72 of the Li2 table's cuts: all 46 terms are summed there, and
    # their tail is not bounded by 1e-17.  The wedge adds pi*m beyond the
    # unit distance, which the core leaves out.
    h = _band_wedge_array(a, x, s, root)
    if x[0] > 0.0:
        h -= (2.0 * _log1p_minus_x(x) - x * x) / 8.0
    return float(h[0])


def _band_angle(lam, sign: float = 1.0):
    # (beta, sq, omega) = (sign*(1 - 2*lam), sqrt(lam*(1 - lam)),
    # arccos(beta)) at a float or an array of band coordinates: the angle
    # data of both coefficient branches (sign -1 on the outer one) and of
    # band_angle_series.  A float takes math's functions, an array numpy's.
    beta = sign * (1.0 - 2.0 * lam)
    sq2 = lam * (1.0 - lam)
    if type(beta) is float:
        return beta, math.sqrt(max(sq2, 0.0)), math.acos(min(max(beta, -1.0), 1.0))
    import numpy as np

    return beta, np.sqrt(np.maximum(sq2, 0.0)), np.arccos(np.clip(beta, -1.0, 1.0))


def _inner_coeffs(lam):
    # (c_log, c_quad) at a float or an array of band coordinates
    beta, sq, omega_p = _band_angle(lam)
    c_log = beta * sq / (4.0 * PI)
    c_quad = beta * (beta * omega_p - 3.0 * sq) / (4.0 * PI)
    return c_log, c_quad


def _outer_coeffs(lam: float) -> tuple[float, float, float]:
    beta, sq, omega_m = map(float, _band_angle(lam, -1.0))
    lg = math.log(2.0 * beta)
    im = im_li2_path(1.0, math.cos(2.0 * omega_m), math.sin(2.0 * omega_m))
    c0 = (im + 4.0 * beta * (1.0 - lg) * sq) / (4.0 * PI)
    c1 = beta * ((PI - 2.0 * omega_m) + 2.0 * beta * (1.0 - 2.0 * lg) * sq) / (4.0 * PI)
    c2 = beta * beta * (PI - beta * (1.0 + 2.0 * lg) * sq) / (8.0 * PI)
    return c0, c1, c2


def band_coefficients(p: BandPoint) -> BandCoefficients:
    """Series coefficients at a band point; the branch is selected by the
    sign test a^2 <= 1 + eps^2 on the mapped centre distance, made as
    ``geometry.classify_regime`` makes it but with the tie on the inner
    branch."""
    x = from_band(p) - 1.0
    if x * (2.0 + x) <= p.eps * p.eps:
        c_log, c_quad = _inner_coeffs(p.lam)
        return BandCoefficients(branch="Inner", c_log=float(c_log), c_quad=float(c_quad))
    c0, c1, c2 = _outer_coeffs(p.lam)
    return BandCoefficients(branch="Outer", c0=c0, c1=c1, c2=c2)


def _inner_series(lam, eps: float):
    c_log, c_quad = _inner_coeffs(lam)
    e2 = eps * eps
    return c_log * e2 * math.log(e2) + c_quad * e2


def band_core_series(p: BandPoint) -> float:
    """Series value of the rescaled core: two terms on the inner branch,
    three on the outer.  Falls back to the exact core within 1e-14 of the
    branch seam, where the outer logarithm degenerates."""
    x = from_band(p) - 1.0
    e = p.eps
    if x * (2.0 + x) <= e * e:
        return float(_inner_series(p.lam, e))
    if 4.0 * p.lam - 2.0 < 1e-14:
        return band_core(p)
    c0, c1, c2 = _outer_coeffs(p.lam)
    return c0 + c1 * e + c2 * e * e


def unit_wedge_series(eps: float) -> float:
    """Cubic expansion of the wedge term at the unit distance:
    (2*eps^3*log(eps^3) - 5*eps^3) / (144*pi)."""
    if not EPS_MIN <= eps <= 0.5:
        raise DomainError(f"disc radius must lie in [{EPS_MIN:.3g}, 1/2], got {eps}")
    e3 = eps * eps * eps
    return (6.0 * e3 * math.log(eps) - 5.0 * e3) / (144.0 * PI)


def band_angle_series(p: BandPoint) -> float:
    """Three-term expansion of the intersection angle in band coordinates:
    arccos(1-2*lam) + sqrt(lam(1-lam))*eps + (3/4)(1-2*lam)sqrt(lam(1-lam))*eps^2."""
    beta, sq, base = map(float, _band_angle(p.lam))
    return base + sq * p.eps + 0.75 * beta * sq * p.eps * p.eps


def _stable_wedge_array(a: np.ndarray, x: np.ndarray, e: float, root) -> np.ndarray:
    # series-based wedge term over band lanes a and x = a - 1: the inner
    # expansion gives the core H~ = (G - pi*(1-a^2))/(8*pi) directly; beyond
    # the unit distance the wedge adds (1-a^2)/8 + log(a)/4, both computed
    # cancellation-free from x.  root, unused, keeps the signature of
    # closed_form._band_wedge_array for _potential_array.
    import numpy as np

    ht = _inner_series(np.clip(0.5 + 0.5 * x / e, 0.0, 1.0), e)
    return np.where(a > 1.0, ht + 0.25 * _log1p_minus_x(x) - 0.125 * x * x, ht)


# The stable evaluator is the exact closed form at every radius.
lune_potential_stable = lune_potential


def lune_potential_series(q: OverlapQuery) -> float:
    """Overlap potential through the paper's series route (``--mode
    asymptotic``): ``lune_potential`` off the band, and on it the exact
    sector plus the wedge term from the inner expansion.  Its error falls
    with the radius, about 2e-7 of eps^2*|log eps^2| at eps = 1e-5.  One
    lane of ``lune_potential_series_array``."""
    return float(lune_potential_series_array([q.a], q.eps)[0])


def lune_potential_series_array(a, eps: float) -> np.ndarray:
    """``lune_potential_series`` over an array of centre distances at one
    radius.  Checks the radius, then the distances, as
    ``closed_form.lune_potential_array`` does."""
    return _potential_array(check_queries(a, eps), eps, _stable_wedge_array)[0]


def profile_value(a: float, eps: float) -> float:
    """Branch value of the wedge term used by the scaled band profile."""
    return wedge_branch_value(OverlapQuery(a, eps))


def band_profile(eps: float, grid_n: int):
    """Branch-value profile scaled by eps^2*log(eps^2) on a uniform band
    grid, plus the asymmetry index.

    Returns (lam_grid, scaled_values, eta) where eta is the maximum
    absolute difference between the profile and its reflection about
    lam = 1/2.  The profile collapses onto a symmetric limit curve as the
    radius shrinks; eta measures the residual asymmetry and decays
    linearly in eps.
    """
    if grid_n < 3:
        raise DomainError(f"grid size must be >= 3, got {grid_n}")
    import numpy as np

    # checked before the grid is formed: an infinite radius would make
    # nan from 0*inf there, with a RuntimeWarning, before the evaluator's check
    check_radius(eps)
    lams = np.linspace(0.0, 1.0, grid_n)
    profile = lune_potential_profile_array(1.0 - (1.0 - 2.0 * lams) * eps, eps)[1]
    scaled = profile / (eps * eps * math.log(eps * eps))
    eta = float(np.max(np.abs(scaled - scaled[::-1])))
    return lams, scaled, eta
