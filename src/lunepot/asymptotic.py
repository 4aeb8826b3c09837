"""Small-radius machinery: band reparametrisation and the series
expansions of the paper.

The overlap band [1-eps, 1+eps] is mapped to the unit interval by
lam = (a-1)/(2*eps) + 1/2.  The rescaled core quantity

    H(lam, eps) = (G(a, Phi) - pi*(1 - a^2)) / (8*pi)

(with G the angular primitive at the reduced half-angle) admits two-term
and three-term expansions in eps on the two sides of the crossover
a^2 = 1 + eps^2.  ``lune_potential_series`` (and its array form) is the
series route: the sector plus the wedge term rebuilt from the inner
expansion, which equals H~ itself up to the unit distance and

    F = H~ + (1 - a^2)/8 + log(a)/4

beyond it, where H~ is the inner expansion evaluated with the first-case
half-angle data (valid across the whole band) and the extra terms are
computed cancellation-free from x = a - 1.

The stable evaluator needs no series: ``closed_form`` evaluates the wedge
without cancellation, to about 1e-16 of eps^2*|log eps^2| at every radius,
so ``lune_potential_stable`` is ``closed_form.lune_potential`` itself.
``band_core`` forms H through the same closed-form wedge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels_py import im_li2_path
from .closed_form import (
    _band_wedge,
    _log1p_minus_x,
    _potential_array,
    _wedge_branch_value_array,
    lune_potential,
    wedge_branch_value,
)
from .errors import DomainError
from .geometry import OverlapQuery, check_queries, intersection_angle

# perfbench/tracing.py wraps this former call of band_core under this name,
# so it stays importable from here
from ._kernels_py import angular_primitive_core  # noqa: F401

PI = math.pi
EIGHT_PI = 8.0 * PI

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
    "profile_values",
    "band_profile",
]


@dataclass(frozen=True)
class BandPoint:
    """Band coordinate lam in [0, 1] with the disc radius eps."""

    lam: float
    eps: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and -1e-12 <= self.lam <= 1.0 + 1e-12):
            raise DomainError(f"band coordinate {self.lam} outside [0, 1]")
        if not (math.isfinite(self.eps) and 0.0 < self.eps < 1.0):
            raise DomainError(f"disc radius must lie in (0, 1), got {self.eps}")


@dataclass(frozen=True)
class BandCoefficients:
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
    """Map a centre distance inside the band to its band coordinate."""
    if not 0.0 < eps < 1.0:
        raise DomainError(f"disc radius must lie in (0, 1), got {eps}")
    if a < 1.0 - eps - 1e-12 or a > 1.0 + eps + 1e-12:
        raise DomainError(f"a = {a} outside the band [1-eps, 1+eps]")
    lam = 0.5 + 0.5 * (a - 1.0) / eps
    return BandPoint(min(max(lam, 0.0), 1.0), eps)


def from_band(p: BandPoint) -> float:
    """Centre distance of a band coordinate: 1 - (1 - 2*lam)*eps."""
    return 1.0 - (1.0 - 2.0 * p.lam) * p.eps


def band_core(p: BandPoint) -> float:
    """Exact rescaled core (G(a, Phi) - pi*(1 - a^2)) / (8*pi).

    Below the unit distance this equals the wedge term itself; above it
    encodes the nontrivial primitive contribution of the outer branches.
    Formed without cancellation by ``closed_form._band_wedge``, with the
    chord radius eps replaced by (a^2 - 1)/eps where a^2 > 1 + eps^2: a few
    1e-17 of eps^2*|log eps^2| on the inner branch and 1e-14 relative on
    the outer branch, away from its ends, at radii from 1e-14 to 1/2.
    """
    a = from_band(p)
    e = p.eps
    x = a - 1.0
    q2 = x * (2.0 + x)
    s = e if q2 <= e * e else q2 / e
    # from_band can round x an ulp past +/-eps: the clamp then makes root
    # exactly 0 with |w| = s, the band-edge value
    s = min(max(s, abs(x)), 2.0 + x)
    root = math.sqrt((2.0 + x - s) * (2.0 + x + s) * (x + s) * (s - x))
    # On the outer branch theta runs on to -pi at lam = 1, so |u| exceeds
    # the 1.72 of the Li2 table's cuts: all 46 terms are summed there, and
    # their tail is not bounded by 1e-17.
    g = _band_wedge(a, x, s, root)
    if x > 0.0:
        g -= PI * (2.0 * _log1p_minus_x(x) - x * x)
    return g / EIGHT_PI


def _inner_coeffs(lam: float) -> tuple[float, float]:
    beta = 1.0 - 2.0 * lam
    sq = math.sqrt(max(lam * (1.0 - lam), 0.0))
    omega_p = math.acos(min(max(beta, -1.0), 1.0))
    c_log = beta * sq / (4.0 * PI)
    c_quad = beta * (beta * omega_p - 3.0 * sq) / (4.0 * PI)
    return c_log, c_quad


def _outer_coeffs(lam: float) -> tuple[float, float, float]:
    beta = 2.0 * lam - 1.0
    sq = math.sqrt(max(lam * (1.0 - lam), 0.0))
    omega_m = math.acos(min(max(beta, -1.0), 1.0))
    lg = math.log(2.0 * beta)
    im = im_li2_path(1.0, math.cos(2.0 * omega_m), math.sin(2.0 * omega_m))
    c0 = (im + 4.0 * beta * (1.0 - lg) * sq) / (4.0 * PI)
    c1 = beta * ((PI - 2.0 * omega_m) + 2.0 * beta * (1.0 - 2.0 * lg) * sq) / (4.0 * PI)
    c2 = beta * beta * (PI - beta * (1.0 + 2.0 * lg) * sq) / (8.0 * PI)
    return c0, c1, c2


def band_coefficients(p: BandPoint) -> BandCoefficients:
    """Series coefficients at a band point; the branch is selected by the
    sign test a^2 <= 1 + eps^2 on the mapped centre distance."""
    a = from_band(p)
    if (a - 1.0) * (a + 1.0) <= p.eps * p.eps:
        c_log, c_quad = _inner_coeffs(p.lam)
        return BandCoefficients(branch="Inner", c_log=c_log, c_quad=c_quad)
    if p.lam <= 0.5:
        raise DomainError(f"outer branch requires lam > 1/2, got {p.lam}")
    c0, c1, c2 = _outer_coeffs(p.lam)
    return BandCoefficients(branch="Outer", c0=c0, c1=c1, c2=c2)


def _inner_series(lam: float, eps: float) -> float:
    c_log, c_quad = _inner_coeffs(lam)
    e2 = eps * eps
    return c_log * e2 * math.log(e2) + c_quad * e2


def band_core_series(p: BandPoint) -> float:
    """Series value of the rescaled core: two terms on the inner branch,
    three on the outer.  Falls back to the exact core within 1e-14 of the
    branch seam, where the outer logarithm degenerates."""
    a = from_band(p)
    e = p.eps
    if (a - 1.0) * (a + 1.0) <= e * e:
        return _inner_series(p.lam, e)
    if 4.0 * p.lam - 2.0 < 1e-14:
        return band_core(p)
    c0, c1, c2 = _outer_coeffs(p.lam)
    return c0 + c1 * e + c2 * e * e


def unit_wedge_series(eps: float) -> float:
    """Cubic expansion of the wedge term at the unit distance:
    (2*eps^3*log(eps^3) - 5*eps^3) / (144*pi)."""
    if not 0.0 < eps <= 0.5:
        raise DomainError(f"disc radius must lie in (0, 1/2], got {eps}")
    e3 = eps * eps * eps
    return (6.0 * e3 * math.log(eps) - 5.0 * e3) / (144.0 * PI)


def band_angle_series(p: BandPoint) -> float:
    """Three-term expansion of the intersection angle in band coordinates:
    arccos(1-2*lam) + sqrt(lam(1-lam))*eps + (3/4)(1-2*lam)sqrt(lam(1-lam))*eps^2."""
    beta = 1.0 - 2.0 * p.lam
    sq = math.sqrt(max(p.lam * (1.0 - p.lam), 0.0))
    base = math.acos(min(max(beta, -1.0), 1.0))
    return base + sq * p.eps + 0.75 * beta * sq * p.eps * p.eps


def _stable_wedge(a: float, e: float) -> float:
    # series-based wedge term: the inner expansion gives the core
    # H~ = (G - pi*(1-a^2))/(8*pi) directly; beyond the unit distance the
    # wedge adds (1-a^2)/8 + log(a)/4, both computed cancellation-free from
    # x = a - 1.
    lam = 0.5 + 0.5 * (a - 1.0) / e
    lam = min(max(lam, 0.0), 1.0)
    ht = _inner_series(lam, e)
    if a <= 1.0:
        return ht
    x = a - 1.0
    return ht + 0.25 * _log1p_minus_x(x) - 0.125 * x * x


def _stable_wedge_array(a: np.ndarray, x: np.ndarray, e: float, root) -> np.ndarray:
    # _stable_wedge over arrays of band centre distances a and x = a - 1,
    # lane for lane with the same operation order; root, unused, keeps the
    # signature of closed_form._band_wedge_array for _potential_array
    lam = np.clip(0.5 + 0.5 * x / e, 0.0, 1.0)
    beta = 1.0 - 2.0 * lam
    sq = np.sqrt(np.maximum(lam * (1.0 - lam), 0.0))
    omega_p = np.arccos(np.clip(beta, -1.0, 1.0))
    c_log = beta * sq / (4.0 * PI)
    c_quad = beta * (beta * omega_p - 3.0 * sq) / (4.0 * PI)
    e2 = e * e
    ht = c_log * e2 * math.log(e2) + c_quad * e2
    return np.where(a > 1.0, ht + 0.25 * _log1p_minus_x(x) - 0.125 * x * x, ht)


# The stable evaluator is the exact closed form at every radius.
lune_potential_stable = lune_potential


def lune_potential_series(q: OverlapQuery) -> float:
    """Overlap potential through the paper's series route (``--mode
    asymptotic``): ``lune_potential`` off the band, and on it the exact
    sector plus the wedge term from the inner expansion.  Its error falls
    with the radius, about 2e-7 of eps^2*|log eps^2| at eps = 1e-5."""
    a, e = q.a, q.eps
    if not -e < a - 1.0 < e:
        return lune_potential(q)  # the nested constant or 0
    e2 = e * e
    phi = intersection_angle(q)
    return 0.25 * ((PI - phi) / PI * e2 * (math.log(e2) - 1.0) + 8.0 * _stable_wedge(a, e))


def lune_potential_series_array(a, eps: float) -> np.ndarray:
    """``lune_potential_series`` over an array of centre distances at one
    radius, lane for lane.  Checks the radius, then the distances, as
    ``closed_form.lune_potential_array`` does."""
    return _potential_array(check_queries(a, eps), eps, _stable_wedge_array)[0]


def profile_value(a: float, eps: float) -> float:
    """Branch value of the wedge term used by the scaled band profile."""
    return wedge_branch_value(OverlapQuery(a, eps))


def profile_values(a: np.ndarray, eps: float) -> np.ndarray:
    """``profile_value`` over an array of band centre distances, as one
    array evaluation."""
    return _wedge_branch_value_array(np.asarray(a, dtype=float), eps)


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
    if not 0.0 < eps < 1.0:
        raise DomainError(f"disc radius must lie in (0, 1), got {eps}")
    lams = np.linspace(0.0, 1.0, grid_n)
    scale = eps * eps * math.log(eps * eps)
    scaled = profile_values(1.0 - (1.0 - 2.0 * lams) * eps, eps) / scale
    eta = float(np.max(np.abs(scaled - scaled[::-1])))
    return lams, scaled, eta
