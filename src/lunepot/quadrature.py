"""Independent numerical ground truth via adaptive quadrature.

The closed forms are validated against adaptive panel bisection with an
embedded 15/7-point Gauss-Kronrod pair: ``quad_wedge`` integrates the
wedge term, ``quad_lune`` assembles the full potential (circular sector
done analytically, wedge numerically), and ``quad_cos_log`` checks the
cosine-log primitive with the wedge's panel, negated.  ``quad_lune_tensor``
is a deliberately slow fully 2D cross-check of the oracle itself.

The wedge integral of s^2*(log s^2 - 1)/(8*pi) over the polar angle theta
about the small disc's centre C = (a, 0) is taken along the arc of the
unit circle inside the small disc instead: at the arc point
P = (cos beta, sin beta), s^2 = |P - C|^2 = 1 + a^2 - 2a*cos(beta) and
s^2 dtheta = (1 - a*cos(beta)) dbeta, so the integrand
(1 - a*cos(beta))*(log s^2 - 1) runs over beta in [0, beta_V], with
sin^2(beta_V/2) = (eps + x)*(eps - x)/(4a) and x = a - 1.  It is smooth on
that one interval at every centre distance; beyond the unit distance
1 - a*cos(beta) changes sign at cos(beta) = 1/a, which subtracts the part
of the region bounded from below by the unit circle.

The error estimate is the summed |high - low| over panels; panels adjacent
to integrable log endpoints are bisected until the pair agrees.  The
driver returns once the first panel meets the tolerance, as QUADPACK's
qag does, and builds a heap only to bisect.  ``quad_lune`` takes the
sector angle from ``intersection_angle``'s core.
"""

from __future__ import annotations

import heapq
import math
import warnings
from functools import partial
from typing import Callable, NamedTuple

from ._kernels_py import _panel, cos_log_panel, wedge_panel
from .errors import DomainError, QuadratureWarning
from .geometry import OverlapQuery, Regime, _band_angle, check_band, classify_regime

# quadrature's former calls into geometry; perfbench/tracing.py still wraps
# them under these names, so they stay importable from here
from .geometry import angular_region, intersection_angle  # noqa: F401

PI = math.pi
EIGHT_PI = 8.0 * PI

MIN_TOL = 1e-13
DEFAULT_BUDGET = 10_000

__all__ = [
    "QuadResult",
    "adaptive_quad",
    "quad_wedge",
    "quad_lune",
    "quad_cos_log",
    "quad_lune_tensor",
]


class QuadResult(NamedTuple):
    """Value of an adaptive quadrature with its error estimate, the size of
    the final partition (1 plus the bisections, 1 for a closed form; the
    panels evaluated number twice that less 1), and whether the tolerance
    was reached."""

    value: float
    err_estimate: float
    subdivisions: int
    converged: bool = True


def _check_tol(tol: float) -> None:
    if not tol >= MIN_TOL:
        raise DomainError(f"tolerance must be >= {MIN_TOL}, got {tol}")


def _run_adaptive(
    panel: Callable[[object, float, float], tuple[float, float]],
    arg: object,
    lo: float,
    hi: float,
    tol: float,
    budget: int,
) -> tuple[float, float, int, bool]:
    # (value, error estimate, subdivisions, converged) of the integral of
    # panel(arg, .) over [lo, hi].  Keys (-e, seq) are unique: pops ignore
    # how the heap was built.
    if hi <= lo:
        return 0.0, 0.0, 1, True
    total, g = panel(arg, lo, hi)
    err = abs(total - g)
    if err <= tol:
        # the first panel converged: nothing to bisect
        return total, err, 1, True
    heap: list[tuple[float, int, float, float, float]] = [(-err, 0, lo, hi, total)]
    count = seq = 1
    while err > tol and count < budget:
        neg_e, _, lo, hi, k_old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at floating-point resolution; keep the estimate
            break
        err += neg_e  # remove this panel's error
        total -= k_old
        for a, b in ((lo, mid), (mid, hi)):
            k, g = panel(arg, a, b)
            e = abs(k - g)
            heapq.heappush(heap, (-e, seq, a, b, k))
            seq += 1
            total += k
            err += e
        count += 1
    return total, err, count, err <= tol


def _result(value: float, err: float, count: int, converged: bool, tol: float) -> QuadResult:
    # called by each public function, so that a warning names its caller
    if not converged:
        warnings.warn(
            f"quadrature stopped at {count} panels with error estimate {err:.3e} > {tol:.3e}",
            QuadratureWarning,
            stacklevel=3,
        )
    return QuadResult(value, err, count, converged)


def _call_unary(x: float, f: Callable[[float], float]) -> float:
    # _panel evaluates f(x, arg); adaptive_quad's integrand is the arg
    return f(x)


_unary_panel = partial(_panel, _call_unary)


def adaptive_quad(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    budget: int = DEFAULT_BUDGET,
) -> QuadResult:
    """Adaptive Gauss-Kronrod 15/7 quadrature of a scalar callable."""
    _check_tol(tol)
    value, err, count, converged = _run_adaptive(_unary_panel, f, lo, hi, tol, budget)
    return _result(value, err, count, converged, tol)


def _arc_wedge(a: float, x: float, e: float, tol: float, budget: int):
    # _run_adaptive over [0, beta_V] of the wedge integrand in the arc
    # angle, x = a - 1; sin^2(beta_V/2) is clamped at 0 for a within a
    # rounding slack outside the band
    h = (e + x) * (e - x) / (4.0 * a)
    end = 2.0 * math.asin(math.sqrt(h)) if h > 0.0 else 0.0
    return _run_adaptive(wedge_panel, (-x, x * x, 2.0 * a, 4.0 * a), 0.0, end, tol, budget)


def quad_wedge(q: OverlapQuery, tol: float = 1e-12, budget: int = DEFAULT_BUDGET) -> QuadResult:
    """Wedge term by adaptive quadrature of (1 - a*cos b)*(log s^2 - 1)/(8*pi)
    over the arc angle b of the unit circle inside the small disc."""
    _check_tol(tol)
    a, e = q.a, q.eps
    check_band(a, e)
    value, err, count, converged = _arc_wedge(a, a - 1.0, e, tol * EIGHT_PI, budget)
    return _result(value / EIGHT_PI, err / EIGHT_PI, count, converged, tol)


def quad_lune(q: OverlapQuery, tol: float = 1e-12, budget: int = DEFAULT_BUDGET) -> QuadResult:
    """Overlap potential with the circular sector done analytically and the
    wedge part integrated numerically; nested and separated regimes are
    closed-form."""
    _check_tol(tol)
    a, e = q.a, q.eps
    x = a - 1.0
    e2 = e * e
    # the nested and outside regimes of classify_regime
    if x <= -e:
        return QuadResult(0.25 * e2 * (math.log(e2) - 1.0), 0.0, 1)
    if x >= e:
        return QuadResult(0.0, 0.0, 1)
    # inside the open band, so no band check is needed
    phi = _band_angle(a, x, e)
    sector = (PI - phi) * e2 * (math.log(e2) - 1.0) / (4.0 * PI)
    value, err, count, converged = _arc_wedge(a, x, e, 0.5 * tol * EIGHT_PI, budget)
    value = sector + 2.0 * (value / EIGHT_PI)
    err = 2.0 * (err / EIGHT_PI)
    if converged:
        return QuadResult(value, err, count)
    return _result(value, err, count, converged, tol)


def quad_cos_log(
    a: float, phi: float, tol: float = 1e-12, budget: int = DEFAULT_BUDGET
) -> QuadResult:
    """Adaptive quadrature of -(1 - a*cos u)*(log(1 + a^2 - 2a*cos u) - 1)
    from 0 to phi, for a in (0, 1]."""
    _check_tol(tol)
    if not 0.0 < a <= 1.0:
        raise DomainError(f"modulus must lie in (0, 1], got {a}")
    if not 0.0 <= phi <= PI + 1e-12:
        raise DomainError(f"angle {phi} outside [0, pi]")
    value, err, count, converged = _run_adaptive(cos_log_panel, a, 0.0, phi, tol, budget)
    return _result(value, err, count, converged, tol)


def _radial_piece(lower: float, upper: float, tol: float) -> float:
    # integral of r*log(r^2)/(4*pi) over [lower, upper], done numerically
    # for the honest 2D cross-check (the integrable endpoint at zero needs
    # refinement)
    if upper <= lower:
        return 0.0

    def f(r: float) -> float:
        if r <= 0.0:
            return 0.0
        return r * math.log(r * r) / (4.0 * PI)

    return adaptive_quad(f, lower, upper, tol).value


def quad_lune_tensor(q: OverlapQuery, tol: float = 1e-9) -> QuadResult:
    """Fully 2D (radial-inside-angular) quadrature over the raw region
    description: at each polar angle the radial run inside both discs,
    integrated numerically, doubled for the lower half.

    Slow spot-check of the primary oracle; independent of every reduction
    used elsewhere.
    """
    regime = classify_regime(q)
    e = q.eps
    a = q.a
    if regime is Regime.OUTSIDE:
        return QuadResult(0.0, 0.0, 1, True)

    def f_theta(theta: float) -> float:
        st = a * math.sin(theta)
        disc = 1.0 - st * st
        if disc < 0.0:
            return 0.0
        root = math.sqrt(disc)
        base = -a * math.cos(theta)
        lo = max(base - root, 0.0)
        hi = min(base + root, e)
        return _radial_piece(lo, hi, 0.05 * tol)

    half = adaptive_quad(f_theta, 0.0, PI, 0.5 * tol, budget=4000)
    return QuadResult(
        2.0 * half.value,
        2.0 * half.err_estimate,
        half.subdivisions,
        half.converged,
    )
