"""Independent numerical ground truth via adaptive quadrature.

The closed forms are validated against adaptive panel bisection with an
embedded 15/7-point Gauss-Kronrod pair: ``quad_wedge`` integrates the
wedge integrand s^2*(log s^2 - 1)/(8*pi) over the polar angle,
``quad_lune`` assembles the full potential (circular sector done
analytically, wedge numerically), and ``quad_cos_log`` checks the
cosine-log primitive.  ``quad_lune_tensor`` is a deliberately slow fully
2D cross-check of the oracle itself.

The error estimate is the summed |high - low| over panels; panels adjacent
to integrable log endpoints are bisected until the pair agrees.  Two
features of the wedge integrand are handled before bisection.  Beyond the
unit distance every angular interval starts at or just above a turning
angle theta_t (pi - alpha or 2*pi - alpha, alpha = asin(1/a)), where the
chord radius has a square-root endpoint; there the integral is taken in
tau = sqrt(theta - theta_t), dtheta = 2*tau*dtau, where the integrand is
smooth.  Inside the unit distance, [0, phi] is broken at pi/2 when phi
exceeds it: just below a = 1 the integrand is nearly zero up to pi/2 and
lives in a thin layer past it, which one panel's nodes can miss.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ._backend import cos_log_panel, wedge_panel
from ._kernels_py import _panel, wedge_panel_turn
from .errors import DomainError, QuadratureWarning
from .geometry import OverlapQuery, Regime, classify_regime, intersection_angle

# quadrature's former call into geometry; perfbench/tracing.py still wraps
# it under this name, so it stays importable from here
from .geometry import angular_region  # noqa: F401

PI = math.pi
HALF_PI = 0.5 * PI
TWO_PI = 2.0 * PI
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


@dataclass(frozen=True)
class QuadResult:
    """Value of an adaptive quadrature with its error estimate, the number
    of panels evaluated, and whether the tolerance was reached."""

    value: float
    err_estimate: float
    subdivisions: int
    converged: bool = True


def _check_tol(tol: float) -> None:
    if not tol >= MIN_TOL:
        raise DomainError(f"tolerance must be >= {MIN_TOL}, got {tol}")


def _run_adaptive(
    panel: Callable[[object, float, float], tuple[float, float]],
    intervals: list[tuple[float, float, float, object]],
    tol: float,
    budget: int,
) -> tuple[float, float, int, bool]:
    # (value, error estimate, panels, converged) of the weighted sum over
    # intervals (lo, hi, w, arg) of panel(arg, lo, hi); the +/-1 weight
    # lets region parts bounded from below by the unit circle subtract
    heap: list[tuple[float, int, float, float, float, float, object]] = []
    seq = 0
    total = 0.0
    err = 0.0
    count = 0
    for lo, hi, w, arg in intervals:
        if hi <= lo:
            continue
        k, g = panel(arg, lo, hi)
        e = abs(k - g)
        heapq.heappush(heap, (-e, seq, lo, hi, w, w * k, arg))
        seq += 1
        total += w * k
        err += e
        count += 1
    if count == 0:
        return 0.0, 0.0, 1, True
    while err > tol and count < budget:
        neg_e, _, lo, hi, w, wk_old, arg = heapq.heappop(heap)
        err += neg_e  # remove this panel's error
        total -= wk_old
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at floating-point resolution; keep the estimate
            total += wk_old
            err -= neg_e
            break
        for a, b in ((lo, mid), (mid, hi)):
            k, g = panel(arg, a, b)
            e = abs(k - g)
            heapq.heappush(heap, (-e, seq, a, b, w, w * k, arg))
            seq += 1
            total += w * k
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
    value, err, count, converged = _run_adaptive(_unary_panel, [(lo, hi, 1.0, f)], tol, budget)
    return _result(value, err, count, converged, tol)


def _wedge_intervals(a: float, eps: float, phi: float):
    # (panel, intervals) of the wedge integral for a band point with
    # intersection angle phi.  Up to the unit distance: [0, phi] in theta,
    # broken at pi/2.  Beyond it, the angular region of
    # geometry.angular_region in tau about its turning angle: [pi - alpha,
    # phi] and [2pi - alpha, 2pi] while a^2 < 1 + eps^2, [phi + pi, 2pi]
    # after.  Parts beyond pi mirror the lower edge of the region, where
    # the chord radius marks the inner boundary of the lune: they subtract.
    if a < 1.0:
        if phi > HALF_PI:
            return wedge_panel, [(0.0, HALF_PI, 1.0, a), (HALF_PI, phi, 1.0, a)]
        return wedge_panel, [(0.0, phi, 1.0, a)]
    if a == 1.0:
        return wedge_panel, [(HALF_PI, phi, 1.0, a)]
    alpha = math.asin(1.0 / a)
    top = math.sqrt(alpha)
    lower = PI - alpha
    # phi - (pi - alpha) = (phi + pi) - (2pi - alpha) >= 0, zero at the seam
    cut = math.sqrt(max(phi - lower, 0.0))
    upper_turn = (TWO_PI - alpha, a)
    if a * a < 1.0 + eps * eps:
        return wedge_panel_turn, [(0.0, top, -1.0, upper_turn), (0.0, cut, 1.0, (lower, a))]
    return wedge_panel_turn, [(cut, top, -1.0, upper_turn)]


def quad_wedge(q: OverlapQuery, tol: float = 1e-12, budget: int = DEFAULT_BUDGET) -> QuadResult:
    """Wedge term by adaptive quadrature of s^2*(log s^2 - 1)/(8*pi) over
    the polar angle: [0, phi] for a <= 1, the angular region beyond."""
    _check_tol(tol)
    if q.a < 1.0 - q.eps - 1e-12 or q.a > 1.0 + q.eps + 1e-12:
        raise DomainError(f"a = {q.a} outside the overlap band for eps = {q.eps}")
    panel, intervals = _wedge_intervals(q.a, q.eps, intersection_angle(q))
    value, err, count, converged = _run_adaptive(panel, intervals, tol * EIGHT_PI, budget)
    return _result(value / EIGHT_PI, err / EIGHT_PI, count, converged, tol)


def quad_lune(q: OverlapQuery, tol: float = 1e-12, budget: int = DEFAULT_BUDGET) -> QuadResult:
    """Overlap potential with the circular sector done analytically and the
    wedge part integrated numerically; nested and separated regimes are
    closed-form."""
    _check_tol(tol)
    e = q.eps
    e2 = e * e
    regime = classify_regime(q)
    if regime is Regime.NESTED:
        return QuadResult(0.25 * e2 * (math.log(e2) - 1.0), 0.0, 1, True)
    if regime is Regime.OUTSIDE:
        return QuadResult(0.0, 0.0, 1, True)
    # inside the open band: quad_wedge's band check cannot fail here
    phi = intersection_angle(q)
    sector = (PI - phi) * e2 * (math.log(e2) - 1.0) / (4.0 * PI)
    panel, intervals = _wedge_intervals(q.a, e, phi)
    value, err, count, converged = _run_adaptive(panel, intervals, 0.5 * tol * EIGHT_PI, budget)
    return _result(
        sector + 2.0 * (value / EIGHT_PI), 2.0 * (err / EIGHT_PI), count, converged, tol
    )


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
    value, err, count, converged = _run_adaptive(cos_log_panel, [(0.0, phi, 1.0, a)], tol, budget)
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
