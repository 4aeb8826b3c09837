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
of the region bounded from below by the unit circle.  With
h = sin^2(beta/2) the integrand is (-x + 2a*h)*(log(x^2 + 4a*h) - 1), one
sin and one log per node, which ``wedge_panel`` writes out inline.

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

from .errors import DomainError, QuadratureWarning
from .geometry import OverlapQuery, _band_angle, check_band

# quadrature's former calls into geometry; perfbench/tracing.py still wraps
# them under these names, so they stay importable from here
from .geometry import angular_region, classify_regime, intersection_angle  # noqa: F401

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
    """Adaptive Gauss-Kronrod 15/7 quadrature of a scalar callable over
    [lo, hi].  With hi < lo the value is minus the integral over [hi, lo],
    as in QUADPACK's dqag; a non-finite limit raises DomainError."""
    _check_tol(tol)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"integration limits must be finite, got [{lo}, {hi}]")
    sign = 1.0
    if hi < lo:
        lo, hi, sign = hi, lo, -1.0
    value, err, count, converged = _run_adaptive(_unary_panel, f, lo, hi, tol, budget)
    return _result(sign * value, err, count, converged, tol)


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
    phi = _band_angle(x, e)
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
    e = q.eps
    a = q.a
    if a - 1.0 >= e:
        # classify_regime's outside regime, read off x = a - 1 as quad_lune does
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
