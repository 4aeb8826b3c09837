"""The acceptance suite of ``lunepot validate`` and ``tests/test_acceptance.py``.

``run_suite`` runs the 11 checks in criterion order.  Each compares two
independent computations and reports its worst deviation against a bound,
where a NaN is the worst and fails; each criterion's radii, grids and bounds
are constants beside its check.

 1. oracle-agreement: closed form vs ``quad_lune`` (tol 1e-12) on 200 points
    over [0, 1 + eps] and 201 band points, eps 0.5, 0.2, 0.05, 0.01: gap
    <= 1e-9, and gap / (eps^2 (|log eps^2| + 1)) <= 1e-12.
 2. branch-continuity: jumps at the thresholds, probed at min(1e-9,
    1e-3 eps), and the wedge at the band edges, eps 0.5, 0.1, 0.01: <= 1e-10.
 3. representation-equivalence: wedge vs its change-of-order form on 100
    points of (1 - eps, 1], eps 0.5, 0.1, 0.01: <= 1e-10.
 4. global-bound: |E| <= eps^2 (1 - log eps^2) / 4 + 1e-14 on 200 points
    over [0, 1 + eps], eps 0.5, 0.2, 0.05, 0.01.
 5. golden-tables: closed-form table rows at eps 0.2: <= 1e-12.
 6. series-accuracy: band-core series vs exact core, 51 points per branch,
    eps 1e-2, 1e-3, 1e-4: <= 5e-2 eps.
 7. unit-cubic-slope: log-log slope of the cubic expansion's error at a = 1,
    eps 1e-1, 3e-2, 1e-2, 3e-3, 1e-3: within [4.5, 5.5].
 8. angle-series: angle expansion on 101 band points, eps 1e-2, 1e-3:
    <= 10 eps^3.
 9. stability: the stable path finite on 1000 points at each eps 1e-1 ...
    1e-14; series route vs exact on 401 band points at eps 1e-5:
    gap / (eps^2 |log eps^2|) <= 1e-6.
10. asymmetry-index: fit of log eta on log eps, 201-point profiles at eps
    1e-2, 1e-3, 1e-4: slope in [0.8, 1.2], prefactor in [5e-3, 8e-2].
11. dilog-identities: reflection at 100 seeded points <= 1e-13; boundary
    value on the cut at a = 1.1, 2, 5 <= 1e-12.

``eps_list``, the one argument of checks 1-4, is what ``validate --eps`` sets.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .asymptotic import (
    BandPoint,
    band_angle_series,
    band_core,
    band_core_series,
    band_profile,
    from_band,
    lune_potential_series_array,
    lune_potential_stable,
    to_band,
    unit_wedge_series,
)
from .closed_form import (
    angular_primitive,
    lune_potential,
    lune_potential_array,
    turning_angle_primitive_closed_form,
    wedge_term,
    wedge_term_reordered,
)
from .dilog import dilog, dilog_lower_boundary
from .geometry import OverlapQuery, big_l, chord_radius, intersection_angle, phi_map
from .quadrature import quad_lune

PI = math.pi


@dataclass(frozen=True)
class CheckResult:
    """One criterion's verdict: its worst figure against its bound, the
    scaled figure and bound where it has one, and the (eps, eta) points of
    the asymmetry index's fit."""

    name: str
    passed: bool
    max_err: float
    tol: float
    detail: str = ""
    scaled_err: float | None = None
    scaled_tol: float | None = None
    points: tuple[tuple[float, float], ...] = ()

    def line(self) -> str:
        out = f"{self.name}: max_err={self.max_err:.3e} tol={self.tol:.3e}"
        if self.scaled_err is not None:
            out += f" scaled_err={self.scaled_err:.3e} scaled_tol={self.scaled_tol:.3e}"
        out += " PASS" if self.passed else " FAIL"
        if self.detail:
            out += f" ({self.detail})"
        return out


def _worst(pairs: Iterable[tuple[float, str]], start: float = 0.0) -> tuple[float, str]:
    """The largest of (figure, where) pairs, the first NaN above all, or
    (start, "") when no figure exceeds ``start``."""
    top, where = start, ""
    for d, at in pairs:
        if math.isnan(d):
            return d, at
        if d > top:
            top, where = d, at
    return top, where


def run_suite(eps_list: Sequence[float] | None = None) -> list[CheckResult]:
    """The 11 acceptance criteria in order, checks 1-4 at ``eps_list``
    when it is given and at their own radii otherwise."""
    radii = {} if eps_list is None else {"eps_list": tuple(eps_list)}
    return [
        check_oracle_agreement(**radii),
        check_branch_continuity(**radii),
        check_representation_equivalence(**radii),
        check_global_bound(**radii),
        check_golden_tables(),
        check_series_accuracy(),
        check_unit_cubic_slope(),
        check_angle_series(),
        check_stability(),
        check_asymmetry(),
        check_dilog_identities(),
    ]


ORACLE_EPS = (0.5, 0.2, 0.05, 0.01)
ORACLE_GRID_N = 200
ORACLE_BAND_N = 201
ORACLE_QUAD_TOL = 1e-12
ORACLE_TOL = 1e-9
# bound on the scaled gap |d| / (eps^2 (|log eps^2| + 1)); the absolute
# bound alone passes any value below eps ~ 1e-5, where the whole potential
# is below 1e-9
ORACLE_SCALED_TOL = 1e-12


def check_oracle_agreement(eps_list: Sequence[float] = ORACLE_EPS) -> CheckResult:
    """Closed-form potential against the quadrature oracle."""
    gaps = []  # (gap, a, eps, scale)
    # from_band's a = 1 - (1 - 2 lam) eps on a uniform lam grid
    band = 1.0 - 2.0 * np.linspace(0.0, 1.0, ORACLE_BAND_N)
    for e in eps_list:
        e2 = e * e
        scale = e2 * (abs(math.log(e2)) + 1.0)
        grid = np.concatenate((np.linspace(0.0, 1.0 + e, ORACLE_GRID_N), 1.0 - band * e))
        for a in grid.tolist():
            q = OverlapQuery(a, e)
            d = abs(lune_potential(q) - quad_lune(q, ORACLE_QUAD_TOL).value)
            gaps.append((d, a, e, scale))
    worst, where = _worst((d, f"a={a:.6g}, eps={e:g}") for d, a, e, _ in gaps)
    worst_scaled, where_scaled = _worst((d / s, f"a={a:.17g}, eps={e:g}") for d, a, e, s in gaps)
    passed = worst <= ORACLE_TOL and worst_scaled <= ORACLE_SCALED_TOL
    detail = f"{where}; scaled at {where_scaled}" if where_scaled else where
    return CheckResult(
        "oracle-agreement", passed, worst, ORACLE_TOL, detail, worst_scaled, ORACLE_SCALED_TOL
    )


def _jump(f, th: float, offset: float) -> float:
    # Richardson extraction of the one-sided-limit difference: for a
    # function with a jump J and bounded one-sided slopes,
    # 2*[f(th+d) - f(th-d)] - [f(th+2d) - f(th-2d)] = J + O(d^2), so the
    # smooth slope contribution (which alone exceeds 1e-10 at the probe
    # offsets for the largest radii) cancels.
    d1 = f(th + offset) - f(th - offset)
    d2 = f(th + 2.0 * offset) - f(th - 2.0 * offset)
    return 2.0 * d1 - d2


CONTINUITY_EPS = (0.5, 0.1, 0.01)
CONTINUITY_OFFSET = 1e-9
CONTINUITY_TOL = 1e-10


def check_branch_continuity(eps_list: Sequence[float] = CONTINUITY_EPS) -> CheckResult:
    """Jump of the potential and of the wedge term across the branch
    thresholds, probed at ``CONTINUITY_OFFSET`` or at 1e-3*eps where that
    is smaller, so that the probes stay inside the band at every radius.

    The potential is tested at all four thresholds.  The wedge term is
    tested two-sided at the interior thresholds 1 and sqrt(1+eps^2); at
    the band edges, outside of which it is undefined, continuity on the
    closed band means the edge value must equal the limit 0, which is
    what is asserted there.  The edge is probed at the first double on or
    outside it: the double nearest 1 -/+ eps can lie inside the band,
    where the wedge is O(sqrt(distance)) and not 0.
    """
    jumps = []  # (|jump|, where)
    for e in eps_list:
        pot = lambda a: lune_potential(OverlapQuery(a, e))
        wed = lambda a: wedge_term(OverlapQuery(a, e))
        probe = min(CONTINUITY_OFFSET, 1e-3 * e)
        for th in (1.0 - e, 1.0, math.sqrt(1.0 + e * e), 1.0 + e):
            jumps.append((abs(_jump(pot, th, probe)), f"E at {th:.6g}, eps={e:g}"))
        for th in (1.0, math.sqrt(1.0 + e * e)):
            jumps.append((abs(_jump(wed, th, probe)), f"F at {th:.6g}, eps={e:g}"))
        lo, hi = 1.0 - e, 1.0 + e
        while lo - 1.0 > -e:
            lo = math.nextafter(lo, 0.0)
        while hi - 1.0 < e:
            hi = math.nextafter(hi, 2.0)
        for edge in (lo, hi):
            jumps.append((abs(wed(edge)), f"F edge {edge:.6g}, eps={e:g}"))
    worst, where = _worst(jumps)
    tol = CONTINUITY_TOL
    return CheckResult("branch-continuity", worst <= tol, worst, tol, where)


REPRESENTATION_EPS = (0.5, 0.1, 0.01)
REPRESENTATION_GRID_N = 100
REPRESENTATION_TOL = 1e-10


def check_representation_equivalence(
    eps_list: Sequence[float] = REPRESENTATION_EPS,
) -> CheckResult:
    """Direct wedge term against the change-of-order representation."""
    n = REPRESENTATION_GRID_N
    queries = (OverlapQuery(1.0 - e + e * k / n, e) for e in eps_list for k in range(1, n + 1))
    worst, where = _worst(
        (abs(wedge_term(q) - wedge_term_reordered(q)), f"a={q.a:.6g}, eps={q.eps:g}")
        for q in queries
    )
    tol = REPRESENTATION_TOL
    return CheckResult("representation-equivalence", worst <= tol, worst, tol, where)


BOUND_EPS = (0.5, 0.2, 0.05, 0.01)
BOUND_GRID_N = 200
BOUND_SLACK = 1e-14


def check_global_bound(eps_list: Sequence[float] = BOUND_EPS) -> CheckResult:
    """|E| never exceeds eps^2*(1 - log eps^2)/4 anywhere in [0, 1+eps]."""
    excesses = []  # (|E| - envelope, where)
    for e in eps_list:
        e2 = e * e
        env = 0.25 * e2 * (1.0 - math.log(e2)) + BOUND_SLACK
        for a in np.linspace(0.0, 1.0 + e, BOUND_GRID_N).tolist():
            excess = abs(lune_potential(OverlapQuery(a, e))) - env
            excesses.append((excess, f"a={a:.6g}, eps={e:g}"))
    # from -inf, so that where names the largest excess when all are negative
    worst, where = _worst(excesses, -math.inf)
    return CheckResult("global-bound", worst <= 0.0, max(worst, 0.0), 0.0, where)


def _table_rows(eps: float) -> Iterable[tuple[str, float, float]]:
    """(label, computed, expected) triples for the closed-form table rows."""
    two_pi = 2.0 * PI
    # chord radius, map values at theta = 0 and 2*pi
    for a in (0.6, 0.85):
        yield f"s(0) a={a}", chord_radius(0.0, a), 1.0 - a
        yield f"L(0) a={a}", big_l(0.0, a), -1.0
        yield f"Phi(0) a={a}", phi_map(0.0, a), 0.5 * PI
        yield f"s(2pi) a={a}", chord_radius(two_pi, a), 1.0 - a
        yield f"L(2pi) a={a}", big_l(two_pi, a), -1.0
    # a = 1 at theta = pi/2
    yield "s(pi/2) a=1", chord_radius(0.5 * PI, 1.0), 0.0
    yield "L(pi/2) a=1", big_l(0.5 * PI, 1.0), -1.0
    yield "Phi(pi/2) a=1", phi_map(0.5 * PI, 1.0), 0.5 * PI
    # turning-angle rows for a > 1
    for a in (1.05, 1.25):
        alpha = math.asin(1.0 / a)
        root = math.sqrt(a * a - 1.0)
        for theta, sign, label in (
            (alpha, -1.0, "alpha"),
            (PI - alpha, 1.0, "pi-alpha"),
            (two_pi - alpha, -1.0, "2pi-alpha"),
        ):
            yield f"s({label}) a={a}", chord_radius(theta, a), sign * root
            yield f"L({label}) a={a}", big_l(theta, a), -1.0 / a
            yield f"Phi({label}) a={a}", phi_map(theta, a), 0.25 * (2.0 * alpha + PI)
        yield f"P(alpha) a={a}", math.log(
            1.0 + a * a + 2.0 * a * big_l(alpha, a)
        ), math.log(a * a - 1.0)
    # intersection-angle rows
    for a in (0.95, 1.0):
        q = OverlapQuery(a, eps)
        phi = intersection_angle(q)
        yield f"s(phi) a={a}", chord_radius(phi, a), eps
        yield f"L(phi) a={a}", big_l(phi, a), (eps * eps - 1.0 - a * a) / (2.0 * a)
        yield f"s(phi+pi) a={a}", chord_radius(phi + PI, a), (1.0 - a * a) / eps
    a = 1.0 + 0.75 * eps  # a^2 > 1 + eps^2 for the far-branch rows
    q = OverlapQuery(a, eps)
    phi = intersection_angle(q)
    sigma = (a * a - 1.0) / eps
    yield "s(phi) far", chord_radius(phi, a), sigma
    yield "L(phi) far", big_l(phi, a), sigma * sigma / (2.0 * a) - (1.0 + a * a) / (
        2.0 * a
    )
    yield "P(phi) far", math.log(1.0 + a * a + 2.0 * a * big_l(phi, a)), 2.0 * math.log(
        sigma
    )
    yield "s(phi+pi) far", chord_radius(phi + PI, a), -(a * a - 1.0) / sigma
    # band-edge rows (dyadic eps so the edges are exactly representable)
    ed = 0.25
    yield "s(phi)|a=1-eps", chord_radius(intersection_angle(OverlapQuery(1.0 - ed, ed)), 1.0 - ed), ed
    yield "phi|a=1-eps", intersection_angle(OverlapQuery(1.0 - ed, ed)), 0.0
    yield "phi|a=1+eps", intersection_angle(OverlapQuery(1.0 + ed, ed)), PI
    yield "s(pi)|a=1+eps", chord_radius(PI, 1.0 + ed), 2.0 + ed
    yield "L(pi)|a=1+eps", big_l(PI, 1.0 + ed), 1.0
    yield "Phi(pi)|a=1+eps", phi_map(PI, 1.0 + ed), 0.0
    yield "phi|a=1", intersection_angle(OverlapQuery(1.0, eps)), math.acos(-0.5 * eps)
    # angular-primitive rows
    for a in (0.6, 0.8):
        yield f"G(a,pi/2) a={a}", angular_primitive(a, 0.5 * PI), PI * (1.0 - a * a)
    for a in (1.2, 1.5):
        yield f"G(a,pi/2) a={a}", angular_primitive(a, 0.5 * PI), -two_pi * math.log(a)
    yield "G(1-eps,pi/2)", angular_primitive(1.0 - eps, 0.5 * PI), PI * eps * (2.0 - eps)
    yield "G(1+eps,pi/2)", angular_primitive(1.0 + eps, 0.5 * PI), -two_pi * math.log(
        1.0 + eps
    )
    for a in (1.1, 1.25):
        alpha = math.asin(1.0 / a)
        yield f"G turning a={a}", angular_primitive(
            a, 0.25 * (PI + 2.0 * alpha)
        ), turning_angle_primitive_closed_form(a)
    # unit-distance row: the interior logarithm reduces to 2*log(eps)
    q = OverlapQuery(1.0, eps)
    phi = intersection_angle(q)
    big_phi = phi_map(phi, 1.0)
    im = dilog(-complex(math.cos(2.0 * big_phi), math.sin(2.0 * big_phi))).imag
    expected = 2.0 * im + eps * math.sqrt(4.0 - eps * eps) * (1.0 - math.log(eps))
    yield "G(1,Phi(phi))", angular_primitive(1.0, big_phi), expected


TABLES_EPS = 0.2
TABLES_TOL = 1e-12


def check_golden_tables() -> CheckResult:
    """Closed-form table rows for the maps and the angular primitive."""
    worst, where = _worst((abs(got - want), label) for label, got, want in _table_rows(TABLES_EPS))
    return CheckResult("golden-tables", worst <= TABLES_TOL, worst, TABLES_TOL, where)


SERIES_EPS = (1e-2, 1e-3, 1e-4)
SERIES_GRID_N = 51
SERIES_FACTOR = 5e-2


def check_series_accuracy() -> CheckResult:
    """Band-core series against the exact core on both branches."""
    ratios = []  # (gap / bound, where)
    for e in SERIES_EPS:
        lam_star = ((e - 1.0) + math.sqrt(1.0 + e * e)) / (2.0 * e)
        inner = np.linspace(0.0, lam_star, SERIES_GRID_N)
        outer = np.linspace(lam_star, 1.0, SERIES_GRID_N + 1)[1:]
        bound = SERIES_FACTOR * e
        for lam in np.concatenate([inner, outer]).tolist():
            p = BandPoint(lam, e)
            d = abs(band_core(p) - band_core_series(p))
            ratios.append((d / bound, f"lam={lam:.4g}, eps={e:g}"))
    worst_ratio, where = _worst(ratios)
    return CheckResult(
        "series-accuracy", worst_ratio <= 1.0, worst_ratio, 1.0, f"err/(5e-2*eps) at {where}"
    )


CUBIC_EPS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
CUBIC_WINDOW = (4.5, 5.5)


def _log_fit(eps: Sequence[float], figures: Sequence[float]) -> tuple[float, float, str]:
    """Slope and intercept of log(figure) on log(eps) and "", or NaN, NaN and
    the reason when a figure is zero, negative or not finite."""
    for e, d in zip(eps, figures):
        if not 0.0 < d < math.inf:
            return math.nan, math.nan, f"{d!r} at eps={e:g}: no log-log fit"
    slope, logc = np.polyfit(np.log(eps), np.log(figures), 1)
    return float(slope), float(logc), ""


def check_unit_cubic_slope() -> CheckResult:
    """Log-log decay rate of the cubic-expansion error at the unit distance."""
    errs = [abs(wedge_term(OverlapQuery(1.0, e)) - unit_wedge_series(e)) for e in CUBIC_EPS]
    slope, _, bad = _log_fit(CUBIC_EPS, errs)
    lo, hi = CUBIC_WINDOW
    detail = bad or f"slope, want within {CUBIC_WINDOW}"
    return CheckResult("unit-cubic-slope", lo <= slope <= hi, slope, hi, detail)


ANGLE_EPS = (1e-2, 1e-3)
ANGLE_GRID_N = 101
ANGLE_FACTOR = 10.0


def check_angle_series() -> CheckResult:
    """Three-term angle expansion against the exact intersection angle,
    within ``ANGLE_FACTOR * eps^3``.

    The comparison is made at the band coordinate implied by the rounded
    centre distance, so it measures the series remainder rather than the
    square-root sensitivity of the edge map to that rounding.
    """
    ratios = []  # (gap / bound, where)
    for e in ANGLE_EPS:
        bound = ANGLE_FACTOR * e * e * e
        for lam in np.linspace(0.0, 1.0, ANGLE_GRID_N).tolist():
            a = from_band(BandPoint(lam, e))
            lam_hat = to_band(a, e).lam
            exact = intersection_angle(OverlapQuery(a, e))
            d = abs(band_angle_series(BandPoint(lam_hat, e)) - exact)
            ratios.append((d / bound, f"lam={lam:.4g}, eps={e:g}"))
    worst_ratio, where = _worst(ratios)
    return CheckResult(
        "angle-series", worst_ratio <= 1.0, worst_ratio, 1.0, f"err/(10*eps^3) at {where}"
    )


STABILITY_SCAN_EPS = tuple(np.logspace(-1.0, -14.0, 14).tolist())
STABILITY_GRID_N = 1000
STABILITY_THRESHOLD = 1e-5
STABILITY_THRESHOLD_N = 401
STABILITY_TOL = 1e-6


def check_stability() -> CheckResult:
    """Stable path finite at extreme radii; series route near the exact path."""
    tol, n = STABILITY_TOL, STABILITY_GRID_N
    for e in STABILITY_SCAN_EPS:
        # half the grid over [0, 1 + eps], half over the band
        half = n // 2
        lower = np.linspace(0.0, 1.0 + e, half)
        grid = np.concatenate([lower, np.linspace(1.0 - e, 1.0 + e, n - half)])
        for a in grid.tolist():
            v = lune_potential_stable(OverlapQuery(a, e))
            if not math.isfinite(v):
                where = f"non-finite at a={a}, eps={e}"
                return CheckResult("stability", False, math.inf, tol, where)
    e = STABILITY_THRESHOLD
    grid = np.linspace(1.0 - e, 1.0 + e, STABILITY_THRESHOLD_N)
    d = np.abs(lune_potential_series_array(grid, e) - lune_potential_array(grid, e))
    k = int(np.argmax(d))
    worst = float(d[k]) / (e * e * abs(math.log(e * e)))
    where = f"a={float(grid[k])!r}"
    return CheckResult("stability", worst <= tol, worst, tol, f"threshold agreement, {where}")


ASYMMETRY_EPS = (1e-2, 1e-3, 1e-4)
ASYMMETRY_GRID_N = 201
ASYMMETRY_SLOPE_WINDOW = (0.8, 1.2)
ASYMMETRY_PREFACTOR_WINDOW = (5e-3, 8e-2)


def check_asymmetry() -> CheckResult:
    """Asymmetry index of the scaled band profile: slope-1 decay in eps with
    a prefactor near 2e-2.  The result's ``points`` are the pairs fitted."""
    etas = [band_profile(e, ASYMMETRY_GRID_N)[2] for e in ASYMMETRY_EPS]
    slope, logc, bad = _log_fit(ASYMMETRY_EPS, etas)
    prefactor = math.exp(logc)
    lo, hi = ASYMMETRY_SLOPE_WINDOW
    pmin, pmax = ASYMMETRY_PREFACTOR_WINDOW
    ok = lo <= slope <= hi and pmin <= prefactor <= pmax
    detail = bad or f"slope={slope:.3f}, prefactor={prefactor:.3e}"
    points = tuple(zip(ASYMMETRY_EPS, etas))
    return CheckResult("asymmetry-index", ok, slope, hi, detail, points=points)


DILOG_N = 100
DILOG_SEED = 20260808
DILOG_TOL_REFLECTION = 1e-13
DILOG_TOL_BOUNDARY = 1e-12


def check_dilog_identities() -> CheckResult:
    """Reflection identity in the unit disc and the boundary value on the cut."""
    rng = np.random.default_rng(DILOG_SEED)
    ratios = []  # (gap / tolerance, where)
    count = 0
    while count < DILOG_N:
        x, y = rng.uniform(-1.0, 1.0, 2)
        z = complex(x, y)
        if abs(z) >= 0.995 or abs(z) < 1e-3:
            continue
        count += 1
        w = complex(1.0 - z.real, -z.imag)  # opposite side of the axis
        lhs = dilog(z) + dilog(w)
        rhs = PI * PI / 6.0 - cmath.log(z) * cmath.log(w)
        ratios.append((abs(lhs - rhs) / DILOG_TOL_REFLECTION, f"reflection at z={z:.4g}"))
    for a in (1.1, 2.0, 5.0):
        d = abs(dilog_lower_boundary(a).imag + PI * math.log(a)) / DILOG_TOL_BOUNDARY
        ratios.append((d, f"boundary at a={a}"))
    worst, where = _worst(ratios)
    return CheckResult("dilog-identities", worst <= 1.0, worst, 1.0, f"err/tol at {where}")

