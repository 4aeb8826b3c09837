"""Self-validation checks shared by the CLI and the acceptance suite.

Each check compares an independent pair of computations (closed form vs
quadrature, two exact representations, series vs exact, ...) and reports
the worst deviation against its tolerance.
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
    name: str
    passed: bool
    max_err: float
    tol: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{self.name}: max_err={self.max_err:.3e} tol={self.tol:.3e} {status}"
        if self.detail:
            out += f" ({self.detail})"
        return out


def _band_envelope(eps: float) -> float:
    e2 = eps * eps
    return 0.25 * e2 * (1.0 - math.log(e2))


def check_oracle_agreement(
    eps_list: Sequence[float] = (0.5, 0.2, 0.05, 0.01),
    grid_n: int = 200,
    quad_tol: float = 1e-12,
    tol: float = 1e-9,
) -> CheckResult:
    """Closed-form potential against the quadrature oracle on uniform grids."""
    worst = 0.0
    where = ""
    for e in eps_list:
        for a in np.linspace(0.0, 1.0 + e, grid_n):
            q = OverlapQuery(float(a), e)
            d = abs(lune_potential(q) - quad_lune(q, quad_tol).value)
            if d > worst:
                worst, where = d, f"a={float(a):.6g}, eps={e:g}"
    return CheckResult("oracle-agreement", worst <= tol, worst, tol, where)


def _jump(f, th: float, offset: float) -> float:
    # Richardson extraction of the one-sided-limit difference: for a
    # function with a jump J and bounded one-sided slopes,
    # 2*[f(th+d) - f(th-d)] - [f(th+2d) - f(th-2d)] = J + O(d^2), so the
    # smooth slope contribution (which alone exceeds 1e-10 at the probe
    # offsets for the largest radii) cancels.
    d1 = f(th + offset) - f(th - offset)
    d2 = f(th + 2.0 * offset) - f(th - 2.0 * offset)
    return 2.0 * d1 - d2


def check_branch_continuity(
    eps_list: Sequence[float] = (0.5, 0.1, 0.01),
    offset: float = 1e-9,
    tol: float = 1e-10,
) -> CheckResult:
    """Jump of the potential and of the wedge term across the branch
    thresholds, probed at the given offset or at 1e-3*eps where that is
    smaller, so that the probes stay inside the band at every radius.

    The potential is tested at all four thresholds.  The wedge term is
    tested two-sided at the interior thresholds 1 and sqrt(1+eps^2); at
    the band edges, outside of which it is undefined, continuity on the
    closed band means the edge value must equal the limit 0, which is
    what is asserted there.  The edge is probed at the first double on or
    outside it: the double nearest 1 -/+ eps can lie inside the band,
    where the wedge is O(sqrt(distance)) and not 0.
    """
    worst = 0.0
    where = ""
    for e in eps_list:
        pot = lambda a: lune_potential(OverlapQuery(a, e))
        wed = lambda a: wedge_term(OverlapQuery(a, e))
        probe = min(offset, 1e-3 * e)
        for th in (1.0 - e, 1.0, math.sqrt(1.0 + e * e), 1.0 + e):
            d = abs(_jump(pot, th, probe))
            if d > worst:
                worst, where = d, f"E at {th:.6g}, eps={e:g}"
        for th in (1.0, math.sqrt(1.0 + e * e)):
            d = abs(_jump(wed, th, probe))
            if d > worst:
                worst, where = d, f"F at {th:.6g}, eps={e:g}"
        lo, hi = 1.0 - e, 1.0 + e
        while lo - 1.0 > -e:
            lo = math.nextafter(lo, 0.0)
        while hi - 1.0 < e:
            hi = math.nextafter(hi, 2.0)
        for edge in (lo, hi):
            d = abs(wed(edge))
            if d > worst:
                worst, where = d, f"F edge {edge:.6g}, eps={e:g}"
    return CheckResult("branch-continuity", worst <= tol, worst, tol, where)


def check_representation_equivalence(
    eps_list: Sequence[float] = (0.5, 0.1, 0.01),
    grid_n: int = 100,
    tol: float = 1e-10,
) -> CheckResult:
    """Direct wedge term against the change-of-order representation on
    (1-eps, 1]."""
    worst = 0.0
    where = ""
    for e in eps_list:
        for k in range(1, grid_n + 1):
            a = 1.0 - e + e * k / grid_n
            q = OverlapQuery(a, e)
            d = abs(wedge_term(q) - wedge_term_reordered(q))
            if d > worst:
                worst, where = d, f"a={a:.6g}, eps={e:g}"
    return CheckResult("representation-equivalence", worst <= tol, worst, tol, where)


def check_global_bound(
    eps_list: Sequence[float] = (0.5, 0.2, 0.05, 0.01),
    grid_n: int = 200,
    slack: float = 1e-14,
) -> CheckResult:
    """|E| never exceeds eps^2*(1 - log eps^2)/4 anywhere in [0, 1+eps]."""
    worst = -math.inf
    where = ""
    for e in eps_list:
        env = _band_envelope(e) + slack
        for a in np.linspace(0.0, 1.0 + e, grid_n):
            q = OverlapQuery(float(a), e)
            excess = abs(lune_potential(q)) - env
            if excess > worst:
                worst, where = excess, f"a={float(a):.6g}, eps={e:g}"
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


def check_golden_tables(eps: float = 0.2, tol: float = 1e-12) -> CheckResult:
    """Closed-form table rows for the maps and the angular primitive."""
    worst = 0.0
    where = ""
    for label, got, want in _table_rows(eps):
        d = abs(got - want)
        if d > worst:
            worst, where = d, label
    return CheckResult("golden-tables", worst <= tol, worst, tol, where)


def check_series_accuracy(
    eps_list: Sequence[float] = (1e-2, 1e-3, 1e-4),
    grid_n: int = 51,
    factor: float = 5e-2,
) -> CheckResult:
    """Band-core series against the exact core on both branches."""
    worst_ratio = 0.0
    where = ""
    for e in eps_list:
        lam_star = ((e - 1.0) + math.sqrt(1.0 + e * e)) / (2.0 * e)
        inner = np.linspace(0.0, lam_star, grid_n)
        outer = np.linspace(lam_star, 1.0, grid_n + 1)[1:]
        bound = factor * e
        for lam in np.concatenate([inner, outer]):
            p = BandPoint(float(lam), e)
            d = abs(band_core(p) - band_core_series(p))
            if d / bound > worst_ratio:
                worst_ratio, where = d / bound, f"lam={float(lam):.4g}, eps={e:g}"
    return CheckResult(
        "series-accuracy", worst_ratio <= 1.0, worst_ratio, 1.0, f"err/(5e-2*eps) at {where}"
    )


def check_unit_cubic_slope(
    eps_list: Sequence[float] = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3),
    window: tuple[float, float] = (4.5, 5.5),
) -> CheckResult:
    """Log-log decay rate of the cubic-expansion error at the unit distance."""
    from .asymptotic import unit_wedge_series

    errs = [
        abs(wedge_term(OverlapQuery(1.0, e)) - unit_wedge_series(e)) for e in eps_list
    ]
    slope = float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0])
    ok = window[0] <= slope <= window[1]
    return CheckResult(
        "unit-cubic-slope", ok, slope, window[1], f"slope, want within {window}"
    )


def check_angle_series(
    eps_list: Sequence[float] = (1e-2, 1e-3),
    grid_n: int = 101,
    factor: float = 10.0,
) -> CheckResult:
    """Three-term angle expansion against the exact intersection angle.

    The comparison is made at the band coordinate implied by the rounded
    centre distance, so it measures the series remainder rather than the
    square-root sensitivity of the edge map to that rounding.
    """
    worst_ratio = 0.0
    where = ""
    for e in eps_list:
        bound = factor * e * e * e
        for lam in np.linspace(0.0, 1.0, grid_n):
            a = from_band(BandPoint(float(lam), e))
            lam_hat = to_band(a, e).lam
            d = abs(
                band_angle_series(BandPoint(lam_hat, e))
                - intersection_angle(OverlapQuery(a, e))
            )
            if d / bound > worst_ratio:
                worst_ratio, where = d / bound, f"lam={float(lam):.4g}, eps={e:g}"
    return CheckResult(
        "angle-series", worst_ratio <= 1.0, worst_ratio, 1.0, f"err/(10*eps^3) at {where}"
    )


def check_stability(
    threshold: float = 1e-5,
    grid_n: int = 1000,
    tol: float = 1e-6,
) -> CheckResult:
    """Finiteness of the stable path over extreme radii, plus the agreement
    of the series route (the paper's expansions) with the exact path, on
    the scaled quantity, at eps = threshold."""
    for e in np.logspace(-1.0, -14.0, 14):
        half = grid_n // 2
        grid = np.concatenate(
            [np.linspace(0.0, 1.0 + e, half), np.linspace(1.0 - e, 1.0 + e, grid_n - half)]
        )
        for a in grid:
            v = lune_potential_stable(OverlapQuery(float(a), float(e)))
            if not math.isfinite(v):
                return CheckResult(
                    "stability", False, math.inf, tol, f"non-finite at a={float(a)}, eps={float(e)}"
                )
    e = threshold
    grid = np.linspace(1.0 - e, 1.0 + e, 401)
    d = np.abs(lune_potential_series_array(grid, e) - lune_potential_array(grid, e))
    k = int(np.argmax(d))
    worst = float(d[k]) / (e * e * abs(math.log(e * e)))
    where = f"a={float(grid[k])!r}"
    return CheckResult("stability", worst <= tol, worst, tol, f"threshold agreement, {where}")


def check_asymmetry(
    eps_list: Sequence[float] = (1e-2, 1e-3, 1e-4),
    grid_n: int = 201,
    slope_window: tuple[float, float] = (0.8, 1.2),
    prefactor_window: tuple[float, float] = (5e-3, 8e-2),
) -> CheckResult:
    """Asymmetry index of the scaled band profile: slope-1 decay in eps with
    a prefactor near 2e-2."""
    return asymmetry_fit(eps_list, grid_n, slope_window, prefactor_window)[3]


def asymmetry_fit(
    eps_list: Sequence[float],
    grid_n: int,
    slope_window: tuple[float, float] = (0.8, 1.2),
    prefactor_window: tuple[float, float] = (5e-3, 8e-2),
) -> tuple[list[float], float, float, CheckResult]:
    """``check_asymmetry`` with the fit it judges: (the asymmetry index at
    each radius, the slope and log prefactor of the least-squares line of
    log eta against log eps, the check's result)."""
    etas = [band_profile(e, grid_n)[2] for e in eps_list]
    slope, logc = np.polyfit(np.log(eps_list), np.log(etas), 1)
    slope, logc = float(slope), float(logc)
    prefactor = math.exp(logc)
    ok = (
        slope_window[0] <= slope <= slope_window[1]
        and prefactor_window[0] <= prefactor <= prefactor_window[1]
    )
    result = CheckResult(
        "asymmetry-index",
        ok,
        slope,
        slope_window[1],
        f"slope={slope:.3f}, prefactor={prefactor:.3e}",
    )
    return etas, slope, logc, result


def check_dilog_identities(
    n: int = 100,
    tol_reflection: float = 1e-13,
    tol_boundary: float = 1e-12,
    seed: int = 20260808,
) -> CheckResult:
    """Reflection identity on random unit-disc points and the boundary value
    on the cut."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    where = ""
    count = 0
    while count < n:
        x, y = rng.uniform(-1.0, 1.0, 2)
        z = complex(x, y)
        if abs(z) >= 0.995 or abs(z) < 1e-3:
            continue
        count += 1
        w = complex(1.0 - z.real, -z.imag)  # opposite side of the axis
        lhs = dilog(z) + dilog(w)
        rhs = PI * PI / 6.0 - cmath.log(z) * cmath.log(w)
        d = abs(lhs - rhs) / tol_reflection
        if d > worst:
            worst, where = d, f"reflection at z={z:.4g}"
    for a in (1.1, 2.0, 5.0):
        d = abs(dilog_lower_boundary(a).imag + PI * math.log(a)) / tol_boundary
        if d > worst:
            worst, where = d, f"boundary at a={a}"
    return CheckResult(
        "dilog-identities", worst <= 1.0, worst, 1.0, f"err/tol at {where}"
    )

