import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lunepot import quadrature as kern
from lunepot.errors import DomainError, QuadratureWarning
from lunepot.geometry import OverlapQuery, Regime, classify_regime, intersection_angle
from lunepot.quadrature import (
    QuadResult,
    adaptive_quad,
    quad_cos_log,
    quad_lune,
    quad_lune_tensor,
    quad_wedge,
)

PI = math.pi


class TestRulePair:
    # the GK 15/7 constants carry QUADPACK dqk15's full precision: at 15
    # significant digits the Kronrod weights summed to 2 - 6.0e-15

    def test_gauss_nodes_match_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        pos = sorted(n for n in nodes if n > 0)
        table = sorted((kern._XGK[1], kern._XGK[3], kern._XGK[5]))
        assert np.allclose(pos, table, atol=4e-16, rtol=0.0)
        assert abs(kern._WG_C - weights[3]) <= 4e-16
        want = sorted(w for n, w in zip(nodes, weights) if n > 0)
        assert np.allclose(sorted(kern._WG), want, atol=4e-16, rtol=0.0)

    def test_kronrod_polynomial_exactness(self):
        # the 15-point rule integrates monomials up to degree 22 exactly
        for k in range(0, 23):
            total = kern._WGK_C * 0.0**k
            for x, w in zip(kern._XGK, kern._WGK):
                total += w * (x**k + (-x) ** k)
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(total - exact) <= 4e-16

    def test_gauss_polynomial_exactness(self):
        # the embedded 7-point rule integrates monomials up to degree 13
        for k in range(0, 14):
            total = kern._WG_C * 0.0**k
            for x, w in zip(kern._XGK[1::2], kern._WG):
                total += w * (x**k + (-x) ** k)
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(total - exact) <= 4e-16

    def test_adaptive_on_smooth_integrand(self):
        res = adaptive_quad(math.exp, 0.0, 1.0, 1e-13)
        assert res.value == pytest.approx(math.e - 1.0, abs=1e-14)
        assert res.converged


class TestAdaptiveLimits:
    @pytest.mark.parametrize("f", [math.exp, math.sqrt], ids=["exp", "sqrt"])
    def test_reversed_limits_negate(self, f):
        # as QUADPACK's dqag: the integral over [hi, lo], negated; sqrt
        # bisects, so the partition is compared too
        forward = adaptive_quad(f, 0.0, 1.0, 1e-13)
        assert adaptive_quad(f, 1.0, 0.0, 1e-13) == forward._replace(value=-forward.value)

    def test_zero_width(self):
        assert adaptive_quad(math.exp, 0.5, 0.5) == QuadResult(0.0, 0.0, 1, True)

    @pytest.mark.parametrize(
        "lo,hi",
        [(0.0, math.inf), (-math.inf, 0.0), (math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)],
    )
    def test_non_finite_limit_raises(self, lo, hi):
        with pytest.raises(DomainError, match="finite"):
            adaptive_quad(math.exp, lo, hi)


def _panel_nodes(lo, hi):
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    return [c] + [c + s * h * x for x in kern._XGK for s in (1.0, -1.0)]


def _arc_arg(a):
    x = a - 1.0
    return (-x, x * x, 2.0 * a, 4.0 * a)


def _arc_ref(beta, arg):
    # the arc integrand written out here, apart from the module's source
    nx, x2, a2, a4 = arg
    s = math.sin(0.5 * beta)
    h = s * s
    t = x2 + a4 * h
    return 0.0 if t < 1e-300 else (nx + a2 * h) * (math.log(t) - 1.0)


def _sinh_arc_ref(v, arg):
    nx, hx2, lx, k2 = arg
    s = math.sinh(v)
    t = s * s
    return (nx + hx2 * t) * (lx + math.log1p(t)) * math.sqrt((1.0 + t) / (1.0 - k2 * t))


class TestIntegrands:
    # the panels and their loop-panel references share each integrand's
    # source; these references do not, so the integrand itself is checked

    @given(a=st.floats(min_value=0.0, max_value=2.0), u=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_arc(self, a, u):
        arg = _arc_arg(a)
        assert kern._wedge_f(PI * u, arg) == _arc_ref(PI * u, arg)

    @given(
        a=st.floats(min_value=1e-3, max_value=1.999).filter(lambda a: a != 1.0),
        u=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_sinh_arc(self, a, u):
        arg, end = _sinh_arg(a, 1.0)
        assert kern._sinh_wedge_f(end * u, arg) == _sinh_arc_ref(end * u, arg)


class TestWedgePanel:
    # wedge_panel and cos_log_panel are written out straight-line from the
    # GK template and the arc integrand; they must stay bit-identical to
    # the loop panel over _wedge_f, cos_log_panel negated

    @given(
        a=st.floats(min_value=0.0, max_value=2.0),
        u=st.floats(min_value=0.0, max_value=1.0),
        v=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_bit_identical_to_generic_panel(self, a, u, v):
        # arc angles span [0, pi]; beyond the unit distance 1 - a cos(beta)
        # changes sign inside it
        arg = _arc_arg(a)
        lo, hi = PI * u, PI * v
        assert kern.wedge_panel(arg, lo, hi) == kern._panel(lambda b: kern._wedge_f(b, arg), lo, hi)

    @given(
        a=st.floats(min_value=0.0, max_value=2.0),
        u=st.floats(min_value=0.0, max_value=1.0),
        v=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_cos_log_panel_negates_generic_panel(self, a, u, v):
        arg = _arc_arg(a)
        lo, hi = PI * u, PI * v
        k, g = kern._panel(lambda b: kern._wedge_f(b, arg), lo, hi)
        assert kern.cos_log_panel(arg, lo, hi) == (-k, -g)

    @pytest.mark.parametrize(
        "lo,hi", [(0.25 * PI, 0.5 * PI), (1.0, 0.5 * PI + 0.3), (0.0, 1e-3), (0.0, PI)]
    )
    def test_zero_radius_guard(self, lo, hi):
        # a = 1 at arc angles near 0: s^2 = 4 sin^2(beta/2) drops below
        # 1e-300 for beta below about 1e-150, so each window is taken in
        # units of 1e-152 and takes the zero branch at some nodes
        lo, hi = 1e-152 * lo, 1e-152 * hi
        arg = _arc_arg(1.0)
        assert any(4.0 * math.sin(0.5 * b) ** 2 < 1e-300 for b in _panel_nodes(lo, hi))
        assert kern.wedge_panel(arg, lo, hi) == kern._panel(lambda b: kern._wedge_f(b, arg), lo, hi)

    def test_zero_radius_guard_at_centre_node(self):
        # a window of ordinary width centred on beta = 0: only the centre
        # node takes the zero branch
        arg = _arc_arg(1.0)
        generic = kern._panel(lambda b: kern._wedge_f(b, arg), -1e-3, 1e-3)
        assert kern.wedge_panel(arg, -1e-3, 1e-3) == generic


def _sinh_arg(a, e):
    # the panel argument and the upper limit of the integral in v, as
    # quadrature._arc_wedge forms them for x = a - 1 != 0
    x = a - 1.0
    x2 = x * x
    k2 = x2 / (4.0 * a)
    h = (e + x) * (e - x) / (4.0 * a)
    end = math.asinh(math.sqrt(h / k2)) if h > 0.0 else 0.0
    return (-x, 0.5 * x2, math.log(x2) - 1.0, k2), end


class TestSinhWedgePanel:
    # sinh_wedge_panel is written out straight-line from the GK template
    # and the integrand in v; it must stay bit-identical to the loop panel
    # over _sinh_wedge_f

    @given(
        a=st.floats(min_value=1e-3, max_value=1.999).filter(lambda a: a != 1.0),
        w=st.floats(min_value=0.0, max_value=1.0),
        u=st.floats(min_value=0.0, max_value=1.0),
        v=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_bit_identical_to_generic_panel(self, a, w, u, v):
        # a radius between |x| and 1, and a window inside [0, v_V]
        x = abs(a - 1.0)
        arg, end = _sinh_arg(a, x + (1.0 - x) * w)
        lo, hi = end * u, end * v
        generic = kern._panel(lambda t: kern._sinh_wedge_f(t, arg), lo, hi)
        assert kern.sinh_wedge_panel(arg, lo, hi) == generic

    @pytest.mark.parametrize("a", [math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)])
    def test_longest_interval(self, a):
        # one ulp from the unit distance at eps near 1, v_V is about 37 and
        # t = sinh^2(v) reaches about 1e32
        arg, end = _sinh_arg(a, 0.999)
        assert end > 36.0
        generic = kern._panel(lambda t: kern._sinh_wedge_f(t, arg), 0.0, end)
        assert kern.sinh_wedge_panel(arg, 0.0, end) == generic


class TestAgainstMpmath:
    # the oracle's scaled error |E - E_ref| / (eps^2 |log eps^2|) at its
    # default tolerance; the tolerance is absolute, so at the smallest
    # radii and at x just off 0 it admits more than the closed form's 1e-15

    @pytest.mark.parametrize("e", [0.999, 0.5, 0.1, 1e-3, 1e-6, 1e-10])
    def test_ulp_set(self, e):
        # x = a - 1 at 0, one ulp either side of it and at fixed fractions of
        # eps, out to just inside the band edges
        from mp_reference import scaled_error

        points = [1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]
        points += [1.0 + s * f * e for f in (1e-8, 1e-3, 0.999999) for s in (1.0, -1.0)]
        worst = 0.0
        for a in points:
            res = quad_lune(OverlapQuery(a, e))
            assert res.converged, a
            worst = max(worst, scaled_error(res.value, a, e))
        assert worst <= 1e-11

    def test_random_band_set(self):
        # eps log-uniform in [1e-6, 1/2], band coordinate uniform; the
        # arc-angle route of earlier versions missed 1e-9 on 2.5% of these
        from mp_reference import scaled_error

        rng = np.random.default_rng(12345)
        eps = np.exp(rng.uniform(math.log(1e-6), math.log(0.5), 400))
        a = 1.0 - (1.0 - 2.0 * rng.uniform(0.0, 1.0, 400)) * eps
        off = []
        for ai, e in zip(a.tolist(), eps.tolist()):
            res = quad_lune(OverlapQuery(ai, e))
            assert res.converged
            err = scaled_error(res.value, ai, e)
            if err > 1e-14:
                off.append((ai, e, err))
        assert off == []


# TestGolden's pinned rows, also counted by TestPanelsEvaluatedOnce
_GOLDEN = [
    (quad_lune, 0.95, 0.1, {},
     QuadResult(-0.01145619629606219, 3.761721678010932e-17, 1, True)),
    (quad_lune, 1.0, 0.1, {},
     QuadResult(-0.006866589699114388, 3.0741222029514897e-13, 4, True)),
    (quad_lune, 1.003, 0.1, {},
     QuadResult(-0.006554032568462884, 5.710151392196817e-14, 2, True)),
    (quad_lune, 1.05, 0.1, {},
     QuadResult(-0.002383853192955028, 3.5781110317990964e-16, 1, True)),
    (quad_lune, 0.9997, 0.001, {},
     QuadResult(-2.5756492839743243e-06, 2.922283094632192e-18, 1, True)),
    (quad_lune, 0.8, 0.5, {},
     QuadResult(-0.11306506237377453, 9.719646514340403e-16, 2, True)),
    (quad_lune, 1.003, 0.1, {"budget": 1},
     QuadResult(-0.006554032568462884, 1.0776671898471623e-11, 1, False)),
    (quad_wedge, 0.97, 0.05, {},
     QuadResult(-0.0003716444965633206, 9.553535163181051e-18, 1, True)),
    (quad_wedge, 1.02, 0.05, {},
     QuadResult(0.0002834258645815173, 6.369294220379091e-16, 1, True)),
    (quad_wedge, 1.003, 0.1, {"budget": 1},
     QuadResult(4.8041094922195554e-05, 5.388335949235811e-12, 1, False)),
    (quad_wedge, 1.0, 0.1, {"budget": 2},
     QuadResult(-4.162131645513698e-05, 9.837163017700625e-12, 2, False)),
]


class TestGolden:
    # pinned QuadResults: a change to the panels or to the adaptive
    # driver's set-up must leave every field bit-identical.  Every band
    # point starts from one interval, in v off the unit distance and in the
    # arc angle at it; the three budget rows stop short of convergence,
    # the last one on the arc-angle route.
    @pytest.mark.parametrize("fn,a,e,kwargs,want", _GOLDEN)
    def test_lune_and_wedge(self, fn, a, e, kwargs, want):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuadratureWarning)
            assert fn(OverlapQuery(a, e), **kwargs) == want

    def test_cos_log(self):
        assert quad_cos_log(0.7, 2.0) == QuadResult(
            1.5320937004417519, 7.814859870336477e-13, 4, True
        )
        assert quad_cos_log(1.0, 0.5) == QuadResult(
            0.06313883403866931, 9.428920667534118e-13, 7, True
        )

    def test_adaptive(self):
        assert adaptive_quad(math.exp, 0.0, 1.0, 1e-13) == QuadResult(
            1.718281828459045, 0.0, 1, True
        )


class TestPanelsEvaluatedOnce:
    # the route in v evaluates its first panel itself and hands its
    # estimates to the bisection driver: no panel is evaluated twice, so a
    # final partition of n intervals costs 2n - 1 panels, converged or
    # stopped by the budget.  cos_log_panel calls no other panel.

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {}
        for name in ("sinh_wedge_panel", "wedge_panel", "cos_log_panel"):

            def counted(arg, lo, hi, name=name, panel=getattr(kern, name)):
                counts[name] = counts.get(name, 0) + 1
                return panel(arg, lo, hi)

            monkeypatch.setattr(kern, name, counted)
        return counts

    @pytest.mark.parametrize("fn,a,e,kwargs,want", _GOLDEN)
    def test_golden_rows(self, counts, fn, a, e, kwargs, want):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuadratureWarning)
            res = fn(OverlapQuery(a, e), **kwargs)
        assert res == want
        route = "wedge_panel" if a == 1.0 else "sinh_wedge_panel"
        assert counts == {route: 2 * res.subdivisions - 1}

    @pytest.mark.parametrize("a,phi", [(0.7, 2.0), (1.0, 0.5)])
    def test_cos_log(self, counts, a, phi):
        res = quad_cos_log(a, phi)
        assert res.subdivisions > 1
        assert counts == {"cos_log_panel": 2 * res.subdivisions - 1}


class TestWarningSite:
    # an unconverged run warns at the caller's line, so the default filter
    # shows one warning per calling line, not one per process
    @pytest.mark.parametrize(
        "call",
        [
            # one bisection at the unit distance (the arc angle), none off
            # it (v): each stops short
            lambda: quad_lune(OverlapQuery(1.0, 0.1), budget=2),
            lambda: quad_wedge(OverlapQuery(1.003, 0.1), budget=1),
            lambda: quad_cos_log(1.0, 1.0, 1e-13, budget=2),
            lambda: adaptive_quad(math.sqrt, 0.0, 1.0, 1e-13, budget=2),
        ],
        ids=["quad_lune", "quad_wedge", "quad_cos_log", "adaptive_quad"],
    )
    def test_warning_names_caller(self, call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = call()
        assert not res.converged
        assert [w.category for w in caught] == [QuadratureWarning]
        assert caught[0].filename == __file__


class TestQuadWedge:
    def test_empty_interval(self):
        e = 0.25
        res = quad_wedge(OverlapQuery(1.0 - e, e))
        assert res.value == 0.0
        assert res.subdivisions >= 1

    def test_tolerance_monotonicity(self):
        q = OverlapQuery(0.95, 0.1)
        errs = [quad_wedge(q, tol).err_estimate for tol in (1e-6, 1e-8, 1e-10, 1e-12)]
        assert all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))

    def test_theta_structure_continuity(self):
        # value is continuous across a^2 = 1 + eps^2, where the region beyond
        # the unit distance goes from two polar-angle intervals to one
        e = 0.3
        a_star = math.sqrt(1.0 + e * e)
        lo = quad_wedge(OverlapQuery(a_star - 1e-11, e), 1e-12).value
        hi = quad_wedge(OverlapQuery(a_star + 1e-11, e), 1e-12).value
        assert abs(lo - hi) <= 1e-10

    def test_budget_flag(self):
        q = OverlapQuery(1.0, 0.3)
        with pytest.warns(QuadratureWarning):
            res = quad_wedge(q, 1e-13, budget=3)
        assert not res.converged

    def test_tolerance_floor(self):
        with pytest.raises(DomainError):
            quad_wedge(OverlapQuery(1.0, 0.3), 1e-14)

    def test_out_of_band(self):
        with pytest.raises(DomainError):
            quad_wedge(OverlapQuery(0.2, 0.3))


class TestQuadLune:
    def test_nested_is_closed_form(self):
        e = 0.5
        res = quad_lune(OverlapQuery(0.2, e))
        assert res.value == 0.25 * e * e * (math.log(e * e) - 1.0)
        assert res.err_estimate == 0.0

    def test_outside_zero(self):
        res = quad_lune(OverlapQuery(1.6, 0.5))
        assert res == QuadResult(0.0, 0.0, 1, True)

    def test_overlap_error_estimate(self):
        res = quad_lune(OverlapQuery(1.05, 0.2), 1e-11)
        assert res.converged
        assert res.err_estimate <= 1e-11

    def test_envelope(self):
        for e in (0.5, 0.2):
            env = 0.25 * e * e * (1.0 - math.log(e * e)) + 1e-12
            for a in np.linspace(0.0, 1.0 + e, 40):
                assert abs(quad_lune(OverlapQuery(float(a), e), 1e-11).value) <= env


class TestQuadLuneParts:
    # quad_lune reads the regime off x = a - 1 and takes the sector angle
    # from geometry's angle core; it must agree bit for bit with the sector
    # from intersection_angle plus twice quad_wedge at half the tolerance

    @pytest.mark.parametrize("tol", [1e-12, 1e-8])
    @pytest.mark.parametrize("e", [1e-6, 1e-3, 0.3])
    def test_sector_plus_wedge(self, e, tol):
        from test_accuracy import _ulp_neighbours

        rng = np.random.default_rng(20261018)
        points = (1.0 + e * rng.uniform(-1.0, 1.0, 40)).tolist()
        for t in (1.0 - e, 1.0, 1.0 + e, math.sqrt(1.0 + e * e)):
            points += _ulp_neighbours(t)
        e2 = e * e
        band = 0
        for a in points:
            q = OverlapQuery(a, e)
            res = quad_lune(q, tol)
            regime = classify_regime(q)
            if regime is Regime.NESTED:
                assert res == QuadResult(0.25 * e2 * (math.log(e2) - 1.0), 0.0, 1, True)
            elif regime is Regime.OUTSIDE:
                assert res == QuadResult(0.0, 0.0, 1, True)
            else:
                w = quad_wedge(q, tol / 2)
                sector = (PI - intersection_angle(q)) * e2 * (math.log(e2) - 1.0) / (4.0 * PI)
                want = (sector + 2.0 * w.value, 2.0 * w.err_estimate, w.subdivisions, w.converged)
                assert res == QuadResult(*want), (a, e)
                band += 1
        assert band > 50


class TestQuadResultRecord:
    def test_record(self):
        res = QuadResult(-0.5, 1e-13, 2)
        assert QuadResult._fields == ("value", "err_estimate", "subdivisions", "converged")
        assert res.converged is True
        assert repr(QuadResult(-0.5, 1e-13, 2, False)) == (
            "QuadResult(value=-0.5, err_estimate=1e-13, subdivisions=2, converged=False)"
        )
        with pytest.raises(AttributeError):
            res.value = 0.0
        value, err, count, converged = res
        assert (value, err, count, converged) == (-0.5, 1e-13, 2, True)
        assert res == (-0.5, 1e-13, 2, True)

    @pytest.mark.parametrize(
        "a,e,kwargs",
        [
            (0.2, 0.5, {}),
            (1.6, 0.5, {}),
            (0.95, 0.1, {}),
            (1.003, 0.1, {}),
            (1.0, 0.1, {}),
            (1.003, 0.1, {"budget": 1}),
        ],
        ids=["nested", "outside", "first-panel", "bisected", "unit-distance", "budget"],
    )
    def test_every_route_returns_the_record(self, a, e, kwargs):
        # quad_lune builds its results with tuple.__new__, which neither
        # checks the field count nor fills the default of converged
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuadratureWarning)
            res = quad_lune(OverlapQuery(a, e), **kwargs)
        assert type(res) is QuadResult
        assert res._fields == ("value", "err_estimate", "subdivisions", "converged")
        value, err, count, converged = res
        assert res == (value, err, count, converged)
        assert converged is ("budget" not in kwargs)

    @pytest.mark.parametrize("budget", [0, 1])
    def test_budget_at_initial_intervals(self, budget):
        # every band point starts from one interval.  A loose tolerance
        # returns straight after its panel; a budget at or below 1 goes on
        # to the heap and stops before the first bisection.  Both hold the
        # same sums; only the second warns, once.
        q = OverlapQuery(1.003, 0.1)
        loose = quad_lune(q, 1.0)
        assert loose.converged and loose.subdivisions == 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            capped = quad_lune(q, 1e-12, budget=budget)
        assert capped == loose._replace(converged=False)
        assert [w.category for w in caught] == [QuadratureWarning]


class TestHonestConvergence:
    # converged=True must mean the 1e-12 tolerance was met

    def test_beyond_unit_distance(self):
        # seeded band points beyond the unit distance plus, at 25 radii,
        # the ulp past 1, the seam a^2 = 1 + eps^2 with its ulp and 1e-9
        # relative neighbours, and the ulp below 1 + eps
        from mp_reference import potential

        rng = np.random.default_rng(20261018)
        eps = np.exp(rng.uniform(math.log(1e-6), math.log(0.5), 500))
        pts = list(zip((1.0 + eps * rng.random(500)).tolist(), eps.tolist()))
        for e in np.geomspace(1e-6, 0.5, 25).tolist():
            seam = math.sqrt(1.0 + e * e)
            for a in (
                math.nextafter(1.0, 2.0),
                seam,
                math.nextafter(seam, 0.0),
                math.nextafter(seam, 2.0),
                seam * (1.0 - 1e-9),
                seam * (1.0 + 1e-9),
                math.nextafter(1.0 + e, 0.0),
            ):
                pts.append((a, e))
        pts = [(a, e) for a, e in pts if 1.0 < a < 1.0 + e]
        assert len(pts) > 600
        off = []
        for a, e in pts:
            res = quad_lune(OverlapQuery(a, e), 1e-12)
            assert res.converged
            err = abs(res.value - float(potential(a, e)))
            if err > 1e-12:
                off.append((a, e, err))
        assert off == []

    @pytest.mark.parametrize("a", [math.nextafter(1.0, 0.0), 1.0 - 1e-12])
    @pytest.mark.parametrize("e", [0.3, 0.01, 1e-3, 1e-4])
    def test_layer_past_half_pi(self, a, e):
        # just below the unit distance the integrand lives in a thin layer
        # past pi/2, which one panel over [0, phi] misses
        from mp_reference import potential

        res = quad_lune(OverlapQuery(a, e), 1e-12)
        assert res.converged
        assert abs(res.value - float(potential(a, e))) <= 1e-12


class TestLayerBelowUnitDistance:
    # just below a = 1 the polar-angle integrand lived in a thin layer that
    # one panel's nodes straddled, and the oracle reported converged=True
    # while off by up to 7.5e-5 scaled; the arc-angle integrand is smooth
    @pytest.mark.parametrize(
        "a,e", [(1.0 - 1e-12, 1e-6), (1.0 - 1.39e-8, 5.1e-6), (1.0 - 1e-10, 1e-5)]
    )
    def test_against_mpmath(self, a, e):
        from mp_reference import potential

        res = quad_lune(OverlapQuery(a, e), 1e-12)
        assert res.converged
        scale = e * e * abs(math.log(e * e))
        assert abs(res.value - float(potential(a, e))) <= 1e-8 * scale


class TestQuadCosLog:
    def test_empty(self):
        assert quad_cos_log(0.5, 0.0).value == 0.0

    def test_near_log_endpoint(self):
        res = quad_cos_log(1.0, 1.0, 1e-12)
        assert res.converged
        assert math.isfinite(res.value)

    def test_domain(self):
        with pytest.raises(DomainError):
            quad_cos_log(1.5, 1.0)

    def test_no_cancellation_near_unit_modulus(self):
        # 1 - cos u formed by subtraction lost 0.8% of this value
        def f(u):
            # the integrand at a = 1
            h = mpmath.sin(u / 2) ** 2
            return -2 * h * (mpmath.log(4 * h) - 1)

        with mpmath.workdps(50):
            want = float(mpmath.quad(f, [0, mpmath.mpf(1e-7)]))
        res = quad_cos_log(1.0, 1e-7)
        assert res.converged
        assert abs(res.value - want) <= 1e-8 * want


class TestTensorCrossCheck:
    @pytest.mark.parametrize(
        "a,e",
        [(0.2, 0.5), (0.8, 0.3), (0.95, 0.1), (0.99, 0.05), (0.85, 0.2)],
    )
    def test_agrees_with_primary(self, a, e):
        q = OverlapQuery(a, e)
        tensor = quad_lune_tensor(q, 1e-9)
        primary = quad_lune(q, 1e-12)
        assert tensor.value == pytest.approx(primary.value, abs=1e-8)

    @pytest.mark.parametrize("a,e", [(1.06, 0.5), (1.3, 0.5), (1.02, 0.2), (1.002, 0.05)])
    def test_outer_branches_against_raw_region(self, a, e):
        # the raw 2D region integral pins the sign conventions of the
        # angular decomposition beyond the unit distance
        q = OverlapQuery(a, e)
        tensor = quad_lune_tensor(q, 1e-9)
        primary = quad_lune(q, 1e-12)
        assert tensor.value == pytest.approx(primary.value, abs=1e-8)
