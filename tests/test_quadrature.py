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


class TestWedgePanel:
    # wedge_panel writes the arc integrand _wedge_f out inline; it must
    # stay bit-identical to the generic panel over _wedge_f

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
        assert kern.wedge_panel(arg, lo, hi) == kern._panel(kern._wedge_f, arg, lo, hi)

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
        assert kern.wedge_panel(arg, lo, hi) == kern._panel(kern._wedge_f, arg, lo, hi)

    def test_zero_radius_guard_at_centre_node(self):
        # a window of ordinary width centred on beta = 0: only the centre
        # node takes the zero branch
        arg = _arc_arg(1.0)
        assert kern.wedge_panel(arg, -1e-3, 1e-3) == kern._panel(kern._wedge_f, arg, -1e-3, 1e-3)


class TestGolden:
    # pinned QuadResults: a change to the panels or to the adaptive
    # driver's set-up must leave every field bit-identical.  Every band
    # point starts from one interval in the arc angle; the two budget-3
    # rows stop short of convergence.
    @pytest.mark.parametrize(
        "fn,a,e,kwargs,want",
        [
            (quad_lune, 0.95, 0.1, {},
             QuadResult(-0.01145619629606219, 2.438839390512845e-15, 2, True)),
            (quad_lune, 1.0, 0.1, {},
             QuadResult(-0.006866589699114388, 3.0741222029514897e-13, 4, True)),
            (quad_lune, 1.003, 0.1, {},
             QuadResult(-0.006554032568462884, 1.5872265266943446e-13, 5, True)),
            (quad_lune, 1.05, 0.1, {},
             QuadResult(-0.0023838531929550274, 2.447122084995823e-15, 2, True)),
            (quad_lune, 0.9997, 0.001, {},
             QuadResult(-2.5756492839745374e-06, 3.011949084304242e-14, 1, True)),
            (quad_lune, 0.8, 0.5, {},
             QuadResult(-0.11306506237377453, 8.094953408030409e-16, 3, True)),
            (quad_lune, 1.003, 0.1, {"budget": 3},
             QuadResult(-0.0065540325680956265, 1.0130703299872326e-09, 3, False)),
            (quad_wedge, 0.97, 0.05, {},
             QuadResult(-0.00037164449656332065, 4.725739652980863e-14, 1, True)),
            (quad_wedge, 1.02, 0.05, {},
             QuadResult(0.0002834258645815174, 8.238916991512668e-15, 2, True)),
            (quad_wedge, 1.003, 0.1, {"budget": 3},
             QuadResult(4.804109510582424e-05, 5.065351649936163e-10, 3, False)),
        ],
    )
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


class TestWarningSite:
    # an unconverged run warns at the caller's line, so the default filter
    # shows one warning per calling line, not one per process
    @pytest.mark.parametrize(
        "call",
        [
            lambda: quad_lune(OverlapQuery(1.003, 0.1), budget=2),
            lambda: quad_wedge(OverlapQuery(1.003, 0.1), budget=2),
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
