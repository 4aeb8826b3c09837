import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lunepot import _kernels_py as kern
from lunepot.errors import DomainError, QuadratureWarning
from lunepot.geometry import OverlapQuery
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
    def test_gauss_nodes_match_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        pos = sorted(n for n in nodes if n > 0)
        table = sorted((kern._XGK[1], kern._XGK[3], kern._XGK[5]))
        assert np.allclose(pos, table, atol=5e-15, rtol=0.0)
        assert abs(kern._WG_C - weights[3]) <= 5e-15
        want = sorted(w for n, w in zip(nodes, weights) if n > 0)
        assert np.allclose(sorted(kern._WG), want, atol=5e-15, rtol=0.0)

    def test_kronrod_polynomial_exactness(self):
        # the 15-point rule integrates monomials up to degree 22 exactly
        for k in range(0, 23):
            total = kern._WGK_C * 0.0**k
            for x, w in zip(kern._XGK, kern._WGK):
                total += w * (x**k + (-x) ** k)
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(total - exact) <= 2e-14

    def test_adaptive_on_smooth_integrand(self):
        res = adaptive_quad(math.exp, 0.0, 1.0, 1e-13)
        assert res.value == pytest.approx(math.e - 1.0, abs=1e-14)
        assert res.converged


def _panel_nodes(lo, hi):
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    return [c] + [c + s * h * x for x in kern._XGK for s in (1.0, -1.0)]


class TestWedgePanel:
    # wedge_panel writes _wedge_f out inline; it must stay bit-identical
    # to the generic panel over _wedge_f

    @given(
        a=st.floats(min_value=0.0, max_value=1.5),
        u=st.floats(min_value=0.0, max_value=1.0),
        v=st.floats(min_value=0.0, max_value=1.0),
        far=st.booleans(),
    )
    @settings(max_examples=500, deadline=None)
    def test_bit_identical_to_generic_panel(self, a, u, v, far):
        # inside the chord domain: every angle for a <= 1, within the
        # turning angle of 0 (far) or pi beyond
        if a <= 1.0:
            lo, hi = 2.0 * PI * u, 2.0 * PI * v
        else:
            alpha = math.asin(1.0 / a)
            centre = 0.0 if far else PI
            lo, hi = centre + alpha * (2.0 * u - 1.0), centre + alpha * (2.0 * v - 1.0)
        assert kern.wedge_panel(a, lo, hi) == kern._panel(kern._wedge_f, a, lo, hi)

    @pytest.mark.parametrize(
        "lo,hi", [(0.25 * PI, 0.5 * PI), (1.0, 0.5 * PI + 0.3), (0.0, 1e-3), (0.0, PI)]
    )
    def test_zero_radius_guard(self, lo, hi):
        # a = 1 up to theta = pi/2: the chord radius vanishes to roundoff
        # and t < 1e-300 takes the zero branch at some nodes
        assert any(kern.chord_radius_core(t, 1.0) ** 2 < 1e-300 for t in _panel_nodes(lo, hi))
        assert kern.wedge_panel(1.0, lo, hi) == kern._panel(kern._wedge_f, 1.0, lo, hi)

    @pytest.mark.parametrize("lo,hi", [(0.5 * PI, PI), (PI - math.asin(0.8) - 0.1, 2.3)])
    def test_discriminant_clamp(self, lo, hi):
        # a > 1 past the turning angle: 1 - a^2 sin^2 < 0 is clamped to 0
        a = 1.25
        assert any(1.0 - (a * math.sin(t)) ** 2 < 0.0 for t in _panel_nodes(lo, hi))
        assert kern.wedge_panel(a, lo, hi) == kern._panel(kern._wedge_f, a, lo, hi)


def _turn_f(tau, arg):
    # the wedge integrand in tau = sqrt(theta - theta_t)
    theta_t, a = arg
    return 2.0 * tau * kern._wedge_f(theta_t + tau * tau, a)


class TestWedgePanelTurn:
    # wedge_panel_turn writes _turn_f out inline; it must stay
    # bit-identical to the generic panel over _turn_f

    @given(
        a=st.floats(min_value=1.0, max_value=1.5, exclude_min=True),
        u=st.floats(min_value=0.0, max_value=1.0),
        v=st.floats(min_value=0.0, max_value=1.0),
        upper=st.booleans(),
    )
    @settings(max_examples=500, deadline=None)
    def test_bit_identical_to_generic_panel(self, a, u, v, upper):
        # tau in [0, sqrt(2 alpha)] spans the chord domain past either
        # turning angle
        alpha = math.asin(1.0 / a)
        arg = ((2.0 * PI if upper else PI) - alpha, a)
        top = math.sqrt(2.0 * alpha)
        lo, hi = top * u, top * v
        assert kern.wedge_panel_turn(arg, lo, hi) == kern._panel(_turn_f, arg, lo, hi)

    @pytest.mark.parametrize("a", [1.003, 1.05, 1.4])
    @pytest.mark.parametrize("upper", [False, True])
    def test_node_at_turning_angle(self, a, upper):
        # a panel centred on tau = 0 evaluates the turning angle itself
        alpha = math.asin(1.0 / a)
        arg = ((2.0 * PI if upper else PI) - alpha, a)
        top = math.sqrt(alpha)
        assert kern.wedge_panel_turn(arg, -top, top) == kern._panel(_turn_f, arg, -top, top)

    @pytest.mark.parametrize("lo,hi", [(0.0, 0.4), (-0.3, 0.3), (0.1, 0.2)])
    def test_discriminant_clamp(self, lo, hi):
        # theta_t below the turning angle pi - alpha: 1 - a^2 sin^2 < 0 at
        # the first nodes and is clamped to 0
        a = 1.25
        arg = (PI - math.asin(1.0 / a) - 0.05, a)
        thetas = [arg[0] + t * t for t in _panel_nodes(lo, hi)]
        assert any(1.0 - (a * math.sin(t)) ** 2 < 0.0 for t in thetas)
        assert kern.wedge_panel_turn(arg, lo, hi) == kern._panel(_turn_f, arg, lo, hi)


class TestGolden:
    # pinned QuadResults: a change to the panels or to the adaptive
    # driver's set-up must leave every field bit-identical.  Rows with
    # a > 1 integrate in tau about the turning angle; the two budget-3
    # rows stop one panel short of convergence.
    @pytest.mark.parametrize(
        "fn,a,e,kwargs,want",
        [
            (quad_lune, 0.95, 0.1, {},
             QuadResult(-0.011456196296062184, 1.9857345888215385e-14, 2, True)),
            (quad_lune, 1.0, 0.1, {},
             QuadResult(-0.006866589699114386, 3.0741323237732393e-13, 4, True)),
            (quad_lune, 1.003, 0.1, {},
             QuadResult(-0.006554032568462885, 7.16845853680024e-15, 4, True)),
            (quad_lune, 1.05, 0.1, {},
             QuadResult(-0.0023838531929550296, 3.669645029785201e-13, 1, True)),
            (quad_lune, 0.9997, 0.001, {},
             QuadResult(-2.5756492839743205e-06, 4.862422339876883e-14, 2, True)),
            (quad_lune, 0.8, 0.5, {},
             QuadResult(-0.11306506237377444, 1.4362413105336571e-13, 2, True)),
            (quad_lune, 1.003, 0.1, {"budget": 3},
             QuadResult(-0.006554032568462885, 1.702246027022781e-11, 3, False)),
            (quad_wedge, 0.97, 0.05, {},
             QuadResult(-0.0003716444965633194, 4.0125596249731307e-13, 1, True)),
            (quad_wedge, 1.02, 0.05, {},
             QuadResult(0.000283425864581517, 1.4840814636427975e-13, 1, True)),
            (quad_wedge, 1.003, 0.1, {"budget": 3},
             QuadResult(4.804109492219522e-05, 8.511230135113905e-12, 3, False)),
        ],
    )
    def test_lune_and_wedge(self, fn, a, e, kwargs, want):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuadratureWarning)
            assert fn(OverlapQuery(a, e), **kwargs) == want

    def test_cos_log(self):
        assert quad_cos_log(0.7, 2.0) == QuadResult(
            1.5320937004417474, 7.820410985459603e-13, 4, True
        )
        assert quad_cos_log(1.0, 0.5) == QuadResult(
            0.06313883403866909, 9.426667266609264e-13, 7, True
        )

    def test_adaptive(self):
        assert adaptive_quad(math.exp, 0.0, 1.0, 1e-13) == QuadResult(
            1.71828182845904, 5.995204332975845e-15, 1, True
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
        # value is continuous across the change from two angular intervals
        # to one at a^2 = 1 + eps^2
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
