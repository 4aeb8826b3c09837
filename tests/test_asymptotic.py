import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lunepot.asymptotic import (
    BandCoefficients,
    BandPoint,
    band_angle_series,
    band_coefficients,
    band_core,
    band_core_series,
    band_profile,
    from_band,
    lune_potential_series,
    lune_potential_series_array,
    lune_potential_stable,
    profile_value,
    to_band,
    unit_wedge_series,
)
from lunepot.closed_form import lune_potential, lune_potential_profile_array, wedge_term
from lunepot.errors import DomainError
from lunepot.geometry import EPS_MIN, OverlapQuery, intersection_angle, phi_map

PI = math.pi

# every way to build a band point other than calling the class: each must check
BAND_REBUILDS = {
    "_replace": lambda lam: BandPoint(0.5, 0.1)._replace(lam=lam),
    "_make": lambda lam: BandPoint._make((lam, 0.1)),
    "pickle": lambda lam: pickle.loads(pickle.dumps(tuple.__new__(BandPoint, (lam, 0.1)))),
    "copy": lambda lam: copy.copy(tuple.__new__(BandPoint, (lam, 0.1))),
}


class TestBandMaps:
    def test_midpoint(self):
        assert from_band(BandPoint(0.5, 0.1)) == 1.0

    def test_endpoints(self):
        e = 0.25
        assert from_band(BandPoint(0.0, e)) == 1.0 - e
        assert from_band(BandPoint(1.0, e)) == 1.0 + e

    def test_linear(self):
        e = 0.2
        assert to_band(1.0 + e / 2, e).lam == pytest.approx(0.75, abs=1e-14)

    def test_roundtrip(self):
        e = 0.1
        for lam in np.linspace(0, 1, 21):
            p = BandPoint(float(lam), e)
            assert to_band(from_band(p), e).lam == pytest.approx(p.lam, abs=1e-12)

    @pytest.mark.parametrize("how", sorted(BAND_REBUILDS))
    def test_rebuild_checks(self, how):
        with pytest.raises(DomainError):
            BAND_REBUILDS[how](1.5)
        p = BAND_REBUILDS[how](0.25)
        assert type(p) is BandPoint and p == (0.25, 0.1)
        assert p._fields == ("lam", "eps")

    def test_domain(self):
        with pytest.raises(DomainError):
            to_band(0.5, 0.1)
        with pytest.raises(DomainError):
            BandPoint(1.5, 0.1)
        # below EPS_MIN, as check_radius has it: band_core read 0.0 at 1e-300
        with pytest.raises(DomainError, match="disc radius"):
            BandPoint(0.5, 1e-300)
        with pytest.raises(DomainError, match="disc radius"):
            to_band(1.0, 1e-300)
        with pytest.raises(DomainError, match="disc radius"):
            to_band(5.0, 1e-300)  # the radius is checked before the band


class TestBandCore:
    def test_vanishes_at_lower_edge(self):
        # the double fl(1 - eps) can lie just inside the band (0.9 does at
        # eps = 0.1, where the core is the reference's -5.5e-11), so the
        # core is compared with the reference at that double; where 1 - eps
        # is exact the core vanishes
        from mp_reference import wedge

        for e in (0.25, 0.1, 0.01):
            p = BandPoint(0.0, e)
            assert abs(band_core(p) - float(wedge(from_band(p), e))) <= 1e-16 * e * e
        for e in (2.0**-2, 2.0**-4, 2.0**-7):
            assert abs(band_core(BandPoint(0.0, e))) <= 1e-12

    def test_coincides_with_wedge_inside(self):
        for lam in (0.1, 0.25, 0.45):
            p = BandPoint(lam, 0.1)
            assert band_core(p) == pytest.approx(
                wedge_term(OverlapQuery(from_band(p), 0.1)), abs=1e-15
            )

    def test_outer_recombination(self):
        # above the unit distance the core still encodes the primitive at
        # the reduced half-angle: check against the composition through the
        # numerically evaluated chord radius
        from lunepot.closed_form import angular_primitive

        p = BandPoint(0.75, 0.1)
        a = from_band(p)
        q = OverlapQuery(a, 0.1)
        big_phi = phi_map(intersection_angle(q), a)
        want = (angular_primitive(a, big_phi) - (1.0 - a) * (1.0 + a) * PI) / (8.0 * PI)
        assert band_core(p) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("e", [1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5])
    def test_against_mpmath(self, e):
        # at the exact double a = from_band(p), away from the seam and from
        # lam = 1, where the sigma substitution has a square-root endpoint:
        # scaled on the inner branch, relative on the O(1) outer branch
        from mp_reference import core

        lam_star = ((e - 1.0) + math.sqrt(1.0 + e * e)) / (2.0 * e)
        for lam in np.linspace(0.0, 0.99, 34)[1:].tolist():
            if abs(lam - lam_star) < 0.02:
                continue
            p = BandPoint(lam, e)
            a = from_band(p)
            ref = float(core(a, e))
            if (a - 1.0) * (a + 1.0) <= e * e:
                assert abs(band_core(p) - ref) <= 1e-15 * e * e * abs(math.log(e * e))
            elif lam >= 0.6:
                assert abs(band_core(p) - ref) <= 1e-13 * abs(ref)

    def test_upper_edge_value(self):
        # at lam = 1 the primitive vanishes and the core is (a^2 - 1)/8
        e = 0.1
        a = 1.0 + e
        assert band_core(BandPoint(1.0, e)) == pytest.approx(
            (a * a - 1.0) / 8.0, abs=1e-14
        )


class TestCoefficients:
    def test_inner_zeros(self):
        for lam in (0.0, 0.5):
            c = band_coefficients(BandPoint(lam, 0.01))
            assert c.branch == "Inner"
            assert c.c_log == pytest.approx(0.0, abs=1e-16)
            assert c.c_quad == pytest.approx(0.0, abs=1e-16)

    @given(
        lam=st.floats(min_value=-1e-12, max_value=0.5),
        eps=st.floats(min_value=EPS_MIN, max_value=math.nextafter(1.0, 0.0)),
    )
    @settings(max_examples=500, deadline=None)
    def test_lower_half_band_is_inner(self, lam, eps):
        # lam <= 1/2 maps to x = a - 1 <= 0, so x*(2 + x) <= 0 <= eps^2:
        # the outer branch needs lam > 1/2 without a check of its own
        assert band_coefficients(BandPoint(lam, eps)).branch == "Inner"

    def test_outer_leading_constant(self):
        # Richardson check of the constant term against the exact core
        lam = 0.75
        c = band_coefficients(BandPoint(lam, 1e-3))
        assert c.branch == "Outer"
        h1_, h2_ = c.c1, c.c2
        for e in (1e-3, 1e-4):
            est = band_core(BandPoint(lam, e)) - h1_ * e - h2_ * e * e
            assert est == pytest.approx(c.c0, abs=50.0 * e**3)

    @pytest.mark.parametrize("lam", [0.7, 0.9, 0.95])
    def test_linear_coefficient_form(self, lam):
        # the eps^1 coefficient carries a doubled logarithm; the variant
        # with a single logarithm fails this extrapolation by ~1e-2
        c = band_coefficients(BandPoint(lam, 1e-3))
        beta = 2.0 * lam - 1.0
        sq = math.sqrt(lam * (1.0 - lam))
        omega = math.acos(beta)
        lg = math.log(4.0 * lam - 2.0)
        single_log = beta * ((PI - 2.0 * omega) + 2.0 * beta * (1.0 - lg) * sq) / (4.0 * PI)
        e = 1e-4
        est = (band_core(BandPoint(lam, e)) - c.c0 - c.c2 * e * e) / e
        assert abs(est - c.c1) <= 1e-4
        if abs(single_log - c.c1) > 1e-3:  # the two forms coincide at lam = 3/4
            assert abs(est - single_log) > 1e-3

    def test_structure(self):
        c = band_coefficients(BandPoint(0.2, 0.05))
        assert isinstance(c, BandCoefficients)
        assert c.c0 is None and c.c1 is None and c.c2 is None


class TestSeries:
    def test_inner_accuracy_spot(self):
        for lam in (0.1, 0.3):
            for e in (1e-3, 1e-4):
                p = BandPoint(lam, e)
                assert abs(band_core(p) - band_core_series(p)) <= 5e-2 * e

    def test_outer_accuracy_spot(self):
        for lam in (0.7, 0.9):
            for e in (1e-3, 1e-4):
                p = BandPoint(lam, e)
                assert abs(band_core(p) - band_core_series(p)) <= 5e-2 * e

    def test_order_of_accuracy(self):
        # log-log slope of the series error in eps is at least ~1
        for lam in (0.1, 0.3, 0.7, 0.9):
            errs = []
            eps_list = (1e-2, 1e-3, 1e-4)
            for e in eps_list:
                p = BandPoint(lam, e)
                errs.append(abs(band_core(p) - band_core_series(p)) + 1e-300)
            slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
            assert slope >= 0.9

    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.45])
    def test_inner_remainder_order_to_tiny_radii(self, lam):
        # the two-term inner remainder is O(eps^3 log eps): local log-log
        # slopes near 3 down to eps = 1e-12, compared at the band coordinate
        # of the rounded distance as check_angle_series does
        eps_list = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12]
        errs = []
        for e in eps_list:
            p = BandPoint(lam, e)
            lam_hat = to_band(from_band(p), e)
            errs.append(abs(band_core(p) - band_core_series(lam_hat)))
        slopes = np.diff(np.log(errs)) / np.diff(np.log(eps_list))
        assert np.all((2.8 <= slopes) & (slopes <= 3.1)), slopes

    def test_branch_consistency_at_crossover(self):
        from lunepot.asymptotic import _inner_series, _outer_coeffs

        for e in (1e-2, 1e-3):
            lam_star = ((e - 1.0) + math.sqrt(1.0 + e * e)) / (2.0 * e)
            inner_val = _inner_series(lam_star, e)
            c0, c1, c2 = _outer_coeffs(lam_star + 1e-9)
            outer_val = c0 + c1 * e + c2 * e * e
            assert abs(inner_val - outer_val) <= 10.0 * e

    def test_upper_edge_identity(self):
        # three-term outer series reproduces the exact core at lam = 1 to
        # its own remainder order; the exact side is compared at the band
        # coordinate implied by the rounded distance
        for e in (1e-2, 1e-3):
            p = BandPoint(1.0, e)
            assert band_core_series(p) == pytest.approx((2.0 * e + e * e) / 8.0, abs=1e-15)
            lam_hat = to_band(from_band(p), e).lam
            assert abs(band_core_series(BandPoint(lam_hat, e)) - band_core(p)) <= 2.0 * e**3


class TestUnitSeries:
    def test_negative(self):
        assert unit_wedge_series(1e-3) < 0.0

    def test_close_to_exact(self):
        e = 1e-3
        assert abs(unit_wedge_series(e) - wedge_term(OverlapQuery(1.0, e))) <= 1e-16

    def test_quintic_error_decay(self):
        eps_list = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
        errs = [
            abs(wedge_term(OverlapQuery(1.0, e)) - unit_wedge_series(e))
            for e in eps_list
        ]
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert 4.5 <= slope <= 5.5

    def test_remainder_order_to_small_radii(self):
        # against the mpmath wedge, where the double wedge term's rounding
        # does not swamp the remainder, the quintic order holds well below
        # check 7's smallest radius 1e-3: every local log-log slope lies in
        # the check's window
        from mp_reference import wedge

        eps_list = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6)
        errs = [abs(float(wedge(1.0, e) - unit_wedge_series(e))) for e in eps_list]
        slopes = np.diff(np.log(errs)) / np.diff(np.log(eps_list))
        assert np.all((4.5 <= slopes) & (slopes <= 5.5)), slopes

    def test_domain(self):
        # at 1e-300 the cube underflowed and the series read -0.0
        for eps in (0.9, 1e-300):
            with pytest.raises(DomainError, match="disc radius"):
                unit_wedge_series(eps)


class TestAngleSeries:
    def test_endpoints(self):
        assert band_angle_series(BandPoint(0.0, 1e-3)) == 0.0
        assert band_angle_series(BandPoint(1.0, 1e-3)) == pytest.approx(PI, abs=1e-15)

    def test_midpoint(self):
        e = 1e-3
        assert band_angle_series(BandPoint(0.5, e)) == pytest.approx(
            PI / 2 + 5e-4, abs=1e-12
        )
        a = from_band(BandPoint(0.5, e))
        assert abs(
            band_angle_series(BandPoint(0.5, e)) - intersection_angle(OverlapQuery(a, e))
        ) <= 1e-8


class TestStablePath:
    def test_bitwise_delegation_above_threshold(self):
        # the stable path is the exact closed form at every radius
        assert lune_potential_stable is lune_potential
        for e in (1e-14, 1e-10, 1e-6, 1e-5, 1e-4, 0.01, 0.3):
            for a in (0.5, 1.0 - e / 2, 1.0, 1.0 + e / 2, 2.0):
                q = OverlapQuery(a, e)
                assert lune_potential_stable(q) == lune_potential(q)

    def test_nested_shortcut(self):
        e = 1e-8
        assert lune_potential_stable(OverlapQuery(0.5, e)) == 0.25 * e * e * (
            math.log(e * e) - 1.0
        )

    def test_tiny_radius_at_unit(self):
        e = 1e-10
        v = lune_potential_stable(OverlapQuery(1.0, e))
        bound = 0.25 * e * e * (1.0 - math.log(e * e))
        assert math.isfinite(v)
        assert v < 0.0
        assert abs(v) <= bound

    def test_threshold_agreement_spot(self):
        e = 1e-5
        scale = e * e * abs(math.log(e * e))
        for a in (1.0 - e / 2, 1.0, 1.0 + e / 3, 1.0 + 0.9 * e):
            q = OverlapQuery(a, e)
            d = abs(lune_potential_series(q) - lune_potential(q)) / scale
            assert d <= 1e-6

    @pytest.mark.parametrize("e", [1e-10, 1e-12, 1e-14])
    def test_beyond_unit_against_mpmath(self, e):
        # the series route adds log1p(x) - x beyond the unit distance, which
        # cancels catastrophically when formed as a difference
        from mp_reference import scaled_error

        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            a = 1.0 + t * e
            assert scaled_error(lune_potential_stable(OverlapQuery(a, e)), a, e) <= 1e-9

    def test_finite_on_extreme_grid(self):
        for e in np.logspace(-6, -14, 5):
            for a in np.linspace(1.0 - e, 1.0 + e, 101):
                assert math.isfinite(lune_potential_stable(OverlapQuery(float(a), float(e))))


class TestSeriesRoute:
    @pytest.mark.parametrize("e", [1e-10, 1e-12, 1e-14])
    def test_beyond_unit_against_mpmath(self, e):
        # the series route adds log1p(x) - x beyond the unit distance, which
        # cancels catastrophically when formed as a difference
        from mp_reference import scaled_error

        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            a = 1.0 + t * e
            assert scaled_error(lune_potential_series(OverlapQuery(a, e)), a, e) <= 1e-9


class TestStableArray:
    """The series route over arrays against the scalar series route."""

    @given(
        t=st.floats(min_value=-1.5, max_value=1.5),
        log_eps=st.floats(min_value=math.log(1e-14), max_value=math.log(1e-5)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_below_threshold(self, t, log_eps):
        e = math.exp(log_eps)
        self._agree(max(1.0 + t * e, 0.0), e)

    @given(
        t=st.floats(min_value=-1.5, max_value=1.5),
        log_eps=st.floats(min_value=math.log(1e-14), max_value=math.log(0.5)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_in_asymptotic_mode(self, t, log_eps):
        e = math.exp(log_eps)
        self._agree(max(1.0 + t * e, 0.0), e)

    @staticmethod
    def _agree(a, e):
        got = lune_potential_series_array(np.array([a]), e)[0]
        assert got == lune_potential_series(OverlapQuery(a, e))
        if 1.0 - e <= a <= 1.0 + e:
            bound = 1e-13 * e * e * abs(math.log(e * e))
            profile = lune_potential_profile_array(np.array([a]), e)[1][0]
            assert abs(profile - profile_value(a, e)) <= bound

    def test_regimes_and_constants(self):
        # a power-of-two radius, so that 1 -/+ e are the band edges exactly
        e = 2.0**-27
        a = np.array([0.0, 0.5, 1.0 - e, 1.0, 1.0 + e, 2.0])
        got = lune_potential_series_array(a, e)
        want = [lune_potential_series(OverlapQuery(x, e)) for x in a.tolist()]
        assert np.array_equal(got[[0, 1, 2, 4, 5]], np.array(want)[[0, 1, 2, 4, 5]])
        assert got[4:].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("distance", [0.0, 1e-5, math.inf])
    @pytest.mark.parametrize("eps", [0.0, 1.5, math.nan])
    def test_radius_checked_before_distances(self, eps, distance):
        with pytest.raises(DomainError, match="disc radius"):
            lune_potential_series_array(np.array([distance]), eps)
        with pytest.raises(DomainError, match="disc radius"):
            lune_potential_series_array(np.array([-0.5, math.nan, distance]), eps)

    def test_bad_distance(self):
        with pytest.raises(DomainError, match="centre distance"):
            lune_potential_series_array(np.array([0.5, -0.1]), 1e-8)


class TestBandProfile:
    def test_endpoints_vanish(self):
        # the edges of the band are representable only to roundoff, which
        # the square-root vanishing rate amplifies; the profile endpoints
        # are tiny against the interior maxima (~2e-2) but not exact zeros
        _, scaled, _ = band_profile(1e-3, 101)
        assert abs(scaled[0]) <= 1e-6
        assert abs(scaled[-1]) <= 1e-6

    def test_three_local_minima(self):
        lams, scaled, _ = band_profile(1e-4, 401)
        mid = 200
        assert scaled[mid] < scaled[mid - 20]
        assert scaled[mid] < scaled[mid + 20]
        assert scaled[mid - 20] > 0 and scaled[mid + 20] > 0

    def test_eta_positive_and_small(self):
        _, _, eta = band_profile(1e-3, 201)
        assert 0.0 < eta < 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            band_profile(1e-3, 2)
