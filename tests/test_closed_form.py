import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lunepot.closed_form import (
    angular_primitive,
    cos_log_primitive,
    lune_potential,
    lune_potential_point,
    radial_log_primitive,
    turning_angle_primitive_closed_form,
    wedge_term,
    wedge_term_reordered,
)
from lunepot.dilog import im_dilog_on_path
from lunepot.errors import AccuracyWarning, DomainError
from lunepot.geometry import OverlapQuery, intersection_angle, phi_map
from lunepot.quadrature import adaptive_quad, quad_cos_log, quad_lune, quad_wedge

PI = math.pi


def primitive_by_quadrature(a: float, phi: float, tol: float = 1e-13) -> float:
    # the defining integral of the angular primitive; no dilogarithm involved
    def f(u: float) -> float:
        c = math.cos(2.0 * u)
        return -2.0 * (1.0 + a * c) * (math.log(1.0 + a * a + 2.0 * a * c) - 1.0)

    return adaptive_quad(f, 0.0, phi, tol).value


class TestAngularPrimitive:
    def test_matches_quadrature(self):
        for a in (0.3, 0.8, 1.0, 1.05, 1.5):
            for phi in (0.2, 0.7, 1.2):
                assert angular_primitive(a, phi) == pytest.approx(
                    primitive_by_quadrature(a, phi), abs=5e-13
                )

    @pytest.mark.parametrize("a", [0.6, 0.8])
    def test_half_pi_inside(self, a):
        assert angular_primitive(a, PI / 2) == pytest.approx(
            PI * (1.0 - a * a), abs=1e-13
        )

    @pytest.mark.parametrize("a", [1.2, 1.5])
    def test_half_pi_outside(self, a):
        # continued through the lower half-plane: -2*pi*log(a)
        assert angular_primitive(a, PI / 2) == pytest.approx(
            -2.0 * PI * math.log(a), abs=1e-13
        )
        assert angular_primitive(a, PI / 2) == pytest.approx(
            primitive_by_quadrature(a, PI / 2), abs=5e-12
        )
        # the slack (pi/2, pi/2 + 1e-12] above the domain takes the value at pi/2
        for phi in (math.nextafter(PI / 2, 2.0), PI / 2 + 1e-14, PI / 2 + 1e-12):
            assert angular_primitive(a, phi) == angular_primitive(a, PI / 2)

    def test_zero_angle(self):
        for a in (0.5, 1.0, 1.3):
            assert angular_primitive(a, 0.0) == 0.0

    @pytest.mark.parametrize("a", [1.1, 1.25])
    def test_turning_angle_row(self, a):
        alpha = math.asin(1.0 / a)
        phi = 0.25 * (PI + 2.0 * alpha)
        row = turning_angle_primitive_closed_form(a)
        assert angular_primitive(a, phi) == pytest.approx(row, abs=1e-13)
        assert row == pytest.approx(primitive_by_quadrature(a, phi), abs=5e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            angular_primitive(-0.5, 0.3)
        with pytest.raises(DomainError):
            angular_primitive(0.5, 2.0)


class TestCosLogPrimitive:
    def test_zero_angle(self):
        assert cos_log_primitive(0.7, 0.0) == 0.0

    def test_small_modulus_limit(self):
        assert cos_log_primitive(1e-12, 1.0) == pytest.approx(1.0, abs=1e-11)

    def test_frozen_value(self):
        # adaptive quadrature of the defining integrand
        assert cos_log_primitive(0.9, 2.0) == pytest.approx(
            0.9518447098870153, abs=1e-10
        )

    def test_matches_quadrature(self):
        for a in (0.3, 0.7, 1.0):
            for phi in (0.4, 1.5, 3.0):
                assert cos_log_primitive(a, phi) == pytest.approx(
                    quad_cos_log(a, phi, 1e-12).value, abs=1e-10
                )

    def test_continuous_corner(self):
        with pytest.warns(AccuracyWarning):
            assert cos_log_primitive(1.0, 1e-15) == 0.0
        with pytest.warns(AccuracyWarning):
            v = cos_log_primitive(1.0, 1e-7)
        assert math.isfinite(v)
        assert v == pytest.approx(quad_cos_log(1.0, 1e-7, 1e-13).value, abs=1e-10)

    # relative errors against mpmath: 2.2e3 at (1, 1e-7), 3.2e-3 at
    # (1, 1e-5), 9.5e-10 at (0.9999, 1e-4)
    @pytest.mark.parametrize("a,phi", [(1.0, 1e-7), (1.0, 1e-5)])
    def test_warns_where_it_cancels(self, a, phi):
        with pytest.warns(AccuracyWarning):
            cos_log_primitive(a, phi)

    @pytest.mark.parametrize("a,phi", [(1.0, 0.1), (0.9, 2.0), (0.9999, 1e-4)])
    def test_silent_where_accurate(self, a, phi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cos_log_primitive(a, phi)

    def test_domain(self):
        with pytest.raises(DomainError):
            cos_log_primitive(1.2, 0.5)
        with pytest.raises(DomainError):
            cos_log_primitive(0.5, 4.0)


class TestRadialLogPrimitive:
    def test_lower_endpoint_vanishes(self):
        assert radial_log_primitive(0.6, 0.4) == 0.0
        assert radial_log_primitive(0.95, 1.0 - 0.95) == pytest.approx(0.0, abs=1e-14)

    def test_frozen_values(self):
        # oracle: (1/2pi) * integral of arccos(ell)*r*log(r) from 1-a
        assert radial_log_primitive(0.95, 1.0) == pytest.approx(
            -0.064095533875326, abs=1e-10
        )
        assert radial_log_primitive(1.0, 1.0) == pytest.approx(
            -0.0714829584562, abs=1e-10
        )

    @pytest.mark.parametrize("a", [0.5, 0.75, 1.0])
    def test_slack_takes_the_end_value(self, a):
        # within CLAMP_SLACK outside [1-a, 1+a] both angles clamp to their
        # end values; at a = 1, r = -1e-13 two factors of the root are
        # negative, and each is clamped, not their product
        for d in (1e-13, 9e-13):
            assert radial_log_primitive(a, 1.0 - a - d) == radial_log_primitive(a, 1.0 - a)
            # beyond the upper end only the factor r^2 (log r^2 - 1) moves
            assert radial_log_primitive(a, 1.0 + a + d) == pytest.approx(
                radial_log_primitive(a, 1.0 + a), rel=0.0, abs=1e-12
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            radial_log_primitive(0.5, 0.1)
        with pytest.raises(DomainError):
            radial_log_primitive(1.5, 1.0)


class TestWedgeTerm:
    @pytest.mark.parametrize("e", [0.5, 0.25, 0.1, 0.01])
    def test_vanishes_at_band_edges(self, e):
        # 0 at the edges 1 -/+ eps; the double nearest an edge can lie just
        # inside the band (0.9 does at eps = 0.1), where the wedge is the
        # reference's -5.5e-11
        from mp_reference import wedge

        for a in (1.0 - e, 1.0 + e):
            ref = float(wedge(a, e))
            assert abs(ref) <= 1e-10
            assert abs(wedge_term(OverlapQuery(a, e)) - ref) <= 1e-16 * e * e

    def test_frozen_values(self):
        assert wedge_term(OverlapQuery(1.0, 0.2)) == pytest.approx(
            -0.0002599250613925726, abs=1e-10
        )
        assert wedge_term(OverlapQuery(0.95, 0.1)) == pytest.approx(
            -0.0011575071180793947, abs=1e-10
        )

    def test_at_unit_reduction(self):
        # at a = 1 only the dilogarithm and the reduced log term survive
        e = 0.2
        q = OverlapQuery(1.0, e)
        big_phi = phi_map(intersection_angle(q), 1.0)
        want = (
            2.0 * im_dilog_on_path(1.0, big_phi)
            + e * math.sqrt(4.0 - e * e) * (1.0 - math.log(e))
        ) / (8.0 * PI)
        assert wedge_term(q) == pytest.approx(want, abs=1e-14)

    def test_against_oracle_grid(self):
        for e in (0.5, 0.1):
            for a in np.linspace(1 - e + e / 20, 1 + e - e / 20, 15):
                q = OverlapQuery(float(a), e)
                assert wedge_term(q) == pytest.approx(
                    quad_wedge(q, 1e-12).value, abs=1e-10
                )

    def test_outer_sign_against_raw_region(self):
        # the potential assembled from the wedge term must match the raw
        # 2D region integral beyond the unit distance
        from lunepot.quadrature import quad_lune_tensor

        for a, e in ((1.06, 0.5), (1.45, 0.5), (1.02, 0.2)):
            q = OverlapQuery(a, e)
            assert lune_potential(q) == pytest.approx(
                quad_lune_tensor(q, 1e-9).value, abs=1e-8
            )

    def test_branch_value_matches_wedge_inside(self):
        from lunepot.closed_form import wedge_branch_value

        for a in (0.85, 0.95, 1.0):
            q = OverlapQuery(a, 0.2)
            assert wedge_branch_value(q) == wedge_term(q)

    def test_branch_value_reflection_far(self):
        from lunepot.closed_form import wedge_branch_value

        q = OverlapQuery(1.3, 0.5)
        assert wedge_branch_value(q) == -wedge_term(q)

    def test_out_of_band(self):
        with pytest.raises(DomainError):
            wedge_term(OverlapQuery(0.5, 0.2))


class TestReordered:
    def test_near_lower_edge(self):
        # the angle scales like the square root of the distance to the
        # edge, so the wedge at 1e-12 inside is of order 1e-8
        e = 0.1
        assert abs(wedge_term_reordered(OverlapQuery(1.0 - e + 1e-12, e))) <= 1e-7

    def test_equivalence_samples(self):
        for e in (0.5, 0.1, 0.01):
            for a in (1.0 - e / 2, 1.0 - e / 7, 1.0):
                q = OverlapQuery(a, e)
                assert wedge_term_reordered(q) == pytest.approx(
                    wedge_term(q), abs=1e-11
                )

    def test_oracle(self):
        q = OverlapQuery(1.0, 0.2)
        assert wedge_term_reordered(q) == pytest.approx(
            quad_wedge(q, 1e-12).value, abs=1e-10
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            wedge_term_reordered(OverlapQuery(1.05, 0.1))


class TestLunePotential:
    def test_nested_value(self):
        q = OverlapQuery(0.2, 0.5)
        v = lune_potential(q)
        assert v == pytest.approx(-0.14914339756999317, abs=1e-14)
        assert v == quad_lune(q).value  # identical closed form in this regime

    def test_outside(self):
        assert lune_potential(OverlapQuery(3.0, 0.5)) == 0.0

    def test_at_unit_against_oracle(self):
        q = OverlapQuery(1.0, 0.1)
        e2 = 0.01
        bound = 0.25 * e2 * (1.0 - math.log(e2))
        v = lune_potential(q)
        assert abs(v) <= bound
        assert v == pytest.approx(quad_lune(q, 1e-12).value, abs=1e-10)

    def test_oracle_overlap_far(self):
        # frozen from the quadrature oracle, cross-checked against the raw
        # 2D region integral
        q = OverlapQuery(1.4, 0.5)
        assert lune_potential(q) == pytest.approx(-0.0041903589757301, abs=1e-10)

    @given(
        a=st.floats(min_value=0.0, max_value=1.6),
        eps=st.floats(min_value=1e-3, max_value=0.5),
    )
    @settings(max_examples=300)
    def test_bound_and_sign(self, a, eps):
        v = lune_potential(OverlapQuery(a, eps))
        e2 = eps * eps
        assert abs(v) <= 0.25 * e2 * (1.0 - math.log(e2)) + 1e-14
        if a < 1.0 + eps:
            assert v < 0.0

    def test_radial_symmetry_exact(self):
        for xy in ((0.3, 0.4), (-0.9, 0.1), (0.0, 1.05)):
            a = math.hypot(*xy)
            assert lune_potential_point(xy, 0.2) == lune_potential(OverlapQuery(a, 0.2))


def _scale(eps: float) -> float:
    return eps * eps * abs(math.log(eps * eps))


def _band(eps: float, n: int = 41) -> np.ndarray:
    # band points with the unit distance, the crossover and both edges
    # approached to within 1e-9 half-widths
    a = 1.0 + eps * np.linspace(-1.0, 1.0, n)[1:-1]
    extra = [1.0, math.sqrt(1.0 + eps * eps), 1.0 - eps + 1e-9 * eps, 1.0 + eps - 1e-9 * eps]
    return np.concatenate([a, extra])


class TestArrayEvaluation:
    @given(
        t=st.floats(min_value=-1.0, max_value=1.0),
        eps=st.floats(min_value=1e-6, max_value=0.95),
    )
    @settings(max_examples=300, deadline=None)
    def test_wedge_array_matches_scalar(self, t, eps):
        # the scalar core's inline wedge against _band_wedge_array, and the
        # branch value as one lane of lune_potential_profile_array
        from lunepot.closed_form import (
            _band_wedge_array,
            _potential_array,
            lune_potential_profile_array,
            wedge_branch_value,
        )

        a = min(max(1.0 + t * eps, 1.0 - eps), 1.0 + eps)
        bound = 1e-13 * _scale(eps)
        q = OverlapQuery(a, eps)
        value = _potential_array(np.array([a]), eps, _band_wedge_array)[0][0]
        assert abs(value - lune_potential(q)) <= bound
        assert wedge_branch_value(q) == lune_potential_profile_array(np.array([a]), eps)[1][0]

    @pytest.mark.parametrize("eps", [1e-4, 3e-3, 0.1, 0.5, 0.8])
    def test_potential_array_matches_scalar(self, eps):
        from lunepot.closed_form import lune_potential_array

        a = np.concatenate([[0.0, 0.5 * (1.0 - eps), 1.0 - eps, 1.0 + eps, 2.0], _band(eps)])
        got = lune_potential_array(a, eps)
        want = np.array([lune_potential(OverlapQuery(x, eps)) for x in a.tolist()])
        assert got.shape == a.shape
        assert np.array_equal(got[:5], want[:5])  # nested and outside rows
        assert np.max(np.abs(got - want)) <= 1e-13 * _scale(eps)

    def test_array_domain(self):
        from lunepot.closed_form import lune_potential_array

        with pytest.raises(DomainError, match="centre distance"):
            lune_potential_array([0.5, -0.1], 0.2)
        with pytest.raises(DomainError, match="centre distance"):
            lune_potential_array([math.nan], 0.2)
        with pytest.raises(DomainError, match="disc radius"):
            lune_potential_array([0.5], 1.0)
        # the radius is checked before the distances
        for eps in (1.5, math.nan, 0.0):
            with pytest.raises(DomainError, match="disc radius"):
                lune_potential_array([-0.5], eps)

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2, 0.1, 0.5])
    def test_exact_against_mpmath(self, eps):
        from mp_reference import scaled_error

        from lunepot.closed_form import lune_potential_array

        a = _band(eps, 21)
        values = lune_potential_array(a, eps)
        for x, v in zip(a.tolist(), values.tolist()):
            assert scaled_error(v, x, eps) <= 1e-12
            assert scaled_error(lune_potential(OverlapQuery(x, eps)), x, eps) <= 1e-12

    def test_exact_panel_against_mpmath(self):
        # ten radii in [1e-4, 1/2], 41 points across each band, edge to
        # edge; the sector angle's cosine is formed from x = a - 1, which
        # keeps the error below 1e-15 scaled (1 - a^2 - eps^2 reached 4e-14)
        from mp_reference import potential

        from lunepot.closed_form import lune_potential_array

        for eps in np.geomspace(1e-4, 0.5, 10).tolist():
            a = np.linspace(1.0 - eps, 1.0 + eps, 41)
            bound = 1e-15 * _scale(eps)
            for x, v in zip(a.tolist(), lune_potential_array(a, eps).tolist()):
                ref = potential(x, eps)
                assert abs(v - ref) <= bound
                assert abs(lune_potential(OverlapQuery(x, eps)) - ref) <= bound


class TestSeriesLengths:
    # The series on the wedge path have no convergence test: each is cut at
    # a length chosen from a bound on its argument, and the dilogarithm
    # series relies on |u| <= 1.72 at every argument it is given.
    U_MAX = 1.72

    @staticmethod
    def _band_u(eps: float) -> np.ndarray:
        a = 1.0 + eps * np.linspace(-1.0, 1.0, 2001)
        a = a[a >= 0.5]
        x = a - 1.0
        c2 = (eps * eps - 1.0 - a * a) / (2.0 * a)
        prod = (2.0 + x - eps) * (2.0 + x + eps) * (x + eps) * (eps - x)
        s2 = np.sqrt(np.maximum(prod, 0.0)) / (2.0 * a)
        return np.abs(np.log1p(x) + 1j * np.arctan2(-s2, -c2))

    def test_band_arguments_in_range(self):
        for eps in np.geomspace(1e-8, 0.5, 30).tolist() + [0.7, 0.9, 0.999]:
            assert np.max(self._band_u(eps)) <= self.U_MAX

    def test_turning_arguments_in_range(self):
        # z = 1 - i*q with q = sqrt(x*(2 + x)) on the near outer branch
        for eps in np.geomspace(1e-8, 0.5, 30).tolist():
            x_max = eps * eps / (1.0 + math.sqrt(1.0 + eps * eps))  # x*(2 + x) = eps^2
            x = x_max * np.linspace(0.0, 1.0, 501)[1:]
            u = np.abs(np.log1p(x) - 1j * np.arctan(np.sqrt(x * (2.0 + x))))
            assert np.max(u) <= self.U_MAX

    def test_first_term_beyond_table(self):
        from lunepot.closed_form import _LI2_EXCESS
        from mp_reference import log_series_coeffs
        from lunepot.dilog import _LOG_COEF

        assert len(_LI2_EXCESS.coef) == len(_LOG_COEF) - 1 == 46
        k = len(_LOG_COEF)
        # coefficient of u^(k+1) in Li2(w) - w: (B_k - (-1)^k)/(k+1)!
        beyond = log_series_coeffs(k)[k] - (-1) ** k / math.factorial(k + 1)
        assert abs(beyond) * self.U_MAX ** (k + 1) < 1e-17
        assert _LI2_EXCESS.cuts[-1][0] >= self.U_MAX

    @pytest.mark.parametrize("name", ["_LI2_EXCESS", "_LI2_TAYLOR", "_SIN_TAIL", "_LOG1P_TAIL"])
    def test_cuts_reach_1e_17(self, name):
        from lunepot import closed_form

        series = getattr(closed_form, name)
        c0 = abs(series.coef[0])
        lengths = [n for _, n in series.cuts]
        assert lengths == sorted(lengths) and lengths[-1] <= len(series.coef)
        for bound, n in series.cuts:
            tail = sum(abs(c) * bound**k for k, c in enumerate(series.coef) if k >= n)
            assert tail <= 1e-17 * c0

    def test_taylor_remainder(self):
        from lunepot.closed_form import _LI2_TAYLOR

        n = len(_LI2_TAYLOR.coef)
        assert 2.0 * 0.5 ** (n + 1) / (n + 1) ** 2 < 1e-17

    def test_series_matches_mpmath(self):
        from lunepot.closed_form import _im_li2_excess

        for u in (0.3 - 0.2j, -0.69 - 1.57j, 1.2 + 0.5j, 1e-5 + 2e-6j):
            w = 1 - mpmath.exp(-mpmath.mpc(u))
            ref = mpmath.im(mpmath.polylog(2, w) - w)
            assert abs(_im_li2_excess(u) - float(ref)) <= 1e-16 * max(1.0, abs(float(ref)))
            got = _im_li2_excess(np.array([u, 1e-3j]))[0]
            assert abs(got - float(ref)) <= 1e-16 * max(1.0, abs(float(ref)))


def test_log1p_minus_x_against_mpmath():
    from lunepot.closed_form import _log1p_minus_x

    xs = [1e-14, -3e-9, 1e-4, -0.0499, 0.0499, 0.05, -0.3, 0.5, 2.0]
    got = _log1p_minus_x(np.array(xs))
    for x, g in zip(xs, got.tolist()):
        ref = float(mpmath.log1p(mpmath.mpf(x)) - x)
        assert g == pytest.approx(ref, rel=1e-14)
        assert _log1p_minus_x(x) == pytest.approx(ref, rel=1e-14)


def _loop_horner(coef, t):
    # the reference: Horner's rule as a loop
    acc = 0.0
    for c in reversed(coef):
        acc = acc * t + c
    return acc


def _bits(v):
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.tobytes()
    if isinstance(v, complex):
        return v.real.hex(), v.imag.hex()
    return v.hex()


@pytest.mark.parametrize("name", ["_LI2_EXCESS", "_LI2_TAYLOR", "_SIN_TAIL", "_LOG1P_TAIL"])
def test_straight_line_horner_matches_loop(name):
    from lunepot import closed_form

    series = getattr(closed_form, name)
    rng = np.random.default_rng(20261018)
    # (bound, length) of every cut, then the whole table up to 1.5 times the
    # last bound
    spans = list(series.cuts) + [(series.cuts[-1][0] * 1.5, len(series.coef))]
    assert len(series._horner) == len(spans)
    for i, (bound, n) in enumerate(spans):
        coef = series.coef[:n]
        r = bound * 10.0 ** rng.uniform(-3.0, 0.0, 64)
        r[0] = bound
        z = r * np.exp(1j * rng.uniform(-math.pi, math.pi, 64))
        x = r * rng.choice([-1.0, 1.0], 64)
        for t in x.tolist() + z.tolist() + [x, z]:
            assert _bits(series._horner[i](t)) == _bits(_loop_horner(coef, t))
            # the call picks the first cut whose bound reaches |t|
            t_max = float(np.max(abs(t)))
            n_cut = next((m for b, m in series.cuts if t_max <= b), len(series.coef))
            assert _bits(series(t)) == _bits(_loop_horner(series.coef[:n_cut], t))
