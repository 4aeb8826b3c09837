import copy
import math
import pickle
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lunepot.asymptotic import BandPoint, band_profile, lune_potential_series_array, to_band
from lunepot.closed_form import (
    angular_primitive,
    lune_potential_array,
    lune_potential_point,
    lune_potential_profile_array,
    radial_log_primitive,
)
from lunepot.dilog import dilog_lower_boundary, im_dilog_on_path
from lunepot.errors import DomainError
from lunepot.geometry import (
    EPS_MIN,
    REGIMES,
    OverlapQuery,
    Regime,
    angular_region,
    big_l,
    check_band,
    chord_radius,
    classify_regime,
    classify_regimes,
    intersection_angle,
    phi_map,
)

PI = math.pi


def _unchecked(a, eps):
    # a record that skipped its checks, as bytes pickled elsewhere may hold
    return tuple.__new__(OverlapQuery, (a, eps))


# every way to build a query other than calling the class: each must check
REBUILDS = {
    "_replace": lambda a, eps: OverlapQuery(0.7, 0.3)._replace(a=a, eps=eps),
    "_make": lambda a, eps: OverlapQuery._make((a, eps)),
    "pickle": lambda a, eps: pickle.loads(pickle.dumps(_unchecked(a, eps))),
    "copy": lambda a, eps: copy.copy(_unchecked(a, eps)),
}


class TestOverlapQuery:
    def test_accepts_valid(self):
        q = OverlapQuery(0.7, 0.3)
        assert q.a == 0.7

    @pytest.mark.parametrize(
        "a,eps",
        [
            (-0.1, 0.3),
            (math.inf, 0.3),
            (1.0, 0.0),
            (1.0, 1.0),
            (1.0, -0.2),
            (1.0, math.nan),
            (1.0, math.inf),
            (0.5, 1e-300),
            (0.5, math.nextafter(EPS_MIN, 0.0)),
        ],
    )
    def test_rejects_invalid(self, a, eps):
        with pytest.raises(DomainError):
            OverlapQuery(a, eps)

    def test_accepts_smallest_radius(self):
        # below EPS_MIN = 2^-511 the radius squared is no longer a normal double
        assert EPS_MIN == 2.0**-511 and EPS_MIN * EPS_MIN == sys.float_info.min
        assert OverlapQuery(0.5, EPS_MIN).eps == EPS_MIN

    def test_warns_above_half(self):
        # the domain is [EPS_MIN, 1): a radius above 1/2 is accepted silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert OverlapQuery(1.0, 0.7).eps == 0.7

    def test_from_point(self):
        q = OverlapQuery.from_point((3.0, 4.0), 0.25)
        assert q.a == 5.0

    def test_fields_repr_and_construction(self):
        q = OverlapQuery(a=0.7, eps=0.3)
        assert OverlapQuery._fields == ("a", "eps")
        assert repr(q) == "OverlapQuery(a=0.7, eps=0.3)"
        assert q == OverlapQuery(0.7, 0.3) == (0.7, 0.3)
        assert OverlapQuery.from_point((3.0, 4.0), 0.25) == OverlapQuery(5.0, 0.25)

    def test_immutable(self):
        q = OverlapQuery(0.7, 0.3)
        with pytest.raises(AttributeError):
            q.a = 0.5
        with pytest.raises(AttributeError):
            q.eps = 0.1
        with pytest.raises(AttributeError):
            q.other = 1.0

    def test_hash_and_unpack(self):
        assert hash(OverlapQuery(0.7, 0.3)) == hash(OverlapQuery(a=0.7, eps=0.3))
        a, e = OverlapQuery(0.7, 0.3)
        assert (a, e) == (0.7, 0.3)

    @pytest.mark.parametrize("how", sorted(REBUILDS))
    @pytest.mark.parametrize("a,eps", [(1.0, 2.0), (math.nan, 0.1)])
    def test_rebuild_rejects(self, how, a, eps):
        with pytest.raises(DomainError):
            REBUILDS[how](a, eps)

    @pytest.mark.parametrize("how", sorted(REBUILDS))
    def test_rebuild_warns_above_half(self, how):
        # accepted without a warning, as by the class itself
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = REBUILDS[how](1.0, 0.7)
        assert type(q) is OverlapQuery and q == (1.0, 0.7)

    def test_post_init_runs_once_per_construction(self, monkeypatch):
        # a counting wrapper set on the class, as perfbench's tracer sets one
        calls = []
        check = OverlapQuery.__post_init__

        def counting(self):
            calls.append((self.a, self.eps))
            check(self)

        monkeypatch.setattr(OverlapQuery, "__post_init__", counting)
        q = OverlapQuery(0.7, 0.3)
        builds = [
            lambda: OverlapQuery(0.7, 0.3),
            lambda: OverlapQuery(a=0.7, eps=0.3),
            lambda: OverlapQuery.from_point((3.0, 4.0), 0.25),
            lambda: q._replace(eps=0.2),
            lambda: OverlapQuery._make((0.7, 0.3)),
            lambda: pickle.loads(pickle.dumps(q)),
            lambda: copy.copy(q),
        ]
        for build in builds:
            calls.clear()
            build()
            assert len(calls) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda e: OverlapQuery(1.0, e),
        lambda e: lune_potential_array([1.0], e),
        lambda e: lune_potential_profile_array([1.0], e),
        lambda e: lune_potential_series_array([1.0], e),
        lambda e: band_profile(e, 5),
        lambda e: OverlapQuery.from_point((0.6, 0.8), e),
        lambda e: lune_potential_point((0.6, 0.8), e),
        lambda e: OverlapQuery._make((1.0, e)),
        lambda e: OverlapQuery(1.0, 0.3)._replace(eps=e),
        lambda e: BandPoint(0.5, e),
        lambda e: BandPoint._make((0.5, e)),
        lambda e: BandPoint(0.5, 0.3)._replace(eps=e),
        lambda e: to_band(1.0, e),
    ],
    ids=[
        "OverlapQuery",
        "lune_potential_array",
        "lune_potential_profile_array",
        "lune_potential_series_array",
        "band_profile",
        "from_point",
        "lune_potential_point",
        "_make",
        "_replace",
        "BandPoint",
        "BandPoint._make",
        "BandPoint._replace",
        "to_band",
    ],
)
def test_radius_warning_names_the_caller(call):
    # every entry point that checks a radius accepts the whole domain
    # [EPS_MIN, 1) without a warning, up to the last double below 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in (0.7, math.nextafter(1.0, 0.0)):
            call(eps)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: angular_primitive(v, 0.3),
        lambda v: im_dilog_on_path(v, 0.3),
        lambda v: chord_radius(v, 0.5),
        lambda v: chord_radius(0.3, v),
        lambda v: radial_log_primitive(0.5, v),
        lambda v: dilog_lower_boundary(v),
    ],
    ids=[
        "angular_primitive",
        "im_dilog_on_path",
        "chord_radius-theta",
        "chord_radius-a",
        "radial_log_primitive",
        "dilog_lower_boundary",
    ],
)
def test_non_finite_inputs_raise(call, bad):
    with pytest.raises(DomainError):
        call(bad)


class TestClassify:
    @pytest.mark.parametrize(
        "a,eps,tag",
        [
            (0.3, 0.5, Regime.NESTED),
            (1.6, 0.5, Regime.OUTSIDE),
            (1.0, 0.1, Regime.OVERLAP_AT_UNIT),
            (0.95, 0.1, Regime.OVERLAP_INNER_DISC),
            (1.001, 0.1, Regime.OVERLAP_OUTER_NEAR),
            (1.09, 0.1, Regime.OVERLAP_OUTER_FAR),
        ],
    )
    def test_examples(self, a, eps, tag):
        assert classify_regime(OverlapQuery(a, eps)) is tag

    def test_boundaries(self):
        e = 0.25
        assert classify_regime(OverlapQuery(1.0 - e, e)) is Regime.NESTED
        assert classify_regime(OverlapQuery(1.0 + e, e)) is Regime.OUTSIDE
        # the seam a^2 = 1 + eps^2, compared exactly
        a = math.sqrt(1.0 + e * e)
        far = Fraction(a) ** 2 >= 1 + Fraction(e) ** 2
        assert (classify_regime(OverlapQuery(a, e)) is Regime.OVERLAP_OUTER_FAR) == far
        # an exact tie goes to the far branch: 1.25^2 == 1 + 0.75^2
        assert classify_regime(OverlapQuery(1.25, 0.75)) is Regime.OVERLAP_OUTER_FAR

    @given(
        a=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        eps=st.floats(min_value=1e-6, max_value=0.5, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_partition(self, a, eps):
        # the band edges on the exact x = a - 1, not on the rounded 1 -/+ eps
        tag = classify_regime(OverlapQuery(a, eps))
        x = a - 1
        near = Fraction(a) ** 2 < 1 + Fraction(eps) ** 2
        member = {
            Regime.NESTED: x <= -eps,
            Regime.OVERLAP_INNER_DISC: -eps < x < 0,
            Regime.OVERLAP_AT_UNIT: x == 0,
            Regime.OVERLAP_OUTER_NEAR: 0 < x < eps and near,
            Regime.OVERLAP_OUTER_FAR: not near and x < eps,
            Regime.OUTSIDE: x >= eps,
        }
        assert member[tag]
        assert sum(member.values()) == 1

    @pytest.mark.parametrize(
        "a,eps,tag",
        [
            (1.0 - 0.1, 0.1, Regime.OVERLAP_INNER_DISC),  # 0.9 - 1 = -0.09999999999999998
            (1.0 + 1e-8, 1e-8, Regime.OVERLAP_OUTER_FAR),  # 6e-17 inside the band
            (1.0 + 0.1, 0.1, Regime.OUTSIDE),
            (1.0 - 1e-13, 1e-13, Regime.NESTED),
            (1.0 + 1e-13, 1e-13, Regime.OVERLAP_OUTER_FAR),
            (1.0 - 1e-14, 1e-14, Regime.OVERLAP_INNER_DISC),
        ],
    )
    def test_rounded_edges(self, a, eps, tag):
        # the rounded 1 -/+ eps can fall on either side of the true edge
        assert classify_regime(OverlapQuery(a, eps)) is tag
        assert REGIMES[classify_regimes(np.array([a]), eps)[0]] is tag

    def test_seam_is_exact(self):
        # the 40 doubles on each side of sqrt(1 + eps^2), at 61 radii: the
        # regime, its array form and the angular region all put a point on
        # the near side exactly when a^2 < 1 + eps^2
        near_side = (Regime.OVERLAP_INNER_DISC, Regime.OVERLAP_AT_UNIT, Regime.OVERLAP_OUTER_NEAR)
        for eps in np.geomspace(1e-14, 0.999, 61).tolist():
            a = [math.sqrt(1.0 + eps * eps)]
            for _ in range(40):
                a = [math.nextafter(a[0], 0.0), *a, math.nextafter(a[-1], 2.0)]
            tags = classify_regimes(np.array(a), eps).tolist()
            for ai, index in zip(a, tags):
                near = Fraction(ai) ** 2 < 1 + Fraction(eps) ** 2
                q = OverlapQuery(ai, eps)
                tag = classify_regime(q)
                assert REGIMES[index] is tag
                assert (tag in near_side) == near
                if ai > 1.0:
                    assert (len(angular_region(q)) == 2) == near


class TestChordRadius:
    def test_theta_zero(self):
        for a in (0.0, 0.4, 1.0, 1.3):
            assert chord_radius(0.0, a) == pytest.approx(1.0 - a, abs=1e-15)

    def test_top_at_unit(self):
        assert abs(chord_radius(PI / 2, 1.0)) <= 1e-12

    def test_turning_value(self):
        a = 1.25
        alpha = math.asin(1.0 / a)
        assert chord_radius(alpha, a) == pytest.approx(-0.75, abs=1e-13)

    def test_domain_error_beyond_turning(self):
        with pytest.raises(DomainError):
            chord_radius(PI / 2, 1.25)

    @given(a=st.floats(min_value=0.0, max_value=1.0), k=st.integers(min_value=0, max_value=200))
    @settings(max_examples=200)
    def test_monotone_inside(self, a, k):
        t1 = PI * k / 201
        t2 = PI * (k + 1) / 201
        assert chord_radius(t1, a) <= chord_radius(t2, a) + 1e-14

    @given(a=st.floats(min_value=0.01, max_value=1.0), t=st.floats(min_value=0.0, max_value=2 * PI))
    @settings(max_examples=200)
    def test_l_in_range(self, a, t):
        assert -1.0 - 1e-14 <= big_l(t, a) <= 1.0 + 1e-14


    @pytest.mark.parametrize("eps", [0.5, 0.25, 0.1, 1e-3, 1e-9])
    def test_array_matches_scalar(self, eps):
        a = np.concatenate(
            [
                [0.0, 1.0 - eps, 1.0, math.sqrt(1.0 + eps * eps), 1.0 + eps, 3.0],
                1.0 + eps * np.linspace(-1.2, 1.2, 97),
            ]
        )
        got = [REGIMES[i] for i in classify_regimes(a, eps)]
        assert got == [classify_regime(OverlapQuery(x, eps)) for x in a.tolist()]


class TestIntersectionAngle:
    def test_tangency_dyadic(self):
        e = 0.25
        assert intersection_angle(OverlapQuery(1.0 - e, e)) == 0.0
        assert intersection_angle(OverlapQuery(1.0 + e, e)) == PI

    def test_at_unit(self):
        assert intersection_angle(OverlapQuery(1.0, 0.2)) == pytest.approx(
            math.acos(-0.1), abs=1e-15
        )

    def test_out_of_band(self):
        with pytest.raises(DomainError):
            intersection_angle(OverlapQuery(0.5, 0.2))

    @pytest.mark.parametrize("e", [1e-10, 1e-6, 0.1])
    def test_band_slack(self, e):
        # check_band accepts a point a rounding slack outside either edge,
        # and the angle there is the edge value
        assert intersection_angle(OverlapQuery(1.0 - e - 5e-13, e)) == 0.0
        assert intersection_angle(OverlapQuery(1.0 + e + 5e-13, e)) == PI

    def test_is_lune_potentials_angle(self):
        # bit for bit the sector angle that closed_form.lune_potential forms
        rng = random.Random(7)
        for _ in range(10_000):
            e = 10.0 ** rng.uniform(-14.0, -1e-4)
            a = 1.0 + rng.uniform(-e, e)
            x = a - 1.0
            if not -e < x < e:
                continue
            root = math.sqrt((2.0 + x - e) * (2.0 + x + e) * (x + e) * (e - x))
            assert intersection_angle(OverlapQuery(a, e)) == math.atan2(root, -(x * (2.0 + x) + e * e))

    def test_chord_at_angle_is_eps(self):
        # s(phi) equals the small radius while a^2 <= 1 + eps^2
        for e in (0.5, 0.2, 0.05):
            for a in np.linspace(1 - e + 1e-3, math.sqrt(1 + e * e) - 1e-3 * e, 25):
                q = OverlapQuery(float(a), e)
                phi = intersection_angle(q)
                assert abs(chord_radius(phi, float(a)) - e) <= 1e-12



class TestPhiMap:
    def test_theta_zero(self):
        for a in (0.3, 0.9, 1.2):
            assert phi_map(0.0, a) == pytest.approx(PI / 2, abs=1e-15)

    def test_turning(self):
        a = 1.25
        alpha = math.asin(1.0 / a)
        assert phi_map(alpha, a) == pytest.approx((2 * alpha + PI) / 4, abs=1e-13)

    def test_at_inner_tangency(self):
        e = 0.25
        q = OverlapQuery(1.0 - e, e)
        assert phi_map(intersection_angle(q), 1.0 - e) == pytest.approx(PI / 2, abs=1e-7)


class TestAngularRegion:
    def test_at_unit(self):
        q = OverlapQuery(1.0, 0.2)
        region = angular_region(q)
        assert len(region) == 1
        lo, hi = region[0]
        assert lo == pytest.approx(PI / 2, abs=1e-15)
        assert hi == pytest.approx(intersection_angle(q), abs=1e-15)

    def test_two_intervals_near(self):
        q = OverlapQuery(1.001, 0.1)
        region = angular_region(q)
        assert len(region) == 2
        a = 1.001
        alpha = math.asin(1 / a)
        assert region[0][0] == pytest.approx(2 * PI - alpha, abs=1e-13)
        assert region[0][1] == 2 * PI
        assert region[1][0] == pytest.approx(PI - alpha, abs=1e-13)

    def test_single_interval_far(self):
        e = 0.12
        a = 1.1  # a^2 > 1 + e^2
        q = OverlapQuery(a, e)
        region = angular_region(q)
        assert len(region) == 1
        assert region[0][1] == 2 * PI
        assert region[0][0] == pytest.approx(intersection_angle(q) + PI, abs=1e-13)

    def test_exact_tie_goes_far(self):
        # 1.25^2 == 1 + 0.75^2 exactly in doubles
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = OverlapQuery(1.25, 0.75)
        assert len(angular_region(q)) == 1

    @pytest.mark.parametrize("a", [0.95, 1.2])
    def test_domain(self, a):
        with pytest.raises(DomainError):
            angular_region(OverlapQuery(a, 0.1))

    @pytest.mark.parametrize("a, eps", [(1.0 + 6e-13, 1e-13), (1.1, 0.1)])
    def test_upper_edge_slack(self, a, eps):
        # x = a - 1 beyond eps by less than CLAMP_SLACK, as check_band
        # allows it: the far branch's interval at the edge, [2pi, 2pi]
        assert a - 1.0 > eps
        check_band(a, eps)
        assert angular_region(OverlapQuery(a, eps)) == [(2 * PI, 2 * PI)]

    def test_beyond_slack(self):
        with pytest.raises(DomainError):
            angular_region(OverlapQuery(1.0 + 2e-12, 1e-13))
