import math

import numpy as np
import pytest

from lunepot import checks
from lunepot.quadrature import quad_lune


def test_criterion_constants():
    # each criterion's radii, grids and bounds, pinned to the literals the
    # checks were judged at before they became constants: a change here
    # moves an acceptance criterion
    assert checks.ORACLE_EPS == (0.5, 0.2, 0.05, 0.01)
    assert checks.ORACLE_GRID_N == 200
    assert checks.ORACLE_BAND_N == 201
    assert checks.ORACLE_QUAD_TOL == 1e-12
    assert checks.ORACLE_TOL == 1e-9
    assert checks.ORACLE_SCALED_TOL == 1e-12
    assert checks.CONTINUITY_EPS == (0.5, 0.1, 0.01)
    assert checks.CONTINUITY_OFFSET == 1e-9
    assert checks.CONTINUITY_TOL == 1e-10
    assert checks.REPRESENTATION_EPS == (0.5, 0.1, 0.01)
    assert checks.REPRESENTATION_GRID_N == 100
    assert checks.REPRESENTATION_TOL == 1e-10
    assert checks.BOUND_EPS == (0.5, 0.2, 0.05, 0.01)
    assert checks.BOUND_GRID_N == 200
    assert checks.BOUND_SLACK == 1e-14
    assert checks.TABLES_EPS == 0.2
    assert checks.TABLES_TOL == 1e-12
    assert checks.SERIES_EPS == (1e-2, 1e-3, 1e-4)
    assert checks.SERIES_GRID_N == 51
    assert checks.SERIES_FACTOR == 5e-2
    assert checks.CUBIC_EPS == (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    assert checks.CUBIC_WINDOW == (4.5, 5.5)
    assert checks.ANGLE_EPS == (1e-2, 1e-3)
    assert checks.ANGLE_GRID_N == 101
    assert checks.ANGLE_FACTOR == 10.0
    assert checks.STABILITY_SCAN_EPS == tuple(np.logspace(-1.0, -14.0, 14).tolist())
    assert checks.STABILITY_GRID_N == 1000
    assert checks.STABILITY_THRESHOLD == 1e-5
    assert checks.STABILITY_THRESHOLD_N == 401
    assert checks.STABILITY_TOL == 1e-6
    assert checks.ASYMMETRY_EPS == (1e-2, 1e-3, 1e-4)
    assert checks.ASYMMETRY_GRID_N == 201
    assert checks.ASYMMETRY_SLOPE_WINDOW == (0.8, 1.2)
    assert checks.ASYMMETRY_PREFACTOR_WINDOW == (5e-3, 8e-2)
    assert checks.DILOG_N == 100
    assert checks.DILOG_SEED == 20260808
    assert checks.DILOG_TOL_REFLECTION == 1e-13
    assert checks.DILOG_TOL_BOUNDARY == 1e-12


def test_only_radii_are_arguments():
    # checks 1-4 take their radii and nothing else; the rest take nothing
    import inspect

    params = {
        name: list(inspect.signature(f).parameters)
        for name, f in vars(checks).items()
        if name.startswith("check_")
    }
    assert len(params) == 11
    assert sum(len(p) for p in params.values()) == 4
    assert all(p in ([], ["eps_list"]) for p in params.values())


def test_suite_radii_replace_those_of_checks_1_to_4():
    res = checks.run_suite([0.3])
    assert [r.detail.endswith("eps=0.3") for r in res[:4]] == [True] * 4
    assert res[4:] == checks.run_suite()[4:]


def test_stability_threshold_reaches_the_stable_path():
    # the series route runs at eps = STABILITY_THRESHOLD, so the gap to the
    # exact path is measured, not 0
    res = checks.check_stability()
    assert res.max_err > 0.0
    assert "a=" in res.detail


def test_asymmetry_points_are_the_fit():
    # the (eps, eta) pairs validate prints are the ones the slope comes from
    res = checks.check_asymmetry()
    eps, etas = zip(*res.points)
    assert eps == checks.ASYMMETRY_EPS
    slope = np.polyfit(np.log(eps), np.log(etas), 1)[0]
    assert res.max_err == float(slope)


def test_branch_continuity_at_rounded_band_edges():
    # the doubles nearest 1 - eps and 1 + eps lie inside the band at these
    # radii (0.8 at 0.2, 1.15 at 0.15, 0.55 at 0.45, 1.4 at 0.4), where the
    # wedge is 1.3e-10 to 4.4e-10, not the edge value 0
    res = checks.check_branch_continuity((0.2, 0.3, 0.15, 0.45, 0.4))
    assert res.passed, res
    assert res.max_err < 1e-13


def test_branch_continuity_at_small_radii():
    # the probe offset shrinks to 1e-3*eps: a fixed 1e-9 put the probes
    # outside the band below eps ~ 2e-9 and the check raised
    res = checks.check_branch_continuity((1e-6, 1e-9, 1e-12))
    assert res.passed, res


def _nan_at_unit_distance(q, tol):
    res = quad_lune(q, tol)
    return res._replace(value=math.nan) if q.a == 1.0 else res


NAN_EVALUATORS = {
    "check_oracle_agreement": ("quad_lune", _nan_at_unit_distance),
    "check_branch_continuity": ("lune_potential", lambda q: math.nan),
    "check_representation_equivalence": ("wedge_term_reordered", lambda q: math.nan),
    "check_global_bound": ("lune_potential", lambda q: math.nan),
    "check_golden_tables": ("big_l", lambda theta, a: math.nan),
    "check_series_accuracy": ("band_core", lambda p: math.nan),
    "check_angle_series": ("band_angle_series", lambda p: math.nan),
    "check_dilog_identities": ("dilog", lambda z: complex(math.nan, math.nan)),
}


@pytest.mark.parametrize("check", NAN_EVALUATORS)
def test_nan_figure_fails(monkeypatch, check):
    # a NaN is the worst figure: `d > worst` is false for NaN, so a check
    # that compared that way skipped the point and passed
    monkeypatch.setattr(checks, *NAN_EVALUATORS[check])
    res = getattr(checks, check)()
    assert not res.passed
    assert math.isnan(res.max_err)
    assert "max_err=nan" in res.line() and res.line().endswith(f"FAIL ({res.detail})")
    if check == "check_oracle_agreement":
        assert math.isnan(res.scaled_err)
        assert res.detail == "a=1, eps=0.5; scaled at a=1, eps=0.5"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gap", [0.0, math.nan])
def test_slope_fits_fail_without_a_log(monkeypatch, gap):
    # np.log of a zero error warned, and raised under -W error, before the
    # check could print its FAIL; the detail names the error that has no log
    monkeypatch.setattr(checks, "wedge_term", lambda q: checks.unit_wedge_series(q.eps) + gap)
    monkeypatch.setattr(checks, "band_profile", lambda e, n: (None, None, gap))
    cubic, asymmetry = checks.check_unit_cubic_slope(), checks.check_asymmetry()
    assert not cubic.passed and math.isnan(cubic.max_err)
    assert cubic.detail == f"{gap!r} at eps=0.1: no log-log fit"
    assert not asymmetry.passed and math.isnan(asymmetry.max_err)
    assert asymmetry.detail == f"{gap!r} at eps=0.01: no log-log fit"
    assert asymmetry.points == tuple((e, gap) for e in checks.ASYMMETRY_EPS)
