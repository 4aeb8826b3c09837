from lunepot import checks


def test_stability_threshold_reaches_the_stable_path():
    # at a non-default threshold the series route runs at eps =
    # threshold, so the gap to the exact path is measured, not 0
    res = checks.check_stability(threshold=1e-4, grid_n=20)
    assert res.max_err > 0.0
    assert "a=" in res.detail


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
