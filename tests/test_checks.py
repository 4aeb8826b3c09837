from lunepot import checks


def test_stability_threshold_reaches_the_stable_path():
    # at a non-default threshold the series route runs at eps =
    # threshold, so the gap to the exact path is measured, not 0
    res = checks.check_stability(threshold=1e-4, grid_n=20)
    assert res.max_err > 0.0
    assert "a=" in res.detail
