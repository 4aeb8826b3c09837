"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The 11 results come from one ``checks.run_suite()`` call, the suite that
``lunepot validate`` prints.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines.
"""

import functools

import pytest

from lunepot import checks


@functools.cache
def _suite():
    return checks.run_suite()


def _report(number: int, name: str) -> None:
    result = _suite()[number - 1]
    assert result.name == name
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number:2d} [{result.name}]: {status}  ({result.line()})")
    assert result.passed, result.line()


def test_criterion_01_oracle_equivalence():
    _report(1, "oracle-agreement")


def test_criterion_02_branch_continuity():
    _report(2, "branch-continuity")


def test_criterion_03_representation_equivalence():
    _report(3, "representation-equivalence")


def test_criterion_04_global_bound():
    _report(4, "global-bound")


def test_criterion_05_golden_tables():
    _report(5, "golden-tables")


def test_criterion_06_series_accuracy():
    _report(6, "series-accuracy")


def test_criterion_07_unit_cubic_slope():
    _report(7, "unit-cubic-slope")


def test_criterion_08_angle_series():
    _report(8, "angle-series")


def test_criterion_09_stability():
    _report(9, "stability")


def test_criterion_10_asymmetry_index():
    _report(10, "asymmetry-index")


def test_criterion_11_dilog_identities():
    _report(11, "dilog-identities")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
