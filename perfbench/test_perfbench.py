"""Tests of the benchmark's own parts: the mpmath reference, the tracer and
the repeatability of the traced counts.

    python -m pytest perfbench
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import lunepot
import lunepot.closed_form
import reference
import run
import tracing
import workloads


@pytest.mark.parametrize("eps", [0.5, 0.2, 0.05, 0.01])
def test_reference_matches_oracle_at_moderate_eps(eps):
    scale = eps * eps * abs(math.log(eps * eps))
    for a in [0.0, 0.5 * (1 - eps), *(1 + eps * np.linspace(-0.98, 0.98, 9)), 1 + 2 * eps]:
        q = lunepot.OverlapQuery(float(a), eps)
        oracle = lunepot.quad_lune(q, 1e-13).value
        assert abs(float(reference.potential(q.a, eps)) - oracle) / scale < 1e-9


def test_reference_constant_branches():
    eps = 0.25
    nested = eps * eps * (math.log(eps * eps) - 1) / 4
    assert float(reference.potential(0.3, eps)) == pytest.approx(nested, rel=1e-15)
    assert reference.potential(1.5, eps) == 0
    assert reference.scaled_error(nested, 0.3, eps) < 1e-15


def test_self_time_subtracts_children():
    tr = tracing.Tracer(sites=())
    # root [0, 100] with children [10, 30] and [40, 90]; the second has a child [50, 60]
    tr.names[:] = [0, 0, 0, 0]
    tr.starts[:] = [0, 10, 40, 50]
    tr.ends[:] = [100, 30, 90, 60]
    tr.parents[:] = [-1, 0, 0, 2]
    assert tr.self_times().tolist() == [30, 20, 40, 10]


def test_missing_sites_are_reported_and_originals_restored():
    sites = tracing.SITES + (
        ("lunepot._no_such_module", "f", "kernels"),
        ("lunepot.closed_form", "no_such_function", "kernels"),
    )
    original = lunepot.closed_form.angular_primitive_core
    tr = tracing.Tracer(sites)
    tr.install()
    try:
        assert tr.absent == ["lunepot._no_such_module.f", "lunepot.closed_form.no_such_function"]
        assert lunepot.closed_form.angular_primitive_core is not original
        lunepot.lune_potential(lunepot.OverlapQuery(0.95, 0.1))
    finally:
        tr.uninstall()
    assert lunepot.closed_form.angular_primitive_core is original
    layers = tr.by_layer()
    assert layers["closed_form"][0] == 1
    assert layers["kernels"][0] == 1
    assert layers["geometry"][0] == 3  # query validation, regime, intersection angle


def test_pass_set_depends_only_on_seed(tmp_path):
    wl = workloads.make("point-mix", str(tmp_path))
    first = wl.pass_set(np.random.default_rng([3, 0]))
    assert first == wl.pass_set(np.random.default_rng([3, 0]))
    assert first != wl.pass_set(np.random.default_rng([4, 0]))


def test_pass_set_holds_the_stated_shares(tmp_path):
    wl = workloads.make("point-mix", str(tmp_path))
    pts = wl.pass_set(np.random.default_rng([3, 0]))
    nested = sum(a <= 1 - e for a, e in pts)
    outside = sum(a >= 1 + e for a, e in pts)
    assert nested == pytest.approx(0.2 * len(pts), abs=len(pts) // 1000)
    assert outside == pytest.approx(0.2 * len(pts), abs=len(pts) // 1000)
    log_eps = np.log([e for _, e in pts])
    assert log_eps.min() >= math.log(1e-14) and log_eps.max() <= math.log(0.5)
    sweeps = workloads.make("grid-exact", str(tmp_path)).pass_set(np.random.default_rng([3, 0]))
    assert sum("--lambda-grid" in s.argv for s in sweeps) == len(sweeps) // 4


def test_traced_counts_repeat_for_a_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    wl = workloads.make("oracle", str(tmp_path))
    wl.pass_ops = 200
    first, tally, notes = run.traced(wl, 5, 0.0)
    second, _, _ = run.traced(wl, 5, 0.0)
    assert notes["counts_repeat"] and notes["absent_spans"] == []
    assert tally.failed == 0
    for name in ("kernels.calls", "geometry.calls", "quadrature.panels_per_point"):
        assert first[name] == second[name]
    assert first["quadrature.calls"][0] == 200
