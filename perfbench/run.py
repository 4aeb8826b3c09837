#!/usr/bin/env python3
"""Seeded benchmark of lunepot, one workload per run.

    python3 perfbench/run.py --workload grid-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from anywhere inside a checkout; lunepot is imported from its ``src``
directory.  One thread, closed loop: each public call starts when the
previous one has returned.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see README.md).  The
last line of standard output is the result as one JSON object; the lines
before it give each metric with its unit, the failure counts and the run's
metadata.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
NAMES = ("grid-exact", "grid-small", "oracle", "point-mix")

WARMUP_POINTS = 2000
SUB_POINTS = 256          # points of the pass set compared with the reference
MIN_PASSES = 3            # per run; a traced run makes this many of each kind
SETUP_REPEATS = 15
SETUP_CODE = (
    "import lunepot, sys; lunepot.lune_potential(lunepot.OverlapQuery(0.95, 0.1)); "
    "sys.stdout.write(lunepot.__file__)"
)


class Tally:
    """Points attempted and failed.  A point fails when it raises, is
    non-finite or missing, or (where compared with the reference) has a
    scaled error above FAIL_SCALED_ERR.  ``exceeded`` counts the compared
    points above check_stability's tolerance TOL_SCALED_ERR: lost
    precision, reported next to ``max_scaled_err`` but not a failure."""

    def __init__(self):
        self.attempted = self.failed = self.exceeded = self.checked = 0
        self.first_error = None

    def outputs(self, vals) -> None:
        if isinstance(vals, np.ndarray):
            good = int(np.count_nonzero(np.isfinite(vals)))
        else:
            good = sum(map(math.isfinite, vals))
        self.attempted += len(vals)
        self.failed += len(vals) - good

    def scaled_errors(self, samples) -> float:
        """Compare (a, eps, value) samples with the reference; return the
        largest scaled error."""
        # imported here so that mpmath is not resident when peak_rss_mb is read
        from reference import FAIL_SCALED_ERR, TOL_SCALED_ERR, scaled_error

        worst = 0.0
        for a, eps, v in samples:
            err = scaled_error(v, a, eps)
            self.checked += 1
            self.exceeded += err > TOL_SCALED_ERR
            self.failed += err > FAIL_SCALED_ERR
            worst = max(worst, err)
        return worst


def _subsample_plan(rng, wl, n_ops: int) -> dict[int, list[int]]:
    """SUB_POINTS points of the pass set, as {op index: rows}."""
    plan: dict[int, list[int]] = {}
    total = n_ops * wl.points_per_op
    picks = rng.choice(total, min(SUB_POINTS, total), replace=False)
    for p in sorted(int(p) for p in picks):
        plan.setdefault(p // wl.points_per_op, []).append(p % wl.points_per_op)
    return plan


def _keep(samples, wl, op, a_s, vals, rows) -> None:
    eps = wl.eps_of(op)
    samples.extend((float(a_s[r]), eps, float(vals[r])) for r in rows if math.isfinite(vals[r]))


def _run_op(call, op, tally):
    t0 = time.perf_counter_ns()
    try:
        out = call(op)
    except Exception as exc:  # a failing point is counted, not fatal
        out = exc
    dt = time.perf_counter_ns() - t0
    if isinstance(out, Exception) and tally.first_error is None:
        tally.first_error = repr(out)
    return out, dt


class CallTimes:
    """Each call's time over the passes: its fastest run, or its median run
    when ``median`` is set.

    On a shared machine the CPU speed switches between two levels about
    1.7x apart many times a second (README.md).  A call of a few
    microseconds runs at one level, and its fastest run is its cost at the
    fast one.  A sweep of tens of milliseconds spans many switches: its
    fastest run needs a rare streak at the fast level, while its median
    run averages over them and repeats better from run to run."""

    def __init__(self, n: int, median: bool):
        self.median = median
        self.rows: list[np.ndarray] = []
        self.best = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)

    def add(self, times: np.ndarray) -> None:
        if self.median:
            self.rows.append(times)
        else:
            np.minimum(self.best, times, out=self.best)

    def values(self) -> np.ndarray:
        """Per-call times in ns."""
        return np.median(self.rows, axis=0) if self.median else self.best


class Passes:
    """Closed-loop passes over one seeded pass set.  Every output is
    checked; the first pass keeps the reference subsample."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.ops = wl.pass_set(np.random.default_rng([seed, 0]))
        self.points = len(self.ops) * wl.points_per_op
        self.plan = _subsample_plan(np.random.default_rng([seed, 1]), wl, len(self.ops))
        self.tally = Tally()
        self.samples: list[tuple[float, float, float]] = []
        self.done = 0

    def new_times(self) -> CallTimes:
        return CallTimes(len(self.ops), self.wl.median_call_time)

    def warm_up(self) -> None:
        for op in self.ops[: max(1, WARMUP_POINTS // self.wl.points_per_op)]:
            self.wl.call(op)

    def run(self, call, times: CallTimes) -> int:
        """One pass through ``call``; returns its call time in ns."""
        wl, tally = self.wl, self.tally
        keep = self.plan if self.done == 0 else {}
        wl.reset_counts()
        dts = np.empty(len(self.ops), dtype=np.int64)
        for i, op in enumerate(self.ops):
            out, dts[i] = _run_op(call, op, tally)
            a_s, vals = wl.outputs(op, out)
            tally.outputs(vals)
            if i in keep:
                _keep(self.samples, wl, op, a_s, vals, keep[i])
        times.add(dts)
        self.done += 1
        return int(dts.sum())


def _panel_max_err(wl, tally: Tally) -> float:
    samples = []
    for op in wl.panel():
        out, _ = _run_op(wl.call, op, tally)
        a_s, vals = wl.outputs(op, out)
        tally.outputs(vals)
        _keep(samples, wl, op, a_s, vals, range(len(vals)))
    return tally.scaled_errors(samples)


def setup_time() -> float:
    """Wall time for a fresh interpreter to import lunepot and make its
    first call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    elapsed = time.perf_counter() - t0
    if done.returncode != 0 or not Path(done.stdout).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up run failed: {done.stderr.strip() or done.stdout}")
    return elapsed


def end_to_end(wl, seed: int, seconds: float):
    """Passes until ``seconds`` of call time; the set-up runs are spread
    over the run, after one untimed run that writes the bytecode caches."""
    runs = Passes(wl, seed)
    runs.warm_up()
    setup_time()
    times = runs.new_times()
    budget = seconds * 1e9
    busy = 0
    pass_rates, setups = [], []
    while busy < budget or runs.done < MIN_PASSES:
        ns = runs.run(wl.call, times)
        busy += ns
        pass_rates.append(runs.points / (ns / 1e9))
        while len(setups) < SETUP_REPEATS * min(1.0, busy / budget):
            setups.append(setup_time())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally = runs.tally
    subsample_max = tally.scaled_errors(runs.samples)
    per_call = times.values()
    p50, p99 = np.percentile(per_call, [50, 99]) / 1e3
    metrics = {
        "points_per_s": (runs.points / (float(per_call.sum()) / 1e9), "1/s"),
        "call_p50_us": (float(p50), "us"),
        "call_p99_us": (float(p99), "us"),
        "max_scaled_err": (_panel_max_err(wl, tally), "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = {
        "passes": runs.done,
        "calls_per_pass": len(runs.ops),
        "points_per_pass": runs.points,
        "pass_rates": [round(x, 1) for x in pass_rates],
        "setup_runs_s": [round(x, 4) for x in setups],
        "subsample_checked": len(runs.samples),
        "subsample_max_scaled_err": subsample_max,
    }
    return metrics, tally, notes


def traced(wl, seed: int, seconds: float):
    """Alternate untraced and traced passes over the pass set; report
    per-layer counts and self times of the traced passes."""
    from tracing import LAYERS, Tracer

    runs = Passes(wl, seed)
    tracer = Tracer()
    root = tracer.root(wl.call)
    runs.warm_up()
    times = {False: runs.new_times(), True: runs.new_times()}
    self_us = {layer: [] for layer in LAYERS}
    counts = set()
    deadline = time.perf_counter() + seconds
    k = 0
    while k < 2 * MIN_PASSES or time.perf_counter() < deadline:
        on = (k % 2 == 1) != (k // 2 % 2 == 1)  # off, on, on, off, off, on, ...
        if on:
            tracer.reset()
            tracer.install()
        try:
            runs.run(root if on else wl.call, times[on])
        finally:
            tracer.uninstall()
        if on:
            layers = tracer.by_layer()
            for layer in LAYERS:
                self_us[layer].append(layers[layer][1] / runs.points / 1e3)
            counts.add(
                tuple(layers[layer][0] for layer in LAYERS)
                + (wl.panels, wl.converged, wl.quad_calls, wl.bytes_written)
            )
        k += 1
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.csv"
    tracer.write(spans_path)
    site_calls, site_ns = tracer.by_label()
    runs.tally.scaled_errors(runs.samples)
    metrics = {}
    pick = statistics.median if wl.median_call_time else min
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (layers[layer][0], "count")
        metrics[f"{layer}.self_us_per_point"] = (pick(self_us[layer]), "us")
    metrics["quadrature.panels_per_point"] = (wl.panels / runs.points, "panels/point")
    metrics["quadrature.converged_ratio"] = (
        wl.converged / wl.quad_calls if wl.quad_calls else 1.0,
        "ratio",
    )
    metrics["cli.bytes_written"] = (wl.bytes_written, "bytes")
    metrics["trace.overhead_share"] = (
        float(times[True].values().sum()) / float(times[False].values().sum()) - 1.0,
        "ratio",
    )
    notes = {
        "passes": k,
        "points_per_pass": runs.points,
        "counts_repeat": len(counts) == 1,
        "absent_spans": tracer.absent,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "quad_calls_per_pass": wl.quad_calls,
        "sites": {
            tracer.labels[i]: {"calls": int(c), "self_us_per_call": site_ns[i] / c / 1e3}
            for i, c in enumerate(site_calls)
            if c
        },
    }
    return metrics, runs.tally, notes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def metadata(args) -> dict:
    import lunepot

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": lunepot.backend_name(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import lunepot

    if not Path(lunepot.__file__).resolve().is_relative_to(SRC):
        print(f"error: lunepot imported from {lunepot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, str(OUT_DIR))
    measure = traced if args.trace else end_to_end
    try:
        metrics, tally, notes = measure(wl, args.seed, args.seconds)
    finally:
        if hasattr(wl, "out_path") and os.path.exists(wl.out_path):
            os.remove(wl.out_path)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("meta " + json.dumps(metadata(args)))
    print("notes " + json.dumps(notes))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")
    print(
        f"  points attempted {tally.attempted}, failed {tally.failed} "
        f"(checked against the reference: {tally.checked}; "
        f"above the 1e-6 tolerance: {tally.exceeded})"
    )
    if tally.first_error:
        print(f"  first error: {tally.first_error}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is per workload)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "lunepot" / "__init__.py").is_file():
        print(f"error: no lunepot sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
