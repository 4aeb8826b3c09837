"""The four workloads: seeded inputs, the public call each one times, and
how its outputs are read back for checking.

Every workload drives lunepot only through public entry points and hands
it only the generated (a, eps) inputs.  Why each one exists, and which
layer metric should move on it, is in README.md next to this file.

A run evaluates one seeded pass set repeatedly.  The set is a stratified
sample: log(eps), the band position and the regime or grid-shape shares
are spread evenly over their ranges, so two seeds give sets of nearly
the same cost and the spread between runs is mostly the machine's.
"""

from __future__ import annotations

import math
import os

import numpy as np

import lunepot
import lunepot.cli

SWEEP_N = 1000            # points per `lunepot sweep` call
ORACLE_TOL = 1e-12


def _stratified(rng, n: int) -> np.ndarray:
    """n draws from U[0, 1), one in each of n equal strata, shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def _log_stratified(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return lo * (hi / lo) ** _stratified(rng, n)


def _jittered(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n points of the unit square, one in each cell of an m x m grid
    (m = isqrt(n)) and the rest uniform, shuffled.  Unlike independent
    strata per coordinate, this keeps the count in any small region of
    the square, such as the oracle's slowest corner, nearly fixed."""
    m = math.isqrt(n)
    cells = np.arange(m * m)
    x = np.concatenate([(cells // m + rng.random(m * m)) / m, rng.random(n - m * m)])
    y = np.concatenate([(cells % m + rng.random(m * m)) / m, rng.random(n - m * m)])
    order = rng.permutation(n)
    return x[order], y[order]


def _counts(shares, n: int) -> np.ndarray:
    """n split into whole counts in proportion to ``shares``."""
    edges = np.floor(np.cumsum(shares) / sum(shares) * n + 0.5).astype(int)
    return np.diff(edges, prepend=0)


def _shares(rng, shares, n: int) -> np.ndarray:
    """Category index per draw, each category holding its share of n."""
    return rng.permutation(np.repeat(np.arange(len(shares)), _counts(shares, n)))


class Sweep:
    """One `lunepot sweep` call: its argv and the grid of centre distances
    the CSV must hold, row for row."""

    __slots__ = ("eps", "argv", "grid")

    def __init__(self, eps: float, argv: list[str], grid: np.ndarray):
        self.eps = eps
        self.argv = argv
        self.grid = grid


class _Counts:
    """Per-pass counters read by the traced run."""

    def reset_counts(self) -> None:
        self.bytes_written = 0
        self.quad_calls = self.panels = self.converged = 0


class GridWorkload(_Counts):
    """Batch sweeps through ``lunepot.cli.main(["sweep", ...])``.

    ``kinds`` gives the share of each grid shape: ``lambda`` is the band on
    a uniform band-coordinate grid with the scaled column, ``band`` the
    a-range [1-eps, 1+eps], ``around`` an a-range reaching a further
    ``reach`` band half-widths past each band edge (nested and outside
    rows).
    """

    points_per_op = SWEEP_N
    median_call_time = True   # see run.CallTimes

    def __init__(self, name, mode, eps_range, kinds, reach, pass_ops, out_path):
        self.name = name
        self.mode = mode
        self.eps_range = eps_range
        self.kinds = kinds
        self.reach = reach
        self.pass_ops = pass_ops
        self.out_path = out_path
        self.reset_counts()

    def sweep(self, eps: float, kind: str, k_lo: float = 1.0, k_hi: float = 1.0, n: int = SWEEP_N):
        argv = ["sweep", "--eps", repr(eps), "--n", str(n), "--mode", self.mode, "--out", self.out_path]
        if kind == "lambda":
            argv += ["--lambda-grid", "--scaled"]
            grid = 1.0 - (1.0 - 2.0 * np.linspace(0.0, 1.0, n)) * eps
        else:
            if kind == "band":
                k_lo = k_hi = 1.0
            a_min = max(0.0, 1.0 - k_lo * eps)
            a_max = 1.0 + k_hi * eps
            argv += ["--a-min", repr(a_min), "--a-max", repr(a_max)]
            grid = np.linspace(a_min, a_max, n)
        return Sweep(eps, argv, grid)

    def pass_set(self, rng) -> list[Sweep]:
        """Each grid shape gets its share of the sweeps, with its own
        stratified radii and reaches, in shuffled order."""
        lo, hi = self.reach
        sweeps = []
        for name, n in zip(self.kinds, _counts(list(self.kinds.values()), self.pass_ops)):
            eps = _log_stratified(rng, *self.eps_range, n).tolist()
            k_lo = (1.0 + lo + (hi - lo) * _stratified(rng, n)).tolist()
            k_hi = (1.0 + lo + (hi - lo) * _stratified(rng, n)).tolist()
            sweeps += [self.sweep(eps[i], name, k_lo[i], k_hi[i]) for i in range(n)]
        return [sweeps[i] for i in rng.permutation(len(sweeps))]

    def panel(self) -> list[Sweep]:
        """Fixed accuracy panel: band sweeps at radii spanning the range."""
        return [
            self.sweep(float(e), "band", n=41)
            for e in np.geomspace(self.eps_range[0], self.eps_range[1], 10)
        ]

    @staticmethod
    def call(op: Sweep):
        return lunepot.cli.main(op.argv)

    @staticmethod
    def eps_of(op: Sweep) -> float:
        return op.eps

    def outputs(self, op: Sweep, rc):
        """(a, value) per expected row, NaN where a row is missing or bad."""
        n = len(op.grid)
        a_out = np.full(n, np.nan)
        vals = np.full(n, np.nan)
        if rc != 0:
            return a_out, vals
        with open(self.out_path, encoding="ascii") as fh:
            text = fh.read()
        self.bytes_written += len(text)
        rows = text.split("\n")[1 : n + 1]
        tol = 1e-9 * op.eps
        for i, row in enumerate(rows):
            f = row.split(",")
            try:
                a, v = float(f[0]), float(f[3])
            except (IndexError, ValueError):
                continue
            if abs(a - op.grid[i]) <= tol:
                a_out[i] = a
                vals[i] = v
        return a_out, vals


class PointWorkload(_Counts):
    """Single public calls, one (a, eps) point each."""

    points_per_op = 1
    median_call_time = False

    def __init__(self, name, eps_range, mix, pass_ops, call):
        self.name = name
        self.eps_range = eps_range
        self.mix = mix  # shares of nested, band and outside points
        self.pass_ops = pass_ops
        self.call = call
        self.reset_counts()

    def pass_set(self, rng) -> list[tuple[float, float]]:
        n = self.pass_ops
        lo, hi = self.eps_range
        regime = _shares(rng, self.mix, n)
        band = regime == 1
        w, u = _jittered(rng, int(band.sum()))
        eps = np.empty(n)
        eps[band] = lo * (hi / lo) ** w
        eps[~band] = _log_stratified(rng, lo, hi, n - len(w))
        a = np.empty(n)
        a[band] = 1.0 + (2.0 * u - 1.0) * eps[band]
        v = rng.random(n)
        a[regime == 0] = (v * (1.0 - eps))[regime == 0]
        a[regime == 2] = (1.0 + eps + v * (1.0 - eps))[regime == 2]
        return list(zip(a.tolist(), eps.tolist()))

    def panel(self) -> list[tuple[float, float]]:
        """Fixed accuracy panel: band edges and interior, plus nested and
        outside points, at radii spanning the range."""
        pts = []
        nested, _, outside = self.mix
        for e in np.geomspace(self.eps_range[0], self.eps_range[1], 14).tolist():
            a = (1.0 + e * np.linspace(-1.0, 1.0, 41)).tolist()
            if nested:
                a += [0.0, 0.5 * (1.0 - e)]
            if outside:
                a += [1.5 + 0.5 * e, 2.0]
            pts += [(x, e) for x in a]
        return pts

    @staticmethod
    def eps_of(op) -> float:
        return op[1]

    def outputs(self, op, out):
        if isinstance(out, Exception):
            return op, (math.nan,)
        if isinstance(out, lunepot.QuadResult):
            self.quad_calls += 1
            self.panels += out.subdivisions
            self.converged += out.converged
            out = out.value
        return op, (out,)


# The public call on one (a, eps) point.  Attributes are looked up at call
# time so that the tracer's wrappers, when installed, are the ones called.
def _oracle(op):
    return lunepot.quad_lune(lunepot.OverlapQuery(*op), ORACLE_TOL)


def _stable(op):
    return lunepot.lune_potential_stable(lunepot.OverlapQuery(*op))


def make(name: str, out_dir: str):
    """The workload called ``name``; sweep CSVs go to ``out_dir``."""
    out = os.path.join(out_dir, f"sweep-{os.getpid()}.csv")
    if name == "grid-exact":
        return GridWorkload(name, "exact", (1e-4, 0.5), {"around": 3, "lambda": 1}, (0.0, 2.0), 64, out)
    if name == "grid-small":
        return GridWorkload(
            name, "stable", (1e-14, 1e-5), {"band": 1, "around": 1, "lambda": 1}, (0.5, 3.0), 30, out
        )
    if name == "oracle":
        return PointWorkload(name, (1e-6, 0.5), (0.0, 1.0, 0.0), 16000, _oracle)
    if name == "point-mix":
        return PointWorkload(name, (1e-14, 0.5), (0.2, 0.6, 0.2), 20000, _stable)
    raise ValueError(f"unknown workload {name!r}")
