"""Accuracy gate: every exact evaluation path against the 60-digit mpmath
reference, at radii from 1e-14 to 1/2.

At each radius the points are a band grid, the three-ulp neighbourhoods of
the thresholds 1 - eps, 1, 1 + eps and sqrt(1 + eps^2), and nested and
outside points.  The bound is 1e-15 of eps^2*|log eps^2|.  The neighbours
of the rounded band edges are where a regime test on a rounded 1 -/+ eps
fails: such a double can lie inside the band and be taken as an edge.
"""

import math

import mpmath
import numpy as np
import pytest
from mp_reference import DIGITS, potential

from lunepot.asymptotic import lune_potential_stable
from lunepot.cli import main
from lunepot.closed_form import lune_potential, lune_potential_array
from lunepot.geometry import OverlapQuery

RADII = [1e-14, 1e-13, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5]
BOUND = 1e-15


def _ulp_neighbours(t: float, k: int = 3) -> list[float]:
    out = [t]
    lo = hi = t
    for _ in range(k):
        lo = math.nextafter(lo, -math.inf)
        hi = math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _points(eps: float) -> list[float]:
    band = np.linspace(1.0 - eps, 1.0 + eps, 21).tolist()
    edges = [1.0 - eps, 1.0, 1.0 + eps, math.sqrt(1.0 + eps * eps)]
    ulps = [x for t in edges for x in _ulp_neighbours(t)]
    return sorted(set(band + ulps + [0.0, 0.5 * (1.0 - eps), 1.0 + 2.0 * eps, 2.0]))


class _Reference:
    """Scaled errors against ``mp_reference.potential``, one reference
    evaluation per point."""

    def __init__(self, eps: float):
        self.eps = eps
        self._refs = {}
        with mpmath.workdps(DIGITS):
            e2 = mpmath.mpf(eps) ** 2
            self._scale = e2 * abs(mpmath.log(e2))

    def error(self, value: float, a: float) -> float:
        ref = self._refs.get(a)
        if ref is None:
            ref = self._refs[a] = potential(a, self.eps)
        with mpmath.workdps(DIGITS):
            return float(abs(mpmath.mpf(value) - ref) / self._scale)


def _sweep_rows(capsys, eps: float, *extra: str) -> list[tuple[float, float]]:
    code = main(["sweep", "--eps", repr(eps), "--mode", "stable", "--n", "21", *extra])
    assert code == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    return [(float(f[0]), float(f[3])) for f in (row.split(",") for row in rows)]


@pytest.mark.parametrize("eps", RADII)
def test_exact_paths_against_mpmath(capsys, eps):
    ref = _Reference(eps)
    points = _points(eps)
    worst = {}
    for name, f in (("lune_potential", lune_potential), ("stable", lune_potential_stable)):
        worst[name] = max(ref.error(f(OverlapQuery(a, eps)), a) for a in points)
    values = lune_potential_array(np.array(points), eps).tolist()
    worst["array"] = max(ref.error(v, a) for a, v in zip(points, values))
    band = ["--a-min", repr(1.0 - eps), "--a-max", repr(1.0 + eps)]
    for name, extra in (("sweep band", band), ("sweep lambda", ["--lambda-grid"])):
        rows = _sweep_rows(capsys, eps, *extra)
        assert len(rows) == 21
        worst[name] = max(ref.error(v, a) for a, v in rows)
    assert max(worst.values()) <= BOUND, worst
