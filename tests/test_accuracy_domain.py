"""Accuracy over the rest of the radius domain [EPS_MIN, 1): the exact paths
against mpmath above 1/2, up to the last double below 1, and below 1e-14,
down to EPS_MIN = 2^-511.

The points are ``test_accuracy.py``'s: a band grid, the three-ulp
neighbourhoods of the thresholds, and nested and outside points.  The error
is scaled by eps^2*(|log eps^2| + 1), and the bound is 1e-15 of it.  Near
eps = 1 the plain eps^2*|log eps^2| goes to 0 while E stays near -1/4, so
that normaliser would report the size of E, not the error; below 1/2 the
two differ by less than a factor 1.75.  The reference keeps
60 + 3*|log10 eps| digits: below about 1e-16 every band double is 1 or one
of its ulp neighbours, and at a fixed 60 digits the reference itself loses
the wedge there.
"""

import math

import mpmath
import numpy as np
import pytest
from mp_reference import DIGITS, potential
from test_accuracy import _points, _sweep_rows

from lunepot.closed_form import lune_potential, lune_potential_array
from lunepot.geometry import EPS_MIN, OverlapQuery

LARGE_RADII = [0.6, 0.75, 0.9, 0.99, 0.999, math.nextafter(1.0, 0.0)]
SMALL_RADII = [1e-16, 1e-40, 1e-100, EPS_MIN]
BOUND = 1e-15


@pytest.mark.parametrize("eps", LARGE_RADII + SMALL_RADII, ids=repr)
def test_exact_paths_against_mpmath(capsys, eps):
    digits = int(DIGITS + 3 * abs(math.log10(eps)))
    points = _points(eps)
    with mpmath.workdps(digits):
        e2 = mpmath.mpf(eps) ** 2
        scale = e2 * (abs(mpmath.log(e2)) + 1)
    refs = {}

    def error(value: float, a: float) -> float:
        if a not in refs:
            refs[a] = potential(a, eps, digits)
        with mpmath.workdps(digits):
            return float(abs(mpmath.mpf(value) - refs[a]) / scale)

    values = lune_potential_array(np.array(points), eps).tolist()
    worst = {
        "lune_potential": max(error(lune_potential(OverlapQuery(a, eps)), a) for a in points),
        "array": max(error(v, a) for a, v in zip(points, values)),
    }
    band = ["--a-min", repr(1.0 - eps), "--a-max", repr(1.0 + eps)]
    for name, extra in (("sweep band", band), ("sweep lambda", ["--lambda-grid"])):
        rows = _sweep_rows(capsys, eps, *extra)
        assert len(rows) == 21
        worst[name] = max(error(v, a) for a, v in rows)
    assert max(worst.values()) <= BOUND, worst
