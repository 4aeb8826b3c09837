"""Complex dilogarithm with controlled branch behaviour.

The principal branch is cut along (1, inf); on the cut a zero imaginary
part picks the side by its sign, +0.0 the limit from above.  The closed forms reached
through ``im_dilog_on_path`` instead approach the cut from below (the
argument -a*e^{2*i*phi} travels through the lower half-plane as phi grows
to pi/2), so that path-aware entry point is what every internal caller
uses; ``dilog_lower_boundary`` exposes the same boundary value directly.
"""

from __future__ import annotations

import math

from ._kernels_py import im_li2_path, li2_parts
from .errors import DomainError

__all__ = ["dilog", "dilog_lower_boundary", "im_dilog_on_path"]


def dilog(z: complex) -> complex:
    """Principal-branch dilogarithm sum_{n>=1} z^n / n^2, continued to C.

    Summed from fixed-cut series tables with no convergence test and no
    term cap; within 5e-15 relative error of the true value over the disc,
    beyond it and on the cut (checked against mpmath in the tests).  On the
    cut (real z > 1) a zero imaginary part picks the side by its sign: +0.0
    gives the value approached from above, -0.0 the one from below.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"dilogarithm argument must be finite, got {z}")
    return complex(*li2_parts(z.real, z.imag))


def dilog_lower_boundary(a: float) -> complex:
    """Boundary value of the dilogarithm on the cut, approached from below.

    For a > 1 the imaginary part is exactly -pi*log(a).
    """
    if not a > 1.0:
        raise DomainError(f"lower boundary value needs a > 1, got {a}")
    return complex(*li2_parts(a, -0.0))


def im_dilog_on_path(a: float, phi: float) -> float:
    """Im Li2(-a*e^{2*i*phi}) continued along phi in [0, pi/2].

    The path stays in the closed lower half-plane, so for phi < pi/2 (or
    a <= 1) this is the principal branch; at phi = pi/2 with a > 1 it is
    the boundary value from below, -pi*log(a).
    """
    if a < 0.0:
        raise DomainError(f"modulus must be >= 0, got {a}")
    if not -1e-12 <= phi <= 0.5 * math.pi + 1e-12:
        raise DomainError(f"path parameter {phi} outside [0, pi/2]")
    two_phi = 2.0 * phi
    c2 = math.cos(two_phi)
    s2 = math.sin(two_phi)
    if s2 < 0.0:          # roundoff just past pi; keep the path in Im <= 0
        s2 = 0.0
    if phi == 0.5 * math.pi:
        c2, s2 = -1.0, 0.0
    return im_li2_path(a, c2, s2)
