"""lunepot: potential of the overlap of a unit disc with a small disc.

Closed-form evaluation of the logarithmic-kernel (Newtonian) potential of
the indicator of the overlap region, stable in double precision at every
radius, with the small-radius series of the paper and an
adaptive-quadrature oracle for self-validation.
"""

from .closed_form import (
    angular_primitive,
    cos_log_primitive,
    lune_potential,
    lune_potential_point,
    radial_log_primitive,
    wedge_branch_value,
    wedge_term,
    wedge_term_reordered,
)
from .dilog import dilog, dilog_lower_boundary, im_dilog_on_path
from .errors import AccuracyWarning, DomainError, QuadratureWarning
from .geometry import (
    OverlapQuery,
    Regime,
    angular_region,
    big_l,
    chord_radius,
    classify_regime,
    intersection_angle,
    phi_map,
)

# asymptotic and quadrature load on the first access to one of their names:
# the scalar closed form needs neither
_LAZY = {
    "asymptotic": (
        "BandCoefficients",
        "BandPoint",
        "band_angle_series",
        "band_coefficients",
        "band_core",
        "band_core_series",
        "band_profile",
        "from_band",
        "lune_potential_stable",
        "profile_value",
        "to_band",
        "unit_wedge_series",
    ),
    "quadrature": (
        "QuadResult",
        "adaptive_quad",
        "quad_cos_log",
        "quad_lune",
        "quad_lune_tensor",
        "quad_wedge",
    ),
}


def __getattr__(name: str):
    # The first access to any name of _LAZY imports both modules, binds all
    # their names here and deletes this hook: CPython does not specialise
    # attribute loads on a module that defines __getattr__.
    if not any(name in names for names in _LAZY.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import asymptotic, quadrature

    namespace = globals()
    for module, names in ((asymptotic, _LAZY["asymptotic"]), (quadrature, _LAZY["quadrature"])):
        namespace.update((n, getattr(module, n)) for n in names)
    del namespace["__getattr__"]
    return namespace[name]


__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the implementation: the package is pure Python."""
    return "python"


__all__ = [
    "AccuracyWarning",
    "BandCoefficients",
    "BandPoint",
    "DomainError",
    "OverlapQuery",
    "QuadResult",
    "QuadratureWarning",
    "Regime",
    "__version__",
    "adaptive_quad",
    "angular_primitive",
    "angular_region",
    "backend_name",
    "band_angle_series",
    "band_coefficients",
    "band_core",
    "band_core_series",
    "band_profile",
    "big_l",
    "chord_radius",
    "classify_regime",
    "cos_log_primitive",
    "dilog",
    "dilog_lower_boundary",
    "from_band",
    "im_dilog_on_path",
    "intersection_angle",
    "lune_potential",
    "lune_potential_point",
    "lune_potential_stable",
    "phi_map",
    "profile_value",
    "quad_cos_log",
    "quad_lune",
    "quad_lune_tensor",
    "quad_wedge",
    "radial_log_primitive",
    "to_band",
    "unit_wedge_series",
    "wedge_branch_value",
    "wedge_term",
    "wedge_term_reordered",
]
