"""Command-line interface: point evaluation, grid sweeps, self-validation,
and band-profile diagnostics, all emitting plot-ready CSV.

Exit codes: 0 on success, 1 when a validation check fails, 2 on usage,
domain, or I/O errors.  Floats are serialised with 17 significant digits
so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from itertools import chain

from . import backend_name
from .asymptotic import (
    band_profile,
    lune_potential_series,
    lune_potential_series_array,
    profile_values,
)
from .closed_form import lune_potential, lune_potential_array, lune_potential_profile_array
from .errors import DomainError
from .geometry import (
    REGIMES,
    OverlapQuery,
    check_queries,
    check_radius,
    classify_regime,
    classify_regimes,
)
from .quadrature import MIN_TOL, quad_lune

# cli's former calls into other layers; perfbench/tracing.py still wraps
# them under these names, so they stay importable from here
from .asymptotic import from_band, lune_potential_stable, profile_value  # noqa: F401

# numpy and checks are imported inside sweep and validate (diagnostics gets
# numpy through band_profile), so that `lunepot eval` does not load numpy

# "stable" is an alias of "exact": the closed form is the stable evaluator.
# "asymptotic" runs the paper's series route.
MODES = ("exact", "stable", "asymptotic", "oracle")


def _fmt(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalise -0.0 so output is reproducible across paths
    return format(x, ".17g")


def _write_text(path: str, text: str) -> int:
    """Write ``text`` to ``path``: exit code 0, or 2 after reporting an
    OSError.  An existing file is overwritten in place (same inode and
    mode) and then cut to the new length, instead of being truncated on
    open: on ext4 an open that truncates a file the previous run also
    wrote costs far more than the write.  Symlinks are written through;
    devices and FIFOs are written without the cut.  Not fsynced."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "wb") as fh:
            fh.write(text.encode("ascii"))
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 2
    return 0


def _evaluate(q: OverlapQuery, mode: str, tol: float) -> tuple[float, float | None]:
    if mode == "asymptotic":
        return lune_potential_series(q), None
    if mode != "oracle":
        return lune_potential(q), None
    res = quad_lune(q, tol)
    return res.value, res.err_estimate


def cmd_eval(args) -> int:
    q = OverlapQuery(args.a, args.eps)
    value, err = _evaluate(q, args.mode, args.tol)
    row = [_fmt(args.a), _fmt(args.eps), classify_regime(q).value, _fmt(value)]
    if err is not None:
        row.append(_fmt(err))
    print(",".join(row))
    return 0


def _sweep_values(
    eps: float, mode: str, tol: float, grid: np.ndarray, band_profile_scaling: bool
):
    # (values, branch-value profile or None) from array evaluations, the
    # exact path sharing one wedge between them; the oracle goes point by
    # point, after the same checks
    import numpy as np

    if mode == "oracle":
        points = check_queries(grid, eps).tolist()
        values = np.array([quad_lune(OverlapQuery(a, eps), tol).value for a in points])
    elif mode == "asymptotic":
        values = lune_potential_series_array(grid, eps)
    elif band_profile_scaling:
        return lune_potential_profile_array(grid, eps)
    else:
        return lune_potential_array(grid, eps), None
    return values, profile_values(grid, eps) if band_profile_scaling else None


def _sweep_rows(
    eps: float, mode: str, tol: float, grid: np.ndarray, scaled: bool, band_profile_scaling: bool
) -> str:
    # every row in one format over a repeated row template; adding 0.0
    # turns -0.0 into 0.0, as _fmt does
    import numpy as np

    values, profile = _sweep_values(eps, mode, tol, grid, scaled and band_profile_scaling)
    template = "%.17g," + _fmt(eps) + ",%s,%.17g"
    regimes = np.array([r.value for r in REGIMES])[classify_regimes(grid, eps)].tolist()
    columns = [(grid + 0.0).tolist(), regimes, (values + 0.0).tolist()]
    if scaled:
        scale = eps * eps * math.log(eps * eps)
        column = values if profile is None else profile
        columns.append((column / scale + 0.0).tolist())
        template += ",%.17g"
    return (template + "\n") * len(grid) % tuple(chain.from_iterable(zip(*columns)))


def cmd_sweep(args) -> int:
    import numpy as np

    eps, n = args.eps, args.n
    if n < 2:
        raise DomainError(f"sweep needs n >= 2, got {n}")
    if args.mode == "oracle" and not args.tol >= MIN_TOL:
        raise DomainError(f"oracle tolerance must be >= {MIN_TOL}, got {args.tol}")
    if args.lambda_grid:
        # from_band at every point of a uniform band-coordinate grid
        grid = 1.0 - (1.0 - 2.0 * np.linspace(0.0, 1.0, n)) * eps
    else:
        if args.a_min > args.a_max:
            raise DomainError(f"a_min {args.a_min} exceeds a_max {args.a_max}")
        grid = np.linspace(args.a_min, args.a_max, n)
    header = "a,eps,regime,value" + (",scaled" if args.scaled else "")
    rows = _sweep_rows(eps, args.mode, args.tol, grid, args.scaled, args.lambda_grid)
    text = header + "\n" + rows
    if args.out in (None, "-"):
        sys.stdout.write(text)
        return 0
    return _write_text(args.out, text)


def cmd_validate(args) -> int:
    from . import checks

    if args.grid_n < 2:
        raise DomainError(f"validate needs --grid-n >= 2, got {args.grid_n}")
    eps_list = tuple(args.eps) if args.eps else (0.5, 0.1, 0.01)
    for e in eps_list:
        check_radius(e)
    results = [
        checks.check_oracle_agreement(eps_list, args.grid_n, args.tol),
        checks.check_branch_continuity(eps_list),
        checks.check_representation_equivalence(eps_list),
        checks.check_global_bound(eps_list),
        checks.check_golden_tables(),
        checks.check_dilog_identities(),
    ]
    if args.asymptotic:
        results.append(checks.check_series_accuracy())
        results.append(checks.check_unit_cubic_slope())
        results.append(checks.check_angle_series())
        results.append(checks.check_stability())
    if args.eta:
        eta_eps = (1e-2, 1e-3, 1e-4)
        etas, slope, logc, result = checks.asymmetry_fit(eta_eps, 201)
        print("eps,eta")
        for e, eta in zip(eta_eps, etas):
            print(f"{_fmt(e)},{_fmt(eta)}")
        print(f"# eta fit: slope={slope:.4f} prefactor={math.exp(logc):.4e}")
        results.append(result)
    failed = 0
    for r in results:
        print(r.line())
        if not r.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed (backend: {backend_name()})")
    return 1 if failed else 0


def cmd_diagnostics(args) -> int:
    lams, scaled, eta = band_profile(args.eps, args.n)
    # from_band at every point; adding 0.0 turns -0.0 into 0.0, as _fmt does
    a = 1.0 - (1.0 - 2.0 * lams) * args.eps
    rows = zip((lams + 0.0).tolist(), (a + 0.0).tolist(), (scaled + 0.0).tolist())
    text = "lam,a,scaled\n" + "".join("%.17g,%.17g,%.17g\n" % row for row in rows)
    if args.out in (None, "-"):
        sys.stdout.write(text)
        print(f"# eta = {_fmt(eta)}", file=sys.stderr)
        return 0
    code = _write_text(args.out, text)
    if code == 0:
        print(f"eta = {_fmt(eta)}")
    return code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process, on the first call of main; parsing leaves
    # the parser unchanged, so every call reuses it
    parser = argparse.ArgumentParser(
        prog="lunepot",
        description="Potential of the overlap of a unit disc with a small disc.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one point, print a CSV row")
    p_eval.add_argument("--a", type=float, required=True, help="centre distance")
    p_eval.add_argument("--eps", type=float, required=True, help="small-disc radius")
    p_eval.add_argument("--mode", choices=MODES, default="exact")
    p_eval.add_argument("--tol", type=float, default=1e-12, help="oracle tolerance")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="evaluate a grid, write CSV")
    p_sweep.add_argument("--eps", type=float, required=True)
    p_sweep.add_argument("--a-min", type=float, default=0.0)
    p_sweep.add_argument("--a-max", type=float, default=2.0)
    p_sweep.add_argument("--n", type=int, default=101)
    p_sweep.add_argument("--mode", choices=MODES, default="exact")
    p_sweep.add_argument("--tol", type=float, default=1e-12)
    p_sweep.add_argument(
        "--scaled",
        action="store_true",
        help="append value/(eps^2 log eps^2); on a band grid the column"
        " holds the scaled wedge branch-value profile instead",
    )
    p_sweep.add_argument(
        "--lambda-grid",
        action="store_true",
        help="sweep the overlap band on a uniform band-coordinate grid instead of [a-min, a-max]",
    )
    p_sweep.add_argument("--out", default="-", help="output path, '-' for stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the self-validation checks")
    p_val.add_argument("--eps", type=float, action="append", help="repeatable; default 0.5 0.1 0.01")
    p_val.add_argument("--grid-n", type=int, default=200)
    p_val.add_argument("--tol", type=float, default=1e-12, help="oracle tolerance")
    p_val.add_argument("--asymptotic", action="store_true", help="include the series checks")
    p_val.add_argument("--eta", action="store_true", help="print the asymmetry table and fit")
    p_val.set_defaults(func=cmd_validate)

    p_diag = sub.add_parser("diagnostics", help="scaled band profile and asymmetry index")
    p_diag.add_argument("--eps", type=float, required=True)
    p_diag.add_argument("--n", type=int, default=201)
    p_diag.add_argument("--out", default="-")
    p_diag.set_defaults(func=cmd_diagnostics)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
