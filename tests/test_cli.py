import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from lunepot.asymptotic import lune_potential_series, lune_potential_stable, profile_value
from lunepot.cli import MODES, _fmt, main
from lunepot.closed_form import lune_potential
from lunepot.errors import EpsilonRangeWarning
from lunepot.geometry import OverlapQuery, classify_regime
from lunepot.quadrature import quad_lune

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_nested_row(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--a", "0.2", "--eps", "0.5", "--mode", "exact")
        assert code == 0
        fields = out.strip().split(",")
        assert fields[2] == "Nested"
        assert float(fields[3]) == pytest.approx(-0.14914339756999317, abs=1e-14)

    def test_outside_row(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--a", "3", "--eps", "0.5")
        assert code == 0
        assert out.strip().split(",")[2:] == ["Outside", "0"]

    def test_stable_tiny_radius(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--a", "1", "--eps", "1e-10", "--mode", "stable"
        )
        assert code == 0
        fields = out.strip().split(",")
        assert fields[2] == "OverlapAtUnit"
        value = float(fields[3])
        assert math.isfinite(value) and value < 0.0

    def test_oracle_has_error_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--a", "0.95", "--eps", "0.1", "--mode", "oracle", "--tol", "1e-11"
        )
        assert code == 0
        fields = out.strip().split(",")
        assert len(fields) == 5
        assert float(fields[4]) <= 1e-11

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--a", "-1", "--eps", "0.5")
        assert code == 2
        assert "error" in err

    def test_usage_error_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--a", "1", "--eps", "0.5", "--mode", "bogus")
        assert code == 2


class TestUnderflowingRadius:
    # below 2^-511 ~ 1.49e-154 the radius squared is no longer a normal
    # double; log(eps^2) died with a ValueError traceback at 1e-300
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--a", "0.5", "--eps", "1e-300"),
            ("sweep", "--eps", "1e-300", "--n", "3", "--lambda-grid", "--scaled"),
            ("diagnostics", "--eps", "1e-300", "--n", "5"),
        ],
        ids=["eval", "sweep", "diagnostics"],
    )
    def test_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: disc radius must lie in [1.49e-154, 1), got 1e-300\n"

    @pytest.mark.parametrize("a", ["0.5", "1", "1.5"])
    def test_smallest_accepted_radius_is_finite(self, capsys, a):
        code, out, _ = run_cli(capsys, "eval", "--a", a, "--eps", "1.5e-154")
        assert code == 0
        assert math.isfinite(float(out.strip().split(",")[3]))


class TestSweep:
    def test_deterministic_output(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run_cli(
                capsys, "sweep", "--eps", "0.2", "--a-min", "0", "--a-max", "1.3",
                "--n", "40", "--out", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_header_and_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--eps", "0.5", "--a-min", "0", "--a-max", "0.4", "--n", "4"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "a,eps,regime,value"
        assert len(lines) == 5
        # nested regime: the value column is constant
        values = {line.split(",")[3] for line in lines[1:]}
        assert len(values) == 1

    def test_zero_column_outside(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--eps", "0.5", "--a-min", "1.5", "--a-max", "2.0", "--n", "4"
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert line.split(",")[3] == "0"

    def test_scaled_lambda_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--eps", "1e-4", "--lambda-grid", "--n", "21", "--scaled"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "a,eps,regime,value,scaled"
        scaled = [float(l.split(",")[4]) for l in lines[1:]]
        assert max(scaled) > 0.015  # profile maxima near the quarter points

    def test_bad_range_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--eps", "0.2", "--a-min", "2", "--a-max", "1", "--n", "4"
        )
        assert code == 2

    def test_lambda_grid_ignores_range(self, capsys):
        # the band grid never reads --a-min or --a-max, so an empty range passes
        argv = ("sweep", "--eps", "0.1", "--lambda-grid", "--n", "3")
        code, out, err = run_cli(capsys, *argv, "--a-min", "3")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *argv)[1]


def _per_point(mode: str, a: float, eps: float) -> float:
    q = OverlapQuery(a, eps)
    if mode == "exact":
        return lune_potential(q)
    if mode == "stable":
        return lune_potential_stable(q)
    if mode == "asymptotic":
        return lune_potential_series(q)
    return quad_lune(q, 1e-12).value


SWEEPS = [
    ("exact", "0.2", []),
    ("exact", "1e-3", ["--lambda-grid", "--scaled"]),
    ("exact", "1e-7", ["--lambda-grid", "--scaled"]),
    ("stable", "0.2", ["--scaled"]),
    ("stable", "1e-3", ["--lambda-grid", "--scaled"]),
    ("stable", "1e-7", []),
    ("stable", "1e-9", ["--lambda-grid", "--scaled"]),
    ("asymptotic", "0.01", []),
    ("asymptotic", "1e-3", ["--lambda-grid", "--scaled"]),
    ("oracle", "0.3", ["--scaled"]),
    ("oracle", "0.1", ["--lambda-grid", "--scaled"]),
]


class TestSweepColumns:
    """The sweep evaluates whole grids at once in every mode but the
    oracle; its rows must match the point-by-point path."""

    @pytest.mark.parametrize("mode,eps,extra", SWEEPS)
    def test_rows_match_per_point_path(self, capsys, mode, eps, extra):
        e = float(eps)
        n = 21 if mode == "oracle" else 81
        argv = ["sweep", "--eps", eps, "--mode", mode, "--n", str(n), *extra]
        if "--lambda-grid" not in extra:
            argv += ["--a-min", repr(max(0.0, 1.0 - 3.0 * e)), "--a-max", repr(1.0 + 3.0 * e)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == n + 1
        scale = e * e * math.log(e * e)
        bound = 1e-13 * abs(scale)
        for line in lines[1:]:
            fields = line.split(",")
            a = float(fields[0])
            q = OverlapQuery(a, e)
            assert fields[:3] == [_fmt(a), _fmt(e), classify_regime(q).value]
            value = float(fields[3])
            want = _per_point(mode, a, e)
            if mode == "oracle":
                assert fields[3] == _fmt(want)
            else:
                assert abs(value - want) <= bound
            if "--lambda-grid" in extra:
                assert abs(float(fields[4]) - profile_value(a, e) / scale) <= 1e-13
            elif "--scaled" in extra:
                assert fields[4] == _fmt(value / scale)

    def test_negative_zero_normalised(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--eps", "0.5", "--a-min", "-0.0", "--a-max", "0.4", "--n", "3"
        )
        assert code == 0
        assert out.split("\n")[1].split(",")[0] == "0"
        code, out, _ = run_cli(
            capsys, "sweep", "--eps", "0.5", "--a-min", "1.5", "--a-max", "2", "--n", "3",
            "--scaled",
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert line.split(",")[3:] == ["0", "0"]

    @pytest.mark.parametrize("mode", ["exact", "stable", "oracle"])
    def test_negative_a_min_exit_2(self, capsys, mode):
        code, _, err = run_cli(
            capsys, "sweep", "--eps", "0.2", "--a-min", "-0.5", "--a-max", "1", "--n", "11",
            "--mode", mode,
        )
        assert code == 2
        assert "centre distance" in err

    @pytest.mark.parametrize("eps", ["0", "1.5", "nan"])
    @pytest.mark.parametrize("mode", MODES)
    def test_bad_radius_on_band_grid_exit_2(self, capsys, mode, eps):
        code, _, err = run_cli(
            capsys, "sweep", "--eps", eps, "--lambda-grid", "--scaled", "--n", "5", "--mode", mode
        )
        assert code == 2
        assert "disc radius" in err

    def test_large_radius_sweep(self, capsys):
        # eps = 0.8 reaches a < 1/2, where the wedge takes the Taylor series
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            code, out, _ = run_cli(
                capsys, "sweep", "--eps", "0.8", "--a-min", "0", "--a-max", "2", "--n", "41"
            )
        assert code == 0
        assert [w.category for w in rec] == [EpsilonRangeWarning]
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert min(float(r[0]) for r in rows if r[2] != "Nested") < 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EpsilonRangeWarning)
            for r in rows:
                ref = quad_lune(OverlapQuery(float(r[0]), 0.8), 1e-12).value
                assert float(r[3]) == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("mode", ["asymptotic", "oracle"])
    def test_large_radius_sweep_warns_once(self, capsys, mode):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            code, out, _ = run_cli(
                capsys, "sweep", "--eps", "0.8", "--n", "11", "--mode", mode,
                "--lambda-grid", "--scaled",
            )
        assert code == 0
        assert [w.category for w in rec] == [EpsilonRangeWarning]
        assert len(out.strip().split("\n")) == 12


class TestStableIsExact:
    """``--mode stable`` is an alias of ``--mode exact``: the same bytes on
    every grid shape and radius."""

    RADII = ["0.3", "1e-3", "1e-6", "1e-10", "1e-14"]

    @pytest.mark.parametrize("eps", RADII)
    def test_sweep(self, capsys, eps):
        e = float(eps)
        grids = (
            ["--a-min", repr(1.0 - e), "--a-max", repr(1.0 + e)],
            ["--a-min", repr(max(0.0, 1.0 - 3.0 * e)), "--a-max", repr(1.0 + 3.0 * e), "--scaled"],
            ["--lambda-grid", "--scaled"],
        )
        for extra in grids:
            exact, stable = (
                run_cli(capsys, "sweep", "--eps", eps, "--n", "101", "--mode", mode, *extra)
                for mode in ("exact", "stable")
            )
            assert exact[0] == 0
            assert stable == exact

    @pytest.mark.parametrize("eps", RADII)
    def test_eval(self, capsys, eps):
        e = float(eps)
        for a in (0.5 * (1.0 - e), 1.0 - e, 1.0 - e / 2, 1.0, 1.0 + e / 3, 1.0 + e, 2.0):
            exact, stable = (
                run_cli(capsys, "eval", "--a", repr(a), "--eps", eps, "--mode", mode)
                for mode in ("exact", "stable")
            )
            assert exact[0] == 0
            assert stable == exact


# (command, arguments) writing a CSV to --out; the second is shorter
WRITERS = {
    "sweep": (["sweep", "--eps", "0.2", "--n", "40"], ["sweep", "--eps", "0.2", "--n", "4"]),
    "diagnostics": (
        ["diagnostics", "--eps", "1e-3", "--n", "40"],
        ["diagnostics", "--eps", "1e-3", "--n", "4"],
    ),
}


@pytest.mark.parametrize("command", sorted(WRITERS))
class TestOut:
    """--out overwrites a file in place: same inode and mode, exactly the
    new bytes."""

    @staticmethod
    def _stdout(capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        return out.encode("ascii")

    def test_shorter_rewrite_leaves_new_bytes(self, capsys, tmp_path, command):
        longer, shorter = WRITERS[command]
        path = tmp_path / "out.csv"
        assert run_cli(capsys, *longer, "--out", str(path))[0] == 0
        assert path.read_bytes() == self._stdout(capsys, longer)
        assert run_cli(capsys, *shorter, "--out", str(path))[0] == 0
        assert path.read_bytes() == self._stdout(capsys, shorter)

    def test_inode_and_mode_kept(self, capsys, tmp_path, command):
        _, argv = WRITERS[command]
        path = tmp_path / "out.csv"
        path.write_bytes(b"x" * 100000)
        os.chmod(path, 0o640)
        before = os.stat(path)
        assert run_cli(capsys, *argv, "--out", str(path))[0] == 0
        after = os.stat(path)
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert path.read_bytes() == self._stdout(capsys, argv)

    def test_new_file_mode_follows_umask(self, capsys, tmp_path, command):
        _, argv = WRITERS[command]
        old = os.umask(0o027)
        try:
            assert run_cli(capsys, *argv, "--out", str(tmp_path / "new.csv"))[0] == 0
        finally:
            os.umask(old)
        assert os.stat(tmp_path / "new.csv").st_mode & 0o777 == 0o640

    def test_symlink_written_through(self, capsys, tmp_path, command):
        longer, shorter = WRITERS[command]
        target = tmp_path / "target.csv"
        link = tmp_path / "link.csv"
        assert run_cli(capsys, *longer, "--out", str(target))[0] == 0
        link.symlink_to(target)
        assert run_cli(capsys, *shorter, "--out", str(link))[0] == 0
        assert link.is_symlink()
        assert target.read_bytes() == self._stdout(capsys, shorter)

    def test_dev_null_and_directory(self, capsys, tmp_path, command):
        _, argv = WRITERS[command]
        assert run_cli(capsys, *argv, "--out", os.devnull)[0] == 0
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == 2
        assert "cannot write" in err


class TestValidate:
    def test_quick_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--eps", "0.5", "--eps", "0.1", "--grid-n", "40"
        )
        assert code == 0
        assert "oracle-agreement" in out
        assert "FAIL" not in out

    def test_rounded_band_edge_radius(self, capsys):
        # fl(1 - 0.2) and fl(1 + 0.2) lie inside the band
        code, out, _ = run_cli(capsys, "validate", "--eps", "0.2", "--grid-n", "40")
        assert code == 0
        assert "FAIL" not in out

    def test_eta_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--eps", "0.5", "--grid-n", "10", "--eta"
        )
        assert code == 0
        assert "eps,eta" in out
        assert "asymmetry-index" in out

    def test_small_radius_runs_every_check(self, capsys):
        # the continuity probes scale with the radius: a fixed 1e-9 offset
        # left the band below eps ~ 2e-9 and the run exited 2
        code, out, err = run_cli(capsys, "validate", "--eps", "1e-12", "--grid-n", "20")
        assert code == 0
        assert err == ""
        assert "FAIL" not in out
        assert out.splitlines()[-1].startswith("6/6 checks passed")

    @pytest.mark.parametrize("eps", ["nan", "1e-300"])
    def test_bad_radius_exit_2(self, capsys, eps):
        # the radii are checked before any check runs: nan used to be
        # reported as a bad centre distance
        code, out, err = run_cli(capsys, "validate", "--eps", "0.5", "--eps", eps)
        assert code == 2
        assert out == ""
        assert err.startswith("error: disc radius must lie in")

    @pytest.mark.parametrize("grid_n", ["0", "1", "-5"])
    def test_grid_n_below_2_exit_2(self, capsys, grid_n):
        # 0 and 1 would check no oracle point and pass; -5 would reach numpy
        code, out, err = run_cli(capsys, "validate", "--eps", "0.5", "--grid-n", grid_n)
        assert code == 2
        assert out == ""
        assert err == f"error: validate needs --grid-n >= 2, got {grid_n}\n"


class TestDiagnostics:
    def test_profile_file(self, capsys, tmp_path):
        out_path = tmp_path / "profile.csv"
        code, out, _ = run_cli(
            capsys, "diagnostics", "--eps", "1e-3", "--n", "11", "--out", str(out_path)
        )
        assert code == 0
        assert out.startswith("eta = ")
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "lam,a,scaled"
        assert len(lines) == 12


    def test_rows_byte_identical_to_per_row_formatting(self, capsys):
        # each row as from_band and _fmt give it, one value at a time
        from lunepot.asymptotic import BandPoint, band_profile, from_band

        for eps in ("1e-3", "0.3", "1e-9"):
            code, out, _ = run_cli(capsys, "diagnostics", "--eps", eps, "--n", "33")
            assert code == 0
            lams, scaled, _ = band_profile(float(eps), 33)
            want = ["lam,a,scaled"] + [
                f"{_fmt(lam)},{_fmt(from_band(BandPoint(float(lam), float(eps))))},{_fmt(j)}"
                for lam, j in zip(lams, scaled)
            ]
            assert out == "\n".join(want) + "\n"


class TestParserReuse:
    # main builds its parser once per process; argv that each start from
    # the defaults, with a usage error among them
    ARGVS = (
        ("sweep", "--eps", "0.2", "--n", "7", "--lambda-grid", "--scaled", "--mode", "stable"),
        ("eval", "--a", "1", "--eps", "0.5", "--mode", "bogus"),
        ("sweep", "--eps", "0.2", "--n", "7"),
        ("eval", "--a", "0.9", "--eps", "0.3", "--mode", "oracle", "--tol", "1e-9"),
        ("sweep", "--eps", "0.2"),
        ("eval", "--a", "0.9", "--eps", "0.3"),
        ("diagnostics", "--eps", "0.01", "--n", "5"),
    )

    def test_parser_built_once(self, capsys):
        from lunepot.cli import _build_parser

        run_cli(capsys, "eval", "--a", "0.5", "--eps", "0.1")
        assert _build_parser() is _build_parser()

    def test_consecutive_calls_match_calls_alone(self, capsys):
        from lunepot.cli import _build_parser

        alone = []
        for argv in self.ARGVS:
            _build_parser.cache_clear()
            alone.append(run_cli(capsys, *argv))
        together = [run_cli(capsys, *argv) for argv in self.ARGVS]
        assert together == alone
        assert [code for code, _, _ in alone] == [0, 2, 0, 0, 0, 0, 0]


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "lunepot", "eval", "--a", "0.2", "--eps", "0.5"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().split(",")[2] == "Nested"


def test_module_entry_point_prints_warnings_as_lines():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "lunepot", "sweep", "--eps", "0.7", "--n", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning: EpsilonRangeWarning: disc radius 0.7 is above 1/2; results are untested there\n"
    )


def test_module_entry_point_diagnostics_warns_above_half():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "lunepot", "diagnostics", "--eps", "0.7", "--n", "5"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stderr.splitlines()[0] == (
        "warning: EpsilonRangeWarning: disc radius 0.7 is above 1/2; results are untested there"
    )


def test_no_environment_variable_selects_kernels():
    # the kernels have one implementation; a stale backend request in the
    # environment must neither fail the import nor change what runs
    env = dict(os.environ, PYTHONPATH=SRC, LUNEPOT_BACKEND="compiled")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import math, lunepot; print(lunepot.backend_name()); "
            "print(math.isfinite(lunepot.lune_potential(lunepot.OverlapQuery(0.95, 0.1))))",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["python", "True"]
