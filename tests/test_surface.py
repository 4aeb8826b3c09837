"""The package surface: the README's API section and module table, the
benchmark's trace sites, each of which names attributes of the package, and
the modules that importing the package loads."""

import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lunepot

ROOT = Path(__file__).resolve().parents[1]


def test_readme_api_section_lists_all():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"`([^`]+)`", section)) == set(lunepot.__all__)


def test_readme_layout_lists_every_module():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `lunepot\.(\w+)` \|", section, re.MULTILINE))
    modules = {m.name for m in pkgutil.iter_modules(lunepot.__path__)} - {"__main__"}
    assert rows == modules


def test_every_trace_site_resolves():
    # perfbench is not a package, so its tracing module is loaded by path;
    # a site whose attribute no longer exists is listed as absent
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_every_name_is_its_owning_modules_object():
    # a name that asymptotic or quadrature owns is bound on first access;
    # every other one is defined in the module it is imported from
    lazy = {n: m for m, names in lunepot._LAZY.items() for n in names}
    assert set(lazy) <= set(lunepot.__all__)
    for name in set(lunepot.__all__) - {"__version__", "backend_name"}:
        obj = getattr(lunepot, name)
        owner = f"lunepot.{lazy[name]}" if name in lazy else obj.__module__
        assert obj is getattr(importlib.import_module(owner), name), name
    assert "__getattr__" not in vars(lunepot)


# run in a fresh interpreter: this process has numpy loaded already.  The
# snapshot is taken after start-up, so a module a site .pth preloads does
# not count as loaded by lunepot.  The script prints one JSON object.
_SCALAR_CALLS = """
import json, sys
out = {}
before = set(sys.modules)
import lunepot
q = lunepot.OverlapQuery(0.95, 0.1)
lunepot.lune_potential(q)
out["first_call"] = sorted(set(sys.modules) - before)
out["hook_before"] = "__getattr__" in vars(lunepot)
lunepot.classify_regime(q)
lunepot.quad_lune(q)
out["hook_after"] = "__getattr__" in vars(lunepot)
lunepot.quad_wedge(q)
lunepot.dilog(0.3 + 0.4j)
lunepot.quad_lune_tensor(q)
out["scalar"] = sorted(set(sys.modules) - before)
for lam in (0.3, 0.8):  # the inner and the outer branch at eps = 0.1
    p = lunepot.BandPoint(lam, 0.1)
    lunepot.band_coefficients(p)
    lunepot.band_core_series(p)
    lunepot.band_angle_series(p)
out["band"] = sorted(set(sys.modules) - before)
import lunepot.cli
out["eval_code"] = lunepot.cli.main(["eval", "--a", "0.95", "--eps", "0.1"])
out["eval"] = sorted(set(sys.modules) - before)
from lunepot.closed_form import lune_potential_array
out["array"] = lune_potential_array([0.5, 0.95, 2.0], 0.1).tolist()
out["values"] = [lunepot.lune_potential(lunepot.OverlapQuery(a, 0.1)) for a in (0.5, 0.95, 2.0)]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def fresh_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _SCALAR_CALLS],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    row, result = done.stdout.splitlines()
    return row, json.loads(result)


def test_first_call_loads_only_closed_form(fresh_run):
    _, out = fresh_run
    unneeded = {"numpy", "dataclasses", "fractions", "decimal", "lunepot.asymptotic", "lunepot.quadrature"}
    assert unneeded.isdisjoint(out["first_call"])
    assert {"lunepot.closed_form", "lunepot.dilog", "lunepot.geometry"} <= set(out["first_call"])


def test_lazy_names_delete_the_hook(fresh_run):
    _, out = fresh_run
    assert out["hook_before"] and not out["hook_after"]


def test_scalar_calls_load_neither_numpy_nor_dataclasses(fresh_run):
    _, out = fresh_run
    assert {"numpy", "dataclasses"}.isdisjoint(out["scalar"])
    assert out["array"] == pytest.approx(out["values"], rel=1e-14, abs=0.0)


def test_band_calls_and_eval_load_no_numpy(fresh_run):
    row, out = fresh_run
    assert "numpy" not in out["band"]
    assert "numpy" not in out["eval"]
    assert out["eval_code"] == 0
    assert row.startswith("0.94999999999999996,0.10000000000000001,OverlapInnerDisc,")
