"""The package surface: the README's API section and module table, the
benchmark's trace sites, each of which names attributes of the package, and
the modules that importing the package loads."""

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


# run in a fresh interpreter: this process has numpy loaded already.  The
# snapshot is taken after start-up, so a module a site .pth preloads does
# not count as loaded by lunepot.
_SCALAR_CALLS = """
import sys
before = set(sys.modules)
import lunepot
q = lunepot.OverlapQuery(0.95, 0.1)
lunepot.lune_potential(q)
lunepot.classify_regime(q)
lunepot.quad_lune(q)
lunepot.quad_wedge(q)
lunepot.dilog(0.3 + 0.4j)
lunepot.quad_lune_tensor(q)
loaded = set(sys.modules) - before
print(sorted(loaded & {"numpy", "dataclasses"}))
from lunepot.closed_form import lune_potential_array
print(lune_potential_array([0.5, 0.95, 2.0], 0.1).tolist())
print([lunepot.lune_potential(lunepot.OverlapQuery(a, 0.1)) for a in (0.5, 0.95, 2.0)])
"""


def test_scalar_calls_load_neither_numpy_nor_dataclasses():
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
    loaded, array, scalar = done.stdout.splitlines()
    assert loaded == "[]"
    assert json.loads(array) == pytest.approx(json.loads(scalar), rel=1e-14, abs=0.0)
