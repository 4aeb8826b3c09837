"""The package surface: the README's API section and the benchmark's trace
sites, each of which names attributes of the package."""

import importlib.util
import re
from pathlib import Path

import lunepot

ROOT = Path(__file__).resolve().parents[1]


def test_readme_api_section_lists_all():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"`([^`]+)`", section)) == set(lunepot.__all__)


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
