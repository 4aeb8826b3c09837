"""Span tracing of lunepot's layers, installed from outside the package.

Each site is a module attribute through which callers reach a function of
another layer, for example ``lunepot.cli.lune_potential`` (cli calling
closed_form) or ``lunepot.closed_form.angular_primitive_core`` (closed_form
calling the kernels).  ``Tracer.install`` replaces each site with a timing
wrapper and ``uninstall`` puts the originals back.  A site that no longer
exists after a refactor is listed in ``Tracer.absent`` and skipped.

Spans (site, start, end, parent) are kept in memory.  A span's self time is
its duration minus the durations of its child spans; children never overlap
because the benchmark runs one thread.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

LAYERS = ("cli", "geometry", "closed_form", "asymptotic", "quadrature", "dilog", "kernels")

# (module, attribute, layer of the function reached through it)
SITES = (
    ("lunepot.cli", "main", "cli"),
    ("lunepot.geometry", "OverlapQuery.__post_init__", "geometry"),
    ("lunepot.cli", "classify_regime", "geometry"),
    ("lunepot.closed_form", "classify_regime", "geometry"),
    ("lunepot.closed_form", "intersection_angle", "geometry"),
    ("lunepot.quadrature", "classify_regime", "geometry"),
    ("lunepot.quadrature", "intersection_angle", "geometry"),
    ("lunepot.quadrature", "angular_region", "geometry"),
    ("lunepot", "lune_potential", "closed_form"),
    ("lunepot.cli", "lune_potential", "closed_form"),
    ("lunepot.asymptotic", "lune_potential", "closed_form"),
    ("lunepot.asymptotic", "wedge_branch_value", "closed_form"),
    ("lunepot", "lune_potential_stable", "asymptotic"),
    ("lunepot.cli", "lune_potential_stable", "asymptotic"),
    ("lunepot.cli", "from_band", "asymptotic"),
    ("lunepot.cli", "profile_value", "asymptotic"),
    ("lunepot.asymptotic", "BandPoint.__post_init__", "asymptotic"),
    ("lunepot", "quad_lune", "quadrature"),
    ("lunepot.cli", "quad_lune", "quadrature"),
    ("lunepot", "dilog", "dilog"),
    ("lunepot", "im_dilog_on_path", "dilog"),
    ("lunepot", "dilog_lower_boundary", "dilog"),
    ("lunepot.checks", "dilog", "dilog"),
    ("lunepot.checks", "dilog_lower_boundary", "dilog"),
    ("lunepot.geometry", "chord_radius_core", "kernels"),
    ("lunepot.closed_form", "angular_primitive_core", "kernels"),
    ("lunepot.closed_form", "cos_log_primitive_core", "kernels"),
    ("lunepot.closed_form", "li2_parts", "kernels"),
    ("lunepot.asymptotic", "angular_primitive_core", "kernels"),
    ("lunepot.asymptotic", "im_li2_path", "kernels"),
    ("lunepot.quadrature", "wedge_panel", "kernels"),
    ("lunepot.quadrature", "cos_log_panel", "kernels"),
    ("lunepot.dilog", "im_li2_path", "kernels"),
    ("lunepot.dilog", "li2_parts", "kernels"),
)

ROOT = "bench.op"


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Timing wrappers on ``SITES`` plus the spans they record."""

    def __init__(self, sites=SITES):
        self.sites = sites
        # span labels: one per site, then the benchmark's root span
        self.labels = [f"{m}.{a}" for m, a, _ in sites] + [ROOT]
        self.layer_of = [layer for _, _, layer in sites] + ["bench"]
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self.names: list[int] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._stack = [-1]

    def reset(self) -> None:
        """Drop the recorded spans (in place: the wrappers hold these lists)."""
        for spans in (self.names, self.parents, self.starts, self.ends):
            spans.clear()
        self._stack[:] = [-1]

    def _wrap(self, fn, label_id: int):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(label_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self.absent = []
        for label_id, (module, attr, _) in enumerate(self.sites):
            try:
                owner, name, fn = _resolve(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{attr}")
                continue
            self._installed.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, label_id))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._installed):
            setattr(owner, name, fn)
        self._installed = []

    def root(self, fn):
        """``fn`` wrapped as the benchmark's own root span."""
        return self._wrap(fn, len(self.sites))

    def self_times(self) -> np.ndarray:
        """Self time of every recorded span, in ns."""
        dur = np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def by_label(self) -> tuple[np.ndarray, np.ndarray]:
        """(calls, self ns) summed per span label."""
        names = np.asarray(self.names, dtype=np.int64)
        k = len(self.labels)
        calls = np.bincount(names, minlength=k)
        self_ns = np.bincount(names, weights=self.self_times(), minlength=k)
        return calls, self_ns

    def by_layer(self) -> dict[str, tuple[int, float]]:
        """{layer: (calls, self ns)} over the recorded spans."""
        calls, self_ns = self.by_label()
        out = {layer: [0, 0.0] for layer in LAYERS + ("bench",)}
        for i, layer in enumerate(self.layer_of):
            out[layer][0] += int(calls[i])
            out[layer][1] += float(self_ns[i])
        return {layer: (c, t) for layer, (c, t) in out.items()}

    def write(self, path) -> None:
        """Write the recorded spans as CSV: id, label, layer, start, end, parent."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,label,layer,start_ns,end_ns,parent\n")
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{i},{self.labels[n]},{self.layer_of[n]},{s},{e},{p}\n")
