"""In-memory spans around the calls into each p6fold module, from outside.

The tracer patches module attributes (never the files under ``src/``), so
a span starts where a caller enters a layer and ends where it returns.
Spans are stored in flat arrays while the run lasts and written out once at
the end.  A layer's self time is the time its spans cover minus the time
their child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

#: Span names whose median per-call duration is reported: the metric, and
#: nanoseconds per unit of the metric.
P50_SPANS = {
    "constraints.is_feasible": ("constraints.is_feasible_us.p50", 1e3),
    "constraints.evaluate": ("constraints.evaluate_us.p50", 1e3),
    "invariants.profile": ("invariants.profile_us.p50", 1e3),
    "bounds.degree_bound_paper": ("bounds.degree_bound_paper_us.p50", 1e3),
    "bounds.degree_bound_sharp": ("bounds.degree_bound_sharp_us.p50", 1e3),
    "identities.verify_identity": ("identities.verify_identity_ms.p50", 1e6),
}

#: Span names whose call counts are reported.
COUNTED_SPANS = (
    "constraints.is_feasible", "constraints.evaluate", "invariants.profile",
    "bounds.degree_bound_paper", "bounds.degree_bound_sharp",
    "identities.verify_identity", "ring.reduce_to_params",
)

#: Layers whose total self time is reported as ``<layer>.self_s``.
SELF_LAYERS = ("scan", "constraints", "bounds", "identities", "ring", "cli")

#: Single functions whose self time is reported as ``<name>.self_s``.
SELF_SPANS = ("constraints.is_feasible", "invariants.profile",
              "ring.reduce_to_params")


class Tracer:
    """Flat span store: name id, parent index, start and end in ns."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.max_write_bytes = 0
        self.scan_points = 0
        self.scan_rows = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._id(name)
        add_name, add_parent = self.name.append, self.parent.append
        add_start, add_end = self.start.append, self.end.append
        end, stack, clock = self.end, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0)
            stack.append(idx)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = len(self.end)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def timing_sink(self, sink):
        """A sink whose ``write`` calls are spans named ``scan.write``."""
        return _TimingSink(self, self.wrap(sink.write, "scan.write"))

    def summarize(self, root: str) -> dict:
        """Per-name calls, self time, durations; per-layer self time; and
        the duration and per-layer self time of the first span ``root``."""
        n = len(self.end)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        top = list(range(n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                top[i] = top[p]
        root_idx = next((i for i in range(n)
                         if self.parent[i] < 0
                         and self.names[self.name[i]] == root), -1)
        by_name = {name: {"calls": 0, "self_ns": 0, "durations": []}
                   for name in self.names}
        layer_self: dict[str, int] = {}
        root_layer_self: dict[str, int] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            own = dur[i] - child[i]
            entry = by_name[name]
            entry["calls"] += 1
            entry["self_ns"] += own
            if name in P50_SPANS:
                entry["durations"].append(dur[i])
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0) + own
            if top[i] == root_idx:
                root_layer_self[layer] = root_layer_self.get(layer, 0) + own
        return {
            "by_name": by_name,
            "layer_self_ns": layer_self,
            "root_ns": dur[root_idx] if root_idx >= 0 else 0,
            "root_layer_self_ns": root_layer_self,
        }

    def dump(self, path: Path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("# names: " + " ".join(self.names) + "\n")
            out.write("name\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.end)):
                out.write(f"{self.name[i]}\t{self.parent[i]}\t"
                          f"{self.start[i]}\t{self.end[i]}\n")


class _TimingSink:
    def __init__(self, tracer: Tracer, write):
        self._tracer = tracer
        self._write = write

    def write(self, text: str) -> int:
        size = len(text.encode("utf-8"))
        self._tracer.max_write_bytes = max(self._tracer.max_write_bytes, size)
        return self._write(text)


def layer_metrics(summary: dict) -> dict:
    """Counts, self times and per-call medians from :meth:`Tracer.summarize`."""
    by_name = summary["by_name"]
    empty = {"calls": 0, "self_ns": 0, "durations": []}
    out = {}
    for name in COUNTED_SPANS:
        out[f"{name}.calls"] = by_name.get(name, empty)["calls"]
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = summary["layer_self_ns"].get(layer, 0) / 1e9
    for name in SELF_SPANS:
        out[f"{name}.self_s"] = by_name.get(name, empty)["self_ns"] / 1e9
    for name, (metric, ns_per_unit) in P50_SPANS.items():
        durations = by_name.get(name, empty)["durations"]
        out[metric] = (statistics.median(durations) / ns_per_unit
                       if durations else 0.0)
    write = by_name.get("scan.write", empty)
    out["scan.write_s"] = write["self_ns"] / 1e9
    out["scan.write_calls"] = write["calls"]
    return out


@contextmanager
def installed(tracer: Tracer):
    """Patch the call sites between p6fold's modules; restore them on exit."""
    # ``p6fold.scan`` as an attribute is the ``scan`` function, because the
    # package re-exports it; module objects come from importlib.
    scan_mod = importlib.import_module("p6fold.scan")
    constraints_mod = importlib.import_module("p6fold.constraints")
    invariants_mod = importlib.import_module("p6fold.invariants")
    bounds_mod = importlib.import_module("p6fold.bounds")
    identities_mod = importlib.import_module("p6fold.identities")
    cli_mod = importlib.import_module("p6fold.cli")

    def counted(scan):
        @functools.wraps(scan)
        def counted_scan(*args, **kwargs):
            result = scan(*args, **kwargs)
            tracer.scan_points += result.scanned
            tracer.scan_rows += result.feasible
            return result
        return counted_scan

    paper = tracer.wrap(bounds_mod.degree_bound, "bounds.degree_bound_paper")
    sharp = tracer.wrap(bounds_mod.degree_bound, "bounds.degree_bound_sharp")

    @functools.wraps(bounds_mod.degree_bound)
    def degree_bound(s, kappa, mode="paper"):
        return (sharp if mode == "sharp" else paper)(s, kappa, mode=mode)

    patches = [
        (scan_mod, "is_feasible", "constraints.is_feasible"),
        (scan_mod, "profile", "invariants.profile"),
        (constraints_mod, "is_feasible", "constraints.is_feasible"),
        (constraints_mod, "evaluate", "constraints.evaluate"),
        (constraints_mod.ConstraintReport, "to_json_dict",
         "constraints.to_json_dict"),
        (invariants_mod, "profile", "invariants.profile"),
        (invariants_mod.Profile, "to_json_dict", "invariants.to_json_dict"),
        (bounds_mod.BoundReport, "to_json_dict", "bounds.to_json_dict"),
        (bounds_mod, "proof_trace", "bounds.proof_trace"),
        (identities_mod, "verify_identity", "identities.verify_identity"),
        (identities_mod, "verify_all", "identities.verify_all"),
        (identities_mod, "reduce_to_params", "ring.reduce_to_params"),
        (identities_mod, "normal_chern", "ring.normal_chern"),
        (identities_mod, "twist_rank3", "ring.twist_rank3"),
        (identities_mod, "schur_values", "ring.schur_values"),
        (cli_mod, "profile", "invariants.profile"),
        (cli_mod, "main", "cli.main"),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    saved += [(bounds_mod, "degree_bound", bounds_mod.degree_bound),
              (scan_mod, "scan", scan_mod.scan),
              (cli_mod, "run_scan", cli_mod.run_scan)]
    try:
        for obj, attr, name in patches:
            setattr(obj, attr, tracer.wrap(getattr(obj, attr), name))
        bounds_mod.degree_bound = degree_bound
        scan_mod.scan = tracer.wrap(counted(scan_mod.scan), "scan.scan")
        cli_mod.run_scan = tracer.wrap(counted(cli_mod.run_scan), "scan.scan")
        yield
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)
