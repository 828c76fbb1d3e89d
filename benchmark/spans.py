"""In-memory spans around calls into lineembed's modules.

A span is (id, name, start, end, parent, attrs) with times from the
system-wide monotonic clock, so spans taken in a CLI child process line up
with the parent's.  Spans stay in memory and are written out once, when the
process that recorded them is done.  The program's modules are wrapped from
outside: every binding of a wrapped function in a ``lineembed`` module is
replaced, so calls the package makes internally are traced too.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from contextlib import contextmanager
from typing import Callable, Optional

# Span name -> (module, attribute path).  A dotted attribute path names a
# method or cached property of a class.  Targets missing from the package
# are skipped, so their metrics read 0.
LAYERS = {
    "formats.parse_signed_graph": ("lineembed.formats", "parse_signed_graph"),
    "formats.parse_model_cert": ("lineembed.formats", "parse_model_cert"),
    "formats.parse_mapping": ("lineembed.formats", "parse_mapping"),
    "formats.serialize_signed_graph": ("lineembed.formats", "serialize_signed_graph"),
    "formats.serialize_mapping": ("lineembed.formats", "serialize_mapping"),
    "core.build_signed_graph": ("lineembed.core", "build_signed_graph"),
    "core.verify_embedding": ("lineembed.core", "verify_embedding"),
    "intervals.positive_adjacency": ("lineembed.core", "Graph.adj"),
    "intervals.recognize_proper_interval": ("lineembed.intervals", "recognize_proper_interval"),
    "intervals.ordering_to_model": ("lineembed.intervals", "ordering_to_model"),
    "intervals.model_intersection_graph": ("lineembed.intervals", "model_intersection_graph"),
    "solvers.reachability_table": ("lineembed.solvers", "reachability_table"),
    "solvers.solve_subset_dp": ("lineembed.solvers", "solve_subset_dp"),
    "reductions.sat_to_setsplitting": ("lineembed.reductions", "sat_to_setsplitting"),
    "reductions.setsplitting_to_adp": ("lineembed.reductions", "setsplitting_to_adp"),
    "reductions.adp_to_lce": ("lineembed.reductions", "adp_to_lce"),
    "reductions.gadget_graph": ("lineembed.reductions", "AdpToLceMapping.gadget_graph"),
    "reductions.lift_lce_to_sat": ("lineembed.reductions", "lift_lce_to_sat"),
    "generators.gen_planted_complete": ("lineembed.generators", "gen_planted_complete"),
}
# Calls whose rise of the process's peak RSS is recorded as attrs["peak_mb"].
RSS_LAYERS = {"formats.parse_signed_graph", "solvers.reachability_table"}
# The benchmark process traces its set-up calls only; CLI children trace
# every layer.
SETUP_LAYERS = ("generators.gen_planted_complete", "formats.serialize_signed_graph")


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, prefix: str = "", parent: Optional[str] = None) -> None:
        self.spans: list[dict] = []
        self._prefix = prefix
        self._stack: list[Optional[str]] = [parent]

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere, under the current span."""
        self.spans.append(
            {"id": f"{self._prefix}{len(self.spans)}", "name": name, "start": start,
             "end": end, "parent": self._stack[-1], "attrs": {}}
        )

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": f"{self._prefix}{len(self.spans)}", "name": name,
                  "start": time.monotonic(), "end": None,
                  "parent": self._stack[-1], "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.monotonic()

    def wrap(self, name: str, fn: Callable) -> Callable:
        rss = name in RSS_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                before = _peak_mb() if rss else 0.0
                result = fn(*args, **kwargs)
                if rss:
                    record["attrs"]["peak_mb"] = _peak_mb() - before
                if name == "solvers.reachability_table":
                    reachable = getattr(result, "reachable", None)
                    if reachable is not None:
                        record["attrs"]["table_entries"] = int(reachable.size)
                        record["attrs"]["reachable"] = int(reachable.sum())
                return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _package_modules():
    return [
        mod for key, mod in list(sys.modules.items())
        if key == "lineembed" or key.startswith("lineembed.")
    ]


def _wrap_verify(tracer: Tracer, fn: Callable) -> Callable:
    """verify_embedding, with the first access of the graph's edge arrays
    split off into its own core.edge_arrays span."""

    @functools.wraps(fn)
    def traced(g, ordering, *args, **kwargs):
        cls = type(g)
        lazy = [
            attr for attr in ("pos_array", "neg_array")
            if isinstance(getattr(cls, attr, None), functools.cached_property)
            and attr not in getattr(g, "__dict__", {})
        ]
        if lazy:
            with tracer.span("core.edge_arrays"):
                for attr in lazy:
                    getattr(g, attr)
        with tracer.span("core.verify_embedding"):
            return fn(g, ordering, *args, **kwargs)

    return traced


def instrument(tracer: Tracer, names=LAYERS) -> None:
    """Wrap the named layers of the already imported lineembed modules."""
    modules = _package_modules()
    for name in names:
        module_name, path = LAYERS[name]
        module = sys.modules.get(module_name)
        if module is None:
            continue
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            target = cls.__dict__.get(attr) if cls is not None else None
            if isinstance(target, functools.cached_property):
                prop = functools.cached_property(tracer.wrap(name, target.func))
                prop.__set_name__(cls, attr)
                setattr(cls, attr, prop)
            elif callable(target):
                setattr(cls, attr, tracer.wrap(name, target))
            continue
        original = getattr(module, path, None)
        if original is None:
            continue
        if name == "core.verify_embedding":
            wrapped = _wrap_verify(tracer, original)
        else:
            wrapped = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
