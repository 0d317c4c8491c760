"""In-process tracer for the `ramsat` modules, installed from outside the package.

`Tracer.install` replaces each traced public function in every `ramsat`
module namespace that holds it, and `Tracer.restore` puts the originals
back.  Nothing under `src/` is edited.

Two kinds of wrapper:

* a span wrapper records one span per call (name, caller namespace,
  parent span, operation id, start, end) plus counts read from the return
  value (`checked`, `nodes`, `hits`, bytes of a returned string);
* a hot wrapper, for the kernels called millions of times, adds to one
  aggregate per (function, caller namespace): calls, seconds inside,
  calls that found something.  A span stores the aggregates as they stood
  when it opened and closed, so each span knows the kernel calls made
  within it without a record per call.

Spans stay in memory until `Tracer.report`.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# Functions recorded as spans, by defining module.
SPAN_FUNCTIONS = {
    "ramsat.cli": ("run",),
    "ramsat.io": ("parse_colored_graph", "parse_simple_graph", "dump_colored_graph",
                  "dump_simple_graph", "dump_ksubset_coloring"),
    "ramsat.geometry": ("build_affine_plane",),
    "ramsat.constructions": ("affine_coloring", "sample_gnp", "count_bad_sets"),
    "ramsat.saturation": ("check_observation", "ssat_search"),
    "ramsat.reduction": ("g_oracle", "f_oracle"),
}
# Methods recorded as spans: (module, class, method).
SPAN_METHODS = (("ramsat.io", "Certificate", "to_json"),)
# Kernels aggregated per caller namespace instead of one span per call.
HOT_FUNCTIONS = {
    "ramsat.graphs": ("find_clique_mask",),
    "ramsat.reduction": ("graph_from_edge_mask",),
}
RESULT_COUNTS = ("checked", "nodes", "hits")


def short(module: str) -> str:
    """`ramsat.graphs` -> `graphs`; the package itself stays `ramsat`."""
    return module.split(".", 1)[1] if "." in module else module


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.hot: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        self.op = None
        self.patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for name in {*SPAN_FUNCTIONS, *HOT_FUNCTIONS, *(m for m, _, _ in SPAN_METHODS)}:
            importlib.import_module(name)
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "ramsat" or name.startswith("ramsat.")]
        targets = [(mod, fn, False) for mod, fns in SPAN_FUNCTIONS.items() for fn in fns]
        targets += [(mod, fn, True) for mod, fns in HOT_FUNCTIONS.items() for fn in fns]
        for mod, fn, hot in targets:
            original = getattr(sys.modules[mod], fn)
            qualname = f"{short(mod)}.{fn}"
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        caller = short(ns.__name__)
                        wrapper = (self._hot_wrapper(original, self.hot[f"{qualname}@{caller}"])
                                   if hot else self._span_wrapper(original, qualname, caller))
                        self._patch(ns, attr, original, wrapper)
        for mod, cls_name, meth in SPAN_METHODS:
            cls = getattr(sys.modules[mod], cls_name)
            original = vars(cls)[meth]
            self._patch(cls, meth, original,
                        self._span_wrapper(original, f"{short(mod)}.{cls_name}.{meth}", short(mod)))

    def _patch(self, owner, attr, original, wrapper) -> None:
        self.patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # -- wrappers --------------------------------------------------------

    def _snapshot(self) -> dict:
        return {key: tuple(agg) for key, agg in self.hot.items()}

    def _span_wrapper(self, fn, qualname: str, caller: str):
        tracer = self

        def wrapper(*args, **kwargs):
            record = {
                "id": len(tracer.spans), "name": qualname, "caller": caller,
                "parent": tracer.stack[-1] if tracer.stack else None, "op": tracer.op,
                "hot_open": tracer._snapshot(),
            }
            tracer.spans.append(record)
            tracer.stack.append(record["id"])
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                tracer.stack.pop()
                record["hot_close"] = tracer._snapshot()
            counts = {key: getattr(result, key) for key in RESULT_COUNTS
                      if isinstance(getattr(result, key, None), int)}
            if isinstance(result, str):
                counts["bytes"] = len(result.encode())
            record["counts"] = counts
            return result

        return wrapper

    @staticmethod
    def _hot_wrapper(fn, agg: list):
        clock = time.perf_counter

        def wrapper(*args):
            start = clock()
            result = fn(*args)
            agg[1] += clock() - start
            agg[0] += 1
            if result is not None:
                agg[2] += 1
            return result

        return wrapper

    # -- report ----------------------------------------------------------

    def report(self) -> dict:
        """Spans with their kernel-call deltas and self times, and the aggregates.

        A span's self time is its duration minus its direct child spans and
        minus the kernel time spent inside it but outside those children.
        """
        spans = []
        for rec in self.spans:
            hot = {}
            for key, (calls, secs, found) in rec["hot_close"].items():
                c0, s0, f0 = rec["hot_open"].get(key, (0, 0.0, 0))
                if calls != c0:
                    hot[key] = [calls - c0, secs - s0, found - f0]
            spans.append({k: rec[k] for k in ("id", "name", "caller", "parent", "op",
                                              "start", "end", "counts")} | {"hot": hot})
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            s["child_s"] = 0.0
            s["child_hot_s"] = 0.0
        for s in spans:
            if s["parent"] is not None:
                parent = by_id[s["parent"]]
                parent["child_s"] += s["end"] - s["start"]
                parent["child_hot_s"] += sum(v[1] for v in s["hot"].values())
        for s in spans:
            own_hot = sum(v[1] for v in s["hot"].values()) - s.pop("child_hot_s")
            s["self_s"] = s["end"] - s["start"] - s.pop("child_s") - own_hot
        return {"spans": spans, "hot": {key: list(agg) for key, agg in self.hot.items()}}
