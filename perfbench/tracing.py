"""Spans around the calls into each stabgeom module, recorded from outside.

``install`` rebinds every ``stabgeom.*`` module attribute that refers to a
traced function, so ``from .exactgeom import rank`` bindings in other
modules are covered too; ``Polynomial`` methods are wrapped on the class.
Nothing under ``src/`` changes. Spans stay in memory (name, start, end,
parent span, operation id) and are written out when the run ends.

The work counters below are computed by the benchmark from the arguments
and results it sees, not counted by the program.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from math import comb
from time import perf_counter

TRACED = {
    "cli": ("main",),
    "gitstab": ("classify", "worst_subspace"),
    "cohsys": ("equivalence_check", "subsystem_types_from_config"),
    "exactgeom": ("rank", "reduced_row_echelon", "echelon_basis", "in_span", "kernel_basis",
                  "point_spanned_subspaces", "projectively_equivalent"),
    "gale": ("gale_transform", "is_self_associated", "on_smooth_conic"),
    "modhyp": ("segre_cubic", "igusa_quartic", "Polynomial.evaluate", "Polynomial.gradient",
               "verify_singular_point", "polar_map", "sample_segre_points", "igusa_lines",
               "incidence_15_3", "duality_check"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.active = False
        self.enumerated: set = set()
        self.subsets_visited = 0
        self.flats_found = 0
        self.repeat_calls = 0
        self.reverse_skipped = 0

    def wrap(self, fn, name: str, after=None):
        nid = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_subspaces(self, args, result) -> None:
        config = args[0]
        if config in self.enumerated:
            self.repeat_calls += 1
            return
        self.enumerated.add(config)
        r, n = config.ambient_rank, len(config)
        self.subsets_visited += sum(comb(n, k) for k in range(1, min(r - 1, n) + 1))
        self.flats_found += len(result)

    def _after_duality(self, args, result) -> None:
        self.reverse_skipped += result.reverse_skipped

    def install(self) -> None:
        """Rebind every stabgeom module attribute bound to a traced function."""
        after = {
            "exactgeom.point_spanned_subspaces": self._after_subspaces,
            "modhyp.duality_check": self._after_duality,
        }
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "stabgeom" or key.startswith("stabgeom."))]
        for module_name, fns in TRACED.items():
            home = sys.modules[f"stabgeom.{module_name}"]
            for fn_name in fns:
                name = f"{module_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, attr, self.wrap(getattr(cls, attr), name))
                    continue
                original = getattr(home, fn_name)
                wrapped = self.wrap(original, name, after.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def self_times(self) -> tuple[list[int], list[float]]:
        """Calls and self time per name: span duration minus its children's durations."""
        count = len(self.start)
        child = array("d", bytes(8 * count))
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        for i in range(count):
            nid = self.name[i]
            calls[nid] += 1
            busy[nid] += self.end[i] - self.start[i] - child[i]
        return calls, busy

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        calls, busy = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[nid], "count")
            out[f"{name}.self_s"] = (busy[nid], "s")
        builds = calls[self.names.index("modhyp.segre_cubic")] + calls[self.names.index("modhyp.igusa_quartic")]
        out.update({
            "exactgeom.subsets_visited": (self.subsets_visited, "count"),
            "exactgeom.flats_found": (self.flats_found, "count"),
            "exactgeom.flats_per_subset": (self.flats_found / self.subsets_visited if self.subsets_visited else 0.0, "ratio"),
            "exactgeom.point_spanned_subspaces.repeat_calls": (self.repeat_calls, "count"),
            "modhyp.model_builds_per_op": (builds / ops, "count/op"),
            "modhyp.duality.reverse_skipped": (self.reverse_skipped, "count"),
            "trace.spans": (len(self.start), "count"),
        })
        return out

    def write(self, path: str) -> None:
        """A JSON header line, then the raw span arrays in header order."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["start", "d"], ["end", "d"], ["name", "i"], ["parent", "i"], ["op", "i"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent, self.op):
                arr.tofile(fh)
