"""Spans recorded from outside the program, around the public functions of each layer.

The tracer replaces functions and methods of ``skeinkit`` with wrappers for
the duration of a traced phase and puts the originals back afterwards.  Each
wrapped call records one span: name, start, end, parent span and item id.
Spans live in flat arrays (28 bytes each) and are written out once, at the
end of the run.  Self time is a span's duration minus the durations of its
direct child spans; calls are single-threaded, so child spans never overlap.
The wrapper's own cost for a child span lands in its parent's self time.

``LinkDiagram.__init__`` is counted, not timed: it runs tens of thousands of
times per pass, and only its call count is reported.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import zlib
from array import array

# (metric prefix, module, attribute path, kind).  kind is "span" or "count".
# Several targets may share a prefix; their spans then share one name.
TARGETS = [
    ("diagram.LinkDiagram", "diagram", "LinkDiagram.__init__", "count"),
    ("diagram.canonical_code", "diagram", "LinkDiagram.canonical_code", "span"),
    ("diagram.simplify", "diagram", "LinkDiagram.simplify", "span"),
    ("diagram.split_pieces", "diagram", "LinkDiagram.split_pieces", "span"),
    ("diagram.smooth_crossing", "diagram", "LinkDiagram.smooth_crossing", "span"),
    ("diagram.switch_crossing", "diagram", "LinkDiagram.switch_crossing", "span"),
    ("diagram.non_descending_crossings", "diagram", "LinkDiagram.non_descending_crossings", "span"),
    ("diagram.stats", "diagram", "LinkDiagram.stats", "span"),
    ("diagram.from_braid_closure", "diagram", "from_braid_closure", "span"),
    ("skein.homfly", "skein", "SkeinEngine.homfly", "span"),
    ("skein.load_cache", "skein", "SkeinEngine.load_cache", "span"),
    ("skein.save_cache", "skein", "SkeinEngine.save_cache", "span"),
    ("laurent.mul", "laurent", "LaurentPoly2.__mul__", "span"),
    ("laurent.mul", "laurent", "LaurentPoly2.__rmul__", "span"),
    ("laurent.add", "laurent", "LaurentPoly2.__add__", "span"),
    ("laurent.add", "laurent", "LaurentPoly2.__radd__", "span"),
    ("laurent.delta_power", "laurent", "delta_power", "span"),
    ("laurent.parse_text", "laurent", "LaurentPoly2.parse_text", "span"),
    ("laurent.format_text", "laurent", "LaurentPoly2.format_text", "span"),
    ("jones.LaurentPoly1.mul", "jones", "LaurentPoly1.__mul__", "span"),
    ("jones.LaurentPoly1.mul", "jones", "LaurentPoly1.__rmul__", "span"),
    ("jones.jones_via_bracket", "jones", "jones_via_bracket", "span"),
    ("jones.specialize_homfly_to_jones", "jones", "specialize_homfly_to_jones", "span"),
    ("hecke.homfly_closed_braid", "hecke", "homfly_closed_braid", "span"),
    ("satellite.construct", "satellite", "blackboard_double", "span"),
    ("satellite.construct", "satellite", "canonical_double", "span"),
    ("satellite.construct", "satellite", "canonical_whitehead", "span"),
    ("satellite.construct", "satellite", "replace_crossing_with_half_twists", "span"),
    ("suites.main", "suites", "suite_main", "span"),
    ("suites.borromean", "suites", "suite_borromean", "span"),
    ("suites.family", "suites", "suite_family", "span"),
    ("suites.props", "suites", "suite_props", "span"),
    ("suites.structural", "suites", "suite_structural", "span"),
    ("report.reports_to_json", "report", "reports_to_json", "span"),
    ("cli.main", "cli", "main", "span"),
]

# Dispatch tables that hold references to wrapped functions, by module.
DISPATCH = {"suites": "SUITES"}

# Calls after which an untraced verify-all invocation may sample the host's
# speed (``calibrate``): its items are whole CLI runs, so the samples must
# be taken inside them, also inside one long skein evaluation (hence
# canonical_code, called at every skein node).
SPEED_POINTS = [
    ("speed", "diagram", "LinkDiagram.canonical_code", "after"),
    ("speed", "skein", "SkeinEngine.homfly", "after"),
    ("speed", "hecke", "homfly_closed_braid", "after"),
    ("speed", "jones", "jones_via_bracket", "after"),
]

# Call counts that every run records, traced or not: one integer increment
# per call on functions that run at most a few thousand times per pass.
COUNTED = [
    ("hecke.calls", "hecke", "homfly_closed_braid", "count"),
    ("bracket.calls", "jones", "jones_via_bracket", "count"),
]


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.item = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patches: list[tuple] = []
        self.after_call = None  # called after each call wrapped with kind "after"

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self
        stack, child = self._stack, self._child
        calls, self_s = self.calls, self.self_s
        s_name, s_parent, s_item = self.span_name, self.span_parent, self.span_item
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_item.append(tracer.item)
            s_start.append(0.0)
            s_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                inner = child.pop()
                s_start[idx] = t0
                s_end[idx] = t1
                calls[nid] += 1
                self_s[nid] += (t1 - t0) - inner
                if child:
                    child[-1] += t1 - t0

        return traced

    def count(self, name: str, fn):
        nid = self.name_id(name)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return counted

    def after(self, name: str, fn):
        self.name_id(name)
        tracer = self

        def called(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.after_call()

        return called

    # -- installation -------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap each target everywhere ``skeinkit`` holds a reference to it."""
        for name, module, path, kind in targets:
            make = {"span": self.span, "count": self.count, "after": self.after}[kind]
            mod = importlib.import_module(f"skeinkit.{module}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(make(name, raw.__func__))
                else:
                    new = make(name, raw)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(mod, path)
            new = make(name, orig)
            for other in [m for n, m in sys.modules.items() if n.split(".")[0] == "skeinkit"]:
                for key, value in list(vars(other).items()):
                    if value is orig:
                        self._patches.append((other, key, orig))
                        setattr(other, key, new)
            table = getattr(mod, DISPATCH.get(module, ""), {})
            for key, value in list(table.items()):
                if value is orig:
                    self._patches.append((table, key, orig))
                    table[key] = new

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """{name: (calls, self seconds)} summed over everything recorded."""
        return {n: (self.calls[i], self.self_s[i]) for i, n in enumerate(self.names)}

    def write_spans(self, path) -> int:
        """Write all spans: a JSON header line, then the zlib-compressed arrays."""
        header = {
            "format": "skeinkit-bench-spans-1",
            "names": self.names,
            "count": len(self.span_start),
            "arrays": [
                ["name", "i"], ["parent", "i"], ["item", "i"], ["start", "d"], ["end", "d"]
            ],
            "clock": "time.perf_counter, seconds",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_item, self.span_start, self.span_end):
                blob = zlib.compress(arr.tobytes(), 1)
                fh.write(len(blob).to_bytes(8, "little"))
                fh.write(blob)
        return len(self.span_start)
