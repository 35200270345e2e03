"""Outside-in span tracing of the ``sfvs`` package's public functions.

The tracer wraps named functions from the benchmark's side: it replaces
each function object wherever a ``sfvs`` module binds it (``from .graph
import find_bridges`` makes ``sfvs.solver.find_bridges`` a second binding
of the same object), so calls between the package's modules are seen too.
``Graph.copy`` is patched on the class, which covers ``without_vertices``
and ``Instance.copy``.

Every call records a span (name, start, end, parent span, op id) in flat
arrays and adds to per-name call counts and self time, which is the span's
duration minus the time its wrapped children took.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# metric name -> (module, attribute); several attributes may share a name
TRACED = (
    ("graph.parse_instance", "sfvs.graph", "parse_instance"),
    ("graph.find_bridges", "sfvs.graph", "find_bridges"),
    ("graph.connected_components", "sfvs.graph", "connected_components"),
    ("graph.find_t_triangle", "sfvs.graph", "find_t_triangle"),
    ("graph.is_t_forest", "sfvs.graph", "is_t_forest"),
    ("graph.copy", "sfvs.graph", "Graph.copy"),
    ("chordal.require_chordal", "sfvs.chordal", "require_chordal"),
    ("chordal.require_split", "sfvs.chordal", "require_split"),
    ("chordal.build_clique_tree", "sfvs.chordal", "build_clique_tree"),
    ("chordal.maximal_cliques", "sfvs.chordal", "maximal_cliques"),
    ("expansion.maximum_matching", "sfvs.expansion", "maximum_matching"),
    ("expansion.find_expansion", "sfvs.expansion", "find_expansion"),
    ("expansion.find_expansion", "sfvs.expansion", "find_matching_expansion_with_witness"),
    ("kernel.kernelize", "sfvs.kernel", "kernelize"),
    ("kernel.kernel_step", "sfvs.kernel", "kernel_step"),
    ("solver.solve", "sfvs.solver", "solve"),
    ("solver.reduce_fixpoint", "sfvs.solver", "reduce_fixpoint"),
    ("solver.select_mega_context", "sfvs.solver", "select_mega_context"),
)

# counted but not timed, so the enclosing kernel_step keeps the rule's time
COUNTED = (("kernel.rule_max_matching", "sfvs.kernel", "rule_max_matching"),)

SPAN_CAP = 2_000_000


class Tracer:
    """Span recorder; use :meth:`patched` around the traced ops."""

    def __init__(self):
        self.names: list[str] = sorted({n for n, _, _ in TRACED})
        self._index = {n: i for i, n in enumerate(self.names)}
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.op = -1
        self.dropped = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._t0 = perf_counter()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def wrap(self, name: str, fn):
        idx = self._index[name]
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        t0 = self._t0

        def traced(*args, **kwargs):
            if len(names) < SPAN_CAP:
                sid = len(names)
                names.append(idx)
                parents.append(stack[-1][0] if stack else -1)
                ops.append(self.op)
                ends.append(0.0)
                start = perf_counter()
                starts.append(start - t0)
            else:
                sid = -1
                self.dropped += 1
                start = perf_counter()
            frame = [sid, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if sid >= 0:
                    ends[sid] = end - t0

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def patched(self):
        return _Patch(self)

    def write(self, path) -> int:
        """Write every recorded span as tab-separated text (gzip); returns the count."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart_ms\tend_ms\tparent\top\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] * 1e3:.4f}\t{self.span_end[i] * 1e3:.4f}\t"
                    f"{self.span_parent[i]}\t{self.span_op[i]}\n"
                )
        return len(self.span_name)


class _Patch:
    """Replace every binding of each traced function, restore them on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for key, m in sorted(sys.modules.items()) if key == "sfvs" or key.startswith("sfvs.")]
        for kind, entries in (("wrap", TRACED), ("count", COUNTED)):
            for name, home, attr in entries:
                owner = sys.modules[home]
                if "." in attr:  # a method, patched once on its class
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._set(cls, meth, getattr(self.tracer, kind)(name, original))
                    continue
                original = getattr(owner, attr)
                wrapper = getattr(self.tracer, kind)(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
        return self.tracer

    def _set(self, owner, key, value):
        self.undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def __exit__(self, *exc):
        for owner, key, value in reversed(self.undo):
            setattr(owner, key, value)
        self.undo.clear()
        return False
