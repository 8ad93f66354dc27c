"""Span recording around the library's public entry points.

The traced run wraps each entry point below with a recorder that notes
name, start, end and parent of every call. Nothing under ``src/`` knows
about it: the wrappers replace module attributes and class methods for
the duration of a ``with SpanRecorder(...).installed():`` block and put
the originals back afterwards.

A layer's self time is its spans' time minus the time of their child
spans; time inside the traced window that no span covers is the
harness remainder, so the self times plus the remainder add up to the
window's wall time.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

# (module, entry point = span name, layer)
ENTRY_POINTS = (
    ("repro.ccsr.store", "CCSRStore.__init__", "ccsr.build"),
    ("repro.ccsr.store", "CCSRStore.read", "ccsr.read"),
    ("repro.ccsr.store", "CCSRStore.insert_edge", "ccsr.write"),
    ("repro.ccsr.store", "CCSRStore.remove_edge", "ccsr.write"),
    ("repro.engine.session", "plan_query", "core.plan"),
    ("repro.engine.session", "MatchSession.compile", "engine.session"),
    ("repro.engine.physical", "compile_plan", "engine.physical.compile"),
    ("repro.engine.physical", "PhysicalPlan.with_seed", "engine.physical.rebind"),
    ("repro.engine.executor", "execute_physical", "engine.executor"),
    ("repro.engine.counting", "count_physical", "engine.counting"),
    ("repro.engine.candidates", "CandidateComputer.raw", "engine.candidates"),
    ("repro.core.continuous", "embeddings_containing_edge", "core.continuous"),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in ENTRY_POINTS))

# Candidate computation runs once per search node (millions of calls per
# run); keep every span of the other layers but only this many of its.
MAX_LEAF_SPANS = 100_000
LEAF_LAYER = "engine.candidates"


class SpanRecorder:
    """Collects spans in memory; aggregates self time per layer as spans
    close, so dropped leaf spans still count."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._leaf_kept = 0
        #: Optional ``after(args, kwargs, result)`` hooks by span name, run
        #: once the span has closed.
        self.after: dict[str, object] = {}

    def wrap(self, name: str, layer: str, fn):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        perf = time.perf_counter
        after = self.after.get(name)
        leaf = layer == LEAF_LAYER

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][2] if stack else -1
            frame = [perf(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[0]
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                if not leaf or self._leaf_kept < MAX_LEAF_SPANS:
                    self._leaf_kept += leaf
                    spans.append((span_id, name, frame[0], end, parent))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point in every loaded ``repro`` module that
        holds it (``from x import f`` copies the name), then restore."""
        import repro.core.continuous  # noqa: F401  (load every target)
        import repro.engine.counting  # noqa: F401

        patches = []
        for module_name, path, layer in ENTRY_POINTS:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                patches.append((cls, attr, original))
                setattr(cls, attr, self.wrap(path, layer, original))
                continue
            original = getattr(owner, path)
            wrapper = self.wrap(path, layer, original)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if not name.startswith("repro"):
                    continue
                if getattr(module, path, None) is original:
                    patches.append((module, path, original))
                    setattr(module, path, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def layer_seconds(self) -> dict[str, float]:
        return {layer: self.self_s.get(layer, 0.0) for layer in LAYERS}

    def to_records(self) -> list[dict]:
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent}
            for i, name, start, end, parent in self.spans
        ]
