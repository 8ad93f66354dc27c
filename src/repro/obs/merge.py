"""Multi-worker observability plumbing for the process pool.

* :func:`merge_counters` — the **exact, associative, commutative** merge
  of counter snapshots. Counters are plain integer (occasionally float)
  sums, so merging K worker snapshots in any order and grouping
  reproduces the single-process totals bit-for-bit (integer addition is
  associative and commutative; Hypothesis pins this in
  ``tests/test_property_hypothesis.py``).
* :class:`WorkerSnapshot` — a worker-tagged, JSON-portable bundle of one
  worker's counter registry and unified stats, with an optional
  :class:`SpanContext` linking its spans to the coordinator's trace. A
  pool worker ships one per finished unit; the live inspector serves one
  as its ``stats`` reply (the ``worker-snapshot`` wire manifest).
* :class:`SpanContext` — serializable trace/parent-span identity. A
  coordinator mints one root context and derives a child per work unit
  (:meth:`SpanContext.child`); spans stamped with it carry
  ``trace_id``/``parent_id`` attributes that stitch a distributed trace
  back together.

Everything here is pure data plumbing — no engine imports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Mapping


def _new_id(nbytes: int = 8) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class SpanContext:
    """Serializable trace identity carried into portable work units."""

    trace_id: str
    span_id: str
    parent_id: str | None = None

    @classmethod
    def new_root(cls) -> "SpanContext":
        """Mint a fresh root context (coordinator side)."""
        return cls(trace_id=_new_id(16), span_id=_new_id())

    def child(self) -> "SpanContext":
        """Derive a child context: same trace, this span as the parent."""
        return SpanContext(
            trace_id=self.trace_id,
            span_id=_new_id(),
            parent_id=self.span_id,
        )

    def to_dict(self) -> dict:
        payload: dict = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id is not None:
            payload["parent_id"] = self.parent_id
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SpanContext":
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=(
                str(payload["parent_id"])
                if payload.get("parent_id") is not None
                else None
            ),
        )

    def annotate(self, span: Any) -> None:
        """Stamp this context onto a live :class:`~repro.obs.tracer.Span`
        so the exported span tree carries the distributed identity."""
        span.set("trace_id", self.trace_id)
        span.set("span_id", self.span_id)
        if self.parent_id is not None:
            span.set("parent_id", self.parent_id)


def merge_counters(*snapshots: Mapping[str, float]) -> dict[str, float]:
    """Exact merge of counter snapshots: per-key sums over all inputs.

    Associative and commutative by construction (addition over ints /
    floats), with the empty dict as identity — merging shard snapshots in
    any grouping reproduces the single-process totals exactly for integer
    counters. Non-numeric values are skipped, mirroring
    :meth:`repro.obs.counters.CounterRegistry.merge`.
    """
    merged: dict[str, float] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            merged[key] = merged.get(key, 0) + value
    return merged


@dataclass
class WorkerSnapshot:
    """One worker's observability state, tagged and JSON-portable."""

    worker: str
    counters: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    context: SpanContext | None = None
    workers: tuple[str, ...] = ()
    """Contributing worker tags (``(worker,)`` unless given)."""

    def __post_init__(self) -> None:
        if not self.workers:
            self.workers = (self.worker,)

    def to_dict(self) -> dict:
        payload: dict = {
            "worker": self.worker,
            "workers": list(self.workers),
            "counters": dict(self.counters),
            "stats": dict(self.stats),
        }
        if self.context is not None:
            payload["context"] = self.context.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "WorkerSnapshot":
        context = payload.get("context")
        return cls(
            worker=str(payload["worker"]),
            counters=dict(payload.get("counters", {})),
            stats=dict(payload.get("stats", {})),
            context=SpanContext.from_dict(context) if context else None,
            workers=tuple(payload.get("workers", ())),
        )
