"""Multi-worker observability plumbing for the process pool.

* :func:`merge_counters` — the **exact, associative, commutative** merge
  of counter snapshots. Counters are plain integer (occasionally float)
  sums, so merging K worker snapshots in any order and grouping
  reproduces the single-process totals bit-for-bit (integer addition is
  associative and commutative; Hypothesis pins this in
  ``tests/test_property_hypothesis.py``).
* :class:`WorkerSnapshot` — a worker-tagged, JSON-portable bundle of one
  worker's counter registry and unified stats. A pool worker ships one
  per finished unit; the live inspector serves one as its ``stats``
  reply (the ``worker-snapshot`` wire manifest).

Everything here is pure data plumbing — no engine imports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


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
    workers: tuple[str, ...] = ()
    """Contributing worker tags (``(worker,)`` unless given)."""

    def __post_init__(self) -> None:
        if not self.workers:
            self.workers = (self.worker,)

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "workers": list(self.workers),
            "counters": dict(self.counters),
            "stats": dict(self.stats),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "WorkerSnapshot":
        return cls(
            worker=str(payload["worker"]),
            counters=dict(payload.get("counters", {})),
            stats=dict(payload.get("stats", {})),
            workers=tuple(payload.get("workers", ())),
        )
