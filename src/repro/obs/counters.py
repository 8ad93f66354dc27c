"""The run-telemetry counter registry and the unified stats schema.

Two layers cooperate here:

* hot loops (:class:`~repro.engine.candidates.CandidateComputer`, the
  iterative executor's :class:`~repro.engine.executor.Runtime`, the SCE
  counter) keep plain
  integer attributes — a Python ``int`` increment is the cheapest
  instrumentation possible and is what the seed already paid for
  ``nodes``/``memo_hits``;
* at run end those integers are folded into one canonical dict via
  :func:`unified_stats` and, when observability is on, merged into the
  run's :class:`CounterRegistry` so spans, heartbeats, and the run-report
  all read from the same numbers.

:data:`STAT_KEYS` is the contract: the enumeration path and the counting
path (``count_only=True``) emit **exactly** this key set, so downstream
consumers (bench rows, run-reports, the CLI) never branch on which path
produced a result. ``computed``, ``memo_hits``, ``intersections``,
``factorizations``, ``group_memo_hits``, and ``nodes`` are the seed's
original keys, kept as-is (aliases of the unified schema).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Mapping

#: Canonical ``MatchResult.stats`` keys, emitted by *both* execution paths.
STAT_KEYS: tuple[str, ...] = (
    "nodes",
    "computed",
    "memo_hits",
    "memo_misses",
    "intersections",
    "negation_checks",
    "backtracks",
    "prunes_injective",
    "prunes_restriction",
    "factorizations",
    "group_memo_hits",
)

#: Every registry counter name bumped outside the unified stats fold —
#: the dotted subsystem counters (``ccsr.*``, ``plan_cache.*``,
#: ``continuous.*``) and the governor's degradation events. The
#: ``obs_keys`` reprolint pass checks every ``.inc()``/``._count()``
#: string literal against ``STAT_KEYS`` + this tuple, so a new counter
#: name must be registered here before the code bumping it can land.
KNOWN_COUNTERS: tuple[str, ...] = (
    "plan_cache.hits",
    "plan_cache.misses",
    "ccsr.clusters_read",
    "ccsr.bytes_read",
    "ccsr.rows_read",
    "ccsr.read_retries",
    "continuous.updates",
    "continuous.pins",
    "continuous.delta_embeddings",
    "governor_evictions",
    "governor_memo_disabled",
    "governor_suspensions",
    "pool.stall_kills",
    "pool.quarantined_units",
)


def unified_stats(
    nodes: int = 0,
    candidate_stats: Any = None,
    backtracks: int = 0,
    prunes_injective: int = 0,
    prunes_restriction: int = 0,
    factorizations: int = 0,
    group_memo_hits: int = 0,
) -> dict[str, int]:
    """Assemble the canonical stats dict (see :data:`STAT_KEYS`).

    ``candidate_stats`` is a :class:`~repro.engine.candidates.CandidateStats`
    (or ``None`` for engines without candidate memoization, e.g. the
    baselines, which then report zeros for those counters).
    """
    stats = {
        "nodes": nodes,
        "computed": 0,
        "memo_hits": 0,
        "memo_misses": 0,
        "intersections": 0,
        "negation_checks": 0,
        "backtracks": backtracks,
        "prunes_injective": prunes_injective,
        "prunes_restriction": prunes_restriction,
        "factorizations": factorizations,
        "group_memo_hits": group_memo_hits,
    }
    if candidate_stats is not None:
        stats.update(candidate_stats.as_dict())
    return stats


class CounterRegistry:
    """Named integer counters for one run, with pluggable sources.

    Direct counters are bumped with :meth:`inc`; *sources* are callables
    returning a dict, polled at :meth:`snapshot` time — that is how the
    hot-path integer attributes join the registry without paying a method
    call per increment. Each matcher run owns its registry, so concurrent
    runs never share counters; :meth:`merge` folds finished-run stats in
    under a lock for the rare multi-threaded aggregation case.
    """

    enabled = True

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        self._sources: list[Callable[[], Mapping[str, int]]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Increment a counter (creating it at 0)."""
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def add_source(self, source: Callable[[], Mapping[str, int]]) -> None:
        """Register a callable polled at snapshot time (values are summed
        into any same-named direct counters)."""
        self._sources.append(source)

    def merge(self, stats: Mapping[str, int]) -> None:
        """Fold a finished stats dict into the registry (summing)."""
        with self._lock:
            for key, value in stats.items():
                if isinstance(value, (int, float)):
                    self._counts[key] = self._counts.get(key, 0) + value

    def get(self, name: str, default: int = 0) -> int:
        return self.snapshot().get(name, default)

    def snapshot(self) -> dict[str, int]:
        """Current counter values, direct counters plus polled sources."""
        with self._lock:
            merged = dict(self._counts)
        for source in self._sources:
            for key, value in source().items():
                if isinstance(value, (int, float)):
                    merged[key] = merged.get(key, 0) + value
        return merged

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()
        self._sources.clear()

    def __repr__(self) -> str:
        return f"<CounterRegistry {len(self._counts)} counters>"


class NullCounterRegistry:
    """Disabled registry: every operation is a no-op."""

    enabled = False

    def inc(self, name: str, amount: int = 1) -> None:
        pass

    def add_source(self, source: Callable[[], Mapping[str, int]]) -> None:
        pass

    def merge(self, stats: Mapping[str, int]) -> None:
        pass

    def get(self, name: str, default: int = 0) -> int:
        return default

    def snapshot(self) -> dict:
        return {}

    def clear(self) -> None:
        pass


NULL_COUNTERS = NullCounterRegistry()


def assert_stat_keys(stats: Iterable[str]) -> None:
    """Raise ``ValueError`` unless ``stats`` covers exactly the canonical
    key set — used by tests to pin the enumeration/counting parity."""
    got = set(stats)
    want = set(STAT_KEYS)
    if got != want:
        missing = sorted(want - got)
        extra = sorted(got - want)
        raise ValueError(
            f"stats keys diverge from STAT_KEYS: missing={missing} extra={extra}"
        )
