"""Run options and results for the physical-operator engine.

Every execution front-end (the :class:`repro.core.CSCE` facade,
:mod:`repro.core.continuous`, the baselines, and the bench harness) shares
this one options/result contract; :mod:`repro.core` re-exports both names.

This module imports nothing from ``repro`` but the import-free
:mod:`repro.obs.catalog` — it sits at the bottom of the engine layer and
must stay importable mid-way through package initialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NoReturn

from repro.obs.catalog import STOP_REASONS

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.variants import Variant

#: Minimum elapsed time used as the throughput denominator. Instant runs
#: (below the clock's resolution) would otherwise report 0 embeddings/s for
#: a nonzero count, which reads as "no progress" in bench tables.
MIN_THROUGHPUT_ELAPSED = 1e-6

# Stop reasons: why a run ended before exhausting the search space. A
# completed run has ``stop_reason=None``. One constant per member of
# :data:`repro.obs.catalog.STOP_REASONS`, in its order.
(
    STOP_TIME_LIMIT,
    STOP_EMBEDDING_LIMIT,
    STOP_MEMORY_LIMIT,
    STOP_CANCELLED,
    STOP_QUARANTINED,
) = STOP_REASONS


def raise_stop(stop_reason: str, partial_count: int) -> NoReturn:
    """Raise the typed :class:`~repro.errors.LimitExceeded` subclass for a
    ``stop_reason``, carrying ``partial_count``. The single place mapping
    stop reasons to exception types, so every front-end that converts a
    cooperative stop to an exception reports the same partial count."""
    from repro.errors import (
        EmbeddingLimitExceeded,
        LimitExceeded,
        MatchCancelled,
        MemoryLimitExceeded,
        TimeLimitExceeded,
    )

    exc_types = {
        STOP_TIME_LIMIT: TimeLimitExceeded,
        STOP_EMBEDDING_LIMIT: EmbeddingLimitExceeded,
        STOP_MEMORY_LIMIT: MemoryLimitExceeded,
        STOP_CANCELLED: MatchCancelled,
    }
    exc = exc_types.get(stop_reason, LimitExceeded)
    raise exc(
        f"run stopped early: {stop_reason}", partial_count=partial_count
    )


@dataclass
class MatchOptions:
    """Knobs for one matching run.

    ``max_embeddings`` truncates the search after that many results (the
    existing-works convention of stopping at 1e5); ``time_limit`` is a soft
    wall-clock budget in seconds; ``use_sce`` toggles candidate memoization
    and count factorization (the paper's headline optimization) for
    ablations; ``count_only`` skips materializing embeddings. Both limits
    are cooperative in the iterative engine: the run stops at the next
    check, sets ``stop_reason``, and returns the partial count — no
    exceptions on the engine path. Symmetry restrictions are not options:
    they are compiled into the plan a run executes; a seed binds to the
    run (``seed``)."""

    count_only: bool = False
    max_embeddings: int | None = None
    time_limit: float | None = None
    use_sce: bool = True
    obs: object | None = None
    """Optional :class:`repro.obs.Observation` carrying the run's tracer,
    counter registry, and heartbeat. ``None`` (the default) selects the
    no-op instruments — the zero-cost-when-disabled path."""

    seed: dict[int, int] | None = None
    """The run's pins ``{pattern vertex: data vertex}``, checked by
    :meth:`~repro.engine.physical.PhysicalPlan.with_seed`; ``None``: unpinned."""

    governor: object | None = None
    """Optional :class:`repro.engine.governor.ResourceGovernor` enforcing a
    unified budget (deadline, embedding cap, memory ceiling) and a
    cooperative cancel token. ``None`` (the default) keeps the legacy
    per-option limits with zero governance overhead."""

    workers: int = 1
    """Number of worker processes. ``1`` (the default) runs the classic
    in-process executor; ``N > 1`` shards the search into portable
    :class:`repro.engine.workunit` payloads executed by a
    :mod:`repro.engine.pool` process pool with work-stealing, exact merged
    counts, and per-worker budgets derived from this options object.
    Parallel execution requires ``count_only=True`` (embedding streams are
    not portable across process boundaries)."""

    stall_timeout: float | None = None
    """Seconds without any liveness message (ready/beat/split/done) from a
    *busy* pool worker before the parent's stall watchdog escalates:
    record a ``worker_stall`` flight-recorder event, SIGKILL the process,
    and re-dispatch its unit through the death-recovery path (counted
    against the respawn budget). ``None`` (the default) disables the
    watchdog — a clean workload never sees a stall kill."""

    max_respawns: int | None = None
    """Cap on pool worker respawns after deaths or stall kills. ``None``
    (the default) keeps the historical budget of 3 x ``workers``."""

    max_unit_attempts: int = 3
    """Attempts a pool work unit gets before it is declared poisonous and
    quarantined (serialized to ``quarantine-NNNN.json`` in the pool
    checkpoint directory instead of aborting the match; replay it with
    ``csce retry-quarantined``)."""


class StopFlags:
    """The ``truncated``/``timed_out`` booleans, derived from a
    ``stop_reason`` attribute — never stored, so they cannot disagree
    with it."""

    stop_reason: str | None

    @property
    def truncated(self) -> bool:
        """The run stopped at its embedding cap."""
        return self.stop_reason == STOP_EMBEDDING_LIMIT

    @property
    def timed_out(self) -> bool:
        """The run stopped at its time limit."""
        return self.stop_reason == STOP_TIME_LIMIT


@dataclass
class MatchResult(StopFlags):
    """Outcome of one matching run, with the paper's reporting fields."""

    count: int
    variant: "Variant"
    embeddings: list[dict[int, int]] | None = None
    elapsed: float = 0.0
    read_seconds: float = 0.0
    plan_seconds: float = 0.0
    compile_seconds: float = 0.0
    """Time spent lowering the logical plan to its physical operators;
    0.0 when the run reused a cached :class:`repro.engine.PhysicalPlan`
    from a :class:`repro.engine.MatchSession`."""

    stop_reason: str | None = None
    """Why the run ended early, or ``None`` for an exhaustive run. One of
    :data:`STOP_REASONS`: ``"time_limit"``, ``"embedding_limit"``,
    ``"memory_limit"``, ``"cancelled"`` or ``"quarantined"``. The only
    stored stop state: the ``truncated``/``timed_out`` booleans are
    derived from it (see :class:`StopFlags`)."""

    degradation: list[str] = field(default_factory=list)
    """Governor degradation-ladder events
    (:data:`repro.obs.catalog.DEGRADATION_LADDER`), in order: ``evict_memo``
    (LRU-evicted half the SCE memo), ``disable_memo`` (memoization off
    for the rest of the run), ``suspend`` (pressure persisted; the run
    stopped with ``stop_reason="memory_limit"``). Empty on ungoverned runs."""

    progress: dict | None = None
    """Progress-estimator snapshot (``{"percent", "eta_seconds",
    "updates"}``, see :class:`repro.obs.progress.ProgressEstimator`) for
    observed runs: a monotone percent-complete of the explored
    root-candidate space — pinned to 100 for exhaustive runs — and the
    smoothed ETA the run ended with. ``None`` on unobserved runs (the
    estimator only exists when an ``Observation`` is attached)."""

    stats: dict = field(default_factory=dict)
    """Unified search counters — the same key set on *every* execution path
    (enumeration and ``count_only`` factorized counting emit identical
    keys; see :data:`repro.obs.catalog.STAT_KEYS`):

    * ``nodes`` — search-tree nodes expanded;
    * ``computed`` / ``memo_hits`` / ``memo_misses`` — candidate-set cold
      computations vs. SCE cache hits and misses (``memo_misses`` stays 0
      under ``use_sce=False``, distinguishing cold computes from misses);
    * ``intersections`` — sorted neighbor-list intersections performed;
    * ``negation_checks`` — vertex-induced negation-cluster probes;
    * ``backtracks`` — dead-end returns (nodes contributing no embedding);
    * ``prunes_injective`` / ``prunes_restriction`` — candidates rejected
      by injectivity or symmetry restrictions;
    * ``factorizations`` / ``group_memo_hits`` — SCE count-factorization
      events and memoized-region reuses (0 on the enumeration path).
    """

    shards: dict | None = None
    """Per-worker shard summary for parallel runs (``workers > 1``):
    ``{"count", "workers", "counts", "stop_reasons",
    "execute_seconds_sum"}``, where ``counts`` sums exactly to
    :attr:`count` (a resumed pool's confirmed prefix is its
    ``checkpoint`` shard). Pool runs that quarantined poison units add
    ``quarantined_units`` to the block. ``None`` on single-process runs."""

    quarantined_units: int = 0
    """Work units the pool quarantined after exhausting their attempt
    budget (see :attr:`MatchOptions.max_unit_attempts`). Nonzero only on
    parallel runs, and always paired with ``stop_reason="quarantined"``
    unless a more severe budget stop happened first; the missing counts
    live in ``quarantine-NNNN.json`` files recoverable with
    ``csce retry-quarantined``."""

    @property
    def total_seconds(self) -> float:
        """Total time the paper reports: read + optimize + compile + execute."""
        return (
            self.elapsed
            + self.read_seconds
            + self.plan_seconds
            + self.compile_seconds
        )

    @property
    def throughput(self) -> float:
        """Embeddings per second of execution time (Fig. 7/8 metric).

        Instant runs (elapsed below the timer's resolution) are clamped to
        :data:`MIN_THROUGHPUT_ELAPSED` so a nonzero count never reports a
        throughput of 0.
        """
        if self.count <= 0:
            return 0.0
        return self.count / max(self.elapsed, MIN_THROUGHPUT_ELAPSED)

    def check(self) -> "MatchResult":
        """Raise the typed :class:`~repro.errors.LimitExceeded` subclass
        matching ``stop_reason`` (with ``partial_count == count``), or
        return ``self`` unchanged for complete runs.

        The engine never raises on its own — limits are flags — but some
        callers prefer exception control flow; this adapter guarantees the
        exception's ``partial_count`` always equals the result's count.
        """
        if self.stop_reason is None:
            return self
        raise_stop(self.stop_reason, self.count)

    def __repr__(self) -> str:
        # embedding/time limits keep their legacy names; the newer stop
        # reasons (memory_limit, cancelled) have no legacy flag to show.
        flags = []
        if self.truncated:
            flags.append("truncated")
        if self.timed_out:
            flags.append("timed-out")
        if self.stop_reason in (STOP_MEMORY_LIMIT, STOP_CANCELLED):
            flags.append(self.stop_reason)
        if self.quarantined_units:
            flags.append(f"quarantined:{self.quarantined_units}")
        if self.degradation:
            flags.append("degraded:" + ">".join(self.degradation))
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return (
            f"<MatchResult {self.variant} count={self.count}"
            f" {self.total_seconds:.4f}s{suffix}>"
        )
