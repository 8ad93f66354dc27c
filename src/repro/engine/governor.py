"""Resource governance for long-running searches.

CSCE targets large patterns whose searches can run for minutes and whose
SCE memo tables grow with the number of distinct ``(op, prior-assignment)``
keys — exactly the regime where a production engine must survive deadlines,
memory pressure, and operator interrupts instead of dying with a stack
trace. This module provides the pieces:

* :class:`Budget` — a unified, immutable resource budget: wall-clock
  deadline, embedding cap, and a **memory ceiling** (MiB) sampled
  cooperatively at frame-step boundaries via :mod:`tracemalloc` (the same
  machinery :class:`repro.obs.profile.Profiler` uses).
* :class:`RunLimits` — the limits one run enforces, resolved once by
  :func:`run_limits` from the run's options and the governor's budget
  (the tighter limit wins). The runtime, the pool (each of whose work
  units runs under a share of it), the checkpoint writer and the live
  inspector all read this one record.
* :class:`CancelToken` — a thread-safe cooperative cancellation flag. The
  CLI trips it from a SIGINT handler; injected faults trip it from the
  chaos suite. The engine polls it at tick boundaries and stops with a
  truncated-but-valid result, never a ``KeyboardInterrupt`` traceback.
* :class:`ResourceGovernor` — combines both and applies the
  **graceful-degradation ladder** on a memory breach: first evict half the
  SCE memo (LRU-style), then disable memoization for the remainder of the
  run, and only suspend (``stop_reason="memory_limit"``) if pressure
  persists. Each rung is recorded in the run's ``degradation`` list and
  the observation counters (``governor_evictions`` etc.).

Because the executor keeps its entire search state in an explicit frame
stack (PR 3), a governed stop is just a cooperative ``return`` — the
partial counts are exact, and the frame stack itself can be checkpointed
(:mod:`repro.engine.checkpoint`) and resumed later.

Memory sampling is cheap but not free (one ``tracemalloc`` read per
:data:`~repro.engine.executor._TIME_CHECK_INTERVAL` ticks) and tracemalloc
tracing itself slows allocation; a governor with no memory budget never
starts tracing, so the default (unlimited) budget adds no overhead beyond
a single attribute check per tick window.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, TypeVar

import random
import threading
import time
import tracemalloc
from dataclasses import dataclass, replace

from repro.engine.results import (
    STOP_CANCELLED,
    STOP_EMBEDDING_LIMIT,
    STOP_MEMORY_LIMIT,
    STOP_TIME_LIMIT,
)
from repro.obs.catalog import DEGRADATION_LADDER, ladder_stage
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.engine.candidates import CandidateComputer
    from repro.engine.results import MatchOptions

#: Degradation-ladder event names, in escalation order.
DEGRADE_EVICT, DEGRADE_DISABLE, DEGRADE_SUSPEND = DEGRADATION_LADDER

#: Fraction of the memo evicted on the ladder's first rung.
EVICT_FRACTION = 0.5

_Limit = TypeVar("_Limit", int, float)


@dataclass(frozen=True)
class Budget:
    """A unified resource budget. ``None`` fields are unlimited.

    ``time_limit`` and ``max_embeddings`` mirror the same-named
    :class:`~repro.engine.results.MatchOptions` fields; when both a budget
    and an option specify a limit, the tighter one wins (see
    :func:`run_limits`). ``memory_limit_mb`` is a ceiling on Python-heap
    usage (MiB, as reported by :func:`tracemalloc.get_traced_memory`)
    checked cooperatively at frame-step boundaries.
    """

    time_limit: float | None = None
    max_embeddings: int | None = None
    memory_limit_mb: float | None = None

    @property
    def unlimited(self) -> bool:
        return (
            self.time_limit is None
            and self.max_embeddings is None
            and self.memory_limit_mb is None
        )


@dataclass(frozen=True)
class RunLimits:
    """The limits one run enforces, resolved once by :func:`run_limits`.

    ``deadline`` is an absolute :func:`time.perf_counter` value (valid
    across ``fork``: CLOCK_MONOTONIC is system-wide), ``cap`` the
    embedding cap, ``memory_mb`` the heap ceiling in MiB, and
    ``time_limit`` the relative limit the deadline was set from — what a
    checkpoint stores, so a resume budgets it afresh. ``None`` is
    unlimited. Frozen: a narrower limit is a new record (:meth:`within`).
    """

    deadline: float | None = None
    cap: int | None = None
    memory_mb: float | None = None
    time_limit: float | None = None

    def reached(self, emitted: int) -> str | None:
        """The stop reason once the deadline has passed or ``emitted``
        meets the cap, else ``None``."""
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            return STOP_TIME_LIMIT
        if self.cap is not None and emitted >= self.cap:
            return STOP_EMBEDDING_LIMIT
        return None

    @staticmethod
    def from_now(
        time_limit: float | None, cap: int | None, memory_mb: float | None
    ) -> "RunLimits":
        """The record of relative limits, the deadline counted from now."""
        start = time.perf_counter()
        deadline = None if time_limit is None else start + time_limit
        return RunLimits(deadline, cap, memory_mb, time_limit)

    def within(self, other: "RunLimits") -> "RunLimits":
        """This record narrowed by ``other``: each limit the tighter of
        the two, the relative ``time_limit`` following the deadline."""
        if other is NO_LIMITS:
            return self
        deadline, relative = self.deadline, self.time_limit
        if other.deadline is not None and (
            deadline is None or other.deadline < deadline
        ):
            deadline, relative = other.deadline, other.time_limit
        return RunLimits(
            deadline,
            _tighter(self.cap, other.cap),
            _tighter(self.memory_mb, other.memory_mb),
            relative,
        )

    def share(self, cap: int | None, parts: int) -> "RunLimits":
        """A work unit's share of this record: the same deadline, the
        ``cap`` slice reserved for it, and one of ``parts`` equal parts
        of the memory ceiling."""
        return replace(
            self,
            cap=cap,
            memory_mb=None if self.memory_mb is None else self.memory_mb / parts,
        )

    def as_dict(self) -> dict:
        """The limits under the inspector's ``budget`` keys."""
        return {
            "time_limit": self.time_limit,
            "max_embeddings": self.cap,
            "memory_limit_mb": self.memory_mb,
        }


#: The unlimited record: what a governor has tightened before any
#: :meth:`~ResourceGovernor.tighten` call.
NO_LIMITS = RunLimits()


def run_limits(options: MatchOptions) -> RunLimits:
    """Resolve a run's limits once, at its start: the option limits,
    tightened by the attached governor's budget (the tighter one wins),
    the deadline counted from now, then narrowed by the governor's
    tightenings so far. Every consumer of a run's limits reads the record
    this returns, or a share of it."""
    gov = options.governor
    if gov is None:
        return _resolve(Budget(), options.time_limit, options.max_embeddings)
    return gov.enforced(
        _resolve(gov.budget, options.time_limit, options.max_embeddings)
    )


def _resolve(
    budget: Budget, time_limit: float | None = None, cap: int | None = None
) -> RunLimits:
    return RunLimits.from_now(
        _tighter(time_limit, budget.time_limit),
        _tighter(cap, budget.max_embeddings),
        budget.memory_limit_mb,
    )


def _tighter(a: _Limit | None, b: _Limit | None) -> _Limit | None:
    """The smaller of two optional limits (``None`` is unlimited)."""
    if a is None:
        return b
    return a if b is None else min(a, b)


class CancelToken:
    """A thread-safe cooperative cancellation flag over an event.

    Trip it from a signal handler, another thread, or an injected fault;
    the engine polls :attr:`cancelled` at tick boundaries and stops with
    ``stop_reason="cancelled"``. The event is a :class:`threading.Event`
    unless one is given: the pool passes a ``multiprocessing`` event, so
    every worker process observes the parent's trip. Reusable:
    :meth:`clear` re-arms it, so a long-lived
    :class:`~repro.core.continuous.ContinuousMatcher` can absorb a
    cancellation on one delta and keep serving the next.
    """

    __slots__ = ("_event", "reason")

    def __init__(self, event: Any = None) -> None:
        self._event = threading.Event() if event is None else event
        self.reason: str | None = None

    def trip(self, reason: str = "cancelled") -> None:
        """Request cancellation (safe to call from a signal handler)."""
        self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def clear(self) -> None:
        """Re-arm the token for the next run."""
        self._event.clear()
        self.reason = None

    def __repr__(self) -> str:
        state = f"tripped: {self.reason}" if self.cancelled else "armed"
        return f"<CancelToken {state}>"


class ResourceGovernor:
    """Enforces each run's :class:`RunLimits` + a shared
    :class:`CancelToken` over one or more runs, applying the
    graceful-degradation ladder on memory breaches.

    Attached via ``MatchOptions(governor=...)``, its :class:`Budget` is an
    input of :func:`run_limits`. Each run keeps its own record and
    enforces it narrowed by every :meth:`tighten` so far
    (:meth:`enforced`), so runs sharing a governor never read each other's
    limits, and a tightening holds for the live run and every later one.
    The engine's tick machinery polls :meth:`check` with the run's record,
    count, ladder list and candidate computer (``None`` from the pool's
    parent: the memos live in the workers). It owns tracemalloc the same
    way :class:`repro.obs.profile.Profiler` does: starts tracing only when
    a memory ceiling exists and tracing is off, and stops it only if it
    started it.
    """

    def __init__(
        self,
        budget: Budget | None = None,
        cancel: CancelToken | None = None,
        obs: object | None = None,
    ) -> None:
        self.budget = budget or Budget()
        self.cancel = cancel or CancelToken()
        self.obs = obs
        self._owns_tracing = False
        # tighten() runs on inspector socket threads while the executor
        # thread polls check().
        self._lock = threading.Lock()
        #: Every tightening, min-merged (an absolute deadline).
        self._tightened = NO_LIMITS
        #: The record the latest run bound (the budget's own before one).
        self._bound = _resolve(self.budget)

    def enforced(self, limits: RunLimits) -> RunLimits:
        """A run's own record narrowed by every tightening."""
        return limits.within(self._tightened)

    @property
    def limits(self) -> RunLimits:
        """The latest bound run's record, enforced: what the inspector's
        ``status`` and ``budget`` replies report."""
        return self.enforced(self._bound)

    def bind(self, limits: RunLimits) -> None:
        """At a run's start: make ``limits`` what :attr:`limits` reports,
        and start memory tracing if it has a ceiling."""
        with self._lock:
            self._bound = limits
        self.ensure_tracing()

    # -- tracemalloc ownership ----------------------------------------
    def ensure_tracing(self) -> None:
        """Start tracemalloc if a memory ceiling requires sampling."""
        if self.limits.memory_mb is None:
            return
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracing = True

    def release(self) -> None:
        """Stop tracemalloc if (and only if) this governor started it."""
        if self._owns_tracing:
            tracemalloc.stop()
            self._owns_tracing = False

    # -- live tightening (inspector `budget` command) -----------------
    def tighten(
        self,
        time_limit: float | None = None,
        max_embeddings: int | None = None,
        memory_limit_mb: float | None = None,
    ) -> Budget:
        """Tighten the live run and every later run under this governor;
        returns the live run's limits as a :class:`Budget`.

        Limits can only shrink (a governor cannot *grant* resources a run
        was started without): tightenings are min-merged, and each run
        enforces them from its next :meth:`check`. ``time_limit`` counts
        from *now*. The budget, an input of each run, is unchanged.
        """
        with self._lock:
            self._tightened = self._tightened.within(
                RunLimits.from_now(time_limit, max_embeddings, memory_limit_mb)
            )
        # A newly-imposed memory ceiling needs sampling to be live.
        self.ensure_tracing()
        limits = self.limits
        return Budget(limits.time_limit, limits.cap, limits.memory_mb)

    # -- sampling ------------------------------------------------------
    def memory_mb(self) -> float:
        """Current traced Python-heap usage in MiB (0.0 when not tracing),
        plus any simulated pressure from the ``governor.memory`` fault
        site (the chaos suite's way of testing the ladder without
        actually allocating gigabytes)."""
        current = 0.0
        if tracemalloc.is_tracing():
            current = tracemalloc.get_traced_memory()[0] / (1024.0 * 1024.0)
        extra = faults.fire("governor.memory")
        if extra is not None:
            current += float(extra)
        return current

    # -- the cooperative check ----------------------------------------
    def check(
        self,
        limits: RunLimits,
        emitted: int,
        degradation: list[str],
        computer: CandidateComputer | None,
    ) -> str | None:
        """One governance step; returns a stop reason or ``None``.

        Checks the cancel token, then the deadline and cap of ``limits``
        (the caller's own record, :meth:`enforced` here) against
        ``emitted``, then its memory ceiling. A memory breach appends to
        ``degradation``, the ladder list, whose events also give the
        ladder position (``evict_memo`` → 1, ``disable_memo`` → 2), so a
        resumed run climbs on from its checkpoint. The rungs act on
        ``computer``; with ``None`` nothing is evicted, so the first breach
        climbs straight to ``disable_memo`` and the next suspends. Called
        from ``tick()``, so its cost is amortized over
        :data:`~repro.engine.executor._TIME_CHECK_INTERVAL` frame steps.
        """
        if self.cancel.cancelled:
            return STOP_CANCELLED
        limits = self.enforced(limits)
        reason = limits.reached(emitted)
        if reason is not None or limits.memory_mb is None:
            return reason
        if self.memory_mb() <= limits.memory_mb:
            return None
        # Memory breach: climb the degradation ladder one rung per breach.
        stage = ladder_stage(degradation)
        if stage == 0:
            evicted = (
                computer.evict(EVICT_FRACTION) if computer is not None else 0
            )
            degradation.append(DEGRADE_EVICT)
            self._count("governor_evictions")
            self._record_degrade(DEGRADE_EVICT, 1)
            if evicted:
                return None
            # Nothing to evict — fall through to the next rung now rather
            # than burning another full tick window under pressure.
            stage = 1
        if stage == 1:
            if computer is not None:
                computer.disable_memo()
            degradation.append(DEGRADE_DISABLE)
            self._count("governor_memo_disabled")
            self._record_degrade(DEGRADE_DISABLE, 2)
            return None
        # stage >= 2: eviction and disabling did not relieve pressure.
        degradation.append(DEGRADE_SUSPEND)
        self._count("governor_suspensions")
        self._record_degrade(DEGRADE_SUSPEND, 3)
        return STOP_MEMORY_LIMIT

    def _count(self, name: str) -> None:
        obs = self.obs
        if obs is not None and obs.enabled:
            obs.counters.inc(name)

    def _record_degrade(self, rung: str, stage: int) -> None:
        """Leave the ladder climb in the flight recorder, so a post-mortem
        dump shows *which* rungs fired before a memory-limit stop."""
        obs = self.obs
        if obs is not None and obs.recorder.enabled:
            obs.recorder.record("degrade", rung=rung, stage=stage)

    def __repr__(self) -> str:
        return (
            f"<ResourceGovernor budget={self.budget}"
            f" cancel={self.cancel!r}>"
        )


class RetryPolicy:
    """Bounded exponential backoff for absorbing transient faults.

    Wraps a callable that may fail transiently (the ``ccsr.read_cluster``
    site is the first user: a production store hits real I/O there) and
    retries it up to ``max_attempts`` total attempts. The delay before
    retry *k* is ``min(max_delay, base_delay * 2**(k-1))``, scaled by a
    jitter factor drawn from a **seeded** private :class:`random.Random` —
    two policies built with the same seed produce byte-identical delay
    sequences, so a chaos run is reproducible from its seed alone.

    Clock discipline: only :func:`time.perf_counter` is read, and a policy
    constructed with an absolute ``deadline`` (a ``perf_counter`` value,
    e.g. a :class:`RunLimits` deadline) never sleeps past
    it — when the remaining budget cannot cover the next backoff, the
    original exception is re-raised immediately instead of burning the
    run's deadline on sleeps.

    ``retries`` counts the retries actually performed (the
    ``ccsr.read_retries`` observation counter mirrors it at the read
    site), so absorbed faults stay visible instead of silent.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.01,
        max_delay: float = 0.25,
        jitter: float = 0.5,
        seed: int = 0,
        deadline: float | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {max_attempts}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {jitter}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter
        self.seed = seed
        self.deadline = deadline
        self.retries = 0
        self._rng = random.Random(seed)

    def with_deadline(self, deadline: float | None) -> "RetryPolicy":
        """A fresh policy with the same knobs bound to ``deadline``."""
        return RetryPolicy(
            max_attempts=self.max_attempts,
            base_delay=self.base_delay,
            max_delay=self.max_delay,
            jitter=self.jitter,
            seed=self.seed,
            deadline=deadline,
        )

    def backoff(self, attempt: int) -> float:
        """The jittered delay before retrying after failure ``attempt``
        (1-based). Deterministic given the construction seed."""
        delay = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        return delay * (1.0 - self.jitter * self._rng.random())

    def run(
        self,
        fn: Callable[[], Any],
        retry_on: tuple = (Exception,),
        on_retry: Callable[[int, float], None] | None = None,
    ) -> Any:
        """Call ``fn`` until it succeeds, a non-``retry_on`` error
        escapes, the attempt budget is spent, or the deadline forbids
        another backoff. ``on_retry(attempt, delay)`` fires before each
        sleep (the read site uses it to bump ``ccsr.read_retries``)."""
        attempt = 1
        while True:
            try:
                return fn()
            except retry_on:
                if attempt >= self.max_attempts:
                    raise
                delay = self.backoff(attempt)
                if self.deadline is not None:
                    remaining = self.deadline - time.perf_counter()
                    if remaining <= delay:
                        raise
                self.retries += 1
                if on_retry is not None:
                    on_retry(attempt, delay)
                if delay > 0.0:
                    time.sleep(delay)
                attempt += 1
