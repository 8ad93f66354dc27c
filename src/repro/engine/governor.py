"""Resource governance for long-running searches.

CSCE targets large patterns whose searches can run for minutes and whose
SCE memo tables grow with the number of distinct ``(op, prior-assignment)``
keys — exactly the regime where a production engine must survive deadlines,
memory pressure, and operator interrupts instead of dying with a stack
trace. This module provides the three pieces:

* :class:`Budget` — a unified, immutable resource budget: wall-clock
  deadline, embedding cap, and a **memory ceiling** (MiB) sampled
  cooperatively at frame-step boundaries via :mod:`tracemalloc` (the same
  machinery :class:`repro.obs.profile.Profiler` uses).
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
from dataclasses import dataclass

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
    and an option specify a limit, the tighter one wins.
    ``memory_limit_mb`` is new: a ceiling on Python-heap usage (MiB, as
    reported by :func:`tracemalloc.get_traced_memory`) checked
    cooperatively at frame-step boundaries.
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


class CancelToken:
    """A thread-safe cooperative cancellation flag.

    Trip it from a signal handler, another thread, or an injected fault;
    the engine polls :attr:`cancelled` at tick boundaries and stops with
    ``stop_reason="cancelled"``. Reusable: :meth:`clear` re-arms it, so a
    long-lived :class:`~repro.core.continuous.ContinuousMatcher` can absorb
    a cancellation on one delta and keep serving the next.
    """

    __slots__ = ("_event", "reason")

    def __init__(self) -> None:
        self._event = threading.Event()
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
    """Enforces a :class:`Budget` + :class:`CancelToken` over one or more
    runs, applying the graceful-degradation ladder on memory breaches.

    The governor is attached via ``MatchOptions(governor=...)`` and polled
    by the engine's tick machinery through :meth:`check`, which takes the
    run's emitted count, its ladder list and its candidate computer: the
    executor's :class:`~repro.engine.executor.Runtime` (every sequential
    run — streaming, capped and factorized counting) passes its own, the
    pool's parent drive loop passes ``computer=None`` (the memos live in
    the workers). It owns tracemalloc the same way
    :class:`repro.obs.profile.Profiler` does: starts tracing only when a
    memory budget exists and tracing is off, and stops it only if it
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
        # Live-tightening state (see tighten()): the time/embedding
        # dimensions of the *initial* budget are folded into the runtime
        # at construction, so mid-run changes need governor-level
        # overrides that check() enforces itself.
        self._tighten_lock = threading.Lock()
        self._deadline_override: float | None = None
        self._cap_override: int | None = None

    # -- tracemalloc ownership ----------------------------------------
    def ensure_tracing(self) -> None:
        """Start tracemalloc if a memory budget requires sampling."""
        if self.budget.memory_limit_mb is None:
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
        """Tighten the budget mid-run; returns the new effective budget.

        Caps can only shrink (min-merge with the existing budget — a
        governor cannot *grant* resources a run was started without).
        ``time_limit`` counts from *now*: it becomes an absolute deadline
        checked at the next tick, alongside the runtime's original one.
        Thread-safe: called from inspector socket threads while the
        executor thread polls :meth:`check`.
        """
        with self._tighten_lock:
            old = self.budget
            if time_limit is not None:
                deadline = time.perf_counter() + time_limit
                if (
                    self._deadline_override is None
                    or deadline < self._deadline_override
                ):
                    self._deadline_override = deadline
            if max_embeddings is not None:
                if (
                    self._cap_override is None
                    or max_embeddings < self._cap_override
                ):
                    self._cap_override = max_embeddings

            def _min(a, b):
                if a is None:
                    return b
                if b is None:
                    return a
                return min(a, b)

            self.budget = Budget(
                time_limit=_min(old.time_limit, time_limit),
                max_embeddings=_min(old.max_embeddings, max_embeddings),
                memory_limit_mb=_min(old.memory_limit_mb, memory_limit_mb),
            )
        # A newly-imposed memory ceiling needs sampling to be live.
        self.ensure_tracing()
        return self.budget

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
        emitted: int,
        degradation: list[str],
        computer: CandidateComputer | None,
    ) -> str | None:
        """One governance step; returns a stop reason or ``None``.

        ``emitted`` is the run's embedding count; a memory breach appends
        to ``degradation``, the ladder list, whose events also give the
        ladder position (``evict_memo`` → 1, ``disable_memo`` → 2), so a
        resumed run climbs on from its checkpoint. The rungs act on
        ``computer``; with ``None`` nothing is evicted, so the first
        breach climbs straight to ``disable_memo`` and the next suspends.
        Called from ``tick()`` at the same cadence as the deadline check,
        so its cost is amortized over
        :data:`~repro.engine.executor._TIME_CHECK_INTERVAL` frame steps.

        The time/embedding dimensions of the budget are *not* checked here
        — they are folded into the runtime's own deadline/cap at
        construction (min of option and budget), keeping the hot path
        identical to the ungoverned engine.
        """
        if self.cancel.cancelled:
            return STOP_CANCELLED
        # Mid-run tightenings (see tighten()): the runtime's own
        # deadline/cap were frozen at construction, so post-hoc limits
        # are enforced here instead.
        deadline = self._deadline_override
        if deadline is not None and time.perf_counter() >= deadline:
            return STOP_TIME_LIMIT
        cap = self._cap_override
        if cap is not None and emitted >= cap:
            return STOP_EMBEDDING_LIMIT
        limit = self.budget.memory_limit_mb
        if limit is None:
            return None
        if self.memory_mb() <= limit:
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
        if obs is not None and getattr(obs, "enabled", False):
            obs.counters.inc(name)

    def _record_degrade(self, rung: str, stage: int) -> None:
        """Leave the ladder climb in the flight recorder, so a post-mortem
        dump shows *which* rungs fired before a memory-limit stop."""
        obs = self.obs
        if obs is None:
            return
        recorder = getattr(obs, "recorder", None)
        if recorder is not None and recorder.enabled:
            recorder.record("degrade", rung=rung, stage=stage)

    def __repr__(self) -> str:
        return (
            f"<ResourceGovernor budget={self.budget}"
            f" cancel={self.cancel!r}>"
        )


def run_limits(options: MatchOptions) -> tuple[float | None, int | None]:
    """The ``(deadline, cap)`` a run enforces: the option limits,
    tightened by the attached governor's budget (the tighter one wins).
    The deadline is an absolute :func:`time.perf_counter` value. Starts a
    governed run's memory tracing too, since every caller begins its run
    right after."""
    time_limit, cap = options.time_limit, options.max_embeddings
    gov = options.governor
    if gov is not None:
        gov.ensure_tracing()
        time_limit = _tighter(time_limit, gov.budget.time_limit)
        cap = _tighter(cap, gov.budget.max_embeddings)
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    return deadline, cap


def _tighter(a: _Limit | None, b: _Limit | None) -> _Limit | None:
    """The smaller of two optional limits (``None`` is unlimited)."""
    return min((x for x in (a, b) if x is not None), default=None)


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
    e.g. the deadline :func:`run_limits` returns) never sleeps past
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
