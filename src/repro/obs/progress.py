"""Search progress: heartbeats, percent-complete, and ETA estimation.

The enumerator, the SCE counter, and the baseline matchers already pay for
a periodic tick every ``_TIME_CHECK_INTERVAL`` search nodes (the soft
time-limit check). :class:`Heartbeat` piggybacks on exactly that tick: the
hot loop calls :meth:`Heartbeat.beat` only on interval boundaries, the
heartbeat samples the current search depth into a histogram, and — at most
once per ``interval`` wall-clock seconds — emits one progress line
(embeddings so far, nodes expanded, percent complete with ETA when a
:class:`ProgressEstimator` is attached, sampled depth histogram, elapsed
time) through this module's logger or a caller-supplied sink. Interval and
elapsed bookkeeping use ``time.monotonic`` throughout, so wall-clock steps
(NTP, DST) never skew the emit cadence.

:class:`ProgressEstimator` turns the engine's explicit frame stack into a
completion estimate, Knuth's classic DFS-tree estimator adapted to the
candidate arrays the executor already keeps: at each open depth ``d`` the
scan cursor has consumed ``index[d] - 1`` of ``len(values[d])``
candidates, so the lexicographic position of the search —

    ``fraction = Σ_d scale_d · (index[d] - 1) / len(values[d])``,
    ``scale_d = Π_{d' < d} 1 / len(values[d'])``

— is the explored fraction of the root-candidate space under the
uniform-subtree assumption. Because DFS visits candidate prefixes in
order, the raw fraction is nondecreasing; the estimator additionally
clamps to a running maximum, so the reported percent is **monotone** by
construction. The ETA divides the remaining fraction by an
exponentially-smoothed progress rate.

:class:`RunSnapshot` is the one view of a live run: the run builds it
only when a line is due, the heartbeat formats the line from it and hands
the same object to every listener (metrics pump, live inspector, a pool
worker's beat reporter).

The disabled paths are :data:`NULL_HEARTBEAT` (``enabled = False``) and a
``None`` estimator; the hot loops guard on those, so runs without
observability never even reach the modulo when no time limit is set
either.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

logger = logging.getLogger(__name__)

DEFAULT_INTERVAL = 5.0

#: Below this subtree scale further depths cannot move the estimate by a
#: representable amount; the fraction walk stops early.
_MIN_SCALE = 1e-18


def search_state_fraction(
    values: Sequence[Sequence | None], index: Sequence[int]
) -> float:
    """Explored fraction of the candidate space from the live frame stack.

    ``values``/``index`` are the executor's per-depth candidate lists and
    scan cursors (:class:`repro.engine.executor.SearchState`); a ``None``
    list means the depth has not been entered. See the module docstring
    for the estimator; returns a value in ``[0, 1]``.
    """
    fraction = 0.0
    scale = 1.0
    for depth, vals in enumerate(values):
        if vals is None:
            break
        total = len(vals)
        if total == 0:
            break
        consumed = index[depth] - 1
        if consumed > 0:
            fraction += scale * (consumed / total)
        scale /= total
        if scale < _MIN_SCALE:
            break
    return min(1.0, fraction)


class ProgressEstimator:
    """Monotone percent-complete and smoothed ETA for one run.

    Feed raw (possibly noisy) explored-fraction samples through
    :meth:`update`; read :attr:`percent` / :meth:`eta_seconds` any time.
    The running-maximum clamp guarantees the reported fraction never goes
    backwards; the rate is an exponential moving average of
    fraction-per-second, so the ETA stabilizes as the run progresses.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1]: {alpha}")
        self._alpha = alpha
        self._fraction = 0.0
        self._rate = 0.0
        self._last_time: float | None = None
        self._last_fraction = 0.0
        self.updates = 0

    def update(self, raw: float) -> float:
        """Fold one raw fraction sample in; returns the monotone fraction."""
        self.updates += 1
        if raw > self._fraction:
            self._fraction = min(1.0, raw)
        now = time.monotonic()
        if self._last_time is not None:
            dt = now - self._last_time
            if dt > 0.0:
                instant = (self._fraction - self._last_fraction) / dt
                if self._rate <= 0.0:
                    self._rate = instant
                else:
                    self._rate = (
                        self._alpha * instant
                        + (1.0 - self._alpha) * self._rate
                    )
        self._last_time = now
        self._last_fraction = self._fraction
        return self._fraction

    def complete(self) -> None:
        """Pin the estimate to 100% (the run exhausted its search space)."""
        self.updates += 1
        self._fraction = 1.0
        self._last_fraction = 1.0

    @property
    def fraction(self) -> float:
        """Monotone explored fraction in ``[0, 1]``."""
        return self._fraction

    @property
    def percent(self) -> float:
        """Monotone percent-complete in ``[0, 100]``."""
        return round(self._fraction * 100.0, 2)

    def eta_seconds(self) -> float | None:
        """Smoothed seconds-to-completion, or ``None`` before the rate is
        observable (fewer than two samples, or no progress yet)."""
        if self._fraction >= 1.0:
            return 0.0
        if self._rate <= 0.0:
            return None
        return (1.0 - self._fraction) / self._rate

    def describe(self) -> str:
        """Compact ``NN.N% (ETA Ns)`` rendering for progress lines."""
        return _describe(self.percent, self.eta_seconds())

    def as_dict(self) -> dict:
        """JSON-ready snapshot (``MatchResult.progress`` / run-reports)."""
        eta = self.eta_seconds()
        return {
            "percent": self.percent,
            "eta_seconds": None if eta is None else round(eta, 3),
            "updates": self.updates,
        }

    def __repr__(self) -> str:
        return f"<ProgressEstimator {self.describe()} updates={self.updates}>"


def _describe(percent: float, eta: float | None) -> str:
    suffix = f" (ETA {eta:.0f}s)" if eta is not None else ""
    return f"{percent:.1f}%{suffix}"


@dataclass(frozen=True)
class RunSnapshot:
    """One sample of a live run, built when a heartbeat line is due.

    Holds copies only, never the runtime, computer or pool driver that
    built it, so a kept snapshot cannot keep a finished run's memo alive.
    ``progress`` is :meth:`ProgressEstimator.as_dict` (``None`` without an
    estimator); ``workers`` (per-worker rows) and ``health`` (supervision
    state) are ``None`` outside a pool.
    """

    emitted: int
    nodes: int
    stats: Mapping[str, Any]
    stop_reason: str | None = None
    degradation: tuple[str, ...] = ()
    progress: Mapping[str, Any] | None = None
    workers: tuple[Mapping[str, Any], ...] | None = None
    health: Mapping[str, Any] | None = None


#: What heartbeat listeners receive: the snapshot the line was built from.
Listener = Callable[[RunSnapshot], None]


class Heartbeat:
    """Periodic progress emitter (see module docstring).

    ``emit`` receives the formatted line; it defaults to ``logger.info`` so
    heartbeats follow the structured-logging configuration. ``beats`` and
    ``depth_histogram`` stay inspectable after the run for tests and
    reports.
    """

    enabled = True

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        emit: Callable[[str], None] | None = None,
    ) -> None:
        self.interval = interval
        self.emit = emit if emit is not None else logger.info
        self.started = time.monotonic()
        self.beats = 0
        self.depth_histogram: dict[int, int] = {}
        self._last = self.started
        #: Callables invoked with the snapshot each time a line is emitted
        #: — the hook the metrics pump and the inspector sample on.
        self.listeners: list[Listener] = []

    def add_listener(self, listener: Listener) -> None:
        self.listeners.append(listener)

    def beat(
        self,
        snapshot: Callable[[], RunSnapshot],
        depth: int | None = None,
        phase: str = "search",
    ) -> bool:
        """Record one tick; emit a progress line if ``interval`` elapsed.

        Called on ``_TIME_CHECK_INTERVAL`` boundaries only, so the depth
        histogram is a *sample* of the search frontier, not an exact count;
        ``depth=None`` (the pool's drive loop, which has no frontier)
        records no sample. ``snapshot`` is called only when a line is due:
        the line is formatted from its result, which then goes to every
        listener. Returns True when a line was emitted.
        """
        if depth is not None:
            self.depth_histogram[depth] = self.depth_histogram.get(depth, 0) + 1
        now = time.monotonic()
        if now - self._last < self.interval:
            return False
        self._last = now
        self.beats += 1
        snap = snapshot()
        progress = snap.progress
        done = (
            f" {_describe(progress['percent'], progress['eta_seconds'])} done,"
            if progress is not None
            else ""
        )
        self.emit(
            f"[heartbeat] {phase}: {snap.emitted} embeddings,"
            f" {snap.nodes} nodes,{done} depth sample {self.depth_summary()},"
            f" {now - self.started:.1f}s elapsed"
        )
        self.publish(snap)
        return True

    def publish(self, snapshot: RunSnapshot) -> None:
        """Hand one snapshot to every listener without emitting a line —
        :meth:`beat` after its line, and a pool run once at its end, so
        live readers see the final per-worker state."""
        for listener in list(self.listeners):
            try:
                listener(snapshot)
            except Exception:
                # A broken observer (metrics pump, inspector publisher, a
                # user hook) must never abort the match it is watching:
                # log it once and detach it.
                logger.exception(
                    "heartbeat listener %r raised; detaching it", listener
                )
                try:
                    self.listeners.remove(listener)
                except ValueError:
                    pass

    def depth_summary(self) -> str:
        """Compact ``depth:count`` rendering of the sampled histogram."""
        if not self.depth_histogram:
            return "{}"
        items = sorted(self.depth_histogram.items())
        return "{" + ", ".join(f"{d}: {c}" for d, c in items) + "}"

    def as_dict(self) -> dict:
        return {
            "beats": self.beats,
            "depth_histogram": {
                str(d): c for d, c in sorted(self.depth_histogram.items())
            },
            "elapsed_seconds": time.monotonic() - self.started,
        }


class NullHeartbeat:
    """Disabled heartbeat; the hot loops branch on ``enabled`` once."""

    enabled = False
    beats = 0
    depth_histogram: dict = {}
    listeners: list = []

    def add_listener(self, listener: Listener) -> None:
        pass

    def beat(
        self,
        snapshot: Callable[[], RunSnapshot],
        depth: int | None = None,
        phase: str = "search",
    ) -> bool:
        return False

    def publish(self, snapshot: RunSnapshot) -> None:
        pass

    def depth_summary(self) -> str:
        return "{}"

    def as_dict(self) -> dict:
        return {"beats": 0, "depth_histogram": {}, "elapsed_seconds": 0.0}


NULL_HEARTBEAT = NullHeartbeat()
