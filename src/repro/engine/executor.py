"""The iterative physical-plan executor (Section III, green stage).

Embeddings grow one vertex at a time following the compiled op sequence;
each step intersects cluster neighbor lists (worst-case-optimal-join style)
through :class:`~repro.engine.candidates.CandidateComputer`. The search is
driven by an explicit per-depth frame stack — no Python recursion — which
buys four things the old recursive interpreter could not offer:

* **streaming**: :func:`stream` is a plain generator over the frame stack,
  so :class:`EmbeddingStream` (behind ``CSCE.match_iter``) yields
  embeddings lazily, one ``next()`` at a time, with the search suspended
  in between;
* **cooperative limits**: deadlines, embedding caps, memory budgets and
  cancellation set ``stop_reason`` on the :class:`Runtime` and end the
  loop — no control-flow exceptions, and a partially-consumed stream is
  always in a consistent state;
* **checkpointing**: the frame stack lives in a :class:`SearchState` whose
  contents serialize to a resumable checkpoint
  (:mod:`repro.engine.checkpoint`) — suspend on one process, resume on
  another;
* **no recursion-limit games**: a 2000-vertex pattern (the paper's largest)
  needs 2000 stack frames under recursion; here it needs three parallel
  arrays of length 2000.

Streaming, capped counting and factorized counting
(:mod:`repro.engine.counting`) all run on one :class:`Runtime`; the first
two share the frame machine :func:`_search`, which yields only in stream
mode. Resource governance
(budgets, the degradation ladder, cancel tokens) is polled at tick
boundaries via :class:`repro.engine.governor.ResourceGovernor`; the
``engine.tick`` fault site fires at the same cadence for the chaos suite.
"""

from __future__ import annotations

import logging
import time
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Callable, Collection, Iterator, Sequence

from repro.engine.candidates import CandidateComputer
from repro.engine.governor import RunLimits, run_limits
from repro.engine.physical import PhysicalPlan
from repro.engine.results import (
    MatchOptions,
    MatchResult,
    STOP_EMBEDDING_LIMIT,
    StopFlags,
)
from repro.obs import (
    NULL_OBS,
    ProgressEstimator,
    RunSnapshot,
    search_state_fraction,
    unified_stats,
)
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.engine.checkpoint import CheckpointSink, PoolCheckpointDir

logger = logging.getLogger(__name__)

_TIME_CHECK_INTERVAL = 2048


def _satisfies(
    candidate: int,
    assignment: list[int],
    restrictions: tuple[tuple[int, bool], ...],
) -> bool:
    """Check the ``f(u) < f(v)`` restrictions anchored at this op."""
    for other, candidate_is_smaller in restrictions:
        image = assignment[other]
        if candidate_is_smaller:
            if candidate >= image:
                return False
        elif candidate <= image:
            return False
    return True


def leaf_count(
    values: Collection[int],
    used: set[int],
    restrictions: tuple[tuple[int, bool], ...],
    assignment: list[int],
) -> tuple[int, int, int]:
    """Count the last position's candidates in bulk.

    ``values`` is any sized iterable of distinct data vertices, in any
    order (:meth:`~repro.engine.candidates.CandidateComputer.raw` with
    ``bulk``). Returns ``(survivors, injective prunes, restriction
    prunes)`` exactly as a one-by-one scan counts them (injectivity is
    checked first). The restriction slots become one open value interval
    whose ends are found by binary search, so only a restricted count
    sorts the candidates. Under a non-injective variant ``used`` is empty.
    """
    clash = used.intersection(values) if used else ()
    if not restrictions:
        return len(values) - len(clash), len(clash), 0
    low, high = -1, None
    for other, candidate_is_smaller in restrictions:
        image = assignment[other]
        if candidate_is_smaller:
            high = image if high is None else min(high, image)
        else:
            low = max(low, image)
    ordered = sorted(values)
    stop = len(ordered) if high is None else bisect_left(ordered, high)
    inside = max(0, stop - bisect_right(ordered, low))
    clash_inside = sum(1 for v in clash if low < v and (high is None or v < high))
    return (
        inside - clash_inside,
        len(clash),
        len(ordered) - inside - (len(clash) - clash_inside),
    )


class SearchState:
    """The enumeration frame stack, extracted so it can be checkpointed.

    Everything :func:`stream` mutates between two yields lives here: the
    partial ``assignment`` (pattern vertex → data vertex, ``-1`` unbound),
    the injectivity ``used`` set, the per-depth candidate lists ``values``
    (``None`` = depth not yet entered), scan cursors ``index``, backtrack
    watermarks ``emitted_at``, and the current depth ``pos``. A depth's
    candidate sequence is never mutated: the search scans the tuple
    :class:`~repro.engine.candidates.CandidateComputer` returned (possibly
    a shared memo entry), and a steal rebinds the slot. The generator
    keeps ``state.pos`` current at every suspension point (yield, stop,
    close), so a snapshot taken between ``next()`` calls is always
    resumable.
    """

    __slots__ = ("assignment", "used", "values", "index", "emitted_at", "pos")

    def __init__(
        self,
        assignment: list[int],
        used: set[int],
        values: list[Sequence[int] | None],
        index: list[int],
        emitted_at: list[int],
        pos: int,
    ) -> None:
        self.assignment = assignment
        self.used = used
        self.values = values
        self.index = index
        self.emitted_at = emitted_at
        self.pos = pos

    @classmethod
    def fresh(cls, n: int) -> "SearchState":
        return cls([-1] * n, set(), [None] * n, [0] * n, [0] * n, 0)

    def to_payload(self) -> dict:
        """A JSON-serializable snapshot (candidate lists included, so a
        mid-scan frame resumes at the exact cursor position)."""
        return {
            "assignment": list(self.assignment),
            "used": sorted(self.used),
            "values": [None if v is None else list(v) for v in self.values],
            "index": list(self.index),
            "emitted_at": list(self.emitted_at),
            "pos": self.pos,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SearchState":
        return cls(
            [int(x) for x in payload["assignment"]],
            {int(x) for x in payload["used"]},
            [
                None if v is None else [int(x) for x in v]
                for v in payload["values"]
            ],
            [int(x) for x in payload["index"]],
            [int(x) for x in payload["emitted_at"]],
            int(payload["pos"]),
        )

    def fraction(self) -> float:
        """Explored fraction of the candidate space (the progress probe)."""
        return search_state_fraction(self.values, self.index)


class Runtime:
    """Mutable per-run execution state: counters, limits, instruments.

    Shared by stream mode, count mode and the factorized counter
    (:class:`~repro.engine.counting.FactorizedCounter`), so all three
    report identical :data:`~repro.obs.catalog.STAT_KEYS` semantics and
    stop, tick and report through one implementation. Its limits are one
    :class:`~repro.engine.governor.RunLimits` record: resolved from the
    options (:func:`~repro.engine.governor.run_limits`) unless the caller
    passes the record or, for a pool unit, its share. The runtime keeps
    that record; an attached
    :class:`~repro.engine.governor.ResourceGovernor` checks it, narrowed
    by the governor's tightenings, plus memory and cancellation, at tick
    boundaries; ``degradation`` records the ladder's progress.
    """

    __slots__ = (
        "options",
        "computer",
        "profile",
        "governor",
        "nodes",
        "emitted",
        "backtracks",
        "prunes_injective",
        "prunes_restriction",
        "factorizations",
        "group_memo_hits",
        "stop_reason",
        "degradation",
        "progress",
        "search_state",
        "probe",
        "_limits",
        "_heartbeat",
        "_recorder",
        "ticking",
        "tick_interval",
    )

    def __init__(
        self,
        options: MatchOptions,
        limits: RunLimits | None = None,
    ) -> None:
        self.options = options
        obs = options.obs or NULL_OBS
        # None when profiling is off: the hot loops pay one is-None branch.
        self.profile = obs.profile.search if obs.profile.enabled else None
        self.computer = CandidateComputer(
            use_sce=options.use_sce,
            memo_limit=options.memo_limit,
            profile=self.profile,
            pins=options.seed,
        )
        self.nodes = 0
        self.emitted = 0
        self.backtracks = 0
        self.prunes_injective = 0
        self.prunes_restriction = 0
        self.factorizations = 0
        self.group_memo_hits = 0
        #: Why the run stopped early, or ``None``: the only stop record.
        self.stop_reason: str | None = None
        self.degradation: list[str] = []
        gov = options.governor
        self.governor = gov
        self._limits = run_limits(options) if limits is None else limits
        if gov is not None:
            gov.bind(self._limits)
        self._heartbeat = obs.heartbeat
        self._recorder = obs.recorder
        # Progress estimation exists exactly when an observation is
        # attached; heartbeats and their listeners read it through
        # snapshot(), results and run-reports through progress_snapshot().
        self.progress: ProgressEstimator | None = (
            ProgressEstimator() if obs.enabled else None
        )
        #: The live frame stack, published by stream()/count_capped() so
        #: tick-time readers see the candidate cursors.
        self.search_state: SearchState | None = None
        #: Explored-fraction probe over the live frames, published by
        #: whichever frame machine runs on this runtime.
        self.probe: Callable[[], float] | None = None
        # The hot loops count each search node into ``nodes`` and run
        # :meth:`tick` when ``ticking`` holds and ``nodes`` is a multiple of
        # ``tick_interval``. Under fault injection every node must reach
        # the fault site, so the interval is 1; in production the periodic
        # work is amortized. Without a deadline, governor, injector, live
        # heartbeat, recorder, or progress estimator, ``ticking`` is false
        # and the loops never compute the modulo.
        self.tick_interval = 1 if faults.active() else _TIME_CHECK_INTERVAL
        self.ticking = (
            self._limits.deadline is not None
            or self._heartbeat.enabled
            or gov is not None
            or self._recorder.enabled
            or self.progress is not None
            or self.tick_interval == 1
        )

    @property
    def limits(self) -> RunLimits:
        """The run's live limits: the record it was built with, narrowed
        by the governor's tightenings when governed
        (:meth:`~repro.engine.governor.ResourceGovernor.enforced`)."""
        gov = self.governor
        return self._limits if gov is None else gov.enforced(self._limits)

    def _limit_reason(self) -> str | None:
        gov = self.governor
        if gov is not None:
            return gov.check(
                self._limits, self.emitted, self.degradation, self.computer
            )
        return self._limits.reached(self.emitted)

    def preflight(self) -> bool:
        """The limit check before the first frame step, so a tripped
        token, a passed deadline, or a cap that a restored count already
        meets stops even a search too small to reach a tick boundary.
        False means: do not start."""
        reason = self._limit_reason()
        if reason is not None:
            self.stop(reason)
            return False
        return True

    def stop(self, reason: str, depth: int = 0) -> None:
        """Stop the run cooperatively: set ``stop_reason`` and leave the
        flight recorder's ``stop`` event — one place, so every stop path
        records the same state and tail event."""
        self.stop_reason = reason
        if self._recorder.enabled:
            self._recorder.record(
                "stop",
                reason=reason,
                nodes=self.nodes,
                emitted=self.emitted,
                depth=depth,
            )

    def tick(self, depth: int, phase: str) -> bool:
        """The periodic work at a tick boundary: the node just counted
        into ``nodes`` is a multiple of ``tick_interval`` and ``ticking``
        holds (the hot loops test both inline). False once a limit fired
        (the deadline passed, a tightened cap was met, the memory ladder
        bottomed out, or the cancel token tripped), after :meth:`stop`."""
        if self.search_state is not None:
            # The frame machine keeps `pos` in a local for speed and only
            # syncs it at suspension points; sync it here too so anything
            # sampled at a tick (the progress probe, an on-demand
            # checkpoint from the inspector) sees a consistent state.
            self.search_state.pos = depth
        recorder = self._recorder
        if faults.ACTIVE is not None:
            # Record before firing so an action that raises still leaves
            # its mark in the ring buffer.
            if recorder.enabled:
                recorder.record(
                    "fault", site="engine.tick", depth=depth,
                    phase=phase, nodes=self.nodes,
                )
            faults.fire("engine.tick", depth=depth, phase=phase, nodes=self.nodes)
        progress = self.progress
        if progress is not None and self.probe is not None:
            progress.update(self.probe())
        if self._heartbeat.enabled:
            self._heartbeat.beat(self.snapshot, depth, phase=phase)
        if recorder.enabled:
            recorder.record(
                "tick", nodes=self.nodes, emitted=self.emitted,
                depth=depth, phase=phase,
            )
        reason = self._limit_reason()
        if reason is not None:
            self.stop(reason, depth)
            return False
        return True

    def release(self) -> None:
        """Return governor-owned resources (tracemalloc) after the run."""
        if self.governor is not None:
            self.governor.release()

    def stats(self) -> dict:
        """The unified stats snapshot (all :data:`STAT_KEYS`)."""
        return unified_stats(
            nodes=self.nodes,
            candidate_stats=self.computer.stats,
            backtracks=self.backtracks,
            prunes_injective=self.prunes_injective,
            prunes_restriction=self.prunes_restriction,
            factorizations=self.factorizations,
            group_memo_hits=self.group_memo_hits,
        )

    def snapshot(self) -> RunSnapshot:
        """The run's live state as one :class:`RunSnapshot` of copies —
        what the heartbeat line and its listeners read."""
        progress = self.progress
        return RunSnapshot(
            emitted=self.emitted,
            nodes=self.nodes,
            stats=self.stats(),
            stop_reason=self.stop_reason,
            degradation=tuple(self.degradation),
            progress=None if progress is None else progress.as_dict(),
        )

    def progress_snapshot(self, complete: bool = False) -> dict | None:
        """The progress block for results/reports, or ``None`` when no
        estimator is attached. ``complete=True`` pins the estimate to
        100% first (the search ran to exhaustion)."""
        if self.progress is None:
            return None
        if complete and self.stop_reason is None:
            self.progress.complete()
        return self.progress.as_dict()


def _search(
    physical: PhysicalPlan,
    runtime: Runtime,
    state: SearchState | None,
    emit: bool,
) -> Iterator[tuple[int, ...]]:
    """The frame machine behind :func:`stream` and :func:`count_capped`.

    With ``emit`` it yields each embedding as a tuple indexed by pattern
    vertex id; without, it only counts into ``runtime.emitted`` and never
    yields, so a single ``next()`` runs the whole search. Count mode
    counts the last position in bulk (:func:`leaf_count`) from its
    unordered candidate set, leaving the counters and frames as the scan
    would; a leaf the embedding cap would stop inside is sorted and
    scanned, so the stop lands on the exact candidate.
    Cooperative: on a limit it sets ``runtime.stop_reason`` and returns. A
    restored :class:`SearchState` resumes a checkpointed search mid-frame;
    the state is kept current at every suspension point and on every exit.
    """
    if physical.impossible():
        return
    ops = physical.ops
    n = len(ops)
    if not runtime.preflight():
        return
    if n == 0:
        runtime.emitted += 1
        if emit:
            yield ()
        return
    if state is None:
        state = SearchState.fresh(n)
    # Publish the frame stack for the tick-time progress probe, the pos
    # sync, and a pool worker's split listener (they read the same list
    # objects the loop mutates below).
    runtime.search_state = state
    runtime.probe = state.fraction
    phase = "enumerate" if emit else "count"
    leaf = -1 if emit else n - 1
    # Hot path: everything the loop touches is bound to locals.
    raw = runtime.computer.raw
    ticking = runtime.ticking
    tick_interval = runtime.tick_interval
    injective = physical.injective
    max_embeddings = runtime.limits.cap
    profile = runtime.profile
    assignment = state.assignment
    used = state.used
    add, discard = used.add, used.discard
    # Per-depth frames: the candidate list, the scan cursor, and the
    # emitted-count watermark for backtrack accounting.
    values = state.values
    index = state.index
    emitted_at = state.emitted_at
    pos = state.pos
    try:
        while pos >= 0:
            op = ops[pos]
            vals = values[pos]
            if vals is None:
                # Entering this depth fresh: one node per expansion, exactly
                # like one recursive extend() call.
                runtime.nodes += 1
                if (
                    ticking
                    and runtime.nodes % tick_interval == 0
                    and not runtime.tick(pos, phase)
                ):
                    return
                candidates = raw(op, assignment, pos == leaf)
                if profile is not None:
                    profile.visit(pos, len(candidates))
                if pos == leaf:
                    emitted = runtime.emitted
                    kept, pruned_inj, pruned_res = leaf_count(
                        candidates, used, op.restrictions, assignment
                    )
                    if max_embeddings is None or emitted + kept < max_embeddings:
                        runtime.prunes_injective += pruned_inj
                        runtime.prunes_restriction += pruned_res
                        index[pos] = len(candidates)
                        emitted_at[pos] = emitted
                        if kept:
                            runtime.emitted = emitted + kept
                        else:
                            runtime.backtracks += 1
                            if profile is not None:
                                profile.backtrack(pos)
                        pos -= 1
                        continue
                    # The cap stops inside this leaf: scan it in the order
                    # a scanned position would, so the stop candidate and
                    # the checkpointed frame are the same.
                    candidates = tuple(sorted(candidates))
                # The frame scans the (possibly memoized) tuple as is: a
                # steal rebinds values[pos] to new lists and never mutates
                # it, and the loop re-reads values[pos] every iteration.
                values[pos] = vals = candidates
                index[pos] = 0
                emitted_at[pos] = runtime.emitted
            u = op.u
            # Unassign the value the previous iteration consumed at this depth
            # (returning from a child, or continuing after a leaf emission).
            if assignment[u] != -1:
                if injective:
                    discard(assignment[u])
                assignment[u] = -1
            i = index[pos]
            restrictions = op.restrictions
            chosen = -1
            while i < len(vals):
                v = vals[i]
                i += 1
                if injective and v in used:
                    runtime.prunes_injective += 1
                    continue
                if restrictions and not _satisfies(v, assignment, restrictions):
                    runtime.prunes_restriction += 1
                    continue
                chosen = v
                break
            index[pos] = i
            if chosen < 0:
                if runtime.emitted == emitted_at[pos]:
                    runtime.backtracks += 1
                    if profile is not None:
                        profile.backtrack(pos)
                values[pos] = None
                pos -= 1
                continue
            assignment[u] = chosen
            if injective:
                add(chosen)
            if pos + 1 == n:
                runtime.emitted += 1
                if emit:
                    state.pos = pos
                    yield tuple(assignment)
                if max_embeddings is not None and runtime.emitted >= max_embeddings:
                    runtime.stop(STOP_EMBEDDING_LIMIT, pos)
                    return
                continue
            pos += 1
    finally:
        # Keep the checkpointable state current on every exit path: limit
        # stops, exhaustion (pos == -1), and generator close().
        state.pos = pos


def stream(
    physical: PhysicalPlan, runtime: Runtime, state: SearchState | None = None
) -> Iterator[tuple[int, ...]]:
    """Iteratively enumerate embeddings; yields tuples indexed by pattern
    vertex id. Cooperative: on a limit, sets ``runtime.stop_reason`` and
    returns. Pass a restored :class:`SearchState` to resume a checkpointed
    search mid-frame; the state is kept current at every suspension point.
    """
    return _search(physical, runtime, state, emit=True)


def count_capped(
    physical: PhysicalPlan,
    runtime: Runtime,
    state: SearchState | None = None,
) -> int:
    """Count embeddings without yielding — the path for capped,
    restricted, or seeded counting runs, and for exact counts whose plan
    never factorizes (no per-embedding generator hand-off; the last
    position is counted in bulk); returns ``runtime.emitted``. Same frame
    machine as :func:`stream`.

    Pass a restored :class:`SearchState` to resume mid-frame — the path
    pool workers use to execute a portable
    :mod:`~repro.engine.workunit` payload. The state's ``pos`` is kept
    current on every exit (limit stops and exhaustion), so a stopped
    count is itself re-shardable.
    """
    next(_search(physical, runtime, state, emit=False), None)
    return runtime.emitted


class EmbeddingStream(StopFlags):
    """A lazy, resumable iterator of embeddings (``CSCE.match_iter``).

    Yields ``{pattern vertex: data vertex}`` dicts one at a time; the
    search is suspended between ``next()`` calls, so consuming three
    embeddings of a billion-result query does three embeddings of work.
    Progress counters (``count``, ``stats``) and the cooperative
    ``stop_reason`` (with its derived ``truncated``/``timed_out`` flags)
    are readable at any point, also mid-iteration. ``close()`` (or
    exiting a ``with`` block) abandons the remaining search.

    ``state``/``emitted`` restore a checkpointed search
    (:func:`repro.engine.checkpoint.load_checkpoint` →
    ``CSCE.resume``); ``checkpoint_sink`` is an object with a
    ``write(stream)`` method called automatically when the stream stops
    early with a resumable ``stop_reason`` (the auto-checkpoint-on-suspend
    behavior of ``CSCE.match_iter(..., checkpoint_path=...)``).

    Streams do not fold their stats into an Observation's counter registry
    (the run has no natural end); read ``.stats`` or ``.result()`` instead.
    Heartbeats and per-depth profiling stay live while iterating.
    """

    def __init__(
        self,
        physical: PhysicalPlan,
        options: MatchOptions | None = None,
        state: SearchState | None = None,
        emitted: int = 0,
        checkpoint_sink: CheckpointSink | None = None,
    ) -> None:
        options = options or MatchOptions()
        self.physical = physical
        self.options = options
        self.runtime = Runtime(options)
        self.runtime.emitted = emitted
        self.state = state or SearchState.fresh(len(physical.ops))
        self.checkpoint_sink = checkpoint_sink
        self._gen = stream(physical, self.runtime, self.state)
        self._n = physical.num_vertices
        self._finished = False
        self._started = time.perf_counter()
        recorder = self.runtime._recorder
        if recorder.enabled:
            recorder.record(
                "run_start", mode="stream", ops=len(physical.ops)
            )

    def __iter__(self) -> "EmbeddingStream":
        return self

    def __next__(self) -> dict[int, int]:
        try:
            tup = next(self._gen)
        except StopIteration:
            self._finish()
            raise
        return {u: tup[u] for u in range(self._n)}

    def __enter__(self) -> "EmbeddingStream":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _finish(self) -> None:
        """End-of-stream housekeeping: release governor resources, then
        auto-checkpoint if the run suspended and a sink is attached."""
        if self._finished:
            return
        self._finished = True
        self.runtime.release()
        recorder = self.runtime._recorder
        if self.checkpoint_sink is not None and self.stop_reason is not None:
            self.checkpoint_sink.write(self)
            if recorder.enabled:
                recorder.record(
                    "checkpoint",
                    path=str(getattr(self.checkpoint_sink, "path", "")),
                    emitted=self.runtime.emitted,
                )
        if self.runtime.progress is not None and self.stop_reason is None:
            self.runtime.progress.complete()
        if recorder.enabled:
            recorder.record(
                "run_end",
                mode="stream",
                emitted=self.runtime.emitted,
                stop_reason=self.stop_reason,
            )

    def close(self) -> None:
        """Abandon the remaining search; counters keep their last state."""
        self._gen.close()
        if not self._finished:
            self._finished = True
            self.runtime.release()

    @property
    def count(self) -> int:
        """Embeddings yielded so far (including any checkpointed prefix)."""
        return self.runtime.emitted

    @property
    def stop_reason(self) -> str | None:
        """Why the stream stopped early, or ``None`` (still running or
        ran to exhaustion)."""
        return self.runtime.stop_reason

    @property
    def stats(self) -> dict:
        """Unified stats snapshot of the search so far."""
        return self.runtime.stats()

    def result(self) -> MatchResult:
        """A :class:`MatchResult` snapshot of the stream's progress.

        ``elapsed`` is wall time since the stream was opened (it includes
        the consumer's time between ``next()`` calls); embeddings are not
        re-materialized.
        """
        return _package_result(self.physical, self.runtime, self._started)


def _package_result(
    physical: PhysicalPlan,
    runtime: Runtime,
    started: float,
    embeddings: list[dict[int, int]] | None = None,
    complete: bool = False,
) -> MatchResult:
    """The :class:`MatchResult` of a run on ``runtime`` — every field the
    runtime recorded, plus the plan's read/plan/compile timings.
    ``complete=True`` pins the progress estimate of an exhaustive run to
    100% (see :meth:`Runtime.progress_snapshot`)."""
    plan = physical.logical
    return MatchResult(
        count=runtime.emitted,
        variant=plan.variant,
        embeddings=embeddings,
        elapsed=time.perf_counter() - started,
        read_seconds=plan.task_clusters.read_seconds,
        plan_seconds=max(0.0, plan.plan_seconds),
        compile_seconds=physical.compile_seconds,
        stop_reason=runtime.stop_reason,
        degradation=list(runtime.degradation),
        progress=runtime.progress_snapshot(complete=complete),
        stats=runtime.stats(),
    )


def execute_physical(
    physical: PhysicalPlan,
    options: MatchOptions | None = None,
    checkpoint: PoolCheckpointDir | None = None,
) -> MatchResult:
    """Run a compiled plan to completion and package the result.

    The plan and ``options.seed`` are the run's whole query: its
    restrictions are executed as compiled and its pins as bound. With ``options.workers > 1`` the count runs on
    the worker pool (:func:`~repro.engine.pool.execute_parallel`), which
    writes unfinished units to ``checkpoint`` (a
    :class:`~repro.engine.checkpoint.PoolCheckpointDir`) on an early stop
    and resolves its own limits; a ``checkpoint`` without the pool is a
    ``ValueError``, since nothing would ever write it. Otherwise the run
    enforces the limits the options resolve to
    (:func:`~repro.engine.governor.run_limits`).

    A count goes to the SCE-factorized counter when it is eligible
    (uncapped, unrestricted, unseeded, ``use_sce`` on) and the plan's
    :class:`~repro.engine.physical.RegionTable` says some suffix of the
    order splits into independent regions. Any other count runs the frame
    machine's count mode (:func:`count_capped`, bulk-counting the last
    position), which visits the same nodes a never-splitting factorized
    count would; enumeration runs stream. Limits surface as
    ``stop_reason`` with the partial count, never as exceptions.
    """
    options = options or MatchOptions()
    if checkpoint is not None and options.workers <= 1:
        raise ValueError(
            "a pool checkpoint directory needs workers > 1; checkpoint a"
            " one-worker run with match_iter(checkpoint_path=...)"
        )
    if options.workers > 1:
        from repro.engine.pool import execute_parallel

        return execute_parallel(physical, options, checkpoint=checkpoint)
    obs = options.obs or NULL_OBS
    plan = physical.logical
    start = time.perf_counter()
    embeddings: list[dict[int, int]] | None = None

    recorder = obs.recorder
    if recorder.enabled:
        recorder.record(
            "run_start",
            mode="count" if options.count_only else "enumerate",
            variant=plan.variant.value,
            ops=len(physical.ops),
        )

    gov = options.governor
    limits = run_limits(options)
    # Exact SCE-factorized counting only applies to uncapped, unrestricted,
    # unseeded counting; an embedding cap (from the options or the
    # governor's budget) needs enumeration semantics (results are counted
    # one by one up to the cap, the 1e5-cap convention of existing works),
    # and restrictions/seeds couple independent regions. A plan that never
    # splits gains nothing from it.
    try:
        if (
            options.count_only
            and options.use_sce
            and not physical.restrictions
            and not options.seed
            and limits.cap is None
            and physical.regions.factorizes
        ):
            from repro.engine import counting

            with obs.tracer.span(
                "execute", mode="count", variant=plan.variant.value
            ) as span:
                runtime = counting.count_physical(physical, options, limits)
                span.set("count", runtime.emitted)
        else:
            runtime = Runtime(options, limits)
            with obs.tracer.span(
                "execute", mode="enumerate", variant=plan.variant.value
            ) as span:
                if options.count_only:
                    count_capped(physical, runtime)
                else:
                    n = physical.num_vertices
                    embeddings = [
                        {u: tup[u] for u in range(n)}
                        for tup in stream(physical, runtime)
                    ]
                span.set("count", runtime.emitted)
                span.set("nodes", runtime.nodes)
    finally:
        if gov is not None:
            gov.release()

    result = _package_result(physical, runtime, start, embeddings, complete=True)
    if recorder.enabled:
        recorder.record(
            "run_end",
            count=result.count,
            nodes=result.stats["nodes"],
            stop_reason=result.stop_reason,
        )
    if obs.enabled:
        obs.counters.merge(result.stats)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "executed %s: count=%d nodes=%d elapsed=%.4fs%s",
            plan.variant.value,
            result.count,
            result.stats["nodes"],
            result.elapsed,
            f" (stopped: {result.stop_reason})" if result.stop_reason else "",
        )
    return result
