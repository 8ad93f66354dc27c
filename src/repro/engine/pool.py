"""Multi-process parallel matching: a pool of workers over portable units.

``MatchOptions(workers=N)`` routes a counting run here instead of the
single-process executor. The search is decomposed into portable
:mod:`~repro.engine.workunit` payloads (root-candidate range shards,
refined by work-stealing splits), executed by ``N`` forked worker
processes, and merged **exactly**: summing the per-unit emitted counts
reproduces the sequential count because candidate partitioning partitions
the search subtree (see :mod:`repro.engine.workunit`).

Transactional message protocol (exactness under worker death)
-------------------------------------------------------------
Each worker owns a private task queue (one dispatched unit at a time) and
reports on a private result pipe whose only write end it holds. Sends are
synchronous (no feeder thread, no write lock shared with other workers),
so a SIGKILL can only truncate the *tail* of that worker's message
stream, never wedge another worker's reports, and the worker's exit reads
as end-of-file in the parent. Every message atomically transfers
responsibility, so the parent always holds a consistent prefix:

* ``split`` carries the truncated *kept* payload, the *donated* payload,
  and the emitted/stats delta since the worker's last bank. The parent
  merges the delta immediately ("banking"), records the kept payload as
  the unit's new identity, and enqueues the donated half as a new unit.
  If the worker dies and the split message was lost, the parent
  re-enqueues the unit's previous payload — which still covers both
  halves, and the lost delta was never merged. Either way: exact.
* ``done`` carries the delta since the last bank (a typed
  :class:`~repro.obs.merge.WorkerSnapshot`), the unit's stop reason, and
  a residual payload when the unit stopped early. A unit whose ``done``
  was lost is simply re-run in full — nothing of it was merged.

One budget: the parent resolves the run's
:class:`~repro.engine.governor.RunLimits` once and enforces it narrowed
by its governor's tightenings (the inspector's ``budget`` command). Every
unit runs under a share of it (:meth:`RunLimits.share`): the absolute
deadline (valid across ``fork`` — CLOCK_MONOTONIC is system-wide), a
slice of the remaining cap reserved for it, and its part of the memory
ceiling. Dispatch keeps the confirmed
count plus the in-flight reservations within the cap, so a capped count
never exceeds it; a unit that spends its slice goes back on the queue
with its residual payload, and the pool stops with ``embedding_limit``
only when the confirmed count meets the cap. Every unit is governed by
the pool's shared :class:`~repro.engine.governor.CancelToken` (over a
``multiprocessing`` event) and continues the pool's degradation ladder,
so a parent-initiated stop (SIGINT, inspector ``cancel``, a limit)
drains the pool cooperatively, each worker returning a resumable
residual. The merged ``stop_reason`` is the parent's initiating reason;
worker ``cancelled`` echoes of it stay per-shard only.

Observability: worker heartbeats feed the parent's progress/ETA; the
parent's heartbeat builds one :class:`~repro.obs.progress.RunSnapshot`
with merged totals, per-worker rows and supervision health, which the
live inspector reads like any run's; the flight recorder logs
``unit``/``steal``/``worker`` events; the final
:class:`~repro.engine.results.MatchResult` carries the
per-worker shards block and exact merged counters.

Self-healing supervision (see ``docs/robustness.md``)
-----------------------------------------------------
Three escalation legs keep a sick pool from wedging or aborting:

* **Stall watchdog** — the parent stamps ``last_seen`` on every worker
  message; a *busy* worker silent past ``MatchOptions.stall_timeout`` is
  SIGKILLed (``worker_stall`` event, ``pool.stall_kills`` counter) and
  its unit re-runs through the ordinary death-recovery path, spending
  the respawn budget. A dead-but-silent worker can no longer stall
  ``run()`` forever.
* **Poison-unit quarantine** — a unit that exhausts
  ``MatchOptions.max_unit_attempts`` no longer raises
  :class:`~repro.errors.PoolError`; it is serialized to
  ``quarantine-NNNN.json`` in the pool checkpoint directory (standard
  checkpoint wire format) and the match completes with
  ``stop_reason="quarantined"`` and ``MatchResult.quarantined_units``
  set. ``csce retry-quarantined`` replays the residue single-process
  and folds the counts exactly.
* **Retrying cluster reads** — transient
  :class:`~repro.errors.ClusterReadError` during the read phase is
  absorbed by :class:`~repro.engine.governor.RetryPolicy` before it can
  ever fail a unit (wired inside :meth:`repro.ccsr.store.CCSRStore.read`).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue as queue_mod
import signal
import time

from collections import deque
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Callable

from repro.engine.executor import Runtime, SearchState, count_capped
from repro.engine.governor import (
    CancelToken,
    ResourceGovernor,
    RunLimits,
    run_limits,
)
from repro.engine.physical import PhysicalPlan
from repro.engine.results import (
    STOP_EMBEDDING_LIMIT,
    STOP_QUARANTINED,
    MatchOptions,
    MatchResult,
)
from repro.engine.workunit import make_root_units, split_search_state
from repro.errors import PoolError
from repro.testing import faults
from repro.obs import (
    NULL_OBS,
    Heartbeat,
    Observation,
    ProgressEstimator,
    RunSnapshot,
    WorkerSnapshot,
    merge_counters,
)

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.engine.checkpoint import PoolCheckpointDir

logger = logging.getLogger(__name__)

#: Every message kind a worker may send on its result pipe, in protocol
#: order. Closed registry — the ``message_protocol`` reprolint
#: pass checks that every send site uses a registered kind and that the
#: parent dispatch (:meth:`_PoolDriver._handle`) handles all of them
#: exhaustively, so an unroutable message fails lint instead of silently
#: dropping a worker's progress delta.
MESSAGE_KINDS: tuple[str, ...] = (
    "ready",
    "started",
    "beat",
    "split",
    "done",
    "failed",
    "bye",
)

#: Initial root-range shards per worker: finer than 1:1 so the tail of a
#: skewed workload rebalances through the queue before stealing kicks in.
DEFAULT_UNITS_PER_WORKER = 4

#: A unit whose executing worker died this many times is declared fatal.
MAX_UNIT_ATTEMPTS = 3

#: Worker heartbeat interval (seconds) — the steal-check/beat cadence.
_WORKER_HEARTBEAT = 0.1

#: Parent drive-loop result-pipe poll timeout (seconds).
_POLL_INTERVAL = 0.05

#: Seconds to wait for workers to drain after a stop before terminating.
_DRAIN_GRACE = 10.0

#: Replacement-worker budget: the pool respawns at most ``3 * workers``
#: replacements before giving up (a crash loop, not transient deaths).
_RESPAWN_FACTOR = 3

def _silent(line: str) -> None:
    """No-op heartbeat sink: worker heartbeats exist for their listeners
    (beat messages + steal checks), not for log lines."""


def _stats_delta(now: dict, banked: dict) -> dict:
    """Per-key difference of two cumulative stats snapshots."""
    return {key: value - banked.get(key, 0) for key, value in now.items()}


# ----------------------------------------------------------------------
# The unit runner
# ----------------------------------------------------------------------
def _run_unit(
    physical: PhysicalPlan,
    options: MatchOptions,
    state: SearchState | None,
    limits: RunLimits,
    cancel: CancelToken,
    ladder: list[str],
    obs,
) -> Runtime:
    """Run one work unit's frame stack under its share ``limits`` of the
    run's record, governed by the parent's ``cancel`` token and
    continuing the memory ladder from ``ladder``; returns the finished
    runtime, whose ``emitted`` counts this unit only. Forked workers and
    the in-process path run every unit here."""
    runtime = Runtime(
        MatchOptions(
            count_only=True,
            use_sce=options.use_sce,
            seed=options.seed,
            obs=obs,
            governor=ResourceGovernor(cancel=cancel, obs=obs),
        ),
        limits,
    )
    runtime.degradation = list(ladder)
    try:
        count_capped(physical, runtime, state)
    finally:
        runtime.release()
    return runtime


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_unit(
    worker_id: str,
    physical: PhysicalPlan,
    options: MatchOptions,
    unit_id: int,
    payload: dict,
    limits: RunLimits,
    ladder: list[str],
    results,
    cancel: CancelToken,
    need_work,
) -> None:
    """Execute one dispatched unit inside a worker process and report the
    delta-banked outcome (see the module docstring's protocol)."""
    # Fired before any runtime state exists, so a unit-targeted poison
    # action surfaces as a clean "failed" message even for units shorter
    # than one heartbeat interval.
    faults.fire("pool.worker_beat", worker=worker_id, unit=unit_id)
    state = SearchState.from_payload(payload)
    heartbeat = Heartbeat(interval=_WORKER_HEARTBEAT, emit=_silent)
    obs = Observation(trace=False, record=False, heartbeat=heartbeat)
    banked = {"emitted": 0, "stats": {}}
    op_vertices = tuple(op.u for op in physical.ops)
    injective = physical.injective

    def on_beat(snapshot: RunSnapshot) -> None:
        # Runs on the executor thread at a tick boundary — the only
        # point where splitting the live frame stack is sound.
        faults.fire("pool.worker_beat", worker=worker_id, unit=unit_id)
        live = dict(snapshot.stats)
        results.send(
            (
                "beat",
                worker_id,
                unit_id,
                live.get("nodes", 0) - banked["stats"].get("nodes", 0),
                snapshot.emitted - banked["emitted"],
                state.fraction(),
            )
        )
        if not need_work.is_set():
            return
        donated = split_search_state(state, injective, op_vertices)
        if donated is None:
            return
        need_work.clear()
        d_emitted = snapshot.emitted - banked["emitted"]
        d_stats = _stats_delta(live, banked["stats"])
        banked["emitted"] = snapshot.emitted
        banked["stats"] = live
        results.send(
            (
                "split",
                worker_id,
                unit_id,
                state.to_payload(),
                donated,
                d_emitted,
                d_stats,
            )
        )

    heartbeat.add_listener(on_beat)
    started = time.perf_counter()
    runtime = _run_unit(physical, options, state, limits, cancel, ladder, obs)
    final = runtime.stats()
    residual = state.to_payload() if runtime.stop_reason is not None else None
    snapshot = WorkerSnapshot(
        worker=worker_id, stats=_stats_delta(final, banked["stats"])
    )
    results.send(
        (
            "done",
            worker_id,
            unit_id,
            snapshot.to_dict(),
            runtime.emitted - banked["emitted"],
            runtime.stop_reason,
            list(runtime.degradation),
            time.perf_counter() - started,
            residual,
        )
    )


def _worker_main(
    worker_id: str,
    physical: PhysicalPlan,
    parent_options: MatchOptions,
    tasks,
    results,
    cancel: CancelToken,
    need_work,
) -> None:
    """Worker process entry point: loop over the private task queue until
    the sentinel (or pool-wide cancellation while idle)."""
    # The parent owns SIGINT handling (drain + merged partial result);
    # a terminal ^C must not kill children mid-unit.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    os.environ["REPRO_WORKER"] = worker_id
    results.send(("ready", worker_id, os.getpid()))
    while True:
        try:
            item = tasks.get(timeout=0.2)
        except queue_mod.Empty:
            if cancel.cancelled:
                break
            continue
        if item is None:
            break
        unit_id, payload, limits, ladder = item
        results.send(("started", worker_id, unit_id))
        try:
            _worker_unit(
                worker_id,
                physical,
                parent_options,
                unit_id,
                payload,
                limits,
                ladder,
                results,
                cancel,
                need_work,
            )
        except Exception as exc:
            # A unit-level error (e.g. an injected ClusterReadError) is
            # reported, not fatal to the worker: the parent re-enqueues
            # the unit (nothing was merged) up to MAX_UNIT_ATTEMPTS.
            results.send(("failed", worker_id, unit_id, repr(exc)))
    results.send(("bye", worker_id))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _PoolDriver:
    """The parent drive loop: dispatch, steal arbitration, delta banking,
    death recovery, budget enforcement, and exact merging."""

    def __init__(
        self,
        ctx,
        physical: PhysicalPlan,
        options: MatchOptions,
        units: list[dict],
        prior_emitted: int = 0,
        prior_counters: dict | None = None,
        checkpoint: "PoolCheckpointDir | None" = None,
        on_event: Callable[[str, tuple], None] | None = None,
    ) -> None:
        self.ctx = ctx
        self.physical = physical
        self.options = options
        self.obs = options.obs or NULL_OBS
        self.checkpoint = checkpoint
        self.on_event = on_event
        self.prior_emitted = prior_emitted
        self.prior_counters = dict(prior_counters or {})
        #: An ungoverned run gets a private governor.
        self.governor = options.governor or ResourceGovernor()
        #: The run's own limits record (see :attr:`limits`).
        self._limits = run_limits(options)
        #: The parent's own memory-ladder events (the governor appends).
        self.gov_degradation: list[str] = []
        # Unit table: id -> {payload, attempts, status, worker}. Status
        # lifecycle: pending -> queued -> started -> done | stopped; a
        # death or failure resets to pending (attempts capped).
        self.units: dict[int, dict] = {}
        self.pending: deque[int] = deque()
        for payload in units:
            self._add_unit(payload)
        # Worker table: id -> {proc, queue, results, state, unit, pid, live_*}.
        self.workers: dict[str, dict] = {}
        self.worker_order: list[str] = []
        self.per_worker: dict[str, dict] = {}
        self.spawned = 0
        self.respawns_left = (
            options.max_respawns
            if options.max_respawns is not None
            else _RESPAWN_FACTOR * options.workers
        )
        self.max_unit_attempts = max(
            1, int(options.max_unit_attempts or MAX_UNIT_ATTEMPTS)
        )
        self.stall_timeout = options.stall_timeout
        self.stall_kills = 0
        self.quarantined: list[int] = []
        #: The pool-wide cancel token every unit carries.
        self.cancel = CancelToken(ctx.Event())
        self.need_work = ctx.Event()
        self.confirmed = prior_emitted
        self.initiated: str | None = None
        self.sentinels_sent = False
        self.stop_started: float | None = None
        self.estimator: ProgressEstimator | None = (
            ProgressEstimator() if self.obs.enabled else None
        )
        self.recorder = self.obs.recorder

    # -- unit/worker bookkeeping -------------------------------------
    def _add_unit(self, payload: dict) -> int:
        uid = len(self.units)
        self.units[uid] = {
            "payload": payload,
            "attempts": 0,
            "status": "pending",
            "worker": None,
        }
        self.pending.append(uid)
        return uid

    def _agg(self, wid: str) -> dict:
        agg = self.per_worker.get(wid)
        if agg is None:
            agg = self.per_worker[wid] = _new_agg()
        return agg

    def _spawn_worker(self) -> None:
        wid = f"w{self.spawned}"
        self.spawned += 1
        tasks = self.ctx.Queue()
        reader, writer = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(
            target=_worker_main,
            args=(
                wid,
                self.physical,
                self.options,
                tasks,
                writer,
                self.cancel,
                self.need_work,
            ),
            daemon=True,
        )
        proc.start()
        # The child now holds the only write end: its exit (or death)
        # reads as end-of-file on ``reader``.
        writer.close()
        self.workers[wid] = {
            "proc": proc,
            "queue": tasks,
            "results": reader,
            "state": "idle",
            "unit": None,
            "pid": proc.pid,
            # Cap reserved for the worker's unit and not yet banked.
            "reserved": 0,
            "live_nodes": 0,
            "live_emitted": 0,
            "beats": 0,
            "last_seen": time.perf_counter(),
        }
        self.worker_order.append(wid)
        self._agg(wid)
        self.recorder.record("worker", id=wid, pid=proc.pid, event="spawn")

    def _emit(self, kind: str, payload: tuple) -> None:
        if self.on_event is not None:
            self.on_event(kind, payload)

    def _bank(self, wid: str, d_emitted: int, d_stats: dict) -> None:
        """Merge a worker's delta into the confirmed totals — exactly
        once per message, the exactness invariant."""
        agg = self._agg(wid)
        agg["emitted"] += int(d_emitted)
        agg["stats"] = merge_counters(agg["stats"], d_stats)
        self.confirmed += int(d_emitted)

    def _initiate(self, reason: str) -> None:
        """First fatal wins: record the pool's stop reason, trip the
        shared cancel event, and begin the cooperative drain."""
        if self.initiated is not None:
            return
        self.initiated = reason
        self.cancel.trip(reason)
        self.stop_started = time.perf_counter()
        self.recorder.record("stop", reason=reason,
                             nodes=self._total_nodes(),
                             emitted=self._live_emitted())
        logger.info("pool stopping: %s (confirmed %d embeddings)",
                    reason, self.confirmed)

    def _live_emitted(self) -> int:
        return self.confirmed + sum(
            w["live_emitted"] for w in self.workers.values()
            if w["state"] == "busy"
        )

    def _total_nodes(self) -> int:
        banked = sum(
            int(agg["stats"].get("nodes", 0))
            for agg in self.per_worker.values()
        )
        live = sum(
            w["live_nodes"] for w in self.workers.values()
            if w["state"] == "busy"
        )
        return banked + live + int(self.prior_counters.get("nodes", 0))

    # -- message handling --------------------------------------------
    def _handle(self, msg: tuple) -> None:
        kind = msg[0]
        # Every message kind carries the worker id at index 1; any
        # message at all is proof of life for the stall watchdog.
        sender = self.workers.get(msg[1]) if len(msg) > 1 else None
        if sender is not None:
            sender["last_seen"] = time.perf_counter()
        if kind == "ready":
            _, wid, pid = msg
            worker = self.workers.get(wid)
            if worker is not None:
                worker["pid"] = pid
        elif kind == "started":
            _, wid, uid = msg
            unit = self.units.get(uid)
            if unit is not None and unit["status"] == "queued":
                unit["status"] = "started"
        elif kind == "beat":
            _, wid, uid, d_nodes, d_emitted, fraction = msg
            worker = self.workers.get(wid)
            if worker is not None and worker["unit"] == uid:
                worker["live_nodes"] = int(d_nodes)
                worker["live_emitted"] = int(d_emitted)
                worker["fraction"] = float(fraction)
                worker["beats"] += 1
        elif kind == "split":
            _, wid, uid, kept, donated, d_emitted, d_stats = msg
            self._bank(wid, d_emitted, d_stats)
            unit = self.units.get(uid)
            if unit is not None:
                unit["payload"] = kept
            worker = self.workers.get(wid)
            if worker is not None and worker["unit"] == uid:
                # Banked live progress restarts from the new bank point,
                # and the banked count leaves the unit's reservation.
                worker["live_nodes"] = 0
                worker["live_emitted"] = 0
                worker["reserved"] = max(0, worker["reserved"] - int(d_emitted))
            new_uid = self._add_unit(donated)
            self.recorder.record("steal", victim=wid, unit=uid,
                                 new_unit=new_uid)
        elif kind == "done":
            (_, wid, uid, snapshot, d_emitted, stop_reason, degradation,
             elapsed, residual) = msg
            snap = WorkerSnapshot.from_dict(snapshot)
            self._bank(wid, d_emitted, snap.stats)
            agg = self._agg(wid)
            agg["units"] += 1
            agg["execute_seconds"] += float(elapsed)
            if len(degradation) > len(agg["degradation"]):
                agg["degradation"] = list(degradation)
            self._worker_idle(wid)
            unit = self.units.get(uid)
            if unit is None:
                return
            if stop_reason is None:
                unit["status"] = "done"
            elif stop_reason == STOP_EMBEDDING_LIMIT and not self._stopping():
                # The unit spent its reserved share of the cap: its
                # residual goes back on the queue. The pool stops only
                # when the confirmed count meets the cap.
                unit["status"] = "pending"
                unit["worker"] = None
                unit["payload"] = residual
                self.pending.appendleft(uid)
            else:
                unit["status"] = "stopped"
                if residual is not None:
                    unit["payload"] = residual
                agg["stop_reasons"].append(stop_reason)
                # Any other worker-side stop is pool-fatal; the first one
                # wins (a no-op for echoes of our own initiation).
                self._initiate(stop_reason)
            self.recorder.record("unit", id=uid, worker=wid, event="done",
                                 stop=stop_reason)
        elif kind == "failed":
            _, wid, uid, err = msg
            self._worker_idle(wid)
            self._requeue(uid, err=err)
        elif kind == "bye":
            _, wid = msg
            worker = self.workers.get(wid)
            if worker is not None and worker["state"] != "dead":
                worker["state"] = "exited"
        self._emit(kind, msg)

    def _worker_idle(self, wid: str) -> None:
        worker = self.workers.get(wid)
        if worker is None:
            return
        worker["unit"] = None
        worker["reserved"] = 0
        worker["live_nodes"] = 0
        worker["live_emitted"] = 0
        worker["fraction"] = 0.0
        if worker["state"] == "busy":
            worker["state"] = "idle"

    def _requeue(self, uid: int, err: str | None = None,
                 count_attempt: bool = True) -> None:
        """Put a unit back on the pending queue after a failure/death.
        Nothing of it was merged since its last bank, so re-running its
        current payload is exact. At the attempt cap the unit is
        *quarantined* — never a raise — so one poison unit cannot abort
        an otherwise healthy match."""
        unit = self.units.get(uid)
        if unit is None or unit["status"] in ("done", "stopped", "quarantined"):
            return
        if count_attempt:
            unit["attempts"] += 1
        if unit["attempts"] >= self.max_unit_attempts:
            self._quarantine(uid, err)
            return
        unit["status"] = "pending"
        unit["worker"] = None
        self.pending.appendleft(uid)
        self.recorder.record("unit", id=uid, worker=None, event="requeue")

    def _quarantine(self, uid: int, err: str | None) -> None:
        """Declare a unit poisonous: terminal ``quarantined`` status,
        its current payload serialized (checkpoint wire format) to
        ``quarantine-NNNN.json`` when a checkpoint directory is
        configured. Exactness holds — nothing of the unit was merged
        since its last bank, so the quarantine file's payload covers
        exactly the missing counts, recoverable with
        ``csce retry-quarantined``."""
        unit = self.units[uid]
        unit["status"] = "quarantined"
        unit["worker"] = None
        self.quarantined.append(uid)
        path = None
        if self.checkpoint is not None:
            path = self.checkpoint.write_quarantine(
                self.physical, self.options, self.limits,
                unit["payload"], uid, unit["attempts"], err,
            )
        if self.obs.enabled:
            self.obs.counters.inc("pool.quarantined_units")
        self.recorder.record(
            "quarantine", unit=uid, attempts=unit["attempts"], path=path
        )
        logger.warning(
            "pool quarantined work unit %d after %d attempt(s)%s%s",
            uid,
            unit["attempts"],
            f" (last error: {err})" if err else "",
            f"; residue at {path}" if path else " (no checkpoint dir:"
            " residue not recoverable)",
        )

    # -- stall watchdog / death recovery ------------------------------
    def _check_stalls(self) -> None:
        """Escalate on busy workers silent past ``stall_timeout``: record
        the ``worker_stall`` event and SIGKILL the process. Recovery is
        the ordinary death path (:meth:`_check_deaths` re-dispatches the
        unit and spends the respawn budget) — the watchdog only turns a
        silent wedge into a detectable death."""
        if self.stall_timeout is None:
            return
        now = time.perf_counter()
        for wid, worker in self.workers.items():
            if worker["state"] != "busy" or not worker["proc"].is_alive():
                continue
            age = now - worker["last_seen"]
            if age <= self.stall_timeout:
                continue
            self.stall_kills += 1
            if self.obs.enabled:
                self.obs.counters.inc("pool.stall_kills")
            self.recorder.record(
                "worker_stall", worker=wid, pid=worker["pid"],
                unit=worker["unit"], age=round(age, 3),
            )
            logger.warning(
                "pool worker %s (pid %s) stalled for %.1fs"
                " (stall_timeout=%.1fs); killing it",
                wid, worker["pid"], age, self.stall_timeout,
            )
            worker["proc"].kill()
            # One escalation per stall: the kill may take a poll cycle
            # to reap, and re-killing a dying pid is just noise.
            worker["last_seen"] = now

    def _check_deaths(self) -> None:
        # Snapshot: a respawn inside the loop grows the worker table.
        for wid, worker in list(self.workers.items()):
            if worker["state"] in ("dead", "exited"):
                continue
            if worker["proc"].is_alive():
                continue
            # What it sent before exiting still counts: bank it first, so
            # a reported unit is never re-run and a clean exit is no death.
            self._drain_pipe(worker)
            if worker["state"] == "exited":
                continue
            worker["state"] = "dead"
            self.recorder.record("worker", id=wid, pid=worker["pid"],
                                 event="death")
            logger.warning("pool worker %s (pid %s) died", wid, worker["pid"])
            # Recover the undispatched item from its private queue first
            # (no live worker competes on it), then the in-flight unit.
            while True:
                try:
                    item = worker["queue"].get_nowait()
                except (queue_mod.Empty, OSError):
                    break
                if item is None:
                    continue
                self._requeue(item[0], count_attempt=False)
            uid = worker["unit"]
            worker["unit"] = None
            if uid is not None:
                unit = self.units.get(uid)
                if unit is not None and unit["status"] in ("queued", "started"):
                    # A unit the worker never confirmed starting doesn't
                    # burn an attempt — the death wasn't its doing.
                    self._requeue(
                        uid,
                        err=f"worker {wid} died",
                        count_attempt=(unit["status"] == "started"),
                    )
            if not self._stopping() and self._work_remains():
                if self.respawns_left > 0:
                    self.respawns_left -= 1
                    self._spawn_worker()
                elif not any(
                    w["state"] in ("idle", "busy")
                    for w in self.workers.values()
                ):
                    raise PoolError(
                        "all pool workers died and the respawn budget is"
                        " exhausted; aborting"
                    )

    # -- dispatch / steal arbitration --------------------------------
    def _work_remains(self) -> bool:
        return any(
            u["status"] not in ("done", "stopped", "quarantined")
            for u in self.units.values()
        )

    def _stopping(self) -> bool:
        return self.initiated is not None

    @property
    def limits(self) -> RunLimits:
        """The run's live limits: its own record narrowed by the
        governor's tightenings."""
        return self.governor.enforced(self._limits)

    def _reserved(self) -> int:
        return sum(
            w["reserved"] for w in self.workers.values()
            if w["state"] == "busy"
        )

    def _dispatch(self) -> None:
        """Hand pending units to idle workers, each under its share of the
        live limits. Under a cap, each unit reserves an even part of the
        free cap (cap − confirmed − the in-flight reservations) over the
        idle workers, so confirmed plus reservations never exceeds the
        cap and no unit's reservation starves the other workers."""
        if self._stopping():
            return
        limits = self.limits
        idle = [
            wid for wid in self.worker_order
            if self.workers[wid]["state"] == "idle"
        ]
        for i, wid in enumerate(idle):
            if not self.pending:
                break
            share = None
            if limits.cap is not None:
                free = limits.cap - self.confirmed - self._reserved()
                if free <= 0:
                    break
                share = -(-free // (len(idle) - i))
            worker = self.workers[wid]
            uid = self.pending.popleft()
            unit = self.units[uid]
            worker["queue"].put((
                uid,
                unit["payload"],
                limits.share(share, self.options.workers),
                self.worker_ladder(),
            ))
            worker["reserved"] = share or 0
            unit["status"] = "queued"
            unit["worker"] = wid
            worker["state"] = "busy"
            worker["unit"] = uid
            self.recorder.record("unit", id=uid, worker=wid, event="dispatch")

    def _arbitrate_steal(self) -> None:
        if self._stopping() or self.pending:
            self.need_work.clear()
            return
        busy = any(w["state"] == "busy" for w in self.workers.values())
        idle = any(w["state"] == "idle" for w in self.workers.values())
        if busy and idle:
            self.need_work.set()
        else:
            self.need_work.clear()

    # -- budgets / observability --------------------------------------
    def _check_budgets(self) -> None:
        """Check the live limits against the live count: the cancel
        token, the deadline, the cap, and the memory ladder (with no
        computer: the memos it acts on live in the workers)."""
        if self._stopping():
            return
        reason = self.governor.check(
            self._limits, self._live_emitted(), self.gov_degradation, None
        )
        if reason is not None:
            self._initiate(reason)

    def _observe(self) -> None:
        if self.estimator is not None:
            total = len(self.units) or 1
            done = sum(
                1 for u in self.units.values() if u["status"] == "done"
            )
            inflight = sum(
                w.get("fraction", 0.0)
                for w in self.workers.values()
                if w["state"] == "busy"
            )
            self.estimator.update((done + inflight) / total)
        # The drive loop has no search frontier: no depth sample.
        self.obs.heartbeat.beat(self.snapshot, phase="pool")

    def merged_stats(self) -> dict:
        """Confirmed stats: prior (resumed) counters plus every worker's."""
        return merge_counters(
            self.prior_counters,
            *(agg["stats"] for agg in self.per_worker.values()),
        )

    def worker_ladder(self) -> list[str]:
        """The longest worker degradation ladder — the pool's ladder."""
        return max(
            (agg["degradation"] for agg in self.per_worker.values()),
            key=len,
            default=[],
        )

    def snapshot(self) -> RunSnapshot:
        """The pool's live state: merged totals, per-worker rows (the
        ``csce top`` worker table) and supervision health (the
        inspector's ``health`` command)."""
        rows = []
        now = time.perf_counter()
        ages = []
        for wid in self.worker_order:
            worker = self.workers[wid]
            agg = self._agg(wid)
            age = (
                round(now - worker["last_seen"], 2)
                if worker["state"] == "busy"
                else None
            )
            if age is not None:
                ages.append(age)
            rows.append(
                {
                    "worker": wid,
                    "pid": worker["pid"],
                    "state": worker["state"],
                    "unit": worker["unit"],
                    "units": agg["units"],
                    "emitted": agg["emitted"] + worker["live_emitted"],
                    "nodes": int(agg["stats"].get("nodes", 0))
                    + worker["live_nodes"],
                    "beats": worker["beats"],
                    "beat_age": age,
                }
            )
        return RunSnapshot(
            emitted=self._live_emitted(),
            nodes=self._total_nodes(),
            stats=self.merged_stats(),
            stop_reason=self.initiated,
            degradation=tuple(self.worker_ladder()),
            progress=(
                None if self.estimator is None else self.estimator.as_dict()
            ),
            workers=tuple(rows),
            health={
                "stall_timeout": self.stall_timeout,
                "stall_kills": self.stall_kills,
                "quarantined_units": len(self.quarantined),
                "respawns_left": self.respawns_left,
                "max_beat_age": max(ages, default=None),
            },
        )

    # -- drive loop ----------------------------------------------------
    def _drain_results(self, timeout: float = _POLL_INTERVAL) -> None:
        """Handle every message waiting on the open result pipes, first
        waiting up to ``timeout`` for one to become readable."""
        open_pipes = {
            w["results"]: w for w in self.workers.values()
            if w["results"] is not None
        }
        for conn in wait(list(open_pipes), timeout):
            self._drain_pipe(open_pipes[conn])

    def _drain_pipe(self, worker: dict) -> None:
        """Handle what one worker's pipe holds now; at end-of-file (the
        worker is gone; a message its death cut short goes with it)
        close the pipe."""
        conn = worker["results"]
        while conn is not None:
            try:
                if not conn.poll():
                    return
                msg = conn.recv()
            except (EOFError, OSError):
                conn.close()
                worker["results"] = conn = None
                return
            self._handle(msg)

    def _send_sentinels(self) -> None:
        if self.sentinels_sent:
            return
        self.sentinels_sent = True
        for worker in self.workers.values():
            if worker["state"] in ("idle", "busy"):
                try:
                    worker["queue"].put(None)
                except (OSError, ValueError):
                    pass

    def _workers_settled(self) -> bool:
        return all(
            w["state"] in ("dead", "exited")
            or not w["proc"].is_alive()
            for w in self.workers.values()
        )

    def run(self) -> tuple[str | None, float]:
        """Drive the pool to completion or a drained stop. Returns the
        merged stop reason and the execution wall time; the caller
        (:func:`execute_parallel`) packages the result."""
        started = time.perf_counter()
        self.governor.bind(self._limits)
        for _ in range(self.options.workers):
            self._spawn_worker()
        try:
            while True:
                self._drain_results()
                self._check_stalls()
                self._check_deaths()
                self._check_budgets()
                self._dispatch()
                self._arbitrate_steal()
                self._observe()
                if not self._stopping():
                    if not self._work_remains():
                        break
                else:
                    busy = any(
                        w["state"] == "busy" for w in self.workers.values()
                    )
                    if not busy or self._workers_settled():
                        break
                    if (
                        self.stop_started is not None
                        and time.perf_counter() - self.stop_started
                        > _DRAIN_GRACE
                    ):
                        logger.warning(
                            "pool drain grace expired; terminating"
                            " stragglers (their units stay resumable)"
                        )
                        break
        finally:
            self.need_work.clear()
            self._send_sentinels()
            # Keep reading while the workers exit: messages flushed before
            # exit still count (done/split sent but not yet processed),
            # and a worker never blocks on a full pipe. A pipe reaches
            # end-of-file when its worker has exited.
            deadline = time.perf_counter() + 5.0
            while time.perf_counter() < deadline and any(
                w["results"] is not None for w in self.workers.values()
            ):
                self._drain_results()
            for worker in self.workers.values():
                proc = worker["proc"]
                proc.join(timeout=max(0.1, deadline - time.perf_counter()))
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1.0)
                self._drain_pipe(worker)
                if worker["results"] is not None:
                    worker["results"].close()
                    worker["results"] = None
            self.governor.release()
        # Live readers (the inspector) keep the final per-worker rows and
        # health, which no due heartbeat may have caught.
        if self.obs.heartbeat.enabled:
            self.obs.heartbeat.publish(self.snapshot())
        return self.initiated, time.perf_counter() - started

    def unfinished_payloads(self) -> list[dict]:
        """State payloads of every unit that has not run to completion —
        what the pool checkpoint writes and resume re-enqueues.
        Quarantined units are excluded: their payloads live in
        ``quarantine-NNNN.json`` files, replayed by
        ``csce retry-quarantined`` (shipping them to resume as well
        would double count)."""
        return [
            unit["payload"]
            for uid, unit in sorted(self.units.items())
            if unit["status"] not in ("done", "quarantined")
        ]


def _new_agg() -> dict:
    """A shard's running aggregate: confirmed count and stats, units run,
    execute seconds, the stop reasons of its stopped units and the
    longest ladder any of its units climbed."""
    return {
        "emitted": 0,
        "stats": {},
        "units": 0,
        "execute_seconds": 0.0,
        "stop_reasons": [],
        "degradation": [],
    }


def _shard_table(
    prior_emitted: int, prior_counters: dict, workers: dict[str, dict]
) -> dict[str, dict]:
    """Shard tag → aggregate, in report order: a resumed pool's confirmed
    prefix first, as the synthetic ``checkpoint`` shard, then each
    worker's."""
    if not (prior_emitted or prior_counters):
        return dict(workers)
    prior = dict(_new_agg(), emitted=prior_emitted, stats=dict(prior_counters))
    return {"checkpoint": prior, **workers}


def _package_result(
    physical: PhysicalPlan,
    options: MatchOptions,
    shards: dict[str, dict],
    stop: str | None,
    elapsed: float,
    estimator: ProgressEstimator | None = None,
    quarantined: int = 0,
) -> MatchResult:
    """The pool's one :class:`MatchResult`, computed from its shard
    aggregates (see :func:`_shard_table`): count and stats are exact sums
    over the shards, the ladder is the longest shard ladder, and each
    shard reports the first stop reason of its units. Quarantine is the
    least severe stop: any budget or cancel reason outranks it (the
    quarantined count still rides on the result)."""
    plan = physical.logical
    obs = options.obs or NULL_OBS
    if not shards:
        # Nothing ran (empty root range / impossible plan): one zero shard
        # keeps the shards invariant "workers>1 → shards set".
        shards = {"w0": _new_agg()}
    aggs = list(shards.values())
    block: dict = {
        "count": len(aggs),
        "workers": list(shards),
        "counts": [agg["emitted"] for agg in aggs],
        "stop_reasons": [next(iter(agg["stop_reasons"]), None) for agg in aggs],
        "execute_seconds_sum": sum(agg["execute_seconds"] for agg in aggs),
    }
    if quarantined:
        block["quarantined_units"] = quarantined
        stop = stop or STOP_QUARANTINED
    stats = merge_counters(*(agg["stats"] for agg in aggs))
    if estimator is not None and stop is None:
        estimator.complete()
    if obs.enabled:
        obs.counters.merge(stats)
    return MatchResult(
        count=sum(block["counts"]),
        variant=plan.variant,
        embeddings=None,
        elapsed=elapsed,
        read_seconds=plan.task_clusters.read_seconds,
        plan_seconds=max(0.0, plan.plan_seconds),
        compile_seconds=physical.compile_seconds,
        stop_reason=stop,
        degradation=list(max((agg["degradation"] for agg in aggs), key=len)),
        progress=None if estimator is None else estimator.as_dict(),
        stats=stats,
        shards=block,
        quarantined_units=quarantined,
    )


def execute_parallel(
    physical: PhysicalPlan,
    options: MatchOptions,
    initial_units: list[dict] | None = None,
    prior_emitted: int = 0,
    prior_counters: dict | None = None,
    checkpoint: "PoolCheckpointDir | None" = None,
    on_event: Callable[[str, tuple], None] | None = None,
) -> MatchResult:
    """Execute a compiled counting plan across ``options.workers``
    processes with exact merged counts (the ``--workers N`` engine path).

    ``initial_units`` overrides the root-range decomposition (pool
    resume); ``prior_emitted``/``prior_counters`` fold a resumed
    checkpoint's confirmed progress into the totals; ``checkpoint`` (a
    :class:`~repro.engine.checkpoint.PoolCheckpointDir`) receives one
    shard checkpoint per unfinished unit when the pool stops early;
    ``on_event`` observes every parent-processed message (tests hook
    cancellation mid-steal through it).
    """
    if not options.count_only:
        raise PoolError(
            "workers > 1 requires count_only=True: embedding enumeration"
            " cannot stream across process boundaries — run with workers=1"
            " (or match_iter) to materialize embeddings"
        )
    if options.workers < 1:
        raise PoolError(f"workers must be positive: {options.workers}")
    obs = options.obs or NULL_OBS
    obs.recorder.record(
        "run_start",
        mode="pool",
        variant=physical.logical.variant.value,
        ops=len(physical.ops),
        workers=options.workers,
    )
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = None
    if initial_units is not None:
        units = list(initial_units)
    else:
        units = make_root_units(
            physical, options.workers * DEFAULT_UNITS_PER_WORKER, options.seed
        )
    if ctx is None or not physical.ops:
        # No fork on this platform (or a degenerate zero-op plan, which
        # only the sequential machine handles): same work units, one
        # process, same exact merge.
        return _execute_inline(
            physical, options,
            None if not physical.ops else units,
            prior_emitted, prior_counters,
        )
    driver = _PoolDriver(
        ctx,
        physical,
        options,
        units,
        prior_emitted=prior_emitted,
        prior_counters=prior_counters,
        checkpoint=checkpoint,
        on_event=on_event,
    )
    merged_stop, elapsed = driver.run() if units else (None, 0.0)
    _maybe_checkpoint(driver, options, checkpoint, merged_stop)
    result = _package_result(
        physical,
        options,
        _shard_table(
            driver.prior_emitted, driver.prior_counters, driver.per_worker
        ),
        merged_stop,
        elapsed,
        driver.estimator,
        len(driver.quarantined),
    )
    driver.recorder.record(
        "run_end",
        count=result.count,
        nodes=int(result.stats.get("nodes", 0)),
        stop_reason=result.stop_reason,
    )
    return result


def _maybe_checkpoint(
    driver: _PoolDriver,
    options: MatchOptions,
    checkpoint: "PoolCheckpointDir | None",
    merged_stop: str | None,
) -> None:
    # A stop with no unfinished unit still writes (an empty set): the
    # shards of an earlier stop are counted now and must not be resumed.
    if merged_stop is not None and checkpoint is not None:
        written = checkpoint.write(
            driver.physical,
            options,
            driver.limits,
            driver.unfinished_payloads(),
            driver.confirmed,
            driver.merged_stats(),
            merged_stop,
            list(driver.worker_ladder()),
        )
        driver.recorder.record(
            "checkpoint", path=checkpoint.directory,
            emitted=driver.confirmed, shards=len(written),
        )


def _execute_inline(
    physical: PhysicalPlan,
    options: MatchOptions,
    units: list[dict] | None,
    prior_emitted: int = 0,
    prior_counters: dict | None = None,
) -> MatchResult:
    """The pool in one process (no ``fork`` start method, a zero-op plan,
    or quarantine replay): the same work units through the same unit
    runner, one at a time, packaged as a one-worker pool result. With one
    unit in flight, each unit's share is the whole remaining cap."""
    started = time.perf_counter()
    governor = options.governor or ResourceGovernor()
    own = run_limits(options)
    governor.bind(own)
    agg = _new_agg()
    stop: str | None = None
    try:
        for payload in [None] if units is None else units:
            limits = governor.enforced(own)
            share = limits.share(
                None
                if limits.cap is None
                else limits.cap - prior_emitted - agg["emitted"],
                1,
            )
            unit_started = time.perf_counter()
            runtime = _run_unit(
                physical,
                options,
                None if payload is None else SearchState.from_payload(payload),
                share,
                governor.cancel,
                agg["degradation"],
                options.obs,
            )
            agg["emitted"] += runtime.emitted
            agg["execute_seconds"] += time.perf_counter() - unit_started
            agg["stats"] = merge_counters(agg["stats"], runtime.stats())
            agg["degradation"] = runtime.degradation
            stop = runtime.stop_reason
            if stop is not None:
                agg["stop_reasons"].append(stop)
                break
    finally:
        governor.release()
    return _package_result(
        physical,
        options,
        _shard_table(prior_emitted, prior_counters or {}, {"w0": agg}),
        stop,
        time.perf_counter() - started,
    )
