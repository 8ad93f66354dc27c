"""The instrument catalog: every closed vocabulary of a run, declared once.

A run is read off strings: the stats keys of ``MatchResult.stats``, the
counter and metric names of the exports, the flight recorder's event
names, the inspector's commands, the stop reasons and the governor's
degradation ladder. Each vocabulary is declared here and nowhere else;
the engine, the run-report validator, the CLI and the exporters import
it from this module.

The ``catalog`` reprolint pass (``tools/reprolint/passes/catalog.py``)
loads this file and checks every string literal that flows into one of
these vocabularies against it, so a new name must be added here before
the code using it can land, and a typo fails lint instead of silently
opening a separate series. The module imports nothing, so the pass can
load it without importing the package.
"""

#: Canonical ``MatchResult.stats`` keys, in emission order. Every
#: execution path (enumeration, capped and factorized counting, the
#: pool, the baselines) emits exactly this key set, so consumers never
#: branch on which path produced a result.
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

#: The stats keys :class:`~repro.engine.candidates.CandidateStats`
#: keeps as int attributes.
CANDIDATE_STAT_KEYS: tuple[str, ...] = STAT_KEYS[1:6]

#: The stats keys the executor's ``Runtime`` keeps as int attributes. A
#: checkpoint carries these and :data:`CANDIDATE_STAT_KEYS`; the other
#: two belong to the factorized counter, which never checkpoints.
RUNTIME_STAT_KEYS: tuple[str, ...] = (STAT_KEYS[0], *STAT_KEYS[6:9])

#: Registry counter names bumped outside the unified stats fold: the
#: dotted subsystem counters and the governor's degradation counts.
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

#: Metric names created by literal. The dotted counter names the
#: metrics pump folds in from the run registry are dynamic and not
#: listed.
KNOWN_METRICS: tuple[str, ...] = (
    "heartbeat_beats",
    "read_seconds",
    "plan_seconds",
    "execute_seconds",
    "total_seconds",
    "throughput_embeddings_per_second",
    "embeddings",
    "timed_out",
    "progress_percent",
    "eta_seconds",
    "recorder_events",
)

#: Flight-recorder event names, which post-mortem tooling matches on.
KNOWN_EVENTS: tuple[str, ...] = (
    "run_start",  # a run/stream opened (mode, op count)
    "tick",       # periodic tick sample (nodes, emitted, depth, phase)
    "degrade",    # governor degradation rung (rung name, stage)
    "checkpoint", # a resumable checkpoint was written (path)
    "fault",      # an injected fault site fired (site, context)
    "stop",       # a cooperative stop (reason, nodes, emitted)
    "run_end",    # the run/stream finished (count, stop reason)
    "unit",       # a pool work unit changed state (id, worker, event)
    "steal",      # a work-steal split (victim worker, unit, new unit)
    "worker",     # a pool worker lifecycle event (id, pid, event)
    "worker_stall",  # the stall watchdog escalated (worker, pid, unit, age)
    "quarantine", # a poison unit was quarantined (unit, attempts, path)
)

#: Every command the inspector serves, in documentation order, with its
#: one-line help (``csce inspect --help`` renders from here).
#: ``MatchInspector.HANDLERS`` maps exactly these names.
KNOWN_COMMANDS: dict[str, str] = {
    "status": "run state, worker identity, embeddings/nodes, stop flags",
    "progress": "monotone percent-complete, ETA, depth-frontier sample",
    "stats": "the live WorkerSnapshot (unified stats + counters)",
    "counters": "alias of stats (same WorkerSnapshot payload)",
    "recorder": "flight-recorder ring dump (args: limit=N for the tail)",
    "health": "pool supervision state: stall watchdog, per-worker beat"
              " ages, quarantined units, respawn budget",
    "checkpoint-now": "write a resumable checkpoint at the next tick"
                      " (args: path=..., timeout=SECONDS)",
    "budget": "tighten deadline/embedding/memory caps (args: time_limit=,"
              " max_embeddings=, memory_limit_mb=)",
    "cancel": "trip the cancel token; the run stops with"
              " stop_reason=cancelled (args: reason=...)",
}

#: Every valid non-``None`` ``stop_reason``: why a run ended before
#: exhausting the search space.
STOP_REASONS: tuple[str, ...] = (
    "time_limit",
    "embedding_limit",
    "memory_limit",
    "cancelled",
    "quarantined",
)

#: Stop reasons that leave the frame stack intact and so support
#: checkpoint/resume. A quarantined stop is not one: its residue lives
#: in quarantine files that ``csce retry-quarantined`` replays.
RESUMABLE_STOP_REASONS: tuple[str, ...] = STOP_REASONS[:4]

#: The governor's degradation ladder, in escalation order: evict half
#: the SCE memo, switch the memo off, suspend the run.
DEGRADATION_LADDER: tuple[str, ...] = ("evict_memo", "disable_memo", "suspend")


def ladder_stage(degradation: list[str]) -> int:
    """The ladder position a run's ``degradation`` events put it at: the
    index of the rung the governor climbs on the next memory breach (0
    evicts, 1 disables the memo, 2 suspends). The inspector reports it
    as ``gov_stage``."""
    evict, disable, _ = DEGRADATION_LADDER
    if disable in degradation:
        return 2
    return 1 if evict in degradation else 0
