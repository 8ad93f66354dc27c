"""Observability for the CSCE pipeline: spans, counters, logs, heartbeats,
metrics, and profiling.

One :class:`Observation` bundles the instruments a run can carry:

* a :class:`~repro.obs.tracer.Tracer` collecting the nested span tree
  (``match`` → ``read`` / ``plan`` / ``execute`` → per-cluster reads);
* a :class:`~repro.obs.counters.CounterRegistry` aggregating run telemetry
  beyond ``MatchResult.stats`` (CCSR bytes/rows read, heartbeat totals);
* a :class:`~repro.obs.progress.Heartbeat` emitting periodic progress
  lines during long enumerations;
* a :class:`~repro.obs.profile.Profiler` (``profile=True``) adding
  per-span tracemalloc memory, a per-depth search profile, and the
  hot-cluster table;
* a :class:`~repro.obs.metrics.MetricsPump` (``metrics=...``) sampling
  the counters into typed metrics on the heartbeat tick and pushing them
  through Prometheus-textfile / JSONL exporters.

Passing ``obs=None`` (the default everywhere) selects the no-op
instruments — a single branch on the hot paths, so disabled observability
costs nothing measurable. Typical use::

    from repro.obs import Observation

    obs = Observation(heartbeat_interval=5.0, profile=True)
    result = engine.match(pattern, obs=obs)
    obs.finish()
    report = build_run_report(result, obs=obs, plan=...)

Structured logging is configured separately (it is process-global):
:func:`~repro.obs.logconfig.configure_logging`.
"""

from __future__ import annotations

from typing import Any

from repro.obs.catalog import KNOWN_COMMANDS, KNOWN_EVENTS, STAT_KEYS
from repro.obs.counters import (
    NULL_COUNTERS,
    CounterRegistry,
    NullCounterRegistry,
    assert_stat_keys,
    unified_stats,
)
from repro.obs.explain import build_explain, estimate_candidates, format_explain
from repro.obs.inspect import (
    DEFAULT_INSPECT_INTERVAL,
    InspectorClient,
    InspectorServer,
    MatchInspector,
    inspect_call,
    render_top,
    resolve_endpoint,
)
from repro.obs.logconfig import JsonFormatter, configure_logging, resolve_level
from repro.obs.merge import WorkerSnapshot, merge_counters
from repro.obs.metrics import (
    NULL_METRICS,
    JsonlTimeSeriesExporter,
    MetricsPump,
    MetricsRegistry,
    NullMetricsPump,
    PrometheusTextfileExporter,
)
from repro.obs.profile import (
    NULL_PROFILE,
    MemoryTracer,
    NullProfiler,
    Profiler,
    SearchDepthProfile,
)
from repro.obs.progress import (
    NULL_HEARTBEAT,
    Heartbeat,
    NullHeartbeat,
    ProgressEstimator,
    RunSnapshot,
    search_state_fraction,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    FlightRecorder,
    NullFlightRecorder,
    RecordedEvent,
    perfetto_trace,
    write_perfetto,
)
from repro.obs.report import (
    RUN_REPORT_VERSION,
    build_run_report,
    format_run_report,
    load_run_reports,
    plan_summary,
    robustness_problems,
    schema_problems,
    validate_run_report,
    write_run_report,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.wire import (
    decode_frame,
    decode_snapshot,
    encode_frame,
    encode_snapshot,
)


class Observation:
    """Bundle of tracer + counters + heartbeat + profiler + metrics +
    flight recorder.

    All instruments default to live (tracer/counters/recorder) or disabled
    (heartbeat/profiler/metrics); pass ``trace=False`` to skip span
    collection, ``profile=True`` (or a :class:`Profiler`) to enable the
    profiling hooks, ``metrics=MetricsPump(...)`` to stream metrics,
    ``record=False`` to drop the flight recorder. When both profiling and
    tracing are on, the tracer is a :class:`MemoryTracer` so every span
    carries memory attributes.
    """

    __slots__ = (
        "tracer",
        "counters",
        "heartbeat",
        "profile",
        "metrics",
        "recorder",
    )

    enabled = True

    def __init__(
        self,
        tracer: Tracer | NullTracer | None = None,
        counters: CounterRegistry | NullCounterRegistry | None = None,
        heartbeat: Heartbeat | NullHeartbeat | None = None,
        trace: bool = True,
        heartbeat_interval: float | None = None,
        profile: bool | Profiler = False,
        metrics: MetricsPump | NullMetricsPump | None = None,
        recorder: FlightRecorder | NullFlightRecorder | None = None,
        record: bool = True,
    ) -> None:
        if profile is True:
            profile = Profiler()
        elif not profile:
            profile = NULL_PROFILE
        if tracer is None:
            if trace and profile.enabled:
                tracer = MemoryTracer(profile)
            elif trace:
                tracer = Tracer()
            else:
                tracer = NULL_TRACER
        if counters is None:
            counters = CounterRegistry()
        if heartbeat is None:
            heartbeat = (
                Heartbeat(heartbeat_interval)
                if heartbeat_interval is not None
                else NULL_HEARTBEAT
            )
        if recorder is None:
            recorder = FlightRecorder() if record else NULL_RECORDER
        self.tracer = tracer
        self.counters = counters
        self.heartbeat = heartbeat
        self.profile = profile
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.recorder = recorder
        if self.metrics.enabled and heartbeat.enabled:
            # Sample live metrics at the heartbeat cadence — the hot loops
            # pay nothing beyond the tick they already pay for.
            heartbeat.add_listener(
                lambda snapshot: self.metrics.sample(self, snapshot.progress)
            )

    def finish(self, result: Any = None) -> None:
        """Close out the run: final metrics sample, profiler teardown."""
        if self.metrics.enabled:
            self.metrics.finalize(result, obs=self)
        self.profile.finish()

    def __repr__(self) -> str:
        return (
            f"<Observation trace={self.tracer.enabled}"
            f" heartbeat={self.heartbeat.enabled}"
            f" profile={self.profile.enabled}"
            f" metrics={self.metrics.enabled}"
            f" recorder={self.recorder.enabled}>"
        )


class _NullObservation:
    """The disabled bundle: every instrument is its no-op variant."""

    __slots__ = ()

    enabled = False
    tracer = NULL_TRACER
    counters = NULL_COUNTERS
    heartbeat = NULL_HEARTBEAT
    profile = NULL_PROFILE
    metrics = NULL_METRICS
    recorder = NULL_RECORDER

    def finish(self, result: Any = None) -> None:
        pass


NULL_OBS = _NullObservation()


__all__ = [
    "Observation",
    "NULL_OBS",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "MemoryTracer",
    "CounterRegistry",
    "NullCounterRegistry",
    "NULL_COUNTERS",
    "STAT_KEYS",
    "unified_stats",
    "assert_stat_keys",
    "Heartbeat",
    "NullHeartbeat",
    "NULL_HEARTBEAT",
    "ProgressEstimator",
    "RunSnapshot",
    "search_state_fraction",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_RECORDER",
    "KNOWN_EVENTS",
    "RecordedEvent",
    "perfetto_trace",
    "write_perfetto",
    "WorkerSnapshot",
    "merge_counters",
    "Profiler",
    "NullProfiler",
    "NULL_PROFILE",
    "SearchDepthProfile",
    "MetricsRegistry",
    "MetricsPump",
    "NullMetricsPump",
    "NULL_METRICS",
    "PrometheusTextfileExporter",
    "JsonlTimeSeriesExporter",
    "configure_logging",
    "resolve_level",
    "JsonFormatter",
    "RUN_REPORT_VERSION",
    "build_run_report",
    "format_run_report",
    "plan_summary",
    "schema_problems",
    "validate_run_report",
    "robustness_problems",
    "write_run_report",
    "load_run_reports",
    "build_explain",
    "format_explain",
    "estimate_candidates",
    "KNOWN_COMMANDS",
    "MatchInspector",
    "InspectorServer",
    "InspectorClient",
    "DEFAULT_INSPECT_INTERVAL",
    "inspect_call",
    "render_top",
    "resolve_endpoint",
    "encode_frame",
    "decode_frame",
    "encode_snapshot",
    "decode_snapshot",
]
