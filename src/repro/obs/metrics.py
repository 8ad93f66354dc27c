"""Typed metrics registry and exporters (the live half of the observatory).

PR 1's :class:`~repro.obs.counters.CounterRegistry` and span tree describe
*one finished run*. This module turns them into **time series**: a
:class:`MetricsRegistry` of typed gauges / counters / histograms, sampled
periodically (the heartbeat tick, see :class:`MetricsPump`) and pushed
through exporters so long-running ``match`` / ``continuous`` workloads
stream live metrics instead of only a terminal report.

Two exporters cover the common deployment shapes:

* :class:`PrometheusTextfileExporter` — the node-exporter *textfile
  collector* convention: the full exposition text is written atomically
  (tmp + rename) so a scraper never reads a torn file;
* :class:`JsonlTimeSeriesExporter` — one JSON object per sample appended
  to a ``.jsonl`` stream, for offline plotting and the bench trajectory.

Metric names follow Prometheus conventions (``repro_`` namespace,
``_total`` suffix on monotonic counters); the dotted counter names of the
run registry (``ccsr.bytes_read``) are mapped automatically
(``repro_ccsr_bytes_read_total``). Constant labels (engine, dataset) are
attached registry-wide — one matcher run is one label set.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

GAUGE = "gauge"
COUNTER = "counter"
HISTOGRAM = "histogram"

_NAMESPACE = "repro"
_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")

#: Default histogram buckets (seconds-ish scale; powers of 4 keep it short).
DEFAULT_BUCKETS = (0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384)

def metric_name(raw: str, kind: str = GAUGE) -> str:
    """Normalize a registry counter name to a Prometheus metric name.

    ``ccsr.bytes_read`` -> ``repro_ccsr_bytes_read_total`` (counters get the
    ``_total`` suffix exactly once).
    """
    name = _NAME_RE.sub("_", raw.strip()).strip("_").lower()
    if not name.startswith(_NAMESPACE + "_"):
        name = f"{_NAMESPACE}_{name}"
    if kind == COUNTER and not name.endswith("_total"):
        name = f"{name}_total"
    return name


@dataclass
class Metric:
    """One named time series: type, help text, and the current value(s)."""

    name: str
    kind: str
    help: str = ""
    value: float = 0.0
    # Histogram state (unused for gauges/counters).
    buckets: tuple[float, ...] = ()
    bucket_counts: list[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0

    def set(self, value: float) -> None:
        if self.kind == COUNTER and value < self.value:
            # Counters are monotonic; a lower sample means a new run was
            # folded in — keep the running maximum rather than regressing.
            return
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def observe(self, value: float) -> None:
        if self.kind != HISTOGRAM:
            raise ValueError(f"observe() on non-histogram metric {self.name!r}")
        self.sum += value
        self.count += 1
        # Buckets are stored cumulatively (Prometheus ``le`` semantics):
        # every bucket whose bound admits the value is incremented.
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1

    def as_dict(self) -> dict:
        if self.kind == HISTOGRAM:
            return {
                "kind": self.kind,
                "sum": self.sum,
                "count": self.count,
                "buckets": {
                    str(b): c for b, c in zip(self.buckets, self.bucket_counts)
                },
            }
        return {"kind": self.kind, "value": self.value}


class MetricsRegistry:
    """Registry of typed metrics with one constant label set.

    Instruments are created on first use (``gauge`` / ``counter`` /
    ``histogram`` are get-or-create), so samplers can write without a
    declaration step. Not thread-safe by design: one registry belongs to
    one run, mirroring :class:`~repro.obs.counters.CounterRegistry`.
    """

    def __init__(self, labels: Mapping[str, str] | None = None) -> None:
        self.labels: dict[str, str] = dict(labels or {})
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------------
    def gauge(self, name: str, help: str = "") -> Metric:
        return self._get_or_create(metric_name(name, GAUGE), GAUGE, help)

    def counter(self, name: str, help: str = "") -> Metric:
        return self._get_or_create(metric_name(name, COUNTER), COUNTER, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Metric:
        metric = self._get_or_create(metric_name(name, GAUGE), HISTOGRAM, help)
        if not metric.buckets:
            metric.buckets = tuple(buckets)
            metric.bucket_counts = [0] * len(metric.buckets)
        return metric

    def _get_or_create(self, name: str, kind: str, help: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Metric(name=name, kind=kind, help=help)
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        if help and not metric.help:
            metric.help = help
        return metric

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    # ------------------------------------------------------------------
    def sample_counters(self, snapshot: Mapping[str, float]) -> None:
        """Fold a :meth:`CounterRegistry.snapshot` into counter metrics."""
        for raw, value in snapshot.items():
            if isinstance(value, (int, float)) and math.isfinite(value):
                self.counter(raw).set(value)

    def snapshot(self) -> dict[str, dict]:
        """All metrics as JSON-ready dicts, keyed by exported name."""
        return {m.name: m.as_dict() for m in self._metrics.values()}

    def flat(self) -> dict[str, float]:
        """Scalar view (histograms contribute ``_sum`` and ``_count``)."""
        out: dict[str, float] = {}
        for m in self._metrics.values():
            if m.kind == HISTOGRAM:
                out[f"{m.name}_sum"] = m.sum
                out[f"{m.name}_count"] = m.count
            else:
                out[m.name] = m.value
        return out

    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Render the Prometheus text exposition format (version 0.0.4)."""
        label_str = ""
        if self.labels:
            pairs = ",".join(
                f'{k}="{_escape_label(v)}"' for k, v in sorted(self.labels.items())
            )
            label_str = "{" + pairs + "}"
        lines: list[str] = []
        for metric in sorted(self._metrics.values(), key=lambda m: m.name):
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if metric.kind == HISTOGRAM:
                for bound, count in zip(metric.buckets, metric.bucket_counts):
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_with_label(self.labels, 'le', _format_bound(bound))}"
                        f" {count}"
                    )
                lines.append(
                    f"{metric.name}_bucket"
                    f"{_with_label(self.labels, 'le', '+Inf')} {metric.count}"
                )
                lines.append(f"{metric.name}_sum{label_str} {_num(metric.sum)}")
                lines.append(f"{metric.name}_count{label_str} {metric.count}")
            else:
                lines.append(f"{metric.name}{label_str} {_num(metric.value)}")
        return "\n".join(lines) + "\n"


def _escape_label(value: str) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _with_label(labels: Mapping[str, str], key: str, value: str) -> str:
    pairs = dict(labels)
    pairs[key] = value
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in sorted(pairs.items()))
    return "{" + body + "}"


def _format_bound(bound: float) -> str:
    return f"{bound:g}"


def _num(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class PrometheusTextfileExporter:
    """Write the full exposition to a file, atomically (tmp + rename).

    The node-exporter textfile collector (and anything tailing the file)
    then always reads a complete sample. Repeated exports overwrite.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = str(path)
        self.exports = 0

    def export(self, registry: MetricsRegistry, ts: float | None = None) -> None:
        text = registry.to_prometheus()
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, self.path)
        self.exports += 1


class JsonlTimeSeriesExporter:
    """Append one ``{"ts": ..., "metrics": {...}}`` JSON line per sample."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = str(path)
        self.exports = 0

    def export(self, registry: MetricsRegistry, ts: float | None = None) -> None:
        sample = {
            "ts": round(time.time() if ts is None else ts, 6),
            "labels": dict(registry.labels),
            "metrics": registry.flat(),
        }
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(sample, default=str) + "\n")
        self.exports += 1


# ----------------------------------------------------------------------
# The pump: observation -> registry -> exporters, on the heartbeat tick
# ----------------------------------------------------------------------
class MetricsPump:
    """Samples an :class:`~repro.obs.Observation` into metrics and exports.

    Attach to an observation (``Observation(metrics=MetricsPump(...))``)
    and the heartbeat drives :meth:`sample` at its emission cadence — the
    hot loops pay nothing beyond the tick they already pay for. Call
    :meth:`finalize` once after the run to export the terminal state
    (phase timings, throughput) even when no heartbeat ever fired.
    """

    enabled = True

    def __init__(
        self,
        exporters: list | None = None,
        labels: Mapping[str, str] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry(labels)
        self.exporters = list(exporters or [])
        self.samples = 0

    def sample(
        self,
        obs: Any = None,
        progress: Mapping[str, Any] | None = None,
        ts: float | None = None,
    ) -> None:
        """Fold the observation's counters and a run's ``progress`` block
        (its heartbeat snapshot's, or its result's) in, and push to every
        exporter."""
        if obs is not None:
            if obs.counters.enabled:
                self.registry.sample_counters(obs.counters.snapshot())
            if obs.heartbeat.enabled:
                self.registry.gauge(
                    "heartbeat_beats", "heartbeat lines emitted"
                ).set(obs.heartbeat.beats)
        if progress is not None:
            self.registry.gauge(
                "progress_percent",
                "monotone percent-complete of the current search",
            ).set(progress["percent"])
            eta = progress.get("eta_seconds")
            if eta is not None:
                self.registry.gauge(
                    "eta_seconds",
                    "smoothed estimated seconds to completion",
                ).set(eta)
        if obs is not None and obs.recorder.enabled:
            self.registry.gauge(
                "recorder_events", "flight-recorder events recorded"
            ).set(obs.recorder.recorded)
        self.samples += 1
        for exporter in self.exporters:
            exporter.export(self.registry, ts=ts)

    def finalize(self, result: Any = None, obs: Any = None) -> None:
        """Export the terminal sample, adding the run's reporting fields."""
        progress = None
        if result is not None:
            self.registry.gauge(
                "read_seconds", "ReadCSR phase time of the last run"
            ).set(result.read_seconds)
            self.registry.gauge(
                "plan_seconds", "plan-optimization phase time of the last run"
            ).set(result.plan_seconds)
            self.registry.gauge(
                "execute_seconds", "execution phase time of the last run"
            ).set(result.elapsed)
            self.registry.gauge(
                "total_seconds", "read + optimize + execute of the last run"
            ).set(result.total_seconds)
            self.registry.gauge(
                "throughput_embeddings_per_second",
                "embeddings per execute-second of the last run",
            ).set(result.throughput)
            self.registry.counter(
                "embeddings", "embeddings found"
            ).set(result.count)
            self.registry.gauge(
                "timed_out", "1 when the last run hit its time limit"
            ).set(1.0 if result.timed_out else 0.0)
            progress = getattr(result, "progress", None)
        self.sample(obs, progress)


class NullMetricsPump:
    """Disabled pump: sampling is a no-op."""

    enabled = False
    samples = 0
    exporters: list = []

    def sample(
        self,
        obs: Any = None,
        progress: Mapping[str, Any] | None = None,
        ts: float | None = None,
    ) -> None:
        pass

    def finalize(self, result: Any = None, obs: Any = None) -> None:
        pass


NULL_METRICS = NullMetricsPump()
