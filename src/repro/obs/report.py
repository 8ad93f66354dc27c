"""Versioned run-reports: serialize one matching run for later analysis.

A run-report is a single JSON document capturing everything the paper's
evaluation reads off a run: the per-phase time breakdown (read / optimize /
execute — the paper's total-time definition, Figs. 6 and 11), the unified
counter set (:data:`repro.obs.catalog.STAT_KEYS` plus CCSR read
telemetry), the completed span tree, the plan summary with its
candidate-order rationale, and engine/graph/pattern identity. ``repro
report PATH`` pretty-prints a saved report; :func:`validate_run_report` is
the schema gate CI's smoke job runs.

Reports append cleanly to ``.jsonl`` files (one run per line) so bench
sweeps can stream them.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.errors import FormatError
from repro.obs.catalog import DEGRADATION_LADDER, KNOWN_EVENTS, STOP_REASONS

RUN_REPORT_FORMAT = "repro-run-report"
RUN_REPORT_VERSION = 1

#: Required top-level fields and their types (the lightweight schema).
_SCHEMA: dict[str, type | tuple] = {
    "format": str,
    "version": int,
    "engine": str,
    "variant": str,
    "count": int,
    "truncated": bool,
    "timed_out": bool,
    "timings": dict,
    "counters": dict,
    "spans": list,
}

_TIMING_KEYS = ("read_seconds", "plan_seconds", "execute_seconds", "total_seconds")

#: Supervision knobs the ``config`` block may stamp, with their JSON
#: types (``None`` is always allowed — the knob was left at "unset").
_CONFIG_KNOBS: dict[str, tuple] = {
    "workers": (int,),
    "stall_timeout": (int, float),
    "max_respawns": (int,),
    "max_unit_attempts": (int,),
}

#: Declared wire-format manifest for the run-report document, gated by
#: the ``wire_schema`` reprolint pass: the encoder must write exactly the
#: declared keys (stamping format/version), the decoders may read only
#: declared keys, and a ``keys`` change without a version bump fails
#: ``reprolint --diff``. See docs/static-analysis.md.
WIRE_MANIFESTS: dict[str, dict] = {
    "run-report": {
        "format": RUN_REPORT_FORMAT,
        "version": RUN_REPORT_VERSION,
        "keys": (
            "format",
            "version",
            "engine",
            "variant",
            "count",
            "truncated",
            "timed_out",
            "stop_reason",
            "degradation",
            "timings",
            "throughput",
            "counters",
            "spans",
            "progress",
            "shards",
            "recorder",
            "profile",
            "plan",
            "pattern",
            "graph",
            "dataset",
            "checkpoint",
            "config",
            "extra",
        ),
        "encoders": ("build_run_report:report",),
        "decoders": (
            "validate_run_report",
            "robustness_problems",
            "_config_problems",
            "_recorder_problems",
            "_progress_problems",
            "_shards_problems",
            "format_run_report",
        ),
    },
}


def schema_problems(
    doc: object, schema: dict[str, type | tuple], label: str = "document"
) -> list[str]:
    """Field-presence/type check shared by run-report and bench-history
    validation; returns the list of problems (empty when clean)."""
    if not isinstance(doc, dict):
        return [f"{label} must be a JSON object"]
    problems: list[str] = []
    for field, expected in schema.items():
        if field not in doc:
            problems.append(f"missing field {field!r}")
        elif not isinstance(doc[field], expected):
            problems.append(
                f"field {field!r} has type {type(doc[field]).__name__}"
            )
    return problems


def build_run_report(
    result: Any,
    engine: str = "CSCE",
    obs: Any = None,
    plan: Any = None,
    graph: Any = None,
    pattern: Any = None,
    dataset: str | None = None,
    extra: dict | None = None,
    checkpoint: dict | None = None,
    config: dict | None = None,
) -> dict:
    """Assemble a run-report dict from a finished ``MatchResult``.

    ``obs`` contributes the span tree and any registry counters beyond
    ``result.stats`` (CCSR read telemetry, heartbeat totals); ``plan``,
    ``graph`` (a ``Graph`` or ``CCSRStore``), and ``pattern`` add identity
    blocks when available. ``checkpoint`` (a ``{"path": ..., "written":
    bool}`` block) records that the run suspended to a resumable
    checkpoint. ``config`` stamps the run's supervision knobs (workers,
    stall_timeout, max_respawns, max_unit_attempts — see
    :data:`_CONFIG_KNOBS`) so a report is reproducible without the
    original command line. The robustness fields ``stop_reason`` and
    ``degradation`` are always present (``None`` / empty for complete
    ungoverned runs).
    """
    counters = dict(result.stats)
    spans: list[dict] = []
    if obs is not None:
        registry = getattr(obs, "counters", None)
        if registry is not None and registry.enabled:
            merged = registry.snapshot()
            # Registry totals win where present; stats fills the gaps.
            counters = {**counters, **merged}
        tracer = getattr(obs, "tracer", None)
        if tracer is not None and tracer.enabled:
            spans = tracer.to_list()
        heartbeat = getattr(obs, "heartbeat", None)
        if heartbeat is not None and heartbeat.enabled:
            counters["heartbeats"] = heartbeat.beats
    profiler = getattr(obs, "profile", None) if obs is not None else None
    recorder = getattr(obs, "recorder", None) if obs is not None else None

    report: dict[str, Any] = {
        "format": RUN_REPORT_FORMAT,
        "version": RUN_REPORT_VERSION,
        "engine": engine,
        "variant": str(result.variant),
        "count": int(result.count),
        "truncated": bool(result.truncated),
        "timed_out": bool(result.timed_out),
        "stop_reason": getattr(result, "stop_reason", None),
        "degradation": list(getattr(result, "degradation", []) or []),
        "timings": {
            "read_seconds": result.read_seconds,
            "plan_seconds": result.plan_seconds,
            "execute_seconds": result.elapsed,
            "total_seconds": result.total_seconds,
        },
        "throughput": result.throughput,
        "counters": counters,
        "spans": spans,
    }
    progress = getattr(result, "progress", None)
    if progress:
        report["progress"] = dict(progress)
    shards = getattr(result, "shards", None)
    if shards:
        # Parallel runs carry the merge_run_reports shards block; its
        # per-worker counts must sum exactly to `count`
        # (validate_run_report checks this).
        report["shards"] = dict(shards)
    if recorder is not None and recorder.enabled and recorder.recorded:
        # The flight-recorder tail rides in every instrumented report, so
        # a stopped/faulted run's post-mortem is one document.
        report["recorder"] = recorder.as_dict()
    if profiler is not None and profiler.enabled:
        order = list(plan.order) if plan is not None else None
        report["profile"] = profiler.as_dict(order)
    if plan is not None:
        report["plan"] = plan_summary(plan)
    if pattern is not None:
        report["pattern"] = {
            "name": getattr(pattern, "name", ""),
            "num_vertices": pattern.num_vertices,
            "num_edges": pattern.num_edges,
        }
    if graph is not None:
        block = {
            "name": getattr(graph, "name", ""),
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
        }
        num_clusters = getattr(graph, "num_clusters", None)
        if num_clusters is not None:
            block["num_clusters"] = num_clusters
        report["graph"] = block
    if dataset:
        report["dataset"] = dataset
    if checkpoint:
        report["checkpoint"] = dict(checkpoint)
    if config:
        report["config"] = dict(config)
    if extra:
        report["extra"] = dict(extra)
    return report


def plan_summary(plan: Any) -> dict:
    """The plan block of a run-report (order, planner, cluster usage)."""
    task = plan.task_clusters
    summary = {
        "planner": plan.planner_name,
        "variant": str(plan.variant),
        "order": list(plan.order),
        "num_vertices": plan.num_vertices,
        "dag_edges": plan.dag.num_edges,
        "clusters_used": task.num_clusters,
        "bytes_read": task.bytes_read,
        "negation_pairs": len(task.negation_checks),
        "plan_seconds": plan.plan_seconds,
    }
    rationale = getattr(plan, "order_rationale", None)
    if rationale:
        summary["order_rationale"] = list(rationale)
    return summary


# ----------------------------------------------------------------------
# Validation / IO
# ----------------------------------------------------------------------
def validate_run_report(report: dict) -> None:
    """Raise :class:`FormatError` unless ``report`` is a valid v1 report."""
    problems = schema_problems(report, _SCHEMA, label="run-report")
    if not problems:
        if report["format"] != RUN_REPORT_FORMAT:
            problems.append(f"format is {report['format']!r}")
        if report["version"] != RUN_REPORT_VERSION:
            problems.append(f"unsupported version {report['version']!r}")
        for key in _TIMING_KEYS:
            value = report["timings"].get(key)
            if not isinstance(value, (int, float)):
                problems.append(f"timings.{key} missing or non-numeric")
        for name, value in report["counters"].items():
            if not isinstance(value, (int, float)):
                problems.append(f"counter {name!r} is non-numeric")
    if problems:
        raise FormatError("invalid run-report: " + "; ".join(problems))


def robustness_problems(report: dict) -> list[str]:
    """Validate the robustness fields of a run-report (stop reason,
    degradation ladder, checkpoint block); returns the problem list.

    Separate from :func:`validate_run_report` because old reports predate
    these fields: a missing field is fine (legacy report), but a present
    field with a nonsense value is not. ``repro report --validate`` exits 2
    when this returns problems, mirroring the bench-history gate.
    """
    if not isinstance(report, dict):
        return ["run-report must be a JSON object"]
    problems: list[str] = []
    if "stop_reason" in report:
        stop = report["stop_reason"]
        if stop is not None and stop not in STOP_REASONS:
            problems.append(
                f"stop_reason {stop!r} is not one of {list(STOP_REASONS)}"
            )
    if "degradation" in report:
        ladder = report["degradation"]
        if not isinstance(ladder, list):
            problems.append("degradation must be a list")
        else:
            for event in ladder:
                if event not in DEGRADATION_LADDER:
                    problems.append(
                        f"degradation event {event!r} is not one of"
                        f" {list(DEGRADATION_LADDER)}"
                    )
            known = [e for e in ladder if e in DEGRADATION_LADDER]
            ranks = [DEGRADATION_LADDER.index(e) for e in known]
            if ranks != sorted(ranks) or len(set(ranks)) != len(ranks):
                problems.append(
                    "degradation events out of ladder order"
                    f" (expected subsequence of {list(DEGRADATION_LADDER)})"
                )
    if "checkpoint" in report:
        block = report["checkpoint"]
        if not isinstance(block, dict):
            problems.append("checkpoint must be an object")
        else:
            if not isinstance(block.get("path"), str) or not block.get("path"):
                problems.append("checkpoint.path missing or not a string")
            if "written" in block and not isinstance(block["written"], bool):
                problems.append("checkpoint.written must be a boolean")
            on_demand = block.get("on_demand")
            if on_demand is not None and (
                not isinstance(on_demand, int) or isinstance(on_demand, bool)
            ):
                problems.append("checkpoint.on_demand must be an integer")
            if (
                block.get("written")
                and report.get("stop_reason") is None
                and not on_demand
            ):
                problems.append(
                    "checkpoint written but stop_reason is null"
                    " (suspend-time checkpoints only exist for suspended"
                    " runs; on-demand ones must say so in"
                    " checkpoint.on_demand)"
                )
    problems.extend(_recorder_problems(report))
    problems.extend(_progress_problems(report))
    problems.extend(_shards_problems(report))
    problems.extend(_config_problems(report))
    return problems


def _config_problems(report: dict) -> list[str]:
    if "config" not in report:
        return []
    block = report["config"]
    if not isinstance(block, dict):
        return ["config must be an object"]
    problems: list[str] = []
    for knob, types in _CONFIG_KNOBS.items():
        if knob not in block:
            continue
        value = block[knob]
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, types):
            problems.append(
                f"config.{knob} must be null or"
                f" {'/'.join(t.__name__ for t in types)}"
            )
    return problems


def _recorder_problems(report: dict) -> list[str]:
    if "recorder" not in report:
        return []
    block = report["recorder"]
    if not isinstance(block, dict):
        return ["recorder must be an object"]
    problems: list[str] = []
    for key in ("recorded", "dropped"):
        if key in block and (
            not isinstance(block[key], int) or isinstance(block[key], bool)
            or block[key] < 0
        ):
            problems.append(f"recorder.{key} must be a non-negative integer")
    events = block.get("events")
    if not isinstance(events, list):
        problems.append("recorder.events missing or not a list")
        return problems
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"recorder.events[{i}] is not an object")
            continue
        name = event.get("name")
        if name not in KNOWN_EVENTS:
            problems.append(
                f"recorder.events[{i}].name {name!r} is not one of"
                f" {list(KNOWN_EVENTS)}"
            )
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"recorder.events[{i}].ts missing or non-numeric")
    return problems


def _progress_problems(report: dict) -> list[str]:
    if "progress" not in report:
        return []
    block = report["progress"]
    if not isinstance(block, dict):
        return ["progress must be an object"]
    problems: list[str] = []
    percent = block.get("percent")
    if not isinstance(percent, (int, float)) or isinstance(percent, bool):
        problems.append("progress.percent missing or non-numeric")
    elif not 0.0 <= float(percent) <= 100.0:
        problems.append(f"progress.percent {percent!r} is outside [0, 100]")
    eta = block.get("eta_seconds")
    if eta is not None and (
        not isinstance(eta, (int, float)) or isinstance(eta, bool)
        or float(eta) < 0.0
    ):
        problems.append("progress.eta_seconds must be null or non-negative")
    return problems


def _shards_problems(report: dict) -> list[str]:
    if "shards" not in report:
        return []
    block = report["shards"]
    if not isinstance(block, dict):
        return ["shards must be an object"]
    problems: list[str] = []
    count = block.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        problems.append("shards.count missing or not a positive integer")
    workers = block.get("workers")
    if not isinstance(workers, list) or not all(
        isinstance(w, str) for w in workers
    ):
        problems.append("shards.workers missing or not a list of strings")
    elif isinstance(count, int) and len(workers) != count:
        problems.append(
            f"shards.workers has {len(workers)} entries for"
            f" shards.count {count}"
        )
    counts = block.get("counts")
    if counts is not None:
        if not isinstance(counts, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in counts
        ):
            problems.append("shards.counts must be a list of integers")
        elif sum(counts) != report.get("count"):
            problems.append(
                "shards.counts do not sum to the aggregate count"
                f" ({sum(counts)} != {report.get('count')})"
            )
    quarantined = block.get("quarantined_units")
    if quarantined is not None:
        if (
            not isinstance(quarantined, int)
            or isinstance(quarantined, bool)
            or quarantined < 0
        ):
            problems.append(
                "shards.quarantined_units must be a non-negative integer"
            )
        elif quarantined > 0 and report.get("stop_reason") is None:
            problems.append(
                "shards.quarantined_units is positive but stop_reason is"
                " null (a run with quarantined residue is not complete)"
            )
    return problems


def write_run_report(report: dict, path: str | os.PathLike) -> None:
    """Write one report; ``.jsonl`` paths append a line, others overwrite."""
    text = json.dumps(report, default=str)
    if str(path).endswith(".jsonl"):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(report, indent=2, default=str) + "\n")


def load_run_reports(path: str | os.PathLike) -> list[dict]:
    """Load report(s) from a ``.json`` file or a ``.jsonl`` stream."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if str(path).endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    loaded = json.loads(text)
    return loaded if isinstance(loaded, list) else [loaded]


# ----------------------------------------------------------------------
# Pretty-printing (the ``repro report`` subcommand)
# ----------------------------------------------------------------------
def _format_span(span: dict, indent: int, lines: list[str]) -> None:
    attrs = span.get("attrs", {})
    shown = ", ".join(f"{k}={v}" for k, v in list(attrs.items())[:4])
    suffix = f"  [{shown}]" if shown else ""
    lines.append(
        f"{'  ' * indent}{span.get('name', '?'):<{max(1, 24 - 2 * indent)}}"
        f" {span.get('duration_seconds', 0.0) * 1000:9.3f} ms{suffix}"
    )
    for child in span.get("children", []):
        _format_span(child, indent + 1, lines)


def format_run_report(report: dict) -> str:
    """Human-readable rendering: identity, phase breakdown, counters, spans."""
    t = report.get("timings", {})
    total = t.get("total_seconds", 0.0) or 0.0
    lines = [
        f"run-report v{report.get('version')} — engine {report.get('engine')}"
        f" / variant {report.get('variant')}",
    ]
    if "dataset" in report:
        lines.append(f"dataset     : {report['dataset']}")
    if "graph" in report:
        g = report["graph"]
        lines.append(
            f"data graph  : {g.get('name', '')} |V|={g.get('num_vertices')}"
            f" |E|={g.get('num_edges')}"
        )
    if "pattern" in report:
        p = report["pattern"]
        lines.append(
            f"pattern     : {p.get('name', '')} |V|={p.get('num_vertices')}"
            f" |E|={p.get('num_edges')}"
        )
    status = []
    stop = report.get("stop_reason")
    if stop:
        status.append(f"stopped: {stop}")
    else:
        if report.get("truncated"):
            status.append("truncated")
        if report.get("timed_out"):
            status.append("timed out")
    lines.append(
        f"embeddings  : {report.get('count')}"
        + (f" ({', '.join(status)})" if status else "")
    )
    ladder = report.get("degradation") or []
    if ladder:
        lines.append(f"degradation : {' > '.join(ladder)}")
    checkpoint = report.get("checkpoint")
    if checkpoint:
        written = " (written)" if checkpoint.get("written") else ""
        lines.append(f"checkpoint  : {checkpoint.get('path')}{written}")
    progress = report.get("progress")
    if progress:
        eta = progress.get("eta_seconds")
        suffix = f", ETA {eta:g}s" if isinstance(eta, (int, float)) else ""
        lines.append(f"progress    : {progress.get('percent')}%{suffix}")
    shards = report.get("shards")
    if shards:
        workers = shards.get("workers") or []
        lines.append(
            f"shards      : {shards.get('count')} merged"
            + (f" ({', '.join(workers)})" if workers else "")
        )
        quarantined = shards.get("quarantined_units")
        if quarantined:
            lines.append(
                f"quarantined : {quarantined} unit(s) — replay with"
                " `csce retry-quarantined`"
            )
    config = report.get("config")
    if config:
        shown = " ".join(f"{k}={v}" for k, v in sorted(config.items()))
        lines.append(f"config      : {shown}")
    lines.append("")
    lines.append("phase breakdown (paper total = read + optimize + execute):")
    for label, key in (
        ("read", "read_seconds"),
        ("optimize", "plan_seconds"),
        ("execute", "execute_seconds"),
    ):
        seconds = t.get(key, 0.0) or 0.0
        share = (seconds / total * 100) if total > 0 else 0.0
        lines.append(f"  {label:<9}: {seconds:10.6f} s  ({share:5.1f}%)")
    lines.append(f"  {'total':<9}: {total:10.6f} s")
    if "plan" in report:
        plan = report["plan"]
        lines.append("")
        lines.append(
            f"plan        : {plan.get('planner')} order={plan.get('order')}"
        )
        lines.append(
            f"clusters    : {plan.get('clusters_used')} used,"
            f" {plan.get('bytes_read')} bytes read"
        )
    profile = report.get("profile")
    if profile:
        lines.append("")
        lines.append(f"profile     : peak memory {profile.get('peak_mb', 0.0)} MiB")
        for name, mem in profile.get("memory_by_span", {}).items():
            lines.append(
                f"  span {name:<18}: peak {mem.get('peak_kb', 0.0)} KiB,"
                f" net {mem.get('net_kb', 0.0)} KiB over {mem.get('spans')} span(s)"
            )
        depth_rows = profile.get("search_depth", [])
        if depth_rows:
            lines.append("  search depth profile (visits / backtracks /"
                         " memo hits / mean candidates):")
            for row in depth_rows:
                vertex = f" u{row['vertex']}" if "vertex" in row else ""
                lines.append(
                    f"    depth {row['depth']:>3}{vertex}:"
                    f" {row['visits']:>8} / {row['backtracks']:>8}"
                    f" / {row['memo_hits']:>8} / {row['mean_candidates']:g}"
                )
        hot = profile.get("hot_clusters", [])
        if hot:
            lines.append("  hot clusters (rows decompressed):")
            for entry in hot:
                lines.append(
                    f"    {entry['key']:<32} {entry['rows']:>10} rows"
                    f" {entry['bytes']:>10} bytes"
                )
    recorder = report.get("recorder")
    if recorder:
        events = recorder.get("events", [])
        shown = events[-12:]
        lines.append("")
        lines.append(
            f"flight recorder: {recorder.get('recorded', 0)} event(s)"
            f" recorded, {recorder.get('dropped', 0)} dropped"
            + (f", last {len(shown)}:" if shown else "")
        )
        origin = shown[0].get("ts", 0.0) if shown else 0.0
        for event in shown:
            fields = event.get("fields", {})
            detail = " ".join(f"{k}={v}" for k, v in fields.items())
            lines.append(
                f"  +{event.get('ts', 0.0) - origin:10.6f}s"
                f" {event.get('name', '?'):<10}"
                + (f" {detail}" if detail else "")
            )
    counters = report.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:<24}: {counters[name]}")
    spans = report.get("spans", [])
    if spans:
        lines.append("")
        lines.append("spans:")
        for span in spans:
            _format_span(span, 1, lines)
    return "\n".join(lines)
