"""The sweep runner behind every figure/table benchmark.

Mirrors the paper's protocol (Section VII): per configuration, run each
engine on the same sampled patterns with a time limit; record total time
(read + optimization + execution), embedding counts, and throughput; on
failure/timeout record the time limit, following the convention of existing
works. Scaled down: seconds-level limits instead of 1e4 s.
"""

from __future__ import annotations

import logging
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.baselines import (
    BacktrackingMatcher,
    FailingSetMatcher,
    GraphflowMatcher,
    SymmetryBreakingMatcher,
    VF2Matcher,
    WCOJMatcher,
)
from repro.core.csce import CSCE
from repro.core.variants import Variant
from repro.engine.results import MatchResult
from repro.errors import VariantError
from repro.graph.model import Graph
from repro.obs import Observation, build_run_report, write_run_report

logger = logging.getLogger(__name__)

DEFAULT_TIME_LIMIT = 5.0

#: Engine name -> factory(data graph) -> object with a CSCE-like ``match``.
ENGINES: dict[str, Callable[[Graph], object]] = {
    "CSCE": CSCE,
    "GraphPi": SymmetryBreakingMatcher,
    "Graphflow": GraphflowMatcher,
    "GuP": BacktrackingMatcher,
    "RapidMatch": WCOJMatcher,
    "VEQ": FailingSetMatcher,
    "VF3": VF2Matcher,
}


def make_engine(name: str, graph: Graph):
    """Instantiate a registered engine over a data graph."""
    try:
        factory = ENGINES[name]
    except KeyError:
        raise VariantError(
            f"unknown engine {name!r}; available: {', '.join(ENGINES)}"
        ) from None
    return factory(graph)


@dataclass
class ExperimentRecord:
    """One (engine, pattern, variant) measurement — a point in a figure."""

    experiment: str
    engine: str
    dataset: str
    variant: str
    pattern_size: int
    pattern_name: str = ""
    embeddings: int = 0
    total_seconds: float = 0.0
    execute_seconds: float = 0.0
    read_seconds: float = 0.0
    plan_seconds: float = 0.0
    timed_out: bool = False
    truncated: bool = False
    unsupported: bool = False
    workers: int = 1
    """Worker processes the task ran on (1 = classic in-process run).
    Only CSCE honors ``workers > 1``; baselines always record 1."""

    peak_mb: float | None = None
    extra: dict = field(default_factory=dict)
    report: dict | None = None
    """Full run-report (:func:`repro.obs.build_run_report`) when the sweep
    ran with ``collect_reports=True``; ``None`` otherwise."""

    @property
    def throughput(self) -> float:
        if self.execute_seconds <= 0:
            return 0.0
        return self.embeddings / self.execute_seconds

    def row(self) -> dict:
        status = "ok"
        if self.unsupported:
            status = "n/a"
        elif self.timed_out:
            status = "timeout"
        elif self.truncated:
            status = "truncated"
        return {
            "experiment": self.experiment,
            "engine": self.engine,
            "dataset": self.dataset,
            "variant": self.variant,
            "size": self.pattern_size,
            "embeddings": self.embeddings,
            "total_s": round(self.total_seconds, 4),
            "throughput": round(self.throughput, 1),
            "status": status,
        }


def run_task(
    experiment: str,
    engine_name: str,
    engine,
    dataset: str,
    pattern: Graph,
    variant: Variant | str,
    time_limit: float = DEFAULT_TIME_LIMIT,
    max_embeddings: int | None = None,
    count_only: bool = True,
    track_memory: bool = False,
    collect_reports: bool = False,
    trace: bool = False,
    workers: int = 1,
) -> ExperimentRecord:
    """Run one engine on one pattern, recording the paper's metrics.

    Unsupported (engine, variant, graph-type) combinations — Table III's
    empty cells — come back flagged ``unsupported`` instead of raising.
    Timeouts record the time limit as the total, the existing-works
    convention the paper follows. ``track_memory`` runs the task under a
    :class:`~repro.obs.profile.Profiler` and records its ``peak_mb`` — the
    same tracemalloc quantity ``--profile`` run-reports expose — at a
    roughly 2x slowdown, so it is off by default. ``collect_reports``
    attaches a full run-report to the record (with span trees when
    ``trace`` is also set); reports ride in ``record.report``, so
    ``record.row()`` stays flat. ``workers > 1`` runs CSCE tasks on the
    multi-process pool (:mod:`repro.engine.pool`) in count mode;
    baselines (and enumeration tasks) silently stay single-process and
    record ``workers=1``.
    """
    pool_workers = (
        workers if workers > 1 and count_only and isinstance(engine, CSCE)
        else 1
    )
    record = ExperimentRecord(
        experiment=experiment,
        engine=engine_name,
        dataset=dataset,
        variant=str(Variant.parse(variant)),
        pattern_size=pattern.num_vertices,
        pattern_name=pattern.name,
        workers=pool_workers,
    )
    obs = (
        Observation(trace=trace, profile=track_memory)
        if (collect_reports or track_memory)
        else None
    )
    start = time.perf_counter()
    try:
        result: MatchResult = engine.match(
            pattern,
            variant,
            count_only=count_only,
            max_embeddings=max_embeddings,
            time_limit=time_limit,
            obs=obs,
            **({"workers": pool_workers} if pool_workers > 1 else {}),
        )
    except VariantError:
        record.unsupported = True
        if obs is not None:
            obs.finish()
        return record
    wall = time.perf_counter() - start
    if obs is not None:
        obs.finish(result)
    if track_memory:
        record.peak_mb = obs.profile.peak_mb
    record.embeddings = result.count
    record.execute_seconds = result.elapsed
    record.read_seconds = result.read_seconds
    record.plan_seconds = result.plan_seconds
    record.truncated = result.truncated
    record.timed_out = result.timed_out
    record.total_seconds = time_limit if result.timed_out else wall
    record.extra = dict(result.stats)
    record.extra["compile_seconds"] = result.compile_seconds
    if result.shards is not None:
        record.extra["shards"] = dict(result.shards)
    if collect_reports and obs is not None:
        record.report = build_run_report(
            result,
            engine=engine_name,
            obs=obs,
            dataset=dataset,
            pattern=pattern,
            extra={"experiment": experiment},
        )
    logger.debug(
        "bench %s/%s size=%d: count=%d total=%.4fs",
        engine_name,
        record.variant,
        record.pattern_size,
        record.embeddings,
        record.total_seconds,
    )
    return record


def sweep(
    experiment: str,
    graph: Graph,
    patterns: Sequence[Graph],
    engine_names: Iterable[str],
    variant: Variant | str,
    time_limit: float = DEFAULT_TIME_LIMIT,
    max_embeddings: int | None = None,
    collect_reports: bool = False,
    trace: bool = False,
    track_memory: bool = False,
    workers: int = 1,
) -> list[ExperimentRecord]:
    """Run every engine on every pattern; one record per (engine, pattern).

    Engines are constructed once per sweep (their build/index time is part
    of the offline stage, exactly as the paper treats CCSR construction).
    ``collect_reports`` / ``trace`` attach run-reports to each record
    (see :func:`run_task`); :func:`save_reports` streams them to JSONL.
    """
    records: list[ExperimentRecord] = []
    for name in engine_names:
        try:
            engine = make_engine(name, graph)
        except VariantError:
            continue
        for pattern in patterns:
            records.append(
                run_task(
                    experiment,
                    name,
                    engine,
                    graph.name,
                    pattern,
                    variant,
                    time_limit=time_limit,
                    max_embeddings=max_embeddings,
                    collect_reports=collect_reports,
                    trace=trace,
                    track_memory=track_memory,
                    workers=workers,
                )
            )
    return records


def save_reports(records: Sequence[ExperimentRecord], path: str) -> int:
    """Persist every attached run-report; returns the number written.

    ``.jsonl`` paths get one report per line (appending); any other path
    gets one JSON array. Records without reports are skipped.
    """
    reports = [r.report for r in records if r.report is not None]
    if str(path).endswith(".jsonl"):
        for report in reports:
            write_run_report(report, path)
    else:
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(reports, handle, indent=2, default=str)
    return len(reports)


def save_records(
    records: Sequence[ExperimentRecord], path: str, fmt: str | None = None
) -> None:
    """Persist experiment records as JSON or CSV (inferred from suffix).

    JSON keeps the full record including ``extra`` stats; CSV flattens to
    the table columns — handy for external plotting of the figures.
    """
    import csv
    import json

    if fmt is None:
        fmt = "csv" if str(path).endswith(".csv") else "json"
    if fmt == "json":
        payload = [
            {**record.row(), "extra": record.extra} for record in records
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        return
    if fmt == "csv":
        rows = [record.row() for record in records]
        if not rows:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("")
            return
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        return
    raise ValueError(f"unknown format {fmt!r}; use 'json' or 'csv'")


def average_by(
    records: Sequence[ExperimentRecord],
    key: Callable[[ExperimentRecord], tuple],
) -> dict[tuple, dict[str, float]]:
    """Aggregate records (the paper averages 10 patterns per setting)."""
    groups: dict[tuple, list[ExperimentRecord]] = {}
    for record in records:
        if record.unsupported:
            continue
        groups.setdefault(key(record), []).append(record)
    summary: dict[tuple, dict[str, float]] = {}
    for group_key, members in groups.items():
        summary[group_key] = {
            "total_s": statistics.fmean(m.total_seconds for m in members),
            "embeddings": statistics.fmean(m.embeddings for m in members),
            "throughput": statistics.fmean(m.throughput for m in members),
            "timeouts": sum(1 for m in members if m.timed_out),
            "n": len(members),
        }
    return summary
