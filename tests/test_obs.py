"""Tests for the observability subsystem (repro.obs)."""

import json
import logging
import threading
import time

import pytest

from repro.cli import main
from repro.core.csce import CSCE
from repro.errors import FormatError
from repro.graph import Graph, save_graph
from repro.obs import (
    NULL_HEARTBEAT,
    NULL_OBS,
    NULL_TRACER,
    STAT_KEYS,
    CounterRegistry,
    Heartbeat,
    Observation,
    RunSnapshot,
    Tracer,
    assert_stat_keys,
    build_run_report,
    configure_logging,
    format_run_report,
    load_run_reports,
    unified_stats,
    validate_run_report,
    write_run_report,
)
from repro.obs.logconfig import JsonFormatter


def _triangle_fan(n=12):
    """A small graph with enough embeddings to drive counters."""
    edges = [(0, i) for i in range(1, n)]
    edges += [(i, i + 1) for i in range(1, n - 1)]
    return Graph.from_edges(n, edges)


def _path_pattern(k=3):
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_and_timing_monotonic(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            time.sleep(0.001)
            with tracer.span("inner") as inner:
                time.sleep(0.001)
        assert [r.name for r in tracer.roots] == ["outer"]
        assert outer.children == [inner]
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert inner.duration <= outer.duration
        assert outer.duration > 0

    def test_attrs_and_find(self):
        tracer = Tracer()
        with tracer.span("a", planner="csce") as span:
            span.set("order", [1, 2])
            with tracer.span("b"):
                pass
        assert tracer.find("b") is not None
        assert tracer.find("a").attrs == {"planner": "csce", "order": [1, 2]}
        assert tracer.find("missing") is None

    def test_exception_records_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.find("boom").attrs["error"] == "ValueError"

    def test_to_list_round_trips_through_json(self):
        tracer = Tracer()
        with tracer.span("root", k=1):
            with tracer.span("child"):
                pass
        dumped = json.loads(json.dumps(tracer.to_list()))
        assert dumped[0]["name"] == "root"
        assert dumped[0]["children"][0]["name"] == "child"
        assert dumped[0]["duration_seconds"] >= 0

    def test_sibling_threads_produce_separate_roots(self):
        tracer = Tracer()

        def work(name):
            with tracer.span(name):
                time.sleep(0.002)

        threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(r.name for r in tracer.roots) == ["t0", "t1", "t2"]
        assert all(not r.children for r in tracer.roots)

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", k=1) as span:
            span.set("x", 2)
        assert NULL_TRACER.to_list() == []
        assert not NULL_TRACER.enabled


# ----------------------------------------------------------------------
class TestCounters:
    def test_inc_merge_snapshot(self):
        reg = CounterRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.merge({"a": 1, "b": 2, "skip": "text"})
        snap = reg.snapshot()
        assert snap == {"a": 6, "b": 2}

    def test_sources_are_polled_at_snapshot(self):
        reg = CounterRegistry()
        state = {"nodes": 0}
        reg.add_source(lambda: state)
        reg.inc("nodes", 5)
        state["nodes"] = 7
        assert reg.get("nodes") == 12

    def test_unified_stats_covers_exact_key_set(self):
        stats = unified_stats(nodes=3, backtracks=1)
        assert_stat_keys(stats)
        assert stats["nodes"] == 3
        assert stats["backtracks"] == 1
        assert stats["memo_misses"] == 0

    def test_assert_stat_keys_rejects_divergence(self):
        good = dict.fromkeys(STAT_KEYS, 0)
        assert_stat_keys(good)
        bad = dict(good)
        bad.pop("memo_misses")
        bad["bogus"] = 1
        with pytest.raises(ValueError, match="memo_misses"):
            assert_stat_keys(bad)

    def test_registry_isolation_across_concurrent_matchers(self):
        """Two matcher runs in parallel threads never share counters."""
        engine = CSCE(_triangle_fan())
        patterns = [_path_pattern(3), _path_pattern(4)]
        results = [None, None]
        observations = [Observation(trace=False), Observation(trace=False)]

        def run(i):
            results[i] = engine.match(patterns[i], obs=observations[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in (0, 1):
            snap = observations[i].counters.snapshot()
            assert snap["nodes"] == results[i].stats["nodes"]
        # Different pattern sizes explore different node counts, so equal
        # registries would mean cross-talk.
        assert (
            observations[0].counters.snapshot()["nodes"]
            != observations[1].counters.snapshot()["nodes"]
        )


# ----------------------------------------------------------------------
class TestStatsParity:
    """Satellite: enumeration and counting emit the same stats keys."""

    def test_count_only_true_and_false_same_keys(self):
        engine = CSCE(_triangle_fan())
        pattern = _path_pattern(3)
        counted = engine.match(pattern, count_only=True)
        enumerated = engine.match(pattern, count_only=False)
        assert set(counted.stats) == set(STAT_KEYS)
        assert set(enumerated.stats) == set(STAT_KEYS)
        assert counted.count == enumerated.count

    def test_no_sce_path_has_same_keys(self):
        engine = CSCE(_triangle_fan())
        result = engine.match(_path_pattern(3), count_only=True, use_sce=False)
        assert_stat_keys(result.stats)
        assert result.stats["memo_hits"] == 0
        assert result.stats["memo_misses"] == 0

    def test_baseline_stats_have_same_keys(self):
        from repro.baselines import BacktrackingMatcher

        engine = BacktrackingMatcher(_triangle_fan())
        result = engine.match(_path_pattern(3))
        assert_stat_keys(result.stats)
        assert result.stats["nodes"] > 0


# ----------------------------------------------------------------------
class TestNoopMode:
    def test_disabled_obs_stats_identical(self):
        """Instrumentation must not change what the engine computes."""
        graph = _triangle_fan()
        pattern = _path_pattern(4)
        plain = CSCE(graph).match(pattern)
        observed_obs = Observation(heartbeat_interval=0.0)
        observed = CSCE(graph).match(pattern, obs=observed_obs)
        assert plain.count == observed.count
        assert plain.stats == observed.stats

    def test_null_obs_instruments_disabled(self):
        assert not NULL_OBS.enabled
        assert not NULL_OBS.tracer.enabled
        assert not NULL_OBS.counters.enabled
        assert not NULL_OBS.heartbeat.enabled
        assert NULL_OBS.counters.snapshot() == {}

    def test_match_span_tree_covers_pipeline(self):
        obs = Observation()
        engine = CSCE(_triangle_fan())
        engine.match(_path_pattern(3), obs=obs)
        match_span = obs.tracer.find("match")
        assert match_span is not None
        for name in ("read", "plan", "execute"):
            assert match_span.find(name) is not None, name
        cluster = obs.tracer.find("read.cluster")
        assert cluster is not None
        assert cluster.attrs["bytes"] > 0


# ----------------------------------------------------------------------
class TestHeartbeat:
    def test_beat_samples_depth_and_rate_limits(self):
        lines = []
        built = []

        def snapshot(nodes, emitted):
            built.append(nodes)
            return RunSnapshot(emitted=emitted, nodes=nodes, stats={})

        hb = Heartbeat(interval=10.0, emit=lines.append)
        # within interval
        assert hb.beat(lambda: snapshot(10, 1), depth=2) is False
        assert hb.depth_histogram == {2: 1}
        assert built == []  # no line due, no snapshot built
        hb._last -= 11.0  # simulate elapsed interval
        assert hb.beat(lambda: snapshot(20, 2), depth=3) is True
        assert hb.beats == 1
        assert built == [20]
        assert "[heartbeat]" in lines[0] and "2 embeddings" in lines[0]

    def test_null_heartbeat_never_emits(self):
        snapshot = RunSnapshot(emitted=1, nodes=1, stats={})
        assert NULL_HEARTBEAT.beat(lambda: snapshot) is False
        assert NULL_HEARTBEAT.beats == 0

    def test_enumerator_ticks_heartbeat(self, monkeypatch):
        monkeypatch.setattr("repro.engine.executor._TIME_CHECK_INTERVAL", 4)
        lines = []
        obs = Observation(
            trace=False, heartbeat=Heartbeat(interval=0.0, emit=lines.append)
        )
        engine = CSCE(_triangle_fan())
        result = engine.match(_path_pattern(3), count_only=False, obs=obs)
        assert result.stats["nodes"] >= 4
        assert obs.heartbeat.beats > 0
        assert lines and "enumerate" in lines[0]
        assert sum(obs.heartbeat.depth_histogram.values()) == obs.heartbeat.beats

    def test_sce_counter_ticks_heartbeat(self, monkeypatch):
        monkeypatch.setattr("repro.engine.executor._TIME_CHECK_INTERVAL", 4)
        lines = []
        obs = Observation(
            trace=False, heartbeat=Heartbeat(interval=0.0, emit=lines.append)
        )
        engine = CSCE(_triangle_fan())
        engine.match(_path_pattern(3), count_only=True, obs=obs)
        assert obs.heartbeat.beats > 0
        assert "count" in lines[0]

    def test_baseline_ticks_heartbeat(self, monkeypatch):
        from repro.baselines import BacktrackingMatcher

        monkeypatch.setattr("repro.baselines.base._TIME_CHECK_INTERVAL", 4)
        lines = []
        obs = Observation(
            trace=False, heartbeat=Heartbeat(interval=0.0, emit=lines.append)
        )
        engine = BacktrackingMatcher(_triangle_fan())
        engine.match(_path_pattern(3), obs=obs)
        assert obs.heartbeat.beats > 0
        assert "baseline" in lines[0]


# ----------------------------------------------------------------------
class TestRunReport:
    def _report(self, trace=True):
        obs = Observation(trace=trace)
        engine = CSCE(_triangle_fan(), obs=obs)
        pattern = _path_pattern(3)
        plan = engine.build_plan(pattern)
        result = engine.match(pattern, plan=plan)
        return build_run_report(
            result,
            engine="CSCE",
            obs=obs,
            plan=plan,
            graph=engine.store,
            pattern=pattern,
            dataset="unit",
        )

    def test_build_and_validate(self):
        report = self._report()
        validate_run_report(report)
        assert report["count"] > 0
        assert set(STAT_KEYS) <= set(report["counters"])
        assert report["counters"]["ccsr.bytes_read"] > 0
        names = {s["name"] for s in report["spans"]}
        assert "match" in names
        assert report["plan"]["order_rationale"]

    def test_validate_rejects_bad_reports(self):
        with pytest.raises(FormatError, match="JSON object"):
            validate_run_report([])
        report = self._report(trace=False)
        report.pop("counters")
        report["version"] = "one"
        with pytest.raises(FormatError, match="counters"):
            validate_run_report(report)

    def test_json_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "run.json"
        write_run_report(report, path)
        loaded = load_run_reports(path)
        assert len(loaded) == 1
        validate_run_report(loaded[0])
        assert loaded[0]["count"] == report["count"]
        assert loaded[0]["timings"]["total_seconds"] == pytest.approx(
            report["timings"]["total_seconds"]
        )

    def test_jsonl_appends(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        write_run_report(self._report(trace=False), path)
        write_run_report(self._report(trace=False), path)
        loaded = load_run_reports(path)
        assert len(loaded) == 2
        for report in loaded:
            validate_run_report(report)

    def test_format_run_report_mentions_phases(self):
        text = format_run_report(self._report())
        for needle in ("read", "optimize", "execute", "counters:", "spans:"):
            assert needle in text

    def test_robustness_fields_always_present(self):
        report = self._report(trace=False)
        assert report["stop_reason"] is None
        assert report["degradation"] == []
        assert "checkpoint" not in report

    def test_robustness_problems(self):
        from repro.obs import robustness_problems

        report = self._report(trace=False)
        assert robustness_problems(report) == []
        # Legacy reports without the fields stay clean.
        legacy = dict(report)
        del legacy["stop_reason"], legacy["degradation"]
        assert robustness_problems(legacy) == []
        # Bad values are flagged.
        assert robustness_problems({**report, "stop_reason": "nope"})
        assert robustness_problems({**report, "degradation": "evict_memo"})
        assert robustness_problems(
            {**report, "degradation": ["disable_memo", "evict_memo"]}
        )
        assert robustness_problems({**report, "checkpoint": {"written": True}})
        good = {
            **report,
            "stop_reason": "memory_limit",
            "degradation": ["evict_memo", "disable_memo", "suspend"],
            "checkpoint": {"path": "ck.json", "written": True},
        }
        assert robustness_problems(good) == []
        # A written checkpoint on a completed run is contradictory.
        bad = {**good, "stop_reason": None}
        assert robustness_problems(bad)

    def test_format_run_report_shows_robustness(self):
        report = {
            **self._report(trace=False),
            "stop_reason": "cancelled",
            "degradation": ["evict_memo"],
            "checkpoint": {"path": "ck.json", "written": True},
        }
        text = format_run_report(report)
        assert "stopped: cancelled" in text
        assert "degradation : evict_memo" in text
        assert "ck.json (written)" in text


# ----------------------------------------------------------------------
class TestLogging:
    def test_configure_logging_levels(self):
        assert configure_logging("debug") == "DEBUG"
        assert logging.getLogger("repro").level == logging.DEBUG
        assert configure_logging(None) == "WARNING"

    def test_configure_logging_rejects_garbage(self):
        with pytest.raises(ValueError):
            configure_logging("chatty")

    def test_json_formatter_emits_parseable_lines(self):
        record = logging.LogRecord(
            "repro.test", logging.INFO, __file__, 1, "hello %s", ("x",), None
        )
        payload = json.loads(JsonFormatter().format(record))
        assert payload["message"] == "hello x"
        assert payload["level"] == "INFO"
        assert payload["logger"] == "repro.test"


# ----------------------------------------------------------------------
class TestCLI:
    def _write_graphs(self, tmp_path):
        data = _triangle_fan()
        pattern = _path_pattern(3)
        data_path = tmp_path / "d.graph"
        pattern_path = tmp_path / "p.graph"
        save_graph(data, data_path)
        save_graph(pattern, pattern_path)
        return str(data_path), str(pattern_path)

    def test_stats_json(self, capsys):
        assert main(["stats", "--scale", "0.05", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scale"] == 0.05
        assert any(row["Data Graph"] == "dip" for row in payload["datasets"])

    def test_match_json(self, tmp_path, capsys):
        data_path, pattern_path = self._write_graphs(tmp_path)
        code = main(
            ["match", "--data", data_path, "--pattern", pattern_path, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "CSCE"
        assert payload["count"] > 0
        assert set(STAT_KEYS) <= set(payload["stats"])
        assert set(payload["timings"]) == {
            "read_seconds",
            "plan_seconds",
            "execute_seconds",
            "total_seconds",
        }

    def test_match_report_round_trip(self, tmp_path, capsys):
        """match --report → report subcommand → parse (satellite 4)."""
        data_path, pattern_path = self._write_graphs(tmp_path)
        out = tmp_path / "run.json"
        code = main(
            [
                "match",
                "--data",
                data_path,
                "--pattern",
                pattern_path,
                "--trace",
                "--report",
                str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["report", str(out), "--validate"]) == 0
        assert "valid" in capsys.readouterr().out
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "run-report v1" in text
        assert "phase breakdown" in text
        loaded = load_run_reports(out)
        assert loaded[0]["engine"] == "CSCE"
        span_names = {s["name"] for s in loaded[0]["spans"]}
        assert {"match", "read", "plan"} <= span_names

    def test_report_validate_flags_corrupt_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "nope"}))
        assert main(["report", str(path), "--validate"]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "none.json")]) == 2

    def test_bench_reports(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        code = main(
            [
                "bench",
                "--dataset",
                "yeast",
                "--scale",
                "0.15",
                "--sizes",
                "4",
                "--patterns",
                "1",
                "--engines",
                "CSCE",
                "--time-limit",
                "10",
                "--trace",
                "--report",
                str(out),
            ]
        )
        assert code == 0
        reports = load_run_reports(out)
        assert len(reports) == 1
        validate_run_report(reports[0])
        assert reports[0]["extra"]["experiment"] == "cli"
