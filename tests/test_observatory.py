"""Tests for the performance observatory: metrics, profiling, EXPLAIN,
and the idempotent logging setup (repro.obs.metrics / .profile / .explain
/ .logconfig)."""

import json
import logging
import tracemalloc

import pytest

from repro.cli import main
from repro.core.csce import CSCE
from repro.core.plan import pool_size
from repro.graph import Graph, save_graph
from repro.obs import (
    NULL_METRICS,
    NULL_PROFILE,
    Heartbeat,
    JsonlTimeSeriesExporter,
    MemoryTracer,
    MetricsPump,
    MetricsRegistry,
    Observation,
    Profiler,
    PrometheusTextfileExporter,
    SearchDepthProfile,
    build_explain,
    build_run_report,
    configure_logging,
    estimate_candidates,
    format_explain,
    validate_run_report,
)
from repro.obs.metrics import COUNTER, metric_name

from conftest import make_random_graph


def _triangle_fan(n=12):
    """A small graph with enough embeddings to drive counters."""
    edges = [(0, i) for i in range(1, n)]
    edges += [(i, i + 1) for i in range(1, n - 1)]
    return Graph.from_edges(n, edges)


def _path_pattern(k=3):
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


# ----------------------------------------------------------------------
class TestMetricName:
    def test_dotted_counter_gets_namespace_and_total(self):
        assert (
            metric_name("ccsr.bytes_read", COUNTER)
            == "repro_ccsr_bytes_read_total"
        )

    def test_idempotent_suffix_and_namespace(self):
        once = metric_name("repro_embeddings_total", COUNTER)
        assert once == "repro_embeddings_total"
        assert metric_name(once, COUNTER) == once

    def test_invalid_characters_become_underscores(self):
        assert metric_name("Read CSR/phase-1") == "repro_read_csr_phase_1"


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.gauge("depth") is registry.gauge("depth")
        assert len(registry) == 1

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.gauge("embeddings_total")  # name collides with the counter
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("embeddings")

    def test_counter_is_monotonic_under_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("nodes")
        counter.set(100)
        counter.set(40)  # a lower sample must not regress the series
        assert counter.value == 100
        counter.set(150)
        assert counter.value == 150

    def test_histogram_observe_and_rejection(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(55.55)
        # Cumulative le-bucket semantics; 50.0 lands only in +Inf (count).
        assert hist.bucket_counts == [1, 2, 3]
        with pytest.raises(ValueError, match="non-histogram"):
            registry.gauge("depth").observe(1.0)

    def test_sample_counters_skips_non_finite(self):
        registry = MetricsRegistry()
        registry.sample_counters(
            {"ccsr.rows": 7, "bad": float("inf"), "worse": float("nan")}
        )
        flat = registry.flat()
        assert flat == {"repro_ccsr_rows_total": 7}

    def test_flat_expands_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        flat = registry.flat()
        assert flat["repro_lat_sum"] == 0.5
        assert flat["repro_lat_count"] == 1

    def test_prometheus_exposition(self):
        registry = MetricsRegistry(labels={"engine": "CSCE"})
        registry.counter("embeddings", help="embeddings found").set(12)
        registry.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        text = registry.to_prometheus()
        assert "# HELP repro_embeddings_total embeddings found" in text
        assert "# TYPE repro_embeddings_total counter" in text
        assert 'repro_embeddings_total{engine="CSCE"} 12' in text
        # Histogram buckets are cumulative and close with +Inf == count.
        assert 'repro_lat_bucket{engine="CSCE",le="1"} 1' in text
        assert 'repro_lat_bucket{engine="CSCE",le="2"} 1' in text
        assert 'repro_lat_bucket{engine="CSCE",le="+Inf"} 1' in text
        assert text.endswith("\n")

    def test_label_escaping(self):
        registry = MetricsRegistry(labels={"q": 'a"b\nc'})
        registry.gauge("x").set(1)
        text = registry.to_prometheus()
        assert r"a\"b\nc" in text


class TestExporters:
    def test_prometheus_textfile_atomic_overwrite(self, tmp_path):
        registry = MetricsRegistry()
        registry.gauge("x").set(1)
        exporter = PrometheusTextfileExporter(tmp_path / "metrics.prom")
        exporter.export(registry)
        registry.gauge("x").set(2)
        exporter.export(registry)
        assert exporter.exports == 2
        content = (tmp_path / "metrics.prom").read_text()
        assert "repro_x 2" in content and "repro_x 1" not in content
        # No torn temp file left behind.
        assert not (tmp_path / "metrics.prom.tmp").exists()

    def test_jsonl_appends_one_sample_per_line(self, tmp_path):
        registry = MetricsRegistry(labels={"engine": "CSCE"})
        registry.gauge("x").set(1)
        exporter = JsonlTimeSeriesExporter(tmp_path / "series.jsonl")
        exporter.export(registry, ts=10.0)
        exporter.export(registry, ts=11.0)
        lines = (tmp_path / "series.jsonl").read_text().splitlines()
        assert len(lines) == 2
        samples = [json.loads(line) for line in lines]
        assert [s["ts"] for s in samples] == [10.0, 11.0]
        assert samples[0]["labels"] == {"engine": "CSCE"}
        assert samples[0]["metrics"]["repro_x"] == 1


class TestMetricsPump:
    def test_finalize_exports_terminal_run_metrics(self, tmp_path):
        engine = CSCE(_triangle_fan())
        pump = MetricsPump(
            exporters=[PrometheusTextfileExporter(tmp_path / "m.prom")],
            labels={"engine": "CSCE"},
        )
        obs = Observation(metrics=pump)
        result = engine.match(_path_pattern(), "edge_induced", obs=obs)
        obs.finish(result)
        flat = pump.registry.flat()
        assert flat["repro_embeddings_total"] == result.count
        assert flat["repro_total_seconds"] == pytest.approx(
            result.total_seconds
        )
        assert flat["repro_timed_out"] == 0.0
        # The observation's run counters were folded in too.
        assert any(name.startswith("repro_ccsr_") for name in flat)
        assert pump.samples >= 1
        assert (tmp_path / "m.prom").read_text().startswith("#")

    def test_heartbeat_drives_live_samples(self, monkeypatch):
        monkeypatch.setattr("repro.engine.executor._TIME_CHECK_INTERVAL", 4)
        pump = MetricsPump()
        obs = Observation(
            trace=False,
            heartbeat=Heartbeat(interval=0.0, emit=lambda line: None),
            metrics=pump,
        )
        engine = CSCE(_triangle_fan())
        engine.match(_path_pattern(), "edge_induced", obs=obs)
        assert obs.heartbeat.beats > 0
        assert pump.samples >= obs.heartbeat.beats

    def test_null_pump_is_disabled(self):
        assert not NULL_METRICS.enabled
        NULL_METRICS.sample()
        NULL_METRICS.finalize()
        assert NULL_METRICS.samples == 0


# ----------------------------------------------------------------------
class TestSearchDepthProfile:
    def test_rows_aggregate_per_depth(self):
        profile = SearchDepthProfile()
        profile.visit(0, 10)
        profile.visit(0, 20)
        profile.visit(1, 4)
        profile.backtrack(1)
        profile.memo_hit(1)
        profile.memo_miss(1)
        rows = profile.rows(order=[7, 3])
        assert [row["depth"] for row in rows] == [0, 1]
        assert rows[0]["visits"] == 2
        assert rows[0]["mean_candidates"] == 15.0
        assert rows[0]["vertex"] == 7
        assert rows[1] == {
            "depth": 1,
            "visits": 1,
            "backtracks": 1,
            "memo_hits": 1,
            "memo_misses": 1,
            "candidates": 4,
            "mean_candidates": 4.0,
            "vertex": 3,
        }

    def test_empty_profile_has_no_rows(self):
        assert SearchDepthProfile().rows() == []


class TestProfiler:
    def test_hot_clusters_ranked_by_rows(self):
        profiler = Profiler(start_tracemalloc=False)
        profiler.record_cluster("a", rows=5, nbytes=10)
        profiler.record_cluster("b", rows=50, nbytes=1)
        profiler.record_cluster("a", rows=5, nbytes=10)  # aggregates
        hot = profiler.hot_clusters()
        assert [row["key"] for row in hot] == ["b", "a"]
        assert hot[1] == {"key": "a", "rows": 10, "bytes": 20, "reads": 2}
        assert profiler.hot_clusters(k=1) == hot[:1]

    def test_note_span_memory_keeps_max_peak_and_sums_net(self):
        profiler = Profiler(start_tracemalloc=False)
        profiler.note_span_memory("read", 2048, 1024)
        profiler.note_span_memory("read", 1024, 1024)
        entry = profiler.span_memory["read"]
        assert entry == {"peak_kb": 2.0, "net_kb": 2.0, "spans": 2}
        assert profiler.overall_peak_bytes == 2048

    def test_owns_and_releases_tracemalloc(self):
        already_tracing = tracemalloc.is_tracing()
        profiler = Profiler()
        assert tracemalloc.is_tracing()
        data = [list(range(1000)) for _ in range(50)]
        assert profiler.peak_mb > 0
        profiler.finish()
        assert profiler.overall_peak_bytes > 0
        if not already_tracing:
            assert not tracemalloc.is_tracing()
        del data


class TestMemoryTracer:
    def test_spans_carry_memory_attrs_and_peaks_nest(self):
        profiler = Profiler()
        tracer = MemoryTracer(profiler)
        try:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    ballast = [bytearray(4096) for _ in range(200)]
                del ballast
        finally:
            profiler.finish()
        outer, inner = tracer.find("outer"), tracer.find("inner")
        assert inner.attrs["mem_peak_kb"] > 0
        # The global peak happened inside the child; the parent's window
        # must fold it in (tracemalloc's counter is process-global).
        assert outer.attrs["mem_peak_kb"] >= inner.attrs["mem_peak_kb"]
        assert profiler.span_memory["inner"]["spans"] == 1

    def test_null_profile_reports_nothing(self):
        assert NULL_PROFILE.as_dict() == {}
        assert NULL_PROFILE.hot_clusters() == []
        assert NULL_PROFILE.peak_mb == 0.0


class TestProfiledRun:
    def test_profile_block_in_run_report(self):
        graph = _triangle_fan()
        pattern = _path_pattern()
        engine = CSCE(graph)
        obs = Observation(profile=True)
        result = engine.match(pattern, "edge_induced", obs=obs)
        obs.finish(result)
        report = build_run_report(
            result, engine="CSCE", obs=obs, pattern=pattern
        )
        validate_run_report(report)
        profile = report["profile"]
        assert profile["peak_mb"] > 0
        # Every pattern-vertex depth was visited.
        depths = [row["depth"] for row in profile["search_depth"]]
        assert depths == list(range(pattern.num_vertices))
        assert all(row["visits"] > 0 for row in profile["search_depth"])
        # The CCSR read phase fed the hot-cluster table.
        assert profile["hot_clusters"]
        assert all(row["rows"] >= 0 for row in profile["hot_clusters"])
        # The MemoryTracer annotated the pipeline phases.
        assert {"read", "execute"} <= set(profile["memory_by_span"])

    def test_profiling_does_not_change_results(self):
        graph = _triangle_fan()
        pattern = _path_pattern(4)
        engine = CSCE(graph)
        plain = engine.match(pattern, "edge_induced", count_only=True)
        obs = Observation(profile=True)
        profiled = engine.match(
            pattern, "edge_induced", count_only=True, obs=obs
        )
        obs.finish(profiled)
        assert profiled.count == plain.count
        assert profiled.stats == plain.stats

    def test_pinned_position_profiles_its_one_candidate(self):
        """A seeded run scans at most its pin at the pinned position, and
        the depth profile records that one candidate, not the pool the
        position would draw from unpinned."""
        graph = _triangle_fan()
        pattern = _path_pattern(3)
        engine = CSCE(graph)
        root = engine.session.compile(pattern, "edge_induced").ops[0].u
        obs = Observation(profile=True)
        result = engine.match(
            pattern, "edge_induced", count_only=True, seed={root: 0}, obs=obs
        )
        obs.finish(result)
        search = obs.profile.search
        assert result.count > 0
        assert search.visits[0] == search.candidates[0] == 1

    def test_counting_path_records_memoization(self):
        # A star whose leaves carry distinct labels factorizes (the wide
        # star of test_large_patterns): the SCE counting path must feed
        # the per-depth profile, like run() does.
        per_label, labels = 3, 3
        g = Graph()
        g.add_vertex("hub")
        for label in range(labels):
            for _ in range(per_label):
                v = g.add_vertex(f"leaf{label}")
                g.add_edge(0, v)
        p = Graph()
        p.add_vertex("hub")
        for label in range(labels):
            v = p.add_vertex(f"leaf{label}")
            p.add_edge(0, v)
        obs = Observation(profile=True)
        result = CSCE(g).match(p, "edge_induced", count_only=True, obs=obs)
        obs.finish(result)
        search = obs.profile.search
        assert result.stats["factorizations"] > 0
        assert sum(search.visits.values()) > 0
        # The per-depth memo counters mirror the unified stats exactly —
        # they are recorded at the same call sites.
        assert sum(search.memo_hits.values()) == result.stats["memo_hits"]
        assert sum(search.memo_misses.values()) == result.stats["memo_misses"]


# ----------------------------------------------------------------------
class TestExplain:
    def _plan(self, k=4):
        engine = CSCE(_triangle_fan())
        pattern = _path_pattern(k)
        return engine.build_plan(pattern, "edge_induced", obs=Observation())

    def test_build_explain_structure(self):
        plan = self._plan()
        info = build_explain(plan)
        assert sorted(info["order"]) == list(range(4))
        assert len(info["steps"]) == 4
        assert info["equivalence_pairs"] == sorted(
            plan.dag.independent_pairs()
        )
        assert info["dag"]["num_edges"] == len(info["dag"]["edges"])
        assert not info["has_actuals"]
        for step in info["steps"]:
            assert step["estimated_candidates"] >= 0
        # The planner ran under a live tracer, so rules were recorded.
        assert any("rationale" in step for step in info["steps"])

    def test_estimates_cover_every_position(self):
        plan = self._plan()
        estimates = estimate_candidates(plan)
        assert len(estimates) == plan.num_vertices
        # The first (unconstrained) step is costed by its static pool.
        first = plan.first_candidates[0]
        expected = 0.0 if first is None else float(pool_size(first))
        assert estimates[0] == expected

    def test_actuals_joined_from_profiled_report(self):
        plan = self._plan()
        report = {
            "profile": {
                "search_depth": [
                    {
                        "depth": 0,
                        "visits": 9,
                        "mean_candidates": 2.5,
                        "backtracks": 1,
                    }
                ]
            }
        }
        info = build_explain(plan, report=report)
        assert info["has_actuals"]
        assert info["steps"][0]["actual_visits"] == 9
        assert info["steps"][0]["actual_mean_candidates"] == 2.5
        text = format_explain(info)
        assert "act.cand" in text

    @pytest.mark.parametrize(
        "variant, strategy",
        [("edge_induced", "frame machine"), ("homomorphic", "factorized")],
    )
    def test_counting_strategy_read_off_the_routing_table(self, variant, strategy):
        # An unlabeled star: label sharing merges the leaves back under
        # injectivity, homomorphism multiplies them.
        engine = CSCE(make_random_graph(40, 120, num_labels=1, seed=11))
        star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        physical = engine.session.compile(star, variant)
        info = build_explain(physical.logical, physical=physical)
        counting = info["physical"]["counting"]
        assert counting["strategy"] == strategy
        assert counting["suffixes"] == 4
        assert (counting["split_suffixes"] > 0) == (strategy == "factorized")
        assert f"exact-count strategy: {strategy}: " in format_explain(info)
        # The program explain read is the one the routed count uses.
        program = physical.regions
        result = engine.match(star, variant, count_only=True)
        assert engine.session.compile(star, variant).regions is program
        assert (result.stats["factorizations"] > 0) == (strategy == "factorized")

    def test_format_explain_renders_sections(self):
        info = build_explain(self._plan())
        text = format_explain(info)
        assert "EXPLAIN" in text
        assert "order (Phi*)" in text
        assert "dependency DAG H" in text
        assert "equivalence (no-path) pairs" in text
        assert "SCE occurrence" in text
        # Without actuals it points at the --profile workflow.
        assert "--profile" in text


# ----------------------------------------------------------------------
class TestLogconfigIdempotent:
    @pytest.fixture
    def repro_logger(self):
        root = logging.getLogger("repro")
        saved = (list(root.handlers), root.level, root.propagate)
        yield root
        root.handlers[:] = saved[0]
        root.setLevel(saved[1])
        root.propagate = saved[2]

    def test_repeated_configure_attaches_one_handler(self, repro_logger):
        configure_logging(level="INFO")
        first = [
            h
            for h in repro_logger.handlers
            if getattr(h, "_repro_managed", False)
        ]
        configure_logging(level="DEBUG")
        configure_logging(level="DEBUG", json_output=True)
        managed = [
            h
            for h in repro_logger.handlers
            if getattr(h, "_repro_managed", False)
        ]
        assert len(managed) == 1
        assert managed[0] is first[0]  # reused, not replaced

    def test_records_emitted_exactly_once(self, repro_logger, capsys):
        class Capture(logging.Handler):
            def __init__(self):
                super().__init__()
                self.records = []

            def emit(self, record):
                self.records.append(record)

        foreign = Capture()
        repro_logger.addHandler(foreign)
        configure_logging(level="INFO")
        configure_logging(level="INFO")  # the regression: double setup
        logging.getLogger("repro.test_observatory").warning("once-only")
        # The embedder's handler survived and saw the record once ...
        assert foreign in repro_logger.handlers
        assert len(foreign.records) == 1
        # ... and the managed stderr handler emitted it exactly once.
        assert capsys.readouterr().err.count("once-only") == 1

    def test_managed_handler_follows_current_stderr(self, repro_logger, capsys):
        # configure *before* capsys swaps sys.stderr: late binding means
        # records still land in the active stream.
        configure_logging(level="INFO")
        logging.getLogger("repro.test_observatory").warning("late-bound")
        assert "late-bound" in capsys.readouterr().err


# ----------------------------------------------------------------------
class TestObservatoryCLI:
    @pytest.fixture
    def graph_files(self, tmp_path):
        save_graph(_triangle_fan(), tmp_path / "d.graph")
        save_graph(_path_pattern(), tmp_path / "p.graph")
        return str(tmp_path / "d.graph"), str(tmp_path / "p.graph")

    def test_match_profile_json(self, graph_files, capsys):
        data, pattern = graph_files
        code = main(
            [
                "match",
                "--data",
                data,
                "--pattern",
                pattern,
                "--profile",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"]["peak_mb"] > 0
        assert payload["profile"]["search_depth"]

    def test_match_exports_metrics(self, graph_files, tmp_path, capsys):
        data, pattern = graph_files
        prom = tmp_path / "metrics.prom"
        jsonl = tmp_path / "metrics.jsonl"
        code = main(
            [
                "match",
                "--data",
                data,
                "--pattern",
                pattern,
                "--metrics-prom",
                str(prom),
                "--metrics-jsonl",
                str(jsonl),
            ]
        )
        assert code == 0
        capsys.readouterr()
        text = prom.read_text()
        assert "# TYPE repro_" in text and "_total" in text
        sample = json.loads(jsonl.read_text().splitlines()[-1])
        assert sample["metrics"]["repro_embeddings_total"] >= 0

    def test_explain_renders(self, graph_files, capsys):
        data, pattern = graph_files
        code = main(["explain", "--data", data, "--pattern", pattern])
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN" in out and "order (Phi*)" in out

    def test_explain_json_with_profiled_report(
        self, graph_files, tmp_path, capsys
    ):
        data, pattern = graph_files
        report_path = tmp_path / "run.json"
        assert (
            main(
                [
                    "match",
                    "--data",
                    data,
                    "--pattern",
                    pattern,
                    "--profile",
                    "--report",
                    str(report_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "explain",
                "--data",
                data,
                "--pattern",
                pattern,
                "--run-report",
                str(report_path),
                "--json",
            ]
        )
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        assert info["has_actuals"]
        assert any("actual_visits" in step for step in info["steps"])

    def test_explain_requires_source(self, capsys):
        assert main(["explain"]) == 2
        assert "provide --data" in capsys.readouterr().err
