"""Unit tests for the benchmark harness and table rendering."""

import pytest

from repro.bench import ENGINES, ExperimentRecord, make_engine, run_task, sweep
from repro.bench.harness import average_by
from repro.bench.history import calibrate
from repro.bench.tables import format_table, print_series, print_table
from repro.cli import main
from repro.errors import VariantError
from repro.graph import Graph
from repro.obs import validate_run_report

from conftest import make_random_graph


@pytest.fixture(scope="module")
def graph():
    return make_random_graph(20, 45, num_labels=2, seed=31)


@pytest.fixture(scope="module")
def pattern():
    return Graph.from_edges(3, [(0, 1), (1, 2)], vertex_labels=[0, 0, 0])


class TestEngineRegistry:
    def test_all_seven_paper_engines_registered(self):
        assert set(ENGINES) == {
            "CSCE",
            "GraphPi",
            "Graphflow",
            "GuP",
            "RapidMatch",
            "VEQ",
            "VF3",
        }

    def test_make_engine(self, graph):
        engine = make_engine("CSCE", graph)
        assert hasattr(engine, "match")

    def test_unknown_engine(self, graph):
        with pytest.raises(VariantError):
            make_engine("Peregrine", graph)


class TestRunTask:
    def test_records_metrics(self, graph, pattern):
        engine = make_engine("CSCE", graph)
        record = run_task(
            "fig6", "CSCE", engine, "test", pattern, "edge_induced", time_limit=10
        )
        assert record.embeddings > 0
        assert record.total_seconds > 0
        assert not record.unsupported

    def test_unsupported_flagged_not_raised(self, graph, pattern):
        engine = make_engine("VF3", graph)
        record = run_task(
            "fig6", "VF3", engine, "test", pattern, "edge_induced"
        )
        assert record.unsupported
        assert record.row()["status"] == "n/a"

    def test_timeout_records_time_limit(self, pattern):
        from repro.graph.generators import power_law_graph

        big = power_law_graph(500, 6, seed=2)
        engine = make_engine("CSCE", big)
        from repro.graph.sampling import sample_pattern

        hard = sample_pattern(big, 10, rng=0, style="dense")
        record = run_task(
            "fig6", "CSCE", engine, "big", hard, "edge_induced", time_limit=0.05
        )
        if record.timed_out:
            assert record.total_seconds == 0.05
            assert record.row()["status"] == "timeout"

    def test_throughput(self, graph, pattern):
        engine = make_engine("CSCE", graph)
        record = run_task(
            "fig8", "CSCE", engine, "test", pattern, "edge_induced",
            max_embeddings=50,
        )
        if record.execute_seconds > 0:
            assert record.throughput == pytest.approx(
                record.embeddings / record.execute_seconds
            )


class TestHarnessTimeoutPath:
    @pytest.fixture
    def timed_out_record(self, monkeypatch):
        # Check the deadline every 4 nodes (every execution path ticks on
        # the one executor Runtime), then
        # enumerate a workload far too large for a microsecond budget.
        monkeypatch.setattr("repro.engine.executor._TIME_CHECK_INTERVAL", 4)
        n = 12
        clique = Graph.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n)]
        )
        pattern = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        engine = make_engine("CSCE", clique)
        return run_task(
            "timeout",
            "CSCE",
            engine,
            "clique",
            pattern,
            "edge_induced",
            time_limit=1e-6,
            count_only=False,
            collect_reports=True,
        )

    def test_timeout_records_the_time_limit(self, timed_out_record):
        record = timed_out_record
        assert record.timed_out
        # The existing-works convention: a timeout reports the limit, a
        # censored measurement — not the wall clock it happened to burn.
        assert record.total_seconds == 1e-6
        assert record.row()["status"] == "timeout"

    def test_timeout_still_yields_a_valid_run_report(self, timed_out_record):
        report = timed_out_record.report
        assert report is not None
        validate_run_report(report)
        assert report["timed_out"]


class TestSweep:
    def test_sweep_covers_all_pairs(self, graph, pattern):
        records = sweep(
            "fig6", graph, [pattern, pattern], ["CSCE", "GuP"], "edge_induced",
            time_limit=10,
        )
        assert len(records) == 4
        engines = {r.engine for r in records}
        assert engines == {"CSCE", "GuP"}

    def test_engines_agree_within_sweep(self, graph, pattern):
        records = sweep(
            "fig6", graph, [pattern], ["CSCE", "GuP", "RapidMatch", "VEQ"],
            "edge_induced", time_limit=10,
        )
        counts = {r.embeddings for r in records if not r.unsupported}
        assert len(counts) == 1

    def test_average_by(self, graph, pattern):
        records = sweep(
            "fig6", graph, [pattern, pattern], ["CSCE"], "edge_induced",
            time_limit=10,
        )
        summary = average_by(records, key=lambda r: (r.engine, r.pattern_size))
        assert ("CSCE", 3) in summary
        assert summary[("CSCE", 3)]["n"] == 2


class TestMachine:
    def test_calibrate_is_positive(self):
        assert calibrate(loops=10_000, repeats=1) > 0


class TestBenchCLI:
    def test_bench_without_dataset_is_an_error(self, capsys):
        assert main(["bench"]) == 2
        assert "--dataset" in capsys.readouterr().err


class TestTables:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "bb": "xy"}, {"a": 100, "bb": "z"}])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_empty_rows(self):
        assert format_table([]) == "(no rows)"

    def test_print_table_with_title(self, capsys):
        print_table([{"x": 1}], title="Demo")
        out = capsys.readouterr().out
        assert "=== Demo ===" in out
        assert "x" in out

    def test_print_series(self, capsys):
        print_series(
            "Fig X", "engine", [4, 8], {"CSCE": [0.1, 0.2], "VEQ": [1.0, None]}
        )
        out = capsys.readouterr().out
        assert "CSCE" in out and "VEQ" in out
        assert "-" in out  # None rendered as dash


class TestSaveRecords:
    def test_json_roundtrip(self, graph, pattern, tmp_path):
        import json

        from repro.bench.harness import save_records

        records = sweep("x", graph, [pattern], ["CSCE"], "edge_induced", time_limit=10)
        path = tmp_path / "records.json"
        save_records(records, str(path))
        loaded = json.loads(path.read_text())
        assert len(loaded) == 1
        assert loaded[0]["engine"] == "CSCE"
        assert "extra" in loaded[0]

    def test_csv_has_header(self, graph, pattern, tmp_path):
        from repro.bench.harness import save_records

        records = sweep("x", graph, [pattern], ["CSCE"], "edge_induced", time_limit=10)
        path = tmp_path / "records.csv"
        save_records(records, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("experiment,")
        assert len(lines) == 2

    def test_empty_csv(self, tmp_path):
        from repro.bench.harness import save_records

        path = tmp_path / "empty.csv"
        save_records([], str(path))
        assert path.read_text() == ""

    def test_unknown_format(self, tmp_path):
        import pytest as _pytest

        from repro.bench.harness import save_records

        with _pytest.raises(ValueError):
            save_records([], str(tmp_path / "x.bin"), fmt="parquet")
