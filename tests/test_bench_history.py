"""Tests for the bench-history store and regression gate
(repro.bench.history + the ``bench --history`` / ``bench compare`` /
``report --validate`` CLI surface)."""

import copy
import json

import pytest

from repro.bench.harness import ExperimentRecord, make_engine, run_task
from repro.bench.history import (
    BENCH_FORMAT,
    BENCH_VERSION,
    build_history,
    calibrate,
    compare_histories,
    config_key,
    load_history,
    machine_fingerprint,
    validate_bench_history,
    write_history,
)
from repro.cli import main
from repro.errors import FormatError
from repro.graph import Graph
from repro.obs import validate_run_report

MACHINE = {
    "platform": "test",
    "python": "3",
    "cpu_count": 1,
    "calibration_seconds": 1.0,
}


def _record(**overrides) -> ExperimentRecord:
    defaults = dict(
        experiment="fig6",
        engine="CSCE",
        dataset="yeast",
        variant="edge_induced",
        pattern_size=8,
        pattern_name="p0",
        embeddings=100,
        total_seconds=0.10,
        execute_seconds=0.08,
        read_seconds=0.01,
        plan_seconds=0.01,
    )
    defaults.update(overrides)
    return ExperimentRecord(**defaults)


def _history(records=None, **machine_overrides) -> dict:
    machine = {**MACHINE, **machine_overrides}
    return build_history(
        "fig6", records if records is not None else [_record()], machine=machine
    )


# ----------------------------------------------------------------------
class TestMachine:
    def test_calibrate_is_positive(self):
        assert calibrate(loops=10_000, repeats=1) > 0

    def test_fingerprint_fields(self):
        machine = machine_fingerprint(calibration_seconds=2.0)
        assert machine["calibration_seconds"] == 2.0
        assert machine["cpu_count"] >= 1
        assert machine["platform"] and machine["python"]


class TestBuildHistory:
    def test_repeats_average_into_one_config(self):
        records = [
            _record(total_seconds=0.10, embeddings=100),
            _record(total_seconds=0.30, embeddings=100),
        ]
        doc = _history(records)
        assert doc["format"] == BENCH_FORMAT
        assert doc["version"] == BENCH_VERSION
        assert len(doc["configs"]) == 1
        config = doc["configs"][0]
        assert config["key"] == config_key(records[0])
        assert config["n"] == 2
        assert config["total_seconds"] == pytest.approx(0.20)
        assert not config["timed_out"]

    def test_any_censored_repeat_flags_the_config(self):
        doc = _history([_record(), _record(timed_out=True)])
        assert doc["configs"][0]["timed_out"]

    def test_distinct_configs_sorted_by_key(self):
        doc = _history(
            [_record(pattern_name="pZ"), _record(pattern_name="pA")]
        )
        keys = [c["key"] for c in doc["configs"]]
        assert keys == sorted(keys) and len(keys) == 2

    def test_roundtrip_through_disk(self, tmp_path):
        path = tmp_path / "BENCH_fig6.json"
        doc = _history()
        write_history(doc, path)
        loaded = load_history(path)
        assert loaded["configs"] == doc["configs"]
        assert loaded["machine"]["calibration_seconds"] == 1.0


class TestValidate:
    def test_valid_document_passes(self):
        validate_bench_history(_history())

    @pytest.mark.parametrize("missing", ["format", "figure", "machine", "configs"])
    def test_missing_field_rejected(self, missing):
        doc = _history()
        del doc[missing]
        with pytest.raises(FormatError, match=missing):
            validate_bench_history(doc)

    def test_wrong_format_or_version_rejected(self):
        doc = _history()
        doc["format"] = "nope"
        with pytest.raises(FormatError, match="format"):
            validate_bench_history(doc)
        doc = _history()
        doc["version"] = 99
        with pytest.raises(FormatError, match="version"):
            validate_bench_history(doc)

    def test_bad_config_entries_rejected(self):
        doc = _history()
        del doc["configs"][0]["key"]
        with pytest.raises(FormatError, match="key"):
            validate_bench_history(doc)
        doc = _history()
        doc["configs"][0]["total_seconds"] = "fast"
        with pytest.raises(FormatError, match="total_seconds"):
            validate_bench_history(doc)
        doc = _history()
        doc["configs"] = ["not a dict"]
        with pytest.raises(FormatError, match="configs\\[0\\]"):
            validate_bench_history(doc)

    def test_load_rejects_invalid_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": BENCH_FORMAT}))
        with pytest.raises(FormatError):
            load_history(path)


# ----------------------------------------------------------------------
class TestCompare:
    def test_identical_histories_pass(self):
        doc = _history()
        comparison = compare_histories(doc, copy.deepcopy(doc))
        assert [d.status for d in comparison.deltas] == ["ok"]
        assert comparison.deltas[0].ratio == pytest.approx(1.0)
        assert comparison.exit_code == 0
        assert "OK" in comparison.summary()

    def test_synthetic_slowdown_is_a_regression(self):
        baseline = _history()
        current = copy.deepcopy(baseline)
        for config in current["configs"]:
            config["total_seconds"] *= 2
        comparison = compare_histories(baseline, current, threshold=1.5)
        assert [d.status for d in comparison.deltas] == ["regression"]
        assert comparison.deltas[0].ratio == pytest.approx(2.0)
        assert comparison.exit_code == 1
        assert "FAIL" in comparison.summary()

    def test_speedup_reported_as_improved(self):
        baseline = _history()
        current = _history([_record(total_seconds=0.01)])
        comparison = compare_histories(baseline, current, threshold=1.5)
        assert comparison.deltas[0].status == "improved"
        assert comparison.exit_code == 0

    def test_calibration_normalizes_machine_speed(self):
        # Current machine is 2x slower (calibration 2.0) and its timings
        # are 2x longer: normalized ratio is 1.0, not a regression.
        baseline = _history()
        current = _history(
            [_record(total_seconds=0.20)], calibration_seconds=2.0
        )
        comparison = compare_histories(baseline, current, threshold=1.5)
        assert comparison.deltas[0].status == "ok"
        assert comparison.deltas[0].ratio == pytest.approx(1.0)

    def test_noise_floor_suppresses_tiny_baselines(self):
        baseline = _history([_record(total_seconds=0.0001)])
        current = _history([_record(total_seconds=0.0009)])
        comparison = compare_histories(
            baseline, current, threshold=1.5, min_seconds=0.0005
        )
        delta = comparison.deltas[0]
        assert delta.status == "ok" and "noise" in delta.note
        assert comparison.exit_code == 0

    def test_timeouts_are_incomparable_not_regressions(self):
        ok = _history()
        slow = _history([_record(timed_out=True, total_seconds=5.0)])
        for baseline, current in ((ok, slow), (slow, ok), (slow, slow)):
            comparison = compare_histories(baseline, current)
            assert comparison.deltas[0].status == "incomparable"
            assert "censored" in comparison.deltas[0].note
            assert comparison.exit_code == 0

    def test_unsupported_is_incomparable(self):
        doc = _history([_record(unsupported=True)])
        comparison = compare_histories(doc, _history())
        assert comparison.deltas[0].status == "incomparable"

    def test_result_drift_is_incomparable(self):
        baseline = _history([_record(embeddings=100)])
        current = _history([_record(embeddings=90)])
        comparison = compare_histories(baseline, current)
        delta = comparison.deltas[0]
        assert delta.status == "incomparable"
        assert "embedding counts differ" in delta.note

    def test_truncated_runs_may_differ_in_count(self):
        baseline = _history([_record(embeddings=100, truncated=True)])
        current = _history([_record(embeddings=90, truncated=True)])
        assert compare_histories(baseline, current).deltas[0].status == "ok"

    def test_new_and_missing_configs(self):
        baseline = _history([_record(pattern_name="pA")])
        current = _history([_record(pattern_name="pB")])
        statuses = {
            d.key.rsplit("|", 1)[-1]: d.status
            for d in compare_histories(baseline, current).deltas
        }
        assert statuses == {"pA": "missing", "pB": "new"}


# ----------------------------------------------------------------------
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

    def test_timeout_is_incomparable_in_history_compare(
        self, timed_out_record
    ):
        censored = build_history(
            "timeout", [timed_out_record], machine=MACHINE
        )
        healthy = build_history(
            "timeout",
            [
                _record(
                    experiment="timeout",
                    dataset="clique",
                    pattern_size=4,
                    pattern_name=timed_out_record.pattern_name,
                )
            ],
            machine=MACHINE,
        )
        comparison = compare_histories(healthy, censored)
        assert [d.status for d in comparison.deltas] == ["incomparable"]
        assert comparison.exit_code == 0


# ----------------------------------------------------------------------
class TestHistoryCLI:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        write_history(doc, path)
        return str(path)

    def test_bench_writes_history_document(self, tmp_path, capsys):
        path = tmp_path / "BENCH_smoke.json"
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
                "--history",
                str(path),
                "--figure",
                "smoke",
            ]
        )
        assert code == 0
        assert "bench-history" in capsys.readouterr().err
        doc = load_history(path)
        assert doc["figure"] == "smoke"
        assert doc["configs"]
        assert doc["machine"]["calibration_seconds"] > 0

    def test_compare_identical_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, "base.json", _history())
        assert main(["bench", "compare", "--baseline", path]) == 0
        out = capsys.readouterr().out
        assert "OK: no regression" in out

    def test_compare_slowdown_exits_nonzero(self, tmp_path, capsys):
        baseline = _history()
        current = copy.deepcopy(baseline)
        for config in current["configs"]:
            config["total_seconds"] *= 2
        base_path = self._write(tmp_path, "base.json", baseline)
        cur_path = self._write(tmp_path, "cur.json", current)
        code = main(
            [
                "bench",
                "compare",
                "--baseline",
                base_path,
                "--current",
                cur_path,
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "regression" in out and "FAIL" in out

    def test_compare_threshold_flag(self, tmp_path, capsys):
        baseline = _history()
        current = copy.deepcopy(baseline)
        for config in current["configs"]:
            config["total_seconds"] *= 2
        base_path = self._write(tmp_path, "base.json", baseline)
        cur_path = self._write(tmp_path, "cur.json", current)
        args = ["bench", "compare", "--baseline", base_path,
                "--current", cur_path, "--threshold", "3.0"]
        assert main(args) == 0
        capsys.readouterr()

    def test_compare_requires_baseline(self, capsys):
        assert main(["bench", "compare"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_compare_rejects_invalid_history(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": BENCH_FORMAT}))
        assert main(["bench", "compare", "--baseline", str(path)]) == 2
        assert "invalid bench-history" in capsys.readouterr().err

    def test_bench_without_dataset_or_action_is_an_error(self, capsys):
        assert main(["bench"]) == 2
        assert "--dataset" in capsys.readouterr().err

    def test_report_validate_accepts_history(self, tmp_path, capsys):
        path = self._write(tmp_path, "BENCH_fig6.json", _history())
        assert main(["report", path, "--validate"]) == 0
        assert "bench-history" in capsys.readouterr().out

    def test_report_validate_rejects_bad_history_with_exit_2(
        self, tmp_path, capsys
    ):
        doc = _history()
        del doc["machine"]
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path), "--validate"]) == 2
        err = capsys.readouterr().err
        assert "invalid bench-history" in err
