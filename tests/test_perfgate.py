"""The perf gate's verdict (tools/perfgate.py) on synthetic run records."""

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tools.perfgate import (  # noqa: E402
    BOUNDS,
    RECORD_METRICS,
    RECORD_SCHEMA,
    verdict,
)

MIN_RATIO = BOUNDS["road-sparse-capped"]


def _run(ops_per_s, failed=0):
    return {"failed": failed, "metrics": {"ops_per_s": {"value": ops_per_s}}}


def test_equal_speed_passes():
    ratio, problems = verdict([(_run(130.0), _run(130.0))] * 3, MIN_RATIO)
    assert ratio == 1.0
    assert problems == []


def test_median_slowdown_beyond_the_bound_fails():
    slow = 100.0 * (MIN_RATIO - 0.05)
    pairs = [(_run(100.0), _run(slow))] * 2 + [(_run(100.0), _run(120.0))]
    ratio, problems = verdict(pairs, MIN_RATIO)
    assert ratio < MIN_RATIO
    assert len(problems) == 1 and "below" in problems[0]


def test_one_noisy_pair_does_not_decide():
    pairs = [(_run(100.0), _run(40.0))] + [(_run(100.0), _run(98.0))] * 2
    assert verdict(pairs, MIN_RATIO)[1] == []


def test_a_failed_operation_fails_on_either_side():
    _, problems = verdict(
        [(_run(100.0, failed=1), _run(100.0, failed=2))], MIN_RATIO
    )
    assert problems == [
        "parent run 1 reported 1 failed operation(s)",
        "change run 1 reported 2 failed operation(s)",
    ]


def test_a_slowdown_on_one_gated_workload_fails_the_gate(monkeypatch, capsys):
    import tools.perfgate as perfgate

    def run_once(checkout, workload):
        slowed = checkout.name == "change" and workload == "dip-continuous"
        return _run(100.0 * (BOUNDS[workload] - 0.05) if slowed else 100.0)

    monkeypatch.setattr(perfgate, "run_once", run_once)
    assert perfgate.main(["parent", "change"]) == 1
    fails = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("FAIL")
    ]
    assert len(fails) == 1 and fails[0].startswith("FAIL: dip-continuous:")


def _full_run(ops_per_s, failed=0):
    metrics = {name: {"value": 1.5} for name in RECORD_METRICS}
    metrics["ops_per_s"] = {"value": ops_per_s}
    return {"failed": failed, "metrics": metrics}


def check_record(record):
    """A gate record's layout (``tools/perfgate.py --record``): the
    current schema carries the calibrate probe; version 1 records,
    written before it did, carry none."""
    if record["schema"] == RECORD_SCHEMA:
        assert record["calibrate"] > 0
    else:
        assert record["schema"] == "repro-perfgate-record/1"
        assert "calibrate" not in record
    for side in ("parent", "change"):
        assert set(record[side]) == {"commit", "dirty"}
    assert isinstance(record["seed"], int)
    assert record["seconds"] > 0
    assert record["workloads"] and set(record["workloads"]) <= set(BOUNDS)
    for workload in record["workloads"].values():
        assert set(workload) == {"bound", "pairs", "median_ratio", "passed"}
        assert workload["pairs"]
        for pair in workload["pairs"]:
            assert set(pair) == {"parent", "change"}
            for run in pair.values():
                assert set(run) == {*RECORD_METRICS, "failed"}
    passed = all(w["passed"] for w in record["workloads"].values())
    assert record["verdict"] == ("pass" if passed else "fail")


def test_record_appends_one_record_per_gate_run(monkeypatch, tmp_path, capsys):
    import tools.perfgate as perfgate

    def run_once(checkout, workload):
        slowed = checkout.name == "change" and workload == "dip-continuous"
        return _full_run(100.0 * (BOUNDS[workload] - 0.05) if slowed else 100.0)

    monkeypatch.setattr(perfgate, "run_once", run_once)
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    path = tmp_path / "BENCH_perf.json"
    argv = [str(parent), str(change), "--record", str(path)]
    assert perfgate.main(argv) == 1
    assert perfgate.main(argv) == 1
    capsys.readouterr()
    records = json.loads(path.read_text())
    assert len(records) == 2
    for record in records:
        assert record["schema"] == RECORD_SCHEMA and "calibrate" in record
        check_record(record)
        assert record["verdict"] == "fail"
        assert record["parent"] == {"commit": None, "dirty": None}
        workloads = record["workloads"]
        assert set(workloads) == set(BOUNDS)
        assert len(workloads["dip-continuous"]["pairs"]) == perfgate.PAIRS
        assert not workloads["dip-continuous"]["passed"]
        assert workloads["road-sparse-capped"]["median_ratio"] == 1.0
        assert workloads["road-sparse-capped"]["pairs"][0]["change"] == {
            "ops_per_s": 100.0, "op_p50_ms": 1.5, "op_tail_ms": 1.5,
            "peak_rss_mb": 1.5, "failed": 0,
        }


def test_committed_records_follow_the_schema():
    records = json.loads((REPO / "BENCH_perf.json").read_text())
    assert records and records[-1]["schema"] == RECORD_SCHEMA
    for record in records:
        check_record(record)
