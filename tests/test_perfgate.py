"""The perf gate's verdict (tools/perfgate.py) on synthetic run records."""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tools.perfgate import BOUNDS, verdict  # noqa: E402

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
