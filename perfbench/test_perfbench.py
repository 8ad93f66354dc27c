"""Self-test of the benchmark, at a tiny scale.

    python3 -m pytest perfbench -q

Runs every workload untraced and traced and checks that every metric
``BENCHMARK.json`` names is emitted with its unit, that every count
matches, that inputs are a pure function of the seed, and that the
traced run's layer self times add up to its wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from run import load_expected, tail, valid_embedding  # noqa: E402
from workloads import SCALES, WORKLOADS, catalog, make_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = SCALES["tiny"]


def run_bench(workload: str, trace: int, out: Path, cwd: Path = ROOT,
              seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny", "--out", str(out)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_emitted_and_counts_match(workload, trace, tmp_path):
    proc = run_bench(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(
            value for name, value in metrics.items()
            if name.endswith("_s")
            and name not in ("ccsr.build_s", "trace.wall_s", "harness.self_s")
        )
        assert layers + metrics["harness.self_s"] == pytest.approx(
            metrics["trace.wall_s"]
        )
        assert metrics["harness.self_s"] >= 0


def fingerprints(workload: str, seed: int):
    """The data graph's and the patterns' fingerprints (the library's
    structural identity), in the order the workload issues them, plus the
    update stream."""
    from repro import Graph

    inputs = make_inputs(workload, seed, TINY)
    graph = Graph.from_edges(inputs.n, inputs.edges).fingerprint()
    if workload == "dip-continuous":
        query = Graph.from_edges(*inputs.query).fingerprint()
        return graph, [query], inputs.updates
    patterns = [Graph.from_edges(k, e).fingerprint() for k, e in inputs.patterns]
    return graph, patterns, inputs.variants


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    assert fingerprints(workload, 5) == fingerprints(workload, 5)
    assert fingerprints(workload, 5) != fingerprints(workload, 6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_committed_counts_match_the_full_catalog(workload):
    assert load_expected(workload, SCALES["full"]) is not None


def test_some_road_counts_are_below_their_cap():
    """A count equal to its cap cannot show a search that over-matches;
    each variant needs queries whose exact total the timed count meets."""
    full = SCALES["full"]
    counts = load_expected("road-sparse-capped", full)["counts"]
    inputs = catalog("road-sparse-capped", full)
    below = {v for v, cap, count in zip(inputs.variants, inputs.caps, counts)
             if count < cap}
    assert below == {"edge_induced", "vertex_induced"}


def test_valid_embedding_checks_the_variant():
    # Pattern: the path 0-1-2. Data: the triangle 0-1-2 plus vertex 3 on 2.
    adj = [[1, 2], [0, 2], [0, 1, 3], [2]]
    path = [(0, 1), (1, 2)]
    assert valid_embedding((0, 1, 2), path, adj, "edge_induced")
    assert not valid_embedding((0, 1, 2), path, adj, "vertex_induced")
    assert valid_embedding((1, 2, 3), path, adj, "vertex_induced")
    assert not valid_embedding((0, 1, 0), path, adj, "edge_induced")
    assert valid_embedding((0, 1, 0), path, adj, "homomorphic")
    assert not valid_embedding((0, 3, 2), path, adj, "homomorphic")


def test_tail_percentile_keeps_ten_samples_beyond():
    latencies = [float(i) for i in range(100)]
    pct, value = tail(latencies)
    assert pct == 90.0
    assert value == pytest.approx(89.1)
    assert sum(x > value for x in latencies) == 10


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("dip-dense-edge", 0, tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
