"""Merge-ready multi-worker observability: exact counter merges, worker
snapshots, and shard run-report aggregation.

The acceptance bar: sharding a run over K workers (one seeded run per
root candidate) and merging the K observability snapshots reproduces the
single-process totals *exactly* — counts, stats, and counters."""

import json

import pytest

from repro.core.csce import CSCE
from repro.engine.executor import execute_physical
from repro.engine.pool import _execute_inline, _new_agg, _package_result
from repro.engine.results import MatchOptions
from repro.graph.patterns import CATALOG
from repro.obs import (
    Observation,
    WorkerSnapshot,
    build_run_report,
    format_run_report,
    merge_counters,
    robustness_problems,
    validate_run_report,
)

from conftest import make_random_graph


@pytest.fixture(scope="module")
def graph():
    return make_random_graph(24, 60, num_labels=2, seed=11)


@pytest.fixture(scope="module")
def engine(graph):
    return CSCE(graph)


def shard_by_root(engine, pattern, variant="edge_induced"):
    """Split a run into one seeded shard per data vertex with the root's
    label — the multi-worker sharding model (each worker gets a pinned
    root) — and snapshot each shard's counters and stats."""
    plan = engine.build_plan(pattern, variant)
    root = plan.order[0]
    shards = []
    for v, label in enumerate(engine.store.vertex_labels):
        if label != pattern.vertex_label(root):
            continue  # a seed must keep the pattern vertex's label
        obs = Observation(trace=False)
        result = engine.match(
            pattern, variant, count_only=False, seed={root: v}, obs=obs
        )
        snapshot = WorkerSnapshot(
            worker=f"worker-{v}",
            counters=dict(obs.counters.snapshot()),
            stats=dict(result.stats),
        )
        shards.append((snapshot, result))
    return shards


# ---------------------------------------------------------------------------
# merge_counters
# ---------------------------------------------------------------------------
class TestMergeCounters:
    def test_sums_per_key(self):
        merged = merge_counters({"a": 1, "b": 2}, {"a": 3, "c": 4})
        assert merged == {"a": 4, "b": 2, "c": 4}

    def test_empty_identity(self):
        assert merge_counters({"a": 1}, {}) == {"a": 1}
        assert merge_counters() == {}

    def test_skips_non_numeric_and_bools(self):
        merged = merge_counters({"a": 1, "note": "x", "flag": True}, {"a": 1})
        assert merged == {"a": 2}

    def test_associative_groupings_agree(self):
        a, b, c = {"n": 1}, {"n": 2, "m": 5}, {"m": 7}
        left = merge_counters(merge_counters(a, b), c)
        right = merge_counters(a, merge_counters(b, c))
        assert left == right == merge_counters(a, b, c)

    def test_disjoint_key_sets_concatenate(self):
        # Fully disjoint shards: no key collides, every entry survives.
        merged = merge_counters({"a": 1, "b": 2}, {"c": 3}, {"d": 4.5})
        assert merged == {"a": 1, "b": 2, "c": 3, "d": 4.5}


# ---------------------------------------------------------------------------
# Worker snapshots: merged == single-process, exactly
# ---------------------------------------------------------------------------
class TestWorkerSnapshots:
    def test_snapshot_roundtrip(self):
        snap = WorkerSnapshot(
            worker="w1", counters={"nodes": 5}, stats={"nodes": 5},
        )
        restored = WorkerSnapshot.from_dict(
            json.loads(json.dumps(snap.to_dict()))
        )
        assert restored.worker == "w1"
        assert restored.counters == {"nodes": 5}
        assert restored.workers == ("w1",)

    @pytest.mark.parametrize("name", ["triangle", "path4", "star4"])
    def test_sharded_run_reproduces_single_process_exactly(
        self, engine, name
    ):
        pattern = CATALOG[name]()
        full = engine.match(pattern, "edge_induced", count_only=False)
        shards = shard_by_root(engine, pattern)
        assert full.count == sum(r.count for _, r in shards)
        # Each snapshot survives the wire, and the merged stats are exact
        # sums over the shards (integer addition).
        snaps = [
            WorkerSnapshot.from_dict(json.loads(json.dumps(s.to_dict())))
            for s, _ in shards
        ]
        merged = merge_counters(*(s.stats for s in snaps))
        for key in ("nodes", "backtracks"):
            assert merged[key] == sum(r.stats[key] for _, r in shards)

    def test_merge_order_and_grouping_do_not_matter(self, engine):
        pattern = CATALOG["triangle"]()
        snaps = [s for s, _ in shard_by_root(engine, pattern)]
        half = len(snaps) // 2
        for field in ("counters", "stats"):
            parts = [getattr(s, field) for s in snaps]
            flat = merge_counters(*parts)
            reversed_ = merge_counters(*reversed(parts))
            grouped = merge_counters(
                merge_counters(*parts[:half]), merge_counters(*parts[half:])
            )
            assert flat == reversed_ == grouped


# ---------------------------------------------------------------------------
# Run-report aggregation: the pool's one result from its shard aggregates
# ---------------------------------------------------------------------------
class TestMergeRunReports:
    """A pool run folds its per-worker shards into one result and one
    run-report: exact sums, the longest ladder, and a ``shards`` block
    that validates."""

    def test_merged_report_is_valid_and_exact(self, engine):
        pattern = CATALOG["triangle"]()
        seq = engine.match(pattern, "edge_induced", count_only=True)
        obs = Observation(trace=False)
        result = engine.match(
            pattern, "edge_induced", count_only=True, workers=2, obs=obs
        )
        merged = build_run_report(result, engine="CSCE", obs=obs)
        validate_run_report(merged)  # raises on schema problems
        assert robustness_problems(merged) == []
        assert merged["count"] == seq.count
        shards = merged["shards"]
        assert shards["count"] == len(shards["workers"]) == 2
        assert sum(shards["counts"]) == seq.count
        assert shards["stop_reasons"] == [None, None]
        assert shards["execute_seconds_sum"] >= 0.0

    def test_merged_report_renders_shards(self, engine):
        pattern = CATALOG["triangle"]()
        result = engine.match(
            pattern, "edge_induced", count_only=True, workers=2
        )
        rendered = format_run_report(build_run_report(result, engine="CSCE"))
        assert "shards" in rendered

    def test_degradation_takes_longest_ladder(self, engine):
        physical = engine.session.compile(
            CATALOG["triangle"](), "edge_induced"
        )
        shards = {
            "w0": dict(_new_agg(), degradation=["evict_memo"]),
            "w1": dict(_new_agg(), degradation=["evict_memo", "disable_memo"]),
        }
        merged = _package_result(
            physical, MatchOptions(count_only=True), shards, None, 0.0
        )
        assert merged.degradation == ["evict_memo", "disable_memo"]

    def test_single_shard_identity(self, engine):
        # Packaging one shard changes nothing observable: count, stats and
        # stop reason pass through, and the shards block degenerates to
        # that one worker.
        physical = engine.session.compile(
            CATALOG["triangle"](), "edge_induced"
        )
        options = MatchOptions(count_only=True, max_embeddings=10**9)
        seq = execute_physical(physical, options)
        merged = _execute_inline(physical, options, None)
        assert merged.count == seq.count
        assert merged.stats == seq.stats
        assert merged.stop_reason is seq.stop_reason is None
        assert merged.shards["count"] == 1
        assert merged.shards["workers"] == ["w0"]
        assert merged.shards["counts"] == [seq.count]
