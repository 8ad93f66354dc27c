"""Multi-process worker pool: portable work units, exact merged counts.

The hard invariant under test everywhere here: for every (pattern,
variant, workers) configuration — including under injected chaos (worker
SIGKILL, cancel mid-steal) — the pool's merged count equals the
single-process count exactly. The work-unit layer is additionally tested
in isolation: root-range sharding and frame-stack splitting partition the
search space, so executing the pieces and summing reproduces the whole.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.core.csce import CSCE
from repro.engine.checkpoint import load_checkpoint, load_checkpoint_set
from repro.engine.executor import Runtime, SearchState, count_capped
from repro.engine.governor import Budget, CancelToken, ResourceGovernor
from repro.engine.pool import _execute_inline, execute_parallel
from repro.engine.results import MatchOptions
from repro.engine.workunit import (
    make_root_units,
    root_candidates,
    split_search_state,
)
from repro.errors import CheckpointError, InspectorError, PoolError
from repro.graph.patterns import CATALOG
from repro.obs import (
    MatchInspector,
    Observation,
    build_run_report,
    validate_run_report,
)
from repro.testing import faults

from conftest import make_random_graph

VARIANTS = ("homomorphic", "edge_induced", "vertex_induced")


@pytest.fixture(scope="module")
def graph():
    return make_random_graph(150, 900, num_labels=0, seed=11)


@pytest.fixture(scope="module")
def engine(graph):
    return CSCE(graph)


def compiled(engine, pattern, variant, **options):
    opts = MatchOptions(count_only=True, **options)
    return engine.session.compile(pattern, variant), opts


# ---------------------------------------------------------------------------
# Work units: sharding partitions the search space exactly
# ---------------------------------------------------------------------------
class TestWorkUnits:
    def test_root_units_partition_root_candidates(self, engine):
        physical, _ = compiled(engine, CATALOG["path4"](), "homomorphic")
        roots = root_candidates(physical)
        assert roots
        units = make_root_units(physical, 4)
        chunks = [u["values"][0] for u in units]
        assert [v for chunk in chunks for v in chunk] == roots
        sizes = sorted(len(c) for c in chunks)
        assert sizes[-1] - sizes[0] <= 1

    def test_more_shards_than_roots_collapses(self, engine):
        physical, _ = compiled(engine, CATALOG["triangle"](), "homomorphic")
        roots = root_candidates(physical)
        units = make_root_units(physical, len(roots) + 50)
        assert len(units) == len(roots)
        assert all(len(u["values"][0]) == 1 for u in units)

    def test_invalid_shard_count_rejected(self, engine):
        physical, _ = compiled(engine, CATALOG["triangle"](), "homomorphic")
        with pytest.raises(ValueError):
            make_root_units(physical, 0)

    def test_executing_units_sums_to_sequential(self, engine):
        pattern = CATALOG["square"]()
        seq = engine.match(pattern, "edge_induced", count_only=True)
        physical, opts = compiled(engine, pattern, "edge_induced")
        total = 0
        for payload in make_root_units(physical, 5):
            runtime = Runtime(opts)
            try:
                total += count_capped(
                    physical, runtime, SearchState.from_payload(payload)
                )
            finally:
                runtime.release()
        assert total == seq.count

    def test_split_midway_conserves_count(self, engine):
        # Stop a run midway, split its frame stack, finish both halves:
        # kept + donated + already-emitted must equal the full count.
        pattern = CATALOG["path4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        physical, opts = compiled(
            engine, pattern, "homomorphic",
            max_embeddings=seq.count // 3,
        )
        state = SearchState.fresh(len(physical.ops))
        runtime = Runtime(opts)
        try:
            partial = count_capped(physical, runtime, state)
        finally:
            runtime.release()
        assert runtime.stop_reason == "embedding_limit"
        op_vertices = tuple(op.u for op in physical.ops)
        donated = split_search_state(state, True, op_vertices)
        assert donated is not None
        finish_physical, finish_opts = compiled(
            engine, pattern, "homomorphic"
        )
        total = partial
        for payload in (state.to_payload(), donated):
            rt = Runtime(finish_opts)
            try:
                total += count_capped(
                    finish_physical, rt, SearchState.from_payload(payload)
                )
            finally:
                rt.release()
        assert total == seq.count

    def test_split_after_memo_hit_keeps_memo_whole(self, engine):
        # The depth-0 frame is the memoized tuple itself; stealing its
        # back half rebinds the frame, which must leave the memoized
        # candidate list the next hit returns whole.
        physical, opts = compiled(
            engine, CATALOG["path4"](), "homomorphic", max_embeddings=5
        )
        n = len(physical.ops)
        root = physical.ops[0]
        runtime = Runtime(opts)
        try:
            computer = runtime.computer
            whole = list(computer.raw(root, [-1] * n))
            assert computer.stats.memo_hits == 0
            state = SearchState.fresh(n)
            count_capped(physical, runtime, state)
            assert computer.stats.memo_hits >= 1
            assert list(state.values[0]) == whole
            donated = split_search_state(
                state, False, tuple(op.u for op in physical.ops)
            )
            assert donated is not None and donated["pos"] == 0
            assert len(state.values[0]) < len(whole)
            hits = computer.stats.memo_hits
            assert list(computer.raw(root, [-1] * n)) == whole
            assert computer.stats.memo_hits == hits + 1
        finally:
            runtime.release()

    def test_split_fresh_state_returns_none(self, engine):
        physical, _ = compiled(engine, CATALOG["triangle"](), "homomorphic")
        state = SearchState.fresh(len(physical.ops))
        op_vertices = tuple(op.u for op in physical.ops)
        assert split_search_state(state, True, op_vertices) is None

    def test_min_remaining_guard(self, engine):
        physical, _ = compiled(engine, CATALOG["triangle"](), "homomorphic")
        state = SearchState.fresh(len(physical.ops))
        op_vertices = tuple(op.u for op in physical.ops)
        with pytest.raises(ValueError):
            split_search_state(state, True, op_vertices, min_remaining=1)


# ---------------------------------------------------------------------------
# Exact-count parity: pool == sequential
# ---------------------------------------------------------------------------
class TestParity:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", ["triangle", "path4", "square"])
    def test_two_workers_exact(self, engine, name, variant):
        pattern = CATALOG[name]()
        seq = engine.match(pattern, variant, count_only=True)
        par = engine.match(pattern, variant, count_only=True, workers=2)
        assert par.count == seq.count
        assert par.shards is not None
        assert sum(par.shards["counts"]) == par.count

    def test_four_workers_exact(self, engine):
        pattern = CATALOG["star4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        par = engine.match(pattern, "homomorphic", count_only=True,
                           workers=4)
        assert par.count == seq.count
        assert par.shards["count"] == len(par.shards["counts"])

    def test_restrictions_and_seed_parity(self, engine):
        from repro.baselines.symmetry import symmetry_restrictions

        pattern = CATALOG["triangle"]()
        restrictions, _ = symmetry_restrictions(pattern)
        seq = engine.match(pattern, "edge_induced", count_only=True,
                           restrictions=restrictions)
        par = engine.match(pattern, "edge_induced", count_only=True,
                           restrictions=restrictions, workers=2)
        assert par.count == seq.count
        seed = {0: 0}
        seq = engine.match(pattern, "edge_induced", count_only=True,
                           restrictions=restrictions, seed=seed)
        par = engine.match(pattern, "edge_induced", count_only=True,
                           restrictions=restrictions, seed=seed, workers=2)
        assert seq.count > 0 and par.count == seq.count

    def test_work_stealing_exact(self, engine):
        # A single oversized root unit forces the pool to rebalance by
        # splitting live frame stacks; the merged count stays exact.
        pattern = CATALOG["path4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        physical, opts = compiled(engine, pattern, "homomorphic")
        opts.workers = 4
        events = []
        result = execute_parallel(
            physical, opts,
            initial_units=make_root_units(physical, 1),
            on_event=lambda kind, msg: events.append(kind),
        )
        assert result.count == seq.count
        assert sum(result.shards["counts"]) == seq.count

    def test_enumeration_mode_rejected(self, engine):
        with pytest.raises(PoolError):
            engine.match(CATALOG["triangle"](), "edge_induced",
                         count_only=False, workers=2)


# ---------------------------------------------------------------------------
# Chaos: worker death and cancel mid-steal stay exact
# ---------------------------------------------------------------------------
class TestChaos:
    def test_worker_sigkill_recovers_exact(self, engine):
        pattern = CATALOG["path4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)

        def kill_w1(rule, site, ctx):
            if os.environ.get("REPRO_WORKER") == "w1":
                os.kill(os.getpid(), signal.SIGKILL)

        injector = faults.FaultInjector(seed=1)
        injector.on("engine.tick", kill_w1, after=100, times=1)
        physical, opts = compiled(engine, pattern, "homomorphic")
        opts.workers = 2
        with injector.install():
            result = execute_parallel(physical, opts)
        assert result.count == seq.count
        assert result.stop_reason is None

    def test_worker_sigkill_mid_send_never_wedges_the_pool(self, engine):
        # A kill can land while the worker is still writing a report.
        # Each worker writes only its own pipe, so the survivor's reports
        # keep flowing and the count stays exact wherever the kill lands.
        # A wedged pool fails here on the alarm instead of hanging.
        pattern = CATALOG["path4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)

        def kill_w1(rule, site, ctx):
            if os.environ.get("REPRO_WORKER") == "w1":
                os.kill(os.getpid(), signal.SIGKILL)

        def wedged(signum, frame):
            raise TimeoutError("pool wedged after a worker SIGKILL")

        previous = signal.signal(signal.SIGALRM, wedged)
        try:
            for after in range(60, 140, 10):
                injector = faults.FaultInjector(seed=1)
                injector.on("engine.tick", kill_w1, after=after, times=1)
                physical, opts = compiled(engine, pattern, "homomorphic")
                opts.workers = 2
                signal.alarm(30)
                with injector.install():
                    result = execute_parallel(physical, opts)
                signal.alarm(0)
                assert result.count == seq.count, after
                assert result.stop_reason is None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_cluster_read_fault_in_worker_is_requeued(self, engine):
        # A transient exception inside a worker fails the unit; the pool
        # re-runs it (attempts < MAX) and the final count stays exact.
        pattern = CATALOG["triangle"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)

        fired = {"n": 0}

        def boom(rule, site, ctx):
            if os.environ.get("REPRO_WORKER"):
                fired["n"] += 1
                raise RuntimeError("injected tick fault")

        injector = faults.FaultInjector(seed=3)
        injector.on("engine.tick", boom, after=2, times=1)
        physical, opts = compiled(engine, pattern, "homomorphic")
        opts.workers = 2
        with injector.install():
            result = execute_parallel(physical, opts)
        assert result.count == seq.count

    def test_cancel_mid_steal_drains_cleanly(self, engine):
        pattern = CATALOG["path4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        cancel = CancelToken()
        governor = ResourceGovernor(Budget(), cancel=cancel)
        physical, opts = compiled(engine, pattern, "homomorphic")
        opts.workers = 4
        opts.governor = governor

        def on_event(kind, msg):
            if kind == "split":
                cancel.trip("mid-steal")

        result = execute_parallel(
            physical, opts,
            initial_units=make_root_units(physical, 1),
            on_event=on_event,
        )
        # Cancelled (if a steal happened in time) or complete — either
        # way the partial count is a valid prefix of the search.
        assert result.count <= seq.count
        if result.stop_reason is not None:
            assert result.stop_reason == "cancelled"
        else:
            assert result.count == seq.count

    def test_embedding_cap_stops_pool(self, engine):
        pattern = CATALOG["path4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        cap = max(1, seq.count // 4)
        par = engine.match(pattern, "homomorphic", count_only=True,
                           workers=2, max_embeddings=cap)
        assert par.stop_reason == "embedding_limit"
        assert par.truncated
        # Cooperative cap: at least the cap, never the full count (each
        # in-flight unit may finish its last banked batch).
        assert cap <= par.count <= seq.count

    def test_parent_memory_breach_suspends_the_pool(self, engine):
        # Pressure in the parent only (workers carry REPRO_WORKER). The
        # parent has no memo to evict: its first breach climbs to
        # disable_memo, its second suspends the pool.
        def parent_spike(rule, site, ctx):
            return None if os.environ.get("REPRO_WORKER") else 1e9

        obs = Observation(trace=False)
        gov = ResourceGovernor(budget=Budget(memory_limit_mb=1e5), obs=obs)
        with faults.FaultInjector(seed=1).on("governor.memory", parent_spike):
            result = engine.match(
                CATALOG["path4"](), "homomorphic", count_only=True,
                workers=2, governor=gov, obs=obs,
            )
        assert result.stop_reason == "memory_limit"
        counters = obs.counters.snapshot()
        assert counters["governor_evictions"] == 1
        assert counters["governor_memo_disabled"] == 1
        assert counters["governor_suspensions"] == 1


# ---------------------------------------------------------------------------
# One budget: a capped pool count is min(cap, exact)
# ---------------------------------------------------------------------------
class TestCappedPool:
    """Each dispatched unit reserves its share of the cap, so the pool
    never counts past it, whatever the timing: with several units in
    flight, under stealing, and when a worker dies mid-unit."""

    def test_count_is_min_of_cap_and_total(self, engine):
        pattern = CATALOG["path4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True).count
        for cap in (1, 7, seq // 3, seq // 3, seq + 5):
            par = engine.match(pattern, "homomorphic", count_only=True,
                               workers=2, max_embeddings=cap)
            assert par.count == min(cap, seq), cap
            assert sum(par.shards["counts"]) == par.count
            if cap < seq:
                assert par.stop_reason == "embedding_limit"

    def test_exact_under_forced_stealing(self, engine):
        pattern = CATALOG["path4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True).count
        cap = seq // 2
        physical, opts = compiled(engine, pattern, "homomorphic",
                                  max_embeddings=cap)
        opts.workers = 4
        events = []
        # Slow ticks outlast the worker heartbeat, so the one root unit is
        # split while it runs and the donated halves run under new shares.
        with faults.FaultInjector().on("engine.tick", faults.slowdown(5e-5)):
            result = execute_parallel(
                physical, opts,
                initial_units=make_root_units(physical, 1),
                on_event=lambda kind, msg: events.append(kind),
            )
        assert "split" in events
        assert result.count == cap
        assert result.stop_reason == "embedding_limit"

    def test_exact_under_worker_sigkill(self, engine):
        pattern = CATALOG["path4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True).count
        cap = seq // 2

        def kill_w1(rule, site, ctx):
            if os.environ.get("REPRO_WORKER") == "w1":
                os.kill(os.getpid(), signal.SIGKILL)

        injector = faults.FaultInjector(seed=1)
        injector.on("engine.tick", kill_w1, after=100, times=1)
        physical, opts = compiled(engine, pattern, "homomorphic",
                                  max_embeddings=cap)
        opts.workers = 2
        with injector.install():
            result = execute_parallel(physical, opts)
        assert "w2" in result.shards["workers"]  # w1's replacement
        assert result.count == cap
        assert result.stop_reason == "embedding_limit"

    def test_capped_checkpoint_resumes_to_the_exact_total(
        self, engine, tmp_path
    ):
        pattern = CATALOG["path4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True).count
        cap = seq // 3
        cp_dir = tmp_path / "shards"
        partial = engine.match(pattern, "homomorphic", count_only=True,
                               workers=2, max_embeddings=cap,
                               pool_checkpoint_dir=str(cp_dir))
        assert partial.count == cap
        # The shards keep the cap: resuming with their limits stops at once.
        again = engine.resume_pool(str(cp_dir), workers=2)
        assert again.count == cap
        assert again.stop_reason == "embedding_limit"
        resumed = engine.resume_pool(str(cp_dir), workers=2,
                                     max_embeddings=None)
        assert resumed.count == seq
        assert resumed.stop_reason is None

    def test_tightening_before_the_pool_starts_caps_it(self, engine):
        # A `budget` command that lands before the pool's drive loop (the
        # inspector serves from before the workers spawn) still caps it.
        pattern = CATALOG["path4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True).count
        gov = ResourceGovernor()
        gov.tighten(max_embeddings=seq // 4)
        par = engine.match(pattern, "homomorphic", count_only=True,
                           workers=2, governor=gov)
        assert par.count == seq // 4
        assert par.stop_reason == "embedding_limit"

    def test_inline_replay_runs_under_the_governor(self, engine):
        # The in-process path runs each unit under the caller's governor:
        # a tripped token stops it before any work.
        physical, opts = compiled(engine, CATALOG["path4"](), "homomorphic")
        token = CancelToken()
        token.trip("test")
        opts.governor = ResourceGovernor(cancel=token)
        result = _execute_inline(
            physical, opts, make_root_units(physical, 4)
        )
        assert result.stop_reason == "cancelled"
        assert result.count == 0


# ---------------------------------------------------------------------------
# Checkpoint sharding and pool resume
# ---------------------------------------------------------------------------
class TestPoolCheckpoints:
    def test_pool_checkpoint_dir_needs_workers(self, tmp_path):
        # One worker never runs the pool, so nothing would ever be
        # written to the directory: refuse it instead of returning a
        # stopped run with no checkpoint.
        engine = CSCE(make_random_graph(60, 300, seed=3))
        cp_dir = tmp_path / "shards"
        with pytest.raises(ValueError, match="workers > 1"):
            engine.match(
                CATALOG["path4"](), count_only=True, max_embeddings=10,
                pool_checkpoint_dir=str(cp_dir),
            )
        assert not cp_dir.exists() or not any(cp_dir.iterdir())

    def test_checkpoint_resume_round_trip(self, engine, tmp_path):
        pattern = CATALOG["square"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        cp_dir = tmp_path / "shards"
        partial = engine.match(
            pattern, "homomorphic", count_only=True, workers=2,
            max_embeddings=max(1, seq.count // 3),
            pool_checkpoint_dir=str(cp_dir),
        )
        assert partial.stop_reason == "embedding_limit"
        files = sorted(os.listdir(cp_dir))
        assert files and all(f.startswith("shard-") for f in files)
        resumed = engine.resume_pool(str(cp_dir), workers=2,
                                     max_embeddings=None)
        assert resumed.count == seq.count

    def test_resume_pool_accepts_a_stream_checkpoint(self, engine, tmp_path):
        # A suspended stream's checkpoint is a set of one document; the
        # pool resumes it like a shard directory.
        pattern = CATALOG["square"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        path = tmp_path / "stream.json"
        stream = engine.match_iter(
            pattern, "homomorphic", max_embeddings=max(1, seq.count // 3),
            checkpoint_path=path,
        )
        for _ in stream:
            pass
        assert stream.stop_reason == "embedding_limit"
        resumed = engine.resume_pool(str(path), workers=2,
                                     max_embeddings=None)
        assert resumed.stop_reason is None
        assert resumed.variant.value == "homomorphic"
        assert resumed.count == seq.count

    def test_rearmed_checkpoint_drops_stale_shards(self, engine, tmp_path):
        # Cycle 1 stops early with many unfinished units; cycle 2 resumes
        # and re-arms the same directory, stopping with fewer. The shards
        # cycle 2 did not rewrite are already counted, so they must go.
        pattern = CATALOG["square"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        cp_dir = tmp_path / "shards"
        engine.match(
            pattern, "homomorphic", count_only=True, workers=2,
            max_embeddings=1, pool_checkpoint_dir=str(cp_dir),
        )
        first = sorted(cp_dir.glob("shard-*.json"))
        (cp_dir / "notes.txt").write_text("kept\n")
        (cp_dir / "quarantine-0099.json").write_text(first[0].read_text())
        second = engine.resume_pool(
            str(cp_dir), workers=2, max_embeddings=seq.count // 2,
            checkpoint_dir=str(cp_dir),
        )
        assert second.stop_reason == "embedding_limit"
        shards = sorted(cp_dir.glob("shard-*.json"))
        assert 0 < len(shards) < len(first)
        assert (cp_dir / "notes.txt").exists()
        assert (cp_dir / "quarantine-0099.json").exists()
        final = engine.resume_pool(str(cp_dir), workers=2,
                                   max_embeddings=None)
        assert final.count == seq.count

    def test_load_checkpoint_dir_rejects_empty(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint_set(tmp_path)

    def test_load_checkpoint_dir_rejects_mixed_queries(
        self, engine, tmp_path
    ):
        pattern = CATALOG["square"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        cp_dir = tmp_path / "shards"
        engine.match(
            pattern, "homomorphic", count_only=True, workers=2,
            max_embeddings=max(1, seq.count // 3),
            pool_checkpoint_dir=str(cp_dir),
        )
        shard = sorted(cp_dir.glob("shard-*.json"))[0]
        doc = json.loads(shard.read_text())
        doc["query"]["variant"] = "edge_induced"
        shard.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="query section differs"):
            engine.resume_pool(str(cp_dir), workers=2)

    def test_shard_checkpoints_are_standard_documents(
        self, engine, tmp_path
    ):
        # Every shard is an ordinary v1 repro-checkpoint, individually
        # loadable by the single-stream reader.
        pattern = CATALOG["square"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        cp_dir = tmp_path / "shards"
        engine.match(
            pattern, "homomorphic", count_only=True, workers=2,
            max_embeddings=max(1, seq.count // 3),
            pool_checkpoint_dir=str(cp_dir),
        )
        for shard in sorted(cp_dir.glob("shard-*.json")):
            doc = load_checkpoint(shard)
            assert doc["format"] == "repro-checkpoint"


# ---------------------------------------------------------------------------
# Observability: merged reports, monitor rows, progress
# ---------------------------------------------------------------------------
class TestPoolObservability:
    def test_result_carries_exact_shards_block(self, engine):
        pattern = CATALOG["square"]()
        result = engine.match(pattern, "homomorphic", count_only=True,
                              workers=2)
        block = result.shards
        assert block["count"] == len(block["workers"])
        assert len(block["counts"]) == block["count"]
        assert sum(block["counts"]) == result.count

    def test_resumed_pool_reports_checkpoint_shard(self, engine, tmp_path):
        # The confirmed prefix of a resumed pool is its own shard, so the
        # shard counts still sum exactly to the total.
        pattern = CATALOG["square"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        cp_dir = tmp_path / "shards"
        partial = engine.match(
            pattern, "homomorphic", count_only=True, workers=2,
            max_embeddings=max(1, seq.count // 3),
            pool_checkpoint_dir=str(cp_dir),
        )
        resumed = engine.resume_pool(str(cp_dir), workers=2,
                                     max_embeddings=None)
        block = resumed.shards
        assert block["workers"][0] == "checkpoint"
        assert block["counts"][0] == partial.count
        assert block["stop_reasons"][0] is None
        assert sum(block["counts"]) == resumed.count == seq.count

    def test_inline_path_counts_checkpoint_shard(self, engine):
        # The single-process fallback reports a resumed prefix the same
        # way the forked pool does.
        physical = engine.session.compile(
            CATALOG["square"](), "homomorphic"
        )
        result = _execute_inline(
            physical, MatchOptions(count_only=True), None,
            prior_emitted=5, prior_counters={"nodes": 7},
        )
        fresh = Runtime(MatchOptions(count_only=True))
        count_capped(physical, fresh)
        block = result.shards
        assert block["workers"] == ["checkpoint", "w0"]
        assert block["counts"] == [5, fresh.emitted]
        assert sum(block["counts"]) == result.count
        assert result.stats["nodes"] == 7 + fresh.nodes

    def test_run_report_includes_shards_and_validates(self, engine):
        pattern = CATALOG["square"]()
        obs = Observation(trace=True)
        result = engine.match(pattern, "homomorphic", count_only=True,
                              workers=2, obs=obs)
        obs.finish(result)
        report = build_run_report(result, engine="CSCE", obs=obs)
        validate_run_report(report)
        assert report["shards"]["counts"] == result.shards["counts"]

    def test_monitor_rows_and_progress(self, engine):
        pattern = CATALOG["square"]()
        obs = Observation(trace=False, heartbeat_interval=0.01)
        inspector = MatchInspector(None, obs).attach()
        result = engine.match(pattern, "homomorphic", count_only=True,
                              workers=2, obs=obs)
        inspector.finish(result)
        status = inspector.handle("status")
        rows = status["workers"]
        assert {row["worker"] for row in rows} == {"w0", "w1"}
        for row in rows:
            assert set(row) >= {"worker", "pid", "state", "units",
                                "emitted", "nodes"}
        assert status["emitted"] == result.count
        assert result.progress is not None
        assert result.progress["percent"] == 100.0
        report = build_run_report(result, engine="CSCE", obs=obs)
        assert inspector.handle("stats")["counters"] == report["counters"]
        # No stream to snapshot: pool checkpoints are written at stop time.
        with pytest.raises(InspectorError, match="needs a stream"):
            inspector.handle("checkpoint-now")

    def test_pool_beats_record_no_depth_sample(self, engine):
        # The parent's drive loop has no search frontier; its beats must
        # not pose as depth-0 samples.
        obs = Observation(trace=False, heartbeat_interval=0.0)
        engine.match(CATALOG["square"](), "homomorphic", count_only=True,
                     workers=2, obs=obs)
        assert obs.heartbeat.beats > 0
        assert obs.heartbeat.depth_histogram == {}

    def test_merged_stats_match_sequential_keys(self, engine):
        pattern = CATALOG["triangle"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        par = engine.match(pattern, "homomorphic", count_only=True,
                           workers=2)
        # Unified stats contract: same key set on every execution path.
        assert set(par.stats) == set(seq.stats)
        assert par.stats["nodes"] > 0
