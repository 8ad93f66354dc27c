"""Tests for the resource governor: unified budgets, the cooperative
cancel token, the memory degradation ladder, and the stop-reason /
partial-count contract shared by every execution path."""

import tracemalloc

import pytest

from repro.core import CSCE
from repro.core.continuous import ContinuousMatcher
from repro.engine import (
    STOP_CANCELLED,
    STOP_EMBEDDING_LIMIT,
    STOP_MEMORY_LIMIT,
    STOP_TIME_LIMIT,
    Budget,
    CancelToken,
    MatchOptions,
    ResourceGovernor,
    load_checkpoint,
)
from repro.engine.candidates import CandidateComputer
from repro.engine.governor import (
    DEGRADE_DISABLE,
    DEGRADE_EVICT,
    DEGRADE_SUSPEND,
    RunLimits,
    run_limits,
)
from repro.errors import (
    EmbeddingLimitExceeded,
    MatchCancelled,
    MemoryLimitExceeded,
    TimeLimitExceeded,
)
from repro.graph import Graph
from repro.obs import Observation
from repro.obs.catalog import DEGRADATION_LADDER, ladder_stage
from repro.testing import FaultInjector, memory_spike, slowdown

from conftest import make_random_graph


@pytest.fixture
def graph():
    return make_random_graph(30, 80, num_labels=2, seed=3)


@pytest.fixture
def engine(graph):
    return CSCE(graph)


def square():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


class TestBudget:
    def test_default_is_unlimited(self):
        assert Budget().unlimited
        assert not Budget(time_limit=1.0).unlimited
        assert not Budget(memory_limit_mb=64.0).unlimited

    def test_effective_deadline_takes_tighter_limit(self):
        gov = ResourceGovernor(budget=Budget(time_limit=100.0))
        limits = run_limits(MatchOptions(governor=gov))
        assert limits.deadline is not None and limits.time_limit == 100.0
        # The per-run option is tighter than the budget here.
        import time

        tight = run_limits(MatchOptions(time_limit=0.001, governor=gov))
        assert tight.deadline - time.perf_counter() < 1.0
        assert tight.time_limit == 0.001
        assert run_limits(MatchOptions()) == RunLimits()

    def test_effective_cap_takes_min(self):
        gov = ResourceGovernor(budget=Budget(max_embeddings=10))
        assert run_limits(MatchOptions(governor=gov)).cap == 10
        assert run_limits(MatchOptions(max_embeddings=3, governor=gov)).cap == 3
        assert run_limits(MatchOptions(governor=ResourceGovernor())).cap is None


class TestGovernedRuns:
    def test_unlimited_governor_is_transparent(self, engine):
        p = square()
        plain = engine.match(p, "edge_induced")
        governed = engine.match(p, "edge_induced", governor=ResourceGovernor())
        assert governed.count == plain.count
        assert governed.stop_reason is None
        assert governed.degradation == []
        governed.check()  # no-op on complete runs

    def test_budget_embedding_cap(self, engine):
        gov = ResourceGovernor(budget=Budget(max_embeddings=5))
        result = engine.match(square(), "edge_induced", governor=gov)
        assert result.count == 5
        assert result.stop_reason == STOP_EMBEDDING_LIMIT
        assert result.truncated  # legacy flag stays in sync
        with pytest.raises(EmbeddingLimitExceeded) as exc:
            result.check()
        assert exc.value.partial_count == result.count

    def test_budget_time_limit_sets_timed_out(self, engine):
        gov = ResourceGovernor(budget=Budget(time_limit=0.0))
        with FaultInjector(seed=0).on("engine.tick", slowdown(0.001)):
            result = engine.match(square(), "edge_induced", governor=gov)
        assert result.stop_reason == STOP_TIME_LIMIT
        assert result.timed_out
        with pytest.raises(TimeLimitExceeded) as exc:
            result.check()
        assert exc.value.partial_count == result.count

    def test_pretripped_token_returns_empty_valid_result(self, engine):
        token = CancelToken()
        token.trip("test")
        gov = ResourceGovernor(cancel=token)
        result = engine.match(square(), "edge_induced", governor=gov)
        assert result.count == 0
        assert result.stop_reason == STOP_CANCELLED
        assert not result.truncated and not result.timed_out
        with pytest.raises(MatchCancelled):
            result.check()

    def test_token_clear_rearms_for_next_run(self, engine):
        token = CancelToken()
        token.trip()
        gov = ResourceGovernor(cancel=token)
        p = square()
        assert engine.match(p, governor=gov).stop_reason == STOP_CANCELLED
        token.clear()
        reran = engine.match(p, governor=gov)
        assert reran.stop_reason is None
        assert reran.count == engine.match(p).count


class TestSharedGovernor:
    """A governor serves many runs: each enforces its own record, and a
    tightening narrows the live run and every later one."""

    def test_interleaved_streams_keep_their_own_limits(self, engine, tmp_path):
        p = square()
        full = engine.match(p, "edge_induced").count
        assert full > 3
        gov = ResourceGovernor()
        path = tmp_path / "capped.ck.json"
        capped = engine.match_iter(
            p, max_embeddings=3, governor=gov, checkpoint_path=path
        )
        timed = engine.match_iter(p, time_limit=1e-9, governor=gov)
        uncapped = engine.match_iter(p, governor=gov)
        next(capped)
        # The other streams start (and resolve their limits) in between.
        assert list(timed) == []
        assert timed.stop_reason == STOP_TIME_LIMIT
        assert len(list(uncapped)) == full and uncapped.stop_reason is None
        assert 1 + len(list(capped)) == 3
        assert capped.stop_reason == STOP_EMBEDDING_LIMIT
        # The capped stream's checkpoint stores its own limits.
        assert load_checkpoint(path)["limits"] == {
            "max_embeddings": 3, "time_limit": None,
        }

    def test_tightening_before_a_run_caps_it(self, engine):
        gov = ResourceGovernor()
        gov.tighten(max_embeddings=5)
        result = engine.match(square(), "edge_induced", governor=gov)
        assert result.count == 5
        assert result.stop_reason == STOP_EMBEDDING_LIMIT
        # Counting mode (the factorized-count eligibility test) too.
        counted = engine.match(
            square(), "homomorphic", count_only=True, governor=gov
        )
        assert counted.count == 5
        assert counted.stop_reason == STOP_EMBEDDING_LIMIT

    def test_tightening_holds_across_continuous_deltas(self):
        graph = make_random_graph(30, 85, num_labels=1, seed=7)
        engine = CSCE(graph)
        gov = ResourceGovernor()
        matcher = ContinuousMatcher(
            engine, Graph.from_edges(3, [(0, 1), (1, 2)]), governor=gov
        )
        free = [
            (a, b)
            for a in range(graph.num_vertices)
            for b in range(a + 1, graph.num_vertices)
            if not graph.has_edge(a, b)
        ]
        gov.tighten(max_embeddings=1)
        # Every delta of a path on a uniform-label graph has more than
        # one embedding, so each insert stops at the tightened cap.
        for a, b in free[:2]:
            with pytest.raises(EmbeddingLimitExceeded):
                matcher.insert(a, b)
        assert matcher.total == engine.count(matcher.pattern, matcher.variant)


class TestDegradationLadder:
    def _pressured(self, engine, times=None):
        """Run with simulated memory pressure at every governor sample."""
        obs = Observation()
        token = CancelToken()
        # The limit is far above the real (tiny) test heap; only the
        # injected 10 GB spike breaches it, so `times` controls exactly
        # how many samples see pressure.
        gov = ResourceGovernor(
            budget=Budget(memory_limit_mb=256.0), cancel=token, obs=obs
        )
        injector = FaultInjector(seed=1).on(
            "governor.memory", memory_spike(10_000.0), times=times
        )
        with injector:
            result = engine.match(square(), "edge_induced", governor=gov)
        return result, obs

    def test_persistent_pressure_climbs_to_suspend(self, engine):
        result, obs = self._pressured(engine)
        assert result.degradation == [
            DEGRADE_EVICT, DEGRADE_DISABLE, DEGRADE_SUSPEND,
        ]
        assert result.stop_reason == STOP_MEMORY_LIMIT
        counters = obs.counters.snapshot()
        assert counters.get("governor_evictions") == 1
        assert counters.get("governor_memo_disabled") == 1
        assert counters.get("governor_suspensions") == 1
        with pytest.raises(MemoryLimitExceeded) as exc:
            result.check()
        assert exc.value.partial_count == result.count

    def test_relieved_pressure_completes_with_correct_count(self, engine):
        # Pressure for exactly one sample: with an empty memo the ladder
        # climbs straight to disable_memo (nothing to evict), pressure
        # lifts, and the run finishes exhaustively with the memo off —
        # same count, degraded mode.
        full = engine.match(square(), "edge_induced").count
        result, _ = self._pressured(engine, times=1)
        assert result.stop_reason is None
        assert result.count == full
        assert result.degradation == [DEGRADE_EVICT, DEGRADE_DISABLE]

    def test_tracing_ownership(self):
        assert not tracemalloc.is_tracing()
        gov = ResourceGovernor(budget=Budget(memory_limit_mb=64.0))
        gov.ensure_tracing()
        assert tracemalloc.is_tracing()
        gov.release()
        assert not tracemalloc.is_tracing()
        # Without a memory budget, tracing never starts.
        plain = ResourceGovernor()
        plain.ensure_tracing()
        assert not tracemalloc.is_tracing()

    def test_does_not_stop_foreign_tracing(self):
        tracemalloc.start()
        try:
            gov = ResourceGovernor(budget=Budget(memory_limit_mb=64.0))
            gov.ensure_tracing()
            gov.release()
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()


    @pytest.mark.parametrize("tracing", [False, True], ids=["off", "on"])
    def test_count_physical_leaves_tracing_as_it_found_it(self, tracing):
        """A direct ``count_physical`` caller whose governor has a memory
        ceiling gets tracemalloc back as it was: the counter's runtime
        releases what it started, and stops no foreign tracing."""
        from repro.engine import count_physical

        engine = CSCE(make_random_graph(12, 30, seed=4))
        physical = engine.session.compile(square(), "edge_induced").physical
        if tracing:
            tracemalloc.start()
        try:
            runtime = count_physical(
                physical,
                MatchOptions(
                    count_only=True,
                    governor=ResourceGovernor(
                        budget=Budget(memory_limit_mb=512.0)
                    ),
                ),
            )
            assert runtime.emitted == engine.count(square())
            assert tracemalloc.is_tracing() == tracing
        finally:
            if tracing:
                tracemalloc.stop()

class TestFactorizedStopConsistency:
    """Satellite: LimitExceeded.partial_count must agree with the result
    count on the factorized (count-only) path, including a time-limit trip
    inside a product node of the counter's region program."""

    def _factorizing_task(self):
        # A star pattern over a random graph factorizes into independent
        # leaf regions (a PROD node of the counter's region program).
        graph = make_random_graph(40, 120, num_labels=1, seed=11)
        star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        return CSCE(graph), star

    def test_factorized_path_is_used(self):
        engine, star = self._factorizing_task()
        result = engine.match(star, "homomorphic", count_only=True)
        assert result.stats.get("factorizations", 0) > 0
        assert result.stop_reason is None

    def test_time_limit_inside_prod_reports_consistent_partial(self):
        engine, star = self._factorizing_task()
        # Dense ticking (injector installed) + a slowdown on every tick
        # guarantees the deadline trips mid-count, inside SEQ/PROD
        # nodes rather than before the first one.
        with FaultInjector(seed=2).on("engine.tick", slowdown(0.002), after=3):
            result = engine.match(
                star, "homomorphic", count_only=True, time_limit=0.004,
            )
        full = engine.match(star, "homomorphic", count_only=True).count
        assert result.stop_reason == STOP_TIME_LIMIT
        assert result.timed_out
        # The partial count is a committed prefix: never an overcount.
        assert 0 <= result.count <= full
        with pytest.raises(TimeLimitExceeded) as exc:
            result.check()
        assert exc.value.partial_count == result.count

    def test_midrun_cap_tightening_stops_the_counter(self):
        # The counter runs on the executor's Runtime, so an embedding cap
        # tightened mid-run (the inspector's `budget` command) stops it
        # through the same contract as every other path.
        engine, star = self._factorizing_task()
        governor = ResourceGovernor()

        def tighten(rule, site, ctx):
            governor.tighten(max_embeddings=1)

        with FaultInjector(seed=2).on("engine.tick", tighten, after=3):
            result = engine.match(
                star, "homomorphic", count_only=True, governor=governor
            )
        full = engine.match(star, "homomorphic", count_only=True).count
        assert result.stop_reason == STOP_EMBEDDING_LIMIT
        assert result.truncated
        assert 1 <= result.count < full
        with pytest.raises(EmbeddingLimitExceeded) as exc:
            result.check()
        assert exc.value.partial_count == result.count


class TestLadderReachesRegionMemo:
    """The factorized counter's region memo lives on the candidate
    computer, so both memory-ladder rungs act on it too."""

    def test_disable_memo_clears_and_stops_the_region_memo(self):
        from repro.engine.counting import FactorizedCounter

        graph = make_random_graph(60, 400, num_labels=1, seed=3)
        pattern = Graph.from_edges(6, [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5)])
        physical = CSCE(graph).session.compile(pattern, "homomorphic").physical
        full = FactorizedCounter(physical, MatchOptions(count_only=True))
        expected = full.count()
        assert full.runtime.computer.region_memo
        governor = ResourceGovernor(budget=Budget(memory_limit_mb=500.0))
        injector = FaultInjector().on(
            "governor.memory", memory_spike(10_000.0), after=5, times=2
        )
        try:
            with injector:
                counter = FactorizedCounter(
                    physical, MatchOptions(count_only=True, governor=governor)
                )
                count = counter.count()
        finally:
            # The run's Runtime started tracemalloc for the ceiling; a
            # direct counter caller owns the release.
            governor.release()
        runtime = counter.runtime
        assert runtime.degradation == [DEGRADE_EVICT, DEGRADE_DISABLE]
        assert runtime.stop_reason is None
        assert count == expected
        assert runtime.factorizations > 0
        # Both memos are empty and stayed empty for the rest of the run.
        assert runtime.computer.memo_size == 0
        assert runtime.computer.region_memo == {}

    def test_evict_halves_the_region_memo(self):
        computer = CandidateComputer()
        computer.region_memo.update({(node,): node for node in range(10)})
        assert computer.evict(0.5) == 5
        assert list(computer.region_memo) == [(node,) for node in range(5, 10)]


class _EvictableMemo:
    """A candidate computer whose memo always has something to evict, so
    each breach climbs exactly one rung."""

    def evict(self, fraction):
        return 1

    def disable_memo(self):
        pass


class TestLadderStage:
    @pytest.mark.parametrize("climbed", range(len(DEGRADATION_LADDER) + 1))
    def test_ladder_stage_names_the_rung_check_climbs(self, climbed):
        # The inspector's gov_stage and the governor's next rung are read
        # off the same ladder events: on every prefix of the ladder, the
        # rung one breach appends is the one ladder_stage points at.
        degradation = list(DEGRADATION_LADDER[:climbed])
        stage = ladder_stage(degradation)
        # Each climbed rung moves one up; a suspended run stays on the
        # last rung.
        assert stage == min(climbed, len(DEGRADATION_LADDER) - 1)
        gov = ResourceGovernor(budget=Budget(memory_limit_mb=256.0))
        injector = FaultInjector(seed=1).on(
            "governor.memory", memory_spike(10_000.0), times=1
        )
        with injector:
            gov.check(gov.limits, 0, degradation, _EvictableMemo())
        assert degradation[climbed] == DEGRADATION_LADDER[stage]
