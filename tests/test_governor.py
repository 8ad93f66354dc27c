"""Tests for the resource governor: unified budgets, the cooperative
cancel token, the memory degradation ladder, and the stop-reason /
partial-count contract shared by every execution path."""

import tracemalloc

import pytest

from repro.core import CSCE
from repro.engine import (
    STOP_CANCELLED,
    STOP_EMBEDDING_LIMIT,
    STOP_MEMORY_LIMIT,
    STOP_TIME_LIMIT,
    Budget,
    CancelToken,
    ResourceGovernor,
)
from repro.engine.governor import (
    DEGRADE_DISABLE,
    DEGRADE_EVICT,
    DEGRADE_SUSPEND,
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
        assert gov.effective_deadline(None) is not None
        # The per-run option is tighter than the budget here.
        import time

        tight = gov.effective_deadline(0.001)
        assert tight - time.perf_counter() < 1.0

    def test_effective_cap_takes_min(self):
        gov = ResourceGovernor(budget=Budget(max_embeddings=10))
        assert gov.effective_cap(None) == 10
        assert gov.effective_cap(3) == 3
        assert ResourceGovernor().effective_cap(None) is None


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


class TestFactorizedStopConsistency:
    """Satellite: LimitExceeded.partial_count must agree with the result
    count on the factorized (count-only) path, including a time-limit trip
    inside the ``_PROD`` stack machine."""

    def _factorizing_task(self):
        # A star pattern over a random graph factorizes into independent
        # leaf regions (the _PROD frames of the counter).
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
        # guarantees the deadline trips mid-count, inside _SEQ/_PROD
        # frames rather than before the first one.
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
            gov.check(0, degradation, _EvictableMemo())
        assert degradation[climbed] == DEGRADATION_LADDER[stage]
