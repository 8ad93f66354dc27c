"""Chaos suite: seeded fault injection against the streaming engine.

Every injected failure must surface as a typed :class:`repro.errors.ReproError`
subclass or a clean truncated result — never a corrupted count, a bare
``Exception``, or a poisoned session cache. CI runs this file under
pytest-timeout with faulthandler enabled (see the chaos job); locally it
needs no plugins.
"""

import pytest

from repro.core import CSCE
from repro.core.continuous import ContinuousMatcher
from repro.engine import (
    STOP_CANCELLED,
    Budget,
    CancelToken,
    ResourceGovernor,
)
from repro.errors import (
    ClusterReadError,
    MatchCancelled,
    ReproError,
    StoreError,
)
from repro.graph import Graph
from repro.testing import (
    FaultInjector,
    cancel,
    fail_cluster_read,
    faults,
    memory_spike,
    raise_error,
    slowdown,
)

from conftest import make_random_graph


@pytest.fixture
def graph():
    return make_random_graph(30, 85, num_labels=2, seed=7)


@pytest.fixture
def engine(graph):
    return CSCE(graph)


def square():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture(autouse=True)
def no_leaked_injector():
    yield
    assert faults.ACTIVE is None, "a test leaked an installed FaultInjector"


class TestInjectorMechanics:
    def test_fire_is_noop_without_injector(self):
        assert faults.fire("ccsr.read_cluster", key="x") is None

    def test_fired_counts_sites_without_rules(self, engine):
        injector = FaultInjector()
        with injector:
            engine.match(square())
        assert injector.fired["ccsr.read_cluster"] > 0
        assert injector.fired["engine.tick"] > 0

    def test_double_install_raises(self):
        first = FaultInjector().install()
        try:
            with pytest.raises(RuntimeError):
                FaultInjector().install()
        finally:
            first.uninstall()

    def test_probability_is_seeded_deterministic(self):
        def decisions(seed):
            injector = FaultInjector(seed=seed).on(
                "site", lambda r, s, c: True, probability=0.5
            )
            return [bool(injector.fire("site")) for _ in range(32)]

        assert decisions(42) == decisions(42)
        assert decisions(42) != decisions(43)

    def test_after_and_times_gating(self):
        hits = []
        injector = FaultInjector().on(
            "site", lambda r, s, c: hits.append(r.seen), after=2, times=2
        )
        for _ in range(6):
            injector.fire("site")
        assert hits == [3, 4]


class TestClusterReadFaults:
    def test_read_failure_is_typed_and_does_not_poison_engine(self, engine):
        reference = engine.match(square()).count
        # A fresh session forces the read phase (the original engine's
        # compiled-plan cache would skip the cluster reads entirely).
        fresh = CSCE(engine.store)
        with FaultInjector(seed=0).on("ccsr.read_cluster", fail_cluster_read):
            with pytest.raises(ClusterReadError) as exc:
                fresh.match(square())
        assert isinstance(exc.value, StoreError)
        assert isinstance(exc.value, ReproError)
        # The fault left no partial state behind: both the engine that
        # failed mid-read and the untouched one produce the exact count.
        assert fresh.match(square()).count == reference
        assert engine.match(square()).count == reference

    def test_read_failure_on_the_last_read(self, engine):
        # Probe how many cluster reads one fresh match performs, then
        # fail exactly the last one — the worst spot for leftover state.
        probe = FaultInjector()
        with probe:
            CSCE(engine.store).match(square())
        per_match = probe.fired["ccsr.read_cluster"]
        assert per_match >= 1
        injector = FaultInjector(seed=0).on(
            "ccsr.read_cluster", fail_cluster_read, after=per_match - 1
        )
        with injector:
            with pytest.raises(ClusterReadError):
                CSCE(engine.store).match(square())
        # The default RetryPolicy re-fires the failing site twice (three
        # attempts total) before letting the error escape.
        assert injector.fired["ccsr.read_cluster"] == per_match + 2

    def test_custom_error_factory(self, engine):
        class Bespoke(ReproError):
            pass

        with FaultInjector().on("ccsr.read_cluster", raise_error(Bespoke)):
            with pytest.raises(Bespoke):
                CSCE(engine.store).match(square())


class TestSlowdownFaults:
    def test_slowdown_preserves_counts(self, engine):
        reference = engine.match(square()).count
        with FaultInjector(seed=3).on(
            "engine.tick", slowdown(0.0005), times=5
        ):
            result = engine.match(square())
        assert result.count == reference
        assert result.stop_reason is None


class TestCancellationFaults:
    def test_midstream_cancel_yields_clean_truncated_result(self, engine):
        full = engine.match(square()).count
        token = CancelToken()
        gov = ResourceGovernor(cancel=token)
        with FaultInjector(seed=4).on(
            "engine.tick", cancel(token), after=5, times=1
        ):
            result = engine.match(square(), governor=gov)
        assert result.stop_reason == STOP_CANCELLED
        assert 0 <= result.count < full
        with pytest.raises(MatchCancelled) as exc:
            result.check()
        assert exc.value.partial_count == result.count

    def test_cancelled_embeddings_are_a_true_prefix(self, engine):
        full_set = {
            tuple(sorted(e.items()))
            for e in engine.match(square(), count_only=False).embeddings
        }
        token = CancelToken()
        gov = ResourceGovernor(cancel=token)
        with FaultInjector(seed=4).on(
            "engine.tick", cancel(token), after=8, times=1
        ):
            partial = list(engine.match_iter(square(), governor=gov))
        partial_set = {tuple(sorted(e.items())) for e in partial}
        assert len(partial_set) == len(partial)  # no duplicates
        assert partial_set <= full_set  # no fabricated embeddings

    def test_cancel_then_checkpoint_then_resume_exact(self, engine, tmp_path):
        # The chaos/checkpoint integration: an injected cancellation
        # suspends the stream, the auto-checkpoint captures it, and the
        # resumed run completes to the exact full count.
        full = engine.match(square()).count
        assert full > 0
        path = tmp_path / "ck.json"
        token = CancelToken()
        gov = ResourceGovernor(cancel=token)
        with FaultInjector(seed=4).on(
            "engine.tick", cancel(token), after=5, times=1
        ):
            stream = engine.match_iter(
                square(), governor=gov, checkpoint_path=path
            )
            emitted = len(list(stream))
        assert stream.stop_reason == STOP_CANCELLED
        assert path.exists()
        rest, resumed = list(engine.resume(path)), None
        resumed = emitted + len(rest)
        assert resumed == full


class TestMemoryPressureFaults:
    def test_ladder_never_corrupts_counts(self, engine):
        # Brief pressure degrades the run (memo evicted/disabled) but the
        # final count must equal the pristine run's count.
        reference = engine.match(square()).count
        gov = ResourceGovernor(budget=Budget(memory_limit_mb=256.0))
        with FaultInjector(seed=5).on(
            "governor.memory", memory_spike(10_000.0), times=1
        ):
            result = engine.match(square(), governor=gov)
        assert result.count == reference
        assert result.degradation  # the ladder did engage
        assert result.stop_reason is None

    def test_suspend_under_sustained_pressure(self, engine):
        gov = ResourceGovernor(budget=Budget(memory_limit_mb=256.0))
        with FaultInjector(seed=5).on(
            "governor.memory", memory_spike(10_000.0)
        ):
            result = engine.match(square(), governor=gov)
        assert result.stop_reason == "memory_limit"
        assert result.degradation[-1] == "suspend"


class TestContinuousUnderFaults:
    """Satellite: a tripped cancel token mid-delta must leave the
    continuous matcher fully reusable (store, total, plan cache)."""

    def _matcher(self):
        # Uniform labels so every pattern edge pins onto any data edge —
        # the delta always has work to cancel.
        graph = make_random_graph(30, 85, num_labels=1, seed=7)
        engine = CSCE(graph)
        token = CancelToken()
        gov = ResourceGovernor(cancel=token)
        p = Graph.from_edges(3, [(0, 1), (1, 2)])
        matcher = ContinuousMatcher(engine, p, governor=gov)
        free = next(
            (a, b)
            for a in range(graph.num_vertices)
            for b in range(a + 1, graph.num_vertices)
            if not graph.has_edge(a, b)
        )
        return matcher, token, engine, free

    def test_cancelled_insert_rolls_back_and_is_retryable(self):
        matcher, token, engine, (a, b) = self._matcher()
        baseline_total = matcher.total
        baseline_edges = engine.store.num_edges
        token.trip("chaos")
        with pytest.raises(MatchCancelled):
            matcher.insert(a, b)
        # Rolled back: store and standing total untouched.
        assert engine.store.num_edges == baseline_edges
        assert matcher.total == baseline_total
        # Clear the token and the same insert succeeds.
        token.clear()
        delta = matcher.insert(a, b)
        assert engine.store.num_edges == baseline_edges + 1
        assert matcher.total == baseline_total + delta.count
        # The matcher's total still agrees with a fresh full count.
        assert matcher.total == engine.count(matcher.pattern, matcher.variant)

    def test_cancelled_remove_leaves_store_untouched(self):
        matcher, token, engine, (a, b) = self._matcher()
        matcher.insert(a, b)
        baseline_total = matcher.total
        baseline_edges = engine.store.num_edges
        token.trip("chaos")
        with pytest.raises(MatchCancelled):
            matcher.remove(a, b)
        assert engine.store.num_edges == baseline_edges
        assert matcher.total == baseline_total
        token.clear()
        matcher.remove(a, b)
        assert engine.store.num_edges == baseline_edges - 1
        assert matcher.total == engine.count(matcher.pattern, matcher.variant)

    def test_injected_cancel_mid_delta(self):
        matcher, token, engine, (a, b) = self._matcher()
        baseline_total = matcher.total
        baseline_edges = engine.store.num_edges
        with FaultInjector(seed=6).on(
            "engine.tick", cancel(token), times=1
        ):
            with pytest.raises(MatchCancelled):
                matcher.insert(a, b)
        assert engine.store.num_edges == baseline_edges
        assert matcher.total == baseline_total
        token.clear()
        matcher.insert(a, b)
        assert matcher.total == engine.count(matcher.pattern, matcher.variant)

    @pytest.mark.parametrize("site", ["engine.tick", "ccsr.read_cluster"])
    def test_failed_insert_rolls_back(self, site):
        """An insert whose delta raises instead of stopping, in its search
        (``engine.tick``) or while it plans a pin-first plan (a cluster
        read that outlasts its retries), is rolled back: the store and
        ``total`` are as before, and the same insert then succeeds."""
        engine = CSCE(Graph.from_edges(30, [(i, i + 1) for i in range(29)]))
        matcher = ContinuousMatcher(engine, Graph.from_edges(
            4, [(0, 1), (1, 2), (2, 3)]
        ))
        assert matcher.total == 54
        edges = engine.store.num_edges
        injector = FaultInjector(seed=8).on(
            site, raise_error(lambda: ClusterReadError("injected"))
        )
        with injector, pytest.raises(ClusterReadError):
            matcher.insert(3, 7)
        assert injector.fired[site] > 0
        assert engine.store.num_edges == edges
        assert matcher.total == 54 == engine.count(matcher.pattern)
        delta = matcher.insert(3, 7)
        assert engine.store.num_edges == edges + 1
        assert matcher.total == 54 + delta.count == engine.count(
            matcher.pattern
        ) == 70


class TestSessionCacheConsistency:
    def test_cache_survives_fault_storm(self, engine):
        # Each pattern's first compile fails mid-read (nothing cached);
        # the clean retry must compile, cache, and count correctly, and a
        # cache hit afterwards must agree.
        patterns = [
            Graph.from_edges(3, [(0, 1), (1, 2)]),
            square(),
            Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]),
        ]
        for seed, p in enumerate(patterns):
            with FaultInjector(seed=seed).on(
                "ccsr.read_cluster", fail_cluster_read
            ):
                with pytest.raises(ClusterReadError):
                    engine.match(p)
            clean = engine.match(p).count
            assert engine.match(p).count == clean  # cache hit agrees
            assert CSCE(engine.store).match(p).count == clean
