"""Tests for the physical-operator engine (``repro.engine``).

Covers the logical->physical compiler, the iterative streaming executor,
the :class:`~repro.engine.MatchSession` compiled-plan cache, and the
satellite fixes riding on the engine PR (throughput epsilon, plan-time
clamp, seed+restriction interaction).
"""

import sys
import time

import pytest

from repro.core import CSCE, Variant
from repro.engine import (
    MIN_THROUGHPUT_ELAPSED,
    CandidateComputer,
    EmbeddingStream,
    MatchOptions,
    MatchResult,
    MatchSession,
    Runtime,
    SearchState,
    compile_plan,
    count_capped,
    count_physical,
    execute_physical,
    stream,
)
from repro.engine.executor import specialize
from repro.errors import PlanError
from repro.graph import Graph

from conftest import brute_count, make_random_graph


@pytest.fixture
def random_graph():
    return make_random_graph(20, 45, num_labels=2, seed=9)


@pytest.fixture
def engine(random_graph):
    return CSCE(random_graph)


def small_pattern():
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


class TestCompiler:
    def test_one_op_per_order_position(self, engine):
        p = small_pattern()
        plan = engine.build_plan(p, "edge_induced")
        physical = compile_plan(plan)
        assert len(physical.ops) == p.num_vertices
        assert [op.pos for op in physical.ops] == list(range(p.num_vertices))
        assert list(physical.order) == [op.u for op in physical.ops]

    def test_spec_interning_shares_nec_vertices(self, engine):
        # A star pattern: the leaves are NEC-equivalent and must intern to
        # one candidate spec.
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        plan = engine.build_plan(star, "homomorphic")
        physical = compile_plan(plan)
        assert physical.num_specs < len(physical.ops)

    def test_restriction_slots_attach_to_later_position(self, engine):
        p = small_pattern()
        plan = engine.build_plan(p, "edge_induced")
        physical = compile_plan(plan, restrictions=((0, 1),))
        position = {op.u: op.pos for op in physical.ops}
        later = max((0, 1), key=lambda u: position[u])
        slots = physical.ops[position[later]].restrictions
        assert len(slots) == 1
        other, candidate_is_smaller = slots[0]
        # candidate_is_smaller is set exactly when the later vertex is the
        # smaller side of f(u) < f(v).
        assert candidate_is_smaller == (later == 0)
        assert other == (1 if later == 0 else 0)

    def test_invalid_restriction_rejected(self, engine):
        plan = engine.build_plan(small_pattern(), "edge_induced")
        with pytest.raises(PlanError):
            compile_plan(plan, restrictions=((1, 1),))
        with pytest.raises(PlanError):
            compile_plan(plan, restrictions=((0, 7),))

    def test_with_seed_pins_ops(self, engine):
        plan = engine.build_plan(small_pattern(), "edge_induced")
        physical = compile_plan(plan)
        assert not physical.has_pins
        pinned = physical.with_seed({0: 3})
        assert pinned.has_pins
        position = {op.u: op.pos for op in pinned.ops}
        assert pinned.ops[position[0]].pin == 3
        # Rebinding back to no-seed state reuses the same compiled ops.
        assert pinned.logical is physical.logical

    def test_plan_seconds_clamped_nonnegative(self, engine):
        plan = engine.build_plan(small_pattern(), "edge_induced")
        assert plan.plan_seconds >= 0.0
        physical = compile_plan(plan)
        assert physical.compile_seconds >= 0.0
        result = execute_physical(physical, MatchOptions(count_only=True))
        assert result.plan_seconds >= 0.0


class TestIterativeExecutor:
    def test_counts_match_brute_force(self, random_graph, engine):
        p = small_pattern()
        for variant in ("edge_induced", "vertex_induced", "homomorphic"):
            plan = engine.build_plan(p, variant)
            result = execute_physical(
                compile_plan(plan), MatchOptions(count_only=True)
            )
            assert result.count == brute_count(random_graph, p, variant)

    def test_deep_pattern_no_recursion_limit(self):
        # A 300-vertex path through a 600-vertex path graph: the old
        # recursive executor needed sys.setrecursionlimit for this; the
        # iterative engine runs it under the default limit.
        n = 600
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        depth = 300
        p = Graph.from_edges(depth, [(i, i + 1) for i in range(depth - 1)])
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(1000)
            result = CSCE(g).match(p, "edge_induced", count_only=True)
        finally:
            sys.setrecursionlimit(limit)
        # Contiguous segments of the long path, in either direction.
        assert result.count == 2 * (n - depth + 1)

    @pytest.mark.parametrize("case", ["plain", "restriction", "seed", "cap"])
    @pytest.mark.parametrize(
        "variant", ["edge_induced", "vertex_induced", "homomorphic"]
    )
    def test_count_capped_equals_stream_drain(self, engine, variant, case):
        # Count mode and stream mode are one frame machine: the same run
        # must end with the same count, stats, stop and frame stack.
        p = small_pattern()
        physical = compile_plan(engine.build_plan(p, variant))
        options = MatchOptions(count_only=True)
        if case == "restriction":
            options = MatchOptions(count_only=True, restrictions=((0, 1),))
        elif case == "seed":
            with EmbeddingStream(physical) as s:
                first = next(s)
            options = MatchOptions(count_only=True, seed={0: first[0]})
        elif case == "cap":
            options = MatchOptions(count_only=True, max_embeddings=3)
        physical = specialize(physical, options)

        def run(emit):
            runtime = Runtime(physical, options)
            state = SearchState.fresh(len(physical.ops))
            if emit:
                count = sum(1 for _ in stream(physical, runtime, state))
            else:
                count = count_capped(physical, runtime, state)
            return count, runtime.stats(), runtime.stop_reason, state.to_payload()

        counted, drained = run(emit=False), run(emit=True)
        assert counted == drained
        assert counted[0] > 0
        if case == "cap":
            assert counted[0] == 3 and counted[2] == "embedding_limit"
        else:
            assert counted[2] is None

    def test_capped_count_resumes_as_stream(self, random_graph, engine):
        p = small_pattern()
        physical = compile_plan(engine.build_plan(p, "edge_induced"))
        runtime = Runtime(physical, MatchOptions(count_only=True, max_embeddings=3))
        state = SearchState.fresh(len(physical.ops))
        head = count_capped(physical, runtime, state)
        assert head == 3 and runtime.stop_reason == "embedding_limit"
        tail = sum(1 for _ in stream(physical, Runtime(physical, MatchOptions()), state))
        assert head + tail == brute_count(random_graph, p, "edge_induced")

    @pytest.mark.parametrize("path", ["factorized", "capped", "stream"])
    def test_tick_stop_computes_nothing_more(self, monkeypatch, path):
        # A tick that stops the run must end it before that node's
        # candidate set is computed, on every execution path.
        monkeypatch.setattr("repro.engine.executor._TIME_CHECK_INTERVAL", 4)
        n = 16
        clique = CSCE(
            Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        )
        p = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        options = {"use_sce": False, "time_limit": 1e-9}
        if path == "stream":
            with clique.match_iter(p, "edge_induced", **options) as s:
                list(s)
            result = s.result()
        else:
            cap = 10**12 if path == "capped" else None
            result = clique.match(
                p, "edge_induced", count_only=True, max_embeddings=cap, **options
            )
        assert result.stop_reason == "time_limit"
        assert result.stats["computed"] == result.stats["nodes"] - 1


class TestStreaming:
    def test_lazy_consumption(self, engine):
        p = small_pattern()
        stream = engine.match_iter(p, "edge_induced")
        first = next(stream)
        assert sorted(first) == [0, 1, 2]
        # Only one embedding of work was done.
        assert stream.count == 1
        stream.close()

    def test_stream_total_matches_match(self, engine):
        p = small_pattern()
        expected = engine.count(p, "edge_induced")
        with engine.match_iter(p, "edge_induced") as stream:
            embeddings = list(stream)
        assert len(embeddings) == expected
        assert stream.result().count == expected

    def test_cooperative_max_embeddings(self, engine):
        p = small_pattern()
        total = engine.count(p, "edge_induced")
        assert total > 2
        with engine.match_iter(p, "edge_induced", max_embeddings=2) as s:
            got = list(s)
        assert len(got) == 2
        assert s.truncated and not s.timed_out

    def test_cooperative_time_limit(self, engine, monkeypatch):
        monkeypatch.setattr("repro.engine.executor._TIME_CHECK_INTERVAL", 1)
        n = 40
        g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        p = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        with CSCE(g).match_iter(p, "homomorphic", time_limit=1e-9) as s:
            list(s)
        assert s.timed_out
        assert s.result().timed_out

    def test_stream_embeddings_are_valid(self, random_graph, engine):
        p = small_pattern()
        for m in engine.match_iter(p, "edge_induced"):
            for e in p.edges():
                assert random_graph.has_edge(m[e.src], m[e.dst])


class TestMatchSession:
    def test_cache_hit_on_repeat(self, random_graph):
        session = MatchSession(random_graph)
        p = small_pattern()
        first = session.compile(p, Variant.EDGE_INDUCED)
        second = session.compile(p, Variant.EDGE_INDUCED)
        assert not first.cached and second.cached
        assert second.physical is first.physical
        assert session.cache_info["hits"] == 1

    def test_distinct_keys_miss(self, random_graph):
        session = MatchSession(random_graph)
        p = small_pattern()
        session.compile(p, Variant.EDGE_INDUCED)
        session.compile(p, Variant.HOMOMORPHIC)
        session.compile(p, Variant.EDGE_INDUCED, restrictions=((0, 1),))
        assert session.cache_info["misses"] == 3

    def test_store_mutation_invalidates(self, random_graph):
        session = MatchSession(random_graph)
        p = small_pattern()
        before = session.compile(p, Variant.EDGE_INDUCED)
        v = session.store.insert_vertex(0)
        session.store.insert_edge(0, v, None, False)
        after = session.compile(p, Variant.EDGE_INDUCED)
        # Version bump changed the key: the stale compiled plan (holding
        # references to rebuilt clusters) must not be reused.
        assert not after.cached
        assert after.physical is not before.physical

    def test_lru_eviction(self, random_graph):
        session = MatchSession(random_graph, cache_size=1)
        tri = small_pattern()
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        session.compile(tri, Variant.EDGE_INDUCED)
        session.compile(path, Variant.EDGE_INDUCED)
        assert not session.compile(tri, Variant.EDGE_INDUCED).cached

    def test_structural_fingerprint_shares_plans(self, random_graph):
        session = MatchSession(random_graph)
        a = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        b = Graph.from_edges(3, [(1, 2), (0, 2), (0, 1)])  # same edges
        session.compile(a, Variant.EDGE_INDUCED)
        assert session.compile(b, Variant.EDGE_INDUCED).cached


class TestSeedRestrictionInteraction:
    """Satellite: a seeded vertex that violates an ``f(u) < f(v)``
    restriction must yield zero embeddings on every execution path."""

    @pytest.fixture
    def setup(self, engine):
        p = small_pattern()
        base = engine.match(p, "edge_induced")
        # Pick an embedding and seed u0 at its u1-image: under the
        # restriction f(0) < f(1) the seed admits strictly fewer (possibly
        # zero) embeddings; pin both to force a violation.
        some = base.embeddings[0]
        return p, some

    def test_violating_seed_zero_embeddings_enumeration(self, engine, setup):
        p, some = setup
        hi, lo = max(some[0], some[1]), min(some[0], some[1])
        seed = {0: hi, 1: lo}  # f(0) > f(1) violates (0, 1)
        result = engine.match(
            p, "edge_induced", restrictions=[(0, 1)], seed=seed
        )
        assert result.count == 0
        assert result.embeddings == []

    def test_violating_seed_zero_embeddings_streaming(self, engine, setup):
        p, some = setup
        hi, lo = max(some[0], some[1]), min(some[0], some[1])
        seed = {0: hi, 1: lo}
        with engine.match_iter(
            p, "edge_induced", restrictions=[(0, 1)], seed=seed
        ) as s:
            assert list(s) == []

    def test_violating_seed_zero_count_counting_path(self, engine, setup):
        p, some = setup
        hi, lo = max(some[0], some[1]), min(some[0], some[1])
        seed = {0: hi, 1: lo}
        result = engine.match(
            p, "edge_induced", count_only=True,
            restrictions=[(0, 1)], seed=seed,
        )
        assert result.count == 0

    def test_satisfying_seed_respects_restriction(self, engine, setup):
        p, _ = setup
        unrestricted = engine.match(p, "edge_induced", restrictions=[(0, 1)])
        for m in unrestricted.embeddings:
            seeded = engine.match(
                p, "edge_induced", restrictions=[(0, 1)],
                seed={0: m[0], 1: m[1]},
            )
            assert seeded.count >= 1
            for got in seeded.embeddings:
                assert got[0] < got[1]


class TestThroughputEpsilon:
    """Satellite: instant nonzero-count runs must report positive
    throughput instead of 0.0."""

    def test_zero_elapsed_nonzero_count(self):
        result = MatchResult(
            count=5, variant=Variant.EDGE_INDUCED, embeddings=None,
            elapsed=0.0,
        )
        assert result.throughput == 5 / MIN_THROUGHPUT_ELAPSED
        assert result.throughput > 0

    def test_zero_count_stays_zero(self):
        result = MatchResult(
            count=0, variant=Variant.EDGE_INDUCED, embeddings=None,
            elapsed=0.0,
        )
        assert result.throughput == 0.0

    def test_normal_elapsed_unchanged(self):
        result = MatchResult(
            count=10, variant=Variant.EDGE_INDUCED, embeddings=None,
            elapsed=2.0,
        )
        assert result.throughput == pytest.approx(5.0)


class TestFactorizedCountingParity:
    def test_count_physical_matches_enumeration(self, random_graph, engine):
        p = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        plan = engine.build_plan(p, "homomorphic")
        physical = compile_plan(plan)
        total, stats, stop_reason, degradation, progress = count_physical(
            physical, MatchOptions(count_only=True)
        )
        enumerated = execute_physical(
            physical, MatchOptions(count_only=True, max_embeddings=10**9)
        ).count
        assert total == enumerated
        assert stop_reason is None
        assert degradation == []
        assert progress is None  # no observation, no estimator
        assert stats["nodes"] >= 0

    def test_compile_seconds_in_result(self, engine):
        result = engine.match(small_pattern(), "edge_induced", count_only=True)
        assert result.compile_seconds >= 0.0
        assert result.total_seconds >= result.compile_seconds


class TestSCEReportObs:
    """Satellite: ``sce_report`` routes the engine's obs through the
    cluster read, so the read span appears."""

    def test_read_span_emitted(self, random_graph):
        from repro.obs import Observation

        obs = Observation(trace=True)
        engine = CSCE(random_graph, obs=obs)
        engine.sce_report(small_pattern())
        assert obs.tracer.find("read") is not None


class TestCandidateComputerMemo:
    def test_memo_hit_on_shared_spec(self, engine):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        plan = engine.build_plan(star, "homomorphic")
        physical = compile_plan(plan)
        computer = CandidateComputer(physical)
        op = physical.ops[1]
        assignment = [None] * physical.num_vertices
        for prior in op.priors:
            assignment[prior] = 0
        computer.raw(op, assignment)
        computer.raw(op, assignment)
        assert computer.stats.memo_hits >= 1


class TestLayering:
    def test_engine_does_not_import_cli_or_bench(self):
        import subprocess

        check = (
            "import sys, repro.engine; "
            "assert 'repro.cli' not in sys.modules, 'cli leaked'; "
            "assert not any(m.startswith('repro.bench') for m in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", check],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=".",
        )
        assert proc.returncode == 0, proc.stderr
