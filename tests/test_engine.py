"""Tests for the physical-operator engine (``repro.engine``).

Covers the logical->physical compiler, the iterative streaming executor,
the :class:`~repro.engine.MatchSession` compiled-plan cache, and the
satellite fixes riding on the engine PR (throughput epsilon, plan-time
clamp, seed+restriction interaction).
"""

import random
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
import repro.engine.executor as executor_module
from repro.engine.results import STOP_EMBEDDING_LIMIT
from repro.errors import PlanError
from repro.graph import Graph
from repro.graph.patterns import CATALOG
from repro.testing import FaultInjector, slowdown

from conftest import brute_count, make_random_graph


@pytest.fixture
def random_graph():
    return make_random_graph(20, 45, num_labels=2, seed=9)


@pytest.fixture
def engine(random_graph):
    return CSCE(random_graph)


def small_pattern():
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


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

    def test_with_seed_binds_without_copying(self, engine):
        # A seed binds to the run: with_seed returns the checked binding
        # and the plan keeps its ops and cached regions, so every pinned
        # run shares them.
        physical = compile_plan(engine.build_plan(small_pattern(), "edge_induced"))
        ops, regions = physical.ops, physical.regions
        pins = physical.with_seed({0: 3}, engine.store)
        assert pins == {0: 3}
        assert physical.ops is ops and physical.regions is regions

    def test_memo_key_reads_the_prior_images(self, engine):
        # The compiled key is itemgetter's reading of the priors: the
        # images tuple for two or more, the bare image for one, () for
        # none. Every catalog plan's ops must agree with the tuple.
        rng = random.Random(4)
        seen = set()
        for name in sorted(CATALOG):
            pattern = CATALOG[name]()
            for variant in ("edge_induced", "homomorphic"):
                physical = compile_plan(engine.build_plan(pattern, variant))
                n = len(physical.ops)
                for _ in range(3):
                    assignment = rng.sample(range(1000), n)
                    for op in physical.ops:
                        images = tuple(assignment[p] for p in op.priors)
                        key = op.memo_key(assignment)
                        if len(op.priors) == 1:
                            key = (key,)
                        assert key == images, (name, variant, op.pos)
                        seen.add(min(len(op.priors), 2))
        assert seen == {0, 1, 2}

    def test_static_pool_view_shared_across_plans(self):
        # Unlabeled: every root pool is the one cluster's live row set
        # rows_at_least(1), bound by identity by every plan and variant.
        engine = CSCE(make_random_graph(30, 60, num_labels=0, seed=3))
        (cluster,) = engine.store.clusters.values()
        live = cluster.rows_at_least(True, 1)
        pools = []
        for p in (small_pattern(), complete_graph(4)):
            for variant in Variant:
                physical = compile_plan(engine.build_plan(p, variant))
                pools += [op.static_pool for op in physical.ops if op.static_pool]
        assert len(pools) == 6
        assert all(len(pool) == 1 and pool[0] is live for pool in pools)
        assert live == set(cluster.source_vertices().tolist())

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

    def test_deep_factorized_count_no_recursion_limit(self):
        # A 300-vertex caterpillar (a 150-vertex spine, one leaf per spine
        # vertex) counted homomorphically into one edge: the factorized
        # counter's region program and its loop both run with more
        # positions than the recursion limit. A connected bipartite
        # pattern has exactly two homomorphisms into an edge.
        spine = 150
        edges = [(i, i + 1) for i in range(spine - 1)]
        edges += [(i, spine + i) for i in range(spine)]
        p = Graph.from_edges(2 * spine, edges)
        engine = CSCE(Graph.from_edges(2, [(0, 1)]))
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(250)
            result = engine.match(p, "homomorphic", count_only=True)
        finally:
            sys.setrecursionlimit(limit)
        assert result.count == 2
        assert result.stats["factorizations"] > 0

    @pytest.mark.parametrize("case", ["plain", "restriction", "seed", "cap"])
    @pytest.mark.parametrize(
        "variant", ["edge_induced", "vertex_induced", "homomorphic"]
    )
    def test_count_capped_equals_stream_drain(self, engine, variant, case):
        # Count mode and stream mode are one frame machine: the same run
        # must end with the same count, stats, stop and frame stack.
        p = small_pattern()
        restrictions = ((0, 1),) if case == "restriction" else None
        physical = engine.session.compile(
            p, variant, restrictions=restrictions
        )
        options = MatchOptions(count_only=True)
        if case == "seed":
            with EmbeddingStream(physical) as s:
                first = next(s)
            options = MatchOptions(
                count_only=True,
                seed=physical.with_seed({0: first[0]}, engine.store),
            )
        elif case == "cap":
            options = MatchOptions(count_only=True, max_embeddings=3)

        def run(emit):
            runtime = Runtime(options)
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
        runtime = Runtime(MatchOptions(count_only=True, max_embeddings=3))
        state = SearchState.fresh(len(physical.ops))
        head = count_capped(physical, runtime, state)
        assert head == 3 and runtime.stop_reason == "embedding_limit"
        tail = sum(1 for _ in stream(physical, Runtime(MatchOptions()), state))
        assert head + tail == brute_count(random_graph, p, "edge_induced")

    @pytest.mark.parametrize("path", ["factorized", "capped", "stream"])
    def test_tick_stop_computes_nothing_more(self, path):
        # A tick that stops the run must end it before that node's
        # candidate set is computed, on every execution path. The deadline
        # passes inside the first tick (the injected slowdown), after the
        # preflight check.
        n = 16
        clique = CSCE(
            Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        )
        p = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        options = {"use_sce": False, "time_limit": 0.05}
        with FaultInjector().on("engine.tick", slowdown(0.1), times=1):
            if path == "stream":
                with clique.match_iter(p, "edge_induced", **options) as s:
                    list(s)
                result = s.result()
                stop_reason, stats = result.stop_reason, result.stats
            elif path == "factorized":
                # Forced: a path never splits on an unlabeled clique, so a
                # routed count would run on the frame machine.
                physical = clique.session.compile(p, "edge_induced")
                runtime = Runtime(MatchOptions(count_only=True, **options))
                count_physical(physical, runtime)
                stop_reason, stats = runtime.stop_reason, runtime.stats()
            else:
                result = clique.match(
                    p, "edge_induced", count_only=True, max_embeddings=10**12,
                    **options,
                )
                stop_reason, stats = result.stop_reason, result.stats
        assert stop_reason == "time_limit"
        assert stats["computed"] == stats["nodes"] - 1


class TestBulkLeafCounting:
    """Count mode counts the last position in bulk; the counters, the
    stop and the frame stack must end up as the one-by-one scan leaves
    them."""

    @staticmethod
    def _search_counters(stats):
        """The counters of the search itself: a leaf memoizes its bulk
        set apart from a scanned twin's tuple, so only the candidate
        counters can tell count mode from a scan."""
        keys = ("nodes", "backtracks", "prunes_injective", "prunes_restriction")
        return {key: stats[key] for key in keys}

    @staticmethod
    def _run(physical, options, emit, state=None):
        runtime = Runtime(options)
        state = state or SearchState.fresh(len(physical.ops))
        if emit:
            count = sum(1 for _ in stream(physical, runtime, state))
        else:
            count = count_capped(physical, runtime, state)
        return count, runtime.stats(), runtime.stop_reason, state

    def test_cap_inside_a_leaf_stops_exactly_and_resumes(self):
        # K6 and a triangle: every leaf has 4 survivors, so caps 1-3 land
        # inside the first leaf and later caps inside or at the end of
        # later ones.
        engine = CSCE(complete_graph(6))
        physical = compile_plan(engine.build_plan(small_pattern(), "edge_induced"))
        total = 6 * 5 * 4
        for cap in (1, 2, 3, 4, 5, 119, total):
            options = MatchOptions(count_only=True, max_embeddings=cap)
            head, stats, stop, state = self._run(physical, options, emit=False)
            drained = self._run(physical, options, emit=True)
            assert head == cap and stop == STOP_EMBEDDING_LIMIT
            assert (head, stats, stop) == drained[:3]
            assert state.to_payload() == drained[3].to_payload()
            resumed = SearchState.from_payload(state.to_payload())
            tail = count_capped(
                physical, Runtime(MatchOptions(count_only=True)), resumed
            )
            assert head + tail == total

    def test_symmetry_restricted_leaf_takes_the_bulk_path(self, monkeypatch):
        # The 8-clique case study's shape: every automorphism broken by a
        # total order, so the leaf carries seven restriction slots.
        n, k = 10, 8
        data, pattern = complete_graph(n), complete_graph(k)
        restrictions = tuple((i, j) for i in range(k) for j in range(i + 1, k))
        physical = compile_plan(
            CSCE(data).build_plan(pattern, "edge_induced"), restrictions=restrictions
        )
        options = MatchOptions(count_only=True)
        calls = []
        bulk = executor_module.leaf_count
        monkeypatch.setattr(
            executor_module,
            "leaf_count",
            lambda *args: calls.append(args[2]) or bulk(*args),
        )
        counted = self._run(physical, options, emit=False)
        assert calls and all(len(slots) == k - 1 for slots in calls)
        drained = self._run(physical, options, emit=True)
        assert counted[0] == 45  # C(10, 8)
        assert counted[1]["prunes_restriction"] > 0
        assert counted[:3] == drained[:3]
        assert counted[3].to_payload() == drained[3].to_payload()

    def test_never_factorizing_count_runs_on_the_frame_machine(
        self, monkeypatch
    ):
        graph = make_random_graph(30, 90, num_labels=1, seed=3)
        pattern = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        engine = CSCE(graph)
        physical = engine.session.compile(pattern, "edge_induced")
        assert not physical.regions.factorizes

        def forbidden(*args):
            raise AssertionError("routed to the factorized counter")

        monkeypatch.setattr("repro.engine.counting.count_physical", forbidden)
        result = engine.match(pattern, "edge_induced", count_only=True)
        count, stats, stop, _ = self._run(
            physical, MatchOptions(count_only=True), emit=False
        )
        assert result.count == count == brute_count(graph, pattern, "edge_induced")
        assert result.stats["factorizations"] == 0
        assert result.stats == stats and stop is None

    @staticmethod
    def _twin_star(variant):
        """A 4-leaf star whose NEC twin leaves share one spec id at the
        penultimate and the last position."""
        graph = make_random_graph(14, 40, num_labels=1, seed=12)
        star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        physical = compile_plan(CSCE(graph).build_plan(star, variant))
        assert physical.ops[-1].spec_id == physical.ops[-2].spec_id
        return graph, star, physical

    @pytest.mark.parametrize("variant", ["edge_induced", "homomorphic"])
    def test_twin_leaf_counts_from_its_own_memo_entry(self, variant):
        """The leaf's bulk set and its scanned twin's sorted tuple are two
        memo entries of one spec; the count is brute force, and a cap that
        lands inside the last position stops on the candidate the
        one-by-one scan stops on, with the same frames, and resumes to
        the total."""
        graph, star, physical = self._twin_star(variant)
        total = brute_count(graph, star, variant)
        options = MatchOptions(count_only=True)
        count, stats, stop, _ = self._run(physical, options, emit=False)
        drained = self._run(physical, options, emit=True)
        assert count == total and stop is None
        assert self._search_counters(stats) == self._search_counters(drained[1])

        scanned, leaf = physical.ops[-2], physical.ops[-1]
        assignment = [-1] * physical.num_vertices
        assignment[0] = max(range(graph.num_vertices), key=graph.degree)
        computer = CandidateComputer()
        listed = computer.raw(scanned, assignment)
        counted = computer.raw(leaf, assignment, bulk=True)
        assert list(listed) == sorted(listed) and set(listed) == set(counted)
        assert computer.memo_size == 2 and computer.stats.computed == 2
        assert computer.raw(leaf, assignment) is listed
        assert computer.raw(scanned, assignment, bulk=True) is counted

        n = physical.num_vertices
        for cap in (1, 2, 3, total // 2, total - 1):
            capped = MatchOptions(count_only=True, max_embeddings=cap)
            head, stats, stop, state = self._run(physical, capped, emit=False)
            drained = self._run(physical, capped, emit=True)
            assert head == cap and stop == STOP_EMBEDDING_LIMIT
            assert state.pos == n - 1 and 0 < state.index[n - 1]
            assert drained[2] == stop
            assert self._search_counters(stats) == self._search_counters(
                drained[1]
            )
            assert state.to_payload() == drained[3].to_payload()
            resumed = SearchState.from_payload(state.to_payload())
            tail = count_capped(physical, Runtime(options), resumed)
            assert head + tail == total

    @pytest.mark.parametrize("use_sce", [True, False])
    def test_bulk_candidates_are_never_a_live_pool_set(self, use_sce):
        """An unconstrained op whose pool is one live row set, unfiltered:
        its bulk candidates hold the same vertices in another set, also
        when served from the memo, and an update that patches the pool
        in place leaves them as they were."""
        graph = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4)])
        engine = CSCE(graph)
        physical = compile_plan(engine.build_plan(small_pattern(), "homomorphic"))
        root = physical.ops[0]
        assert not root.constraints and not root.admissible
        (pool,) = root.static_pool
        assignment = [-1] * physical.num_vertices
        computer = CandidateComputer(use_sce=use_sce)
        first = computer.raw(root, assignment, bulk=True)
        again = computer.raw(root, assignment, bulk=True)
        for bulk in (first, again):
            assert bulk is not pool and set(bulk) == pool
        before = set(first)
        engine.store.insert_edge(5, 0)
        assert 5 in pool and set(first) == before == pool - {5}

    def test_restricted_count_sorts_its_leaf_on_demand(self, monkeypatch):
        """A restricted count hands leaf_count an unordered set, which
        it sorts for its interval search; the count is brute force and
        the counters are the one-by-one scan's."""
        graph = make_random_graph(16, 50, num_labels=1, seed=21)
        pattern = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        restrictions = ((1, 3),)
        physical = compile_plan(
            CSCE(graph).build_plan(pattern, "edge_induced"),
            restrictions=restrictions,
        )
        seen = []
        bulk = executor_module.leaf_count
        monkeypatch.setattr(
            executor_module,
            "leaf_count",
            lambda *args: seen.append((type(args[0]), args[2])) or bulk(*args),
        )
        options = MatchOptions(count_only=True)
        counted = self._run(physical, options, emit=False)
        assert any(slots and kind is not tuple for kind, slots in seen)
        drained = self._run(physical, options, emit=True)
        assert counted[0] == brute_count(
            graph, pattern, "edge_induced", restrictions=restrictions
        )
        assert counted[1]["prunes_restriction"] > 0
        assert counted[0] == drained[0]
        assert self._search_counters(counted[1]) == self._search_counters(
            drained[1]
        )

    def test_leaf_count_ignores_candidate_order(self):
        rng = random.Random(8)
        for _ in range(200):
            values = rng.sample(range(40), rng.randrange(0, 20))
            used = set(rng.sample(range(40), 3))
            assignment = [rng.randrange(40) for _ in range(4)]
            restrictions = tuple(
                (other, rng.random() < 0.5)
                for other in rng.sample(range(4), rng.randrange(0, 3))
            )
            expected = executor_module.leaf_count(
                tuple(sorted(values)), used, restrictions, assignment
            )
            for unordered in (frozenset(values), set(values), tuple(values)):
                assert executor_module.leaf_count(
                    unordered, used, restrictions, assignment
                ) == expected


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
        assert session.cache_info["misses"] == 1
        second = session.compile(p, Variant.EDGE_INDUCED)
        assert second is first
        assert session.cache_info["hits"] == 1
        assert session.cache_info["misses"] == 1

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
        assert session.cache_info["misses"] == 2
        assert after is not before

    def test_store_updates_purge_stale_plans(self, random_graph):
        """A patch keeps the cached plan, which still verifies and counts
        the patched graph; dropping and re-creating the cluster the plan
        reads purges the stale plan and frees the dropped cluster."""
        import gc
        import weakref

        from repro.engine.verify import verify_physical

        session = MatchSession(random_graph)
        p = small_pattern()
        before = session.compile(p, Variant.EDGE_INDUCED)
        store = session.store
        key = before.logical.backward[1][0].cluster.key
        live = store.clusters[key]
        cluster = weakref.ref(live)
        # A new edge between two vertices that already have rows in the
        # cluster patches it without changing any row set.
        rows = live.source_vertices().tolist()
        u, v = next(
            (a, b) for a in rows for b in rows
            if a != b and not live.contains_edge(a, b)
        )
        store.insert_edge(u, v, key.edge_label, key.directed)
        patched = session.compile(p, Variant.EDGE_INDUCED)
        assert session.cache_info["hits"] == 1
        assert patched is before
        assert verify_physical(patched, store).ok
        assert execute_physical(
            patched, MatchOptions(count_only=True)
        ).count == CSCE(store.to_graph()).count(p)
        del before, patched
        edges = [
            (a, b) for a, b in live.iter_directed_entries()
            if key.directed or a < b
        ]
        del live
        for a, b in edges:
            store.remove_edge(a, b, key.edge_label, key.directed)
        assert key not in store.clusters
        store.insert_edge(u, v, key.edge_label, key.directed)
        session.compile(p, Variant.EDGE_INDUCED)
        assert session.cache_info["misses"] == 2
        gc.collect()
        # Only the current layout's plan survives, and nothing holds the
        # cluster that emptied.
        assert cluster() is None
        assert session.cache_info["size"] == 1

    def test_lru_eviction(self, random_graph):
        session = MatchSession(random_graph, cache_size=1)
        tri = small_pattern()
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        session.compile(tri, Variant.EDGE_INDUCED)
        session.compile(path, Variant.EDGE_INDUCED)
        session.compile(tri, Variant.EDGE_INDUCED)
        assert session.cache_info["misses"] == 3

    def test_structural_fingerprint_shares_plans(self, random_graph):
        session = MatchSession(random_graph)
        a = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        b = Graph.from_edges(3, [(1, 2), (0, 2), (0, 1)])  # same edges
        session.compile(a, Variant.EDGE_INDUCED)
        session.compile(b, Variant.EDGE_INDUCED)
        assert session.cache_info["hits"] == 1


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
        runtime = Runtime(MatchOptions(count_only=True))
        counted = count_physical(physical, runtime)
        enumerated = execute_physical(
            physical, MatchOptions(count_only=True, max_embeddings=10**9)
        ).count
        assert counted == runtime.emitted == enumerated
        assert runtime.stop_reason is None
        assert runtime.degradation == []
        assert runtime.progress is None  # no observation, no estimator
        assert runtime.stats()["nodes"] >= 0

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
        computer = CandidateComputer()
        op = physical.ops[1]
        assignment = [None] * physical.num_vertices
        for prior in op.priors:
            assignment[prior] = 0
        computer.raw(op, assignment)
        computer.raw(op, assignment)
        assert computer.stats.memo_hits >= 1


class TestPinnedCandidates:
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_kernel_pins_equal_filter_after_raw(self, variant):
        """For every catalog plan and every op, a pinned op's candidates
        are its pin filtered against the unpinned raw tuple, for pins
        drawn inside and outside that tuple, under assignments taken from
        embeddings and drawn at random; at position 0 the pool's root
        range agrees. Pinned results never enter the memo."""
        from itertools import islice

        from repro.engine.workunit import root_candidates

        graph = make_random_graph(18, 60, seed=31)
        engine = CSCE(graph)
        rng = random.Random(7)
        vertices = range(graph.num_vertices)
        for build in CATALOG.values():
            physical = engine.session.compile(build(), variant)
            found = stream(physical, Runtime(MatchOptions()))
            assignments = [list(image) for image in islice(found, 3)]
            assignments += [
                [rng.choice(vertices) for _ in range(physical.num_vertices)]
                for _ in range(3)
            ]
            for assignment in assignments:
                for op in physical.ops:
                    raw = CandidateComputer(use_sce=False).raw(op, assignment)
                    outside = [v for v in vertices if v not in raw]
                    pins = rng.sample(raw, min(2, len(raw)))
                    pins += rng.sample(outside, min(2, len(outside)))
                    for pin in pins:
                        expected = (pin,) if pin in raw else ()
                        kernel = CandidateComputer(pins={op.u: pin})
                        got = kernel.raw(op, assignment)
                        assert got == expected
                        assert kernel.memo_size == 0
                        if op.pos == 0:
                            roots = [] if physical.impossible() else list(expected)
                            assert root_candidates(physical, {op.u: pin}) == roots


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
