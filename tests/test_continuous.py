"""Tests for seeded execution and continuous (delta) matching."""

import random
from unittest import mock

import pytest

from repro.core import CSCE, ContinuousMatcher, embeddings_containing_edge
from repro.engine import (
    STOP_TIME_LIMIT,
    Budget,
    MatchOptions,
    ResourceGovernor,
    compile_plan,
    execute_physical,
    plan_query,
)
from repro.errors import (
    EmbeddingLimitExceeded,
    MatchCancelled,
    PlanVerificationError,
    TimeLimitExceeded,
)
from repro.engine.verify import Diagnostic, verify_physical
from repro.graph import Edge, Graph
from repro.graph.patterns import by_name, path
from repro.graph.sampling import sample_pattern
from repro.engine.checkpoint import load_checkpoint
from repro.obs.catalog import ORDER_DISCONNECTED, SEED_PIN_INVALID

from conftest import (
    brute_count,
    make_random_graph,
    pinned_positions,
    recording_pinned_plans,
    recording_planning,
)


class TestSeededMatching:
    def test_seed_restricts_to_extensions(self, square_with_diagonal):
        engine = CSCE(square_with_diagonal)
        p = path(3)
        full = engine.match(p, "edge_induced")
        seeded = engine.match(p, "edge_induced", seed={1: 0})
        expected = [m for m in full.embeddings if m[1] == 0]
        assert sorted(map(sorted, (m.items() for m in seeded.embeddings))) == sorted(
            map(sorted, (m.items() for m in expected))
        )

    @pytest.mark.parametrize(
        "seed", [{99: 0}, {0: 1000}, {0: -1}, {0: 3}],
        ids=["non-pattern-key", "out-of-range", "negative", "label-mismatch"],
    )
    def test_invalid_seed_is_refused(self, seed, tmp_path):
        """A seed whose key is not a pattern vertex, whose pin is not a
        data vertex, or whose pin has another label is refused with
        ``seed-pin-invalid`` before any search, on ``match``,
        ``match_iter`` and resume."""
        labels = ["A", "A", "A", "B", "A"]
        bowtie = Graph.from_edges(
            5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)],
            vertex_labels=labels,
        )
        triangle = Graph.from_edges(
            3, [(0, 1), (1, 2), (2, 0)], vertex_labels="AAA"
        )
        engine = CSCE(bowtie)
        assert engine.count(triangle) == 6

        def refused(run):
            with pytest.raises(PlanVerificationError) as error:
                run()
            assert {d.code for d in error.value.diagnostics} == {
                SEED_PIN_INVALID
            }

        refused(lambda: engine.match(triangle, count_only=True, seed=seed))
        refused(lambda: engine.match_iter(triangle, seed=seed))
        path = tmp_path / "seeded.ck.json"
        with engine.match_iter(
            triangle, seed={0: 2}, max_embeddings=1, checkpoint_path=path
        ) as stream:
            assert len(list(stream)) == 1
        document = load_checkpoint(path)
        document["query"]["seed"] = [list(pair) for pair in seed.items()]
        refused(lambda: engine.resume(document))
        document["query"]["seed"] = [[0, 2]]
        assert len(list(engine.resume(document, max_embeddings=None))) == 1

    @pytest.mark.parametrize(
        "edge", [(-1, 0), (0, 4)], ids=["negative", "out-of-range"]
    )
    def test_delta_on_a_non_vertex_is_refused(self, edge, square_with_diagonal):
        """A delta checks its data edge's endpoints once, before any pin
        binds: an endpoint that is not a data vertex is refused with
        ``seed-pin-invalid``."""
        engine = CSCE(square_with_diagonal)
        with pytest.raises(PlanVerificationError) as error:
            embeddings_containing_edge(
                engine, by_name("triangle"), Edge(*edge, None, False)
            )
        assert {d.code for d in error.value.diagnostics} == {SEED_PIN_INVALID}

    def test_multi_vertex_seed(self, square_with_diagonal):
        engine = CSCE(square_with_diagonal)
        tri = by_name("triangle")
        seeded = engine.match(tri, seed={0: 0, 1: 1})
        # Triangles containing the edge 0-1 with that orientation: only
        # {0,1,2}; third vertex is forced.
        assert seeded.count == 1
        assert seeded.embeddings[0][2] == 2

    def test_seed_respects_injectivity(self, square_with_diagonal):
        engine = CSCE(square_with_diagonal)
        p = path(3)
        seeded = engine.match(p, "edge_induced", seed={0: 2, 2: 2})
        assert seeded.count == 0  # same image twice under injectivity

    def test_seed_allowed_in_homomorphism(self, square_with_diagonal):
        engine = CSCE(square_with_diagonal)
        p = path(3)
        seeded = engine.match(p, "homomorphic", seed={0: 2, 2: 2})
        assert seeded.count > 0

    def test_seeded_count_only(self, square_with_diagonal):
        engine = CSCE(square_with_diagonal)
        p = path(3)
        enumerated = engine.match(p, seed={1: 0}).count
        counted = engine.match(p, seed={1: 0}, count_only=True).count
        assert counted == enumerated


class TestEmbeddingsContainingEdge:
    def test_matches_filtered_full_enumeration(self):
        g = make_random_graph(12, 26, seed=81)
        engine = CSCE(g)
        tri = by_name("triangle")
        edge = next(iter(g.edges()))
        delta = embeddings_containing_edge(engine, tri, edge)
        full = engine.match(tri)

        def uses_edge(mapping):
            pairs = set()
            vertices = list(mapping.values())
            for i, a in enumerate(vertices):
                for b in vertices[i + 1 :]:
                    pairs.add(frozenset((a, b)))
            return frozenset((edge.src, edge.dst)) in pairs

        # Every triangle whose mapped edge set covers the data edge must
        # appear, and nothing else can (triangles map all their pairs).
        expected = [m for m in full.embeddings if uses_edge(m)]
        assert delta.count == len(expected)

    def test_labels_prune_pins(self):
        g = Graph()
        g.add_vertices(["A", "B", "C"])
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        engine = CSCE(g)
        p = Graph()
        p.add_vertices(["A", "B"])
        p.add_edge(0, 1)
        delta = embeddings_containing_edge(engine, p, Edge(1, 2, None, False))
        assert delta.pins_tried == 0
        assert delta.count == 0


class TestContinuousMatcher:
    def _totals_agree(self, matcher: ContinuousMatcher):
        fresh = matcher.engine.count(matcher.pattern, matcher.variant)
        assert matcher.total == fresh

    def test_insert_reports_created_embeddings(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        engine = CSCE(g)
        matcher = ContinuousMatcher(engine, by_name("triangle"))
        assert matcher.total == 0
        delta = matcher.insert(0, 2)
        assert delta.count == 6  # one triangle, six mappings
        self._totals_agree(matcher)

    def test_remove_reports_destroyed_embeddings(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        engine = CSCE(g)
        matcher = ContinuousMatcher(engine, by_name("triangle"))
        assert matcher.total == 6
        delta = matcher.remove(0, 1)
        assert delta.count == 6
        assert matcher.total == 0
        self._totals_agree(matcher)

    def test_random_update_stream(self):
        rng = random.Random(9)
        g = make_random_graph(10, 14, seed=82)
        engine = CSCE(g)
        matcher = ContinuousMatcher(engine, path(3))
        present = {(min(e.src, e.dst), max(e.src, e.dst)) for e in g.edges()}
        for _ in range(20):
            a, b = rng.randrange(10), rng.randrange(10)
            if a == b:
                continue
            key = (min(a, b), max(a, b))
            if key in present:
                matcher.remove(key[0], key[1])
                present.discard(key)
            else:
                matcher.insert(key[0], key[1])
                present.add(key)
            self._totals_agree(matcher)

    def test_vertex_induced_rejected(self):
        g = make_random_graph(8, 12, seed=83)
        with pytest.raises(ValueError, match="not edge-local"):
            ContinuousMatcher(CSCE(g), path(3), "vertex_induced")

    def test_homomorphic_stream(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        matcher = ContinuousMatcher(CSCE(g), path(3), "homomorphic")
        before = matcher.total
        delta = matcher.insert(2, 3)
        assert matcher.total == before + delta.count
        self._totals_agree(matcher)


class TestPinFirstPlans:
    @pytest.mark.parametrize(
        "directed, num_labels, edge_labels",
        [(False, 2, 2), (True, 1, 0)],
        ids=["labeled", "directed"],
    )
    def test_every_pinned_run_verifies(self, directed, num_labels, edge_labels):
        """A labeled and a directed standing query under ``verify=True``:
        the session verifies every plan it builds, the standing query's
        and each pin-first plan a delta plans, and every pinned run a
        delta makes starts at its pin and its plan passes the verifier too (GCF
        connectivity, topological order, pins)."""
        from repro.engine import verify as verify_module

        g = make_random_graph(
            16, 40, num_labels=num_labels, directed=directed,
            edge_labels=edge_labels, seed=91,
        )
        pattern = sample_pattern(g, 4, rng=3, style="sparse")
        engine = CSCE(g, verify=True)
        churn = random.Random(5).sample(list(g.edges()), 8)
        with recording_planning() as planned, mock.patch.object(
            verify_module, "verify_physical", wraps=verify_physical
        ) as verified:
            matcher = ContinuousMatcher(engine, pattern)
            with recording_pinned_plans() as pinned_runs:
                for e in churn:
                    matcher.remove(e.src, e.dst, e.label, e.directed)
                    assert matcher.total == engine.count(pattern)
                for e in churn:
                    matcher.insert(e.src, e.dst, e.label, e.directed)
        assert matcher.total == CSCE(g).count(pattern)
        assert any(planned.prefixes)
        assert verified.call_count == len(planned.prefixes)
        assert pinned_runs
        for physical, pins in pinned_runs:
            assert pinned_positions(physical, pins) == [0, 1]
            assert verify_physical(physical, engine.store).ok

    @pytest.mark.parametrize("variant", ["edge_induced", "homomorphic"])
    def test_new_and_emptied_rows_keep_every_plan(self, variant):
        """On a 2-label graph every edge lands in the one mixed-label
        cluster, so each pool is its live rows filtered by a label set.
        An insert that gives a vertex its first row there, and a remove
        that empties one, change no layout: over the four updates each
        pattern edge's pin-first plan is planned once, on its first pin,
        and the standing plan never again; every delta count, and the
        cached standing plan's count, is brute force."""
        labels = ["A"] * 4 + ["B"] * 4
        edges = [(0, 4), (1, 4), (1, 5), (2, 5), (0, 6)]
        pattern = Graph()
        pattern.add_vertices(["A", "B", "A"])
        pattern.add_edge(0, 1)
        pattern.add_edge(1, 2)

        def graph(pairs):
            g = Graph()
            g.add_vertices(labels)
            for a, b in pairs:
                g.add_edge(a, b)
            return g

        engine = CSCE(graph(edges), verify=True)
        matcher = ContinuousMatcher(engine, pattern, variant)
        (cluster,) = engine.store.clusters.values()
        live = cluster.rows_at_least(True, 1)
        standing = engine.session.compile(pattern, variant).physical
        assert any(op.static_pool and op.static_pool[0] is live for op in standing.ops)
        layout, misses = engine.store.layout_version, engine.session.cache_misses
        # 3 and 7 get their first rows; then 6 and 3 lose their last.
        with recording_planning() as planned:
            for update, (a, b) in [("insert", (3, 5)), ("insert", (7, 2)),
                                   ("remove", (0, 6)), ("remove", (3, 5))]:
                before = brute_count(graph(edges), pattern, variant)
                delta = getattr(matcher, update)(a, b)
                if update == "insert":
                    edges.append((a, b))
                else:
                    edges.remove((a, b))
                after = brute_count(graph(edges), pattern, variant)
                assert delta.count == abs(after - before) and matcher.total == after
                assert engine.count(pattern, variant) == after
                assert live == {v for pair in edges for v in pair}
        assert sorted(planned.prefixes) == [(0, 1), (1, 2)]
        assert engine.store.layout_version == layout
        assert engine.session.cache_misses == misses

    def test_plans_of_long_patterns_stay_cached(self):
        """A 66-edge path needs 67 plans, more than the session's default
        capacity of 64, and an insert into the path graph pins every
        pattern edge. Registration runs one ``plan_query``, for the
        standing query, and leaves the capacity alone. The first insert
        plans each pattern edge once; the matcher keeps the plans, so a
        second layout-neutral insert calls neither ``plan_query`` nor
        ``MatchSession.compile``."""
        g = Graph.from_edges(70, [(i, i + 1) for i in range(69)])
        pattern = path(67)
        engine = CSCE(g)
        with recording_planning() as planned:
            matcher = ContinuousMatcher(engine, pattern)
        assert planned.prefixes == [()]
        assert engine.session.cache_size == 64
        layout = engine.store.layout_version
        with recording_planning() as planned:
            first = matcher.insert(10, 12)
        assert sorted(planned.prefixes) == sorted(
            (e.src, e.dst) for e in pattern.edges()
        )
        assert planned.compiles == 0
        with recording_planning() as planned:
            second = matcher.insert(30, 32)
        assert planned.prefixes == [] and planned.compiles == 0
        assert engine.store.layout_version == layout
        g.add_edge(10, 12)
        g.add_edge(30, 32)
        assert first.count > 0 and second.count > 0
        assert matcher.total == CSCE(g).count(pattern)

    def test_standing_queries_on_one_engine_keep_each_others_plans(self):
        """A 40-edge and a 50-edge standing path on one engine need 41 +
        51 plans, more than the session's capacity: each matcher keeps
        its own pin-first plans, so of alternating layout-neutral inserts
        through both, the first through each plans each of its pattern
        edges once and the second plans and compiles nothing."""
        g = Graph.from_edges(90, [(i, i + 1) for i in range(89)])
        engine = CSCE(g)
        short = ContinuousMatcher(engine, path(41))
        long = ContinuousMatcher(engine, path(51))
        layout = engine.store.layout_version

        def pattern_edges(matcher):
            return sorted((e.src, e.dst) for e in matcher.pattern.edges())

        for i, (matcher, expected) in enumerate([
            (short, pattern_edges(short)), (long, pattern_edges(long)),
            (short, []), (long, []),
        ]):
            with recording_planning() as planned:
                matcher.insert(10 * i, 10 * i + 2)
            assert sorted(planned.prefixes) == expected
            assert planned.compiles == 0
        assert engine.store.layout_version == layout

    def test_a_layout_change_replans_only_the_edges_pinned_after_it(self):
        """A labelled A-B-C path: an A-B insert pins only pattern edge
        (0, 1), a B-C insert only (1, 2). Each is planned on its first
        pin; an A-A insert creates a cluster, which empties the table,
        and afterwards each pattern edge is replanned once, on its next
        pin, and not before. Every delta is brute force."""
        labels = ["A"] * 3 + ["B"] * 3 + ["C"] * 3
        edges = [(0, 3), (3, 6), (1, 4), (4, 7)]
        pattern = Graph()
        pattern.add_vertices(["A", "B", "C"])
        pattern.add_edge(0, 1)
        pattern.add_edge(1, 2)

        def graph(pairs):
            g = Graph()
            g.add_vertices(labels)
            for a, b in pairs:
                g.add_edge(a, b)
            return g

        engine = CSCE(graph(edges))
        matcher = ContinuousMatcher(engine, pattern)
        layout = engine.store.layout_version
        for (a, b), expected in [
            ((2, 5), [(0, 1)]), ((5, 8), [(1, 2)]), ((0, 1), []),
            ((1, 5), [(0, 1)]), ((2, 4), []), ((4, 8), [(1, 2)]),
            ((3, 7), []),
        ]:
            before = brute_count(graph(edges), pattern, "edge_induced")
            with recording_planning() as planned:
                delta = matcher.insert(a, b)
            edges.append((a, b))
            assert delta.count == brute_count(
                graph(edges), pattern, "edge_induced"
            ) - before
            assert planned.prefixes == expected and planned.compiles == 0
            if (a, b) == (0, 1):
                assert engine.store.layout_version != layout
        assert matcher.total == CSCE(graph(edges)).count(pattern)

    def test_registrations_leave_the_cache_capacity_alone(self):
        """Registering a 3-edge standing path 100 times on one engine
        leaves the session's capacity at its default of 64, and its
        cache holding the one standing plan."""
        engine = CSCE(make_random_graph(30, 60, seed=5))
        for _ in range(100):
            ContinuousMatcher(engine, path(4))
        assert engine.session.cache_size == 64
        assert engine.session.cache_info["size"] == 1

    def test_prefix_off_the_pattern_edges_fails_verification(self):
        """The verifier's connectivity check covers prefixed orders: a
        prefix of two non-adjacent vertices is disconnected under GCF."""
        g = make_random_graph(12, 24, seed=92)
        engine = CSCE(g)
        plan = plan_query(engine.store, path(3), prefix=(0, 2))
        assert plan.order[:2] == [0, 2]
        report = verify_physical(compile_plan(plan), engine.store)
        assert report.codes() == [ORDER_DISCONNECTED]


class TestDeltaLimits:
    """A delta's limits resolve once and bound all of its pins. A stub
    clock advances 0.4 s as each pin's search starts (the search itself
    takes no stub time), so a delta of six pins outlasts a 1 s limit at
    its third pin, while each single pin stays far inside it."""

    @pytest.fixture
    def slow_pins(self, monkeypatch):
        from types import SimpleNamespace

        import repro.engine.governor as governor_module
        from repro.core import continuous

        now = [0.0]
        monkeypatch.setattr(
            governor_module,
            "time",
            SimpleNamespace(perf_counter=lambda: now[0], sleep=lambda s: None),
        )
        count = continuous.count_capped

        def slow_count(physical, runtime, *args):
            now[0] += 0.4
            return count(physical, runtime, *args)

        monkeypatch.setattr(continuous, "count_capped", slow_count)

    def _square(self):
        # A 4-cycle: inserting its chord closes two triangles, and the
        # triangle pattern pins each of its 3 edges in both orientations.
        return CSCE(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))

    def test_time_limit_bounds_the_whole_delta(self, slow_pins):
        engine = self._square()
        engine.store.insert_edge(0, 2)
        delta = embeddings_containing_edge(
            engine, by_name("triangle"), Edge(0, 2, None, False),
            time_limit=1.0,
        )
        assert delta.pins_tried == 6
        assert delta.stop_reason == STOP_TIME_LIMIT

    def test_budget_time_stops_the_insert_and_rolls_it_back(self, slow_pins):
        engine = self._square()
        gov = ResourceGovernor(budget=Budget(time_limit=1.0))
        matcher = ContinuousMatcher(engine, by_name("triangle"), governor=gov)
        edges = engine.store.num_edges
        with pytest.raises(TimeLimitExceeded):
            matcher.insert(0, 2)
        assert engine.store.num_edges == edges
        assert matcher.total == 0

    def test_embedding_cap_bounds_the_whole_delta(self):
        """Inserting the chord creates 12 embeddings over 6 pins of 2
        each: a cap of 3 stops the delta, not each pin, so the insert
        raises and is rolled back."""
        engine = self._square()
        gov = ResourceGovernor()
        matcher = ContinuousMatcher(engine, by_name("triangle"), governor=gov)
        gov.tighten(max_embeddings=3)
        edges = engine.store.num_edges
        with pytest.raises(EmbeddingLimitExceeded):
            matcher.insert(0, 2)
        assert engine.store.num_edges == edges
        assert matcher.total == 0

    @pytest.mark.parametrize(
        "budget, tripped, error",
        [(None, True, MatchCancelled),
         (Budget(max_embeddings=1), False, EmbeddingLimitExceeded)],
        ids=["cancelled", "embedding_cap"],
    )
    def test_registration_runs_under_the_governor(self, budget, tripped, error):
        """The initial count runs under the matcher's governor: a tripped
        token or a cap below the standing count raises the typed stop,
        so no matcher starts from a partial total."""
        engine = CSCE(Graph.from_edges(30, [(i, i + 1) for i in range(29)]))
        gov = ResourceGovernor(budget=budget)
        if tripped:
            gov.cancel.trip("registration")
        with pytest.raises(error) as stopped:
            ContinuousMatcher(engine, path(4), governor=gov)
        assert stopped.value.partial_count < engine.count(path(4)) == 54

    def test_unverifiable_pin_first_plan_rolls_the_insert_back(
        self, monkeypatch
    ):
        """Under ``verify=True`` a delta verifies each pin-first plan it
        builds; a plan that fails raises ``PlanVerificationError`` out of
        the insert, which is rolled back."""
        from repro.engine import verify as verify_module

        engine = CSCE(
            Graph.from_edges(30, [(i, i + 1) for i in range(29)]),
            verify=True,
        )
        matcher = ContinuousMatcher(engine, path(4))
        edges = engine.store.num_edges

        def reject(physical, store):
            report = verify_physical(physical, store)
            report.diagnostics.append(
                Diagnostic("injected", "rejected for the test")
            )
            return report

        monkeypatch.setattr(verify_module, "verify_physical", reject)
        with pytest.raises(PlanVerificationError):
            matcher.insert(3, 7)
        assert engine.store.num_edges == edges
        assert matcher.total == 54
        monkeypatch.undo()
        matcher.insert(3, 7)
        assert matcher.total == engine.count(path(4)) == 70


class TestOneRunPerDelta:
    def test_a_delta_is_one_run(self, monkeypatch):
        """A 6-pin triangle delta builds one runtime, merges its stats
        into the counters once, and leaves one ``execute`` span and one
        ``run_start``/``run_end`` pair; the ``read``/``plan`` spans of its
        three pin-first plans, planned on their first pin, precede the
        run. Its search counters are the sums of separate runs of the
        same pinned runs."""
        from repro.core import continuous
        from repro.obs import Observation
        from repro.obs.counters import CounterRegistry

        engine = CSCE(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        obs = Observation()
        matcher = ContinuousMatcher(engine, by_name("triangle"), obs=obs)
        obs.tracer.clear()
        obs.recorder.clear()
        runtimes = []
        merges = []

        class CountedRuntime(continuous.Runtime):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runtimes.append(self)

        merge = CounterRegistry.merge

        def counted_merge(registry, stats):
            merges.append(dict(stats))
            merge(registry, stats)

        monkeypatch.setattr(continuous, "Runtime", CountedRuntime)
        monkeypatch.setattr(CounterRegistry, "merge", counted_merge)
        with recording_pinned_plans() as pinned:
            delta = matcher.insert(0, 2)
        assert delta.pins_tried == len(pinned) == 6
        assert len(runtimes) == 1
        assert merges == [delta.stats]
        spans = [root["name"] for root in obs.tracer.to_list()]
        assert spans == ["read", "plan"] * 3 + ["execute"]
        runs = [
            event.name for event in obs.recorder.events()
            if event.name in ("run_start", "run_end")
        ]
        assert runs == ["run_start", "run_end"]
        separate = [
            execute_physical(physical, MatchOptions(count_only=True, seed=pins))
            for physical, pins in pinned
        ]
        assert delta.count == sum(result.count for result in separate) == 12
        for key in ("nodes", "backtracks", "prunes_injective"):
            assert delta.stats[key] == sum(
                result.stats[key] for result in separate
            )

    def test_pins_of_a_pattern_edge_share_one_plan(self, monkeypatch):
        """Pins bind to the run, not the plan: the 6-pin triangle delta
        runs each pattern edge's two pins on the identical ``ops`` tuple
        and ``regions`` object, with the runtime's pins rebound to each
        seed in turn."""
        from repro.core import continuous

        engine = CSCE(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        matcher = ContinuousMatcher(engine, by_name("triangle"))
        runs = []
        count = continuous.count_capped

        def recorded(physical, runtime, *args):
            runs.append(
                (physical.ops, physical.regions, dict(runtime.computer.pins))
            )
            return count(physical, runtime, *args)

        monkeypatch.setattr(continuous, "count_capped", recorded)
        assert matcher.insert(0, 2).count == 12
        assert len(runs) == 6
        by_edge: dict = {}
        for ops, regions, pins in runs:
            first_two = frozenset(op.u for op in ops[:2])
            assert first_two == frozenset(pins)
            by_edge.setdefault(first_two, []).append((ops, regions, pins))
        assert len(by_edge) == 3
        for (ops, regions, pins), (ops2, regions2, pins2) in by_edge.values():
            assert ops2 is ops and regions2 is regions
            # The data edge's other orientation.
            assert pins2.keys() == pins.keys() and pins2 != pins

    def test_pattern_edges_do_not_share_memo_entries(self):
        """One delta runs a pin-first plan per pattern edge, and memo
        keys hold per-plan spec ids. On a directed 4-path, ops of two
        such plans share a spec id and prior image but read different
        rows, so a memo kept across the switch miscounts: every delta
        must still equal the recount."""
        g = Graph.from_edges(4, [(0, 3), (3, 2), (1, 3), (2, 0)], directed=True)
        pattern = Graph.from_edges(4, [(1, 0), (2, 1), (3, 2)], directed=True)
        engine = CSCE(g)
        matcher = ContinuousMatcher(engine, pattern)
        for e in list(g.edges()):
            matcher.remove(e.src, e.dst, e.label, e.directed)
            assert matcher.total == engine.count(pattern)
            matcher.insert(e.src, e.dst, e.label, e.directed)
            assert matcher.total == engine.count(pattern)
