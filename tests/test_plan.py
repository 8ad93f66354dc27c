"""Unit tests for plan assembly and validation."""

import dataclasses

import numpy as np
import pytest

from repro.ccsr import CCSRStore
from repro.core import CSCE, Variant
from repro.core.dag import build_dag
from repro.core.plan import PREDECESSORS, SUCCESSORS, assemble_plan, pool_size
from repro.engine import MatchOptions, compile_plan, execute_physical, plan_query
from repro.engine.verify import verify_physical
from repro.errors import PlanError
from repro.graph import Graph

from conftest import brute_count, make_fig1_graph


@pytest.fixture
def fig1_engine():
    return CSCE(make_fig1_graph())


def ab_pattern():
    p = Graph()
    p.add_vertices(["A", "B"])
    p.add_edge(0, 1, directed=True)
    return p


class TestAssembly:
    def test_backward_constraints_reference_earlier_positions(self, fig1_engine):
        p = make_fig1_graph()  # match the graph in itself
        plan = fig1_engine.build_plan(p, Variant.EDGE_INDUCED)
        plan.validate()
        position = plan.position
        for pos, constraints in enumerate(plan.backward):
            for c in constraints:
                assert position[c.prior] < pos

    def test_first_position_has_pool(self, fig1_engine):
        plan = fig1_engine.build_plan(ab_pattern(), Variant.EDGE_INDUCED)
        pool = plan.first_candidates[0]
        assert pool is not None and pool_size(pool) > 0
        assert plan.backward[0] == []

    def test_directed_edge_direction_resolution(self, fig1_engine):
        p = ab_pattern()
        plan = fig1_engine.build_plan(p, Variant.EDGE_INDUCED)
        constraint = plan.backward[1][0]
        if plan.order == [0, 1]:
            assert constraint.direction == SUCCESSORS
        else:
            assert constraint.direction == PREDECESSORS

    def test_impossible_edge_detected(self, fig1_engine):
        p = Graph()
        p.add_vertices(["C", "D"])
        p.add_edge(0, 1)
        plan = fig1_engine.build_plan(p, Variant.EDGE_INDUCED)
        assert plan.impossible()

    def test_memo_specs_shared_by_nec_twins(self, fig1_engine):
        # Star A with two B out-neighbors: the two B leaves are
        # NEC-equivalent and must share a memo spec.
        p = Graph()
        p.add_vertices(["A", "B", "B"])
        p.add_edge(0, 1, directed=True)
        p.add_edge(0, 2, directed=True)
        plan = fig1_engine.build_plan(p, Variant.EDGE_INDUCED)
        positions = [plan.position[1], plan.position[2]]
        assert plan.memo_specs[positions[0]] == plan.memo_specs[positions[1]]

    def test_memo_priors_cover_negations(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        p = Graph.from_edges(3, [(0, 1), (1, 2)])
        plan = CSCE(g).build_plan(p, Variant.VERTEX_INDUCED)
        for pos in range(3):
            neg_priors = {c.prior for c in plan.negations[pos]}
            assert neg_priors <= set(plan.memo_priors[pos])

    def test_plan_records_descendants(self, fig1_engine):
        plan = fig1_engine.build_plan(ab_pattern(), Variant.EDGE_INDUCED)
        assert set(plan.descendant_sizes) == {0, 1}

    def test_validate_rejects_bad_order(self, fig1_engine):
        plan = fig1_engine.build_plan(ab_pattern(), Variant.EDGE_INDUCED)
        plan.order = [1, 1]
        with pytest.raises(PlanError):
            plan.validate()


class TestPlannerConfigs:
    def test_unknown_planner_rejected(self, fig1_engine):
        with pytest.raises(PlanError, match="unknown planner"):
            fig1_engine.build_plan(ab_pattern(), planner="qp")

    @pytest.mark.parametrize("planner", ["csce", "ri", "ri_cluster", "rm"])
    def test_all_planners_produce_valid_plans(self, fig1_engine, planner):
        plan = fig1_engine.build_plan(
            ab_pattern(), Variant.EDGE_INDUCED, planner=planner
        )
        plan.validate()
        assert plan.planner_name == planner

    @pytest.mark.parametrize("planner", ["csce", "ri", "ri_cluster", "rm"])
    def test_all_planners_same_count(self, planner):
        from repro.graph.generators import erdos_renyi
        from repro.graph.sampling import sample_pattern

        g = erdos_renyi(20, 50, num_labels=2, seed=9)
        p = sample_pattern(g, 4, rng=0)
        engine = CSCE(g)
        reference = engine.match(p, "edge_induced", count_only=True).count
        assert (
            engine.match(
                p, "edge_induced", count_only=True, planner=planner
            ).count
            == reference
        )

    @pytest.mark.parametrize("planner", ["csce", "ri", "ri_cluster"])
    def test_order_prefix_kept_and_cached_apart(self, planner):
        from repro.graph.generators import erdos_renyi
        from repro.graph.sampling import sample_pattern

        g = erdos_renyi(20, 50, num_labels=2, seed=9)
        p = sample_pattern(g, 5, rng=0)
        session = CSCE(g).session
        standing = session.compile(p, planner=planner)
        cache = dict(session.cache_info)
        for e in p.edges():
            # A prefixed plan is built apart from the cache: it neither
            # enters it nor displaces the standing plan.
            prefix = (e.dst, e.src)
            pinned = session.build(p, planner=planner, prefix=prefix)
            assert pinned.order[:2] == list(prefix)
            assert session.cache_info == cache
            again = session.compile(p, planner=planner)
            assert again is standing
            assert session.cache_info["hits"] == cache["hits"] + 1
            cache = dict(session.cache_info)
            counted = MatchOptions(count_only=True)
            assert (
                execute_physical(pinned, counted).count
                == execute_physical(standing, counted).count
            )

    def test_order_prefix_rejected_where_unsupported(self, fig1_engine):
        store = fig1_engine.store
        p = ab_pattern()
        with pytest.raises(PlanError, match="distinct vertices"):
            plan_query(store, p, prefix=(0, 0))
        with pytest.raises(PlanError, match="takes no order prefix"):
            plan_query(store, p, planner="rm", prefix=(0, 1))

    def test_prebuilt_plan_reuse(self, fig1_engine):
        # An engine-level caller holding a logical plan compiles and
        # executes it itself; the count is the facade's.
        p = ab_pattern()
        plan = fig1_engine.build_plan(p, Variant.EDGE_INDUCED)
        direct = fig1_engine.match(p, Variant.EDGE_INDUCED)
        reused = execute_physical(compile_plan(plan), MatchOptions())
        assert direct.count == reused.count


class TestFirstCandidatePool:
    def test_reported_pool_size_is_live(self):
        """describe, the op table and EXPLAIN report the pool's size now:
        a vertex's first row in the cluster grows it, with no replan."""
        from repro.obs.explain import build_explain

        engine = CSCE(Graph.from_edges(4, [(0, 1), (1, 2)]))
        physical = engine.session.compile(Graph.from_edges(2, [(0, 1)]))
        engine.store.insert_edge(2, 3)
        assert "static pool of 4 candidates" in physical.logical.describe()
        assert physical.step_table()[0]["static_pool"] == 4
        explain = build_explain(physical.logical, physical=physical)
        assert explain["steps"][0]["static_pool"] == 4

    def test_pool_label_filtered_for_undirected_edge(self):
        g = Graph()
        g.add_vertices(["A", "B", "B"])
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        p = Graph()
        p.add_vertices(["B", "A"])
        p.add_edge(0, 1)
        engine = CSCE(g)
        plan = engine.build_plan(p, Variant.EDGE_INDUCED)
        label = p.vertex_label(plan.order[0])
        # The mixed-label cluster's live rows, filtered by a label set.
        rows, labelled = plan.first_candidates[0]
        (cluster,) = engine.store.clusters.values()
        assert rows is cluster.rows_at_least(True, 1) and rows == {0, 1, 2}
        assert labelled == {v for v in range(3) if g.vertex_label(v) == label}

    def test_isolated_pattern_vertex_pool_falls_back_to_label(self):
        g = Graph()
        g.add_vertices(["A", "A", "B"])
        g.add_edge(0, 2)
        p = Graph()
        p.add_vertices(["A", "B", "A"])  # vertex 2 is isolated
        p.add_edge(0, 1)
        plan = CSCE(g).build_plan(p, Variant.EDGE_INDUCED)
        pos = plan.position[2]
        assert plan.first_candidates[pos] == (frozenset({0, 1}),)


def _row_filter_case():
    """A labelled graph and pattern for the row filters' direction
    handling. Pattern vertex 0 (label A) has two out-edges and one
    in-edge in the directed cluster (A, A, "e"), and one edge in the
    undirected cluster (A, B, "f"). Data vertex 0 hosts it with exactly
    one in-edge, so a filter reading the wrong direction undercounts;
    data vertex 6 has two out-edges but no in-edge."""
    g = Graph()
    g.add_vertices(["A"] * 7 + ["B"] * 2)
    for src, dst in [(0, 1), (0, 2), (2, 3), (4, 0), (4, 5), (5, 4),
                     (6, 1), (6, 3)]:
        g.add_edge(src, dst, "e", directed=True)
    for a, b in [(0, 7), (4, 8), (5, 8), (6, 8)]:
        g.add_edge(a, b, "f")
    p = Graph()
    p.add_vertices(["A", "A", "A", "A", "B"])
    p.add_edge(0, 1, "e", directed=True)
    p.add_edge(0, 2, "e", directed=True)
    p.add_edge(3, 0, "e", directed=True)
    p.add_edge(0, 4, "f")
    return g, p


class TestRowRequirements:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_directions_against_brute_force(self, variant):
        """Order [1, 0, 2, 3, 4]: vertex 0's out-edge to 1 is backward,
        its other out-edge, its in-edge from 3 and its undirected edge
        are forward. Its filters then need two successors (more than the
        backward edge implies), one predecessor (from the forward in-edge
        alone) and one row in the undirected cluster. The count matches
        brute force with and without the filters, and the filters prune."""
        g, p = _row_filter_case()
        store = CCSRStore(g)
        task = store.read(p, variant)
        order = [1, 0, 2, 3, 4]
        dag = build_dag(p, order, variant, task)
        plan = assemble_plan(store, task, p, order, dag, variant, "csce")
        directed = store.cluster_for("A", "A", "e", True)
        undirected = store.cluster_for("A", "B", "f", False)
        got = {(r.cluster.key, r.direction, r.k) for r in plan.requirements[1]}
        if variant.injective:
            assert got == {
                (directed.key, SUCCESSORS, 2),
                (directed.key, PREDECESSORS, 1),
                (undirected.key, SUCCESSORS, 1),
            }
        else:
            assert not any(plan.requirements)
        # Vertex 4's one edge is backward: its k = 1 is implied, dropped.
        assert plan.requirements[4] == ()
        # Both endpoints of an undirected edge read the one CSR.
        assert undirected.rows_at_least(True, 1) is undirected.rows_at_least(
            False, 1
        )
        assert undirected.rows_at_least(True, 1) == {0, 4, 5, 6, 7, 8}
        physical = compile_plan(plan)
        assert verify_physical(physical, store).ok
        counted = MatchOptions(count_only=True)
        filtered = execute_physical(physical, counted)
        unfiltered = execute_physical(
            dataclasses.replace(
                physical,
                ops=tuple(
                    dataclasses.replace(op, admissible=()) for op in physical.ops
                ),
            ),
            counted,
        )
        expected = brute_count(g, p, variant.value)
        assert expected > 0
        assert filtered.count == unfiltered.count == expected
        if variant.injective:
            assert filtered.stats["nodes"] < unfiltered.stats["nodes"]
