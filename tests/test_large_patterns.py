"""Tests at the paper's large-pattern end: hundreds of pattern vertices.

Fig. 10 plans patterns up to 2000 vertices; these tests make sure the
engine's full path (plan *and* execute) survives deep recursion and that
counting with factorization handles very wide independence.
"""

import itertools

import pytest

from repro.core import CSCE, Variant
from repro.graph import Graph


class TestDeepPatterns:
    def test_match_400_vertex_path(self):
        """A 400-vertex path matched in a 600-vertex path: recursion depth
        equals the pattern size, well past Python's default limit once the
        candidate machinery stacks frames."""
        n = 600
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        k = 400
        p = Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])
        result = CSCE(g).match(p, "edge_induced", count_only=True)
        # A path of k vertices embeds (n - k + 1) times per direction.
        assert result.count == 2 * (n - k + 1)

    def test_enumerate_deep_pattern(self):
        n, k = 320, 300
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        p = Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])
        result = CSCE(g).match(p, "edge_induced")
        assert result.count == 2 * (n - k + 1)
        assert all(len(m) == k for m in result.embeddings)

    def test_plan_large_pattern_all_variants(self):
        from repro.graph.generators import power_law_graph
        from repro.graph.sampling import sample_pattern

        g = power_law_graph(800, 4, num_labels=50, seed=10)
        p = sample_pattern(g, 150, rng=0, style="induced")
        engine = CSCE(g)
        for variant in Variant:
            plan = engine.build_plan(p, variant)
            plan.validate()
            assert len(plan.order) == 150


class TestWideFactorization:
    def test_star_with_many_distinct_leaves(self):
        """A star whose leaves all carry distinct labels: counting must
        factorize into a product over the leaves instead of enumerating the
        full cross product (which would be 5^20 branches)."""
        leaves = 20
        per_label = 5
        g = Graph()
        g.add_vertex("hub")
        for label in range(leaves):
            for _ in range(per_label):
                v = g.add_vertex(f"leaf{label}")
                g.add_edge(0, v)
        p = Graph()
        p.add_vertex("hub")
        for label in range(leaves):
            v = p.add_vertex(f"leaf{label}")
            p.add_edge(0, v)
        result = CSCE(g).match(p, "edge_induced", count_only=True, time_limit=30)
        assert not result.timed_out
        assert result.count == per_label**leaves
        assert result.stats["factorizations"] > 0

    def test_homomorphic_same_label_wide_star(self):
        """Same-label leaves factorize under homomorphism (no injectivity):
        3^12 mappings counted without 3^12 recursion branches."""
        leaves = 12
        g = Graph()
        g.add_vertex("hub")
        for _ in range(3):
            v = g.add_vertex("leaf")
            g.add_edge(0, v)
        p = Graph()
        p.add_vertex("hub")
        for _ in range(leaves):
            v = p.add_vertex("leaf")
            p.add_edge(0, v)
        result = CSCE(g).match(p, "homomorphic", count_only=True, time_limit=30)
        assert result.count == 3**leaves
        # Far fewer recursion nodes than mappings proves the factorization.
        assert result.stats["nodes"] < 3**leaves


class TestMemoLimit:
    def test_memo_cap_preserves_correctness(self):
        from conftest import make_random_graph
        from repro.engine.counting import count_physical
        from repro.engine.executor import Runtime, count_capped, execute_physical
        from repro.engine.physical import compile_plan
        from repro.engine.results import MatchOptions
        from repro.graph.sampling import sample_pattern

        g = make_random_graph(15, 30, num_labels=2, seed=77)
        p = sample_pattern(g, 5, rng=1)
        engine = CSCE(g)
        plan = engine.build_plan(p, "edge_induced")
        physical = compile_plan(plan)
        unlimited = execute_physical(
            physical, MatchOptions(count_only=True)
        ).count

        # Re-run both count paths with each memo capped at one entry:
        # evictions must not change the answer.
        for count in (count_capped, count_physical):
            runtime = Runtime(MatchOptions(count_only=True))
            runtime.computer.memo_limit = 1
            assert count(physical, runtime) == unlimited
