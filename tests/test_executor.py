"""Unit tests for the execution engine (enumeration, limits, options)."""

import pytest

from repro.core import CSCE, MatchOptions, Variant
from repro.engine import compile_plan, execute_physical
from repro.graph import Graph

from conftest import brute_count


@pytest.fixture
def square_engine(square_with_diagonal):
    return CSCE(square_with_diagonal)


class TestEnumeration:
    def test_embeddings_are_valid_mappings(self, square_with_diagonal, path3):
        engine = CSCE(square_with_diagonal)
        result = engine.match(path3, "edge_induced")
        assert result.count == len(result.embeddings)
        for embedding in result.embeddings:
            assert sorted(embedding) == [0, 1, 2]
            # every pattern edge maps to a data edge
            for e in path3.edges():
                assert square_with_diagonal.has_edge(
                    embedding[e.src], embedding[e.dst]
                )

    def test_embeddings_distinct(self, square_engine, path3):
        result = square_engine.match(path3, "edge_induced")
        seen = {tuple(sorted(m.items())) for m in result.embeddings}
        assert len(seen) == result.count

    def test_injective_variants_have_distinct_images(self, square_engine, path3):
        result = square_engine.match(path3, "edge_induced")
        for embedding in result.embeddings:
            assert len(set(embedding.values())) == len(embedding)

    def test_homomorphic_allows_repeats(self, square_engine, path3):
        result = square_engine.match(path3, "homomorphic")
        assert any(
            len(set(m.values())) < len(m) for m in result.embeddings
        )

    def test_impossible_pattern_returns_zero(self, square_engine):
        p = Graph()
        p.add_vertices(["Z", "Z"])
        p.add_edge(0, 1)
        result = square_engine.match(p, "edge_induced")
        assert result.count == 0
        assert result.embeddings == []


class TestLimits:
    def test_max_embeddings_truncates(self, square_engine, path3):
        result = square_engine.match(path3, "edge_induced", max_embeddings=5)
        assert result.count == 5
        assert result.truncated
        assert len(result.embeddings) == 5

    def test_max_embeddings_no_trunc_if_fewer(self, square_engine, path3):
        result = square_engine.match(path3, "edge_induced", max_embeddings=10**6)
        assert not result.truncated

    def test_time_limit_flags_timeout(self):
        from repro.graph.generators import power_law_graph
        from repro.graph.sampling import sample_pattern

        g = power_law_graph(400, 5, seed=3)
        p = sample_pattern(g, 8, rng=1, style="dense")
        result = CSCE(g).match(p, "edge_induced", time_limit=0.05)
        assert result.timed_out
        # Partial count preserved and elapsed roughly respects the limit.
        assert result.elapsed < 5.0

    def test_count_only_skips_materialization(self, square_engine, path3):
        result = square_engine.match(path3, "edge_induced", count_only=True)
        assert result.embeddings is None
        assert result.count == 16

    def test_capped_counting_goes_through_enumeration(self, square_engine, path3):
        result = square_engine.match(
            path3, "edge_induced", count_only=True, max_embeddings=3
        )
        assert result.count == 3
        assert result.truncated
        assert result.embeddings is None


class TestUseSceAblation:
    @pytest.mark.parametrize("variant", ["edge_induced", "vertex_induced", "homomorphic"])
    def test_same_counts_with_and_without_sce(self, variant):
        from conftest import make_random_graph
        from repro.graph.sampling import sample_pattern

        g = make_random_graph(15, 30, num_labels=2, seed=4)
        p = sample_pattern(g, 4, rng=2)
        engine = CSCE(g)
        with_sce = engine.match(p, variant, count_only=True, use_sce=True).count
        without = engine.match(p, variant, count_only=True, use_sce=False).count
        assert with_sce == without == brute_count(g, p, variant)

    def test_sce_reduces_candidate_computations(self):
        # Star pattern: leaves share candidates, so SCE must cut the number
        # of candidate-set computations.
        g = Graph.from_edges(8, [(0, i) for i in range(1, 8)])
        p = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        engine = CSCE(g)
        with_sce = engine.match(p, "edge_induced", use_sce=True)
        without = engine.match(p, "edge_induced", use_sce=False)
        assert with_sce.count == without.count
        assert with_sce.stats["computed"] < without.stats["computed"]
        assert with_sce.stats["memo_hits"] > 0


class TestRestrictions:
    def test_triangle_restrictions_divide_by_automorphisms(self, square_engine):
        tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        full = square_engine.match(tri, "edge_induced").count
        restricted = square_engine.match(
            tri, "edge_induced", restrictions=[(0, 1), (1, 2)]
        )
        assert restricted.count * 6 == full

    def test_restricted_embeddings_are_sorted(self, square_engine):
        tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        result = square_engine.match(
            tri, "edge_induced", restrictions=[(0, 1), (1, 2)]
        )
        for m in result.embeddings:
            assert m[0] < m[1] < m[2]

    def test_restrictions_disable_factorized_counting(self, square_engine):
        tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        result = square_engine.match(
            tri, "edge_induced", count_only=True, restrictions=[(0, 1), (1, 2)]
        )
        assert result.count == 2  # two triangles, each once
        assert result.embeddings is None


class TestMatchResult:
    def test_total_seconds_sums_stages(self, square_engine, path3):
        result = square_engine.match(path3, "edge_induced")
        assert result.total_seconds == pytest.approx(
            result.elapsed
            + result.read_seconds
            + result.plan_seconds
            + result.compile_seconds
        )

    def test_throughput(self, square_engine, path3):
        result = square_engine.match(path3, "edge_induced")
        if result.elapsed > 0:
            assert result.throughput == pytest.approx(
                result.count / result.elapsed
            )

    def test_repr_flags(self, square_engine, path3):
        truncated = square_engine.match(path3, "edge_induced", max_embeddings=1)
        assert "truncated" in repr(truncated)


class TestExecuteDirect:
    def test_execute_with_default_options(self, square_engine, path3):
        plan = square_engine.build_plan(path3, Variant.EDGE_INDUCED)
        result = execute_physical(compile_plan(plan))
        assert result.count == 16

    def test_execute_with_options_object(self, square_engine, path3):
        plan = square_engine.build_plan(path3, Variant.EDGE_INDUCED)
        result = execute_physical(compile_plan(plan), MatchOptions(count_only=True))
        assert result.count == 16
