"""Unit tests for the baseline matchers (Table III re-implementations)."""

import pytest

from repro.baselines import (
    ALL_BASELINES,
    BacktrackingMatcher,
    FailingSetMatcher,
    GraphflowMatcher,
    SymmetryBreakingMatcher,
    VF2Matcher,
    WCOJMatcher,
    symmetry_restrictions,
)
from repro.bench.harness import make_engine
from repro.core import CSCE, Variant
from repro.errors import EmbeddingLimitExceeded, VariantError
from repro.graph import Graph, count_automorphisms

from conftest import brute_count, make_random_graph


@pytest.fixture(scope="module")
def labeled_graph():
    return make_random_graph(14, 30, num_labels=3, seed=21)


@pytest.fixture(scope="module")
def unlabeled_graph():
    return make_random_graph(12, 26, seed=22)


def small_patterns(graph, sizes=(3, 4), seeds=(0, 1)):
    from repro.graph.sampling import sample_pattern

    patterns = []
    for size in sizes:
        for seed in seeds:
            try:
                patterns.append(sample_pattern(graph, size, rng=seed))
            except Exception:
                pass
    return patterns


class TestBacktracking:
    @pytest.mark.parametrize(
        "variant", ["edge_induced", "vertex_induced", "homomorphic"]
    )
    def test_matches_brute_force(self, labeled_graph, variant):
        matcher = BacktrackingMatcher(labeled_graph)
        for p in small_patterns(labeled_graph):
            assert matcher.count(p, variant) == brute_count(
                labeled_graph, p, variant
            )

    def test_enumeration_mappings_valid(self, labeled_graph):
        matcher = BacktrackingMatcher(labeled_graph)
        p = small_patterns(labeled_graph)[0]
        result = matcher.match(p, "edge_induced")
        for m in result.embeddings:
            assert len(set(m.values())) == p.num_vertices

    def test_max_embeddings(self, labeled_graph):
        matcher = BacktrackingMatcher(labeled_graph)
        p = small_patterns(labeled_graph)[0]
        full = matcher.count(p, "edge_induced")
        if full > 2:
            result = matcher.match(p, "edge_induced", max_embeddings=2)
            assert result.count == 2 and result.truncated

    def test_capped_run_reports_stop_reason(self, unlabeled_graph):
        # A capped baseline run records why it stopped, like CSCE: the
        # typed limit carries the exact partial count.
        gup = make_engine("GuP", unlabeled_graph)
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        result = gup.match(path, "edge_induced", max_embeddings=3)
        assert result.count == 3
        assert result.stop_reason == "embedding_limit"
        assert result.truncated and not result.timed_out
        with pytest.raises(EmbeddingLimitExceeded) as info:
            result.check()
        assert info.value.partial_count == 3

    def test_restrictions(self, unlabeled_graph):
        tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        matcher = BacktrackingMatcher(unlabeled_graph)
        full = matcher.count(tri, "edge_induced")
        restricted = matcher.count(
            tri, "edge_induced", restrictions=[(0, 1), (1, 2)]
        )
        assert restricted * 6 == full


class TestVF2:
    def test_matches_brute_force(self, labeled_graph):
        matcher = VF2Matcher(labeled_graph)
        for p in small_patterns(labeled_graph):
            assert matcher.count(p, "vertex_induced") == brute_count(
                labeled_graph, p, "vertex_induced"
            )

    def test_rejects_edge_induced(self, labeled_graph):
        matcher = VF2Matcher(labeled_graph)
        p = small_patterns(labeled_graph)[0]
        with pytest.raises(VariantError):
            matcher.count(p, "edge_induced")

    def test_directed_graphs(self):
        g = make_random_graph(10, 20, num_labels=2, directed=True, seed=5)
        p = Graph()
        p.add_vertices([0, 1])
        p.add_edge(0, 1, directed=True)
        if brute_count(g, p, "vertex_induced") != VF2Matcher(g).count(
            p, "vertex_induced"
        ):
            pytest.fail("directed VF2 mismatch")


class TestWCOJ:
    @pytest.mark.parametrize("variant", ["edge_induced", "homomorphic"])
    def test_matches_brute_force(self, labeled_graph, variant):
        matcher = WCOJMatcher(labeled_graph)
        for p in small_patterns(labeled_graph):
            assert matcher.count(p, variant) == brute_count(
                labeled_graph, p, variant
            )

    def test_rejects_vertex_induced(self, labeled_graph):
        with pytest.raises(VariantError):
            WCOJMatcher(labeled_graph).count(
                small_patterns(labeled_graph)[0], "vertex_induced"
            )

    def test_graphflow_homomorphic_directed(self):
        g = make_random_graph(10, 25, num_labels=2, directed=True, edge_labels=2, seed=6)
        matcher = GraphflowMatcher(g)
        p = Graph()
        p.add_vertices([0, 1, 0])
        p.add_edge(0, 1, label=0, directed=True)
        p.add_edge(1, 2, label=1, directed=True)
        try:
            got = matcher.count(p, "homomorphic")
        except VariantError:
            pytest.skip("pattern labels unsupported")
        assert got == brute_count(g, p, "homomorphic")

    def test_graphflow_rejects_undirected(self, labeled_graph):
        with pytest.raises(VariantError):
            GraphflowMatcher(labeled_graph).count(
                small_patterns(labeled_graph)[0], "homomorphic"
            )


class TestFailingSet:
    def test_matches_brute_force(self, labeled_graph):
        matcher = FailingSetMatcher(labeled_graph)
        for p in small_patterns(labeled_graph):
            assert matcher.count(p, "edge_induced") == brute_count(
                labeled_graph, p, "edge_induced"
            )

    def test_agrees_with_csce_on_larger_patterns(self, labeled_graph):
        engine = CSCE(labeled_graph)
        matcher = FailingSetMatcher(labeled_graph)
        for p in small_patterns(labeled_graph, sizes=(5, 6), seeds=(2,)):
            assert matcher.count(p, "edge_induced") == engine.count(
                p, "edge_induced"
            )

    def test_rejects_homomorphic(self, labeled_graph):
        with pytest.raises(VariantError):
            FailingSetMatcher(labeled_graph).count(
                small_patterns(labeled_graph)[0], "homomorphic"
            )


class TestSymmetryBreaking:
    @pytest.mark.parametrize(
        "edges,n",
        [
            ([(0, 1), (1, 2), (0, 2)], 3),  # triangle
            ([(0, 1), (1, 2), (2, 3), (3, 0)], 4),  # C4
            ([(0, i) for i in range(1, 5)], 5),  # star
            ([(0, 1), (1, 2), (2, 3)], 4),  # path
            ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4),  # K4
        ],
    )
    def test_count_matches_unbroken(self, unlabeled_graph, edges, n):
        pattern = Graph.from_edges(n, edges)
        expected = CSCE(unlabeled_graph).match(
            pattern, "edge_induced", count_only=True
        ).count
        got = SymmetryBreakingMatcher(unlabeled_graph).match(pattern)
        assert got.count == expected
        assert got.stats["automorphisms"] == count_automorphisms(pattern)

    def test_restrictions_break_all_symmetry(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        restrictions, group = symmetry_restrictions(c4)
        assert group == 8
        # Enough restrictions to pin the group to the identity.
        assert len(restrictions) >= 2

    def test_rejects_labels(self, labeled_graph):
        tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(VariantError):
            SymmetryBreakingMatcher(labeled_graph).match(tri)

    def test_rejects_enumeration(self, unlabeled_graph):
        tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(VariantError):
            SymmetryBreakingMatcher(unlabeled_graph).match(tri, count_only=False)

    def test_forwards_inner_stop_reason(self):
        # The inner restricted run's stop reaches the caller unchanged.
        clique = Graph.from_edges(
            12, [(i, j) for i in range(12) for j in range(i + 1, 12)]
        )
        path = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        result = SymmetryBreakingMatcher(clique).match(path, time_limit=1e-9)
        assert result.stop_reason == "time_limit"
        assert result.timed_out and not result.truncated
        assert result.degradation == []

    def test_records_symmetry_seconds(self, unlabeled_graph):
        tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        result = SymmetryBreakingMatcher(unlabeled_graph).match(tri)
        assert result.stats["symmetry_seconds"] >= 0


class TestCapabilities:
    def test_capability_rows_render(self):
        rows = [cls.capability_row() for cls in ALL_BASELINES]
        names = {row["Algorithm"] for row in rows}
        assert names == {
            "GraphPi",
            "Graphflow",
            "RI-Backtracking",
            "RapidMatch",
            "VEQ",
            "VF3",
        }

    def test_table3_shape(self):
        row = VF2Matcher.capability_row()
        assert row["Variant"] == "V"
        assert row["Edge Direction"] == "U and D"
        assert row["Pattern Size"] == "Up to 2000"

    def test_unsupported_variant_raises(self, unlabeled_graph):
        tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(VariantError):
            VF2Matcher(unlabeled_graph).count(tri, "homomorphic")
