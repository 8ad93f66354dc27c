"""Coverage for small utilities not exercised elsewhere."""

import pytest

from repro.graph import Graph


class TestIterGraphFiles:
    def test_lists_sorted_graph_files(self, tmp_path):
        from repro.graph.io import iter_graph_files, save_graph

        g = Graph.from_edges(2, [(0, 1)])
        save_graph(g, tmp_path / "b.graph")
        save_graph(g, tmp_path / "a.graph")
        (tmp_path / "notes.txt").write_text("ignore me")
        found = list(iter_graph_files(tmp_path))
        assert [f.split("/")[-1] for f in found] == ["a.graph", "b.graph"]


class TestTablesFormatting:
    def test_print_series_custom_format(self, capsys):
        from repro.bench.tables import print_series

        print_series("T", "k", [1], {"s": [0.123456]}, fmt="{:.2f}")
        assert "0.12" in capsys.readouterr().out

    def test_format_table_explicit_columns(self):
        from repro.bench.tables import format_table

        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]


class TestClusterEdgeCases:
    def test_empty_cluster_arrays(self):
        from repro.ccsr import Cluster, ClusterKey

        cluster = Cluster(ClusterKey("A", "B", None, True), [], 5)
        assert cluster.num_entries == 0
        assert cluster.successors(0).shape == (0,)
        cluster.decompress()
        assert cluster.successors(4).shape == (0,)

    def test_repr(self):
        from repro.ccsr import Cluster, ClusterKey

        cluster = Cluster(ClusterKey("A", "B", None, True), [(0, 1)], 2)
        assert "entries=1" in repr(cluster)

    def test_nbytes_positive(self):
        from repro.ccsr import Cluster, ClusterKey

        cluster = Cluster(ClusterKey("A", "B", None, True), [(0, 1)], 2)
        assert cluster.nbytes() > 0
        before = cluster.nbytes()
        cluster.decompress()
        assert cluster.nbytes() > before


class TestPlanDescribe:
    def test_describe_mentions_every_step(self, square_with_diagonal):
        from repro.core import CSCE, Variant

        p = Graph.from_edges(3, [(0, 1), (1, 2)])
        plan = CSCE(square_with_diagonal).build_plan(p, Variant.EDGE_INDUCED)
        text = plan.describe()
        for pos in range(3):
            assert f"step {pos}:" in text
        assert "static pool" in text

    def test_describe_shows_negations(self):
        from repro.core import CSCE, Variant

        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        p = Graph.from_edges(3, [(0, 1), (1, 2)])
        plan = CSCE(g).build_plan(p, Variant.VERTEX_INDUCED)
        assert "negation probes" in plan.describe()


class TestDeltaResultShape:
    def test_count_property(self):
        from repro.core import DeltaResult
        from repro.graph import Edge

        delta = DeltaResult(edge=Edge(0, 1, None, False), count=2, pins_tried=1)
        assert delta.count == 2
        assert delta.stop_reason is None


class TestVariantIteration:
    def test_three_variants(self):
        from repro.core import Variant

        assert len(list(Variant)) == 3


class TestEquivalenceStatsProperties:
    def test_compression_of_trivial_store(self):
        from repro.analysis import EquivalenceStats

        stats = EquivalenceStats(
            num_vertices=4,
            num_classes=4,
            largest_class=1,
            vertices_in_nontrivial_classes=0,
        )
        assert stats.compression == 1.0
        assert stats.nontrivial_fraction == 0.0
