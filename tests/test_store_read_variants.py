"""Additional ReadCSR and plan behaviors across variants."""

import pytest

from repro.ccsr import CCSRStore
from repro.core import CSCE, Variant
from repro.graph import Graph

from conftest import make_fig1_graph


class TestReadVariantBehavior:
    def test_homomorphic_reads_no_negations(self):
        store = CCSRStore(make_fig1_graph())
        p = Graph()
        p.add_vertices(["A", "B", "B"])
        p.add_edge(0, 1, directed=True)
        p.add_edge(0, 2, directed=True)
        for variant in ("edge_induced", "homomorphic"):
            task = store.read(p, variant)
            assert task.negation_checks == {}

    def test_vertex_induced_connected_pair_reverse_negation(self):
        """A directed pattern edge A->B forbids a surplus reverse data edge
        B->A under induced semantics."""
        g = Graph()
        g.add_vertices(["A", "B", "A", "B"])
        g.add_edge(0, 1, directed=True)           # forward only
        g.add_edge(2, 3, directed=True)
        g.add_edge(3, 2, directed=True)           # mutual pair
        p = Graph()
        p.add_vertices(["A", "B"])
        p.add_edge(0, 1, directed=True)
        engine = CSCE(g)
        assert engine.count(p, "edge_induced") == 2   # both pairs match
        assert engine.count(p, "vertex_induced") == 1  # mutual pair excluded

    def test_vertex_induced_edge_label_surplus(self):
        """Same pair, second parallel edge with another label is surplus."""
        g = Graph()
        g.add_vertices(["A", "B", "A", "B"])
        g.add_edge(0, 1, label="x")
        g.add_edge(2, 3, label="x")
        g.add_edge(2, 3, label="y")
        p = Graph()
        p.add_vertices(["A", "B"])
        p.add_edge(0, 1, label="x")
        engine = CSCE(g)
        assert engine.count(p, "edge_induced") == 2
        assert engine.count(p, "vertex_induced") == 1

    def test_read_twice_is_idempotent(self):
        store = CCSRStore(make_fig1_graph())
        p = Graph()
        p.add_vertices(["A", "B"])
        p.add_edge(0, 1, directed=True)
        first = store.read(p, Variant.EDGE_INDUCED)
        second = store.read(p, Variant.EDGE_INDUCED)
        assert first.num_clusters == second.num_clusters
        # Second read touches already-decompressed clusters: fewer bytes.
        assert second.bytes_read <= first.bytes_read

    def test_plan_reuse_gives_fresh_results(self, square_with_diagonal):
        engine = CSCE(square_with_diagonal)
        p = Graph.from_edges(3, [(0, 1), (1, 2)])
        first = engine.match(p, Variant.EDGE_INDUCED)
        second = engine.match(p, Variant.EDGE_INDUCED)  # a plan-cache hit
        assert engine.session.cache_info["hits"] == 1
        assert first.count == second.count == 16
        assert first.embeddings == second.embeddings


class TestStoreSharedBetweenEngines:
    def test_two_engines_one_store(self):
        store = CCSRStore(make_fig1_graph())
        p = Graph()
        p.add_vertices(["A", "B"])
        p.add_edge(0, 1, directed=True)
        a, b = CSCE(store), CSCE(store)
        assert a.count(p) == b.count(p) == 4

    def test_update_visible_through_shared_store(self):
        store = CCSRStore(make_fig1_graph())
        engine = CSCE(store)
        p = Graph()
        p.add_vertices(["A", "B"])
        p.add_edge(0, 1, directed=True)
        before = engine.count(p)
        store.insert_edge(7, 4, directed=True)  # one more A -> B edge
        assert engine.count(p) == before + 1
