"""Unit tests for CCSR store persistence."""

import pytest

from repro.ccsr import CCSRStore, load_store, save_store, store_file_size
from repro.core import CSCE
from repro.errors import FormatError
from repro.graph import Graph

from conftest import make_fig1_graph, make_random_graph


@pytest.fixture
def fig1_store():
    return CCSRStore(make_fig1_graph())


class TestRoundTrip:
    def test_graph_survives(self, tmp_path, fig1_store):
        path = tmp_path / "store.npz"
        save_store(fig1_store, path)
        loaded = load_store(path)
        assert loaded.to_graph() == make_fig1_graph()

    def test_metadata_survives(self, tmp_path, fig1_store):
        path = tmp_path / "store.npz"
        save_store(fig1_store, path)
        loaded = load_store(path)
        assert loaded.name == fig1_store.name
        assert loaded.num_vertices == fig1_store.num_vertices
        assert loaded.num_edges == fig1_store.num_edges
        assert loaded.vertex_labels == fig1_store.vertex_labels
        assert loaded.label_frequency == fig1_store.label_frequency
        assert set(loaded.clusters) == set(fig1_store.clusters)

    def test_label_types_preserved(self, tmp_path):
        g = Graph()
        g.add_vertices([0, "0", 1])  # int 0 and str "0" must stay distinct
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        path = tmp_path / "store.npz"
        save_store(CCSRStore(g), path)
        loaded = load_store(path)
        assert loaded.vertex_labels == [0, "0", 1]

    def test_edge_labels_and_direction_preserved(self, tmp_path):
        g = Graph()
        g.add_vertices(["A", "B"])
        g.add_edge(0, 1, label="rel", directed=True)
        g.add_edge(1, 0, label=7, directed=True)
        path = tmp_path / "store.npz"
        save_store(CCSRStore(g), path)
        assert load_store(path).to_graph() == g

    def test_matching_works_on_loaded_store(self, tmp_path):
        g = make_random_graph(20, 45, num_labels=3, seed=91)
        from repro.graph.sampling import sample_pattern

        p = sample_pattern(g, 4, rng=0)
        path = tmp_path / "store.npz"
        save_store(CCSRStore(g), path)
        fresh = CSCE(g)
        loaded = CSCE(load_store(path))
        for variant in ("edge_induced", "vertex_induced", "homomorphic"):
            assert loaded.count(p, variant) == fresh.count(p, variant)

    def test_loaded_store_has_the_built_attribute_set(self, tmp_path, fig1_store):
        # Both constructors assign through one path, so a field added to
        # the store cannot be missing from a loaded one.
        path = tmp_path / "store.npz"
        save_store(fig1_store, path)
        loaded = load_store(path)
        assert vars(loaded).keys() == vars(fig1_store).keys()
        assert loaded.version == loaded.layout_version == 0

    def test_update_stream_on_loaded_store_keeps_exact_totals(self, tmp_path):
        import random

        from repro.core import ContinuousMatcher
        from repro.graph.patterns import path as path_pattern

        g = make_random_graph(12, 20, seed=92)
        archive = tmp_path / "store.npz"
        save_store(CCSRStore(g), archive)
        engine = CSCE(load_store(archive))
        matcher = ContinuousMatcher(engine, path_pattern(3))
        present = {(min(e.src, e.dst), max(e.src, e.dst)) for e in g.edges()}
        rng = random.Random(93)
        for _ in range(25):
            a, b = sorted(rng.sample(range(12), 2))
            if (a, b) in present:
                matcher.remove(a, b)
                present.discard((a, b))
            else:
                matcher.insert(a, b)
                present.add((a, b))
            recount = CSCE(Graph.from_edges(12, sorted(present)))
            assert matcher.total == recount.count(path_pattern(3))

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "store.npz"
        save_store(CCSRStore(Graph()), path)
        loaded = load_store(path)
        assert loaded.num_vertices == 0
        assert loaded.num_clusters == 0


class TestErrors:
    def test_not_an_archive(self, tmp_path):
        import numpy as np

        path = tmp_path / "other.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises(FormatError, match="not a CCSR store"):
            load_store(path)

    def test_unsupported_label_type(self, tmp_path, fig1_store):
        g = Graph()
        g.add_vertices([(1, 2)])  # tuple labels cannot be persisted
        with pytest.raises(FormatError, match="cannot be persisted"):
            save_store(CCSRStore(g), tmp_path / "x.npz")


class TestFileSize:
    def test_size_estimate_positive(self, fig1_store):
        assert store_file_size(fig1_store) > 0

    def test_size_grows_with_graph(self):
        small = CCSRStore(make_random_graph(10, 20, seed=1))
        large = CCSRStore(make_random_graph(100, 400, seed=1))
        assert store_file_size(large) > store_file_size(small)
