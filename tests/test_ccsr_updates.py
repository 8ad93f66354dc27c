"""Unit tests for incremental CCSR updates."""

import os
import random
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.ccsr import CCSRStore
from repro.ccsr.io import load_store, save_store
from repro.core import CSCE
from repro.core.plan import PREDECESSORS, SUCCESSORS, _shortest_row
from repro.errors import GraphError
from repro.graph import Graph

from conftest import make_fig1_graph, make_random_graph

_ARRAYS = ("rows", "row_counts", "cols", "_offsets", "full_offsets")


class TestInsertVertex:
    def test_insert_updates_metadata(self):
        store = CCSRStore(make_fig1_graph())
        v = store.insert_vertex("A")
        assert v == 10
        assert store.num_vertices == 11
        assert store.label_frequency["A"] == 4

    def test_decompressed_clusters_resize(self):
        store = CCSRStore(make_fig1_graph())
        for cluster in store.clusters.values():
            cluster.decompress()
        v = store.insert_vertex("B")
        # Neighbor access for the new vertex must work after re-decompress.
        for cluster in store.clusters.values():
            cluster.decompress()
            assert cluster.successors(v).shape == (0,)


class TestInsertEdge:
    def test_insert_into_existing_cluster(self):
        store = CCSRStore(make_fig1_graph())
        before = store.num_edges
        store.insert_edge(7, 4, directed=True)  # another A -> B edge
        assert store.num_edges == before + 1
        cluster = store.cluster_for("A", "B", None, True)
        assert cluster.contains_edge(7, 4)

    def test_insert_creates_new_cluster(self):
        store = CCSRStore(make_fig1_graph())
        before = store.num_clusters
        store.insert_edge(1, 2)  # B -- C: no such cluster yet
        assert store.num_clusters == before + 1
        assert len(store.clusters_connecting("B", "C")) == 1

    def test_duplicate_rejected(self):
        store = CCSRStore(make_fig1_graph())
        with pytest.raises(GraphError, match="duplicate"):
            store.insert_edge(0, 1, directed=True)

    def test_undirected_duplicate_rejected_reversed(self):
        store = CCSRStore(make_fig1_graph())
        with pytest.raises(GraphError, match="duplicate"):
            store.insert_edge(2, 0)  # v3 -- v1 already stored as (0, 2)

    def test_self_loop_rejected(self):
        store = CCSRStore(make_fig1_graph())
        with pytest.raises(GraphError, match="self-loop"):
            store.insert_edge(3, 3)

    def test_missing_vertex_rejected(self):
        store = CCSRStore(make_fig1_graph())
        with pytest.raises(GraphError, match="missing vertex"):
            store.insert_edge(0, 99)


class TestRemoveEdge:
    def test_remove_directed(self):
        store = CCSRStore(make_fig1_graph())
        store.remove_edge(0, 1, directed=True)
        cluster = store.cluster_for("A", "B", None, True)
        assert not cluster.contains_edge(0, 1)
        assert cluster.contains_edge(0, 5)

    def test_remove_undirected_either_orientation(self):
        store = CCSRStore(make_fig1_graph())
        store.remove_edge(2, 0)  # stored as (0, 2)
        cluster = store.cluster_for("A", "C", None, False)
        assert not cluster.contains_edge(0, 2)

    def test_last_edge_drops_cluster(self):
        g = Graph()
        g.add_vertices(["X", "Y"])
        g.add_edge(0, 1)
        store = CCSRStore(g)
        store.remove_edge(0, 1)
        assert store.num_clusters == 0
        assert store.clusters_connecting("X", "Y") == []

    def test_remove_missing_edge(self):
        store = CCSRStore(make_fig1_graph())
        with pytest.raises(GraphError, match="does not exist"):
            store.remove_edge(1, 2)


class TestUpdateEquivalence:
    """A randomly updated store must behave exactly like a store built
    from scratch on the final graph — the key maintenance invariant."""

    def test_random_update_sequence(self):
        rng = random.Random(5)
        base = make_random_graph(12, 20, num_labels=2, seed=30)
        store = CCSRStore(base)
        current = base.copy()
        for _ in range(25):
            if rng.random() < 0.5 and current.num_edges > 5:
                edge = rng.choice(list(current.edges()))
                store.remove_edge(edge.src, edge.dst, edge.label, edge.directed)
                rebuilt = Graph(name=current.name)
                rebuilt.add_vertices(current.vertex_labels)
                for e in current.edges():
                    if e != edge:
                        rebuilt.add_edge(e.src, e.dst, e.label, e.directed)
                current = rebuilt
            else:
                a = rng.randrange(current.num_vertices)
                b = rng.randrange(current.num_vertices)
                directed = rng.random() < 0.5
                try:
                    current.add_edge(a, b, directed=directed)
                except GraphError:
                    continue
                store.insert_edge(a, b, directed=directed)
        assert store.to_graph() == current
        assert store.num_edges == current.num_edges
        assert store.total_column_entries() == 2 * current.num_edges

    def test_matching_after_updates(self):
        g = make_random_graph(14, 25, num_labels=2, seed=31)
        store = CCSRStore(g)
        # Densify one neighborhood, then remove a few edges.
        added = []
        for b in (5, 6, 7):
            try:
                store.insert_edge(0, b)
                added.append((0, b))
            except GraphError:
                pass
        final = store.to_graph()
        fresh = CSCE(final)
        updated = CSCE(store)
        from repro.graph.patterns import by_name

        for variant in ("edge_induced", "vertex_induced", "homomorphic"):
            assert updated.count(by_name("triangle"), variant) == fresh.count(
                by_name("triangle"), variant
            )


def _csrs(cluster):
    return [csr for csr in (cluster.out_csr, cluster.in_csr) if csr is not None]


def _graph(labels, edges):
    graph = Graph()
    graph.add_vertices(labels)
    for src, dst, label, directed in sorted(edges, key=repr):
        graph.add_edge(src, dst, label, directed)
    return graph


def _edge_key(src, dst, label, directed):
    """One key per stored edge: an undirected edge in either orientation."""
    if directed:
        return src, dst, label, True
    return min(src, dst), max(src, dst), label, False


class TestRowLocalUpdates:
    """An edge update replaces row sets and copies no array; the arrays
    are rebuilt only when something reads them."""

    def test_updates_copy_no_array_until_a_reader_folds(self):
        graph = make_random_graph(40, 160, num_labels=2, seed=11)
        ring = [v for v in graph.vertices() if graph.vertex_label(v) == 0][:6]
        for i, src in enumerate(ring):
            graph.add_edge(src, ring[(i + 1) % 6], "d", directed=True)
        store = CCSRStore(graph)
        for cluster in store.clusters.values():
            cluster.decompress()
        before = {
            (key, side): [getattr(csr, name) for name in _ARRAYS]
            for key, cluster in store.clusters.items()
            for side, csr in enumerate(_csrs(cluster))
        }
        edges = {_edge_key(e.src, e.dst, e.label, e.directed) for e in graph.edges()}
        rng = random.Random(3)
        for _ in range(60):
            src, dst, label, directed = rng.choice(sorted(edges, key=repr))
            store.remove_edge(src, dst, label, directed)
            store.insert_edge(src, dst, label, directed)
        for src, dst in [(ring[0], ring[2]), (ring[3], ring[1])]:
            store.insert_edge(src, dst, "d", directed=True)
            edges.add((src, dst, "d", True))
        assert store.clusters.keys() == {key for key, _ in before}
        for key, cluster in store.clusters.items():
            for side, csr in enumerate(_csrs(cluster)):
                for name, was in zip(_ARRAYS, before[key, side]):
                    assert getattr(csr, name) is was, (key, side, name)
        directed = store.cluster_for(0, 0, "d", True)
        assert directed.contains_edge(ring[3], ring[1])
        assert directed.num_edges == 8
        # A reader folds the changed rows into fresh, exact arrays.
        directed.predecessors(ring[1])
        assert directed.in_csr.cols is not before[directed.key, 1][2]
        fresh = CCSRStore(_graph(graph.vertex_labels, edges))
        for key, cluster in store.clusters.items():
            for csr, ref in zip(_csrs(cluster), _csrs(fresh.clusters[key])):
                ref.decompress()
                csr.decompress()
                for name in _ARRAYS:
                    assert getattr(csr, name).tolist() == getattr(ref, name).tolist()


def _read_arrays(cluster, csr):
    return [array.tolist() for array in csr.compressed_arrays()]


def _read_rows_at_least(cluster, csr):
    return [csr.rows_at_least(k) for k in (1, 2, 3)]


def _read_decompressed(cluster, csr):
    csr.decompress()
    return csr.full_offsets.tolist(), csr.cols.tolist()


#: Every reader of a CSR's arrays, each run first on its own updated
#: store, so each one folds the changed rows itself.
_READERS = {
    "neighbors": lambda cluster, csr: [
        csr.neighbors(v).tolist() for v in range(csr.num_vertices)
    ],
    "successors": lambda cluster, csr: [
        (cluster.successors(v).tolist(), cluster.predecessors(v).tolist())
        for v in range(csr.num_vertices)
    ],
    "iter_edges": lambda cluster, csr: list(csr.iter_edges()),
    "source_vertices": lambda cluster, csr: csr.source_vertices().tolist(),
    "destination_vertices": lambda cluster, csr: (
        cluster.destination_vertices().tolist()
    ),
    "decompress": _read_decompressed,
    "nbytes": lambda cluster, csr: csr.nbytes(),
    "compressed_index_length": lambda cluster, csr: csr.compressed_index_length,
    "compressed_arrays": _read_arrays,
    "rows_at_least": _read_rows_at_least,
    "num_entries": lambda cluster, csr: csr.num_entries,
    "row": lambda cluster, csr: [csr.row(v) for v in range(csr.num_vertices)],
}


@st.composite
def update_runs(draw):
    """A labelled graph with directed and undirected (and edge-labelled)
    edges, then a run of inserts and removes over it, plus what was
    read before the run (row sets, admissible sets, the standard I_R)."""
    n = draw(st.integers(min_value=3, max_value=9))
    labels = [draw(st.integers(min_value=0, max_value=1)) for _ in range(n)]
    edge = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
        st.sampled_from([None, "x"]),
        st.booleans(),
    ).filter(lambda e: e[0] != e[1])
    start = {_edge_key(*e) for e in draw(st.lists(edge, max_size=16))}
    # Half the toggles remove a starting edge (or put it back).
    toggle = edge
    if start:
        toggle = st.one_of(st.sampled_from(sorted(start, key=repr)), edge)
    toggles = draw(st.lists(toggle, min_size=1, max_size=30))
    warm = draw(st.booleans())
    return labels, start, toggles, warm


def _updated(labels, start, toggles, warm):
    """The store over ``start`` after ``toggles`` (each inserts its edge
    if absent, else removes it), and the final edge set."""
    store = CCSRStore(_graph(labels, start))
    if warm:
        for cluster in store.clusters.values():
            cluster.decompress()
            for csr in _csrs(cluster):
                for k in (1, 2, 3):
                    csr.rows_at_least(k)
                for v in range(len(labels)):
                    csr.row(v)
    edges = set(start)
    for toggle in toggles:
        key = _edge_key(*toggle)
        if key in edges:
            store.remove_edge(*toggle)
            edges.discard(key)
        else:
            store.insert_edge(*toggle)
            edges.add(key)
    return store, edges


class TestUpdatesMatchAFreshStore:
    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(update_runs())
    def test_every_reader_sees_the_final_edge_set(self, run):
        labels, start, toggles, warm = run
        store, edges = _updated(labels, start, toggles, warm)
        fresh = CCSRStore(_graph(labels, edges))
        assert store.clusters.keys() == fresh.clusters.keys()
        assert store.num_edges == fresh.num_edges
        for key, cluster in store.clusters.items():
            ref_cluster = fresh.clusters[key]
            for csr, ref in zip(_csrs(cluster), _csrs(ref_cluster)):
                # Each admissible set built before the run was kept live.
                for k in (1, 2, 3):
                    built = csr.built_rows_at_least(k)
                    assert built is None or built == ref.rows_at_least(k)
            for direction in (SUCCESSORS, PREDECESSORS):
                assert _shortest_row(store, cluster, direction) == _shortest_row(
                    fresh, ref_cluster, direction
                )
        for name, read in _READERS.items():
            store, _ = _updated(labels, start, toggles, warm)
            fresh = CCSRStore(_graph(labels, edges))
            for key, cluster in store.clusters.items():
                if cluster.is_decompressed:
                    fresh.clusters[key].decompress()
            for key, cluster in store.clusters.items():
                ref_cluster = fresh.clusters[key]
                for csr, ref in zip(_csrs(cluster), _csrs(ref_cluster)):
                    assert read(cluster, csr) == read(ref_cluster, ref), name
        store, _ = _updated(labels, start, toggles, warm)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "store.npz")
            save_store(store, path)
            loaded = load_store(path)
        assert loaded.to_graph() == fresh.to_graph()
        for key, cluster in loaded.clusters.items():
            for csr, ref in zip(_csrs(cluster), _csrs(fresh.clusters[key])):
                assert _read_arrays(cluster, csr) == _read_arrays(None, ref)
