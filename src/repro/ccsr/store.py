"""The CCSR store (``G_C``) and per-task cluster selection (``G_C*``).

:class:`CCSRStore` clusters every edge of a data graph by its
edge-isomorphism class (Section IV) at build time — the paper's offline
stage. :meth:`CCSRStore.read` implements Algorithm 1 (``ReadCSR``): given a
pattern and an SM variant it selects, decompresses, and indexes exactly the
clusters the task needs, including the *negation clusters* that the
vertex-induced variant uses to reject partial embeddings whose data vertices
are connected where the pattern vertices are not.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

from repro.ccsr.cluster import Cluster
from repro.ccsr.key import ClusterKey, cluster_key_for_edge, cluster_key_for_labels
from repro.errors import GraphError
from repro.graph.model import Edge, Graph
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.variants import Variant

logger = logging.getLogger(__name__)

# How a negation check probes a cluster for a data vertex pair (va, vb)
# standing for the pattern pair (u_i, u_j):
FORWARD = "fwd"  # assert no cluster edge va -> vb
REVERSE = "rev"  # assert no cluster edge vb -> va


class NegationCheck:
    """One "this edge must be absent" assertion for a pattern vertex pair."""

    __slots__ = ("cluster", "mode")

    def __init__(self, cluster: Cluster, mode: str) -> None:
        self.cluster = cluster
        self.mode = mode

    def violated(self, va: int, vb: int) -> bool:
        """True if the forbidden data edge exists between ``va`` and ``vb``."""
        if self.mode == FORWARD:
            return self.cluster.contains_edge(va, vb)
        return self.cluster.contains_edge(vb, va)

    def __repr__(self) -> str:
        return f"<NegationCheck {self.cluster.key} {self.mode}>"


class TaskClusters:
    """``G_C*`` — the clusters one (pattern, variant) task uses.

    Attributes
    ----------
    edge_clusters:
        Maps each pattern edge to its cluster, or ``None`` when the data
        graph has no isomorphic edges (the task then has zero embeddings).
    negation_checks:
        For the vertex-induced variant: maps an ordered pattern vertex pair
        ``(u_i, u_j)`` to the cluster probes asserting that *no* unmatched
        data edge may exist between their images.
    read_seconds / bytes_read:
        The decompression overhead measured for Fig. 11.
    """

    def __init__(
        self,
        pattern: Graph,
        variant_name: str,
        edge_clusters: dict[Edge, Cluster | None],
        negation_checks: dict[tuple[int, int], list[NegationCheck]],
        read_seconds: float,
        bytes_read: int,
        data_vertex_labels: list[Hashable] | None = None,
    ) -> None:
        self.pattern = pattern
        self.variant_name = variant_name
        self.edge_clusters = edge_clusters
        self.negation_checks = negation_checks
        self.read_seconds = read_seconds
        self.bytes_read = bytes_read
        self.data_vertex_labels = data_vertex_labels or []
        # Read once: edge_clusters is never mutated, and a cluster that
        # appears or is dropped bumps the store's layout_version, which
        # rereads every task.
        self._impossible = any(c is None for c in edge_clusters.values())

    @property
    def clusters_used(self) -> list[Cluster]:
        seen: dict[int, Cluster] = {}
        for cluster in self.edge_clusters.values():
            if cluster is not None:
                seen[id(cluster)] = cluster
        for checks in self.negation_checks.values():
            for check in checks:
                seen[id(check.cluster)] = check.cluster
        return list(seen.values())

    @property
    def num_clusters(self) -> int:
        return len(self.clusters_used)

    def has_impossible_edge(self) -> bool:
        """True when some pattern edge matched no cluster — zero embeddings."""
        return self._impossible

    def checks_between(self, u_i: int, u_j: int) -> list[NegationCheck]:
        """Negation probes for the ordered pattern pair (u_i, u_j).

        The probes are stored keyed on the ordered pair as built; callers
        pass vertices in the same order they were registered (i < j in
        pattern-vertex id, see ``CCSRStore.read``).
        """
        return self.negation_checks.get((u_i, u_j), [])

    def has_negation_between(self, u_i: int, u_j: int) -> bool:
        """Algorithm 2 line 8: is there any non-empty negation cluster for
        this pattern pair?"""
        a, b = (u_i, u_j) if u_i < u_j else (u_j, u_i)
        return bool(self.negation_checks.get((a, b)))


class CCSRStore:
    """All clusters of a data graph (the paper's ``G_C``).

    Building the store is the offline stage: O(|E|) clustering plus an
    O(|E| log |E|) per-cluster sort. As ``G_C`` is equivalent to ``G``, the
    source :class:`Graph` is not retained.
    """

    def __init__(self, graph: Graph) -> None:
        start = time.perf_counter()
        labels: list[Hashable] = list(graph.vertex_labels)
        buckets: dict[ClusterKey, list[tuple[int, int]]] = {}
        for edge in graph.edges():
            key = cluster_key_for_edge(labels, edge)
            buckets.setdefault(key, []).append((edge.src, edge.dst))
        clusters = {
            key: Cluster(key, pairs, len(labels))
            for key, pairs in buckets.items()
        }
        self._adopt(
            graph.name, labels, graph.num_edges, clusters,
            build_seconds=time.perf_counter() - start,
        )

    @classmethod
    def from_clusters(
        cls,
        name: str,
        vertex_labels: list[Hashable],
        num_edges: int,
        clusters: dict[ClusterKey, Cluster],
    ) -> CCSRStore:
        """A store over prebuilt clusters (the store loader's path)."""
        store = cls.__new__(cls)
        store._adopt(name, vertex_labels, num_edges, clusters, build_seconds=0.0)
        return store

    def _adopt(
        self,
        name: str,
        vertex_labels: list[Hashable],
        num_edges: int,
        clusters: dict[ClusterKey, Cluster],
        build_seconds: float,
    ) -> None:
        """Set every attribute; the one assignment path of both constructors."""
        self.name = name
        self.num_vertices = len(vertex_labels)
        self.num_edges = num_edges
        self.vertex_labels = vertex_labels
        self.label_frequency: Counter = Counter(vertex_labels)
        self.clusters = clusters
        # Unordered label pair -> cluster keys connecting that pair, for
        # negation lookups and Algorithm 2 line 8.
        self._pair_index: dict[frozenset, list[ClusterKey]] = {}
        for key in clusters:
            pair = frozenset((key.src_label, key.dst_label))
            self._pair_index.setdefault(pair, []).append(key)
        self.build_seconds = build_seconds
        #: Bumped by every incremental update: a checkpoint records it and
        #: refuses to resume over a store that changed since.
        self.version = 0
        #: Bumped only by the updates that can stale a compiled plan: a
        #: cluster created or dropped, or a vertex added (a static pool's
        #: label set). An edge update within a cluster replaces row sets
        #: and patches live row sets in place, which a plan reads
        #: through the same cluster object, so the session's plan cache
        #: keys on this counter.
        self.layout_version = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def total_column_entries(self) -> int:
        """Sum of |I_C| over all CSRs; the paper proves this is 2|E|."""
        total = 0
        for cluster in self.clusters.values():
            total += cluster.out_csr.num_entries
            if cluster.in_csr is not None:
                total += cluster.in_csr.num_entries
        return total

    def total_compressed_row_entries(self) -> int:
        """Integers across all compressed ``I_R`` arrays (bounded by 4|E|)."""
        total = 0
        for cluster in self.clusters.values():
            total += cluster.out_csr.compressed_index_length
            if cluster.in_csr is not None:
                total += cluster.in_csr.compressed_index_length
        return total

    def total_standard_row_entries(self) -> int:
        """What the uncompressed row indices would cost: 2c(|V|+1)-ish."""
        total = 0
        for cluster in self.clusters.values():
            total += cluster.out_csr.standard_index_length()
            if cluster.in_csr is not None:
                total += cluster.in_csr.standard_index_length()
        return total

    def nbytes(self) -> int:
        return sum(cluster.nbytes() for cluster in self.clusters.values())

    def cluster_for(
        self,
        src_label: Hashable,
        dst_label: Hashable,
        edge_label: Hashable,
        directed: bool,
    ) -> Cluster | None:
        key = cluster_key_for_labels(src_label, dst_label, edge_label, directed)
        return self.clusters.get(key)

    def clusters_connecting(
        self, label_a: Hashable, label_b: Hashable
    ) -> list[Cluster]:
        """All clusters holding edges between two vertex labels — the
        ``(u_x, u_y)*-clusters`` of Algorithm 1/2."""
        keys = self._pair_index.get(frozenset((label_a, label_b)), [])
        return [self.clusters[k] for k in keys]

    def vertices_with_label(self, label: Hashable) -> list[int]:
        return [
            v for v, lab in enumerate(self.vertex_labels) if lab == label
        ]

    # ------------------------------------------------------------------
    # Incremental updates
    #
    # The paper positions CCSR against graph-database storage (Kùzu),
    # where updates are table stakes. An update touches exactly one
    # cluster — the heterogeneity index localizes the work — and in it
    # replaces the row sets of the edge's two rows, in time proportional
    # to those rows: no CSR array is copied, and every other cluster is
    # untouched. The arrays are rebuilt from the changed rows only when
    # something reads them (a task read, a save, a plan's row
    # statistics). A cluster is built only when its key first appears
    # and dropped only when it empties.
    # ------------------------------------------------------------------
    def insert_vertex(self, label: Hashable = 0) -> int:
        """Append a vertex; returns its id. Drops decompressed row
        indices (their length is |V|+1)."""
        self.vertex_labels.append(label)
        self.label_frequency[label] += 1
        self.num_vertices += 1
        for cluster in self.clusters.values():
            cluster.resize(self.num_vertices)
        self.version += 1
        self.layout_version += 1
        return self.num_vertices - 1

    def insert_edge(
        self,
        src: int,
        dst: int,
        edge_label: Hashable = None,
        directed: bool = False,
    ) -> None:
        """Add one edge, patching only its cluster."""
        n = self.num_vertices
        if not (0 <= src < n and 0 <= dst < n):
            raise GraphError(f"edge ({src}, {dst}) references a missing vertex")
        if src == dst:
            raise GraphError(f"self-loop on vertex {src} is not allowed")
        key = cluster_key_for_labels(
            self.vertex_labels[src], self.vertex_labels[dst], edge_label, directed
        )
        cluster = self.clusters.get(key)
        if cluster is None:
            self.clusters[key] = Cluster(key, [(src, dst)], n)
            pair = frozenset((key.src_label, key.dst_label))
            self._pair_index.setdefault(pair, []).append(key)
            self.layout_version += 1
        elif cluster.contains_edge(src, dst):
            raise GraphError(f"duplicate edge ({src}, {dst}, {edge_label!r})")
        else:
            cluster.insert(src, dst)
        self.num_edges += 1
        self.version += 1

    def remove_edge(
        self,
        src: int,
        dst: int,
        edge_label: Hashable = None,
        directed: bool = False,
    ) -> None:
        """Remove one edge, patching only its cluster (dropping the
        cluster entirely when it empties)."""
        key = cluster_key_for_labels(
            self.vertex_labels[src] if 0 <= src < self.num_vertices else None,
            self.vertex_labels[dst] if 0 <= dst < self.num_vertices else None,
            edge_label,
            directed,
        )
        cluster = self.clusters.get(key)
        if cluster is None or not cluster.contains_edge(src, dst):
            raise GraphError(
                f"edge ({src}, {dst}, {edge_label!r}, directed={directed})"
                " does not exist"
            )
        if cluster.num_edges == 1:
            del self.clusters[key]
            pair = frozenset((key.src_label, key.dst_label))
            self._pair_index[pair].remove(key)
            if not self._pair_index[pair]:
                del self._pair_index[pair]
            self.layout_version += 1
        else:
            cluster.remove(src, dst)
        self.num_edges -= 1
        self.version += 1

    # ------------------------------------------------------------------
    # Algorithm 1: ReadCSR
    # ------------------------------------------------------------------
    def read(
        self,
        pattern: Graph,
        variant: Variant | str,
        obs: Any = None,
        retry: Any = None,
    ) -> TaskClusters:
        """Select and decompress the clusters this task needs (Alg. 1).

        ``variant`` is a :class:`repro.core.Variant` or its string name; only
        ``"vertex_induced"`` changes behaviour here, pulling in negation
        clusters for every pattern vertex pair that is not fully connected
        by pattern edges.

        ``obs`` (a :class:`repro.obs.Observation`) records the ``read``
        span with one ``read.cluster`` child per decompressed cluster
        (rows/bytes attributes) and bumps the ``ccsr.*`` read counters.

        ``retry`` is a :class:`repro.engine.governor.RetryPolicy` (or
        ``None`` for a fresh default policy): each cluster decompression
        that raises a transient :class:`~repro.errors.ClusterReadError`
        is retried under bounded, seeded-jitter exponential backoff —
        absorbed faults bump ``ccsr.read_retries`` instead of killing the
        read. Callers holding a governor deadline pass
        ``policy.with_deadline(...)`` so backoff never sleeps past it.
        """
        from repro.errors import ClusterReadError
        from repro.obs import NULL_OBS

        obs = obs or NULL_OBS
        if retry is None:
            # Deferred import: ccsr sits below the engine layer, so the
            # policy class is bound lazily at the first read.
            from repro.engine.governor import RetryPolicy

            retry = RetryPolicy(seed=0)
        tracer = obs.tracer
        counters = obs.counters
        profile = obs.profile
        variant_name = getattr(variant, "value", str(variant))
        with tracer.span("read", variant=variant_name) as read_span:
            start = time.perf_counter()
            bytes_read = 0
            rows_read = 0
            decompressed: set[int] = set()

            def on_retry(attempt: int, delay: float) -> None:
                if counters.enabled:
                    counters.inc("ccsr.read_retries")

            def use(cluster: Cluster) -> Cluster:
                nonlocal bytes_read, rows_read
                if id(cluster) not in decompressed:

                    def decompress_once() -> None:
                        if faults.ACTIVE is not None:
                            # Chaos-suite hook: a production store would
                            # hit I/O here reading a spilled cluster.
                            faults.fire(
                                "ccsr.read_cluster", key=str(cluster.key)
                            )
                        cluster.decompress()

                    with tracer.span(
                        "read.cluster", key=str(cluster.key)
                    ) as cluster_span:
                        retry.run(
                            decompress_once,
                            retry_on=(ClusterReadError,),
                            on_retry=on_retry,
                        )
                        nbytes = cluster.nbytes()
                        rows = cluster.num_entries
                        cluster_span.set("rows", rows)
                        cluster_span.set("bytes", nbytes)
                    decompressed.add(id(cluster))
                    bytes_read += nbytes
                    rows_read += rows
                    if profile.enabled:
                        profile.record_cluster(str(cluster.key), rows, nbytes)
                return cluster

            labels = pattern.vertex_labels
            edge_clusters: dict[Edge, Cluster | None] = {}
            for edge in pattern.edges():
                key = cluster_key_for_edge(labels, edge)
                cluster = self.clusters.get(key)
                edge_clusters[edge] = use(cluster) if cluster is not None else None

            negation: dict[tuple[int, int], list[NegationCheck]] = {}
            if variant_name == "vertex_induced":
                for u_i in pattern.vertices():
                    for u_j in range(u_i + 1, pattern.num_vertices):
                        checks = self._negation_checks_for_pair(
                            pattern, u_i, u_j, use
                        )
                        if checks:
                            negation[(u_i, u_j)] = checks

            read_seconds = time.perf_counter() - start
            read_span.set("clusters", len(decompressed))
            read_span.set("bytes_read", bytes_read)
            if counters.enabled:
                counters.inc("ccsr.clusters_read", len(decompressed))
                counters.inc("ccsr.bytes_read", bytes_read)
                counters.inc("ccsr.rows_read", rows_read)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "ReadCSR %s: %d clusters, %d bytes in %.4fs",
                variant_name,
                len(decompressed),
                bytes_read,
                read_seconds,
            )
        return TaskClusters(
            pattern,
            variant_name,
            edge_clusters,
            negation,
            read_seconds=read_seconds,
            bytes_read=bytes_read,
            data_vertex_labels=self.vertex_labels,
        )

    def _negation_checks_for_pair(
        self,
        pattern: Graph,
        u_i: int,
        u_j: int,
        use: Callable[[Cluster], Cluster],
    ) -> list[NegationCheck]:
        """Build the "must be absent" probes for one pattern vertex pair.

        Every cluster orientation that could connect the pair's labels is
        forbidden unless a pattern edge between ``u_i`` and ``u_j`` claims
        exactly that orientation and edge label — strict induced-isomorphism
        semantics (``(u, u') in E_P`` iff the mapped edge exists, Section II).
        """
        label_i = pattern.vertex_label(u_i)
        label_j = pattern.vertex_label(u_j)
        # Orientations the pattern itself requires -> exempt from negation.
        allowed: set[tuple[Hashable, bool, str]] = set()
        for e in pattern.edges_between(u_i, u_j):
            if not e.directed:
                allowed.add((e.label, False, FORWARD))
                allowed.add((e.label, False, REVERSE))
            elif (e.src, e.dst) == (u_i, u_j):
                allowed.add((e.label, True, FORWARD))
            else:
                allowed.add((e.label, True, REVERSE))

        checks: list[NegationCheck] = []
        for key in self._pair_index.get(frozenset((label_i, label_j)), []):
            cluster = self.clusters[key]
            if not key.directed:
                if (key.edge_label, False, FORWARD) not in allowed:
                    checks.append(NegationCheck(use(cluster), FORWARD))
                continue
            if key.src_label == label_i and key.dst_label == label_j:
                if (key.edge_label, True, FORWARD) not in allowed:
                    checks.append(NegationCheck(use(cluster), FORWARD))
            if key.src_label == label_j and key.dst_label == label_i:
                if (key.edge_label, True, REVERSE) not in allowed:
                    checks.append(NegationCheck(use(cluster), REVERSE))
        return checks

    # ------------------------------------------------------------------
    def iter_all_edges(self) -> Iterable[tuple[int, int, Hashable, bool]]:
        """Reconstruct the original edge set (G_C is equivalent to G)."""
        for key, cluster in self.clusters.items():
            if key.directed:
                for src, dst in cluster.iter_directed_entries():
                    yield src, dst, key.edge_label, True
            else:
                for src, dst in cluster.iter_directed_entries():
                    if src < dst:  # each undirected edge is stored twice
                        yield src, dst, key.edge_label, False

    def to_graph(self) -> Graph:
        """Rebuild a :class:`Graph` from the clusters (round-trip check)."""
        graph = Graph(name=self.name)
        graph.add_vertices(self.vertex_labels)
        for src, dst, label, directed in self.iter_all_edges():
            graph.add_edge(src, dst, label, directed)
        return graph

    def __repr__(self) -> str:
        return (
            f"<CCSRStore |V|={self.num_vertices} |E|={self.num_edges}"
            f" clusters={self.num_clusters}>"
        )
