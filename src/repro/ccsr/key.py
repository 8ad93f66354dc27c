"""Cluster identifiers.

The paper (Section IV) identifies a cluster by the labels of both endpoint
vertices, the edge label, and the edge direction. Directed clusters arrange
the vertex labels in the outgoing direction, e.g. ``(A, B, NULL)``;
undirected clusters use the label pair sorted "alphabetically" so that both
orientations of an undirected edge land in the same cluster.
"""

from __future__ import annotations

from typing import Hashable, NamedTuple

from repro.graph.model import Edge


def _label_order_key(label: Hashable) -> tuple[str, str]:
    """A deterministic total order over arbitrary hashable labels.

    Labels of mixed types (ints and strs) cannot be compared directly, so we
    order first by type name and then by string form — the generalization of
    the paper's "sorted alphabetically".
    """
    return (type(label).__name__, str(label))


class ClusterKey(NamedTuple):
    """Identifier of one edge-isomorphism cluster.

    For a directed cluster, ``src_label -> dst_label``. For an undirected
    cluster, ``(src_label, dst_label)`` is the canonically sorted label pair
    (so ``src``/``dst`` carry no orientation meaning).
    """

    src_label: Hashable
    dst_label: Hashable
    edge_label: Hashable
    directed: bool

    def connects(self, label_a: Hashable, label_b: Hashable) -> bool:
        """True if this cluster can hold an edge between these vertex labels
        in *some* direction (used for negation-cluster lookup)."""
        return {self.src_label, self.dst_label} == {label_a, label_b} or (
            self.src_label == label_a and self.dst_label == label_b
        )

    def __str__(self) -> str:
        arrow = "->" if self.directed else "--"
        tag = self.edge_label if self.edge_label is not None else "NULL"
        return f"({self.src_label}{arrow}{self.dst_label}, {tag})"


def cluster_key_for_labels(
    src_label: Hashable,
    dst_label: Hashable,
    edge_label: Hashable,
    directed: bool,
) -> ClusterKey:
    """Build the canonical key for an edge described by its labels.

    For undirected edges the two vertex labels are sorted so that
    ``(A, B)`` and ``(B, A)`` name the same cluster.
    """
    if not directed:
        if src_label == dst_label:
            return ClusterKey(src_label, dst_label, edge_label, False)
        a, b = sorted((src_label, dst_label), key=_label_order_key)
        return ClusterKey(a, b, edge_label, False)
    return ClusterKey(src_label, dst_label, edge_label, True)


def cluster_key_for_edge(vertex_labels: list, edge: Edge) -> ClusterKey:
    """The canonical key of a concrete graph edge."""
    return cluster_key_for_labels(
        vertex_labels[edge.src], vertex_labels[edge.dst], edge.label, edge.directed
    )
