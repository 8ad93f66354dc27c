"""Shared machinery for the baseline matchers.

Each baseline re-implements the algorithmic core of one comparison system
from Table III. They all run over a plain adjacency index of the data graph
(:class:`DataIndex`) rather than CCSR — deliberately, since paying per-edge
label checks at match time is exactly the overhead the paper's CCSR removes.

The capability metadata on each class (supported variants, label support,
direction support, max tested pattern size) renders Table III.
"""

from __future__ import annotations

import abc
import logging
import time
from typing import Hashable, Iterator

from repro.core.variants import Variant
from repro.engine.results import MatchResult
from repro.errors import (
    EmbeddingLimitExceeded,
    TimeLimitExceeded,
    VariantError,
)
from repro.graph.model import Graph
from repro.obs import NULL_HEARTBEAT, NULL_OBS, RunSnapshot, unified_stats

logger = logging.getLogger(__name__)

_TIME_CHECK_INTERVAL = 2048


class SearchBudget:
    """Wall-clock budget shared by all baseline recursions.

    Carries the run's heartbeat too, so baselines emit the same periodic
    progress lines as CSCE, on the same ``_TIME_CHECK_INTERVAL`` tick.
    """

    __slots__ = ("deadline", "nodes", "heartbeat", "_ticking")

    def __init__(self, time_limit: float | None, heartbeat=None):
        self.deadline = (
            time.perf_counter() + time_limit if time_limit is not None else None
        )
        self.nodes = 0
        self.heartbeat = heartbeat if heartbeat is not None else NULL_HEARTBEAT
        self._ticking = self.deadline is not None or self.heartbeat.enabled

    def tick(self, emitted: int = 0) -> None:
        self.nodes += 1
        if self._ticking and self.nodes % _TIME_CHECK_INTERVAL == 0:
            if self.heartbeat.enabled:
                self.heartbeat.beat(
                    lambda: self.snapshot(emitted), 0, phase="baseline"
                )
            if (
                self.deadline is not None
                and time.perf_counter() > self.deadline
            ):
                raise TimeLimitExceeded(
                    "baseline time limit", partial_count=emitted
                )

    def snapshot(self, emitted: int) -> RunSnapshot:
        """The heartbeat's view of the baseline search."""
        return RunSnapshot(emitted, self.nodes, unified_stats(nodes=self.nodes))


class DataIndex:
    """Adjacency-list view of a data graph (the Fig. 3 data structure).

    Vertices, labels, and per-pair edge descriptors live in parallel
    structures; every label check at match time is explicit — the repetition
    CCSR's clustering eliminates.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.num_vertices = graph.num_vertices
        self.labels = list(graph.vertex_labels)
        self.label_index: dict[Hashable, list[int]] = {}
        for v, label in enumerate(self.labels):
            self.label_index.setdefault(label, []).append(v)
        self.neighbors: list[list[int]] = [graph.neighbors(v) for v in graph.vertices()]
        self.neighbor_sets: list[set[int]] = [set(ns) for ns in self.neighbors]
        self.degrees: list[int] = [len(ns) for ns in self.neighbors]
        # (a, b) -> [(edge_label, directed, forward)], both orientations.
        self.edge_index: dict[tuple[int, int], list[tuple[Hashable, bool, bool]]] = {}
        for e in graph.edges():
            self.edge_index.setdefault((e.src, e.dst), []).append(
                (e.label, e.directed, True)
            )
            self.edge_index.setdefault((e.dst, e.src), []).append(
                (e.label, e.directed, False)
            )
        # Neighbor label multisets for NLF-style filtering.
        self.neighbor_label_counts: list[dict[Hashable, int]] = []
        for v in graph.vertices():
            counts: dict[Hashable, int] = {}
            for w in self.neighbors[v]:
                counts[self.labels[w]] = counts.get(self.labels[w], 0) + 1
            self.neighbor_label_counts.append(counts)

    # ------------------------------------------------------------------
    def vertices_with_label(self, label: Hashable) -> list[int]:
        return self.label_index.get(label, [])

    def adjacent(self, a: int, b: int) -> bool:
        return b in self.neighbor_sets[a]

    def matches_pattern_edge(
        self, a: int, b: int, edge_label: Hashable, directed: bool
    ) -> bool:
        """Can the pattern edge ``u -> v`` (or ``u - v``) map onto (a, b)?"""
        for label, is_directed, forward in self.edge_index.get((a, b), ()):
            if label != edge_label or is_directed != directed:
                continue
            if directed and not forward:
                continue
            return True
        return False

    def pair_descriptor(self, a: int, b: int) -> tuple:
        """Exact multiset of edges between a pair, for induced matching."""
        entries = []
        for label, directed, forward in self.edge_index.get((a, b), ()):
            if directed:
                entries.append((label, "d_fwd" if forward else "d_rev"))
            else:
                entries.append((label, "u"))
        return tuple(sorted(entries, key=repr))


def pattern_pair_descriptor(pattern: Graph, u: int, w: int) -> tuple:
    """The pattern-side counterpart of :meth:`DataIndex.pair_descriptor`."""
    entries = []
    for e in pattern.edges_between(u, w):
        if e.directed:
            entries.append((e.label, "d_fwd" if (e.src, e.dst) == (u, w) else "d_rev"))
        else:
            entries.append((e.label, "u"))
    return tuple(sorted(entries, key=repr))


class BaselineMatcher(abc.ABC):
    """Common driver: timing, limits, counting, capability checks."""

    display_name: str = "baseline"
    supported_variants: frozenset[Variant] = frozenset()
    supports_vertex_labels: bool = True
    supports_edge_labels: bool = False
    supports_undirected: bool = True
    supports_directed: bool = False
    max_tested_pattern_size: int = 0

    def __init__(self, graph: Graph):
        start = time.perf_counter()
        self._restrictions: tuple[tuple[int, int], ...] = ()
        self.index = DataIndex(graph)
        self._prepare(graph)
        self.build_seconds = time.perf_counter() - start

    def _prepare(self, graph: Graph) -> None:
        """Hook for subclass preprocessing beyond the shared index."""

    # ------------------------------------------------------------------
    def check_supported(self, pattern: Graph, variant: Variant) -> None:
        """Raise :class:`VariantError` on Table III capability violations."""
        if variant not in self.supported_variants:
            raise VariantError(
                f"{self.display_name} does not support {variant} matching"
            )
        if not self.supports_vertex_labels and (
            len(set(self.index.labels)) > 1
            or len(pattern.distinct_vertex_labels()) > 1
        ):
            raise VariantError(f"{self.display_name} does not support vertex labels")
        if not self.supports_edge_labels and (
            pattern.distinct_edge_labels() - {None}
        ):
            raise VariantError(f"{self.display_name} does not support edge labels")
        if not self.supports_directed and pattern.is_directed:
            raise VariantError(f"{self.display_name} does not support directed edges")
        if not self.supports_undirected and any(
            not e.directed for e in pattern.edges()
        ):
            raise VariantError(
                f"{self.display_name} does not support undirected edges"
            )

    def match(
        self,
        pattern: Graph,
        variant: Variant | str = Variant.EDGE_INDUCED,
        count_only: bool = False,
        max_embeddings: int | None = None,
        time_limit: float | None = None,
        restrictions: tuple[tuple[int, int], ...] | None = None,
        obs=None,
    ) -> MatchResult:
        """Run the baseline with the same interface as :class:`CSCE.match`.

        ``restrictions`` (symmetry-breaking ``f(u) < f(v)`` pairs) are
        honoured by the backtracking matchers and ignored by engines whose
        originals lack the feature. ``obs`` gets the same ``match`` /
        ``execute`` spans and heartbeat ticks as CSCE runs, so bench
        comparisons report comparable telemetry; the unified stats keys
        the baseline cannot measure (memoization, factorization) read 0.
        """
        variant = Variant.parse(variant)
        obs = obs or NULL_OBS
        self.check_supported(pattern, variant)
        self._restrictions = tuple(restrictions) if restrictions else ()
        budget = SearchBudget(time_limit, heartbeat=obs.heartbeat)
        start = time.perf_counter()
        count = 0
        truncated = False
        timed_out = False
        embeddings: list[dict[int, int]] | None = None if count_only else []
        with obs.tracer.span(
            "match", engine=self.display_name, variant=variant.value
        ) as match_span:
            with obs.tracer.span("execute", mode="enumerate") as span:
                try:
                    for mapping in self._embeddings(pattern, variant, budget):
                        count += 1
                        if embeddings is not None:
                            embeddings.append(dict(mapping))
                        if max_embeddings is not None and count >= max_embeddings:
                            raise EmbeddingLimitExceeded(
                                "limit", partial_count=count
                            )
                except EmbeddingLimitExceeded:
                    truncated = True
                except TimeLimitExceeded:
                    timed_out = True
                span.set("count", count)
                span.set("nodes", budget.nodes)
            match_span.set("count", count)
        stats = unified_stats(nodes=budget.nodes)
        if obs.enabled:
            obs.counters.merge(stats)
        return MatchResult(
            count=count,
            variant=variant,
            embeddings=embeddings,
            elapsed=time.perf_counter() - start,
            truncated=truncated,
            timed_out=timed_out,
            stats=stats,
        )

    def count(self, pattern: Graph, variant: Variant | str = Variant.EDGE_INDUCED, **kwargs) -> int:
        return self.match(pattern, variant, count_only=True, **kwargs).count

    @abc.abstractmethod
    def _embeddings(
        self, pattern: Graph, variant: Variant, budget: SearchBudget
    ) -> Iterator[dict[int, int]]:
        """Yield embeddings as {pattern vertex -> data vertex} mappings."""

    # ------------------------------------------------------------------
    @classmethod
    def capability_row(cls) -> dict[str, str]:
        """One row of Table III."""
        variant_letters = {
            Variant.EDGE_INDUCED: "E",
            Variant.HOMOMORPHIC: "H",
            Variant.VERTEX_INDUCED: "V",
        }
        variants = ", ".join(
            letter
            for variant, letter in variant_letters.items()
            if variant in cls.supported_variants
        )
        if cls.supports_undirected and cls.supports_directed:
            direction = "U and D"
        elif cls.supports_directed:
            direction = "D"
        else:
            direction = "U"
        return {
            "Algorithm": cls.display_name,
            "Variant": variants,
            "Vertex Labels": "Yes" if cls.supports_vertex_labels else "No",
            "Edge Labels": "Yes" if cls.supports_edge_labels else "No",
            "Edge Direction": direction,
            "Pattern Size": f"Up to {cls.max_tested_pattern_size}",
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} over |V|={self.index.num_vertices}>"


def backward_constraints(pattern: Graph, order: list[int]) -> list[list[tuple]]:
    """Per order position, the (prior, edge_label, directed, forward) checks
    implied by pattern edges to already-matched vertices. ``forward`` means
    the pattern edge runs prior -> current."""
    position = {v: i for i, v in enumerate(order)}
    checks: list[list[tuple]] = [[] for _ in order]
    for e in pattern.edges():
        src_pos, dst_pos = position[e.src], position[e.dst]
        if src_pos < dst_pos:
            checks[dst_pos].append((e.src, e.label, e.directed, True))
        else:
            checks[src_pos].append((e.dst, e.label, e.directed, False))
    return checks
