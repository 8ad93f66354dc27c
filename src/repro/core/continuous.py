"""Continuous (delta) subgraph matching.

Graphflow — one of the paper's baselines — answers *continuous* subgraph
queries: when an edge arrives, report the embeddings it creates. With
incremental CCSR updates (:meth:`~repro.ccsr.store.CCSRStore.insert_edge`)
and seeded execution (:class:`~repro.engine.results.MatchOptions` ``seed``),
CSCE supports the same workload:

    every embedding created by a new edge must *use* that edge, so it
    suffices to pin each label-compatible pattern edge onto the new data
    edge and enumerate the completions.

Pinning both endpoints of one pattern edge per run enumerates each new
embedding exactly once per pattern edge that maps onto the new data edge;
results across pins are deduplicated on the full mapping because distinct
pins can yield the same embedding when the pattern has automorphisms moving
one pinned edge onto another.

Each delta compiles the pattern **once** through the engine's
:class:`~repro.engine.MatchSession` (a cache hit when the store version is
unchanged), then rebinds the compiled plan's pins per seed with
:meth:`~repro.engine.PhysicalPlan.with_seed` — no replanning per pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.csce import CSCE
from repro.core.variants import Variant
from repro.engine.executor import execute_physical
from repro.engine.results import MatchOptions, raise_stop
from repro.graph.model import Edge, Graph
from repro.obs import STAT_KEYS


@dataclass
class DeltaResult:
    """Embeddings created (or destroyed) by one edge update."""

    edge: Edge
    embeddings: list[dict[int, int]]
    pins_tried: int
    stats: dict = field(default_factory=dict)
    """Unified search counters summed over every pinned run (the same key
    set as :attr:`repro.engine.results.MatchResult.stats`)."""

    stop_reason: str | None = None
    """Why the delta stopped early (a pinned run hit a governor limit or
    the cancel token tripped), or ``None`` for a complete delta. A partial
    delta's ``embeddings`` undercount the true delta — callers must not
    fold them into standing totals (see :class:`ContinuousMatcher`)."""

    @property
    def count(self) -> int:
        return len(self.embeddings)


def _compatible_pins(
    pattern: Graph,
    data_labels,
    edge: Edge,
) -> list[dict[int, int]]:
    """Seeds pinning a pattern edge onto the data edge, label-checked."""
    src_label = data_labels[edge.src]
    dst_label = data_labels[edge.dst]
    pins: list[dict[int, int]] = []
    for pattern_edge in pattern.edges():
        if pattern_edge.label != edge.label:
            continue
        if pattern_edge.directed != edge.directed:
            continue
        orientations = [(pattern_edge.src, pattern_edge.dst)]
        if not edge.directed:
            orientations.append((pattern_edge.dst, pattern_edge.src))
        for u_src, u_dst in orientations:
            if (
                pattern.vertex_label(u_src) == src_label
                and pattern.vertex_label(u_dst) == dst_label
            ):
                pins.append({u_src: edge.src, u_dst: edge.dst})
    return pins


def embeddings_containing_edge(
    engine: CSCE,
    pattern: Graph,
    edge: Edge,
    variant: Variant | str = Variant.EDGE_INDUCED,
    time_limit: float | None = None,
    obs=None,
    governor=None,
) -> DeltaResult:
    """All embeddings of ``pattern`` that map some pattern edge onto
    ``edge`` (which must already be present in the engine's store).

    ``obs`` instruments every pinned run; the returned ``stats`` sums the
    unified counters over all pins. A ``governor`` limit or tripped cancel
    token ends the delta early: remaining pins are skipped and the result
    carries the triggering ``stop_reason`` (partial, do not trust the
    delta count).
    """
    variant = Variant.parse(variant)
    obs = obs or getattr(engine, "obs", None)
    pins = _compatible_pins(pattern, engine.store.vertex_labels, edge)
    seen: set[tuple] = set()
    embeddings: list[dict[int, int]] = []
    stats: dict[str, int] = dict.fromkeys(STAT_KEYS, 0)
    stop_reason: str | None = None
    compiled = (
        engine.session.compile(pattern, variant, obs=obs) if pins else None
    )
    for seed in pins:
        # One compile per delta; each pin is a cheap rebind of the ops.
        result = execute_physical(
            compiled.physical.with_seed(seed),
            MatchOptions(
                time_limit=time_limit,
                obs=obs if obs is not None and obs.enabled else None,
                governor=governor,
            ),
        )
        for key, value in result.stats.items():
            stats[key] = stats.get(key, 0) + value
        for mapping in result.embeddings:
            key = tuple(sorted(mapping.items()))
            if key not in seen:
                seen.add(key)
                embeddings.append(mapping)
        if result.stop_reason is not None:
            stop_reason = result.stop_reason
            break
    if obs is not None:
        counters = getattr(obs, "counters", None)
        if counters is not None and counters.enabled:
            counters.inc("continuous.updates")
            counters.inc("continuous.pins", len(pins))
            counters.inc("continuous.delta_embeddings", len(embeddings))
        metrics = getattr(obs, "metrics", None)
        if metrics is not None and metrics.enabled:
            # One sample per edge update: the continuous workload streams
            # live metrics even when no heartbeat interval elapses.
            metrics.sample(obs)
    return DeltaResult(
        edge=edge, embeddings=embeddings, pins_tried=len(pins),
        stats=stats, stop_reason=stop_reason,
    )


class ContinuousMatcher:
    """Maintains embedding counts of a standing query under edge updates.

    The one-time query runs once at registration; afterwards each
    :meth:`insert` / :meth:`remove` updates the store incrementally and
    reports only the delta — the continuous-query model of Graphflow.

    The vertex-induced variant is intentionally unsupported: there, an
    *arriving* edge can also destroy embeddings that do not use it (it may
    violate another embedding's negation constraints), so the delta is not
    edge-local. Edge-induced and homomorphic deltas are.
    """

    def __init__(
        self,
        engine: CSCE,
        pattern: Graph,
        variant: Variant | str = Variant.EDGE_INDUCED,
        obs=None,
        governor=None,
    ):
        variant = Variant.parse(variant)
        if variant.induced:
            raise ValueError(
                "continuous matching supports edge-induced and homomorphic"
                " queries only; vertex-induced deltas are not edge-local"
            )
        self.engine = engine
        self.pattern = pattern
        self.variant = variant
        self.obs = obs
        self.governor = governor
        self.total = engine.count(pattern, variant, obs=obs)

    def insert(
        self, src: int, dst: int, label=None, directed: bool = False
    ) -> DeltaResult:
        """Insert an edge; returns the embeddings it created.

        If the delta search stops early (governor limit or tripped cancel
        token), the insert is **rolled back** and the typed
        :class:`~repro.errors.LimitExceeded` subclass is raised: a partial
        delta cannot be folded into ``total`` without corrupting it, and
        rolling back leaves the matcher consistent and reusable — clear
        the token and retry the same insert.
        """
        self.engine.store.insert_edge(src, dst, label, directed)
        edge = Edge(src, dst, label, directed)
        delta = embeddings_containing_edge(
            self.engine, self.pattern, edge, self.variant,
            obs=self.obs, governor=self.governor,
        )
        if delta.stop_reason is not None:
            self.engine.store.remove_edge(src, dst, label, directed)
            raise_stop(delta.stop_reason, delta.count)
        self.total += delta.count
        return delta

    def remove(
        self, src: int, dst: int, label=None, directed: bool = False
    ) -> DeltaResult:
        """Remove an edge; returns the embeddings it destroyed.

        As with :meth:`insert`, an early stop raises the typed limit error
        *before* the store is touched, so the matcher (store, total, and
        plan cache) is untouched and reusable for the next delta.
        """
        edge = Edge(src, dst, label, directed)
        delta = embeddings_containing_edge(
            self.engine, self.pattern, edge, self.variant,
            obs=self.obs, governor=self.governor,
        )
        if delta.stop_reason is not None:
            raise_stop(delta.stop_reason, delta.count)
        self.engine.store.remove_edge(src, dst, label, directed)
        self.total -= delta.count
        return delta
