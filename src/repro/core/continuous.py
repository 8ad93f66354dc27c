"""Continuous (delta) subgraph matching.

Graphflow — one of the paper's baselines — answers *continuous* subgraph
queries: when an edge arrives, report the embeddings it creates. With
incremental CCSR updates (:meth:`~repro.ccsr.store.CCSRStore.insert_edge`
patches one cluster in place) and seeded execution
(:meth:`~repro.engine.physical.PhysicalPlan.with_seed`), CSCE supports the
same workload:

    every embedding created by a new edge must *use* that edge, so it
    suffices to pin each label-compatible pattern edge onto the new data
    edge and count the completions.

The pins run in pattern-edge order, and pin *i* keeps only embeddings
that map no earlier pattern edge onto the data edge (Graphflow's
delta-query order), so each delta embedding is counted exactly once,
under the first pin that claims it. Under injectivity the rule never
fires: the data edge's two endpoints have at most two preimages, joined
by at most one pattern edge of the data edge's label and direction, so
the pins partition the delta and each runs the frame machine's count
mode (bulk-counting its last position). Only a homomorphism can map two
pattern edges onto one data edge; such pins stream embedding tuples
through the rule. Nothing is materialized or deduplicated; callers that
want the mappings run the seeded primitive itself
(``CSCE.match(pattern, variant, seed=...)``).

A delta is **one run**: all of its pins search on one
:class:`~repro.engine.executor.Runtime`, so the delta resolves its limits
once, an embedding cap or deadline bounds the delta as a whole, and its
stats, trace span and flight-recorder events are those of one run. The
candidate kernel resolves each pinned position by membership
(:class:`~repro.engine.candidates.CandidateComputer`), so a pin costs no
memo probe, intersection or sort; each pin rebinds its ``pins``. The
delta checks its data edge's endpoints once; every seed is built from
them after a label test, so it binds as it stands, unchecked per pin.

Each pin runs a **pin-first plan**: one plan per pinned pattern edge,
whose order starts with that edge's two endpoints (Graphflow compiles one
delta plan per pattern edge the same way). Reusing the standing query's
order instead would make a pin that lands late in it scan the unpinned
prefix first and only then filter to the pin. :class:`ContinuousMatcher`
builds an edge's plan (:meth:`~repro.engine.MatchSession.build`) on its
first pin, before the delta's run starts, and keeps it until the store's
:attr:`~repro.ccsr.store.CCSRStore.layout_version` moves. Every pin onto
a pattern edge runs that one plan, uncopied — both orientations of an
undirected data edge included, so no replanning per pin — and shares its
candidate memo, which the delta clears when it moves on to the next
pattern edge's plan (memo keys hold per-plan spec ids).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.csce import CSCE
from repro.core.variants import Variant
from repro.engine.executor import Runtime, count_capped, stream
from repro.engine.governor import run_limits
from repro.engine.physical import PhysicalPlan
from repro.engine.results import MatchOptions, raise_stop
from repro.engine.verify import check_data_vertices
from repro.graph.model import Edge, Graph
from repro.obs import NULL_OBS


@dataclass
class DeltaResult:
    """How many embeddings one edge update created (or destroyed)."""

    edge: Edge
    count: int
    pins_tried: int
    stats: dict = field(default_factory=dict)
    """Unified search counters of the delta's one run over all its pins
    (the same key set as :attr:`repro.engine.results.MatchResult.stats`)."""

    stop_reason: str | None = None
    """Why the delta stopped early (it hit a governor limit or the cancel
    token tripped), or ``None`` for a complete delta. A partial
    delta's ``count`` undercounts the true delta — callers must not fold
    it into standing totals (see :class:`ContinuousMatcher`)."""


Pin = tuple[tuple[int, int], dict[int, int], tuple[tuple[int, int], ...]]


def _compatible_pins(pattern: Graph, data_labels, edge: Edge) -> list[Pin]:
    """Seeds pinning a pattern edge onto the data edge, label-checked, in
    pattern-edge order. Each seed comes with its pattern edge's plan
    prefix and with the earlier pattern edges that could also map onto
    the data edge, as ``(src, dst)`` pairs. The edge's endpoints must be
    data vertices (:func:`~repro.engine.verify.check_data_vertices`);
    each seed is then a run's binding as it stands."""
    src, dst = int(edge.src), int(edge.dst)
    src_label = data_labels[src]
    dst_label = data_labels[dst]
    pins: list[Pin] = []
    earlier: list[tuple[int, int]] = []
    for pattern_edge in pattern.edges():
        if pattern_edge.label != edge.label:
            continue
        if pattern_edge.directed != edge.directed:
            continue
        prefix = (pattern_edge.src, pattern_edge.dst)
        orientations = [prefix]
        if not edge.directed:
            orientations.append((pattern_edge.dst, pattern_edge.src))
        seeds = [
            {u_src: src, u_dst: dst}
            for u_src, u_dst in orientations
            if pattern.vertex_label(u_src) == src_label
            and pattern.vertex_label(u_dst) == dst_label
        ]
        if seeds:
            before = tuple(earlier)
            pins.extend((prefix, seed, before) for seed in seeds)
            earlier.append(prefix)
    return pins


def _count_first_claims(
    physical: PhysicalPlan,
    runtime: Runtime,
    edge: Edge,
    earlier: tuple[tuple[int, int], ...],
) -> int:
    """Stream a pinned homomorphic search on the delta's ``runtime`` and
    count the embeddings that map none of the ``earlier`` pattern edges
    onto ``edge``."""
    a, b = edge.src, edge.dst
    undirected = not edge.directed
    kept = 0
    for image in stream(physical, runtime):
        for x, y in earlier:
            fx, fy = image[x], image[y]
            if (fx == a and fy == b) or (undirected and fx == b and fy == a):
                break
        else:
            kept += 1
    return kept


def embeddings_containing_edge(
    engine: CSCE,
    pattern: Graph,
    edge: Edge,
    variant: Variant | str = Variant.EDGE_INDUCED,
    time_limit: float | None = None,
    obs=None,
    governor=None,
    plans: dict[tuple[int, int], PhysicalPlan] | None = None,
) -> DeltaResult:
    """Count the embeddings of ``pattern`` that map some pattern edge onto
    ``edge`` (which must already be present in the engine's store).

    ``plans`` maps a pattern edge's ``(src, dst)`` to its pin-first plan
    for the store's current layout; the delta adds the ones its pins lack
    before its run starts (``None``: a fresh table for this delta).

    The delta is one run: every pin searches on one
    :class:`~repro.engine.executor.Runtime`, so ``time_limit`` and the
    ``governor`` budget resolve once and bound the whole delta, and an
    embedding cap counts the embeddings of all its pins together (under
    the first-claim rule, every embedding a pin's search reaches, also
    those it leaves to an earlier pin). A limit or tripped cancel token
    ends the delta early: remaining pins are skipped and the result
    carries the triggering ``stop_reason`` (partial, do not trust the
    delta count). ``obs`` instruments the run: one ``execute`` span, one
    ``run_start``/``run_end`` recorder pair, and the returned ``stats``
    (the unified counters of the whole delta) merged into its counters
    once.
    """
    variant = Variant.parse(variant)
    obs = obs or engine.obs or NULL_OBS
    check_data_vertices(engine.store, (edge.src, edge.dst))
    pins = _compatible_pins(pattern, engine.store.vertex_labels, edge)
    options = MatchOptions(
        time_limit=time_limit,
        obs=obs if obs.enabled else None,
        governor=governor,
        count_only=True,
    )
    # One plan per pinned pattern edge, shared by its pins.
    plans = {} if plans is None else plans
    for prefix, _, _ in pins:
        if prefix not in plans:
            plans[prefix] = engine.session.build(
                pattern, variant, obs=obs, prefix=prefix
            ).physical
    runtime = Runtime(options, run_limits(options))
    recorder = obs.recorder
    if recorder.enabled:
        recorder.record(
            "run_start", mode="delta", variant=variant.value, pins=len(pins)
        )
    count = 0
    current: tuple[int, int] | None = None
    try:
        with obs.tracer.span(
            "execute", mode="delta", variant=variant.value
        ) as span:
            for prefix, seed, earlier in pins:
                if prefix != current:
                    # Memo keys hold per-plan spec ids, so the next
                    # pattern edge's plan starts a fresh memo. Pins come
                    # grouped by pattern edge: both orientations of an
                    # undirected data edge share one plan and its memo.
                    current = prefix
                    runtime.computer.clear()
                physical = plans[prefix]
                runtime.computer.pins = seed
                if variant.injective or not earlier:
                    before = runtime.emitted
                    count += count_capped(physical, runtime) - before
                else:
                    count += _count_first_claims(physical, runtime, edge, earlier)
                if runtime.stop_reason is not None:
                    break
            span.set("count", count)
            span.set("nodes", runtime.nodes)
    finally:
        runtime.release()
    stats = runtime.stats()
    if recorder.enabled:
        recorder.record(
            "run_end",
            count=count,
            nodes=stats["nodes"],
            stop_reason=runtime.stop_reason,
        )
    if obs.enabled:
        obs.counters.merge(stats)
        if obs.counters.enabled:
            obs.counters.inc("continuous.updates")
            obs.counters.inc("continuous.pins", len(pins))
            obs.counters.inc("continuous.delta_embeddings", count)
        if obs.metrics.enabled:
            # One sample per edge update: the continuous workload streams
            # live metrics even when no heartbeat interval elapses.
            obs.metrics.sample(obs)
    return DeltaResult(
        edge=edge, count=count, pins_tried=len(pins),
        stats=stats, stop_reason=runtime.stop_reason,
    )


class ContinuousMatcher:
    """Maintains embedding counts of a standing query under edge updates.

    The one-time query runs once at registration, under ``governor`` (a
    stop raises its typed :class:`~repro.errors.LimitExceeded`);
    afterwards each :meth:`insert` / :meth:`remove` updates the store
    incrementally and reports only the delta — the continuous-query model
    of Graphflow. The matcher owns its pin-first plans, one per pinned
    pattern edge, planned on its first pin and kept until the store's
    layout changes, so a delta on an unchanged layout plans nothing.

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
        self._plans: dict[tuple[int, int], PhysicalPlan] = {}
        self._layout = engine.store.layout_version
        self.total = engine.match(
            pattern, variant, count_only=True, obs=obs, governor=governor
        ).check().count

    def _delta(self, edge: Edge) -> DeltaResult:
        if self._layout != self.engine.store.layout_version:
            # A cluster was created or dropped: the plans may hold it.
            self._plans.clear()
            self._layout = self.engine.store.layout_version
        return embeddings_containing_edge(
            self.engine, self.pattern, edge, self.variant,
            obs=self.obs, governor=self.governor, plans=self._plans,
        )

    def insert(
        self, src: int, dst: int, label=None, directed: bool = False
    ) -> DeltaResult:
        """Insert an edge; returns the count of embeddings it created.

        If the delta search stops early (governor limit or tripped cancel
        token), the insert is **rolled back** and the typed
        :class:`~repro.errors.LimitExceeded` subclass is raised: a partial
        delta cannot be folded into ``total`` without corrupting it, and
        rolling back leaves the matcher consistent and reusable — clear
        the token and retry the same insert. Any other error of the delta
        rolls the insert back too.
        """
        self.engine.store.insert_edge(src, dst, label, directed)
        try:
            delta = self._delta(Edge(src, dst, label, directed))
            if delta.stop_reason is not None:
                raise_stop(delta.stop_reason, delta.count)
        except BaseException:
            self.engine.store.remove_edge(src, dst, label, directed)
            raise
        self.total += delta.count
        return delta

    def remove(
        self, src: int, dst: int, label=None, directed: bool = False
    ) -> DeltaResult:
        """Remove an edge; returns the count of embeddings it destroyed.

        As with :meth:`insert`, an early stop raises the typed limit error
        *before* the store is touched, so the matcher (store and total) is
        untouched and reusable for the next delta.
        """
        delta = self._delta(Edge(src, dst, label, directed))
        if delta.stop_reason is not None:
            raise_stop(delta.stop_reason, delta.count)
        self.engine.store.remove_edge(src, dst, label, directed)
        self.total -= delta.count
        return delta
