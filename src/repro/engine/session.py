"""MatchSession: one store, one compiled-plan cache, every front-end.

The session owns the read→optimize→compile pipeline and a small LRU cache
of its output, so that enumeration (:class:`repro.core.CSCE`), factorized
counting and the symmetry-breaking baseline all execute the same cached
:class:`~repro.engine.physical.PhysicalPlan` instead of replanning per call.

Cache keys are ``(pattern fingerprint, variant, planner, restrictions,
store layout version)``. :attr:`~repro.ccsr.store.CCSRStore.layout_version`
bumps only on the updates that can stale a compiled plan (a cluster
created or dropped, a vertex added); an edge update that patches a
cluster in place keeps every cached plan valid, also when it adds or
empties a row, because the plan reads the patched rows and live row sets
through the same cluster object. Entries of an older layout are purged
on the next fresh compile.
``use_sce`` and seeds are deliberately *not* part of the key — both are
run state (:meth:`~repro.engine.physical.PhysicalPlan.with_seed`).
Continuous matching keeps its pin-first plans itself, built uncached by
:meth:`MatchSession.build`.

Cache hits return the original plan object, whose ``read_seconds`` /
``plan_seconds`` describe the priced-once planning work; only
``elapsed`` varies per run.
"""

from __future__ import annotations

import logging
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.ccsr.store import CCSRStore
from repro.core.dag import build_dag
from repro.core.descendants import compute_descendant_sizes
from repro.core.gcf import gcf_order, rapidmatch_order
from repro.core.ldsf import ldsf_order
from repro.core.plan import Plan, assemble_plan
from repro.core.variants import Variant
from repro.engine.physical import (
    PhysicalPlan,
    compile_plan,
    pattern_fingerprint,
)
from repro.errors import PlanError
from repro.graph.model import Graph
from repro.obs import NULL_OBS

logger = logging.getLogger(__name__)

PLANNERS = ("csce", "ri_cluster", "ri", "rm", "cost")


def plan_query(
    store: CCSRStore,
    pattern: Graph,
    variant: Variant | str = Variant.EDGE_INDUCED,
    planner: str = "csce",
    obs: Any = None,
    prefix: tuple[int, ...] = (),
) -> Plan:
    """Read clusters and optimize a matching plan (Sections IV–VI).

    This is the logical-planning pipeline behind ``CSCE.build_plan``:
    Algorithm 1 read, GCF ordering (with cluster tie-breaks for the
    cluster-aware planners), dependency-DAG construction, and LDSF
    fine-tuning for the full ``csce`` configuration.

    ``prefix`` fixes the first pattern vertices of the order, for a run
    that pins them (continuous matching starts each pin's search at its
    pinned pattern edge). GCF continues after it; a prefixed plan skips
    LDSF, which would reorder it. The GCF planners alone take one.
    """
    if planner not in PLANNERS:
        raise PlanError(f"unknown planner {planner!r}; choose from {PLANNERS}")
    if prefix and planner in ("rm", "cost"):
        raise PlanError(f"planner {planner!r} takes no order prefix")
    variant = Variant.parse(variant)
    obs = obs or NULL_OBS
    tracer = obs.tracer
    start = time.perf_counter()
    task = store.read(pattern, variant, obs=obs)

    rationale: list | None = [] if tracer.enabled else None
    with tracer.span(
        "plan", planner=planner, variant=variant.value
    ) as plan_span:
        if planner == "rm":
            order = rapidmatch_order(pattern, task)
        elif planner == "cost":
            from repro.core.cost import cost_based_order

            order = cost_based_order(pattern, task)
        else:
            with tracer.span("plan.gcf"):
                order = gcf_order(
                    pattern,
                    task,
                    use_cluster_tiebreak=planner in ("csce", "ri_cluster"),
                    rationale=rationale,
                    prefix=prefix,
                )
        dag = build_dag(pattern, order, variant, task)
        descendant_sizes = compute_descendant_sizes(dag)
        if planner == "csce" and not prefix:
            with tracer.span("plan.ldsf"):
                order = ldsf_order(
                    dag,
                    pattern,
                    task,
                    label_frequency=store.label_frequency,
                    descendant_sizes=descendant_sizes,
                )
            dag = build_dag(pattern, order, variant, task)
        plan = assemble_plan(
            store,
            task,
            pattern,
            order,
            dag,
            variant,
            planner_name=planner,
            descendant_sizes=descendant_sizes,
            obs=obs,
        )
        plan_span.set("order", list(order))
        if rationale:
            plan_span.set("rationale", rationale)
    # Clamped at zero: perf_counter deltas minus read_seconds can come out
    # a hair negative when the clocks' resolutions disagree.
    plan.plan_seconds = max(
        0.0, time.perf_counter() - start - task.read_seconds
    )
    if rationale:
        plan.order_rationale = rationale
    logger.debug(
        "planned %s/%s: order=%s in %.4fs",
        planner,
        variant.value,
        plan.order,
        plan.plan_seconds,
    )
    return plan


@dataclass(frozen=True)
class CompiledQuery:
    """A plan-cache entry: the logical plan and its compiled form.

    ``cached`` tells whether this call was served from the session cache
    (True) or planned and compiled fresh (False).
    """

    plan: Plan
    physical: PhysicalPlan
    cached: bool = False


class MatchSession:
    """A store plus an LRU cache of compiled plans, shared across runs.

    Build one per data graph (or adopt an existing :class:`CCSRStore`) and
    route every query through :meth:`compile`; repeated patterns skip the
    read→optimize→compile pipeline entirely. The :class:`repro.core.CSCE`
    facade owns one internally; baselines and the bench harness can share
    it to amortize planning across engines.
    """

    def __init__(
        self,
        graph: Graph | CCSRStore,
        obs: Any = None,
        cache_size: int = 64,
        verify: bool = False,
    ) -> None:
        if isinstance(graph, CCSRStore):
            self.store = graph
        else:
            self.store = CCSRStore(graph)
        self.obs = obs
        self.cache_size = cache_size
        self.verify = verify
        """Debug mode: run the ahead-of-execution verifier
        (:func:`repro.engine.verify.verify_physical`) on every plan
        :meth:`build` compiles, raising
        :class:`~repro.errors.PlanVerificationError` before the executor
        ever sees an unsound plan. Cache hits were verified when first
        compiled and are not re-checked."""
        self._cache: OrderedDict[tuple, CompiledQuery] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    def cache_key(
        self,
        pattern: Graph,
        variant: Variant,
        planner: str,
        restrictions: tuple[tuple[int, int], ...] | None,
    ) -> tuple:
        return (
            pattern_fingerprint(pattern),
            variant.value,
            planner,
            tuple(restrictions) if restrictions else (),
            self.store.layout_version,
        )

    def build(
        self,
        pattern: Graph,
        variant: Variant | str = Variant.EDGE_INDUCED,
        planner: str = "csce",
        restrictions: tuple[tuple[int, int], ...] | None = None,
        obs: Any = None,
        prefix: tuple[int, ...] = (),
    ) -> CompiledQuery:
        """The read→optimize→compile pipeline, uncached: plan, compile and,
        under :attr:`verify`, verify one query. ``prefix`` fixes the
        order's first pattern vertices (see :func:`plan_query`)."""
        plan = plan_query(
            self.store, pattern, variant, planner=planner,
            obs=obs or self.obs, prefix=prefix,
        )
        physical = compile_plan(
            plan, restrictions=tuple(restrictions) if restrictions else None
        )
        if self.verify:
            from repro.engine.verify import verify_physical

            verify_physical(physical, self.store).raise_for_errors()
        return CompiledQuery(plan=plan, physical=physical)

    def compile(
        self,
        pattern: Graph,
        variant: Variant | str = Variant.EDGE_INDUCED,
        planner: str = "csce",
        restrictions: tuple[tuple[int, int], ...] | None = None,
        obs: Any = None,
    ) -> CompiledQuery:
        """The cached read→optimize→compile pipeline.

        Returns a :class:`CompiledQuery`; on a hit no cluster is read and
        no span is emitted (bump ``plan_cache.hits`` instead), so traced
        sessions see read/plan spans only for fresh plans. A miss runs
        :meth:`build`.
        """
        variant = Variant.parse(variant)
        if planner not in PLANNERS:
            raise PlanError(
                f"unknown planner {planner!r}; choose from {PLANNERS}"
            )
        obs = obs or self.obs or NULL_OBS
        key = self.cache_key(pattern, variant, planner, restrictions)
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            if obs.enabled:
                obs.counters.inc("plan_cache.hits")
            return CompiledQuery(plan=entry.plan, physical=entry.physical, cached=True)
        self.cache_misses += 1
        if obs.enabled:
            obs.counters.inc("plan_cache.misses")
        entry = self.build(pattern, variant, planner, restrictions, obs)
        # Plans for an older store layout can never hit again, and they
        # pin the clusters (and row caches) that layout dropped.
        layout = self.store.layout_version
        for stale in [k for k in self._cache if k[-1] != layout]:
            del self._cache[stale]
        self._cache[key] = entry
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        return entry

    def clear_cache(self) -> None:
        self._cache.clear()

    @property
    def cache_info(self) -> dict:
        """Hit/miss/size counters, for tests and reports."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "size": len(self._cache),
            "capacity": self.cache_size,
        }

    def __repr__(self) -> str:
        return (
            f"<MatchSession over {self.store!r}"
            f" cache={len(self._cache)}/{self.cache_size}>"
        )
