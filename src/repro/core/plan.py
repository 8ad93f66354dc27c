"""Executable matching plans.

A :class:`Plan` is the contract between the optimizer and the executor: the
final matching order ``Phi*``, the dependency DAG ``H`` built on it, and —
per order position — the concrete cluster probes the executor runs:

* *edge constraints*: which cluster neighbor list of which already-matched
  vertex to intersect (the pipelined-WCOJ step);
* *negation constraints*: which cluster edges must be absent
  (vertex-induced only);
* *first candidates*: the static candidate pool for positions with no
  backward edge (the order's first vertex, or the first vertex of a new
  pattern component), as the sets whose intersection it is: a cluster
  side's live row set, and a label set where the side mixes labels;
* *row requirements* (injective variants only): the minimum CCSR row
  length, per cluster and direction, that the vertex's pattern edges
  (backward and forward) imply for any data vertex hosting it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.ccsr.cluster import Cluster
from repro.ccsr.store import CCSRStore, NegationCheck, TaskClusters
from repro.core.dag import DependencyDAG
from repro.core.variants import Variant
from repro.errors import PlanError
from repro.graph.model import Edge, Graph

SUCCESSORS = "succ"
PREDECESSORS = "pred"

#: A static candidate pool, the intersection of its sets: live row sets
#: (:meth:`~repro.ccsr.cluster.Cluster.rows_at_least`) are never mutated.
Pool = tuple[set[int] | frozenset[int], ...]


def pool_size(pool: Pool) -> int:
    """How many candidates ``pool`` holds now."""
    first, *rest = pool
    return len(first.intersection(*rest)) if rest else len(first)


@dataclass(frozen=True)
class EdgeConstraint:
    """One backward pattern edge: intersect candidates with a neighbor row.

    ``direction`` selects ``cluster.successor_set(f(prior))`` or
    ``cluster.predecessor_set(f(prior))``.
    """

    prior: int
    cluster: Cluster
    direction: str


@dataclass(frozen=True)
class NegationConstraint:
    """One "edge must be absent" probe against an earlier mapping.

    ``swap`` encodes argument order: the underlying :class:`NegationCheck`
    was registered for the pattern pair in ascending vertex-id order, which
    may be the reverse of (prior, current). The probe excludes exactly one
    row of ``f(prior)`` in ``check.cluster``: its successors when
    ``(check.mode == FORWARD) != swap``, else its predecessors.
    """

    prior: int
    check: NegationCheck
    swap: bool


@dataclass(frozen=True)
class RowRequirement:
    """A candidate of the vertex holds at least ``k`` entries in its
    ``cluster`` row read in ``direction``.

    The vertex has ``k`` pattern edges in that cluster and direction, and
    an injective mapping sends their other endpoints to ``k`` distinct
    data vertices, all in that row. A homomorphism may map two of them
    to one vertex, so homomorphic plans carry none. An undirected cluster
    stores one CSR that both endpoints read, always as
    :data:`SUCCESSORS`.
    """

    cluster: Cluster
    direction: str
    k: int


@dataclass
class Plan:
    """A fully assembled matching plan (the paper's optimized ``Phi*``)."""

    pattern: Graph
    variant: Variant
    order: list[int]
    dag: DependencyDAG
    task_clusters: TaskClusters
    backward: list[list[EdgeConstraint]]
    negations: list[list[NegationConstraint]]
    first_candidates: list[Pool | None]
    memo_priors: list[tuple[int, ...]]
    memo_specs: list[tuple]
    requirements: list[tuple[RowRequirement, ...]]
    planner_name: str = "csce"
    plan_seconds: float = 0.0
    descendant_sizes: dict[int, int] = field(default_factory=dict)
    order_rationale: list = field(default_factory=list)
    """Per-step explanations of why the optimizer picked each vertex (the
    GCF rule-set sizes and cluster tie-breaks) — populated when planning
    under a live :class:`repro.obs.Observation` and surfaced in
    run-reports; empty otherwise."""

    @property
    def num_vertices(self) -> int:
        return len(self.order)

    @property
    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}

    def validate(self) -> None:
        """Sanity-check internal consistency; raises :class:`PlanError`."""
        n = self.pattern.num_vertices
        if sorted(self.order) != list(range(n)):
            raise PlanError("plan order is not a permutation")
        if not self.dag.is_topological_order(self.order):
            raise PlanError("plan order is not a topological order of H")
        position = self.position
        for pos, constraints in enumerate(self.backward):
            for c in constraints:
                if position[c.prior] >= pos:
                    raise PlanError(
                        f"constraint at position {pos} references later vertex"
                    )
        for pos, constraints in enumerate(self.negations):
            for c in constraints:
                if position[c.prior] >= pos:
                    raise PlanError(
                        f"negation at position {pos} references later vertex"
                    )

    def impossible(self) -> bool:
        """True when a pattern edge has no cluster: zero embeddings."""
        return self.task_clusters.has_impossible_edge()

    def describe(self) -> str:
        """A human-readable explanation of the plan (CLI ``plan`` output)."""
        lines = [
            f"planner      : {self.planner_name}",
            f"variant      : {self.variant}",
            f"order (Phi*) : {self.order}",
            f"DAG          : {self.dag.num_edges} dependency edges",
        ]
        for pos, u in enumerate(self.order):
            parts = []
            for c in self.backward[pos]:
                arrow = "->" if c.direction == SUCCESSORS else "<-"
                parts.append(f"u{c.prior}{arrow}u{u} via {c.cluster.key}")
            if self.negations[pos]:
                parts.append(f"{len(self.negations[pos])} negation probes")
            if not parts:
                pool = self.first_candidates[pos]
                size = 0 if pool is None else pool_size(pool)
                parts.append(f"static pool of {size} candidates")
            for r in self.requirements[pos]:
                parts.append(f"rows >= {r.k} in {r.cluster.key} {r.direction}")
            descendant = self.descendant_sizes.get(u, 0)
            lines.append(
                f"  step {pos}: u{u} (descendants={descendant}) <- "
                + "; ".join(parts)
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<Plan {self.planner_name} order={self.order}"
            f" variant={self.variant}>"
        )


def _direction_from(vertex: int, edge: Edge) -> str:
    """Which row of its cluster ``edge`` occupies for ``vertex``: an
    undirected cluster's one CSR reads as :data:`SUCCESSORS`."""
    if edge.directed and edge.dst == vertex:
        return PREDECESSORS
    return SUCCESSORS


def _first_candidate_pool(
    store: CCSRStore,
    task: TaskClusters,
    pattern: Graph,
    vertex: int,
) -> tuple[Pool, tuple[Cluster, str] | None]:
    """The smallest static candidate pool for an unconstrained position,
    and the ``(cluster, direction)`` whose rows it is drawn from.

    Every incident pattern edge restricts ``vertex`` to one side of its
    cluster, whose live row set ``rows_at_least(1)`` the pool binds; an
    undirected cluster between two labels keeps both in one row set, so
    its pool also holds the vertex's label set. The side with the fewest
    candidates now wins. A vertex with no incident edges (disconnected
    pattern) falls back to its label set alone. The label set changes
    only when a vertex is added, which changes the store's layout.
    """
    label: Hashable = pattern.vertex_label(vertex)
    pools: list[tuple[Pool, tuple[Cluster, str]]] = []
    for edge in pattern.incident_edges(vertex):
        cluster = task.edge_clusters.get(edge)
        if cluster is None:
            return (frozenset(),), None
        direction = _direction_from(vertex, edge)
        pool: Pool = (cluster.rows_at_least(direction == SUCCESSORS, 1),)
        if not edge.directed and cluster.key.src_label != cluster.key.dst_label:
            pool += (frozenset(store.vertices_with_label(label)),)
        pools.append((pool, (cluster, direction)))
    if pools:
        return min(pools, key=lambda entry: pool_size(entry[0]))
    return (frozenset(store.vertices_with_label(label)),), None


def pattern_row_lengths(
    task: TaskClusters, pattern: Graph, vertex: int
) -> dict[tuple[Cluster, str], int]:
    """How many of ``vertex``'s pattern edges fall in each ``(cluster,
    direction)`` row: under injectivity, the least row length a data
    vertex hosting it needs there. Edges with no cluster are skipped (the
    plan is impossible anyway)."""
    lengths: dict[tuple[Cluster, str], int] = {}
    for edge in pattern.incident_edges(vertex):
        cluster = task.edge_clusters.get(edge)
        if cluster is not None:
            row = (cluster, _direction_from(vertex, edge))
            lengths[row] = lengths.get(row, 0) + 1
    return lengths


def _shortest_row(store: CCSRStore, cluster: Cluster, direction: str) -> int:
    """The shortest row any data vertex of the row's labels holds in one
    direction of ``cluster`` now: 0 when some such vertex has no row."""
    key = cluster.key
    if not key.directed:
        csr, labels = cluster.out_csr, {key.src_label, key.dst_label}
    elif direction == SUCCESSORS:
        csr, labels = cluster.out_csr, {key.src_label}
    else:
        csr, labels = cluster.in_csr, {key.dst_label}
    eligible = sum(store.label_frequency[label] for label in labels)
    rows, row_counts, _ = csr.compressed_arrays()
    if rows.shape[0] < eligible:
        return 0
    return int(row_counts.min())


def _row_requirements(
    store: CCSRStore,
    task: TaskClusters,
    pattern: Graph,
    vertex: int,
    sources: set[tuple[Cluster, str]],
) -> tuple[RowRequirement, ...]:
    """The requirements of :func:`pattern_row_lengths` that can prune.

    Dropped (a skipped filter is always sound): ``k == 1`` in a row the
    candidates are drawn from (``sources``: each backward constraint's
    row, seen from ``vertex``, or the static pool's), and any ``k`` at or
    below the shortest row of its cluster at plan time.
    """
    return tuple(
        RowRequirement(cluster, direction, k)
        for (cluster, direction), k in pattern_row_lengths(
            task, pattern, vertex
        ).items()
        if not (k == 1 and (cluster, direction) in sources)
        and k > _shortest_row(store, cluster, direction)
    )


def assemble_plan(
    store: CCSRStore,
    task: TaskClusters,
    pattern: Graph,
    order: Sequence[int],
    dag: DependencyDAG,
    variant: Variant,
    planner_name: str,
    descendant_sizes: dict[int, int] | None = None,
    obs=None,
) -> Plan:
    """Turn an order + DAG into the per-position constraint lists.

    ``obs`` (a :class:`repro.obs.Observation`) adds a ``plan.assemble``
    span recording constraint counts.
    """
    from repro.obs import NULL_OBS

    with (obs or NULL_OBS).tracer.span(
        "plan.assemble", planner=planner_name
    ) as span:
        plan = _assemble(
            store, task, pattern, order, dag, variant, planner_name,
            descendant_sizes,
        )
        span.set("backward_constraints", sum(len(b) for b in plan.backward))
        span.set("negation_constraints", sum(len(x) for x in plan.negations))
    return plan


def _assemble(
    store: CCSRStore,
    task: TaskClusters,
    pattern: Graph,
    order: Sequence[int],
    dag: DependencyDAG,
    variant: Variant,
    planner_name: str,
    descendant_sizes: dict[int, int] | None = None,
) -> Plan:
    start = time.perf_counter()
    n = pattern.num_vertices
    position = {v: i for i, v in enumerate(order)}
    backward: list[list[EdgeConstraint]] = [[] for _ in range(n)]
    negations: list[list[NegationConstraint]] = [[] for _ in range(n)]
    first_candidates: list[Pool | None] = [None] * n
    # Per position, the rows its candidates are drawn from: each holds
    # f(prior) in the late endpoint's row of a backward edge's cluster.
    sources: list[set[tuple[Cluster, str]]] = [set() for _ in range(n)]

    for edge in pattern.edges():
        cluster = task.edge_clusters.get(edge)
        src_pos, dst_pos = position[edge.src], position[edge.dst]
        early, late = (edge.src, edge.dst) if src_pos < dst_pos else (edge.dst, edge.src)
        late_pos = max(src_pos, dst_pos)
        if cluster is None:
            # Impossible edge: pin an always-empty constraint on the later
            # endpoint so execution terminates immediately.
            backward[late_pos].append(
                EdgeConstraint(early, _EMPTY_CLUSTER, SUCCESSORS)
            )
            continue
        backward[late_pos].append(
            EdgeConstraint(early, cluster, _direction_from(early, edge))
        )
        sources[late_pos].add((cluster, _direction_from(late, edge)))

    if variant.induced:
        for (u_a, u_b), checks in task.negation_checks.items():
            pos_a, pos_b = position[u_a], position[u_b]
            early, late = (u_a, u_b) if pos_a < pos_b else (u_b, u_a)
            late_pos = max(pos_a, pos_b)
            # Checks were registered on (u_a, u_b) with u_a < u_b by id;
            # swap when the later-matched vertex is the pair's first slot.
            swap = late == u_a
            for check in checks:
                negations[late_pos].append(NegationConstraint(early, check, swap))

    memo_priors: list[tuple[int, ...]] = []
    memo_specs: list[tuple] = []
    requirements: list[tuple[RowRequirement, ...]] = [()] * n
    for pos in range(n):
        priors = sorted(
            {c.prior for c in backward[pos]} | {c.prior for c in negations[pos]}
        )
        memo_priors.append(tuple(priors))
        if not backward[pos]:
            first_candidates[pos], source = _first_candidate_pool(
                store, task, pattern, order[pos]
            )
            if source is not None:
                sources[pos].add(source)
        if variant.injective:
            requirements[pos] = _row_requirements(
                store, task, pattern, order[pos], sources[pos]
            )
        # The spec identifies *what* is computed, independent of the pattern
        # vertex id — NEC-equivalent vertices share specs and hence share
        # memoized candidate sets.
        edge_spec = tuple(
            sorted((c.prior, id(c.cluster), c.direction) for c in backward[pos])
        )
        neg_spec = tuple(
            sorted(
                (c.prior, id(c.check.cluster), c.check.mode, c.swap)
                for c in negations[pos]
            )
        )
        label = pattern.vertex_label(order[pos])
        # Unconstrained positions read from a static pool; its sets'
        # identities must be part of the spec, or two same-label pattern
        # vertices with *different* pools would wrongly share cache entries.
        pool = first_candidates[pos]
        pool_id = None if pool is None else tuple(map(id, pool))
        # Row filters change what is computed, so they are part of the
        # spec: NEC twins of different degree must not share entries.
        row_spec = tuple(
            sorted((id(r.cluster), r.direction, r.k) for r in requirements[pos])
        )
        memo_specs.append((label, edge_spec, neg_spec, pool_id, row_spec))

    plan = Plan(
        pattern=pattern,
        variant=variant,
        order=list(order),
        dag=dag,
        task_clusters=task,
        backward=backward,
        negations=negations,
        first_candidates=first_candidates,
        memo_priors=memo_priors,
        memo_specs=memo_specs,
        requirements=requirements,
        planner_name=planner_name,
        plan_seconds=time.perf_counter() - start,
        descendant_sizes=descendant_sizes or {},
    )
    plan.validate()
    return plan


class _AlwaysEmptyCluster:
    """Sentinel cluster used for pattern edges with no matching data edges."""

    key = None

    @staticmethod
    def successor_set(_v: int) -> frozenset[int]:
        return frozenset()

    @staticmethod
    def predecessor_set(_v: int) -> frozenset[int]:
        return frozenset()

    @property
    def num_entries(self) -> int:
        return 0


_EMPTY_CLUSTER = _AlwaysEmptyCluster()
