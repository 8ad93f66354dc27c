"""Physical plans: the compiled, directly-executable form of a logical plan.

A :class:`~repro.core.plan.Plan` describes *what* each matching step must
check; this module lowers it once into a tuple of :class:`ExtendOp` step
operators that describe *how* — with everything the hot loop needs resolved
at compile time instead of per search-tree node:

* backward edge constraints become prebound cluster row-set fetchers
  (``cluster.successor_set`` / ``cluster.predecessor_set``), so the
  executor calls one function per constraint with no direction branch and
  no attribute lookups;
* vertex-induced negation probes likewise become prebound exclusion-set
  fetchers (the direction arithmetic of
  :class:`~repro.core.plan.NegationConstraint` runs once, here);
* row requirements (injective variants) become the CSRs' live admissible
  sets (:meth:`~repro.ccsr.cluster.Cluster.rows_at_least`), shared by
  every plan that asks for the same cluster, direction and length, and a
  static candidate pool binds its cluster side's live ``rows_at_least(1)``
  the same way (beside a label set where the side mixes labels). They
  are bound by reference, never copied: an in-place patch adds, empties
  and resizes rows without changing the layout version, so a cached plan
  must see the sets the patch keeps live;
* SCE memo specs are interned to small integer ``spec_id``\\ s — NEC-
  equivalent steps share an id and therefore share cached candidate sets —
  and each op's memo key over its priors is compiled to one C-level
  ``operator.itemgetter`` call;
* symmetry restrictions are folded into per-step slots evaluated at the
  position where their later endpoint is matched;
* seed pins are not compiled in: they bind to the run
  (:meth:`PhysicalPlan.with_seed`), so every pinned run shares one plan;
* the independent-region splits the factorized counter multiplies over
  (:class:`RegionTable`) are computed once per plan, lazily, on the first
  exact count that asks, and compiled into the counter's region tree
  (:class:`RegionProgram`) on the first count that runs it.

Compilation is cheap (linear in plan size) and separated from planning so a
:class:`repro.engine.MatchSession` can cache the result per
``(pattern fingerprint, variant, planner, restrictions, store layout
version)``: an edge update that patches a cluster in place
leaves the compiled ops valid, as they fetch rows and bind row sets
through the patched cluster, also when it adds or empties a row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Any, Callable

from repro.ccsr.store import FORWARD, CCSRStore
from repro.core.plan import SUCCESSORS, Plan, Pool, pool_size
from repro.core.variants import Variant
from repro.engine.verify import check_seed
from repro.errors import PlanError
from repro.graph.model import Graph


@dataclass(frozen=True)
class ExtendOp:
    """One physical matching step: extend the embedding by one vertex.

    All fields are resolved at compile time; execution only indexes into
    them. ``constraints`` and ``negations`` hold ``(prior, fetch)`` pairs
    where ``fetch(f(prior))`` returns one cluster row as a ``frozenset``
    to intersect (respectively to subtract); the set is cached on the
    cluster and shared, so it must never be mutated. ``static_pool``
    (unconstrained positions only) is the plan's pool, the sets whose
    intersection is the candidates (:data:`~repro.core.plan.Pool`).
    ``admissible`` holds the live sets of the vertex's row requirements,
    each intersected with the candidates after the edge constraints.
    Pool and admissible sets are shared, never mutated here.
    ``restrictions`` holds ``(other_vertex, candidate_is_smaller)`` order
    checks anchored at this step.
    ``memo_key(assignment)`` is the images of ``priors`` — the SCE memo
    key's variable half (:func:`prior_getter`).
    """

    pos: int
    u: int
    spec_id: int
    priors: tuple[int, ...]
    constraints: tuple[tuple[int, Callable[[int], frozenset[int]]], ...]
    negations: tuple[tuple[int, Callable[[int], frozenset[int]]], ...]
    static_pool: Pool | None
    admissible: tuple[set[int], ...] = ()
    restrictions: tuple[tuple[int, bool], ...] = ()
    memo_key: Callable[[list[int]], Any] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "memo_key", prior_getter(self.priors))


def _no_priors(assignment: list[int]) -> tuple[()]:
    return ()


def prior_getter(indices: tuple[int, ...]) -> Callable[[list[int]], Any]:
    """A compiled reader of ``assignment[i] for i in indices``.

    Two or more indices give ``operator.itemgetter``'s tuple of images, one
    gives that image bare, and none the constant ``()``: an injective
    encoding of the images for a fixed ``indices``, which is all a memo
    key needs, at the cost of one C call instead of a Python loop.
    """
    return itemgetter(*indices) if indices else _no_priors


@dataclass(frozen=True)
class PhysicalPlan:
    """A compiled plan: one :class:`ExtendOp` per order position.

    Holds a reference to the logical plan it was lowered from (for the
    variant, the dependency DAG used by count factorization, and the
    EXPLAIN metadata). Immutable; per-run state, pins too, lives in the executor.
    """

    logical: Plan
    ops: tuple[ExtendOp, ...]
    restrictions: tuple[tuple[int, int], ...]
    num_specs: int
    compile_seconds: float

    @property
    def num_vertices(self) -> int:
        return len(self.ops)

    @property
    def order(self) -> list[int]:
        return self.logical.order

    @property
    def variant(self) -> Variant:
        return self.logical.variant

    @property
    def injective(self) -> bool:
        return self.logical.variant.injective

    @cached_property
    def regions(self) -> RegionTable:
        """The plan's :class:`RegionTable`, built on first use and kept
        with the plan (so in the session's plan cache)."""
        return RegionTable(self.logical)

    def impossible(self) -> bool:
        """True when a pattern edge has no cluster: zero embeddings."""
        return self.logical.impossible()

    def with_seed(self, seed: dict[int, int], store: CCSRStore) -> dict[int, int]:
        """A run's binding of ``seed`` on ``store``: the seed, checked
        (:func:`~repro.engine.verify.check_seed`). Nothing is copied: the
        run carries it as :attr:`~repro.engine.results.MatchOptions.seed`."""
        return check_seed(self.logical, seed, store)

    def step_table(self) -> list[dict[str, Any]]:
        """Per-op summary rows for EXPLAIN output and the profiler. A
        static pool reports how many candidates it holds now, and each row
        filter how many of its CSR's rows it admits now."""
        return [
            {
                "position": op.pos,
                "vertex": op.u,
                "spec": op.spec_id,
                "constraints": len(op.constraints),
                "negations": len(op.negations),
                "static_pool": (
                    None if op.static_pool is None else pool_size(op.static_pool)
                ),
                "filters": [
                    {
                        "cluster": str(r.cluster.key),
                        "direction": r.direction,
                        "k": r.k,
                        "admitted": len(admitted),
                        "rows": len(
                            r.cluster.source_vertices()
                            if r.direction == SUCCESSORS
                            else r.cluster.destination_vertices()
                        ),
                    }
                    for r, admitted in zip(
                        self.logical.requirements[op.pos], op.admissible
                    )
                ],
                "restrictions": len(op.restrictions),
            }
            for op in self.ops
        ]

    def __repr__(self) -> str:
        return (
            f"<PhysicalPlan {len(self.ops)} ops"
            f" specs={self.num_specs} variant={self.logical.variant}>"
        )


#: Region-program node kinds (:class:`RegionProgram`).
SEQ = 0
LEAF = 1
PROD = 2


@dataclass(frozen=True)
class RegionProgram:
    """The factorized counter's region tree, compiled once per plan.

    One node per positions tuple the counter can reach from the whole
    order, numbered from ``root`` (node 0; ``-1`` for an empty pattern),
    in node-indexed tuples:

    * ``kind`` — :data:`SEQ` scans the candidates of ``pos`` and counts
      ``child`` (the remaining positions) under each; :data:`LEAF` is one
      position, counted in bulk; :data:`PROD` multiplies independent
      regions;
    * ``pos`` — the op position a ``SEQ``/``LEAF`` node extends (-1 for a
      product);
    * ``child`` — a ``SEQ`` node's child node (-1 otherwise);
    * ``parts`` — a ``PROD`` node's regions as ``(node, frontier, labels)``
      triples: the region's node, a compiled getter of its dependency
      frontier's images (:func:`prior_getter`) and its vertex labels, what
      the region-memo key reads besides the used vertices.

    A node's positions strictly contain those of every node below it, so
    no node is ever active twice at once and per-run state can live in
    node-indexed arrays. ``chain`` is the top-level sequential chain: the
    root and its ``SEQ`` descendants through ``child`` up to the first
    product or leaf, the nodes the progress probe reads.
    """

    root: int
    kind: tuple[int, ...]
    pos: tuple[int, ...]
    child: tuple[int, ...]
    parts: tuple[tuple[tuple[int, Callable[[list[int]], Any], frozenset], ...], ...]
    chain: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.kind)


class RegionTable:
    """Independent-region splits of a plan's position sets (paper §V).

    ``groups(positions)`` splits order positions into the components of
    ``H`` restricted to their pattern vertices; under the injective
    variants, components sharing a vertex label are merged back (sibling
    regions could compete for the same data vertices, so their product
    would double-count). A split depends only on the plan, so each
    positions tuple is split once and memoized.

    The same table decides the counting strategy: the factorized counter
    only ever splits a suffix of the order or a region split off one, so a
    plan none of whose suffixes split (:attr:`factorizes` false) counts
    exactly like the frame machine and is routed there. It also compiles
    the counter's :class:`RegionProgram`, once per ``use_sce`` setting.
    """

    def __init__(self, plan: Plan) -> None:
        self._plan = plan
        self._splits: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
        self._programs: dict[bool, RegionProgram] = {}

    def groups(self, positions: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        split = self._splits.get(positions)
        if split is None:
            split = self._splits[positions] = self._split(positions)
        return split

    def _split(self, positions: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        plan = self._plan
        components = plan.dag.undirected_components(
            plan.order[p] for p in positions
        )
        if len(components) > 1 and plan.variant.injective:
            components = _merge_by_labels(components, plan.pattern)
        if len(components) <= 1:
            return (positions,)
        position = plan.position
        return tuple(
            tuple(sorted(position[v] for v in component))
            for component in components
        )

    def program(self, use_sce: bool) -> RegionProgram:
        """The counter's region tree; without ``use_sce`` nothing splits
        and the program is one sequential chain ending in a leaf."""
        program = self._programs.get(use_sce)
        if program is None:
            program = self._programs[use_sce] = self._compile(use_sce)
        return program

    def _compile(self, use_sce: bool) -> RegionProgram:
        """Number the reachable positions tuples breadth-first from the
        whole order and resolve each one's node (iteratively: a
        2000-vertex chain is 2000 nodes, not 2000 stack frames)."""
        plan = self._plan
        n = plan.num_vertices
        if n == 0:
            return RegionProgram(-1, (), (), (), (), ())
        nodes: list[tuple[int, ...]] = [tuple(range(n))]
        ids = {nodes[0]: 0}

        def node_of(positions: tuple[int, ...]) -> int:
            node = ids.get(positions)
            if node is None:
                node = ids[positions] = len(nodes)
                nodes.append(positions)
            return node

        kind: list[int] = []
        pos: list[int] = []
        child: list[int] = []
        parts: list[tuple] = []
        # nodes grows while it is scanned: each tuple is resolved once.
        for positions in nodes:
            groups = (
                self.groups(positions)
                if use_sce and len(positions) > 1
                else (positions,)
            )
            if len(groups) > 1:
                kind.append(PROD)
                pos.append(-1)
                child.append(-1)
                parts.append(
                    tuple(
                        (node_of(group), *self.frontier(group))
                        for group in groups
                    )
                )
                continue
            kind.append(SEQ if len(positions) > 1 else LEAF)
            pos.append(positions[0])
            child.append(node_of(positions[1:]) if len(positions) > 1 else -1)
            parts.append(())
        chain = []
        node = 0
        while kind[node] == SEQ:
            chain.append(node)
            node = child[node]
        return RegionProgram(
            0, tuple(kind), tuple(pos), tuple(child), tuple(parts), tuple(chain)
        )

    def frontier(
        self, positions: tuple[int, ...]
    ) -> tuple[Callable[[list[int]], Any], frozenset]:
        """A region's dependency frontier (the outside vertices its memo
        priors name, sorted), compiled to a getter of their images
        (:func:`prior_getter`), and its vertex labels."""
        plan = self._plan
        members = {plan.order[p] for p in positions}
        frontier = sorted(
            {
                prior
                for p in positions
                for prior in plan.memo_priors[p]
                if prior not in members
            }
        )
        labels = frozenset(plan.pattern.vertex_label(v) for v in members)
        return prior_getter(tuple(frontier)), labels

    @property
    def suffixes(self) -> int:
        """Suffixes of the order with at least two positions."""
        return max(0, self._plan.num_vertices - 1)

    @cached_property
    def split_suffixes(self) -> int:
        """How many of those split into more than one region."""
        n = self._plan.num_vertices
        return sum(
            len(self.groups(tuple(range(k, n)))) > 1 for k in range(n - 1)
        )

    @property
    def factorizes(self) -> bool:
        return self.split_suffixes > 0


def _merge_by_labels(
    components: list[list[int]], pattern: Graph
) -> list[list[int]]:
    """Union components that share any vertex label."""
    parent = list(range(len(components)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    owner: dict = {}
    for idx, component in enumerate(components):
        for v in component:
            label = pattern.vertex_label(v)
            if label in owner:
                parent[find(idx)] = find(owner[label])
            else:
                owner[label] = idx
    merged: dict[int, list[int]] = {}
    for idx, component in enumerate(components):
        merged.setdefault(find(idx), []).extend(component)
    return [sorted(group) for group in merged.values()]


def pattern_fingerprint(pattern: Graph) -> tuple:
    """A hashable structural identity for plan-cache keys.

    Two patterns with the same fingerprint produce the same plan against
    the same store (labels and canonical edge set match exactly; this is
    structural identity, not isomorphism).
    """
    return pattern.fingerprint()


def compile_plan(
    plan: Plan,
    restrictions: tuple[tuple[int, int], ...] | None = None,
) -> PhysicalPlan:
    """Lower a logical plan into its physical operators.

    ``restrictions`` are baked into per-step slots (each pair checked at
    the position where its later endpoint is matched). Seeds bind to the
    run instead (:meth:`PhysicalPlan.with_seed`).
    """
    start = time.perf_counter()
    n = plan.num_vertices
    position = plan.position
    restrictions = tuple(restrictions) if restrictions else ()
    restriction_at: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
    for u, v in restrictions:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise PlanError(
                f"restriction ({u}, {v}) does not name two distinct"
                f" pattern vertices of a {n}-vertex pattern"
            )
        if position[u] > position[v]:
            restriction_at[position[u]].append((v, True))
        else:
            restriction_at[position[v]].append((u, False))

    # Intern each distinct memo spec as a small int: NEC-equivalent
    # positions share the same id, and hashing an int beats re-hashing the
    # nested spec tuple on every candidate lookup.
    spec_ids: dict[tuple, int] = {}
    ops: list[ExtendOp] = []
    for pos in range(n):
        u = plan.order[pos]
        constraints = tuple(
            (
                c.prior,
                c.cluster.successor_set
                if c.direction == SUCCESSORS
                else c.cluster.predecessor_set,
            )
            for c in plan.backward[pos]
        )
        negations = []
        for negation in plan.negations[pos]:
            # NegationConstraint's direction arithmetic, evaluated once
            # here instead of per probe.
            use_successors = (negation.check.mode == FORWARD) != negation.swap
            cluster = negation.check.cluster
            negations.append(
                (
                    negation.prior,
                    cluster.successor_set
                    if use_successors
                    else cluster.predecessor_set,
                )
            )
        ops.append(
            ExtendOp(
                pos=pos,
                u=u,
                spec_id=spec_ids.setdefault(plan.memo_specs[pos], len(spec_ids)),
                priors=plan.memo_priors[pos],
                constraints=constraints,
                negations=tuple(negations),
                static_pool=plan.first_candidates[pos],
                admissible=tuple(
                    r.cluster.rows_at_least(r.direction == SUCCESSORS, r.k)
                    for r in plan.requirements[pos]
                ),
                restrictions=tuple(restriction_at[pos]),
            )
        )
    return PhysicalPlan(
        logical=plan,
        ops=tuple(ops),
        restrictions=restrictions,
        num_specs=len(spec_ids),
        compile_seconds=time.perf_counter() - start,
    )
