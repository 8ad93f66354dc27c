"""Ahead-of-execution semantic verification of matching plans.

A compiled :class:`~repro.engine.physical.PhysicalPlan` is assumed sound
before it streams millions of embeddings; this module checks that
assumption *statically* — no search, no data touched beyond the cluster
map — so a planner bug (or a hand-built plan) is rejected with a typed
diagnostic instead of producing silently wrong counts:

* the matching order is a permutation, connected under the GCF rules (a
  vertex with no earlier pattern neighbor must start a new pattern
  component);
* the ``BuildDAG`` output is structurally sound (mirrored in/out sets,
  acyclic), the order is one of its topological orders, and every
  adjacency/negation dependency Algorithm 2 mandates is present;
* every *no-path* pair of the DAG is genuinely independent per
  Definition 1 — neither pattern-adjacent nor (vertex-induced)
  negation-connected, since either would make candidates sequentially
  inequivalent and break SCE reuse/factorization;
* every :class:`~repro.engine.physical.ExtendOp` references clusters that
  exist in the store's cluster map (object identity, so stale plans
  against a mutated store are caught), with variant-correct negation
  probes (the paper's vertex-induced negation clusters, with the right
  direction arithmetic);
* every row requirement is one the vertex's pattern edges imply (same
  cluster, direction and length; none under homomorphism), and each op
  binds the cluster's live admissible set for it, not a copy that an
  in-place patch would leave stale; likewise each static pool binds the
  live row set of a cluster side its vertex's pattern edges name;
* restriction slots sit at the later endpoint's position (a seed, not
  part of a plan, is checked where a run binds it: :func:`check_seed`).

Surfaces: :func:`verify_plan` / :func:`verify_physical` return a
:class:`VerificationReport`; ``MatchSession(verify=True)`` runs
:func:`verify_physical` on every fresh compile (debug mode); the
``csce verify`` CLI sweeps the pattern catalog across variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import TYPE_CHECKING, Callable, Iterable

from repro.ccsr.key import ClusterKey
from repro.ccsr.store import FORWARD, CCSRStore
from repro.core.plan import (
    PREDECESSORS,
    SUCCESSORS,
    _EMPTY_CLUSTER,
    Plan,
    pattern_row_lengths,
)
from repro.errors import PlanError, PlanVerificationError
from repro.obs.catalog import (  # the diagnostic codes, declared there
    CLUSTER_KEY_UNKNOWN,
    CONSTRAINT_ORDER,
    DAG_CYCLE,
    DAG_INCONSISTENT,
    DAG_MISSING_DEPENDENCY,
    DAG_NOT_TOPOLOGICAL,
    EQUIVALENCE_PAIR_DEPENDENT,
    NEGATION_PROBE_MISSING,
    NEGATION_UNEXPECTED,
    OP_TABLE_INCONSISTENT,
    ORDER_DISCONNECTED,
    ORDER_NOT_PERMUTATION,
    RESTRICTION_MALFORMED,
    ROW_FILTER_MISMATCH,
    SEED_PIN_INVALID,
    SPEC_COLLISION,
    STATIC_POOL_MISMATCH,
)

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.engine.physical import ExtendOp, PhysicalPlan


@dataclass(frozen=True)
class Diagnostic:
    """One verification failure: a stable code, a message, and (when the
    failure is anchored to a matching step) the order position."""

    code: str
    message: str
    position: int | None = None

    def render(self) -> str:
        where = f" (position {self.position})" if self.position is not None else ""
        return f"[{self.code}]{where} {self.message}"

    def as_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "position": self.position,
        }


@dataclass
class VerificationReport:
    """The verifier's outcome: ``ok`` plus the diagnostics (empty when
    the plan is sound)."""

    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def codes(self) -> list[str]:
        return [d.code for d in self.diagnostics]

    def raise_for_errors(self) -> "VerificationReport":
        """Raise :class:`~repro.errors.PlanVerificationError` unless ok."""
        if self.diagnostics:
            summary = "; ".join(d.render() for d in self.diagnostics[:5])
            if len(self.diagnostics) > 5:
                summary += f"; ... {len(self.diagnostics) - 5} more"
            raise PlanVerificationError(
                f"plan verification failed with"
                f" {len(self.diagnostics)} diagnostic(s): {summary}",
                diagnostics=self.diagnostics,
            )
        return self

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }

    def render(self) -> str:
        if self.ok:
            return "plan verification: ok"
        lines = [f"plan verification: {len(self.diagnostics)} problem(s)"]
        lines += [f"  {d.render()}" for d in self.diagnostics]
        return "\n".join(lines)


class _Collector:
    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []

    def add(self, code: str, message: str, position: int | None = None) -> None:
        self.diagnostics.append(Diagnostic(code, message, position))


def _pattern_components(plan: Plan) -> dict[int, int]:
    """Pattern vertex -> connected-component id (undirected view)."""
    component: dict[int, int] = {}
    next_id = 0
    for start in range(plan.pattern.num_vertices):
        if start in component:
            continue
        stack = [start]
        component[start] = next_id
        while stack:
            v = stack.pop()
            for w in plan.pattern.neighbors(v):
                if w not in component:
                    component[w] = next_id
                    stack.append(w)
        next_id += 1
    return component


def _check_order(plan: Plan, out: _Collector) -> bool:
    """Permutation + GCF connectivity. Returns False when the order is
    not even a permutation (downstream checks would KeyError)."""
    n = plan.pattern.num_vertices
    if sorted(plan.order) != list(range(n)):
        out.add(
            ORDER_NOT_PERMUTATION,
            f"order {plan.order} is not a permutation of the"
            f" {n} pattern vertices",
        )
        return False
    component = _pattern_components(plan)
    neighbor_sets = [set(plan.pattern.neighbors(v)) for v in range(n)]
    seen_components: set[int] = set()
    earlier: set[int] = set()
    for pos, u in enumerate(plan.order):
        if pos and not (neighbor_sets[u] & earlier):
            # GCF rule: a vertex without an earlier pattern neighbor may
            # only *start* a new pattern component.
            if component[u] in seen_components:
                out.add(
                    ORDER_DISCONNECTED,
                    f"vertex u{u} at position {pos} has no earlier"
                    " pattern neighbor although its component already"
                    " started — the order is disconnected under GCF"
                    " rules",
                    position=pos,
                )
        earlier.add(u)
        seen_components.add(component[u])
    return True


def _check_dag(plan: Plan, out: _Collector) -> bool:
    """DAG structure, acyclicity, topological order, and Algorithm 2
    completeness. Returns False when path-dependent checks must be
    skipped (broken vertex set or a cycle)."""
    dag = plan.dag
    n = plan.pattern.num_vertices
    if sorted(dag.vertices) != list(range(n)):
        out.add(
            DAG_INCONSISTENT,
            f"dependency DAG is over vertices {sorted(dag.vertices)},"
            f" not the {n} pattern vertices",
        )
        return False
    for src, dsts in dag.out.items():
        for dst in dsts:
            if src not in dag.inc.get(dst, set()):
                out.add(
                    DAG_INCONSISTENT,
                    f"DAG edge ({src}, {dst}) is missing from the"
                    " incoming-adjacency mirror",
                )
                return False
    for dst, srcs in dag.inc.items():
        for src in srcs:
            if dst not in dag.out.get(src, set()):
                out.add(
                    DAG_INCONSISTENT,
                    f"DAG incoming edge ({src}, {dst}) is missing from"
                    " the outgoing-adjacency mirror",
                )
                return False
    try:
        list(dag.topological_order())
    except PlanError:
        out.add(DAG_CYCLE, "dependency DAG contains a cycle")
        return False
    if not dag.is_topological_order(plan.order):
        out.add(
            DAG_NOT_TOPOLOGICAL,
            f"order {plan.order} is not a topological order of the"
            " dependency DAG",
        )
    # Algorithm 2 completeness: pattern adjacency between positions i < j
    # always creates the dependency (order[i], order[j]); under the
    # vertex-induced variant so does any negation cluster between the
    # pair (the engine's conservative BuildDAG form).
    neighbor_sets = [set(plan.pattern.neighbors(v)) for v in range(n)]
    induced = plan.variant.induced
    for j in range(1, n):
        u_j = plan.order[j]
        for i in range(j):
            u_i = plan.order[i]
            adjacent = u_i in neighbor_sets[u_j]
            negated = induced and plan.task_clusters.has_negation_between(
                u_i, u_j
            )
            if (adjacent or negated) and not dag.has_edge(u_i, u_j):
                why = "pattern-adjacent" if adjacent else "negation-connected"
                out.add(
                    DAG_MISSING_DEPENDENCY,
                    f"{why} pair (u{u_i}, u{u_j}) has no dependency"
                    " edge (Algorithm 2 would add it)",
                    position=j,
                )
    return True


def _check_equivalence_pairs(plan: Plan, out: _Collector) -> None:
    """Definition 1: every no-path pair of the DAG must be genuinely
    independent — the engine reuses candidates across exactly these
    pairs, so a dependent pair here means wrong counts, not slowness."""
    neighbor_sets = [
        set(plan.pattern.neighbors(v))
        for v in range(plan.pattern.num_vertices)
    ]
    induced = plan.variant.induced
    for a, b in plan.dag.independent_pairs():
        if b in neighbor_sets[a]:
            out.add(
                EQUIVALENCE_PAIR_DEPENDENT,
                f"(u{a}, u{b}) has no DAG path but the vertices are"
                " pattern-adjacent — Definition 1 equivalence would"
                " reuse candidates across a real dependency",
            )
        elif induced and plan.task_clusters.has_negation_between(a, b):
            out.add(
                EQUIVALENCE_PAIR_DEPENDENT,
                f"(u{a}, u{b}) has no DAG path but the data graph has"
                " negation clusters between their labels — the"
                " vertex-induced variant makes them dependent",
            )


def _cluster_known(cluster: object, store: CCSRStore) -> bool:
    """Is ``cluster`` the store's live object for its key (or the shared
    always-empty sentinel for impossible edges)?"""
    if cluster is _EMPTY_CLUSTER or getattr(cluster, "key", None) is None:
        return cluster is _EMPTY_CLUSTER
    return store.clusters.get(cluster.key) is cluster


def _check_constraints(
    plan: Plan, store: CCSRStore | None, out: _Collector
) -> None:
    n = plan.pattern.num_vertices
    position = plan.position
    for name, table in (("backward", plan.backward),
                        ("negation", plan.negations)):
        if len(table) != n:
            out.add(
                DAG_INCONSISTENT,
                f"{name} constraint table has {len(table)} rows for a"
                f" {n}-vertex pattern",
            )
            return
    for pos, constraints in enumerate(plan.backward):
        for c in constraints:
            if c.prior not in position or position[c.prior] >= pos:
                out.add(
                    CONSTRAINT_ORDER,
                    f"edge constraint at position {pos} references"
                    f" u{c.prior}, which is not matched earlier",
                    position=pos,
                )
            if c.direction not in (SUCCESSORS, PREDECESSORS):
                out.add(
                    OP_TABLE_INCONSISTENT,
                    f"edge constraint at position {pos} has unknown"
                    f" direction {c.direction!r}",
                    position=pos,
                )
            if store is not None and not _cluster_known(c.cluster, store):
                out.add(
                    CLUSTER_KEY_UNKNOWN,
                    f"edge constraint at position {pos} references"
                    f" cluster {getattr(c.cluster, 'key', None)!r},"
                    " which is not the store's live cluster for that"
                    " key (stale or foreign plan?)",
                    position=pos,
                )
    for pos, constraints in enumerate(plan.negations):
        if constraints and not plan.variant.induced:
            out.add(
                NEGATION_UNEXPECTED,
                f"{plan.variant.value} plan carries"
                f" {len(constraints)} negation probe(s) at position"
                f" {pos}; only the vertex-induced variant uses negation",
                position=pos,
            )
            continue
        for c in constraints:
            if c.prior not in position or position[c.prior] >= pos:
                out.add(
                    CONSTRAINT_ORDER,
                    f"negation probe at position {pos} references"
                    f" u{c.prior}, which is not matched earlier",
                    position=pos,
                )
            if store is not None and not _cluster_known(
                c.check.cluster, store
            ):
                out.add(
                    CLUSTER_KEY_UNKNOWN,
                    f"negation probe at position {pos} references"
                    f" cluster {getattr(c.check.cluster, 'key', None)!r},"
                    " which is not the store's live cluster for that key",
                    position=pos,
                )


def _expected_negations(plan: Plan) -> dict[int, set[tuple[int, int, bool]]]:
    """Per late position, the probes the task's negation checks mandate:
    ``(early vertex, id(check), swap)`` triples (the same registration
    arithmetic as plan assembly)."""
    position = plan.position
    expected: dict[int, set[tuple[int, int, bool]]] = {}
    for (u_a, u_b), checks in plan.task_clusters.negation_checks.items():
        if u_a not in position or u_b not in position:
            continue
        pos_a, pos_b = position[u_a], position[u_b]
        early, late = (u_a, u_b) if pos_a < pos_b else (u_b, u_a)
        late_pos = max(pos_a, pos_b)
        swap = late == u_a
        bucket = expected.setdefault(late_pos, set())
        for check in checks:
            bucket.add((early, id(check), swap))
    return expected


def _check_negation_coverage(plan: Plan, out: _Collector) -> None:
    """Vertex-induced only: the plan's probes must be exactly the ones
    the task's negation clusters mandate — a missing probe admits
    embeddings the induced semantics forbid."""
    if not plan.variant.induced:
        return
    expected = _expected_negations(plan)
    for pos in range(plan.pattern.num_vertices):
        want = expected.get(pos, set())
        have = {
            (c.prior, id(c.check), c.swap) for c in plan.negations[pos]
        }
        for early, _check_id, swap in sorted(
            want - have, key=lambda t: (t[0], t[2])
        ):
            out.add(
                NEGATION_PROBE_MISSING,
                f"position {pos} is missing a mandated negation probe"
                f" against u{early} (swap={swap}) — induced semantics"
                " would admit forbidden embeddings",
                position=pos,
            )
        for early, _check_id, swap in sorted(
            have - want, key=lambda t: (t[0], t[2])
        ):
            out.add(
                NEGATION_UNEXPECTED,
                f"position {pos} carries a negation probe against"
                f" u{early} (swap={swap}) that no task negation check"
                " mandates",
                position=pos,
            )


def _check_requirements(plan: Plan, out: _Collector) -> None:
    """Re-derive each vertex's row lengths from the pattern: every row
    requirement must name one of them exactly. A requirement may be
    missing (a skipped filter is sound), but one with another length,
    cluster or direction, or any under homomorphism, can reject a
    valid embedding. Its cluster is then a task cluster, which the edge
    constraint checks hold to the store's live cluster map."""
    n = plan.pattern.num_vertices
    if len(plan.requirements) != n:
        out.add(
            ROW_FILTER_MISMATCH,
            f"row requirement table has {len(plan.requirements)} rows for"
            f" a {n}-vertex pattern",
        )
        return
    for pos, requirements in enumerate(plan.requirements):
        if requirements and not plan.variant.injective:
            out.add(
                ROW_FILTER_MISMATCH,
                f"{plan.variant.value} plan carries {len(requirements)}"
                f" row requirement(s) at position {pos}; a homomorphism"
                " may map two pattern edges onto one data edge",
                position=pos,
            )
            continue
        u = plan.order[pos]
        lengths = pattern_row_lengths(plan.task_clusters, plan.pattern, u)
        for r in requirements:
            implied = lengths.get((r.cluster, r.direction))
            if implied != r.k:
                out.add(
                    ROW_FILTER_MISMATCH,
                    f"position {pos} requires rows >= {r.k} in"
                    f" {getattr(r.cluster, 'key', None)} {r.direction};"
                    f" u{u}'s pattern edges imply"
                    + (" no such row" if implied is None else f" >= {implied}"),
                    position=pos,
                )


def verify_plan(
    plan: Plan, store: CCSRStore | None = None
) -> VerificationReport:
    """Verify a logical plan: order, DAG, Definition-1 pairs, constraint
    tables, row requirements, and (with a ``store``) cluster-map
    membership."""
    out = _Collector()
    if _check_order(plan, out):
        if _check_dag(plan, out):
            _check_equivalence_pairs(plan, out)
        _check_constraints(plan, store, out)
        _check_negation_coverage(plan, out)
        _check_requirements(plan, out)
    return VerificationReport(out.diagnostics)


# ----------------------------------------------------------------------
# Physical-plan checks
# ----------------------------------------------------------------------
def _fetch_owner(fetch: Callable) -> object | None:
    """The cluster a prebound fetcher reads from (None for the shared
    always-empty sentinel, whose fetchers are plain staticmethods)."""
    return getattr(fetch, "__self__", None)


def _is_sentinel_fetch(fetch: Callable) -> bool:
    return fetch in (_EMPTY_CLUSTER.successor_set, _EMPTY_CLUSTER.predecessor_set)


def _fetch_direction(fetch: Callable) -> str | None:
    """:data:`SUCCESSORS` or :data:`PREDECESSORS` when ``fetch`` is that
    row-set fetcher of the cluster it is bound to (or of the sentinel),
    ``None`` for anything else."""
    owner = _fetch_owner(fetch)
    if owner is None:
        owner = _EMPTY_CLUSTER
    if fetch == getattr(owner, "successor_set", None):
        return SUCCESSORS
    if fetch == getattr(owner, "predecessor_set", None):
        return PREDECESSORS
    return None


def _check_ops(
    physical: "PhysicalPlan", store: CCSRStore, out: _Collector
) -> None:
    plan = physical.logical
    n = plan.pattern.num_vertices
    if len(physical.ops) != n:
        out.add(
            OP_TABLE_INCONSISTENT,
            f"physical plan has {len(physical.ops)} ops for a"
            f" {n}-vertex pattern",
        )
        return
    direction_name: dict[str | None, str] = {
        SUCCESSORS: "successor_set",
        PREDECESSORS: "predecessor_set",
    }
    for pos, op in enumerate(physical.ops):
        if op.pos != pos or op.u != plan.order[pos]:
            out.add(
                OP_TABLE_INCONSISTENT,
                f"op at index {pos} claims (pos={op.pos}, u={op.u});"
                f" the order mandates (pos={pos}, u={plan.order[pos]})",
                position=pos,
            )
            continue
        if tuple(op.priors) != tuple(plan.memo_priors[pos]):
            out.add(
                OP_TABLE_INCONSISTENT,
                f"op {pos} priors {op.priors} diverge from the plan's"
                f" memo priors {plan.memo_priors[pos]}",
                position=pos,
            )
        if len(op.constraints) != len(plan.backward[pos]):
            out.add(
                OP_TABLE_INCONSISTENT,
                f"op {pos} has {len(op.constraints)} edge fetchers; the"
                f" plan mandates {len(plan.backward[pos])}",
                position=pos,
            )
        else:
            for k, (prior, fetch) in enumerate(op.constraints):
                logical = plan.backward[pos][k]
                if prior != logical.prior:
                    out.add(
                        OP_TABLE_INCONSISTENT,
                        f"op {pos} fetcher {k} reads f(u{prior}); the"
                        f" plan constraint reads f(u{logical.prior})",
                        position=pos,
                    )
                    continue
                direction = _fetch_direction(fetch)
                if direction != logical.direction:
                    out.add(
                        OP_TABLE_INCONSISTENT,
                        f"op {pos} fetcher {k} is"
                        f" {direction_name.get(direction, '?')}(); the plan"
                        f" direction {logical.direction!r} mandates"
                        f" {direction_name.get(logical.direction)}()",
                        position=pos,
                    )
                owner = _fetch_owner(fetch)
                if owner is None:
                    if not _is_sentinel_fetch(fetch):
                        out.add(
                            CLUSTER_KEY_UNKNOWN,
                            f"op {pos} fetcher {k} is not bound to any"
                            " cluster object",
                            position=pos,
                        )
                elif not _cluster_known(owner, store):
                    out.add(
                        CLUSTER_KEY_UNKNOWN,
                        f"op {pos} fetcher {k} is bound to cluster"
                        f" {getattr(owner, 'key', None)!r}, which is"
                        " not the store's live cluster for that key",
                        position=pos,
                    )
        _check_op_negations(plan, pos, op, store, out)
        _check_op_filters(plan, pos, op, out)
        _check_op_pool(plan, store, pos, op, out)


def _check_op_negations(
    plan: Plan, pos: int, op: "ExtendOp", store: CCSRStore, out: _Collector
) -> None:
    """The op's exclusion fetchers must realize exactly the plan's
    negation probes with the variant's direction arithmetic."""
    expected: set[tuple[int, int, bool]] = set()
    for negation in plan.negations[pos]:
        use_successors = (
            negation.check.mode == FORWARD
        ) != negation.swap
        expected.add(
            (negation.prior, id(negation.check.cluster), use_successors)
        )
    have: set[tuple[int, int, bool]] = set()
    for prior, fetch in op.negations:
        owner = _fetch_owner(fetch)
        if owner is None and not _is_sentinel_fetch(fetch):
            out.add(
                CLUSTER_KEY_UNKNOWN,
                f"op {pos} negation fetcher is not bound to any"
                " cluster object",
                position=pos,
            )
            continue
        if owner is not None and not _cluster_known(owner, store):
            out.add(
                CLUSTER_KEY_UNKNOWN,
                f"op {pos} negation fetcher is bound to cluster"
                f" {getattr(owner, 'key', None)!r}, which is not the"
                " store's live cluster for that key",
                position=pos,
            )
            continue
        have.add((prior, id(owner), _fetch_direction(fetch) == SUCCESSORS))
    missing = len(expected) - len(expected & have) if expected else 0
    if missing:
        out.add(
            NEGATION_PROBE_MISSING,
            f"op {pos} realizes {len(expected & have)} of"
            f" {len(expected)} mandated negation probes — the missing"
            " exclusion fetchers would admit forbidden embeddings",
            position=pos,
        )
    extra = have - {
        (p, cid, use) for p, cid, use in expected
    }
    if extra:
        out.add(
            NEGATION_UNEXPECTED,
            f"op {pos} carries {len(extra)} exclusion fetcher(s) the"
            " plan's negation probes do not mandate",
            position=pos,
        )


def _check_op_filters(
    plan: Plan, pos: int, op: "ExtendOp", out: _Collector
) -> None:
    """The op's admissible sets must be, by identity and in order, the
    live sets of the plan's row requirements at ``pos``. They are looked
    up, never built: a requirement whose set was never built has no live
    set the op could bind, and building one would leave the checked
    store with another set to patch."""
    requirements = (
        plan.requirements[pos] if len(plan.requirements) > pos else ()
    )
    expected = [
        r.cluster.built_rows_at_least(r.direction == SUCCESSORS, r.k)
        for r in requirements
    ]
    if len(op.admissible) != len(expected) or any(
        want is None or have is not want
        for have, want in zip(op.admissible, expected)
    ):
        out.add(
            ROW_FILTER_MISMATCH,
            f"op {pos} binds {len(op.admissible)} admissible set(s) that"
            f" are not the live sets of the plan's {len(expected)} row"
            " requirement(s): a wrong length, cluster or direction, or a"
            " copy that in-place patches would leave stale",
            position=pos,
        )


def _check_op_pool(
    plan: Plan, store: CCSRStore, pos: int, op: "ExtendOp", out: _Collector
) -> None:
    """An unconstrained op's pool must bind, by identity, the live
    ``rows_at_least(1)`` (looked up, never built) of one cluster side its
    vertex's pattern edges name, beside the vertex's label set exactly
    when that side mixes two labels; a vertex with no edges has the label
    set alone. An impossible plan's empty pool is not checked."""
    if plan.backward[pos] or plan.impossible():
        return
    sides: dict[int, ClusterKey] = {}
    for cluster, direction in pattern_row_lengths(
        plan.task_clusters, plan.pattern, op.u
    ):
        live = cluster.built_rows_at_least(direction == SUCCESSORS, 1)
        if live is not None:
            sides[id(live)] = cluster.key
    pool = op.static_pool or ()
    bound = [sides[id(members)] for members in pool if id(members) in sides]
    others = [members for members in pool if id(members) not in sides]
    mixed = any(not k.directed and k.src_label != k.dst_label for k in bound)
    label = plan.pattern.vertex_label(op.u)
    if (
        len(bound) != (1 if sides else 0)
        or len(others) != (1 if mixed or not sides else 0)
        or any(members != set(store.vertices_with_label(label)) for members in others)
    ):
        out.add(
            STATIC_POOL_MISMATCH,
            f"op {pos}'s static pool is not the live row set of a cluster"
            f" side u{op.u}'s pattern edges name (with its label set where"
            " that side mixes labels): a frozen copy that in-place patches"
            " would leave stale, or the wrong side",
            position=pos,
        )


def check_seed(
    plan: Plan, seed: dict[int, int], store: CCSRStore
) -> dict[int, int]:
    """The run's binding of ``seed``: a fresh ``{pattern vertex: data
    vertex}`` dict, once every key is a pattern vertex and every pin a
    data vertex with that vertex's label; else ``PlanVerificationError``,
    before any search."""
    wanted, labels = plan.pattern.vertex_labels, store.vertex_labels
    problems = []
    for u, pin in seed.items():
        if not _is_index(u, len(wanted)):
            problems.append(f"seed key {u!r} is not a pattern vertex")
        elif not _is_index(pin, len(labels)):
            problems.append(f"seed pins u{u} to {pin!r}, not a data vertex")
        elif wanted[u] != labels[pin]:
            problems.append(
                f"seed pins u{u} (label {wanted[u]!r}) to data vertex"
                f" {pin} (label {labels[pin]!r})"
            )
    _refuse_pins(problems)
    return {int(u): int(pin) for u, pin in seed.items()}


def check_data_vertices(store: CCSRStore, vertices: Iterable[object]) -> None:
    """``PlanVerificationError`` (``seed-pin-invalid``) unless each of
    ``vertices`` is a data vertex of ``store``: the check a continuous
    delta makes once of its data edge's endpoints, whose label-checked
    pins then bind without :func:`check_seed`."""
    size = len(store.vertex_labels)
    problems = [
        f"edge endpoint {v!r} is not a data vertex"
        for v in vertices
        if not _is_index(v, size)
    ]
    _refuse_pins(problems)


def _refuse_pins(problems: list[str]) -> None:
    if problems:
        VerificationReport(
            [Diagnostic(SEED_PIN_INVALID, problem) for problem in problems]
        ).raise_for_errors()


def _is_index(value: object, size: int) -> bool:
    integral = type(value) is int or isinstance(value, Integral)  # numpy too
    return integral and 0 <= value < size  # type: ignore[operator]


def _check_restrictions(
    physical: "PhysicalPlan", out: _Collector
) -> None:
    """Re-derive the per-step restriction slots from the plan's pair list
    and compare (same placement rule as compilation: each pair is
    checked at its later endpoint's position)."""
    plan = physical.logical
    n = plan.pattern.num_vertices
    position = plan.position
    expected: list[set[tuple[int, bool]]] = [set() for _ in range(n)]
    for u, v in physical.restrictions:
        if u == v or not (0 <= u < n and 0 <= v < n):
            out.add(
                RESTRICTION_MALFORMED,
                f"restriction ({u}, {v}) does not name two distinct"
                f" pattern vertices of a {n}-vertex pattern",
            )
            continue
        if position[u] > position[v]:
            expected[position[u]].add((v, True))
        else:
            expected[position[v]].add((u, False))
    if len(physical.ops) != n:
        return  # already reported by _check_ops
    for pos, op in enumerate(physical.ops):
        have = set(op.restrictions)
        if have != expected[pos]:
            out.add(
                RESTRICTION_MALFORMED,
                f"op {pos} evaluates restriction slots"
                f" {sorted(have)}; the plan's pairs mandate"
                f" {sorted(expected[pos])}",
                position=pos,
            )


def _check_specs(physical: "PhysicalPlan", out: _Collector) -> None:
    """Interned spec ids must partition positions exactly like the memo
    specs do — a collision would share candidate caches across
    inequivalent steps."""
    plan = physical.logical
    if len(physical.ops) != len(plan.memo_specs):
        return  # already reported by _check_ops
    by_id: dict[int, tuple] = {}
    for pos, op in enumerate(physical.ops):
        spec = plan.memo_specs[pos]
        claimed = by_id.setdefault(op.spec_id, spec)
        if claimed != spec:
            out.add(
                SPEC_COLLISION,
                f"op {pos} shares spec id {op.spec_id} with a step"
                " whose memo spec differs — NEC-inequivalent steps"
                " would share cached candidate sets",
                position=pos,
            )
    if physical.num_specs != len(by_id):
        out.add(
            SPEC_COLLISION,
            f"physical plan declares {physical.num_specs} candidate"
            f" specs but its ops use {len(by_id)} distinct ids",
        )


def verify_physical(
    physical: "PhysicalPlan", store: CCSRStore
) -> VerificationReport:
    """Verify a compiled plan against the store it will execute on.

    Includes every :func:`verify_plan` check on the underlying logical
    plan, then validates the lowered operator table: op/order agreement,
    fetcher direction and cluster-map membership (object identity, so a
    plan compiled against a since-mutated store is rejected), negation
    probe realization, row filters, restriction slots, and spec
    interning.
    """
    out = _Collector()
    report = verify_plan(physical.logical, store)
    out.diagnostics.extend(report.diagnostics)
    _check_ops(physical, store, out)
    _check_restrictions(physical, out)
    _check_specs(physical, out)
    return VerificationReport(out.diagnostics)
