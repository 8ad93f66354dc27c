"""Tests for the ahead-of-execution plan verifier (``repro.engine.verify``).

The positive direction sweeps the pattern catalog across all three
variants (what CI's plan-verify step runs through the CLI); the negative
direction seeds four classes of invalid plans — a cyclic DAG, a
disconnected matching order, a cluster from a foreign store, and a
deleted negation probe — and asserts each is rejected with its typed
diagnostic code, as it does for hand-corrupted row filters and static
pools.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.ccsr.store import CCSRStore
from repro.core.dag import build_dag
from repro.core.plan import PREDECESSORS, SUCCESSORS, assemble_plan
from repro.core.variants import Variant
from repro.datasets.registry import load_dataset
from repro.engine.physical import compile_plan
from repro.engine.session import MatchSession, plan_query
from repro.engine.verify import (
    CLUSTER_KEY_UNKNOWN,
    DAG_CYCLE,
    NEGATION_PROBE_MISSING,
    NEGATION_UNEXPECTED,
    OP_TABLE_INCONSISTENT,
    ORDER_DISCONNECTED,
    ORDER_NOT_PERMUTATION,
    RESTRICTION_MALFORMED,
    ROW_FILTER_MISMATCH,
    SEED_PIN_INVALID,
    STATIC_POOL_MISMATCH,
    VerificationReport,
    verify_physical,
    verify_plan,
)
from repro.errors import PlanVerificationError
from repro.graph import Graph
from repro.graph.patterns import CATALOG, by_name
from repro.graph.sampling import sample_pattern

VARIANTS = [v.value for v in Variant]


@pytest.fixture(scope="module")
def store() -> CCSRStore:
    return CCSRStore(load_dataset("dip", scale=0.2))


# ---------------------------------------------------------------------------
# Positive: every catalog pattern x variant verifies clean
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("variant", VARIANTS)
def test_catalog_plans_verify(store, name, variant):
    plan = plan_query(store, by_name(name), variant=variant)
    report = verify_physical(compile_plan(plan), store)
    assert report.ok, report.render()


def test_report_api(store):
    plan = plan_query(store, by_name("triangle"))
    report = verify_plan(plan, store)
    assert report.ok
    assert report.codes() == []
    assert report.as_dict() == {"ok": True, "diagnostics": []}
    assert report.render() == "plan verification: ok"
    # raise_for_errors on a clean report is a no-op returning the report.
    assert report.raise_for_errors() is report


# ---------------------------------------------------------------------------
# Negative: four seeded-invalid plan classes, each with a typed diagnostic
# ---------------------------------------------------------------------------
def test_cyclic_dag_rejected(store):
    plan = plan_query(store, by_name("house"))
    plan.dag.add_edge(plan.order[-1], plan.order[0])
    report = verify_plan(plan, store)
    assert DAG_CYCLE in report.codes()
    with pytest.raises(PlanVerificationError) as exc:
        report.raise_for_errors()
    assert any(d.code == DAG_CYCLE for d in exc.value.diagnostics)


def test_disconnected_order_rejected(store):
    # path4 is 0-1-2-3; matching 2 right after 0 leaves it with no earlier
    # pattern neighbor although its component already started.
    pattern = by_name("path4")
    task = store.read(pattern, Variant.EDGE_INDUCED)
    order = [0, 2, 1, 3]
    dag = build_dag(pattern, order, Variant.EDGE_INDUCED, task)
    plan = assemble_plan(
        store, task, pattern, order, dag, Variant.EDGE_INDUCED,
        planner_name="csce",
    )
    report = verify_plan(plan, store)
    assert ORDER_DISCONNECTED in report.codes()
    diagnostic = next(
        d for d in report.diagnostics if d.code == ORDER_DISCONNECTED
    )
    assert diagnostic.position == 1


def test_foreign_cluster_rejected(store):
    # A cluster resolved against a different store: same shape of object,
    # but not the live cluster the verifying store owns for any key.
    other = CCSRStore(load_dataset("dip", scale=0.1))
    plan = plan_query(store, by_name("triangle"))
    constraint = plan.backward[1][0]
    foreign = next(iter(other.clusters.values()))
    plan.backward[1][0] = dataclasses.replace(constraint, cluster=foreign)
    report = verify_physical(compile_plan(plan), store)
    assert CLUSTER_KEY_UNKNOWN in report.codes()


def test_missing_negation_probe_rejected(store):
    plan = plan_query(store, by_name("path4"), variant="vertex_induced")
    victims = [pos for pos, n in enumerate(plan.negations) if n]
    assert victims, "vertex-induced path4 must carry negation probes"
    plan.negations[victims[-1]].pop()
    report = verify_physical(compile_plan(plan), store)
    assert NEGATION_PROBE_MISSING in report.codes()


# ---------------------------------------------------------------------------
# More invariants
# ---------------------------------------------------------------------------
def test_non_permutation_order_rejected(store):
    plan = plan_query(store, by_name("triangle"))
    plan.order[0] = plan.order[1]  # duplicate vertex, 3-cycle order broken
    report = verify_plan(plan, store)
    assert report.codes() == [ORDER_NOT_PERMUTATION]


def test_negation_on_non_induced_plan_rejected(store):
    edge_plan = plan_query(store, by_name("path4"), variant="edge_induced")
    induced = plan_query(store, by_name("path4"), variant="vertex_induced")
    donor_pos = next(
        pos for pos, n in enumerate(induced.negations) if n
    )
    edge_plan.negations[donor_pos].append(induced.negations[donor_pos][0])
    report = verify_plan(edge_plan, store)
    assert NEGATION_UNEXPECTED in report.codes()


def _seed_codes(physical, seed, store) -> list[str]:
    with pytest.raises(PlanVerificationError) as refused:
        physical.with_seed(seed, store)
    return [d.code for d in refused.value.diagnostics]


def test_bad_seed_pin_rejected(store):
    """A seed is checked where a run binds it: an out-of-range pin and a
    pin whose data vertex has another label are refused at binding."""
    plan = plan_query(store, by_name("triangle"))
    physical = compile_plan(plan)
    u = plan.order[0]
    assert _seed_codes(physical, {u: store.num_vertices + 7}, store) == [
        SEED_PIN_INVALID
    ]
    labeled = CCSRStore(
        Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)], vertex_labels="AAB")
    )
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)], vertex_labels="AAB")
    physical = compile_plan(plan_query(labeled, triangle))
    assert physical.with_seed({2: 2}, labeled) == {2: 2}
    assert _seed_codes(physical, {2: 0}, labeled) == [SEED_PIN_INVALID]


def test_misplaced_restriction_rejected(store):
    plan = plan_query(store, by_name("triangle"))
    physical = compile_plan(plan, restrictions=((plan.order[0], plan.order[1]),))
    assert verify_physical(physical, store).ok
    # Blank out the op slots while keeping the pair list: the recomputed
    # placement no longer matches.
    ops = tuple(dataclasses.replace(op, restrictions=()) for op in physical.ops)
    broken = dataclasses.replace(physical, ops=ops)
    report = verify_physical(broken, store)
    assert RESTRICTION_MALFORMED in report.codes()


def _swap_direction(physical, pick):
    """Replace the first fetcher ``pick(op)`` yields that reads a directed
    cluster's successor rows with that cluster's predecessor fetcher."""
    for pos, op in enumerate(physical.ops):
        fetchers = pick(op)
        for k, (prior, fetch) in enumerate(fetchers):
            cluster = getattr(fetch, "__self__", None)
            if cluster is None or not cluster.key.directed:
                continue
            if fetch != cluster.successor_set:
                continue
            swapped = list(fetchers)
            swapped[k] = (prior, cluster.predecessor_set)
            field = "constraints" if fetchers is op.constraints else "negations"
            op = dataclasses.replace(op, **{field: tuple(swapped)})
            ops = physical.ops[:pos] + (op,) + physical.ops[pos + 1 :]
            return dataclasses.replace(physical, ops=ops)
    raise AssertionError("no directed successor fetcher to swap")


@pytest.mark.parametrize("seed", [0, 1])
def test_swapped_direction_rejected_on_directed_clusters(seed):
    """A predecessor fetcher bound where the plan reads successors of a
    directed cluster reads the wrong rows; the verifier must say so for
    edge constraints and for negation probes alike."""
    graph = load_dataset("subcategory", scale=0.05)
    directed = CCSRStore(graph)
    pattern = sample_pattern(graph, 4, rng=seed)
    edge = compile_plan(plan_query(directed, pattern))
    assert verify_physical(edge, directed).ok
    report = verify_physical(
        _swap_direction(edge, lambda op: op.constraints), directed
    )
    assert OP_TABLE_INCONSISTENT in report.codes()

    induced = compile_plan(plan_query(directed, pattern, variant="vertex_induced"))
    assert verify_physical(induced, directed).ok
    report = verify_physical(
        _swap_direction(induced, lambda op: op.negations), directed
    )
    assert NEGATION_PROBE_MISSING in report.codes()


def test_stale_store_version_rejected(store):
    """A plan compiled before an in-place patch still verifies (it reads
    the patched cluster object); once the cluster it reads is dropped and
    re-created, the object-identity check rejects it."""
    local = CCSRStore(load_dataset("dip", scale=0.1))
    plan = plan_query(local, by_name("triangle"))
    physical = compile_plan(plan)
    assert verify_physical(physical, local).ok
    (key,) = {c.cluster.key for cs in plan.backward for c in cs}
    cluster = local.clusters[key]
    dst = next(
        v for v in range(1, local.num_vertices)
        if not cluster.contains_edge(0, v)
    )
    local.insert_edge(0, dst, key.edge_label, key.directed)
    assert local.clusters[key] is cluster
    assert verify_physical(physical, local).ok
    edges = [(a, b) for a, b in cluster.iter_directed_entries() if a < b]
    for a, b in edges:
        local.remove_edge(a, b, key.edge_label, key.directed)
    local.insert_edge(*edges[0], key.edge_label, key.directed)
    assert local.clusters[key] is not cluster
    report = verify_physical(physical, local)
    assert CLUSTER_KEY_UNKNOWN in report.codes()


def _row_filtered(variant="edge_induced"):
    """A directed store and the plan of a vertex with two out-edges and
    one in-edge in one cluster; returns the store, the plan and the
    position of the vertex's filters (None when it has none)."""
    g = Graph()
    g.add_vertices(["A"] * 6)
    for src, dst in [(0, 1), (0, 2), (3, 0), (4, 0), (4, 5), (1, 2)]:
        g.add_edge(src, dst, directed=True)
    p = Graph()
    p.add_vertices(["A"] * 4)
    for src, dst in [(0, 1), (0, 2), (3, 0)]:
        p.add_edge(src, dst, directed=True)
    local = CCSRStore(g)
    plan = plan_query(local, p, variant=variant)
    pos = next((i for i, r in enumerate(plan.requirements) if r), None)
    return local, plan, pos


def _replace_op(physical, pos, **changes):
    op = dataclasses.replace(physical.ops[pos], **changes)
    ops = physical.ops[:pos] + (op,) + physical.ops[pos + 1 :]
    return dataclasses.replace(physical, ops=ops)


@pytest.mark.parametrize("corruption", ["copy", "longer", "direction"])
def test_corrupted_row_filter_op_rejected(corruption):
    """An op must bind the live admissible set of each of the plan's row
    requirements: a frozen copy, the set of another length, or the set
    of the other direction is rejected."""
    local, plan, pos = _row_filtered()
    physical = compile_plan(plan)
    assert verify_physical(physical, local).ok
    requirement = plan.requirements[pos][0]
    successors = requirement.direction == SUCCESSORS
    bad = {
        "copy": set(physical.ops[pos].admissible[0]),
        "longer": requirement.cluster.rows_at_least(successors, requirement.k + 1),
        "direction": requirement.cluster.rows_at_least(not successors, requirement.k),
    }[corruption]
    admissible = (bad, *physical.ops[pos].admissible[1:])
    report = verify_physical(_replace_op(physical, pos, admissible=admissible), local)
    assert report.codes() == [ROW_FILTER_MISMATCH]
    assert report.diagnostics[0].position == pos


@pytest.mark.parametrize("field", ["k", "direction", "cluster"])
def test_requirement_the_pattern_does_not_imply_rejected(field):
    """verify_plan re-derives the row lengths from the pattern: a logical
    requirement with another length, direction or cluster is rejected
    (compiled or not)."""
    local, plan, pos = _row_filtered()
    requirement = plan.requirements[pos][0]
    other = CCSRStore(local.to_graph()).clusters[requirement.cluster.key]
    flipped = PREDECESSORS if requirement.direction == SUCCESSORS else SUCCESSORS
    changed = {
        "k": requirement.k + 1,
        "direction": flipped,
        "cluster": other,
    }[field]
    plan.requirements[pos] = (
        dataclasses.replace(requirement, **{field: changed}),
        *plan.requirements[pos][1:],
    )
    assert ROW_FILTER_MISMATCH in verify_plan(plan, local).codes()
    assert ROW_FILTER_MISMATCH in verify_physical(compile_plan(plan), local).codes()


def test_verification_builds_no_admissible_set():
    """Verifying looks the live sets up and never builds one: an op whose
    requirement names a set never built is rejected, and the store is
    left with no new set to patch."""
    local, plan, pos = _row_filtered()
    physical = compile_plan(plan)
    requirement = plan.requirements[pos][0]
    successors = requirement.direction == SUCCESSORS
    longer = requirement.k + 1
    plan.requirements[pos] = (
        dataclasses.replace(requirement, k=longer),
        *plan.requirements[pos][1:],
    )
    report = verify_physical(physical, local)
    assert ROW_FILTER_MISMATCH in report.codes()
    assert requirement.cluster.built_rows_at_least(successors, longer) is None


def _pooled(directed):
    """A store over a 2-label graph (A sources, B destinations when
    directed) and the compiled plan of one A-B edge, whose first op draws
    its static pool from the one cluster: the live rows of its side, and
    a label set when the cluster is undirected and so mixes labels."""
    g = Graph()
    g.add_vertices(["A"] * 3 + ["B"] * 3)
    for src, dst in [(0, 3), (0, 4), (1, 4), (2, 5)]:
        g.add_edge(src, dst, directed=directed)
    p = Graph()
    p.add_vertices(["A", "B"])
    p.add_edge(0, 1, directed=directed)
    local = CCSRStore(g)
    return local, compile_plan(plan_query(local, p))


@pytest.mark.parametrize(
    "corruption", ["copy", "side", "unlabelled", "labels only"]
)
def test_corrupted_static_pool_rejected(corruption):
    """An unconstrained op must bind the live row set of a cluster side
    its vertex's edges name: a frozen copy of it, the other side of a
    directed cluster, a mixed-label pool without its label set, or a
    label set alone is rejected."""
    local, physical = _pooled(directed=corruption == "side")
    assert verify_physical(physical, local).ok
    op = physical.ops[0]
    (cluster,) = local.clusters.values()
    successors = physical.order[0] == 0
    live = cluster.rows_at_least(successors, 1)
    assert op.static_pool[0] is live
    bad = {
        "copy": (frozenset(live), *op.static_pool[1:]),
        "side": (cluster.rows_at_least(not successors, 1),),
        "unlabelled": op.static_pool[:1],
        "labels only": op.static_pool[1:],
    }[corruption]
    report = verify_physical(_replace_op(physical, 0, static_pool=bad), local)
    assert report.codes() == [STATIC_POOL_MISMATCH]
    assert report.diagnostics[0].position == 0


def test_row_filter_on_homomorphic_plan_rejected():
    local, injective, pos = _row_filtered()
    plan = plan_query(local, injective.pattern, variant="homomorphic")
    assert not any(plan.requirements)
    plan.requirements[plan.order.index(injective.order[pos])] = (
        injective.requirements[pos]
    )
    assert verify_plan(plan, local).codes() == [ROW_FILTER_MISMATCH]


# ---------------------------------------------------------------------------
# MatchSession(verify=True) debug mode
# ---------------------------------------------------------------------------
def test_session_verify_mode_accepts_sound_plans(store):
    session = MatchSession(store, verify=True)
    entry = session.compile(by_name("house"), "vertex_induced")
    assert entry.physical.num_vertices == 5
    # Cache hits skip re-verification but still return the entry.
    again = session.compile(by_name("house"), "vertex_induced")
    assert again.cached


def test_csce_verify_passthrough(store):
    from repro.core.csce import CSCE

    engine = CSCE(store, verify=True)
    assert engine.session.verify is True
    result = engine.match(by_name("triangle"))
    assert result.count >= 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_verify_catalog(capsys):
    from repro.cli import main

    code = main(
        ["verify", "--dataset", "dip", "--scale", "0.1", "--catalog",
         "--variant", "all"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "result      : ok" in out


def test_cli_verify_json(capsys):
    import json

    from repro.cli import main

    code = main(
        ["verify", "--dataset", "dip", "--scale", "0.1",
         "--pattern-size", "5", "--variant", "edge_induced", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] == 0
    assert payload["plans"][0]["ok"] is True
