"""Plan EXPLAIN: why the optimizer chose this plan, and how it played out.

``repro explain`` renders, for one (pattern, variant, planner) task:

* the chosen matching order ``Phi*`` with, per step, the GCF rule that
  fired (``prefix`` / ``first`` / rule-set sizes ``|T1| |T2| |T3|``) and
  the cluster tie-break values ``omega`` (Eq. 2) that won;
* each step's backward constraints (which cluster neighbor lists the
  executor intersects) and cluster sizes;
* the dependency DAG ``H`` (Algorithm 2) and its *equivalence pairs* —
  vertex pairs with no path in either direction, exactly the pairs
  Definition 1 declares sequentially candidate-equivalent;
* each step's row filters (injective variants): the cluster, direction
  and least row length a candidate needs, and how many of the CSR's rows
  admit it now;
* the exact-count strategy — factorized counter or frame machine — read
  off the compiled plan's region table, the one
  :func:`~repro.engine.executor.execute_physical` routes by, with the
  number of order suffixes that split into independent regions;
* **estimated** candidate counts per step (live static-pool sizes and
  average cluster neighbor-list lengths), and — when a profiled run-report is
  supplied — the **actual** mean candidate counts measured per depth, so
  misestimates that misorder the plan become visible.

The estimate is deliberately simple (the planner itself is heuristic, not
cardinality-based): an unconstrained step costs its static pool size; a
constrained step costs the smallest average neighbor-list length among
its backward clusters. Comparing it against profiled actuals is the point.
"""

from __future__ import annotations

from typing import Any

from repro.core.equivalence import sce_statistics
from repro.core.plan import SUCCESSORS, Plan, pool_size


def estimate_candidates(plan: Plan) -> list[float]:
    """Estimated candidates per order position (see module docstring)."""
    estimates: list[float] = []
    for pos in range(plan.num_vertices):
        constraints = plan.backward[pos]
        if not constraints:
            pool = plan.first_candidates[pos]
            estimates.append(float(0 if pool is None else pool_size(pool)))
            continue
        best = None
        for c in constraints:
            if c.cluster.key is None:  # impossible-edge sentinel
                best = 0.0
                break
            sources = (
                c.cluster.source_vertices()
                if c.direction == SUCCESSORS
                else c.cluster.destination_vertices()
            )
            avg = c.cluster.num_entries / max(1, len(sources))
            if best is None or avg < best:
                best = avg
        estimates.append(round(best if best is not None else 0.0, 2))
    return estimates


def _actuals_from_report(report: dict | None) -> dict[int, dict]:
    """Per-depth actual rows from a run-report's profile block, if any."""
    if not report:
        return {}
    profile = report.get("profile") or {}
    rows = profile.get("search_depth") or []
    return {row["depth"]: row for row in rows if isinstance(row, dict)}


def build_explain(
    plan: Plan,
    sce_stats: Any = None,
    report: dict | None = None,
    physical: Any = None,
) -> dict[str, Any]:
    """Assemble the EXPLAIN document (JSON-ready) for a plan.

    ``sce_stats`` is a :class:`~repro.core.equivalence.SCEStats` (computed
    from the plan's DAG when omitted); ``report`` is a saved run-report
    whose profiled per-depth actuals are joined in when present.
    ``physical`` is the compiled :class:`~repro.engine.PhysicalPlan`
    (compiled here when omitted), so EXPLAIN reads the operators the
    executor actually runs, not just the logical plan.
    """
    if physical is None:
        from repro.engine.physical import compile_plan

        physical = compile_plan(plan)
    pattern = plan.pattern
    if sce_stats is None:
        sce_stats = sce_statistics(pattern, plan.dag)
    rationale_by_vertex = {
        entry.get("vertex"): entry for entry in plan.order_rationale
    }
    estimates = estimate_candidates(plan)
    actuals = _actuals_from_report(report)
    regions = physical.regions
    strategy = "factorized" if regions.factorizes else "frame machine"

    steps: list[dict] = []
    for pos, u in enumerate(plan.order):
        constraints = [
            {
                "prior": c.prior,
                "direction": c.direction,
                "cluster": str(c.cluster.key),
                "cluster_entries": c.cluster.num_entries,
            }
            for c in plan.backward[pos]
        ]
        pool = plan.first_candidates[pos]
        step: dict[str, Any] = {
            "position": pos,
            "vertex": u,
            "label": pattern.vertex_label(u),
            "constraints": constraints,
            "negations": len(plan.negations[pos]),
            "static_pool": None if pool is None else pool_size(pool),
            "estimated_candidates": estimates[pos],
        }
        rationale = rationale_by_vertex.get(u)
        if rationale:
            step["rationale"] = dict(rationale)
        actual = actuals.get(pos)
        if actual:
            step["actual_visits"] = actual.get("visits", 0)
            step["actual_mean_candidates"] = actual.get("mean_candidates", 0.0)
            step["actual_backtracks"] = actual.get("backtracks", 0)
        steps.append(step)

    equivalence_pairs = sorted(plan.dag.independent_pairs())
    dag_edges = sorted(
        (src, dst) for src, dsts in plan.dag.out.items() for dst in dsts
    )
    return {
        "planner": plan.planner_name,
        "variant": str(plan.variant),
        "order": list(plan.order),
        "plan_seconds": plan.plan_seconds,
        "clusters_used": plan.task_clusters.num_clusters,
        "bytes_read": plan.task_clusters.bytes_read,
        "impossible": plan.impossible(),
        "steps": steps,
        "dag": {"edges": dag_edges, "num_edges": len(dag_edges)},
        "equivalence_pairs": equivalence_pairs,
        "sce": {
            "occurrence": sce_stats.occurrence,
            "cluster_ratio": sce_stats.cluster_ratio,
            "sce_vertices": sce_stats.sce_vertices,
            "sce_pairs": sce_stats.sce_pairs,
            "cluster_pairs": sce_stats.cluster_pairs,
        },
        "physical": {
            "compile_seconds": physical.compile_seconds,
            "num_ops": len(physical.ops),
            "num_specs": physical.num_specs,
            "ops": physical.step_table(),
            "counting": {
                "strategy": strategy,
                "split_suffixes": regions.split_suffixes,
                "suffixes": regions.suffixes,
                "regions": (
                    "label-disjoint" if plan.variant.injective else "independent"
                ),
            },
        },
        "has_actuals": bool(actuals),
    }


def _format_rationale(rationale: dict | None) -> str:
    if not rationale:
        return "-"
    if rationale.get("rule") == "prefix":
        return "prefix (pinned by the run)"
    if rationale.get("rule") == "first":
        return (
            f"first (degree={rationale.get('degree')},"
            f" min cluster={rationale.get('min_incident_cluster')})"
        )
    omega = rationale.get("omega") or []
    omega_str = ",".join("inf" if o is None else f"{o:g}" for o in omega)
    return (
        f"|T1|={rationale.get('t1')} |T2|={rationale.get('t2')}"
        f" |T3|={rationale.get('t3')} omega=({omega_str})"
    )


def format_explain(info: dict) -> str:
    """Human-readable EXPLAIN rendering (the ``repro explain`` output)."""
    lines = [
        f"EXPLAIN — planner {info['planner']} / variant {info['variant']}",
        f"order (Phi*)  : {info['order']}",
        f"clusters used : {info['clusters_used']}"
        f" ({info['bytes_read']} bytes read)",
        f"plan time     : {info['plan_seconds']:.4f} s",
    ]
    if info.get("impossible"):
        lines.append("NOTE: a pattern edge matched no cluster — 0 embeddings")
    lines.append("")
    lines.append("steps (GCF rule firings and candidate estimates):")
    header = (
        f"  {'pos':>3}  {'u':>4}  {'est.cand':>9}"
        + ("  {:>9}  {:>7}".format("act.cand", "visits") if info["has_actuals"] else "")
        + "  rule / tie-break"
    )
    lines.append(header)
    for step in info["steps"]:
        actual = ""
        if info["has_actuals"]:
            actual = "  {:>9}  {:>7}".format(
                f"{step.get('actual_mean_candidates', 0.0):g}"
                if "actual_mean_candidates" in step
                else "-",
                step.get("actual_visits", "-"),
            )
        lines.append(
            f"  {step['position']:>3}  u{step['vertex']:<3}"
            f"  {step['estimated_candidates']:>9g}"
            + actual
            + f"  {_format_rationale(step.get('rationale'))}"
        )
        for c in step["constraints"]:
            arrow = "->" if c["direction"] == SUCCESSORS else "<-"
            lines.append(
                f"        u{c['prior']}{arrow}u{step['vertex']}"
                f" via {c['cluster']} ({c['cluster_entries']} entries)"
            )
        if step["negations"]:
            lines.append(f"        {step['negations']} negation probes")
        if step["static_pool"] is not None and not step["constraints"]:
            lines.append(f"        static pool of {step['static_pool']} candidates")
    lines.append("")
    dag = info["dag"]
    lines.append(f"dependency DAG H: {dag['num_edges']} edges")
    if dag["edges"]:
        rendered = ", ".join(f"u{s}->u{d}" for s, d in dag["edges"])
        lines.append(f"  {rendered}")
    pairs = info["equivalence_pairs"]
    lines.append(
        f"equivalence (no-path) pairs: {len(pairs)}"
        + (
            "  " + ", ".join(f"(u{a},u{b})" for a, b in pairs)
            if pairs
            else ""
        )
    )
    sce = info["sce"]
    lines.append(
        f"SCE occurrence: {sce['occurrence']:.0%} of pattern vertices,"
        f" cluster share {sce['cluster_ratio']:.0%}"
        f" ({sce['sce_pairs']} pairs, {sce['cluster_pairs']} cluster-supplied)"
    )
    physical = info.get("physical")
    if physical:
        lines.append("")
        lines.append(
            f"physical plan: {physical['num_ops']} extend ops,"
            f" {physical['num_specs']} interned candidate specs,"
            f" compiled in {physical['compile_seconds']:.4f} s"
        )
        for op in physical["ops"]:
            lines.append(
                f"  op {op['position']:>2}: extend u{op['vertex']}"
                f" spec#{op['spec']}"
                f" constraints={op['constraints']}"
                f" negations={op['negations']}"
                + (
                    f" pool={op['static_pool']}"
                    if op["static_pool"] is not None
                    else ""
                )
                + (
                    f"  [{op['restrictions']} restriction(s)]"
                    if op["restrictions"]
                    else ""
                )
            )
            for f in op["filters"]:
                lines.append(
                    f"        row filter: >= {f['k']} in {f['cluster']}"
                    f" {f['direction']}, admits {f['admitted']} of"
                    f" {f['rows']} rows"
                )
        counting = physical.get("counting")
        if counting:
            lines.append(
                f"exact-count strategy: {counting['strategy']}:"
                f" {counting['split_suffixes']} of {counting['suffixes']}"
                f" suffixes split into {counting['regions']} regions"
            )
    if not info["has_actuals"]:
        lines.append(
            "(supply --report RUN.json from a --profile run to compare"
            " estimated vs. actual candidates)"
        )
    return "\n".join(lines)
