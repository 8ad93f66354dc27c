"""Greatest-Constraint-First ordering (Section VI).

RI's three counting rules (Eq. 1) pick the next pattern vertex that is most
constrained by / most constraining on the vertices already ordered. The
paper's improvement breaks RI's frequent ties with data-graph knowledge:
the CCSR cluster sizes of the edges involved (Eq. 2) — smaller clusters mean
fewer candidates, so the tied vertex with the smallest relevant cluster wins.
"""

from __future__ import annotations

from typing import Sequence

from repro.ccsr.store import TaskClusters
from repro.errors import PlanError
from repro.graph.model import Graph

_BIG = float("inf")


def edge_cluster_size(
    task_clusters: TaskClusters | None, pattern: Graph, a: int, b: int
) -> float:
    """|I_C| of the cluster(s) of the pattern edge(s) between ``a`` and
    ``b`` — the paper's ``|I_C(u_a, u_b)|``. Returns 0 when some edge has no
    cluster (no candidates at all) and +inf when the pair has no edge or no
    data-graph statistics are available."""
    if task_clusters is None:
        return _BIG
    sizes = []
    for edge in pattern.edges_between(a, b):
        cluster = task_clusters.edge_clusters.get(edge)
        sizes.append(0 if cluster is None else cluster.num_entries)
    return min(sizes) if sizes else _BIG


def _min_incident_cluster_size(
    task_clusters: TaskClusters | None, pattern: Graph, v: int
) -> float:
    """min |alpha_i| over clusters of edges incident to ``v`` (first-vertex
    tie-break)."""
    if task_clusters is None:
        return _BIG
    sizes = [
        0 if task_clusters.edge_clusters.get(e) is None
        else task_clusters.edge_clusters[e].num_entries
        for e in pattern.incident_edges(v)
    ]
    return min(sizes) if sizes else _BIG


def gcf_order(
    pattern: Graph,
    task_clusters: TaskClusters | None = None,
    use_cluster_tiebreak: bool = True,
    rationale: list | None = None,
    prefix: Sequence[int] = (),
) -> list[int]:
    """Compute a matching order with GCF.

    ``prefix`` fixes the first positions of the order (a pinned run's
    seed vertices, so that its search starts at the pin); GCF's rules
    choose the remaining vertices as usual.

    With ``task_clusters`` and ``use_cluster_tiebreak``, ties on RI's rules
    are broken by the minimum relevant cluster size (Eq. 2); the final
    tie-break is the lowest vertex id, which keeps plans deterministic
    (where RI picks randomly).

    When ``rationale`` is a list, one entry per chosen vertex is appended
    explaining the choice — the RI rule-set sizes (``|T1|``/``|T2|``/
    ``|T3|``) and the cluster tie-break values that won — for plan spans
    and run-reports (the candidate-order rationale).
    """
    n = pattern.num_vertices
    if n == 0:
        raise PlanError("cannot order an empty pattern")
    if len(set(prefix)) != len(prefix) or not all(0 <= v < n for v in prefix):
        raise PlanError(
            f"order prefix {list(prefix)} does not name distinct vertices"
            f" of a {n}-vertex pattern"
        )
    clusters = task_clusters if use_cluster_tiebreak else None
    neighbor_sets = [set(pattern.neighbors(v)) for v in range(n)]

    # --- first vertex: highest degree, ties by smallest incident cluster.
    def first_key(v: int):
        return (
            -pattern.degree(v),
            _min_incident_cluster_size(clusters, pattern, v),
            v,
        )

    if prefix:
        order = list(prefix)
        if rationale is not None:
            rationale.extend({"vertex": v, "rule": "prefix"} for v in order)
    else:
        order = [min(range(n), key=first_key)]
        if rationale is not None:
            first = order[0]
            rationale.append(
                {
                    "vertex": first,
                    "rule": "first",
                    "degree": pattern.degree(first),
                    "min_incident_cluster": _finite(
                        _min_incident_cluster_size(clusters, pattern, first)
                    ),
                }
            )
    chosen = set(order)

    while len(order) < n:
        best = None
        best_key = None
        for u_x in range(n):
            if u_x in chosen:
                continue
            # Eq. 1 — the three RI rule sets.
            t1 = neighbor_sets[u_x] & chosen
            t2 = set()
            t3 = set()
            for u_j in neighbor_sets[u_x] - chosen:
                if u_j == u_x:
                    continue
                if neighbor_sets[u_j] & chosen:
                    t2.add(u_j)
                else:
                    t3.add(u_j)
            # Eq. 2 — cluster-size tie-breaks, one per rule.
            omega1 = min(
                (edge_cluster_size(clusters, pattern, u_i, u_x) for u_i in t1),
                default=_BIG,
            )
            omega2 = min(
                (edge_cluster_size(clusters, pattern, u_x, u_j) for u_j in t2),
                default=_BIG,
            )
            omega3 = min(
                (edge_cluster_size(clusters, pattern, u_x, u_j) for u_j in t3),
                default=_BIG,
            )
            key = (-len(t1), -len(t2), -len(t3), omega1, omega2, omega3, u_x)
            if best_key is None or key < best_key:
                best, best_key = u_x, key
        order.append(best)
        chosen.add(best)
        if rationale is not None and best_key is not None:
            rationale.append(
                {
                    "vertex": best,
                    "rule": "gcf",
                    "t1": -best_key[0],
                    "t2": -best_key[1],
                    "t3": -best_key[2],
                    "omega": [_finite(best_key[3]), _finite(best_key[4]),
                              _finite(best_key[5])],
                }
            )
    return order


def _finite(value: float) -> float | None:
    """Render +inf tie-break values as ``None`` (JSON-safe rationale)."""
    return None if value == _BIG else value


def rapidmatch_order(pattern: Graph, task_clusters: TaskClusters | None = None) -> list[int]:
    """RapidMatch-style ordering: repeatedly pick the vertex connecting the
    most already-ordered vertices (its "nucleus-first" rule), ties broken by
    degree then smallest relation. Used as the RM plan baseline in Fig. 13."""
    n = pattern.num_vertices
    if n == 0:
        raise PlanError("cannot order an empty pattern")
    neighbor_sets = [set(pattern.neighbors(v)) for v in range(n)]

    def start_key(v: int):
        return (-pattern.degree(v), _min_incident_cluster_size(task_clusters, pattern, v), v)

    order = [min(range(n), key=start_key)]
    chosen = set(order)
    while len(order) < n:
        def key(v: int):
            backward = len(neighbor_sets[v] & chosen)
            return (
                -backward,
                -pattern.degree(v),
                _min_incident_cluster_size(task_clusters, pattern, v),
                v,
            )

        best = min((v for v in range(n) if v not in chosen), key=key)
        order.append(best)
        chosen.add(best)
    return order


def validate_order(pattern: Graph, order: Sequence[int]) -> None:
    """Raise :class:`PlanError` unless ``order`` is a permutation of the
    pattern's vertices."""
    if sorted(order) != list(range(pattern.num_vertices)):
        raise PlanError(
            f"order {list(order)} is not a permutation of"
            f" 0..{pattern.num_vertices - 1}"
        )
