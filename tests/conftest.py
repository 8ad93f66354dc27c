"""Shared fixtures and oracle implementations for the test suite.

The oracles are deliberately independent of the library's matching code:
``brute_count`` enumerates raw tuples with itertools, and the networkx
helpers delegate to ``GraphMatcher``. Any agreement between CSCE, the
baselines, and these oracles is therefore meaningful.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.engine import session as session_module
from repro.engine.physical import PhysicalPlan
from repro.graph.model import Graph
from repro.testing import faults


# ---------------------------------------------------------------------------
# Leak guard
# ---------------------------------------------------------------------------
@pytest.fixture(autouse=True)
def _no_leaked_global_state():
    """Fail the test that leaves tracemalloc running (when it was off
    before) or a fault injector installed: either slows or skews every
    later test in the process. The leak is undone before failing, so the
    failure stays with the test that caused it."""
    tracing = tracemalloc.is_tracing()
    yield
    leaks = []
    if not tracing and tracemalloc.is_tracing():
        tracemalloc.stop()
        leaks.append("tracemalloc left running")
    if faults.ACTIVE is not None:
        faults.ACTIVE.uninstall()
        leaks.append("a FaultInjector left installed")
    if leaks:
        pytest.fail("test leaked " + " and ".join(leaks), pytrace=False)


# ---------------------------------------------------------------------------
# Reference graphs
# ---------------------------------------------------------------------------
@pytest.fixture
def triangle() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def square_with_diagonal() -> Graph:
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


@pytest.fixture
def path3() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def make_fig1_graph() -> Graph:
    """An approximation of the paper's Fig. 1 data graph G.

    Ten vertices labeled A/B/C/D with a mix of directed and undirected
    edges, built so that the worked examples hold: v1 has two outgoing
    B-neighbors (v2, v6), v3 and v10 are syntactically equivalent
    C-neighbors of v1, and label-D vertices only connect to label-A ones.
    """
    g = Graph(name="fig1")
    labels = ["A", "B", "C", "A", "B", "B", "D", "A", "B", "C"]
    g.add_vertices(labels)
    for src, dst in [(0, 1), (0, 5), (3, 4), (7, 8)]:
        g.add_edge(src, dst, directed=True)  # A -> B edges
    for src, dst in [(0, 2), (0, 9)]:
        g.add_edge(src, dst)  # A -- C edges (v1-v3, v1-v10)
    for src, dst in [(0, 6), (7, 6)]:
        g.add_edge(src, dst)  # A -- D edges
    return g


@pytest.fixture
def fig1_graph() -> Graph:
    return make_fig1_graph()


def make_random_graph(
    num_vertices: int,
    num_edges: int,
    num_labels: int = 0,
    directed: bool = False,
    edge_labels: int = 0,
    seed: int = 0,
) -> Graph:
    """Uniform random simple graph with optional labels, for oracles."""
    rng = random.Random(seed)
    graph = Graph(name=f"rand-{seed}")
    graph.add_vertices(
        rng.randrange(num_labels) if num_labels else 0 for _ in range(num_vertices)
    )
    attempts = 0
    added = 0
    seen: set[tuple[int, int]] = set()
    while added < num_edges and attempts < num_edges * 20:
        attempts += 1
        a, b = rng.randrange(num_vertices), rng.randrange(num_vertices)
        if a == b:
            continue
        key = (a, b) if directed else (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        label = rng.randrange(edge_labels) if edge_labels else None
        graph.add_edge(a, b, label=label, directed=directed)
        added += 1
    return graph


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------
def _pair_descriptor(graph: Graph, a: int, b: int) -> tuple:
    entries = []
    for e in graph.edges_between(a, b):
        if e.directed:
            entries.append((e.label, "fwd" if (e.src, e.dst) == (a, b) else "rev"))
        else:
            entries.append((e.label, "und"))
    return tuple(sorted(entries, key=repr))


def _edge_maps(graph: Graph, a: int, b: int, e) -> bool:
    """Does pattern edge ``e`` (mapped u->a, v->b) exist in the data?"""
    for d in graph.edges_between(a, b):
        if d.label != e.label or d.directed != e.directed:
            continue
        if d.directed and (d.src, d.dst) != (a, b):
            continue
        return True
    return False


def brute_count(
    graph: Graph,
    pattern: Graph,
    variant: str,
    seed: dict[int, int] | None = None,
    restrictions: tuple[tuple[int, int], ...] = (),
) -> int:
    """Reference count by exhaustive enumeration (tiny inputs only), of
    the embeddings that extend ``seed`` and map each restriction pair
    ``(u, v)`` to ``f(u) < f(v)``."""
    n, total_vertices = pattern.num_vertices, graph.num_vertices
    if variant == "homomorphic":
        candidates = itertools.product(range(total_vertices), repeat=n)
    else:
        candidates = itertools.permutations(range(total_vertices), n)
    count = 0
    for combo in candidates:
        if seed and any(combo[u] != v for u, v in seed.items()):
            continue
        if any(combo[u] >= combo[v] for u, v in restrictions):
            continue
        if any(
            graph.vertex_label(combo[v]) != pattern.vertex_label(v)
            for v in pattern.vertices()
        ):
            continue
        if variant == "vertex_induced":
            ok = all(
                _pair_descriptor(pattern, i, j)
                == _pair_descriptor(graph, combo[i], combo[j])
                for i in range(n)
                for j in range(i + 1, n)
            )
        else:
            ok = all(
                _edge_maps(graph, combo[e.src], combo[e.dst], e)
                for e in pattern.edges()
            )
        if ok:
            count += 1
    return count


def to_networkx(graph: Graph):
    """Undirected unlabeled-edge view for networkx's GraphMatcher."""
    import networkx as nx

    nxg = nx.Graph()
    for v in graph.vertices():
        nxg.add_node(v, label=graph.vertex_label(v))
    for e in graph.edges():
        nxg.add_edge(e.src, e.dst)
    return nxg


def networkx_counts(graph: Graph, pattern: Graph) -> tuple[int, int]:
    """(vertex_induced, edge_induced) counts from networkx GraphMatcher.

    Only valid for undirected graphs without edge labels.
    """
    from networkx.algorithms import isomorphism as iso

    matcher = iso.GraphMatcher(
        to_networkx(graph),
        to_networkx(pattern),
        node_match=iso.categorical_node_match("label", None),
    )
    vertex_induced = sum(1 for _ in matcher.subgraph_isomorphisms_iter())
    edge_induced = sum(1 for _ in matcher.subgraph_monomorphisms_iter())
    return vertex_induced, edge_induced


# ---------------------------------------------------------------------------
# Pinned runs
# ---------------------------------------------------------------------------
@contextmanager
def recording_pinned_plans():
    """Collect a ``(plan, pins)`` pair for every pinned search a
    continuous delta runs while the context is open: each the plan it
    runs and the binding it runs it under."""
    from repro.core import continuous

    plans: list[tuple[PhysicalPlan, dict[int, int]]] = []

    def recording(search):
        def recorded(physical, runtime, *args):
            plans.append((physical, runtime.computer.pins))
            return search(physical, runtime, *args)

        return recorded

    with mock.patch.object(
        continuous, "count_capped", recording(continuous.count_capped)
    ), mock.patch.object(continuous, "stream", recording(continuous.stream)):
        yield plans


def pinned_positions(physical: PhysicalPlan, pins: dict[int, int]) -> list[int]:
    """The order positions a binding pins in a plan."""
    return [op.pos for op in physical.ops if op.u in pins]


@contextmanager
def recording_planning():
    """Record the order prefix of every :func:`plan_query` call a session
    makes, and every :meth:`MatchSession.compile` call, while the context
    is open: ``.prefixes`` lists one prefix per plan (``()`` for an
    unpinned plan), ``.compiles`` counts the compile calls."""
    calls = SimpleNamespace(prefixes=[], compiles=0)
    plan_query = session_module.plan_query
    compile_query = session_module.MatchSession.compile

    def counted_plan(*args, prefix=(), **kwargs):
        calls.prefixes.append(tuple(prefix))
        return plan_query(*args, prefix=prefix, **kwargs)

    def counted_compile(session, *args, **kwargs):
        calls.compiles += 1
        return compile_query(session, *args, **kwargs)

    with mock.patch.object(session_module, "plan_query", counted_plan), \
            mock.patch.object(
                session_module.MatchSession, "compile", counted_compile
            ):
        yield calls
