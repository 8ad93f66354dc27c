"""Seeded inputs for the benchmark workloads.

Everything the matcher receives is built here: data graphs, query
patterns, and the continuous update stream. The generators live in the
benchmark, not in ``repro.datasets``, so that a change to the library
cannot silently change the inputs.

A query workload is a fixed *catalog* (a stand-in dataset and a pattern
suite, each from its own fixed seed, as the paper's datasets and pattern
suites are fixed) whose queries the workload seed puts in a fresh order,
so counts are the same for every seed and runs on different seeds
measure the same work (see ``make_inputs``). Drawing the patterns from
the seed instead moved ops/s by 15% (inter-quartile range over median,
dense-hom), because a run holds only ~120 queries of a heavy-tailed cost
distribution.

The continuous workload's update stream is drawn from the seed: its
~1400 updates per run average out.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

DENSE_VARIANTS = {"dip-dense-edge": "edge_induced", "dip-dense-hom": "homomorphic"}
ROAD_VARIANTS = ("edge_induced", "vertex_induced")
WORKLOADS = ("dip-dense-edge", "dip-dense-hom", "road-sparse-capped", "dip-continuous")

# Fixed seeds of the stand-in datasets (the registry's DIP and RoadCA
# seeds) and of the pattern suites drawn from them.
DIP_DATASET_SEED = 101
ROAD_DATASET_SEED = 105
CATALOG_SEED = 7
ROAD_EXACT_SEED = 8


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark scale."""

    dip_dense_vertices: int
    dense_pattern_vertices: int
    dense_min_edges: int
    dense_patterns: int
    road_side: int
    road_sizes: tuple[int, ...]
    road_patterns: int
    road_caps: tuple[tuple[str, int], ...]
    road_exact_sizes: tuple[int, ...]
    road_exact_cycles: int
    road_exact_cap: int
    dip_cont_vertices: int
    cont_query_vertices: int
    cont_updates: int
    trace_ops: tuple[tuple[str, int], ...]


SCALES = {
    "full": Scale(
        dip_dense_vertices=42,
        dense_pattern_vertices=8,
        dense_min_edges=17,
        dense_patterns=64,
        road_side=55,
        road_sizes=tuple(range(8, 13)),
        road_patterns=100,
        # Vertex-induced queries cost ~50x more per embedding (negation
        # probes, no memo hits), so each half gets the cap that makes its
        # queries take about as long as the other half's; with one cap the
        # halves form two latency modes and the median sits between them.
        road_caps=(("edge_induced", 1000), ("vertex_induced", 20)),
        # Three patterns with three independent cycles: 71/51, 27/20 and
        # 8/2 embeddings (edge-/vertex-induced), each exhaustive search
        # about 0.1 s of CPU on a shared 2-core x86-64 machine.
        road_exact_sizes=(8, 9, 10),
        road_exact_cycles=3,
        road_exact_cap=1000,
        dip_cont_vertices=300,
        cont_query_vertices=4,
        cont_updates=20000,
        trace_ops=(
            ("dip-dense-edge", 24),
            ("dip-dense-hom", 24),
            ("road-sparse-capped", 200),
            ("dip-continuous", 400),
        ),
    ),
    "tiny": Scale(
        dip_dense_vertices=20,
        dense_pattern_vertices=6,
        dense_min_edges=8,
        dense_patterns=4,
        road_side=12,
        road_sizes=(6, 7),
        road_patterns=4,
        road_caps=(("edge_induced", 50), ("vertex_induced", 10)),
        road_exact_sizes=(6,),
        road_exact_cycles=2,
        road_exact_cap=1000,
        dip_cont_vertices=40,
        cont_query_vertices=4,
        cont_updates=200,
        trace_ops=(
            ("dip-dense-edge", 4),
            ("dip-dense-hom", 4),
            ("road-sparse-capped", 8),
            ("dip-continuous", 20),
        ),
    ),
}

Edges = list[tuple[int, int]]
Pattern = tuple[int, Edges]


# ----------------------------------------------------------------------
# Data graphs (undirected, unlabeled edge lists over vertices 0..n-1)
# ----------------------------------------------------------------------
def power_law_edges(n: int, per_vertex: int, seed: int) -> Edges:
    """Preferential attachment: each new vertex links to ``per_vertex``
    endpoints drawn proportionally to degree (the DIP stand-in's shape)."""
    rng = random.Random(seed)
    core = per_vertex + 1
    edges = [(a, b) for a in range(core) for b in range(a + 1, core)]
    pool = [v for edge in edges for v in edge]
    for v in range(core, n):
        targets: set[int] = set()
        while len(targets) < per_vertex:
            targets.add(rng.choice(pool))
        for t in sorted(targets):
            edges.append((t, v))
            pool.extend((v, t))
    return edges


def grid_edges(side: int, seed: int) -> Edges:
    """A lattice with ~30% of its edges dropped and ~5% diagonal
    shortcuts: average degree near RoadCA's 2.8."""
    rng = random.Random(seed)
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side and rng.random() > 0.3:
                edges.append((v, v + 1))
            if r + 1 < side and rng.random() > 0.3:
                edges.append((v, v + side))
            if r + 1 < side and c + 1 < side and rng.random() < 0.05:
                edges.append((v, v + side + 1))
    return edges


def relabeled(n: int, edges: Edges, rng: random.Random) -> Edges:
    """The same graph under a random vertex numbering, edges in canonical
    ``(low, high)`` form and sorted."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges)


def adjacency(n: int, edges: Edges) -> list[list[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return [sorted(s) for s in adj]


# ----------------------------------------------------------------------
# Pattern sampling
# ----------------------------------------------------------------------
def walk_vertices(adj, size: int, rng: random.Random) -> list[int] | None:
    """``size`` distinct vertices collected by a random walk that jumps
    back into the sample one step in five (compact, dense samples)."""
    current = rng.randrange(len(adj))
    collected = [current]
    member = {current}
    for _ in range(size * 200):
        if len(collected) == size:
            return collected
        if not adj[current]:
            return None
        nxt = rng.choice(adj[current])
        if nxt not in member:
            member.add(nxt)
            collected.append(nxt)
        current = nxt if rng.random() < 0.8 else rng.choice(collected)
    return None


def sample_induced(adj, size: int, rng: random.Random, accept) -> Pattern:
    """An induced subgraph on walked vertices that ``accept`` takes."""
    while True:
        vertices = walk_vertices(adj, size, rng)
        if vertices is None:
            continue
        local = {v: i for i, v in enumerate(vertices)}
        edges = sorted(
            (local[a], local[b])
            for a in vertices
            for b in adj[a]
            if b in local and local[a] < local[b]
        )
        if accept(edges):
            return size, edges


# ----------------------------------------------------------------------
# Workload inputs
# ----------------------------------------------------------------------
@dataclass
class QueryInputs:
    """A data graph plus the queries a workload cycles through in order:
    query ``j`` is ``patterns[j]`` under ``variants[j]`` with embedding
    cap ``caps[j]`` (``None``: exact count); it is query ``origin[j]`` of
    the catalog it was drawn from."""

    n: int
    edges: Edges
    patterns: list[Pattern]
    variants: list[str]
    caps: list[int | None]
    origin: list[int]

    def shuffled(self, seed: int) -> QueryInputs:
        """The same queries in a seeded order."""
        order = list(range(len(self.patterns)))
        random.Random(seed).shuffle(order)
        return QueryInputs(
            self.n,
            self.edges,
            [self.patterns[j] for j in order],
            [self.variants[j] for j in order],
            [self.caps[j] for j in order],
            [self.origin[j] for j in order],
        )


@dataclass
class ContinuousInputs:
    """A data graph, the standing query, and the update stream."""

    n: int
    edges: Edges
    query: Pattern
    updates: list[tuple[str, int, int]]


def dense_catalog(scale: Scale, variant: str) -> QueryInputs:
    """The DIP stand-in and its dense-pattern suite (shared by both dense
    workloads; only the variant differs)."""
    n = scale.dip_dense_vertices
    edges = power_law_edges(n, 4, DIP_DATASET_SEED)
    adj = adjacency(n, edges)
    rng = random.Random(CATALOG_SEED)
    patterns = [
        sample_induced(
            adj,
            scale.dense_pattern_vertices,
            rng,
            lambda e: len(e) >= scale.dense_min_edges,
        )
        for _ in range(scale.dense_patterns)
    ]
    k = len(patterns)
    return QueryInputs(
        n, edges, patterns, [variant] * k, [None] * k, list(range(k))
    )


def road_catalog(scale: Scale) -> QueryInputs:
    """The RoadCA stand-in and a tree-pattern suite, each pattern queried
    once edge-induced and once vertex-induced under its variant's cap.

    The patterns are induced samples that happen to be trees: they embed
    vertex-induced at their sample site and a grid holds many copies, so
    every query reaches its cap instead of exhausting the graph. A count
    that equals the cap cannot show a search that finds too many, so the
    suite ends with a few patterns of ``road_exact_cycles`` independent
    cycles, rare on a lattice, queried in both variants under
    ``road_exact_cap``: their capped counts exhaust the graph and must
    equal the exact totals.
    """
    side = scale.road_side
    n = side * side
    edges = grid_edges(side, ROAD_DATASET_SEED)
    adj = adjacency(n, edges)
    caps = dict(scale.road_caps)
    patterns, variants, cap_list = [], [], []

    def add(pattern: Pattern, cap_of) -> None:
        for variant in ROAD_VARIANTS:
            patterns.append(pattern)
            variants.append(variant)
            cap_list.append(cap_of(variant))

    rng = random.Random(CATALOG_SEED)
    for i in range(scale.road_patterns):
        size = scale.road_sizes[i % len(scale.road_sizes)]
        add(sample_induced(adj, size, rng, lambda e, size=size: len(e) == size - 1),
            caps.get)
    rng = random.Random(ROAD_EXACT_SEED)
    for size in scale.road_exact_sizes:
        min_edges = size - 1 + scale.road_exact_cycles
        add(sample_induced(adj, size, rng, lambda e, m=min_edges: len(e) >= m),
            lambda variant: scale.road_exact_cap)
    return QueryInputs(
        n, edges, patterns, variants, cap_list, list(range(len(patterns)))
    )


def continuous_inputs(seed: int, scale: Scale) -> ContinuousInputs:
    """The DIP stand-in, a path-shaped standing query, and a stationary
    insert/remove stream whose removes are drawn from earlier inserts.

    The standing query is always a 4-vertex path: on an unlabeled graph a
    sampled 4-5-vertex query varies only in shape, and a star or a
    5-vertex query costs 2-10x more per update.
    """
    rng = random.Random(seed)
    n = scale.dip_cont_vertices
    edges = relabeled(n, power_law_edges(n, 4, DIP_DATASET_SEED), rng)
    k = scale.cont_query_vertices
    order = rng.sample(range(k), k)
    query = (k, sorted((min(a, b), max(a, b)) for a, b in zip(order, order[1:])))
    present = set(edges)
    inserted: Edges = []
    updates: list[tuple[str, int, int]] = []
    for _ in range(scale.cont_updates):
        if inserted and rng.random() < 0.5:
            edge = inserted.pop(rng.randrange(len(inserted)))
            present.discard(edge)
            updates.append(("remove", *edge))
            continue
        while True:
            a, b = rng.randrange(n), rng.randrange(n)
            edge = (min(a, b), max(a, b))
            if a != b and edge not in present:
                break
        present.add(edge)
        inserted.append(edge)
        updates.append(("insert", *edge))
    return ContinuousInputs(n, edges, query, updates)


def catalog(workload: str, scale: Scale) -> QueryInputs:
    if workload in DENSE_VARIANTS:
        return dense_catalog(scale, DENSE_VARIANTS[workload])
    if workload == "road-sparse-capped":
        return road_catalog(scale)
    raise ValueError(f"{workload!r} has no query catalog")


def make_inputs(workload: str, seed: int, scale: Scale):
    if workload == "dip-continuous":
        return continuous_inputs(seed, scale)
    # The seed shuffles the order of a fixed query suite. Vertex numbering
    # decides candidate orders and plan tie-breaks, and so the work: a
    # capped search stops at its cap, so where it starts decides its cost
    # (renumbering the road graph moved a run's ops/s by 30%, inter-
    # quartile range over median, and single queries by 40%), and even
    # exact dense counts moved (renumbering per seed: dense-hom ops/s
    # 0.10 and tail 0.18 over five seeds; shuffling: 0.035 and 0.049).
    return catalog(workload, scale).shuffled(seed)


def digest(value) -> str:
    """A short stable fingerprint of generated inputs."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def catalog_digest(workload: str, scale: Scale) -> str:
    """Pins committed counts to the inputs they were computed from, up to
    the seed's query order or renumbering (counts do not depend on
    them). The variant is left out so the two dense workloads share one
    digest."""
    if workload == "dip-continuous":
        n = scale.dip_cont_vertices
        base = power_law_edges(n, 4, DIP_DATASET_SEED)
        return digest((n, base, scale.cont_query_vertices))
    inputs = catalog(workload, scale)
    return digest((inputs.n, inputs.edges, inputs.patterns, inputs.caps))
