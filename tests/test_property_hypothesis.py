"""Property-based tests (hypothesis) on core data structures and invariants."""

import os
import tempfile

import hypothesis.strategies as st
from hypothesis import HealthCheck, example, given, settings

from repro.ccsr import CCSRStore
from repro.ccsr.io import load_store, save_store
from repro.core import (
    CSCE,
    ContinuousMatcher,
    Variant,
    build_dag,
    compute_descendant_sizes,
)
from repro.core.gcf import gcf_order
from repro.core.ldsf import ldsf_order
from repro.engine import (
    MatchOptions,
    Runtime,
    SearchState,
    compile_plan,
    count_capped,
    count_physical,
    execute_physical,
    plan_query,
    stream,
)
from repro.errors import GraphError
from repro.graph import Graph
from repro.graph.io import format_graph_text, parse_graph_text

from conftest import brute_count, pinned_positions, recording_pinned_plans


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def graphs(
    draw,
    max_vertices: int = 10,
    max_edges: int = 18,
    max_labels: int = 3,
    allow_directed: bool = True,
):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    num_labels = draw(st.integers(min_value=1, max_value=max_labels))
    labels = [draw(st.integers(min_value=0, max_value=num_labels - 1)) for _ in range(n)]
    g = Graph()
    g.add_vertices(labels)
    pair_strategy = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    pairs = draw(st.lists(pair_strategy, max_size=max_edges))
    for a, b in pairs:
        if a == b:
            continue
        directed = draw(st.booleans()) if allow_directed else False
        try:
            g.add_edge(a, b, directed=directed)
        except Exception:
            continue
    return g


@st.composite
def graph_and_pattern(draw):
    g = draw(graphs(max_vertices=8, max_edges=14))
    k = draw(st.integers(min_value=2, max_value=min(4, g.num_vertices)))
    vertices = draw(
        st.permutations(range(g.num_vertices)).map(lambda p: list(p)[:k])
    )
    p = g.induced_subgraph(vertices)
    return g, p


@st.composite
def continuous_streams(draw):
    """A small labelled graph, a connected pattern over the same labels,
    and an update stream over the graph's vertex pairs: ``(a, b,
    directed)`` with ``a != b``, each an insert if that edge is absent at
    that point and a remove otherwise.

    The pattern is a random tree with random labels and directions, or,
    in about half the draws from three vertices on, one whose vertex 0
    has two edges alike in direction and far-end label (one CCSR row, so
    an injective plan filters its candidates by row length). About half
    the updates touch one hub data vertex, so they raise and lower its
    row lengths across such a filter."""
    num_labels = draw(st.integers(min_value=1, max_value=2))
    label = st.integers(min_value=0, max_value=num_labels - 1)
    n = draw(st.integers(min_value=3, max_value=6))
    vertex = st.integers(min_value=0, max_value=n - 1)
    update = st.tuples(vertex, vertex, st.booleans()).filter(
        lambda pair: pair[0] != pair[1]
    )
    g = Graph()
    g.add_vertices([draw(label) for _ in range(n)])
    for a, b, directed in draw(st.lists(update, min_size=2, max_size=12)):
        try:
            g.add_edge(a, b, directed=directed)
        except GraphError:
            continue
    k = draw(st.integers(min_value=2, max_value=4))
    p = Graph()
    labels = [draw(label) for _ in range(k)]
    twin = k > 2 and draw(st.booleans())
    if twin:
        labels[2] = labels[1]
        twin_directed = draw(st.booleans())
    p.add_vertices(labels)
    for v in range(1, k):  # a random tree: connected, k - 1 edges
        if twin and v <= 2:
            p.add_edge(0, v, directed=twin_directed)
            continue
        u = draw(st.integers(min_value=0, max_value=v - 1))
        p.add_edge(u, v, directed=draw(st.booleans()))
    hub = draw(vertex)
    hub_update = st.tuples(vertex, st.booleans(), st.booleans()).filter(
        lambda t: t[0] != hub
    ).map(lambda t: (hub, t[0], t[2]) if t[1] else (t[0], hub, t[2]))
    updates = draw(
        st.lists(st.one_of(update, hub_update), min_size=1, max_size=12)
    )
    return g, p, updates


_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# CCSR invariants
# ---------------------------------------------------------------------------
class TestCCSRProperties:
    @given(graphs())
    @_SETTINGS
    def test_roundtrip(self, g):
        assert CCSRStore(g).to_graph() == g

    @given(graphs())
    @_SETTINGS
    def test_column_entries_twice_edges(self, g):
        store = CCSRStore(g)
        assert store.total_column_entries() == 2 * g.num_edges

    @given(graphs())
    @_SETTINGS
    def test_compressed_rows_bounded(self, g):
        store = CCSRStore(g)
        assert store.total_compressed_row_entries() <= 4 * g.num_edges

    @given(graphs())
    @_SETTINGS
    def test_neighbor_lists_sorted_unique(self, g):
        store = CCSRStore(g)
        for cluster in store.clusters.values():
            cluster.decompress()
            for v in range(store.num_vertices):
                nbrs = cluster.successors(v).tolist()
                assert nbrs == sorted(set(nbrs))


# ---------------------------------------------------------------------------
# I/O invariants
# ---------------------------------------------------------------------------
class TestIOProperties:
    @given(graphs())
    @_SETTINGS
    def test_text_roundtrip(self, g):
        assert parse_graph_text(format_graph_text(g)) == g


# ---------------------------------------------------------------------------
# Planner invariants
# ---------------------------------------------------------------------------
class TestPlannerProperties:
    @given(graph_and_pattern())
    @_SETTINGS
    def test_gcf_order_is_permutation(self, gp):
        _, p = gp
        assert sorted(gcf_order(p)) == list(range(p.num_vertices))

    @given(graph_and_pattern())
    @_SETTINGS
    def test_ldsf_emits_topological_order(self, gp):
        _, p = gp
        order = gcf_order(p)
        dag = build_dag(p, order, Variant.EDGE_INDUCED)
        final = ldsf_order(dag, p, descendant_sizes=compute_descendant_sizes(dag))
        assert dag.is_topological_order(final)

    @given(graph_and_pattern())
    @_SETTINGS
    def test_descendant_sizes_bounded(self, gp):
        _, p = gp
        dag = build_dag(p, gcf_order(p), Variant.EDGE_INDUCED)
        sizes = compute_descendant_sizes(dag)
        assert all(0 <= s < p.num_vertices for s in sizes.values())


# ---------------------------------------------------------------------------
# Matching invariants
# ---------------------------------------------------------------------------
class TestMatchingProperties:
    @given(graph_and_pattern())
    @_SETTINGS
    def test_counts_match_brute_force_all_variants(self, gp):
        g, p = gp
        engine = CSCE(g)
        for variant in ("edge_induced", "vertex_induced", "homomorphic"):
            assert engine.match(p, variant, count_only=True).count == brute_count(
                g, p, variant
            ), variant

    @given(graph_and_pattern())
    @_SETTINGS
    def test_enumeration_equals_counting(self, gp):
        g, p = gp
        engine = CSCE(g)
        for variant in ("edge_induced", "vertex_induced", "homomorphic"):
            assert (
                engine.match(p, variant).count
                == engine.match(p, variant, count_only=True).count
            )

    @given(graph_and_pattern())
    @_SETTINGS
    def test_variant_count_ordering(self, gp):
        g, p = gp
        engine = CSCE(g)
        vi = engine.count(p, "vertex_induced")
        ei = engine.count(p, "edge_induced")
        homo = engine.count(p, "homomorphic")
        assert vi <= ei <= homo

    @given(graph_and_pattern())
    @_SETTINGS
    def test_sce_ablation_invariant(self, gp):
        g, p = gp
        engine = CSCE(g)
        assert (
            engine.match(p, "edge_induced", count_only=True, use_sce=True).count
            == engine.match(p, "edge_induced", count_only=True, use_sce=False).count
        )

    @given(
        graph_and_pattern(),
        st.sampled_from(["edge_induced", "vertex_induced", "homomorphic"]),
        st.booleans(),
        st.data(),
    )
    @settings(_SETTINGS, derandomize=True)
    def test_every_count_path_agrees(self, gp, variant, restricted, data):
        """One input through every count path: the routed count, the
        forced factorized counter, the frame machine's count mode with no
        cap and with a drawn cap, a stream drain, a capped stream's
        checkpoint resumed to the end, and a two-worker pool with and
        without the drawn cap. Count mode and the drain must also leave
        the same counters and frame stack. About half the inputs draw a
        seed pinning one pattern vertex to a data vertex of its label:
        every path then counts the brute-force embeddings through that
        pin, so the run's binding reaches the counter, forked workers and
        checkpoints. Derandomized, so the pool leg runs the same few
        examples on every run."""
        g, p = gp
        engine = CSCE(g)
        restrictions = ((0, 1),) if restricted else ()
        seed = None
        if data.draw(st.booleans(), label="seeded"):
            u = data.draw(
                st.integers(min_value=0, max_value=p.num_vertices - 1),
                label="pinned vertex",
            )
            images = [
                v for v in g.vertices() if g.vertex_label(v) == p.vertex_label(u)
            ]
            seed = {u: data.draw(st.sampled_from(images), label="pin")}
        query = dict(
            count_only=True, restrictions=restrictions or None, seed=seed
        )
        physical = engine.session.compile(
            p, variant, restrictions=restrictions or None
        ).physical
        pins = physical.with_seed(seed, engine.store) if seed else None
        options = MatchOptions(count_only=True, seed=pins)

        def run(cap, emit):
            opts = MatchOptions(count_only=True, max_embeddings=cap, seed=pins)
            runtime = Runtime(opts)
            state = SearchState.fresh(len(physical.ops))
            if emit:
                count = sum(1 for _ in stream(physical, runtime, state))
            else:
                count = count_capped(physical, runtime, state)
            stats = {
                key: runtime.stats()[key]
                for key in (
                    "nodes", "backtracks", "prunes_injective", "prunes_restriction"
                )
            }
            return count, stats, runtime.stop_reason, state.to_payload()

        counted = run(None, emit=False)
        total = counted[0]
        assert total == brute_count(g, p, variant, seed, restrictions)
        assert counted == run(None, emit=True)
        routed = engine.match(p, variant, **query)
        assert routed.count == total
        pooled = engine.match(p, variant, workers=2, **query)
        assert pooled.count == total
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "store.npz")
            save_store(engine.session.store, path)
            loaded = CSCE(load_store(path))
        # A loaded store builds its clusters on the loader's path.
        assert loaded.match(p, variant, **query).count == total
        if not restricted:
            runtime = count_physical(physical, options)
            factorized, stats = runtime.emitted, runtime.stats()
            assert factorized == total
            if not physical.regions.factorizes:
                # Nothing splits: the counter walks the frame machine's tree.
                assert {key: stats[key] for key in counted[1]} == counted[1]
        if total:
            cap = data.draw(st.integers(min_value=1, max_value=total))
            capped = run(cap, emit=False)
            assert capped[0] == cap
            assert capped == run(cap, emit=True)
            capped_pool = engine.match(
                p, variant, workers=2, max_embeddings=cap, **query
            )
            assert capped_pool.count == min(cap, total)
            # Resume leg: the capped stream's checkpoint resumes to the total.
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "ck.json")
                first = engine.match_iter(
                    p, variant, max_embeddings=cap,
                    restrictions=restrictions or None, seed=seed,
                    checkpoint_path=path,
                )
                drained = sum(1 for _ in first)
                assert drained == cap
                if first.stop_reason is None:  # the cap was the last one
                    assert cap == total
                else:
                    resumed = engine.resume(path, max_embeddings=None)
                    rest = sum(1 for _ in resumed)
                    assert drained + rest == resumed.count == total

    @given(continuous_streams())
    @example((
        Graph.from_edges(4, [(0, 3), (3, 2), (1, 3), (2, 0)], directed=True),
        Graph.from_edges(4, [(1, 0), (2, 1), (3, 2)], directed=True),
        # Each edge is removed, then inserted again.
        [(a, b, True) for a, b in [(0, 3), (3, 2), (1, 3), (2, 0)]
         for _ in range(2)],
    ))
    @settings(_SETTINGS, derandomize=True)
    def test_continuous_deltas_agree(self, stream_input):
        """The continuous leg: a drawn insert/remove stream through a
        standing query, edge-induced and homomorphic. The maintained
        total equals brute force after every update. After the stream,
        every cluster the updates patched in place equals its rebuild
        from the graph, row views and admissible sets included, and the
        plan compiled at the last layout change counts what a fresh plan
        counts. Every pin ran on a pin-first plan, its two pinned pattern
        vertices at positions 0 and 1, and each pin-first plan built at
        the last layout change, and each plan in the matcher's table if
        it is valid for the final layout, counts, under every
        label-compatible pin onto every final data edge, what a freshly
        planned one counts under the same binding.

        The example is a directed 4-path whose every delta pins all three
        pattern edges: a candidate memo kept across the switch to the
        next pattern edge's plan miscounts it."""
        g, p, updates = stream_input
        labels = list(g.vertex_labels)
        start = {
            (e.src, e.dst, True) if e.directed
            else (min(e.src, e.dst), max(e.src, e.dst), False)
            for e in g.edges()
        }
        for variant in ("edge_induced", "homomorphic"):
            engine = CSCE(g)
            store = engine.session.store
            matcher = ContinuousMatcher(engine, p, variant)
            edges = set(start)
            layout = store.layout_version
            prefixes = {(e.src, e.dst) for e in p.edges()}

            def compile_all():
                return engine.session.compile(p, variant).physical, {
                    prefix: engine.session.build(
                        p, variant, prefix=prefix
                    ).physical
                    for prefix in prefixes
                }

            standing, pin_first = compile_all()
            with recording_pinned_plans() as pinned_runs:
                for a, b, directed in updates:
                    key = (a, b, True) if directed else (min(a, b), max(a, b), False)
                    if key in edges:
                        matcher.remove(a, b, None, directed)
                        edges.discard(key)
                    else:
                        matcher.insert(a, b, None, directed)
                        edges.add(key)
                    current = Graph()
                    current.add_vertices(labels)
                    for src, dst, is_directed in sorted(edges):
                        current.add_edge(src, dst, directed=is_directed)
                    assert matcher.total == brute_count(current, p, variant)
                    if store.layout_version != layout:
                        layout = store.layout_version
                        standing, pin_first = compile_all()
            for physical, pins in pinned_runs:
                assert pinned_positions(physical, pins) == [0, 1]
            rebuilt = CCSRStore(store.to_graph())
            assert rebuilt.clusters.keys() == store.clusters.keys()
            for key, cluster in store.clusters.items():
                fresh = rebuilt.clusters[key]
                for csr, ref in (
                    (cluster.out_csr, fresh.out_csr),
                    (cluster.in_csr, fresh.in_csr),
                ):
                    if csr is None:
                        assert ref is None
                        continue
                    # The arrays as a reader sees them: updates leave
                    # them as built until a reader folds the changed rows.
                    for got, want in zip(
                        csr.compressed_arrays(), ref.compressed_arrays()
                    ):
                        assert got.tolist() == want.tolist()
                    assert csr._offsets.tolist() == ref._offsets.tolist()
                    if csr.full_offsets is not None:
                        ref.decompress()
                        assert csr.full_offsets.tolist() == ref.full_offsets.tolist()
                    for k, admitted in csr._at_least.items():
                        assert admitted == ref.rows_at_least(k)
                    for v in list(csr._row_sets):
                        assert csr.row(v) == ref.row(v)
            fresh_plan = compile_plan(plan_query(store, p, variant))
            counted = MatchOptions(count_only=True)
            assert (
                execute_physical(standing, counted).count
                == execute_physical(fresh_plan, counted).count
                == matcher.total
            )
            final = store.to_graph()
            built = list(pin_first.items())
            if matcher._layout == store.layout_version:
                built += matcher._plans.items()
            for prefix, cached in built:
                fresh_pinned = compile_plan(
                    plan_query(store, p, variant, prefix=prefix)
                )
                for e in final.edges():
                    for seed in (dict(zip(prefix, (e.src, e.dst))),
                                 dict(zip(prefix, (e.dst, e.src)))):
                        if any(
                            p.vertex_label(u) != labels[v]
                            for u, v in seed.items()
                        ):
                            continue
                        pinned = MatchOptions(
                            count_only=True, seed=cached.with_seed(seed, store)
                        )
                        assert (
                            execute_physical(cached, pinned).count
                            == execute_physical(fresh_pinned, pinned).count
                        )

    @given(graph_and_pattern())
    @_SETTINGS
    def test_induced_pattern_has_at_least_one_induced_match(self, gp):
        g, p = gp
        # p was vertex-induced from g, so at least one embedding exists.
        assert CSCE(g).count(p, "vertex_induced") >= 1


# ---------------------------------------------------------------------------
# Extension invariants: restrictions, seeds, DSL
# ---------------------------------------------------------------------------
class TestExtensionProperties:
    @given(graphs(max_vertices=8, max_edges=14, max_labels=1, allow_directed=False))
    @_SETTINGS
    def test_symmetry_restrictions_partition_orbits(self, g):
        """Restricted count x |Aut(P)| == unrestricted count, for every
        unlabeled pattern sampled as an induced subgraph of g."""
        from repro.baselines.symmetry import symmetry_restrictions

        if g.num_vertices < 3:
            return
        p = g.induced_subgraph([0, 1, 2])
        restrictions, group_size = symmetry_restrictions(p)
        engine = CSCE(g)
        full = engine.match(p, "edge_induced").count
        restricted = engine.match(
            p, "edge_induced", restrictions=restrictions or None
        ).count
        assert restricted * group_size == full

    @given(graph_and_pattern())
    @_SETTINGS
    def test_seeded_union_covers_full_enumeration(self, gp):
        """Summing seeded runs over all first-vertex images of its label
        reproduces the unseeded enumeration exactly."""
        g, p = gp
        engine = CSCE(g)
        full = engine.match(p, "edge_induced")
        keys = {tuple(sorted(m.items())) for m in full.embeddings}
        u = 0
        seeded_keys = set()
        for v in range(g.num_vertices):
            if g.vertex_label(v) != p.vertex_label(u):
                continue  # a seed must keep the pattern vertex's label
            part = engine.match(p, "edge_induced", seed={u: v})
            for m in part.embeddings:
                assert m[u] == v
                seeded_keys.add(tuple(sorted(m.items())))
        assert seeded_keys == keys

    @given(graphs(max_vertices=6, max_edges=10, max_labels=2))
    @_SETTINGS
    def test_dsl_roundtrip(self, g):
        """Round trip holds up to the name binding (parsing renumbers
        vertices in first-appearance order)."""
        from repro.graph.dsl import format_pattern, parse_pattern

        rendered = format_pattern(g)
        parsed, bindings = parse_pattern(rendered)
        mapping = {v: bindings[f"v{v}"] for v in g.vertices()}
        assert sorted(mapping.values()) == list(parsed.vertices())
        for v in g.vertices():
            assert parsed.vertex_label(mapping[v]) == g.vertex_label(v)

        def canon(graph, translate):
            out = set()
            for e in graph.edges():
                src, dst = translate(e.src), translate(e.dst)
                if e.directed:
                    out.add((src, dst, e.label, True))
                else:
                    out.add((min(src, dst), max(src, dst), e.label, False))
            return out

        assert canon(g, lambda v: mapping[v]) == canon(parsed, lambda v: v)


# ---------------------------------------------------------------------------
# Multi-worker merge invariants
# ---------------------------------------------------------------------------
_COUNTER_KEYS = st.sampled_from(
    ["nodes", "backtracks", "ccsr.bytes_read", "memo_hits", "heartbeats"]
)
counter_snapshots = st.dictionaries(
    keys=_COUNTER_KEYS,
    values=st.integers(min_value=0, max_value=10**9),
    max_size=5,
)


class TestMergeProperties:
    @given(counter_snapshots, counter_snapshots, counter_snapshots)
    @_SETTINGS
    def test_merge_counters_associative(self, a, b, c):
        from repro.obs import merge_counters

        assert merge_counters(merge_counters(a, b), c) == merge_counters(
            a, merge_counters(b, c)
        )

    @given(counter_snapshots, counter_snapshots)
    @_SETTINGS
    def test_merge_counters_commutative(self, a, b):
        from repro.obs import merge_counters

        assert merge_counters(a, b) == merge_counters(b, a)

    @given(counter_snapshots)
    @_SETTINGS
    def test_merge_counters_identity(self, a):
        from repro.obs import merge_counters

        assert merge_counters(a, {}) == merge_counters(a) == {
            k: v for k, v in a.items()
        }

    @given(st.lists(counter_snapshots, min_size=1, max_size=6))
    @_SETTINGS
    def test_sharded_merge_equals_single_fold(self, parts):
        """Merging per-shard snapshots in any grouping equals the
        single-process fold of the same workload (exact integer sums)."""
        from repro.obs import merge_counters
        from repro.obs.counters import CounterRegistry

        single = CounterRegistry()
        for part in parts:
            single.merge(part)
        merged = merge_counters(*parts)
        assert merged == {
            k: v for k, v in single.snapshot().items() if k in merged
        }
        mid = len(parts) // 2
        regrouped = merge_counters(
            merge_counters(*parts[:mid]), merge_counters(*parts[mid:])
        )
        assert regrouped == merged

    @given(
        st.lists(
            st.integers(min_value=1, max_value=6), min_size=1, max_size=5
        ),
        st.data(),
    )
    @_SETTINGS
    def test_search_state_fraction_bounded_and_monotone(self, sizes, data):
        from repro.obs import search_state_fraction

        values = [list(range(size)) for size in sizes]
        index = [
            data.draw(st.integers(min_value=0, max_value=size))
            for size in sizes
        ]
        fraction = search_state_fraction(values, index)
        assert 0.0 <= fraction <= 1.0
        # Advancing the deepest cursor never decreases the estimate.
        if index[-1] < sizes[-1]:
            advanced = list(index)
            advanced[-1] += 1
            assert search_state_fraction(values, advanced) >= fraction
