"""Unit tests for SCE-factorized counting."""

import pytest

from repro.core import CSCE
from repro.graph import Graph

from conftest import brute_count, make_random_graph


class TestFactorizationCorrectness:
    @pytest.mark.parametrize("variant", ["edge_induced", "vertex_induced", "homomorphic"])
    def test_counts_match_enumeration_randomized(self, variant):
        from repro.graph.sampling import sample_pattern

        for seed in range(6):
            g = make_random_graph(14, 28, num_labels=3, seed=seed)
            try:
                p = sample_pattern(g, 4, rng=seed)
            except Exception:
                continue
            engine = CSCE(g)
            counted = engine.match(p, variant, count_only=True).count
            enumerated = engine.match(p, variant).count
            assert counted == enumerated

    def test_star_pattern_factorizes(self):
        # Data: hub with 10 spokes; pattern: hub with 3 spokes of distinct
        # labels -> leaves are independent, counts multiply.
        g = Graph()
        labels = ["hub"] + ["x", "y", "z"] * 3
        g.add_vertices(labels)
        for i in range(1, 10):
            g.add_edge(0, i)
        p = Graph()
        p.add_vertices(["hub", "x", "y", "z"])
        for i in range(1, 4):
            p.add_edge(0, i)
        engine = CSCE(g)
        result = engine.match(p, "edge_induced", count_only=True)
        assert result.count == 27  # 3 choices per distinctly-labeled leaf
        assert result.stats["factorizations"] > 0

    def test_same_label_leaves_not_overcounted(self):
        # Leaves share a label: naive factorization would give 3 * 3 = 9,
        # the injective truth is 3 * 2 = 6.
        g = Graph()
        g.add_vertices(["hub", "x", "x", "x"])
        for i in range(1, 4):
            g.add_edge(0, i)
        p = Graph()
        p.add_vertices(["hub", "x", "x"])
        p.add_edge(0, 1)
        p.add_edge(0, 2)
        result = CSCE(g).match(p, "edge_induced", count_only=True)
        assert result.count == 6

    def test_same_label_leaves_factorize_under_homomorphism(self):
        g = Graph()
        g.add_vertices(["hub", "x", "x", "x"])
        for i in range(1, 4):
            g.add_edge(0, i)
        p = Graph()
        p.add_vertices(["hub", "x", "x"])
        p.add_edge(0, 1)
        p.add_edge(0, 2)
        result = CSCE(g).match(p, "homomorphic", count_only=True)
        assert result.count == 9  # repeats allowed: 3 * 3
        assert result.stats["factorizations"] > 0

    def test_group_memo_reuses_region_counts(self):
        # Two hubs each with private leaves; pattern = path hub-bridge-hub
        # with a leaf on each hub. The leaf regions repeat across hub
        # mappings, so the group memo must hit.
        g = Graph()
        g.add_vertices(["h", "h", "b", "l", "l", "l", "l"])
        g.add_edge(0, 2)
        g.add_edge(1, 2)
        g.add_edge(0, 3)
        g.add_edge(0, 4)
        g.add_edge(1, 5)
        g.add_edge(1, 6)
        p = Graph()
        p.add_vertices(["h", "b", "l"])
        p.add_edge(0, 1)
        p.add_edge(0, 2)
        result = CSCE(g).match(p, "edge_induced", count_only=True)
        assert result.count == 4  # two hubs x two leaves each
        assert result.count == CSCE(g).match(p, "edge_induced").count


    @pytest.mark.parametrize("memo_limit", [0, 1])
    def test_memo_limit_bounds_the_region_memo(self, memo_limit):
        from repro.engine import MatchOptions
        from repro.engine.counting import FactorizedCounter

        g = make_random_graph(12, 30, seed=4)
        p = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        physical = CSCE(g).session.compile(p, "homomorphic").physical
        unbounded = FactorizedCounter(physical, MatchOptions(count_only=True))
        assert unbounded.count() == brute_count(g, p, "homomorphic")
        assert len(unbounded.runtime.computer.region_memo) > 1
        counter = FactorizedCounter(
            physical, MatchOptions(count_only=True, memo_limit=memo_limit)
        )
        assert counter.count() == brute_count(g, p, "homomorphic")
        assert counter.runtime.factorizations > 0
        assert len(counter.runtime.computer.region_memo) == memo_limit


class TestDisconnectedPatterns:
    def test_disconnected_pattern_counts(self):
        g = Graph()
        g.add_vertices(["a", "a", "b", "b"])
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        p = Graph()
        p.add_vertices(["a", "a", "b", "b"])
        p.add_edge(0, 1)
        p.add_edge(2, 3)
        engine = CSCE(g)
        for variant in ("edge_induced", "homomorphic"):
            counted = engine.match(p, variant, count_only=True).count
            assert counted == brute_count(g, p, variant)

    def test_two_component_pattern_factorizes(self):
        g = Graph()
        g.add_vertices(["a", "a", "b", "b", "b"])
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        g.add_edge(3, 4)
        p = Graph()
        p.add_vertices(["a", "a", "b", "b"])
        p.add_edge(0, 1)
        p.add_edge(2, 3)
        result = CSCE(g).match(p, "edge_induced", count_only=True)
        # a-a edge: 2 mappings; b-b edge: 4 mappings (two edges, both dirs).
        assert result.count == 8
        assert result.stats["factorizations"] > 0


class TestVertexInducedCounting:
    def test_negation_dependencies_respected(self):
        # Path data graph; pattern path of 3. Vertex-induced requires the
        # two ends to be non-adjacent, which couples them through negation.
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        p = Graph.from_edges(3, [(0, 1), (1, 2)])
        engine = CSCE(g)
        counted = engine.match(p, "vertex_induced", count_only=True).count
        assert counted == brute_count(g, p, "vertex_induced")
        assert counted == 8  # C4: each induced P3 once per center/direction

    def test_clique_pattern_equal_counts_both_induced_variants(self):
        g = make_random_graph(10, 25, seed=3)
        tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        engine = CSCE(g)
        assert (
            engine.match(tri, "edge_induced", count_only=True).count
            == engine.match(tri, "vertex_induced", count_only=True).count
        )


class TestRegionFrontier:
    def test_frontier_getter_reads_the_frontier_images(self):
        # The compiled getter of every region the counter can key must
        # read exactly the images of the region's sorted dependency
        # frontier (the outside priors its ops name).
        import random

        from repro.graph.patterns import CATALOG

        engine = CSCE(make_random_graph(40, 120, num_labels=2, seed=8))
        rng = random.Random(2)
        sizes = set()
        for name in sorted(CATALOG):
            for variant in ("homomorphic", "edge_induced"):
                physical = engine.session.compile(CATALOG[name](), variant).physical
                plan, table = physical.logical, physical.regions
                n = len(physical.ops)
                assignment = rng.sample(range(1000), n)
                for k in range(n):
                    for group in table.groups(tuple(range(k, n))):
                        members = {plan.order[p] for p in group}
                        frontier = sorted(
                            {
                                prior
                                for p in group
                                for prior in plan.memo_priors[p]
                                if prior not in members
                            }
                        )
                        images = tuple(assignment[v] for v in frontier)
                        getter, _ = table.frontier(group)
                        key = getter(assignment)
                        if len(frontier) == 1:
                            key = (key,)
                        assert key == images, (name, variant, group)
                        sizes.add(min(len(frontier), 2))
        assert sizes == {0, 1, 2}


class TestRegionProgram:
    def _spy(self, monkeypatch):
        from repro.engine.physical import RegionTable

        built = []
        compile_program = RegionTable._compile

        def spy(table, use_sce):
            built.append(compile_program(table, use_sce))
            return built[-1]

        monkeypatch.setattr(RegionTable, "_compile", spy)
        return built

    def test_program_is_built_once_per_plan(self, monkeypatch):
        # The region program is compiled on the first exact count and
        # kept with the session's plan: the second count reuses it.
        built = self._spy(monkeypatch)
        engine = CSCE(make_random_graph(30, 80, num_labels=1, seed=5))
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        first = engine.match(star, "homomorphic", count_only=True)
        second = engine.match(star, "homomorphic", count_only=True)
        assert first.count == second.count
        assert first.stats["factorizations"] > 0
        assert len(built) == 1
        physical = engine.session.compile(star, "homomorphic").physical
        assert physical.regions.program(True) is built[0]

    def test_frame_machine_plan_builds_no_program(self, monkeypatch):
        # An unlabeled injective plan never splits, so its count runs on
        # the frame machine and no program is compiled.
        built = self._spy(monkeypatch)
        engine = CSCE(make_random_graph(30, 80, num_labels=1, seed=5))
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        result = engine.match(star, "edge_induced", count_only=True)
        assert result.count == engine.match(star, "edge_induced").count > 0
        assert result.stats["factorizations"] == 0
        physical = engine.session.compile(star, "edge_induced").physical
        assert not physical.regions.factorizes
        assert built == []
