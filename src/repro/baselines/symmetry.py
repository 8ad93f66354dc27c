"""Symmetry-breaking matcher — the GraphPi stand-in.

GraphPi (and GraphZero before it) eliminates automorphic redundancy: it
computes the pattern's automorphism group, derives a chain of ordering
restrictions ``f(u) < f(v)`` under which every automorphism orbit of
embeddings has exactly one representative, matches under those
restrictions, and multiplies the result count by the group size.

The optimization cost is dominated by enumerating the automorphism group —
exponential for symmetric unlabeled patterns. That is precisely the paper's
Finding 2: symmetry breaking does not scale to large patterns, which this
implementation reproduces by construction.

Restriction generation uses the orbit-based stabilizer chain of
Grochow & Kellis (the scheme GraphZero/GraphPi build on): repeatedly pick a
vertex in a non-trivial orbit of the current group, require it to map below
every other orbit member, and descend to its stabilizer. Each automorphism
orbit of embeddings then has exactly one representative satisfying all
restrictions.

The restricted search itself runs on the compiled engine: the pattern is
compiled once per (pattern, restrictions) through a private
:class:`~repro.engine.MatchSession` and counted by the iterative physical
executor, so the baseline isolates the *symmetry-breaking strategy* (and
its optimization cost) rather than differences in backtracking machinery.
"""

from __future__ import annotations

import time
from typing import Iterator

from repro.baselines.base import BaselineMatcher, SearchBudget
from repro.core.variants import Variant
from repro.engine.executor import execute_physical
from repro.engine.results import MatchOptions, MatchResult
from repro.engine.session import MatchSession
from repro.errors import VariantError
from repro.graph.algorithms import iter_automorphisms
from repro.graph.model import Graph
from repro.obs import NULL_OBS


def symmetry_restrictions(pattern: Graph) -> tuple[list[tuple[int, int]], int]:
    """Ordering restrictions breaking all automorphisms, and |Aut(P)|.

    Returns ``(restrictions, group_size)`` where each restriction ``(u, v)``
    requires ``f(u) < f(v)``.
    """
    group = [tuple(m[v] for v in pattern.vertices()) for m in iter_automorphisms(pattern)]
    group_size = len(group)
    restrictions: list[tuple[int, int]] = []
    while len(group) > 1:
        # Orbits of the current group.
        orbit_of: dict[int, set[int]] = {}
        for v in pattern.vertices():
            orbit = {p[v] for p in group}
            if len(orbit) > 1:
                orbit_of[v] = orbit
        # Anchor the smallest vertex of the largest orbit below all of its
        # orbit mates, then descend to its stabilizer.
        u = min(orbit_of, key=lambda v: (-len(orbit_of[v]), v))
        for w in sorted(orbit_of[u] - {u}):
            restrictions.append((u, w))
        group = [p for p in group if p[u] == u]
    return restrictions, group_size


class SymmetryBreakingMatcher(BaselineMatcher):
    """Edge-induced counting with automorphism-based symmetry breaking."""

    display_name = "GraphPi"
    supported_variants = frozenset({Variant.EDGE_INDUCED})
    supports_vertex_labels = False
    supports_edge_labels = False
    supports_undirected = True
    supports_directed = False
    max_tested_pattern_size = 7

    def _prepare(self, graph: Graph) -> None:
        self._session = MatchSession(graph)

    def match(
        self,
        pattern: Graph,
        variant: Variant | str = Variant.EDGE_INDUCED,
        count_only: bool = True,
        max_embeddings: int | None = None,
        time_limit: float | None = None,
        restrictions: tuple[tuple[int, int], ...] | None = None,
        obs=None,
    ) -> MatchResult:
        """Count embeddings (symmetry breaking is count-only: the matcher
        never materializes the automorphic copies it skips).

        The result's ``count`` is already multiplied by |Aut(P)| so it
        agrees with engines that do not break symmetry (Section VII-B).
        ``stats`` records the optimization time (``symmetry_seconds``) that
        Finding 2 shows exploding with pattern size. Caller-supplied
        ``restrictions`` are merged with the derived symmetry chain and
        further constrain the restricted search (the |Aut(P)| multiplier is
        unchanged). ``max_embeddings`` is accepted for interface parity but
        ignored: a cap on the *restricted* count has no meaningful
        embedding-count semantics after the group-size multiplication.
        """
        variant = Variant.parse(variant)
        obs = obs or NULL_OBS
        self.check_supported(pattern, variant)
        if not count_only:
            raise VariantError(
                f"{self.display_name} only counts; it skips automorphic"
                " embeddings instead of materializing them"
            )
        optimization_start = time.perf_counter()
        sym_restrictions, group_size = symmetry_restrictions(pattern)
        symmetry_seconds = time.perf_counter() - optimization_start
        combined = tuple(
            dict.fromkeys([*(restrictions or ()), *sym_restrictions])
        ) or None

        with obs.tracer.span(
            "match", engine=self.display_name, variant=variant.value
        ) as span:
            compiled = self._session.compile(
                pattern, variant, restrictions=combined, obs=obs
            )
            result = execute_physical(
                compiled.physical,
                MatchOptions(
                    count_only=True,
                    time_limit=time_limit,
                    obs=obs if obs.enabled else None,
                ),
            )
            span.set("count", result.count * group_size)
        stats = dict(result.stats)
        stats.update(
            symmetry_seconds=symmetry_seconds,
            automorphisms=group_size,
            restrictions=len(combined or ()),
            restricted_count=result.count,
        )
        return MatchResult(
            count=result.count * group_size,
            variant=variant,
            embeddings=None,
            elapsed=result.elapsed + symmetry_seconds,
            read_seconds=result.read_seconds,
            plan_seconds=result.plan_seconds,
            compile_seconds=result.compile_seconds,
            stop_reason=result.stop_reason,
            degradation=result.degradation,
            stats=stats,
        )

    def _embeddings(
        self, pattern: Graph, variant: Variant, budget: SearchBudget
    ) -> Iterator[dict[int, int]]:
        raise NotImplementedError("use match(); symmetry breaking is count-only")
