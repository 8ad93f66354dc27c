"""Candidate computation over physical operators, with SCE-based reuse.

``C(u | Phi, f)`` — the candidates of a pattern vertex given a partial
embedding — is computed by intersecting the cluster neighbor rows of the
op's backward constraints, then subtracting vertex-induced negations. By
Definition 1 the raw set depends only on the mappings of the vertex's
dependency priors, so it is memoized on exactly that key; injectivity
filtering (the ``\\ {v_x}`` part) happens at use time and never enters the
cache. NEC falls out for free: equivalent pattern vertices were compiled to
the same ``spec_id`` and therefore share cached candidate sets.

The computer consumes :class:`~repro.engine.physical.ExtendOp` operators —
constraints and negations arrive as prebound ``(prior, fetch)`` pairs whose
fetchers return cluster rows as cached ``frozenset``\\ s, so the hot loop is
two function calls and one set ``&`` per constraint. The operands are
short (a handful to a few dozen vertices), where Python set algebra costs
a fraction of a numpy call's fixed overhead.
"""

from __future__ import annotations

from typing import Any

from repro.engine.physical import ExtendOp, PhysicalPlan
from repro.obs.catalog import CANDIDATE_STAT_KEYS


class CandidateStats:
    """Candidate-computation counters (part of the unified stats schema,
    :data:`repro.obs.catalog.STAT_KEYS`).

    ``computed`` counts every cold computation; ``memo_hits`` /
    ``memo_misses`` split the SCE cache lookups, so a cold compute under
    ``use_sce=False`` (no lookup at all) is distinguishable from a cache
    miss (``computed`` grows without ``memo_misses``). ``negation_checks``
    counts vertex-induced negation-cluster probes evaluated.

    Kept as plain slotted integers — the hot loops bump these millions of
    times; they are folded into the run's counter registry at snapshot
    time (see :func:`repro.obs.counters.unified_stats`).
    """

    __slots__ = CANDIDATE_STAT_KEYS

    def __init__(self) -> None:
        self.computed = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.intersections = 0
        self.negation_checks = 0

    def as_dict(self) -> dict[str, int]:
        return {key: getattr(self, key) for key in CANDIDATE_STAT_KEYS}


class CandidateComputer:
    """Computes (and, with SCE, reuses) raw candidate lists per op.

    A candidate list is a sorted ``tuple`` of data vertices. Memo entries
    are shared by every caller that hits them, which is why they are
    immutable: a search frame that scans or truncates a list takes its
    own ``list`` copy.
    """

    def __init__(
        self,
        physical: PhysicalPlan,
        use_sce: bool = True,
        memo_limit: int = 1_000_000,
        profile: Any = None,
    ) -> None:
        self.physical = physical
        self.use_sce = use_sce
        self.memo_limit = memo_limit
        self.stats = CandidateStats()
        #: Optional :class:`repro.obs.profile.SearchDepthProfile` receiving
        #: per-depth memo hit/miss events; ``None`` keeps the hot path free.
        self._profile = profile
        self._memo: dict[tuple, tuple[int, ...]] = {}

    def clear(self) -> None:
        self._memo.clear()

    @property
    def memo_size(self) -> int:
        """Number of cached candidate sets."""
        return len(self._memo)

    def evict(self, fraction: float = 0.5) -> int:
        """Drop the oldest ``fraction`` of memo entries; returns how many.

        The memo is an insertion-ordered dict, so dropping the front is an
        LRU approximation (old entries were keyed by prior assignments the
        search has likely backtracked past). Like CEMR's redundant
        extensions, every memo entry is a pure cache — dropping any subset
        only costs recomputation, never correctness — which is what makes
        degrade-under-pressure safe.
        """
        n = int(len(self._memo) * fraction)
        if n <= 0:
            return 0
        for key in list(self._memo.keys())[:n]:
            del self._memo[key]
        return n

    def disable_memo(self) -> None:
        """Turn memoization off for the rest of the run and free the cache
        (the degradation ladder's second rung). Candidate computation
        continues uncached; ``memo_misses`` stops advancing so the stats
        still distinguish degraded runs from ``use_sce=False`` runs only
        by their nonzero history."""
        self.use_sce = False
        self._memo.clear()

    def raw(self, op: ExtendOp, assignment: list[int]) -> tuple[int, ...]:
        """The sorted raw candidate tuple of ``op.u`` under the current
        partial embedding (before injectivity filtering)."""
        if self.use_sce:
            key = (op.spec_id, *[assignment[p] for p in op.priors])
            cached = self._memo.get(key)
            if cached is not None:
                self.stats.memo_hits += 1
                if self._profile is not None:
                    self._profile.memo_hit(op.pos)
                return cached
            self.stats.memo_misses += 1
            if self._profile is not None:
                self._profile.memo_miss(op.pos)
        result = self._compute(op, assignment)
        if self.use_sce and len(self._memo) < self.memo_limit:
            self._memo[key] = result
        return result

    def _compute(self, op: ExtendOp, assignment: list[int]) -> tuple[int, ...]:
        stats = self.stats
        stats.computed += 1
        ordered: tuple[int, ...] | None = None
        if op.constraints:
            rows = []
            for prior, fetch in op.constraints:
                row = fetch(assignment[prior])
                if not row:
                    return ()
                rows.append(row)
            rows.sort(key=len)
            result = rows[0]
            for row in rows[1:]:
                stats.intersections += 1
                result = result & row
                if not result:
                    return ()
        else:
            pool = op.static_pool
            assert pool is not None  # compile_plan pools every such op
            result, ordered = pool
        for prior, fetch in op.negations:
            if not result:
                break
            stats.negation_checks += 1
            excluded = fetch(assignment[prior])
            if not excluded:
                continue
            # Forbid candidates adjacent to f(prior) in the negation
            # cluster (Definition 1's vertex-induced check).
            result = result - excluded
            ordered = None
        if ordered is not None:
            return ordered
        return tuple(sorted(result))
