"""Candidate computation over physical operators, with SCE-based reuse.

``C(u | Phi, f)`` — the candidates of a pattern vertex given a partial
embedding — is computed by intersecting the cluster neighbor rows of the
op's backward constraints (or taking its static pool), then its admissible
sets (under injectivity, the data vertices whose CCSR rows are long
enough to host the vertex's pattern edges), then subtracting
vertex-induced negations. By
Definition 1 the raw set depends only on the mappings of the vertex's
dependency priors, so it is memoized on exactly that key — ``(spec_id,
op.memo_key(assignment))``, the priors' images read by one compiled
getter; injectivity
filtering (the ``\\ {v_x}`` part) happens at use time and never enters the
cache. NEC falls out for free: equivalent pattern vertices were compiled to
the same ``spec_id`` and therefore share cached candidate sets. The row
filters are part of the spec, so twins of different degree do not.

The computer consumes :class:`~repro.engine.physical.ExtendOp` operators —
constraints and negations arrive as prebound ``(prior, fetch)`` pairs whose
fetchers return cluster rows as cached ``frozenset``\\ s, so the hot loop is
two function calls and one set ``&`` per constraint, plus one ``&`` per
admissible set (an op without row filters pays nothing for them). The
operands are short (a handful to a few dozen vertices), where Python set
algebra costs a fraction of a numpy call's fixed overhead. A static-pool
op intersects its pool's sets, once per run under the memo, so it sees
the rows an update added or emptied without a recompile.

A position whose candidates are only counted (the frame machine's count
mode at its last position) asks for them ``bulk``: the unordered set,
never sorted. With one constraint and nothing to intersect or subtract
it is the cached row ``frozenset`` itself. Bulk entries live in the same
memo under ``(~spec_id, priors)``, beside the sorted tuples of scanned
positions, so NEC twins split across a scan and a count keep one entry
each. A bulk set is never a static pool's live set: an update patches
those in place, and a memo entry must not change under its reader.

An op whose vertex the run's binding ``pins`` names (the seed, rebound
per pin by a continuous delta) skips all of that: its candidates are its
pin if the pin passes every row, pool set, admissible set and negation
by membership, else none, and never enter the memo.
This kernel is the one place pins are applied.
"""

from __future__ import annotations

from typing import AbstractSet, Any

from repro.engine.physical import ExtendOp
from repro.obs.catalog import CANDIDATE_STAT_KEYS

#: Raw candidates: a sorted tuple where a frame scans them, an unordered
#: set (or a tuple) where they are only counted.
Candidates = tuple[int, ...] | AbstractSet[int]


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
    """Computes (and, with SCE, reuses) raw candidate sets per op.

    A scanned candidate list is a sorted ``tuple`` of data vertices; a
    bulk one (:meth:`raw`) is an unordered set, or a tuple.
    Memo entries are shared by every caller that hits them, which is why
    they are immutable: search frames scan them as they are, and a steal
    rebinds a frame to new lists instead of truncating it.
    """

    #: Cap on cached candidate sets, and separately on the factorized
    #: counter's region counts; beyond it, computation continues uncached
    #: (a memory bound for adversarial patterns).
    MEMO_LIMIT = 1_000_000

    def __init__(
        self,
        use_sce: bool = True,
        profile: Any = None,
        pins: dict[int, int] | None = None,
    ) -> None:
        self.use_sce = use_sce
        #: The run's binding ``{pattern vertex: data vertex}`` (:meth:`_pinned`).
        self.pins: dict[int, int] = pins or {}
        #: This run's bound on each memo: :data:`MEMO_LIMIT`, or 0 without
        #: ``use_sce`` (as :meth:`disable_memo` leaves it).
        self.memo_limit = self.MEMO_LIMIT if use_sce else 0
        self.stats = CandidateStats()
        #: Optional :class:`repro.obs.profile.SearchDepthProfile` receiving
        #: per-depth memo hit/miss events; ``None`` keeps the hot path free.
        self._profile = profile
        self._memo: dict[tuple, Candidates] = {}
        #: The factorized counter's region counts, keyed on (region node,
        #: frontier images, colliding used vertices): kept here, beside
        #: the candidate memo, so the memory ladder reaches both. The
        #: counter stores into it only below ``memo_limit``.
        self.region_memo: dict[tuple, int] = {}

    def clear(self) -> None:
        self._memo.clear()
        self.region_memo.clear()

    @property
    def memo_size(self) -> int:
        """Number of cached candidate sets."""
        return len(self._memo)

    def evict(self, fraction: float = 0.5) -> int:
        """Drop the oldest ``fraction`` of each memo's entries; returns how
        many in all.

        The memos are insertion-ordered dicts, so dropping the front is an
        LRU approximation (old entries were keyed by prior assignments the
        search has likely backtracked past). Like CEMR's redundant
        extensions, every memo entry is a pure cache — dropping any subset
        only costs recomputation, never correctness — which is what makes
        degrade-under-pressure safe.
        """
        evicted = 0
        for memo in (self._memo, self.region_memo):
            n = max(0, int(len(memo) * fraction))
            for key in list(memo)[:n]:
                del memo[key]
            evicted += n
        return evicted

    def disable_memo(self) -> None:
        """Turn memoization off for the rest of the run and free both
        caches (the degradation ladder's second rung). Candidate
        computation continues uncached and the counter stores no region
        count (``memo_limit`` drops to 0); ``memo_misses`` stops advancing
        so the stats still distinguish degraded runs from ``use_sce=False``
        runs only by their nonzero history."""
        self.use_sce = False
        self.memo_limit = 0
        self.clear()

    def raw(
        self, op: ExtendOp, assignment: list[int], bulk: bool = False
    ) -> Candidates:
        """The raw candidates of ``op.u`` under the current partial
        embedding (before injectivity filtering): a sorted tuple, or with
        ``bulk`` any sized iterable (a caller that only counts them). A
        bulk result is memoized under ``(~spec_id, priors)`` and is never
        a static pool's live set. A pinned op's candidates are its pin or
        nothing (:meth:`_pinned`)."""
        pins = self.pins
        if pins:
            pin = pins.get(op.u)
            if pin is not None:
                return self._pinned(op, pin, assignment)
        if self.use_sce:
            key = (~op.spec_id if bulk else op.spec_id, op.memo_key(assignment))
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
        if not bulk:
            result = tuple(sorted(result))
        elif op.static_pool is not None and result is op.static_pool[0]:
            result = frozenset(result)
        if self.use_sce and len(self._memo) < self.memo_limit:
            self._memo[key] = result
        return result

    def _pinned(
        self, op: ExtendOp, pin: int, assignment: list[int]
    ) -> tuple[int, ...]:
        """``(pin,)`` when the pin survives every filter :meth:`_compute`
        applies, else ``()``: the pin-filtered raw tuple, decided by set
        membership alone — no memo probe, intersection or sort. Seeded
        runs, continuous deltas and the pool's root range all resolve
        their pins here, and only here."""
        self.stats.computed += 1
        if not op.constraints:
            assert op.static_pool is not None  # compile_plan pools every such op
            for members in op.static_pool:
                if pin not in members:
                    return ()
        for prior, fetch in op.constraints:
            if pin not in fetch(assignment[prior]):
                return ()
        for admissible in op.admissible:
            if pin not in admissible:
                return ()
        for prior, fetch in op.negations:
            self.stats.negation_checks += 1
            if pin in fetch(assignment[prior]):
                return ()
        return (pin,)

    def _compute(self, op: ExtendOp, assignment: list[int]) -> Candidates:
        """The candidate set, unordered: the one row itself, the pool's
        sets intersected (their first set itself when it is alone), or
        the ``&``/``-`` result of the rows, admissible sets and
        negations; ``()`` when the rows' intersection empties early."""
        stats = self.stats
        stats.computed += 1
        constraints = op.constraints
        if len(constraints) == 1:
            prior, fetch = constraints[0]
            result = fetch(assignment[prior])
        elif constraints:
            rows = []
            for prior, fetch in constraints:
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
            result = pool[0]
            for members in pool[1:]:
                result = result & members
        for admissible in op.admissible:
            result = result & admissible
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
        return result
