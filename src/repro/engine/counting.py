"""Embedding counting with SCE factorization, on the physical engine.

Enumeration must spell out every embedding, but counting can exploit
Sequential Candidate Equivalence directly: once the unmatched suffix of the
plan splits into regions with no dependency path between them (components of
``H``), their counts multiply — each region is matched once instead of once
per sibling combination (the paper's R1/R2 example in Section I).

Under the injective variants the product is only sound when sibling regions
cannot compete for the same data vertices. Candidates always carry their
pattern vertex's label, so regions with disjoint label sets are safe —
exactly Definition 1's observation that ``C \\ {v_x} = C`` when labels
differ. Regions sharing labels are merged and enumerated jointly. The
splits depend only on the plan and come from its
:class:`~repro.engine.physical.RegionTable`, computed once per plan.

Region counts are memoized on (region, images of its dependency frontier,
the used data vertices that could collide with it), so identical subproblems
across sibling mappings are solved once — SCE's "all succeed or fail the
same way" reuse.

Like the enumeration executor, the counter is **iterative**: each
``count(positions)`` activation of the old recursion is an explicit frame —
a *sequential* frame scanning one op's candidates, or a *product* frame
multiplying independent group counts — on a heap-allocated stack (a
single-position region returns its survivor count without a frame), and time
limits are cooperative (the partial top-level count is returned with the
``timed_out`` flag, never an exception).
"""

from __future__ import annotations

from functools import partial

from repro.engine.executor import Runtime, leaf_count
from repro.engine.physical import PhysicalPlan
from repro.engine.results import MatchOptions
from repro.obs import search_state_fraction

_SEQ = 0
_PROD = 1


class _Frame:
    """One suspended ``count(positions)`` activation."""

    __slots__ = (
        "kind",
        "acc",
        "awaiting",
        "top_level",
        # sequential frames: scan one op's candidate list
        "pos",
        "u",
        "rest",
        "values",
        "index",
        # product frames: multiply independent group counts
        "groups",
        "group_index",
        "pending_key",
    )

    def __init__(self, kind: int, top_level: bool = False) -> None:
        self.kind = kind
        self.acc = 0 if kind == _SEQ else 1
        self.awaiting = False
        self.top_level = top_level
        self.pending_key = None


def _stack_fraction(stack: list[_Frame]) -> float:
    """Explored fraction read off the counter's frame stack. Only the
    top-level chain of sequential frames contributes (a product frame ends
    the chain: its groups have no defined scan order), which still yields
    a monotone, conservative estimate."""
    chain: list[_Frame] = []
    for frame in stack:
        if frame.kind != _SEQ:
            break
        chain.append(frame)
    return search_state_fraction(
        [frame.values for frame in chain], [frame.index for frame in chain]
    )


class FactorizedCounter:
    """Counts embeddings of a compiled plan with SCE factorization.

    Runs on the executor's :class:`~repro.engine.executor.Runtime`: ticks,
    limits, governance, heartbeats, the flight recorder and the node,
    backtrack and prune counters are the runtime's, and the top-level
    count so far is its ``emitted``. The counter adds the region split,
    the product frames and the group memo.

    Only sound for unseeded, unrestricted counting — the eligibility gate
    lives in :func:`repro.engine.executor.execute_physical`. Region splits
    come from the plan's :class:`~repro.engine.physical.RegionTable`.
    """

    def __init__(self, physical: PhysicalPlan, options: MatchOptions) -> None:
        plan = physical.logical
        self.physical = physical
        self.plan = plan
        self.use_sce = options.use_sce
        self.regions = physical.regions
        self.runtime = Runtime(physical, options)
        self.ops = physical.ops
        self.injective = plan.variant.injective
        self.assignment = [-1] * plan.num_vertices
        self.used: set[int] = set()
        self.factorizations = 0
        self.group_memo_hits = 0
        self._group_memo: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    def count(self) -> int:
        """Total embedding count (partial top-level count on a stop).

        On an early stop (deadline, memory suspension, cancellation) the
        partial count is the last *committed* top-level sequential
        accumulation — it never overcounts, but if the top-level frame is
        a product (``_PROD``) the in-flight product is discarded, so the
        partial count can lag the work done. The same value flows into the
        exception, the :class:`~repro.engine.results.MatchResult`, and the
        run-report (the ``partial_count`` consistency contract)."""
        runtime = self.runtime
        if self.physical.impossible() or not runtime.preflight():
            return 0
        stack: list[_Frame] = []
        # The probe holds the stack, not the counter, so the runtime never
        # points back at the counter (and its memo) after the count.
        runtime.probe = partial(_stack_fraction, stack)
        retval = self._enter(tuple(range(len(self.ops))), stack, top_level=True)
        while stack and runtime.stop_reason is None:
            frame = stack[-1]
            if frame.kind == _SEQ:
                retval = self._step_seq(frame, stack, retval)
            else:
                retval = self._step_prod(frame, stack, retval)
        if runtime.stop_reason is not None:
            return runtime.emitted
        return retval

    # ------------------------------------------------------------------
    def _enter(
        self, positions: tuple[int, ...], stack: list[_Frame], top_level: bool = False
    ) -> int | None:
        """Start counting ``positions``: resolve trivially (returning the
        value) or push the appropriate frame (returning ``None``, also
        when the tick stopped the run)."""
        if not positions:
            return 1
        if self.use_sce and len(positions) > 1:
            groups = self.regions.groups(positions)
            if len(groups) > 1:
                self.factorizations += 1
                frame = _Frame(_PROD)
                frame.groups = groups
                frame.group_index = 0
                stack.append(frame)
                return None
        # Sequential step: scan the first position's candidates.
        pos = positions[0]
        runtime = self.runtime
        if not runtime.tick(pos, "count"):
            return None
        op = self.ops[pos]
        candidates = runtime.computer.raw(op, self.assignment)
        if runtime.profile is not None:
            runtime.profile.visit(pos, len(candidates))
        if len(positions) == 1:
            # Bulk leaf: the region's count is its survivor count, with
            # the prunes and backtrack a per-candidate scan would record.
            kept, pruned, _ = leaf_count(candidates, self.used, (), self.assignment)
            runtime.prunes_injective += pruned
            if not kept:
                runtime.backtracks += 1
                if runtime.profile is not None:
                    runtime.profile.backtrack(pos)
            return kept
        frame = _Frame(_SEQ, top_level=top_level)
        frame.pos = pos
        frame.u = op.u
        frame.rest = positions[1:]
        # Unlike the frame machine's lists, these are never truncated or
        # shipped, so a frame may scan the (possibly memoized) tuple as is.
        frame.values = candidates
        frame.index = 0
        stack.append(frame)
        return None

    def _step_seq(
        self, frame: _Frame, stack: list[_Frame], retval: int | None
    ) -> int | None:
        if frame.awaiting:
            # A child finished counting the rest under the current value.
            frame.acc += retval
            v = self.assignment[frame.u]
            if self.injective:
                self.used.discard(v)
            self.assignment[frame.u] = -1
            frame.awaiting = False
            if frame.top_level:
                self.runtime.emitted = frame.acc
        vals = frame.values
        i = frame.index
        chosen = -1
        while i < len(vals):
            v = vals[i]
            i += 1
            if self.injective and v in self.used:
                self.runtime.prunes_injective += 1
                continue
            chosen = v
            break
        frame.index = i
        if chosen < 0:
            if frame.acc == 0:
                runtime = self.runtime
                runtime.backtracks += 1
                if runtime.profile is not None:
                    runtime.profile.backtrack(frame.pos)
            stack.pop()
            return frame.acc
        self.assignment[frame.u] = chosen
        if self.injective:
            self.used.add(chosen)
        frame.awaiting = True
        return self._enter(frame.rest, stack)

    def _step_prod(
        self, frame: _Frame, stack: list[_Frame], retval: int | None
    ) -> int | None:
        if frame.awaiting:
            self._group_memo[frame.pending_key] = retval
            frame.acc *= retval
            frame.awaiting = False
            if frame.acc == 0:
                stack.pop()
                return 0
        if frame.group_index >= len(frame.groups):
            stack.pop()
            return frame.acc
        group = frame.groups[frame.group_index]
        frame.group_index += 1
        key = self._group_key(group)
        cached = self._group_memo.get(key)
        if cached is not None:
            self.group_memo_hits += 1
            frame.acc *= cached
            if frame.acc == 0:
                stack.pop()
                return 0
            return retval
        frame.pending_key = key
        frame.awaiting = True
        return self._enter(group, stack)

    # ------------------------------------------------------------------
    def _group_key(self, positions: tuple[int, ...]) -> tuple:
        """Memo key of one independent region: its dependency-frontier
        images plus the used data vertices that could collide with it."""
        frontier, group_labels = self.regions.frontier(positions)
        if self.injective:
            data_labels = self.plan.task_clusters.data_vertex_labels
            relevant_used = frozenset(
                v for v in self.used if data_labels[v] in group_labels
            )
        else:
            relevant_used = frozenset()
        return (
            positions,
            tuple(self.assignment[prior] for prior in frontier),
            relevant_used,
        )


def count_physical(
    physical: PhysicalPlan, options: MatchOptions
) -> tuple[int, dict, str | None, list[str], dict | None]:
    """Count embeddings of a compiled plan; returns
    ``(count, stats, stop_reason, degradation, progress)``.

    :func:`~repro.engine.executor.execute_physical` calls it only for an
    exact count whose plan's :class:`~repro.engine.physical.RegionTable`
    has a splitting suffix; on any other plan it still counts exactly,
    visiting the frame machine's nodes at a higher cost per node.

    ``stats`` carries the full unified key set
    (:data:`repro.obs.catalog.STAT_KEYS`), matching the enumeration path
    key-for-key; ``prunes_restriction`` is always 0 here because
    restrictions force the frame machine. On an early stop the count is
    the partial top-level count (cooperative, no exception) and
    ``stop_reason`` names the cause; ``degradation`` lists any
    governor-ladder events; ``progress`` is the estimator block (pinned
    to 100% on an exhaustive run), ``None`` without an observation.
    """
    counter = FactorizedCounter(physical, options)
    total = counter.count()
    runtime = counter.runtime
    stats = runtime.stats()
    stats["factorizations"] = counter.factorizations
    stats["group_memo_hits"] = counter.group_memo_hits
    progress = runtime.progress_snapshot(complete=True)
    return total, stats, runtime.stop_reason, list(runtime.degradation), progress
