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
limits are cooperative (the partial top-level count is returned with a
``stop_reason``, never an exception).
"""

from __future__ import annotations

from functools import partial

from repro.engine.executor import Runtime, leaf_count
from repro.engine.governor import RunLimits
from repro.engine.physical import PhysicalPlan
from repro.engine.results import MatchOptions
from repro.obs import search_state_fraction

_SEQ = 0
_PROD = 1
#: The used-vertex part of every region-memo key under a non-injective
#: variant, where sibling regions never compete for data vertices.
_NO_USED: frozenset[int] = frozenset()


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
    limits, governance, heartbeats, the flight recorder and every stats
    counter are the runtime's, and the top-level count so far is its
    ``emitted``. The counter adds the region split, the product frames
    and the group memo.

    Only sound for unseeded, unrestricted counting — the eligibility gate
    lives in :func:`repro.engine.executor.execute_physical`. Region splits
    come from the plan's :class:`~repro.engine.physical.RegionTable`.
    """

    def __init__(
        self,
        physical: PhysicalPlan,
        options: MatchOptions,
        limits: RunLimits | None = None,
    ) -> None:
        plan = physical.logical
        self.physical = physical
        self.plan = plan
        self.use_sce = options.use_sce
        self.regions = physical.regions
        self.runtime = Runtime(physical, options, limits)
        self.ops = physical.ops
        self.injective = plan.variant.injective
        self.assignment = [-1] * plan.num_vertices
        self.used: set[int] = set()
        self._group_memo: dict[tuple, int] = {}
        self._memo_limit = options.memo_limit

    # ------------------------------------------------------------------
    def count(self) -> int:
        """Total embedding count (partial top-level count on a stop), also
        left in ``runtime.emitted``.

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
        if runtime.stop_reason is None:
            runtime.emitted = retval
        return runtime.emitted

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
                self.runtime.factorizations += 1
                frame = _Frame(_PROD)
                frame.groups = groups
                frame.group_index = 0
                stack.append(frame)
                return None
        # Sequential step: scan the first position's candidates.
        pos = positions[0]
        runtime = self.runtime
        runtime.nodes += 1
        if (
            runtime.ticking
            and runtime.nodes % runtime.tick_interval == 0
            and not runtime.tick(pos, "count")
        ):
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
            if len(self._group_memo) < self._memo_limit:
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
            self.runtime.group_memo_hits += 1
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
        frontier_images, group_labels = self.regions.frontier(positions)
        if self.injective:
            data_labels = self.plan.task_clusters.data_vertex_labels
            relevant_used = frozenset(
                v for v in self.used if data_labels[v] in group_labels
            )
        else:
            relevant_used = _NO_USED
        return (positions, frontier_images(self.assignment), relevant_used)


def count_physical(
    physical: PhysicalPlan,
    options: MatchOptions,
    limits: RunLimits | None = None,
) -> Runtime:
    """Count embeddings of a compiled plan; returns the finished
    :class:`~repro.engine.executor.Runtime`, whose ``emitted`` is the count.

    :func:`~repro.engine.executor.execute_physical` calls it only for an
    exact count whose plan's :class:`~repro.engine.physical.RegionTable`
    has a splitting suffix; on any other plan it still counts exactly,
    visiting the frame machine's nodes at a higher cost per node.

    The runtime's ``stats()`` carry the full unified key set
    (:data:`repro.obs.catalog.STAT_KEYS`), matching the enumeration path
    key-for-key; ``prunes_restriction`` is always 0 here because
    restrictions force the frame machine. On an early stop the count is
    the partial top-level count (cooperative, no exception) and
    ``stop_reason`` names the cause.
    """
    counter = FactorizedCounter(physical, options, limits)
    counter.count()
    return counter.runtime
