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
differ. Regions sharing labels are merged and enumerated jointly.

Everything that depends only on the plan is resolved once, into the plan's
:class:`~repro.engine.physical.RegionProgram`
(:attr:`~repro.engine.physical.PhysicalPlan.regions`, built on the first
count and kept with the plan in the session cache): one node per
positions tuple the count can reach, each a sequential step (scan one
op's candidates, count the rest under each), a bulk leaf (one position:
its survivor count), or a product of independent regions with their
compiled frontier getters and label sets. Everything that depends on the
run is the caller's :class:`~repro.engine.executor.Runtime`, which
:func:`count_physical` takes as it is, so one runtime can carry several
counts.

Region counts are memoized on (region node, images of its dependency
frontier, the used data vertices that could collide with it; the last part
only under the injective variants), so identical subproblems across sibling
mappings are solved once — SCE's "all succeed or fail the same way" reuse.
The memo lives on the run's candidate computer, beside the candidate memo,
so the memory ladder evicts and disables both.

Like the enumeration executor, the counter is **iterative**: one ``while``
loop walks the program with its per-run state in node-indexed arrays (a
node is never active twice at once, as every node's positions strictly
contain those of the nodes below it), and time limits are cooperative (the
partial top-level count is returned with a ``stop_reason``, never an
exception).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.engine.physical import PROD, SEQ, PhysicalPlan
from repro.obs import search_state_fraction

if TYPE_CHECKING:
    from repro.engine.executor import Runtime


def _chain_fraction(
    chain: tuple[int, ...], values: list, index: list[int]
) -> float:
    """Explored fraction read off the counter's node arrays. Only the
    top-level sequential chain contributes (a product ends it: its regions
    have no defined scan order), which still yields a monotone,
    conservative estimate; an inactive node's ``values`` is ``None``."""
    return search_state_fraction(
        [values[node] for node in chain], [index[node] for node in chain]
    )


def count_physical(physical: PhysicalPlan, runtime: Runtime) -> int:
    """Count the embeddings of a compiled plan with SCE factorization on
    the caller's :class:`~repro.engine.executor.Runtime`; returns the
    count (the partial top-level count on a stop), also left in
    ``runtime.emitted``. The caller owns ``runtime.release()``.

    Ticks, limits, governance, heartbeats, the flight recorder and every
    stats counter are the runtime's, so its ``stats()`` carry the full
    unified key set (:data:`repro.obs.catalog.STAT_KEYS`), matching the
    frame machine key-for-key; ``prunes_restriction`` stays 0. The region
    memo is the runtime's candidate computer's
    (:attr:`~repro.engine.candidates.CandidateComputer.region_memo`), so
    the memory ladder evicts and disables it with the candidate memo.

    Only sound for unseeded, unrestricted counting: restrictions and pins
    couple independent regions. :func:`~repro.engine.executor.execute_physical`
    calls it for an exact count whose plan's program factorizes; on any
    other plan it still counts exactly, visiting the frame machine's
    nodes at a higher cost per node.

    One loop over the plan's :class:`~repro.engine.physical.RegionProgram`.
    ``node`` is the node to enter next, or ``-1`` to hand ``retval`` back
    to the active node on top of ``stack``. A ``SEQ`` node keeps its
    candidate list, scan cursor and running sum in
    ``values``/``index``/``acc``; a ``PROD`` node keeps its next region in
    ``index``, its running product in ``acc`` and the memo key of the
    region it awaits in ``pending``.

    On an early stop (deadline, memory suspension, cancellation) the
    partial count is the last *committed* top-level accumulation — it
    never overcounts, but if the root is a product the in-flight product
    is discarded, so the partial count can lag the work done. The same
    value flows into the :class:`~repro.engine.results.MatchResult` and
    the run-report (the ``partial_count`` consistency contract), and
    ``stop_reason`` names the cause.
    """
    if physical.impossible() or not runtime.preflight():
        return 0
    program = physical.regions
    root = program.root
    if root < 0:
        runtime.emitted = 1
        return 1
    kind, pos_of, child, parts = (
        program.kind, program.pos, program.child, program.parts
    )
    acc = [0] * program.size
    values: list = [None] * program.size
    index = [0] * program.size
    pending: list = [None] * program.size
    # The probe holds the arrays alone, so the runtime keeps no frame of
    # this call after the count.
    runtime.probe = partial(_chain_fraction, program.chain, values, index)
    # Hot path: everything the loop touches is bound to locals.
    plan = physical.logical
    ops = physical.ops
    order = plan.order
    computer = runtime.computer
    raw = computer.raw
    memo = computer.region_memo
    profile = runtime.profile
    ticking = runtime.ticking
    tick_interval = runtime.tick_interval
    injective = plan.variant.injective
    data_labels = plan.task_clusters.data_vertex_labels
    assignment = [-1] * plan.num_vertices
    used: set[int] = set()
    stack: list[int] = []
    node = root
    retval = 0
    while True:
        if node >= 0:
            # Enter a node.
            node_kind = kind[node]
            if node_kind == PROD:
                runtime.factorizations += 1
                acc[node] = 1
                index[node] = 0
                stack.append(node)
                top = node
                returning = False
            else:
                pos = pos_of[node]
                runtime.nodes += 1
                if (
                    ticking
                    and runtime.nodes % tick_interval == 0
                    and not runtime.tick(pos, "count")
                ):
                    break
                candidates = raw(ops[pos], assignment)
                if profile is not None:
                    profile.visit(pos, len(candidates))
                if node_kind == SEQ:
                    values[node] = candidates
                    index[node] = 0
                    acc[node] = 0
                    stack.append(node)
                    top = node
                    returning = False
                else:
                    # Bulk leaf: the region's count is its survivor
                    # count, with the prunes and backtrack a
                    # per-candidate scan would record (what
                    # executor.leaf_count gives without restrictions).
                    retval = len(candidates)
                    if used:
                        pruned = len(used.intersection(candidates))
                        runtime.prunes_injective += pruned
                        retval -= pruned
                    if not retval:
                        runtime.backtracks += 1
                        if profile is not None:
                            profile.backtrack(pos)
                    if not stack:
                        break
                    top = stack[-1]
                    returning = True
        else:
            if not stack:
                break
            top = stack[-1]
            returning = True
        if kind[top] == SEQ:
            u = order[pos_of[top]]
            total = acc[top]
            if returning:
                # A child finished counting the rest under the current
                # value.
                total += retval
                acc[top] = total
                if injective:
                    used.discard(assignment[u])
                assignment[u] = -1
                if top == root:
                    runtime.emitted = total
            vals = values[top]
            i = index[top]
            chosen = -1
            while i < len(vals):
                v = vals[i]
                i += 1
                if injective and v in used:
                    runtime.prunes_injective += 1
                    continue
                chosen = v
                break
            index[top] = i
            if chosen < 0:
                if total == 0:
                    runtime.backtracks += 1
                    if profile is not None:
                        profile.backtrack(pos_of[top])
                values[top] = None
                stack.pop()
                retval = total
                node = -1
                continue
            assignment[u] = chosen
            if injective:
                used.add(chosen)
            node = child[top]
            continue
        # A product node: multiply its regions' counts, from the memo
        # where a region was counted under the same frontier images
        # (and, when injective, the same colliding used vertices).
        product = acc[top]
        if returning:
            if len(memo) < computer.memo_limit:
                memo[pending[top]] = retval
            product *= retval
        regions = parts[top]
        i = index[top]
        node = -1
        while product and i < len(regions):
            region, frontier, labels = regions[i]
            i += 1
            if injective:
                key = (
                    region,
                    frontier(assignment),
                    frozenset(v for v in used if data_labels[v] in labels),
                )
            else:
                key = (region, frontier(assignment))
            cached = memo.get(key)
            if cached is None:
                pending[top] = key
                node = region
                break
            runtime.group_memo_hits += 1
            product *= cached
        if node >= 0:
            index[top] = i
            acc[top] = product
            continue
        stack.pop()
        retval = product
    if runtime.stop_reason is None:
        runtime.emitted = retval
    return runtime.emitted
