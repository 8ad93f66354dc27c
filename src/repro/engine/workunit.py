"""Portable work units: sharding one search into resumable pieces.

A *work unit* is a :class:`~repro.engine.executor.SearchState` payload —
the exact JSON shape PR 4's checkpoints already serialize — describing a
sub-region of the search space. Because candidate sets at depth ``d``
depend only on the assignment prefix above ``d``, partitioning the
candidate list at any open depth partitions the remaining subtree
*exactly*: executing the pieces independently (in any order, on any
process) and summing the emitted counts reproduces the sequential count.

Two shard shapes are produced here:

* **root-range shards** (:func:`make_root_units`): the initial
  decomposition — the depth-0 candidate list, computed once in the
  parent, chopped into contiguous ranges. Each payload is a fresh frame
  stack pre-seeded with its range at depth 0, so the executor resumes it
  without any hot-loop changes (a pre-seeded depth skips candidate
  computation naturally).
* **split shards** (:func:`split_search_state`): work stealing — a live,
  oversized unit donates the untouched back half of the shallowest
  still-open candidate list. The kept state's slot at that depth is
  rebound to a new list of the front half (the old sequence may be a
  shared memo entry, so it is never mutated); the donated payload carries
  the back half and the assignment prefix above the split depth.

Splitting is only sound at a *tick boundary*: there ``values[pos]`` is
``None`` (the current depth's list is not yet built), the current depth's
assignment slot has been cleared, and ``state.pos`` is synced — so every
depth the split loop can reach holds a quiescent cursor, and the executor,
which re-reads ``values[d]`` whenever it returns to depth ``d``, scans
the rebound list from the same cursor. The pool's worker-side heartbeat
listener runs exactly there.
"""

from __future__ import annotations

from repro.engine.candidates import CandidateComputer
from repro.engine.executor import SearchState
from repro.engine.physical import PhysicalPlan

#: A donated depth must keep at least this many unconsumed candidates to
#: be worth shipping; below it the steal overhead exceeds the work.
MIN_SPLIT_REMAINING = 2


def root_candidates(physical: PhysicalPlan, pins: dict | None = None) -> list[int]:
    """The depth-0 candidate list of a compiled plan under the run's
    ``pins`` (the candidate kernel resolves a pinned root).

    Computed with memoization off — this runs once in the pool parent, on
    an empty assignment, so there is nothing to memoize. Returns ``[]``
    for impossible plans (the pool then short-circuits to a zero result).
    """
    if physical.impossible() or not physical.ops:
        return []
    computer = CandidateComputer(use_sce=False, pins=pins)
    return list(computer.raw(physical.ops[0], [-1] * len(physical.ops)))


def make_root_units(
    physical: PhysicalPlan, shards: int, pins: dict | None = None
) -> list[dict]:
    """Shard the root range under ``pins`` into ``shards`` contiguous units.

    Each unit is a ``SearchState.to_payload()`` dict whose depth-0
    candidate list is one chunk of the root range (chunk sizes differ by
    at most one); empty chunks are dropped, so fewer units than requested
    come back when the root range is small. Executing every unit and
    summing the counts is exactly the sequential search.
    """
    if shards < 1:
        raise ValueError(f"shards must be positive: {shards}")
    roots = root_candidates(physical, pins)
    if not roots:
        return []
    n = len(physical.ops)
    shards = min(shards, len(roots))
    base, extra = divmod(len(roots), shards)
    units: list[dict] = []
    start = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        chunk = roots[start : start + size]
        start += size
        if not chunk:
            continue
        values: list[list | None] = [None] * n
        values[0] = chunk
        units.append(
            {
                "assignment": [-1] * n,
                "used": [],
                "values": values,
                "index": [0] * n,
                "emitted_at": [0] * n,
                "pos": 0,
            }
        )
    return units


def split_search_state(
    state: SearchState,
    injective: bool,
    op_vertices: tuple[int, ...],
    min_remaining: int = MIN_SPLIT_REMAINING,
) -> dict | None:
    """Steal the back half of the shallowest splittable depth of a live
    frame stack, or return ``None`` when nothing is worth donating.

    Must be called at a tick boundary (see the module docstring). The
    kept ``state``'s candidate slot at the split depth is rebound to a new
    list without the donated suffix — nothing else changes, and the old
    sequence is left whole — and the returned payload is a fresh frame
    stack that re-enters the search at the split depth with the same
    assignment prefix. ``op_vertices`` maps each depth to its pattern
    vertex (``physical.ops[d].u``), needed to reconstruct the donated
    prefix assignment and injectivity set.
    """
    if min_remaining < 2:
        raise ValueError(f"min_remaining must be >= 2: {min_remaining}")
    values = state.values
    index = state.index
    for depth, vals in enumerate(values):
        if vals is None:
            # Depths below an unentered one are unentered too.
            break
        remaining = len(vals) - index[depth]
        if remaining < min_remaining:
            continue
        cut = index[depth] + (remaining + 1) // 2
        donated_vals = list(vals[cut:])
        values[depth] = list(vals[:cut])
        n = len(values)
        assignment = [-1] * n
        donated_values: list[list[int] | None] = [None] * n
        donated_index = [0] * n
        prefix: list[int] = []
        for d in range(depth):
            image = state.assignment[op_vertices[d]]
            assignment[op_vertices[d]] = image
            prefix.append(image)
            # Each prefix depth is a fully-consumed single-candidate
            # list: backtracking out of the donated depth then unwinds
            # straight to exhaustion instead of recomputing (and
            # re-enumerating) candidates the victim still owns.
            donated_values[d] = [image]
            donated_index[d] = 1
        donated_values[depth] = donated_vals
        return {
            "assignment": assignment,
            "used": sorted(prefix) if injective else [],
            "values": donated_values,
            "index": donated_index,
            "emitted_at": [0] * n,
            "pos": depth,
        }
    return None
