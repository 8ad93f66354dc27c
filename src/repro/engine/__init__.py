"""The physical-operator execution engine.

The engine separates the *logical* plan (what each step must check — see
:mod:`repro.core.plan`) from the *physical* plan (how it executes):

* :func:`compile_plan` lowers a :class:`~repro.core.plan.Plan` into a
  :class:`PhysicalPlan` — a tuple of :class:`ExtendOp` step operators with
  backward-edge fetchers, negation probes, SCE memo ids, symmetry
  restrictions, and seed pins resolved at compile time;
* :func:`execute_physical` runs a compiled plan on the **iterative**
  executor (explicit frame stack, no Python recursion; limits are
  cooperative flags, not exceptions);
* :class:`EmbeddingStream` streams embeddings lazily (``CSCE.match_iter``);
* :func:`count_physical` is the SCE-factorized counting terminal over the
  same operators, used for exact counts whose plan's region program
  (``PhysicalPlan.regions``) has a product, i.e. some suffix splits
  (other counts run :func:`count_capped`); streaming, capped counting
  and factorized counting each take the caller's :class:`Runtime`
  (ticks, limits, governance, heartbeats) and leave its release to the
  caller;
* :class:`MatchSession` holds a store plus an LRU cache of compiled plans
  (``compile`` returns the :class:`PhysicalPlan` itself), shared by
  enumeration, counting, continuous matching, and baselines;
* :class:`ResourceGovernor` enforces a unified :class:`Budget` (deadline,
  embedding cap, memory ceiling with a graceful-degradation ladder) and a
  cooperative :class:`CancelToken` over any run;
* :mod:`repro.engine.checkpoint` suspends a stream or a pool to a set of
  unit documents and resumes it through one :func:`restore`
  (``CSCE.resume`` / ``resume_pool`` / ``retry_quarantined``);
* :mod:`repro.engine.workunit` shards one search into portable
  :class:`SearchState` payloads (root-candidate ranges, work-steal splits)
  and :mod:`repro.engine.pool` executes them on a multi-process worker
  pool with exact merged counts (``MatchOptions(workers=N)``);
* :mod:`repro.engine.verify` statically verifies a compiled plan against
  its store before execution (``csce verify``,
  ``MatchSession(verify=True)``).

Layering: this package sits between ``repro.core`` planning and the
front-ends; it must never import ``repro.cli`` or ``repro.bench``
(enforced by the ``layering`` pass of ``python -m tools.reprolint`` in CI).
"""

from repro.engine.results import (
    MIN_THROUGHPUT_ELAPSED,
    STOP_CANCELLED,
    STOP_EMBEDDING_LIMIT,
    STOP_MEMORY_LIMIT,
    STOP_QUARANTINED,
    STOP_TIME_LIMIT,
    MatchOptions,
    MatchResult,
)
from repro.engine.governor import (
    Budget,
    CancelToken,
    ResourceGovernor,
    RetryPolicy,
)
from repro.engine.physical import ExtendOp, PhysicalPlan, compile_plan
from repro.engine.candidates import CandidateComputer
from repro.engine.executor import (
    EmbeddingStream,
    Runtime,
    SearchState,
    count_capped,
    execute_physical,
    stream,
)
from repro.engine.checkpoint import (
    CheckpointSink,
    PoolCheckpointDir,
    Restored,
    load_checkpoint,
    load_checkpoint_set,
    restore,
    restore_stream,
    write_checkpoint,
)
from repro.engine.workunit import (
    make_root_units,
    root_candidates,
    split_search_state,
)
from repro.engine.pool import execute_parallel
from repro.engine.counting import count_physical
from repro.engine.session import PLANNERS, MatchSession, plan_query
from repro.engine.verify import (
    Diagnostic,
    VerificationReport,
    verify_physical,
    verify_plan,
)
from repro.obs.catalog import STOP_REASONS

__all__ = [
    "MIN_THROUGHPUT_ELAPSED",
    "STOP_CANCELLED",
    "STOP_EMBEDDING_LIMIT",
    "STOP_MEMORY_LIMIT",
    "STOP_QUARANTINED",
    "STOP_REASONS",
    "STOP_TIME_LIMIT",
    "MatchOptions",
    "MatchResult",
    "Budget",
    "CancelToken",
    "ResourceGovernor",
    "RetryPolicy",
    "SearchState",
    "CheckpointSink",
    "PoolCheckpointDir",
    "Restored",
    "load_checkpoint",
    "load_checkpoint_set",
    "restore",
    "restore_stream",
    "write_checkpoint",
    "make_root_units",
    "root_candidates",
    "split_search_state",
    "execute_parallel",
    "ExtendOp",
    "PhysicalPlan",
    "compile_plan",
    "CandidateComputer",
    "EmbeddingStream",
    "Runtime",
    "count_capped",
    "execute_physical",
    "stream",
    "count_physical",
    "PLANNERS",
    "MatchSession",
    "plan_query",
    "Diagnostic",
    "VerificationReport",
    "verify_physical",
    "verify_plan",
]
