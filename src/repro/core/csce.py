"""The CSCE facade — the library's primary public entry point.

Usage::

    from repro import CSCE, Variant

    engine = CSCE(data_graph)            # offline: builds the CCSR store
    result = engine.match(pattern)       # online: read + plan + compile + execute
    print(result.count, result.total_seconds)

    for embedding in engine.match_iter(pattern):   # lazy streaming
        consume(embedding)

Every query runs through the engine's :class:`repro.engine.MatchSession`:
logical plans are compiled once into a
:class:`~repro.engine.PhysicalPlan` and cached per (pattern, variant,
planner, restrictions, store layout version), so repeated patterns skip the
read→optimize→compile pipeline.

Planner configurations reproduce Fig. 13's ablation:

* ``"csce"`` — GCF with cluster tie-breaks, then LDSF fine-tuning (default);
* ``"ri_cluster"`` — GCF with cluster tie-breaks, no LDSF;
* ``"ri"`` — plain RI rules, no data-graph knowledge;
* ``"rm"`` — RapidMatch-style backward-connectivity ordering;
* ``"cost"`` — Graphflow-style systematic cost estimation (an extension
  beyond the paper's heuristics, see :mod:`repro.core.cost`).
"""

from __future__ import annotations

import logging

from repro.ccsr.store import CCSRStore
from repro.core.dag import build_dag
from repro.core.gcf import gcf_order
from repro.core.plan import Plan
from repro.core.variants import Variant
from repro.engine.checkpoint import (
    CheckpointSink,
    PoolCheckpointDir,
    load_checkpoint,
    load_checkpoint_set,
    restore,
    restore_stream,
)
from repro.engine.executor import EmbeddingStream, execute_physical
from repro.engine.physical import PhysicalPlan
from repro.engine.pool import _execute_inline, execute_parallel
from repro.engine.results import MatchOptions, MatchResult
from repro.engine.session import PLANNERS, MatchSession, plan_query
from repro.graph.model import Graph
from repro.obs import NULL_OBS

logger = logging.getLogger(__name__)

__all__ = ["CSCE", "PLANNERS"]


class CSCE:
    """Clustered-CSR + Sequential-Candidate-Equivalence matching engine."""

    def __init__(
        self,
        graph: Graph | CCSRStore,
        obs=None,
        plan_cache_size: int = 64,
        verify: bool = False,
    ):
        """Build (or adopt) the CCSR store for a data graph.

        Passing a :class:`Graph` runs the offline clustering stage; passing
        a prebuilt :class:`CCSRStore` shares it across engines. ``obs`` (a
        :class:`repro.obs.Observation`) becomes the engine's default
        instrumentation for every run; per-call ``obs=`` arguments win.
        ``plan_cache_size`` bounds the session's compiled-plan LRU.
        ``verify=True`` is a debug mode: every freshly compiled plan runs
        the ahead-of-execution verifier
        (:mod:`repro.engine.verify`) and an unsound plan raises
        :class:`~repro.errors.PlanVerificationError` instead of executing.
        """
        self.session = MatchSession(
            graph, obs=obs, cache_size=plan_cache_size, verify=verify
        )
        self.store = self.session.store
        self.obs = obs

    # ------------------------------------------------------------------
    def build_plan(
        self,
        pattern: Graph,
        variant: Variant | str = Variant.EDGE_INDUCED,
        planner: str = "csce",
        obs=None,
    ) -> Plan:
        """Read clusters and optimize a matching plan (Sections IV–VI).

        Always plans fresh (no cache) — this is the inspection entry point
        behind ``repro plan`` / ``repro explain``. :meth:`match` compiles
        and caches through the session instead.
        """
        return plan_query(
            self.store,
            pattern,
            Variant.parse(variant),
            planner=planner,
            obs=obs or self.obs or NULL_OBS,
        )

    # ------------------------------------------------------------------
    def _compiled(
        self,
        pattern: Graph,
        variant: Variant,
        planner: str,
        restrictions: tuple[tuple[int, int], ...] | None,
        seed: dict[int, int] | None,
        obs,
    ) -> tuple[PhysicalPlan, dict[int, int] | None]:
        """The session's compiled plan for one call, and ``seed`` bound."""
        physical = self.session.compile(
            pattern, variant, planner=planner,
            restrictions=restrictions, obs=obs,
        ).physical
        return physical, physical.with_seed(seed, self.store) if seed else None

    def match(
        self,
        pattern: Graph,
        variant: Variant | str = Variant.EDGE_INDUCED,
        count_only: bool = False,
        max_embeddings: int | None = None,
        time_limit: float | None = None,
        use_sce: bool = True,
        planner: str = "csce",
        restrictions: tuple[tuple[int, int], ...] | None = None,
        seed: dict[int, int] | None = None,
        obs=None,
        governor=None,
        workers: int = 1,
        pool_checkpoint_dir=None,
        stall_timeout: float | None = None,
        max_respawns: int | None = None,
        max_unit_attempts: int = 3,
    ) -> MatchResult:
        """Find embeddings of ``pattern`` in the data graph.

        Parameters
        ----------
        variant:
            ``"edge_induced"`` (default), ``"vertex_induced"``, or
            ``"homomorphic"`` — or a :class:`Variant`.
        count_only:
            Count embeddings without materializing them; enables the SCE
            count factorization.
        max_embeddings / time_limit:
            Resource caps; exceeding them returns a truncated result
            (cooperative — the engine stops at the next checkpoint).
        use_sce:
            Ablation switch for candidate memoization + factorization.
        restrictions:
            Symmetry restrictions ``(u, v)`` forcing ``f(u) < f(v)``; with a
            full restriction chain each automorphism orbit is found once.
            They are compiled into the session-cached plan (and key it).
        seed:
            Pinned mappings ``{pattern vertex: data vertex}``; only
            embeddings extending the seed are produced (delta matching).
            The run binds the seed to the cached plan, uncopied; an invalid
            seed raises :class:`~repro.errors.PlanVerificationError` first.
        obs:
            A :class:`repro.obs.Observation` receiving spans (``match`` →
            ``read``/``plan``/``execute``), counters, and heartbeats for
            this run; ``None`` keeps instrumentation disabled. Cache hits
            skip the read/plan spans (the work didn't happen) and bump the
            ``plan_cache.hits`` counter instead.
        governor:
            A :class:`repro.engine.ResourceGovernor` enforcing a unified
            budget (deadline, embedding cap, memory ceiling with the
            degradation ladder) and a cooperative cancel token. Stops
            surface as ``result.stop_reason`` with the partial count;
            ``result.check()`` converts them to typed exceptions.
        workers:
            Number of worker processes. ``N > 1`` shards the search into
            portable work units executed by a :mod:`repro.engine.pool`
            process pool (requires ``count_only=True``); the merged count
            is exactly the sequential count and ``result.shards``
            summarizes the per-worker split. The heartbeat of ``obs``
            then carries per-worker rows and supervision health, so a
            :class:`repro.obs.MatchInspector` attached to it serves the
            pool as it serves any run.
        pool_checkpoint_dir:
            With ``workers > 1``: a directory that receives one shard
            checkpoint per unfinished work unit when the pool stops early;
            :meth:`resume_pool` continues from it with exact combined
            counts. A one-worker run raises ``ValueError`` (it writes no
            shards; :meth:`match_iter` with ``checkpoint_path`` checkpoints
            it).
        stall_timeout:
            With ``workers > 1``: seconds a busy worker may go silent
            before the stall watchdog SIGKILLs it and re-dispatches its
            unit (``None`` disables the watchdog).
        max_respawns:
            With ``workers > 1``: cap on replacement workers after
            deaths/stall kills (default ``3 * workers``).
        max_unit_attempts:
            With ``workers > 1``: attempts a work unit gets before it is
            quarantined to ``quarantine-NNNN.json`` in
            ``pool_checkpoint_dir`` (recover with
            :meth:`retry_quarantined`) instead of aborting the match.
        """
        variant = Variant.parse(variant)
        obs = obs or self.obs or NULL_OBS
        with obs.tracer.span(
            "match", engine="CSCE", variant=variant.value
        ) as span:
            physical, pins = self._compiled(
                pattern, variant, planner, restrictions, seed, obs
            )
            options = MatchOptions(
                count_only=count_only,
                max_embeddings=max_embeddings,
                time_limit=time_limit,
                use_sce=use_sce,
                seed=pins,
                obs=obs if obs.enabled else None,
                governor=governor,
                workers=workers,
                stall_timeout=stall_timeout,
                max_respawns=max_respawns,
                max_unit_attempts=max_unit_attempts,
            )
            result = execute_physical(
                physical,
                options,
                checkpoint=(
                    None
                    if pool_checkpoint_dir is None
                    else PoolCheckpointDir(pool_checkpoint_dir, self.store)
                ),
            )
            span.set("count", result.count)
        return result

    def match_iter(
        self,
        pattern: Graph,
        variant: Variant | str = Variant.EDGE_INDUCED,
        max_embeddings: int | None = None,
        time_limit: float | None = None,
        use_sce: bool = True,
        planner: str = "csce",
        restrictions: tuple[tuple[int, int], ...] | None = None,
        seed: dict[int, int] | None = None,
        obs=None,
        governor=None,
        checkpoint_path=None,
    ) -> EmbeddingStream:
        """Stream embeddings lazily, one ``{vertex: data vertex}`` dict at
        a time.

        Returns an :class:`repro.engine.EmbeddingStream`: iterate it (or
        use it as a context manager) and the search runs exactly as far as
        you consume — first results of a huge query arrive without paying
        for the rest. ``max_embeddings`` / ``time_limit`` (or a
        ``governor`` budget/cancel token) end the stream cooperatively
        with ``stream.stop_reason`` set; ``stream.result()`` snapshots a
        :class:`MatchResult` at any point.

        With ``checkpoint_path``, a stream that stops early (any
        ``stop_reason``) automatically writes a resumable checkpoint
        there; :meth:`resume` picks it up and continues mid-frame with
        exact combined counts (see :mod:`repro.engine.checkpoint`).

        The stream holds no tracer span open (its lifetime belongs to the
        consumer); heartbeats and profiling from ``obs`` stay live.
        """
        variant = Variant.parse(variant)
        obs = obs or self.obs or NULL_OBS
        physical, pins = self._compiled(
            pattern, variant, planner, restrictions, seed, obs
        )
        options = MatchOptions(
            max_embeddings=max_embeddings,
            time_limit=time_limit,
            use_sce=use_sce,
            seed=pins,
            obs=obs if obs.enabled else None,
            governor=governor,
        )
        return EmbeddingStream(
            physical,
            options,
            checkpoint_sink=(
                None
                if checkpoint_path is None
                else CheckpointSink(checkpoint_path, self.store)
            ),
        )

    def resume(
        self,
        checkpoint,
        max_embeddings=...,
        time_limit=...,
        governor=None,
        obs=None,
        checkpoint_path=None,
    ) -> EmbeddingStream:
        """Resume a suspended stream from a checkpoint file (or document).

        Validates the checkpoint against this engine's store —
        :class:`repro.errors.CheckpointError` if the store has mutated
        since the checkpoint was written (cluster contents drive the
        serialized candidate lists, so resuming onto changed data would
        corrupt counts). ``max_embeddings``/``time_limit`` default to the
        checkpoint's own limits; pass an override (including ``None`` for
        unlimited) to change them. ``checkpoint_path`` re-arms
        auto-checkpointing, so repeated suspend/resume cycles work with
        the same path.
        """
        if not isinstance(checkpoint, dict):
            checkpoint = load_checkpoint(checkpoint)
        return restore_stream(
            checkpoint,
            self.session,
            max_embeddings=max_embeddings,
            time_limit=time_limit,
            governor=governor,
            obs=obs or self.obs,
            checkpoint_path=checkpoint_path,
        )

    def resume_pool(
        self,
        path,
        workers: int = 2,
        max_embeddings=...,
        time_limit=...,
        governor=None,
        obs=None,
        checkpoint_dir=None,
        stall_timeout: float | None = None,
        max_respawns: int | None = None,
        max_unit_attempts: int = 3,
    ) -> MatchResult:
        """Resume a checkpoint on the worker pool: a directory of shard
        checkpoints (written via ``pool_checkpoint_dir`` / ``csce match
        --workers N --checkpoint DIR``) or a single checkpoint file, such
        as a suspended stream's.

        Every document is validated against this engine's store and
        against its siblings (same pattern, store, and query configuration
        — :class:`repro.errors.CheckpointError` on any mismatch). The
        returned result folds the checkpointed progress into the new run:
        its count is exactly the count the uninterrupted sequential match
        would have produced. ``checkpoint_dir`` re-arms shard
        checkpointing for repeated suspend/resume cycles.
        """
        run = restore(
            load_checkpoint_set(path),
            self.session,
            max_embeddings,
            time_limit,
            governor,
            obs or self.obs,
            count_only=True,
            workers=workers,
            stall_timeout=stall_timeout,
            max_respawns=max_respawns,
            max_unit_attempts=max_unit_attempts,
        )
        return execute_parallel(
            run.physical,
            run.options,
            initial_units=run.units,
            prior_emitted=run.emitted,
            prior_counters=run.counters,
            checkpoint=(
                None
                if checkpoint_dir is None
                else PoolCheckpointDir(checkpoint_dir, self.store)
            ),
        )

    def retry_quarantined(
        self,
        directory,
        max_embeddings=...,
        time_limit=...,
        governor=None,
        obs=None,
        keep_files: bool = False,
    ) -> MatchResult:
        """Replay the poison-unit residue a parallel match quarantined.

        Loads every ``quarantine-NNNN.json`` in ``directory`` (written by
        a ``csce match --workers N --checkpoint DIR`` run whose units
        exhausted their attempt budget), validates each against this
        engine's store, and re-executes the payloads **single-process** —
        the environment where the pool-only failure modes (worker death,
        injected ``pool.worker_beat`` faults) cannot recur. The returned
        :class:`MatchResult` counts exactly the embeddings the original
        match was missing: folding ``match.count + retry.count``
        reproduces the fault-free total.

        ``max_embeddings``/``time_limit`` default to the limits recorded
        in the residue documents (pass an override — including ``None``
        for unlimited — to change them). On a complete replay
        (``stop_reason is None``) the residue files are deleted unless
        ``keep_files=True``; a replay that stopped early leaves every
        file untouched — discard its partial result and retry, or resume
        it like any checkpoint.
        """
        import os

        residue = load_checkpoint_set(directory, quarantine=True)
        run = restore(
            residue, self.session, max_embeddings, time_limit, governor,
            obs or self.obs, count_only=True,
        )
        result = _execute_inline(
            run.physical, run.options, run.units, run.emitted, run.counters
        )
        if result.stop_reason is None and not keep_files:
            for path in residue:
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover - best-effort cleanup
                    logger.warning(
                        "could not delete replayed residue %s", path
                    )
        return result

    def count(self, pattern: Graph, variant: Variant | str = Variant.EDGE_INDUCED, **kwargs) -> int:
        """Shorthand: the embedding count (``count_only`` matching)."""
        return self.match(pattern, variant, count_only=True, **kwargs).count

    def query(
        self,
        text: str,
        variant: Variant | str = Variant.EDGE_INDUCED,
        **match_kwargs,
    ):
        """Run a DSL pattern expression and get named rows back.

        >>> engine.query("(a:P)-[:knows]-(b:P)").rows
        [{'a': 0, 'b': 1}, {'a': 1, 'b': 0}]
        """
        from repro.core.query import run_query

        return run_query(self, text, variant, **match_kwargs)

    def sce_report(
        self,
        pattern: Graph,
        variant: Variant | str = Variant.EDGE_INDUCED,
        paper_faithful: bool = True,
    ):
        """How much Sequential Candidate Equivalence this task exhibits.

        Returns the :class:`~repro.core.equivalence.SCEStats` measured on
        the GCF order's dependency DAG — the Fig. 12 metric, available for
        any (pattern, variant) without running the match.
        """
        from repro.core.equivalence import sce_statistics

        variant = Variant.parse(variant)
        task = self.store.read(pattern, variant, obs=self.obs or NULL_OBS)
        order = gcf_order(pattern, task)
        dag = build_dag(pattern, order, variant, task, paper_faithful=paper_faithful)
        return sce_statistics(pattern, dag)

    def __repr__(self) -> str:
        return f"<CSCE over {self.store!r}>"
