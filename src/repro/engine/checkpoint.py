"""Suspend/resume checkpoints for the streaming executor and the pool.

Because the executor keeps its entire search state in an explicit
:class:`~repro.engine.executor.SearchState` (frame stack, scan cursors,
injectivity set), a suspended run serializes to a small JSON document and
resumes *mid-frame*: the per-depth candidate lists are stored verbatim, so
the resumed scan continues at the exact cursor position and the combined
embedding count is identical to an uninterrupted run.

Checkpoint document (``format`` = ``"repro-checkpoint"``, ``version`` 1)::

    {
      "format": "repro-checkpoint", "version": 1,
      "pattern":  {"text": ..., "digest": ...},       # the query pattern
      "store":    {"version": ..., "digest": ...},    # guard, see below
      "query":    {"variant", "planner", "restrictions", "seed", "use_sce"},
      "limits":   {"max_embeddings", "time_limit"},   # the run's RunLimits
      "progress": {"emitted", "stop_reason", "degradation", "counters"},
      "state":    <SearchState payload>
    }

**A checkpoint is a set of such documents** for one query: their
``progress`` sections add up to the confirmed prefix and their ``state``
payloads are the unfinished work units. A suspended stream writes a set of
one; a suspended pool writes one ``shard-NNNN.json`` per unfinished unit
and its poison units ``quarantine-NNNN.json``. Every writer stamps the
query identity from the compiled plan it ran, and :func:`restore` is the
one reader: stream resume, pool resume and quarantine replay all start
from its :class:`Restored` query.

**Compatibility guard.** A checkpoint stores candidate lists of concrete
data-vertex ids, so it is only valid against the exact store it was taken
from. Resume re-derives both guards — the pattern digest (from the
re-parsed pattern text) and the store digest (vertex/edge counts plus every
cluster's key and size) — and refuses with :class:`~repro.errors.CheckpointError`
on any mismatch, including a bumped :attr:`~repro.ccsr.store.CCSRStore.version`
(incremental updates rebuild clusters, invalidating the lists). Planning is
deterministic given an identical store, so the recompiled physical plan has
the same op sequence the frame stack was built against.

The SCE candidate memo is deliberately *not* checkpointed — like CEMR's
redundant extensions it is a pure cache, so a resumed run recomputes what
it needs; counters, in contrast, are restored so stats stay cumulative
across the suspend/resume boundary.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.engine.executor import EmbeddingStream, SearchState
from repro.engine.governor import DEGRADE_DISABLE
from repro.engine.results import STOP_QUARANTINED, MatchOptions
from repro.errors import CheckpointError
from repro.obs.catalog import CANDIDATE_STAT_KEYS, RUNTIME_STAT_KEYS
from repro.obs.merge import merge_counters

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.ccsr.store import CCSRStore
    from repro.core.variants import Variant
    from repro.engine.governor import ResourceGovernor, RunLimits
    from repro.engine.physical import PhysicalPlan
    from repro.engine.session import MatchSession
    from repro.graph.model import Graph

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 1

#: Filename prefix of poison-unit residue documents in a pool checkpoint
#: directory. A pool resume skips them (it must not re-run what
#: ``csce retry-quarantined`` replays — that would double count).
QUARANTINE_PREFIX = "quarantine-"

#: A pool shard document's filename (``shard-NNNN.json``).
_SHARD_NAME = re.compile(r"shard-\d+\.json")

#: Declared wire-format manifests for this module, gated by the
#: ``wire_schema`` reprolint pass: every listed encoder must write exactly
#: the declared key set (including the format/version stamps), every
#: listed decoder may read only declared keys, and changing a ``keys``
#: tuple without bumping the format's version fails
#: ``reprolint --diff`` (see docs/static-analysis.md). Encoder/decoder
#: entries are ``"func"`` / ``"Class.method"``, optionally suffixed
#: ``":var"`` to name the local dict that becomes the document.
WIRE_MANIFESTS: dict[str, dict] = {
    "checkpoint": {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "keys": (
            "format",
            "version",
            "pattern",
            "store",
            "query",
            "limits",
            "progress",
            "state",
        ),
        "encoders": ("checkpoint_payload",),
        "decoders": (
            "validate_checkpoint",
            "decode_query",
            "restore:payload",
            "check_store_compatibility",
        ),
    },
    "quarantine-residue": {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "keys": (
            "format",
            "version",
            "pattern",
            "store",
            "query",
            "limits",
            "progress",
            "state",
            "quarantine",
        ),
        "encoders": ("PoolCheckpointDir.write_quarantine:payload",),
        "decoders": ("validate_checkpoint",),
    },
}


def _digest(obj: object) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


def pattern_digest(pattern: Graph) -> str:
    """Canonical digest of a pattern graph (labels + sorted edge set)."""
    labels, edges = pattern.fingerprint()
    return _digest((tuple(labels), sorted(edges, key=repr)))


def store_digest(store: CCSRStore) -> str:
    """Canonical digest of a CCSR store's structure: vertex/edge counts
    plus every cluster's key and entry count. Cheap (no per-edge work)
    yet sensitive to any incremental update."""
    clusters = sorted(
        (str(key), cluster.num_entries)
        for key, cluster in store.clusters.items()
    )
    return _digest((store.num_vertices, store.num_edges, clusters))


def checkpoint_payload(
    physical: PhysicalPlan,
    store: CCSRStore,
    options: MatchOptions,
    limits: RunLimits,
    progress: dict,
    state: dict,
) -> dict:
    """One checkpoint document: a work unit's ``state`` payload and the
    ``progress`` it carries, stamped with the query identity (pattern,
    variant, planner, restrictions; seed pins from ``options.seed``) of the
    run, its ``options`` and the ``limits`` it enforced (its cap and
    relative time limit, so a resume keeps them). Every writer — stream,
    pool shard, quarantine residue — builds its document here."""
    from repro.graph.io import format_graph_text, parse_graph_text

    plan = physical.logical
    # Digest the *re-parsed* text so the guard survives the label
    # stringification of the text format (int labels round-trip as int,
    # everything else as str).
    text = format_graph_text(plan.pattern)
    digest = pattern_digest(parse_graph_text(text))
    pins = sorted((options.seed or {}).items())
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "pattern": {"text": text, "digest": digest},
        "store": {
            "version": store.version,
            "digest": store_digest(store),
            "num_vertices": store.num_vertices,
            "num_edges": store.num_edges,
            "name": store.name,
        },
        "query": {
            "variant": plan.variant.value,
            "planner": plan.planner_name,
            "restrictions": [list(pair) for pair in physical.restrictions],
            "seed": pins or None,
            "use_sce": options.use_sce,
        },
        "limits": {
            "max_embeddings": limits.cap,
            "time_limit": limits.time_limit,
        },
        "progress": progress,
        "state": state,
    }


def _write_json_atomic(path: str | os.PathLike, payload: dict) -> None:
    """Write ``payload`` to ``path`` via a pid-unique temp file + atomic
    rename. The pid suffix keeps concurrent writers (pool workers and
    their parent checkpointing against the same directory) from clobbering
    each other's in-flight temp file; ``os.replace`` makes the final
    document appear atomically either way."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_checkpoint(
    path: str | os.PathLike, stream: EmbeddingStream, store: CCSRStore
) -> dict:
    """Serialize a suspended :class:`EmbeddingStream` to ``path``
    (atomically, via a temp file) and return the document. The stream
    must not be iterated afterwards (the state snapshot aliases its live
    frame stack)."""
    runtime = stream.runtime
    payload = checkpoint_payload(
        stream.physical,
        store,
        stream.options,
        runtime.limits,
        {
            "emitted": runtime.emitted,
            "stop_reason": runtime.stop_reason,
            "degradation": list(runtime.degradation),
            "counters": {
                **{k: getattr(runtime, k) for k in RUNTIME_STAT_KEYS},
                **runtime.computer.stats.as_dict(),
            },
        },
        stream.state.to_payload(),
    )
    _write_json_atomic(path, payload)
    return payload


def load_checkpoint(path: str | os.PathLike) -> dict:
    """Read and structurally validate a checkpoint document."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON: {exc}"
        ) from exc
    validate_checkpoint(payload)
    return payload


def load_checkpoint_set(
    path: str | os.PathLike, quarantine: bool = False
) -> dict[str, dict]:
    """Load a checkpoint set: one document file, or a pool checkpoint
    directory's shards — every ``*.json`` except the quarantine residue,
    or with ``quarantine=True`` only the ``quarantine-NNNN.json``
    residue. Returns ``{path: document}`` in sorted-filename order; the
    paths let ``retry_quarantined`` delete the residue it replayed.
    Whether the documents belong together is :func:`restore`'s check."""
    if not os.path.isdir(path):
        return {str(path): load_checkpoint(path)}
    try:
        names = sorted(
            name
            for name in os.listdir(path)
            if name.endswith(".json")
            and name.startswith(QUARANTINE_PREFIX) == quarantine
        )
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint directory {path}: {exc}"
        ) from exc
    if not names:
        wanted = (
            f"{QUARANTINE_PREFIX}*.json residue — nothing to retry"
            if quarantine
            else "*.json shards"
        )
        raise CheckpointError(
            f"checkpoint directory {path} contains no {wanted}"
        )
    paths = [os.path.join(path, name) for name in names]
    return {p: load_checkpoint(p) for p in paths}


def validate_checkpoint(payload: dict) -> None:
    """Raise :class:`CheckpointError` unless ``payload`` is a structurally
    complete checkpoint of a supported version."""
    if not isinstance(payload, dict):
        raise CheckpointError("checkpoint must be a JSON object")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"not a checkpoint document (format={payload.get('format')!r})"
        )
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {payload.get('version')!r}"
            f" (this build reads version {CHECKPOINT_VERSION})"
        )
    for section in ("pattern", "store", "query", "limits", "progress", "state"):
        if not isinstance(payload.get(section), dict):
            raise CheckpointError(f"checkpoint is missing section {section!r}")
    for field in ("assignment", "used", "values", "index", "emitted_at", "pos"):
        if field not in payload["state"]:
            raise CheckpointError(
                f"checkpoint state is missing field {field!r}"
            )


def check_store_compatibility(payload: dict, store: CCSRStore) -> None:
    """Refuse to resume onto a store that is not byte-for-byte the one the
    checkpoint was taken from."""
    recorded = payload["store"]
    if recorded.get("version") != store.version:
        raise CheckpointError(
            f"store has mutated since the checkpoint was written"
            f" (checkpoint store version {recorded.get('version')},"
            f" current {store.version}); the checkpointed candidate lists"
            " are invalid — re-run the query instead of resuming"
        )
    if recorded.get("digest") != store_digest(store):
        raise CheckpointError(
            "store contents do not match the checkpoint (digest mismatch);"
            " resuming would corrupt counts — re-run the query instead"
        )


def decode_query(
    payload: dict,
) -> tuple[Graph, Variant, str, tuple | None, dict | None]:
    """The query a checkpoint document describes: its pattern (parsed and
    checked against its digest), variant, planner, restrictions and seed,
    as ``(pattern, variant, planner, restrictions, seed)``."""
    from repro.core.variants import Variant
    from repro.graph.io import parse_graph_text

    pattern = parse_graph_text(payload["pattern"]["text"], name="resumed")
    if pattern_digest(pattern) != payload["pattern"].get("digest"):
        raise CheckpointError(
            "checkpoint pattern does not match its digest (corrupt document)"
        )
    query = payload["query"]
    restrictions = (
        tuple((int(u), int(v)) for u, v in query["restrictions"])
        if query["restrictions"]
        else None
    )
    seed = (
        {int(u): int(v) for u, v in query["seed"]}
        if query.get("seed")
        else None
    )
    return (
        pattern, Variant.parse(query["variant"]), query["planner"],
        restrictions, seed,
    )


@dataclass
class Restored:
    """A checkpoint set folded into one resumable query: the recompiled
    plan and run options, the unfinished unit states, and the confirmed
    prefix — the summed ``emitted``, the merged counters and the longest
    degradation ladder of the set."""

    physical: PhysicalPlan
    options: MatchOptions
    units: list[dict]
    emitted: int
    counters: dict
    degradation: list[str]


def restore(
    documents: dict[str, dict],
    session: MatchSession,
    max_embeddings: Any = ...,
    time_limit: Any = ...,
    governor: ResourceGovernor | None = None,
    obs: Any = None,
    **options: Any,
) -> Restored:
    """Validate a checkpoint set and recompile its query through
    ``session`` — the one restore step of stream resume, pool resume and
    quarantine replay.

    ``documents`` maps a label (the file path) to each document, as
    :func:`load_checkpoint_set` returns it. Every document is validated,
    all must describe the same pattern, store and query (a set of
    unrelated checkpoints is refused rather than summed into a nonsense
    count), and the store guard runs against ``session.store``.
    ``max_embeddings``/``time_limit`` left at ``...`` keep the
    checkpoint's own limits (pass an override — including ``None`` for
    unlimited — to change them); extra keyword ``options`` go to
    :class:`MatchOptions`. The plan is compiled with the checkpoint's
    restrictions and its seed bound with
    :meth:`~repro.engine.physical.PhysicalPlan.with_seed`, so the restored
    run executes the query the checkpointed one ran.
    """
    if not documents:
        raise CheckpointError("empty checkpoint set: nothing to restore")
    (first_name, first), *siblings = documents.items()
    validate_checkpoint(first)
    for name, payload in siblings:
        validate_checkpoint(payload)
        for section in ("pattern", "store", "query"):
            if payload[section] != first[section]:
                raise CheckpointError(
                    f"{name} does not belong to this checkpoint set"
                    f" ({section} section differs from {first_name})"
                )
    check_store_compatibility(first, session.store)
    pattern, variant, planner, restrictions, seed = decode_query(first)
    progress = [payload["progress"] for payload in documents.values()]
    degradation = max(
        (list(p.get("degradation") or []) for p in progress), key=len
    )
    limits = first["limits"]
    if max_embeddings is ...:
        max_embeddings = limits.get("max_embeddings")
    if time_limit is ...:
        time_limit = limits.get("time_limit")
    physical = session.compile(
        pattern, variant, planner=planner, restrictions=restrictions, obs=obs
    ).physical
    # A run that degraded past DEGRADE_DISABLE must not re-enable the memo
    # on resume — the memory pressure that forced it off is still the
    # operative assumption until the governor says otherwise.
    use_sce = bool(first["query"]["use_sce"]) and (
        DEGRADE_DISABLE not in degradation
    )
    return Restored(
        physical=physical,
        options=MatchOptions(
            max_embeddings=max_embeddings,
            time_limit=time_limit,
            use_sce=use_sce,
            seed=physical.with_seed(seed, session.store) if seed else None,
            obs=obs if obs is not None and obs.enabled else None,
            governor=governor,
            **options,
        ),
        units=[payload["state"] for payload in documents.values()],
        emitted=sum(int(p.get("emitted", 0)) for p in progress),
        counters=merge_counters(*(p.get("counters") or {} for p in progress)),
        degradation=degradation,
    )


def restore_stream(
    payload: dict,
    session: MatchSession,
    max_embeddings: Any = ...,
    time_limit: Any = ...,
    governor: ResourceGovernor | None = None,
    obs: Any = None,
    checkpoint_path: str | os.PathLike | None = None,
) -> EmbeddingStream:
    """Rebuild a live :class:`EmbeddingStream` from one checkpoint
    document: :func:`restore`, then the restored counters and ladder
    written back into the stream's runtime so stats stay cumulative.
    A fresh ``time_limit`` budget restarts from resume time;
    ``checkpoint_path`` re-arms auto-checkpointing on the resumed stream.
    """
    run = restore(
        {"checkpoint": payload}, session, max_embeddings, time_limit,
        governor, obs,
    )
    stream = EmbeddingStream(
        run.physical,
        run.options,
        state=SearchState.from_payload(run.units[0]),
        emitted=run.emitted,
        checkpoint_sink=(
            None
            if checkpoint_path is None
            else CheckpointSink(checkpoint_path, session.store)
        ),
    )
    runtime = stream.runtime
    for key in RUNTIME_STAT_KEYS:
        if key in run.counters:
            setattr(runtime, key, int(run.counters[key]))
    for key in CANDIDATE_STAT_KEYS:
        if key in run.counters:
            setattr(runtime.computer.stats, key, int(run.counters[key]))
    # The governor reads the ladder position off this list, so the
    # resumed run climbs on from the checkpoint's last rung.
    runtime.degradation = run.degradation
    return stream


class CheckpointSink:
    """Auto-checkpoint hook attached to an :class:`EmbeddingStream`.

    ``CSCE.match_iter(..., checkpoint_path=...)`` installs one; when the
    stream stops early with a resumable ``stop_reason`` the sink writes
    the checkpoint document to ``path``. ``written`` holds the last
    document (None until a write happens). The live inspector's
    ``checkpoint-now`` command routes through :meth:`write_on_demand`,
    which additionally counts in ``on_demand`` — mid-run snapshots of a
    still-running stream, as opposed to the suspend-time write."""

    def __init__(self, path: str | os.PathLike, store: CCSRStore) -> None:
        self.path = path
        self.store = store
        self.written: dict | None = None
        self.on_demand = 0

    def write(self, stream: EmbeddingStream) -> None:
        self.written = write_checkpoint(self.path, stream, self.store)

    def write_on_demand(self, stream: EmbeddingStream) -> dict:
        """Write a mid-run checkpoint (inspector ``checkpoint-now`` /
        SIGUSR2). Must run at a consistent point of the stream — a
        heartbeat tick on the executor thread, or after the run ended."""
        self.write(stream)
        self.on_demand += 1
        assert self.written is not None
        return self.written


class PoolCheckpointDir:
    """Checkpoint writer for a partially-completed worker pool.

    One standard version-1 checkpoint document per *unfinished* work
    unit, written as ``shard-NNNN.json`` into ``directory`` — each shard
    is a complete, standalone-resumable checkpoint (``csce match
    --resume`` on a single shard file works), and ``CSCE.resume_pool``
    re-enqueues all of them. The pool's *completed* progress (merged
    emitted count and counters) rides on shard 0 only; the other shards
    carry zero progress, so summing ``progress.emitted`` across shards
    never double counts.
    """

    def __init__(self, directory: str | os.PathLike, store: CCSRStore) -> None:
        self.directory = str(directory)
        self.store = store
        self.written: list[str] = []

    def write(
        self,
        physical: PhysicalPlan,
        options: MatchOptions,
        limits: RunLimits,
        units: list[dict],
        emitted: int,
        counters: dict,
        stop_reason: str | None,
        degradation: list[str],
    ) -> list[str]:
        """Write one shard checkpoint per unit state payload and delete
        the shards of an earlier stop this write did not replace (a
        resume would count them again); returns the written paths.
        ``emitted``/``counters`` are the pool's *confirmed* completed
        totals (attached to shard 0)."""
        os.makedirs(self.directory, exist_ok=True)
        self.written = []
        for i, state in enumerate(units):
            path = os.path.join(self.directory, f"shard-{i:04d}.json")
            progress = {
                "emitted": emitted if i == 0 else 0,
                "stop_reason": stop_reason,
                "degradation": list(degradation) if i == 0 else [],
                "counters": dict(counters) if i == 0 else {},
            }
            _write_json_atomic(
                path,
                checkpoint_payload(
                    physical, self.store, options, limits, progress, state
                ),
            )
            self.written.append(path)
        for name in os.listdir(self.directory):
            path = os.path.join(self.directory, name)
            if _SHARD_NAME.fullmatch(name) and path not in self.written:
                os.unlink(path)
        return self.written

    def write_quarantine(
        self,
        physical: PhysicalPlan,
        options: MatchOptions,
        limits: RunLimits,
        state: dict,
        unit: int,
        attempts: int,
        error: str | None,
    ) -> str:
        """Write one poison unit's residue as ``quarantine-NNNN.json``
        (``NNNN`` = the pool unit id) and return the path.

        The document is a standard version-1 checkpoint — the unit's
        current payload, zero progress (nothing of it was merged since
        its last bank) — plus a ``quarantine`` metadata block recording
        why it was exiled. ``csce match --resume`` on the file works,
        but the intended replay path is ``csce retry-quarantined``,
        which folds and deletes the residue."""
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(
            self.directory, f"{QUARANTINE_PREFIX}{unit:04d}.json"
        )
        progress = {
            "emitted": 0,
            "stop_reason": STOP_QUARANTINED,
            "degradation": [],
            "counters": {},
        }
        payload = {
            **checkpoint_payload(
                physical, self.store, options, limits, progress, dict(state)
            ),
            "quarantine": {
                "unit": int(unit),
                "attempts": int(attempts),
                "error": error,
            },
        }
        _write_json_atomic(path, payload)
        return path
