"""Layer-split benchmark driver for the CSCE matcher.

Run from the repository root::

    python3 perfbench/run.py --workload dip-dense-edge --seed 1 --seconds 15 --trace 0

One process, one client, closed loop: each operation (one query, or one
edge update) is issued after the previous one returns. Every operation
carries the always-on instruments (``Observation(trace=False)``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs a fixed
prefix of the operation sequence twice, untraced and then with span
recorders around the library's entry points (``spans.py``), and prints
the per-layer metrics. The last line of standard output is one JSON
object; the lines before it are for people. A full record (environment,
per-operation latencies and paths, spans) goes to ``.perfbench/``.

See ``perfbench/README.md`` for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from spans import SpanRecorder  # noqa: E402
from workloads import (  # noqa: E402
    DENSE_VARIANTS,
    SCALES,
    WORKLOADS,
    ContinuousInputs,
    adjacency,
    catalog_digest,
    make_inputs,
)

SETUP_REPEATS = 5
# Operation and set-up times are the process's CPU time. The closed loop
# is one CPU-bound thread that never waits, so on an unshared core CPU
# time is its wall time; on a shared machine the wall clock also counts
# the time the process sat descheduled (a fixed 20 ms loop measured
# 14-56 ms wall but 14-22 ms CPU on the 2-core sandbox it was tuned on).
CLOCK = time.process_time
# That time is then scaled to a reference machine speed measured between
# operations, because other tenants also slow the core itself: the same
# query's CPU time varied by 18% (coefficient of variation) over a minute,
# but by 5% per ten queries once divided by the interleaved probe. Every
# end-to-end time is in seconds of a machine on which ``probe()`` takes
# ``REFERENCE_PROBE_S``; raw CPU and wall figures go to the run record.
PROBE_LOOPS = 50_000
REFERENCE_PROBE_S = 0.004
PROBE_EVERY_S = 0.1
# A cap above any total: the capped-count reference path without a cap.
UNCAPPED = 2**62
EXPECTED_DIR = BENCH_DIR / "expected"
STOP_CAP = "embedding_limit"


def load_repro() -> None:
    """Put the checkout's ``src`` on the path; exit 2 if it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def expected_group(workload: str) -> str:
    return "dip-dense" if workload in DENSE_VARIANTS else workload


def load_expected(workload: str, scale) -> dict | None:
    """Committed counts, if they were made from this workload's catalog
    at this scale (the digest pins them). They hold for every seed: a seed
    only orders the queries."""
    path = EXPECTED_DIR / f"{expected_group(workload)}.json"
    if not path.is_file():
        return None
    entry = json.loads(path.read_text())
    if entry.get("digest") != catalog_digest(workload, scale):
        return None
    return entry


def to_graph(n: int, edges):
    from repro import Graph

    return Graph.from_edges(n, edges)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class QueryState:
    """One set-up query workload: engine, patterns, per-op expectations."""

    def __init__(self, inputs, obs) -> None:
        from repro import CSCE

        self.inputs = inputs
        self.obs = obs
        self.engine = CSCE(
            to_graph(inputs.n, inputs.edges),
            plan_cache_size=len(inputs.patterns) + 8,
        )
        self.patterns = [to_graph(k, edges) for k, edges in inputs.patterns]

    max_ops = None  # queries cycle through the patterns

    @property
    def min_ops(self) -> int:
        """A run issues every query at least once, so that the distinct
        queries it measures do not depend on how fast they are."""
        return len(self.patterns)

    def op_key(self, i: int) -> int:
        """Operations with one key are the same query."""
        return i % len(self.patterns)

    def warm(self) -> None:
        """Fill the plan cache so the timed loop measures execution."""
        for pattern, variant in zip(self.patterns, self.inputs.variants):
            self.engine.session.compile(pattern, variant, obs=self.obs)

    def run_op(self, i: int) -> tuple[int, str | None]:
        j = i % len(self.patterns)
        result = self.engine.match(
            self.patterns[j],
            self.inputs.variants[j],
            count_only=True,
            max_embeddings=self.inputs.caps[j],
            obs=self.obs,
        )
        return result.count, result.stop_reason

    def op_ok(self, i: int, count: int, stop: str | None, expected) -> bool:
        j = i % len(self.patterns)
        cap = self.inputs.caps[j]
        if stop is not None and not (stop == STOP_CAP and count == cap):
            return False
        return expected is None or count == expected[j]

    def expected(self, entry) -> list[int] | None:
        """Committed counts in this run's query order. Dense files hold one
        list per variant (both dense workloads share them), the road file
        one list over its catalog's queries."""
        if entry is None:
            return None
        variants = set(self.inputs.variants)
        counts = entry[variants.pop()] if len(variants) == 1 else entry["counts"]
        return [counts[o] for o in self.inputs.origin]

    def verify(self, loop, entry) -> tuple[list[bool], str, int]:
        """Per-op correctness (``loop.ok`` already compared committed
        counts), or, with none committed, counts derived now by the
        *other* execution path (see ``reference_count``)."""
        if entry is not None:
            return loop.ok, "committed", 0
        k = len(self.patterns)
        adj = adjacency(self.inputs.n, self.inputs.edges)
        refs = {
            j: reference_count(
                self.engine, self.inputs.patterns[j], self.inputs.variants[j],
                self.inputs.caps[j], adj,
            )
            for j in sorted({i % k for i in range(len(loop.counts))})
        }
        ok = [
            good and count == refs[i % k]
            for i, (good, count) in enumerate(zip(loop.ok, loop.counts))
        ]
        return ok, "derived", 0


def valid_embedding(image: tuple[int, ...], pattern_edges, adj,
                    variant: str) -> bool:
    """Whether ``image`` (pattern vertex ``u`` to data vertex
    ``image[u]``) embeds the pattern in the data graph under ``variant``:
    every pattern edge lands on a data edge; unless homomorphic, no two
    pattern vertices share a data vertex; vertex-induced, no pattern
    non-edge lands on a data edge. Pattern edges are ``(low, high)``."""
    if any(image[b] not in adj[image[a]] for a, b in pattern_edges):
        return False
    if variant == "homomorphic":
        return True
    k = len(image)
    if len(set(image)) != k:
        return False
    if variant != "vertex_induced":
        return True
    edges = set(pattern_edges)
    return not any(
        image[b] in adj[image[a]]
        for a in range(k)
        for b in range(a + 1, k)
        if (a, b) not in edges
    )


def reference_count(engine, pattern, variant: str, cap: int | None,
                    adj=None) -> int | None:
    """The count of ``pattern`` (``(k, edges)``) by the path the timed
    loop does not take. An exact count is timed on the factorized
    counter, so its reference is the frame machine's capped count with a
    cap above any total. A capped count is timed on the frame machine's
    count mode, so its reference is the streaming enumerator under the
    same cap, with every embedding checked against the data graph
    (``adj``, its adjacency lists); ``None`` if one is invalid or
    repeated."""
    k, edges = pattern
    graph = to_graph(k, edges)
    if cap is None:
        return engine.match(
            graph, variant, count_only=True, max_embeddings=UNCAPPED
        ).count
    seen: set[tuple[int, ...]] = set()
    stream = engine.match_iter(graph, variant, max_embeddings=cap)
    with stream:
        for embedding in stream:
            image = tuple(embedding[u] for u in range(k))
            if image in seen or not valid_embedding(image, edges, adj, variant):
                return None
            seen.add(image)
    return len(seen)


class ContinuousState:
    """A standing query over a store that the update stream mutates."""

    def __init__(self, inputs: ContinuousInputs, obs) -> None:
        from repro import CSCE
        from repro.core.continuous import ContinuousMatcher

        self.inputs = inputs
        self.obs = obs
        self.engine = CSCE(to_graph(inputs.n, inputs.edges))
        self.query = to_graph(*inputs.query)
        self.matcher = ContinuousMatcher(self.engine, self.query, obs=obs)
        self.initial_total = self.matcher.total
        self.applied = 0
        self.max_ops = len(inputs.updates)

    # Every update is a distinct operation, drawn from a stationary
    # stream, so a run that gets further measures the same mix.
    min_ops = 0

    def warm(self) -> None:
        pass

    def op_key(self, i: int) -> int:
        return i

    def run_op(self, i: int) -> tuple[int, str | None]:
        kind, u, v = self.inputs.updates[i]
        apply = self.matcher.insert if kind == "insert" else self.matcher.remove
        delta = apply(u, v)
        self.applied = i + 1
        return delta.count, delta.stop_reason

    def op_ok(self, i: int, count: int, stop: str | None, expected) -> bool:
        return stop is None

    def final_graph_edges(self) -> set[tuple[int, int]]:
        edges = set(self.inputs.edges)
        for kind, u, v in self.inputs.updates[: self.applied]:
            if kind == "insert":
                edges.add((u, v))
            else:
                edges.discard((u, v))
        return edges

    def expected(self, entry) -> None:
        return None

    def verify(self, loop, entry) -> tuple[list[bool], str, int]:
        """Each update returned without a stop; besides, the initial total
        matches the committed one (or a capped recount), and the
        maintained total equals a fresh count of the final graph, which
        the benchmark rebuilds from the stream it applied. Each wrong
        total is one more failure."""
        from repro import CSCE

        if entry is not None:
            initial = entry["initial_total"]
        else:
            engine = CSCE(to_graph(self.inputs.n, self.inputs.edges))
            initial = reference_count(
                engine, self.inputs.query, "edge_induced", None
            )
        final = CSCE(
            to_graph(self.inputs.n, sorted(self.final_graph_edges()))
        ).count(self.query)
        wrong = (initial != self.initial_total) + (final != self.matcher.total)
        return loop.ok, "recount", wrong


def make_state(workload: str, seed: int, scale, obs):
    inputs = make_inputs(workload, seed, scale)
    if isinstance(inputs, ContinuousInputs):
        return ContinuousState(inputs, obs)
    return QueryState(inputs, obs)


def probe() -> float:
    """CPU time of a fixed pure-Python loop: the machine's current speed."""
    start = CLOCK()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return CLOCK() - start


def machine_speed() -> float:
    """The median of five probes, for scaling one long stretch of work."""
    return statistics.median(probe() for _ in range(5))


class Normalizer:
    """Scales CPU times to the reference speed ``REFERENCE_PROBE_S``.

    A probe runs between operations once ``PROBE_EVERY_S`` of operation
    time has passed, and scales the operations since the previous probe.
    """

    def __init__(self) -> None:
        self.normalized: list[float] = []
        self.probes: list[float] = []
        self.total = 0.0  # normalized seconds so far, pending ones estimated
        self._pending: list[float] = []
        self._since = 0.0
        self._scale = 1.0

    def add(self, cpu_s: float) -> None:
        self._pending.append(cpu_s)
        self._since += cpu_s
        self.total += cpu_s * self._scale
        if self._since >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        speed = probe()
        self.probes.append(speed)
        self._scale = REFERENCE_PROBE_S / speed
        self.normalized.extend(x * self._scale for x in self._pending)
        self.total = sum(self.normalized)
        self._pending = []
        self._since = 0.0


def timed_setup(workload, seed, scale, repeats: int):
    """Set up ``repeats`` times; returns the last state and the
    normalized set-up times."""
    from repro.obs import Observation

    durations = []
    state = None
    for _ in range(repeats):
        state = None
        gc.collect()
        start = CLOCK()
        state = make_state(workload, seed, scale, Observation(trace=False))
        raw = CLOCK() - start
        durations.append(raw * REFERENCE_PROBE_S / machine_speed())
    return state, durations


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class LoopResult:
    def __init__(self) -> None:
        self.latencies: list[float] = []  # normalized CPU seconds
        self.raw_latencies: list[float] = []  # CPU seconds as measured
        self.counts: list[int | None] = []
        self.ok: list[bool] = []
        self.errors: list[str] = []
        self.probes: list[float] = []
        self.cpu = 0.0
        self.wall = 0.0


def closed_loop(state, expected, seconds: float | None = None,
                max_ops: int | None = None, after_op=None,
                normalize: bool = True) -> LoopResult:
    """Issue operations 0, 1, 2, ... one after another until their
    latencies add up to ``seconds`` and ``state.min_ops`` were issued, or
    ``max_ops`` were issued, or the workload runs out. ``after_op(i)``
    runs after each operation.

    Latencies are CPU time (see ``CLOCK``), scaled to the reference speed
    when ``normalize`` (see ``Normalizer``), so a run does the same work
    however fast the machine is at the time. The wall clock only caps the
    loop at four times ``seconds``, in case the process hardly gets a core.
    """
    out = LoopResult()
    norm = Normalizer()
    limit = min(x for x in (max_ops, state.max_ops, math.inf) if x is not None)
    wall_start = time.perf_counter()
    start = CLOCK()
    budget = seconds if seconds is not None else math.inf
    wall_deadline = wall_start + 4 * budget
    i = 0
    while (i < limit and (i < state.min_ops or norm.total < budget)
           and time.perf_counter() < wall_deadline):
        t0 = CLOCK()
        try:
            count, stop = state.run_op(i)
            good = state.op_ok(i, count, stop, expected)
        except Exception as exc:  # a failed operation, not a crash
            count, good = None, False
            out.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        out.raw_latencies.append(CLOCK() - t0)
        if normalize:
            norm.add(out.raw_latencies[-1])
        else:
            norm.total += out.raw_latencies[-1]
        out.counts.append(count)
        out.ok.append(good)
        if after_op is not None:
            after_op(i)
        i += 1
    norm.flush()
    out.cpu = CLOCK() - start
    out.wall = time.perf_counter() - wall_start
    out.latencies = norm.normalized if normalize else out.raw_latencies
    out.probes = norm.probes
    return out


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and the
    latency there (linear interpolation); the median below 20 samples."""
    n = len(latencies)
    if n < 20:
        pct = 50.0
    else:
        pct = math.floor(1000 * (1 - 10 / n)) / 10
    ordered = sorted(latencies)
    pos = (n - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return pct, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment(workload, seed, scale_name) -> dict:
    import numpy

    from repro.bench.history import calibrate

    return {
        "workload": workload,
        "seed": seed,
        "scale": scale_name,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_seconds": calibrate(),
    }


def per_operation(state, latencies: list[float]) -> list[float]:
    """One latency sample per distinct operation: the median over the
    repetitions of a query that the loop reached more than once. Repeats
    of one query are not independent samples, and with them in, a tail
    percentile jumps between the costs of the few heaviest queries as the
    number of repetitions shifts (road: p99 moved 134-270 ms)."""
    groups: dict[int, list[float]] = {}
    for i, latency in enumerate(latencies):
        groups.setdefault(state.op_key(i), []).append(latency)
    return [statistics.median(v) for v in groups.values()]


def end_to_end(state, loop: LoopResult, ok: list[bool], setup: list[float],
               extra_failures: int, rss_mb: float) -> tuple[dict, dict]:
    n = len(loop.latencies)
    failed = ok.count(False) + extra_failures
    samples = per_operation(state, loop.latencies)
    pct, tail_s = tail(samples)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        # Each distinct operation counts once, at its median latency: a
        # faster commit repeats more of the query suite, and counting the
        # repeats would weigh the suite's queries differently.
        "ops_per_s": (len(samples) / sum(samples), "1/s"),
        "op_p50_ms": (1000 * statistics.median(samples), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_frac": (1 - failed / max(1, n), "ratio"),
    }
    notes = {
        "ops_per_s": (
            f"over {len(samples)} distinct operations; all {n}:"
            f" {n / sum(loop.raw_latencies):.4g}/s by CPU time,"
            f" {n / loop.wall:.4g}/s by the wall clock"
        ),
        "op_p50_ms": f"{len(samples)} distinct operations of {n}",
        "op_tail_ms": f"p{pct:g}, n={len(samples)}",
        "setup_s": f"median of {len(setup)}",
        "success_frac": f"failed_frac={failed / max(1, n):.4f} ({failed}/{n})",
    }
    return metrics, notes


class LayerStats:
    """Per-layer counters gathered from each ``execute_physical`` result
    while the traced window is open."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.executor: Counter[str] = Counter()
        self.counting: Counter[str] = Counter()
        self.candidates: Counter[str] = Counter()
        self._op_paths: set[str] = set()
        self._counting_calls = 0
        recorder.after["execute_physical"] = self.after_execute

    def take_op_paths(self) -> str:
        """The paths the last operation's executions took, e.g.
        ``factorized`` or ``stream`` (``none``: it executed nothing)."""
        label = "+".join(sorted(self._op_paths)) or "none"
        self._op_paths = set()
        return label

    def after_execute(self, args, kwargs, result) -> None:
        options = args[1] if len(args) > 1 else kwargs.get("options")
        calls = self.recorder.calls["engine.counting"]
        factorized = calls > self._counting_calls
        self._counting_calls = calls
        if factorized:
            path = "factorized"
        elif options is not None and options.count_only:
            path = "frame_count"
        else:
            path = "stream"
        self._op_paths.add(path)
        stats = result.stats
        owner = self.counting if factorized else self.executor
        for key in ("nodes", "backtracks", "prunes_injective",
                    "factorizations", "group_memo_hits"):
            owner[key] += stats.get(key, 0)
        for key in ("computed", "memo_hits", "memo_misses",
                    "intersections", "negation_checks"):
            self.candidates[key] += stats.get(key, 0)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rec: SpanRecorder, stats: LayerStats, build_s: float,
              counters: dict, cache: dict, wall: float,
              overhead: float) -> dict:
    s = rec.layer_seconds()
    calls = rec.calls
    cand = stats.candidates
    metrics = {
        "ccsr.build_s": (build_s, "s"),
        "ccsr.read_s": (s["ccsr.read"], "s"),
        "ccsr.read_calls": (calls["ccsr.read"], "count"),
        "ccsr.clusters_read": (counters.get("ccsr.clusters_read", 0), "count"),
        "ccsr.bytes_read": (counters.get("ccsr.bytes_read", 0), "bytes"),
        "ccsr.write_s": (s["ccsr.write"], "s"),
        "ccsr.write_calls": (calls["ccsr.write"], "count"),
        "core.plan_s": (s["core.plan"], "s"),
        "core.plans": (calls["core.plan"], "count"),
        "engine.session.self_s": (s["engine.session"], "s"),
        "engine.session.cache_hit_ratio": (
            ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio"),
        "engine.physical.compile_s": (s["engine.physical.compile"], "s"),
        "engine.physical.rebind_s": (s["engine.physical.rebind"], "s"),
        "engine.executor.self_s": (s["engine.executor"], "s"),
        "engine.executor.nodes": (stats.executor["nodes"], "count"),
        "engine.executor.backtracks": (stats.executor["backtracks"], "count"),
        "engine.executor.prunes_injective": (
            stats.executor["prunes_injective"], "count"),
        "engine.counting.self_s": (s["engine.counting"], "s"),
        "engine.counting.calls": (calls["engine.counting"], "count"),
        "engine.counting.factorizations": (
            stats.counting["factorizations"], "count"),
        "engine.counting.group_memo_hits": (
            stats.counting["group_memo_hits"], "count"),
        "engine.candidates.raw_s": (s["engine.candidates"], "s"),
        "engine.candidates.raw_calls": (calls["engine.candidates"], "count"),
        "engine.candidates.computed": (cand["computed"], "count"),
        "engine.candidates.memo_hit_ratio": (
            ratio(cand["memo_hits"], cand["memo_hits"] + cand["memo_misses"]),
            "ratio"),
        "engine.candidates.intersections": (cand["intersections"], "count"),
        "engine.candidates.negation_checks": (cand["negation_checks"], "count"),
        "core.continuous.delta_s": (s["core.continuous"], "s"),
        "core.continuous.pins": (counters.get("continuous.pins", 0), "count"),
        "core.continuous.delta_embeddings": (
            counters.get("continuous.delta_embeddings", 0), "count"),
        "harness.self_s": (wall - sum(s.values()), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    return metrics


def counter_delta(before: dict, after: dict) -> dict:
    return {k: after.get(k, 0) - before.get(k, 0) for k in after}


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run_untraced(workload, seed, scale, seconds) -> dict:
    state, setup = timed_setup(workload, seed, scale, SETUP_REPEATS)
    entry = load_expected(workload, scale)
    state.warm()
    gc.collect()
    loop = closed_loop(state, state.expected(entry), seconds=seconds)
    # Read before any reference counting can raise the peak.
    rss = peak_rss_mb()
    ok, source, wrong_totals = state.verify(loop, entry)
    metrics, notes = end_to_end(state, loop, ok, setup, wrong_totals, rss)
    return {
        "metrics": metrics,
        "notes": notes,
        "attempted": len(loop.latencies),
        "failed": ok.count(False) + wrong_totals,
        "errors": loop.errors,
        "expected": source,
        "latencies": loop.latencies,
        "raw_latencies": loop.raw_latencies,
        "probes": loop.probes,
        "setup": setup,
    }


def run_traced(workload, seed, scale, trace_ops: int) -> dict:
    from repro.obs import Observation

    setup_rec = SpanRecorder()
    with setup_rec.installed():
        state = make_state(workload, seed, scale, Observation(trace=False))
    build_s = setup_rec.self_s["ccsr.build"]
    entry = load_expected(workload, scale)
    expected = state.expected(entry)
    state.warm()
    gc.collect()
    # Neither pass probes machine speed between operations (a probe inside
    # the traced window would land in the harness remainder); each pass
    # is scaled by probes taken just before and after it instead.
    speed = machine_speed()
    untraced = closed_loop(state, expected, max_ops=trace_ops, normalize=False)
    untraced_s = untraced.cpu * 2 * REFERENCE_PROBE_S / (speed + machine_speed())
    if isinstance(state, ContinuousState):
        # Replay the same updates from the same starting graph.
        state = make_state(workload, seed, scale, Observation(trace=False))
    gc.collect()
    rec = SpanRecorder()
    stats = LayerStats(rec)
    counters_before = state.obs.counters.snapshot()
    cache_before = dict(state.engine.session.cache_info)
    op_paths: list[str] = []
    speed = machine_speed()
    with rec.installed():
        traced = closed_loop(
            state, expected, max_ops=len(untraced.latencies),
            after_op=lambda i: op_paths.append(stats.take_op_paths()),
            normalize=False,
        )
    traced_s = traced.cpu * 2 * REFERENCE_PROBE_S / (speed + machine_speed())
    counters = counter_delta(counters_before, state.obs.counters.snapshot())
    cache_info = state.engine.session.cache_info
    cache = {k: cache_info[k] - cache_before[k] for k in ("hits", "misses")}
    ok, source, wrong_totals = state.verify(traced, entry)
    failed = ok.count(False) + wrong_totals
    # Both passes ran the same operations; compare their scaled CPU time.
    metrics = per_layer(rec, stats, build_s, counters, cache, traced.wall,
                        traced_s / untraced_s - 1)
    return {
        "metrics": metrics,
        "notes": {
            "trace.overhead_frac": (
                f"traced {len(traced.latencies) / traced_s:.3f} ops/s vs"
                f" untraced {len(untraced.latencies) / untraced_s:.3f}"
            ),
            "harness.self_s": "trace.wall_s minus every layer's self time",
        },
        "attempted": len(traced.latencies),
        "failed": failed,
        "errors": traced.errors,
        "expected": source,
        "paths": dict(Counter(op_paths)),
        "op_paths": op_paths,
        "spans": rec.to_records(),
        "spans_dropped": rec.dropped,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    parser.add_argument("--out", default=str(ROOT / ".perfbench"),
                        help="directory for the full run record")
    args = parser.parse_args(argv)
    load_repro()
    scale = SCALES[args.scale]
    env = environment(args.workload, args.seed, args.scale)
    if args.trace:
        run = run_traced(args.workload, args.seed, scale,
                         dict(scale.trace_ops)[args.workload])
    else:
        run = run_untraced(args.workload, args.seed, scale, args.seconds)
    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale}"
          f" trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"expected counts: {run['expected']}")
    if "paths" in run:
        print("execution paths per op: " + json.dumps(run["paths"], sort_keys=True))
    for name, (value, unit) in run["metrics"].items():
        note = run["notes"].get(name)
        print(f"  {name:36s} {value:>14.6g} {unit}" + (f"  ({note})" if note else ""))
    for error in run["errors"][:5]:
        print(f"  error: {error}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record = dict(run, env=env, metrics={
        k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()
    })
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    result = {
        "correct": run["failed"] == 0,
        "attempted": max(1, run["attempted"]),
        "failed": run["failed"],
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
