"""Extension benchmark: continuous (delta) matching vs recounting.

Not a paper figure — this measures the continuous-query extension
(:mod:`repro.core.continuous`) built on in-place CCSR updates and seeded
execution. A standing query reports its embedding *count*, so the honest
from-scratch baseline recounts the whole graph (``engine.count``) after
every update; delta maintenance instead counts only the embeddings each
new edge creates. The claim to verify: deltas are much cheaper per
update, and the incrementally maintained total stays exact.
"""

import random
import time

from conftest import SCALE
from repro.core import CSCE, ContinuousMatcher
from repro.datasets import load_dataset
from repro.graph.patterns import by_name

STREAM_LENGTH = 10


def _insert_stream(graph, length: int, seed: int = 99):
    rng = random.Random(seed)
    existing = {
        (min(e.src, e.dst), max(e.src, e.dst)) for e in graph.edges()
    }
    inserts = []
    while len(inserts) < length:
        a, b = rng.randrange(graph.num_vertices), rng.randrange(graph.num_vertices)
        if a == b or (min(a, b), max(a, b)) in existing:
            continue
        existing.add((min(a, b), max(a, b)))
        inserts.append((a, b))
    return inserts


def test_continuous_vs_reenumeration(benchmark, report):
    base = load_dataset("dip", scale=2 * SCALE)
    pattern = by_name("triangle")
    inserts = _insert_stream(base, STREAM_LENGTH)

    def run():
        # Delta maintenance: only new embeddings are counted.
        matcher = ContinuousMatcher(
            CSCE(load_dataset("dip", scale=2 * SCALE)), pattern
        )
        start = time.perf_counter()
        created = 0
        for a, b in inserts:
            created += matcher.insert(a, b).count
        delta_seconds = time.perf_counter() - start
        delta_total = matcher.total

        # Recount maintenance: a full count after each update.
        engine = CSCE(load_dataset("dip", scale=2 * SCALE))
        start = time.perf_counter()
        recount_total = engine.count(pattern)
        for a, b in inserts:
            engine.store.insert_edge(a, b)
            recount_total = engine.count(pattern)
        recount_seconds = time.perf_counter() - start
        return {
            "stream_length": len(inserts),
            "created_embeddings": created,
            "delta_seconds": round(delta_seconds, 4),
            "recount_seconds": round(recount_seconds, 4),
            "delta_total": delta_total,
            "recount_total": recount_total,
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    report("Extension: continuous matching vs recounting", [stats])

    # Exactness: the incrementally maintained total equals the recount.
    assert stats["delta_total"] == stats["recount_total"]
    # The point of the extension: deltas beat recounting after every update.
    assert stats["delta_seconds"] < stats["recount_seconds"]
