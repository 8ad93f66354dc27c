"""Ablation benches for the design choices DESIGN.md §5 calls out.

Not figures from the paper — these isolate the contribution of each
mechanism so a reader can see *why* the headline numbers hold:

1. SCE on/off — candidate memoization + count factorization;
2. compressed vs standard row index — the Section IV space bound;
3. GCF cluster tie-breaking — data-aware vs data-oblivious ordering;
4. first-vertex pool choice — smallest cluster side vs label scan.
"""

import statistics
import time

from conftest import EMBEDDING_CAP, SCALE, TIME_LIMIT
from repro.ccsr import CCSRStore
from repro.core import CSCE
from repro.datasets import load_dataset
from repro.engine import MatchOptions, compile_plan, execute_physical
from repro.graph.sampling import sample_pattern_suite


def test_ablation_sce(benchmark, report):
    """SCE on vs off: same plans, same counts, fewer candidate computations
    and less time with SCE."""
    graph = load_dataset("yeast", scale=1.0)
    engine = CSCE(graph)
    suite = sample_pattern_suite(graph, (8, 12, 16), per_size=3, style="dense", seed=41)
    patterns = [p for size in (8, 12, 16) for p in suite[size]]

    def run():
        rows = []
        for use_sce in (True, False):
            computed = []
            times = []
            counts = []
            for pattern in patterns:
                plan = engine.build_plan(pattern, "edge_induced")
                start = time.perf_counter()
                result = execute_physical(
                    compile_plan(plan),
                    MatchOptions(
                        count_only=True,
                        use_sce=use_sce,
                        time_limit=TIME_LIMIT,
                    ),
                )
                times.append(time.perf_counter() - start)
                computed.append(result.stats.get("computed", 0))
                counts.append(result.count)
            rows.append(
                {
                    "sce": use_sce,
                    "mean_s": round(statistics.fmean(times), 5),
                    "mean_candidate_computations": round(
                        statistics.fmean(computed), 1
                    ),
                    "counts": tuple(counts),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report("Ablation: SCE on/off (yeast, edge-induced)", [
        {k: v for k, v in row.items() if k != "counts"} for row in rows
    ])
    with_sce, without = rows
    assert with_sce["counts"] == without["counts"]
    assert (
        with_sce["mean_candidate_computations"]
        <= without["mean_candidate_computations"]
    )


def test_ablation_row_compression(benchmark, report):
    """Compressed vs standard row-index storage across label counts."""
    def run():
        rows = []
        for labels in (0, 20, 200, 2000):
            graph = load_dataset("patent", scale=SCALE, num_labels=max(labels, 1))
            if labels == 0:
                graph = graph.relabeled([0] * graph.num_vertices)
            store = CCSRStore(graph)
            rows.append(
                {
                    "labels": labels,
                    "clusters": store.num_clusters,
                    "compressed_rows": store.total_compressed_row_entries(),
                    "standard_rows": store.total_standard_row_entries(),
                    "savings": round(
                        store.total_standard_row_entries()
                        / max(store.total_compressed_row_entries(), 1),
                        1,
                    ),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report("Ablation: compressed vs standard row index", rows)
    # Run-length compression wins once the store fragments into many
    # clusters; a near-monolithic store (few clusters) is the one regime
    # where the standard layout can be smaller.
    for row in rows:
        assert row["compressed_rows"] <= row["standard_rows"] or row["clusters"] <= 2
    assert rows[-1]["savings"] > rows[0]["savings"]


def test_ablation_planner_tiebreaks(benchmark, report):
    """ri vs ri_cluster vs csce on a label-skewed graph: all correct; the
    cluster tie-break never loses badly."""
    graph = load_dataset("hprd", scale=0.5)
    engine = CSCE(graph)
    suite = sample_pattern_suite(graph, (8, 12), per_size=3, style="dense", seed=42)
    patterns = [p for size in (8, 12) for p in suite[size]]

    def run():
        rows = []
        for planner in ("ri", "ri_cluster", "csce"):
            times = []
            counts = []
            for pattern in patterns:
                plan = engine.build_plan(pattern, "edge_induced", planner=planner)
                result = execute_physical(
                    compile_plan(plan),
                    MatchOptions(
                        count_only=True,
                        max_embeddings=EMBEDDING_CAP,
                        time_limit=TIME_LIMIT,
                    ),
                )
                times.append(
                    TIME_LIMIT if result.timed_out else result.total_seconds
                )
                counts.append(result.count)
            rows.append(
                {
                    "planner": planner,
                    "mean_s": round(statistics.fmean(times), 5),
                    "counts": tuple(counts),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report("Ablation: planner tie-breaks (hprd)", [
        {k: v for k, v in row.items() if k != "counts"} for row in rows
    ])
    reference = rows[0]["counts"]
    assert all(row["counts"] == reference for row in rows)
    means = {row["planner"]: row["mean_s"] for row in rows}
    assert means["csce"] <= max(means.values())
