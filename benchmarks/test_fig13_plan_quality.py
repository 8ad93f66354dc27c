"""Fig. 13: query-plan quality across planner configurations.

The same engine executes plans from four planners (Finding 13):

* ``rm``         — RapidMatch's backward-connectivity ordering,
* ``ri``         — RI's three rules, no data-graph knowledge,
* ``ri_cluster`` — RI + CCSR cluster-size tie-breaking,
* ``csce``       — RI + clusters + LDSF fine-tuning,
* ``cost``       — Graphflow-style cardinality estimation (extension).

Execution is identical in all runs, so time differences are plan quality.
"""

import statistics

from conftest import EMBEDDING_CAP, SCALE, TIME_LIMIT
from repro.core import CSCE
from repro.datasets import load_dataset
from repro.engine import MatchOptions, compile_plan, execute_physical
from repro.graph.sampling import sample_pattern_suite

PLANNERS = ("rm", "ri", "ri_cluster", "csce", "cost")
SIZES = (12, 16, 20)


def test_fig13_plan_quality(benchmark, report):
    graph = load_dataset("patent", scale=SCALE)
    engine = CSCE(graph)
    suite = sample_pattern_suite(graph, SIZES, per_size=3, style="sparse", seed=13)
    patterns = [p for size in SIZES for p in suite[size]]

    def run():
        rows = []
        per_planner: dict[str, list[float]] = {p: [] for p in PLANNERS}
        counts: dict[int, set[int]] = {}
        for planner in PLANNERS:
            for idx, pattern in enumerate(patterns):
                plan = engine.build_plan(pattern, "edge_induced", planner=planner)
                result = execute_physical(
                    compile_plan(plan),
                    MatchOptions(
                        count_only=True,
                        max_embeddings=EMBEDDING_CAP,
                        time_limit=TIME_LIMIT,
                    ),
                )
                total = TIME_LIMIT if result.timed_out else result.total_seconds
                per_planner[planner].append(total)
                if not result.timed_out and not result.truncated:
                    counts.setdefault(idx, set()).add(result.count)
                rows.append(
                    {
                        "planner": planner,
                        "pattern": f"{pattern.name}#{idx}",
                        "total_s": round(total, 4),
                        "embeddings": result.count,
                        "timed_out": result.timed_out,
                    }
                )
        summary = [
            {
                "planner": planner,
                "mean_total_s": round(statistics.fmean(times), 4),
                "timeouts": sum(1 for t in times if t >= TIME_LIMIT),
            }
            for planner, times in per_planner.items()
        ]
        return rows, summary, counts

    rows, summary, counts = benchmark.pedantic(run, rounds=1, iterations=1)
    report("Fig. 13: plan quality (per task)", rows)
    report("Fig. 13: plan quality (averages)", summary)

    # All planners find the same embeddings.
    for idx, values in counts.items():
        assert len(values) == 1, f"pattern {idx}: {values}"

    means = {row["planner"]: row["mean_total_s"] for row in summary}
    # Finding 13's shape: data-aware tie-breaking improves RI, and the full
    # CSCE plan is competitive with the best configuration.
    assert means["ri_cluster"] <= means["ri"] * 1.1, means
    assert means["csce"] <= means["ri"] * 1.1, means
    best = min(means.values())
    assert means["csce"] <= best * 2.5, means
