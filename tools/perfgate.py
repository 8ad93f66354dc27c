"""Same-runner performance gate: perfbench on a parent and a change, A/B.

Usage::

    python tools/perfgate.py PARENT_DIR CHANGE_DIR

Each argument is a checkout of the repository. For each workload in
:data:`BOUNDS` the gate runs ``perfbench/run.py`` in each checkout,
alternating parent and change for :data:`PAIRS` short pairs on the same
machine, so both sides see the same runner. Each checkout's ``run.py``
puts its own ``src`` on the path and writes its full record to its own
``.perfbench/``.

The gate reads each run's final JSON line and exits 1 when any run
reports a failed operation (a wrong count), or when, on some workload,
the median over pairs of the change/parent ``ops_per_s`` ratio is below
that workload's bound. The workloads, run length, pair count and bounds
are constants; EXPERIMENTS.md ("Perf gate") records the noise floors
they rest on.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

SEED = 1
SECONDS = 5
PAIRS = 5
#: Each gated workload and its lowest passing median change/parent ops/s
#: ratio: a median slowdown beyond 1/bound fails. road-sparse-capped
#: covers the frame machine's count mode, memo and negation probes;
#: dip-continuous the writer path (in-place CCSR patches, cached plans,
#: pinned delta counts); dip-dense-edge the uncapped exact counts of
#: dense patterns (strategy routing, leaf counts, long intersections);
#: dip-dense-hom the factorized counter (region splits, region memo).
BOUNDS = {
    "road-sparse-capped": 0.90,
    "dip-continuous": 0.90,
    "dip-dense-edge": 0.88,
    "dip-dense-hom": 0.90,
}


def run_once(checkout: Path, workload: str) -> dict:
    """One perfbench run in ``checkout``; returns its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(
            f"perfgate: perfbench exited {proc.returncode} in {checkout}"
        )
    return json.loads(lines[-1])


def ops_per_s(run: dict) -> float:
    return run["metrics"]["ops_per_s"]["value"]


def verdict(
    pairs: list[tuple[dict, dict]], min_ratio: float
) -> tuple[float, list[str]]:
    """The median change/parent ops/s ratio of ``(parent, change)`` run
    pairs, and every reason they fail a gate at ``min_ratio`` (empty when
    they pass)."""
    ratio = statistics.median(
        ops_per_s(change) / ops_per_s(parent) for parent, change in pairs
    )
    problems = [
        f"{side} run {i} reported {run['failed']} failed operation(s)"
        for i, pair in enumerate(pairs, 1)
        for side, run in zip(("parent", "change"), pair)
        if run["failed"]
    ]
    if ratio < min_ratio:
        problems.append(
            f"median change/parent ops/s {ratio:.3f} is below {min_ratio}"
        )
    return ratio, problems


def gate(parent: Path, change: Path, workload: str) -> list[str]:
    """:data:`PAIRS` alternating pairs on one workload; prints each pair
    and the verdict, and returns the workload's problems."""
    pairs = []
    for i in range(1, PAIRS + 1):
        # Alternate which side runs first, so drift over the job does
        # not always favour the same side.
        if i % 2:
            before = run_once(parent, workload)
            after = run_once(change, workload)
        else:
            after = run_once(change, workload)
            before = run_once(parent, workload)
        pairs.append((before, after))
        print(
            f"{workload} pair {i}/{PAIRS}: parent {ops_per_s(before):.1f}"
            f" ops/s, change {ops_per_s(after):.1f} ops/s,"
            f" ratio {ops_per_s(after) / ops_per_s(before):.3f}",
            flush=True,
        )
    bound = BOUNDS[workload]
    ratio, problems = verdict(pairs, bound)
    print(f"{workload}: median change/parent ops/s {ratio:.3f}"
          f" (passes at >= {bound})", flush=True)
    return [f"{workload}: {problem}" for problem in problems]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: perfgate.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in args)
    problems = [
        problem
        for workload in BOUNDS
        for problem in gate(parent, change, workload)
    ]
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print("ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
