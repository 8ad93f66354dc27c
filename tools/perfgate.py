"""Same-runner performance gate: perfbench on a parent and a change, A/B.

Usage::

    python tools/perfgate.py PARENT_DIR CHANGE_DIR

Each argument is a checkout of the repository. The gate runs
``perfbench/run.py`` on one short workload in each, alternating parent
and change for :data:`PAIRS` pairs on the same machine, so both sides
see the same runner. Each checkout's ``run.py`` puts its own ``src`` on
the path and writes its full record to its own ``.perfbench/``.

The gate reads each run's final JSON line and exits 1 when any run
reports a failed operation (a wrong count), or when the median over
pairs of the change/parent ``ops_per_s`` ratio is below
:data:`MIN_RATIO`. The workload, run length, pair count and bound are
constants; EXPERIMENTS.md ("Perf gate") records the noise floor they
rest on.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOAD = "road-sparse-capped"
SEED = 1
SECONDS = 5
PAIRS = 5
#: Lowest passing median change/parent ops/s ratio: a median slowdown
#: beyond 1/MIN_RATIO fails.
MIN_RATIO = 0.90


def run_once(checkout: Path) -> dict:
    """One perfbench run in ``checkout``; returns its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
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


def verdict(pairs: list[tuple[dict, dict]]) -> tuple[float, list[str]]:
    """The median change/parent ops/s ratio of ``(parent, change)`` run
    pairs, and every reason the gate fails (empty when it passes)."""
    ratio = statistics.median(
        ops_per_s(change) / ops_per_s(parent) for parent, change in pairs
    )
    problems = [
        f"{side} run {i} reported {run['failed']} failed operation(s)"
        for i, pair in enumerate(pairs, 1)
        for side, run in zip(("parent", "change"), pair)
        if run["failed"]
    ]
    if ratio < MIN_RATIO:
        problems.append(
            f"median change/parent ops/s {ratio:.3f} is below {MIN_RATIO}"
        )
    return ratio, problems


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: perfgate.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in args)
    pairs = []
    for i in range(1, PAIRS + 1):
        # Alternate which side runs first, so drift over the job does
        # not always favour the same side.
        if i % 2:
            before = run_once(parent)
            after = run_once(change)
        else:
            after = run_once(change)
            before = run_once(parent)
        pairs.append((before, after))
        print(
            f"pair {i}/{PAIRS}: parent {ops_per_s(before):.1f} ops/s,"
            f" change {ops_per_s(after):.1f} ops/s,"
            f" ratio {ops_per_s(after) / ops_per_s(before):.3f}",
            flush=True,
        )
    ratio, problems = verdict(pairs)
    print(f"{WORKLOAD}: median change/parent ops/s {ratio:.3f}"
          f" (passes at >= {MIN_RATIO})")
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print("ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
