"""Same-runner performance gate: perfbench on a parent and a change, A/B.

Usage::

    python tools/perfgate.py PARENT_DIR CHANGE_DIR [--record PATH]

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

``--record PATH`` appends one record of the gate run to the JSON list in
``PATH`` (created if missing): both checkouts' commits, each pair's
end-to-end metrics per side, each workload's median ratio and verdict,
and the machine's speed constant (:func:`gate_record`). ``BENCH_perf.json`` at the repository root holds
the records behind the performance claims in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
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


#: The version of :func:`gate_record`'s layout; version 1 had no
#: ``calibrate``.
RECORD_SCHEMA = "repro-perfgate-record/2"
#: The end-to-end metrics a record keeps per run, besides ``failed``.
RECORD_METRICS = ("ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")


def run_summary(run: dict) -> dict:
    """The recorded part of one run: :data:`RECORD_METRICS` and
    ``failed``."""
    summary = {name: run["metrics"][name]["value"] for name in RECORD_METRICS}
    summary["failed"] = run["failed"]
    return summary


def commit_of(checkout: Path) -> dict:
    """The checkout's ``HEAD`` commit and whether its tree differs from
    it (``None`` for both outside a git work tree)."""

    def git(*args: str) -> str | None:
        proc = subprocess.run(
            ["git", *args], cwd=checkout, capture_output=True, text=True,
            check=False,
        )
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit,
        "dirty": None if commit is None or status is None else bool(status),
    }


def calibration() -> float:
    """:func:`repro.bench.history.calibrate` (seconds for a fixed loop),
    the probe perfbench stamps into its runs, so records from two
    machines can be read against their speeds."""
    if str(REPO / "src") not in sys.path:
        sys.path.insert(0, str(REPO / "src"))
    from repro.bench.history import calibrate

    return calibrate()


def gate_record(
    parent: Path,
    change: Path,
    results: dict[str, tuple[list[tuple[dict, dict]], float, list[str]]],
) -> dict:
    """One JSON-ready record of a gate run from each workload's
    ``(pairs, median ratio, problems)``, with this machine's
    :func:`calibration`."""
    workloads = {
        workload: {
            "bound": BOUNDS[workload],
            "pairs": [
                {"parent": run_summary(before), "change": run_summary(after)}
                for before, after in pairs
            ],
            "median_ratio": ratio,
            "passed": not problems,
        }
        for workload, (pairs, ratio, problems) in results.items()
    }
    return {
        "schema": RECORD_SCHEMA,
        "parent": commit_of(parent),
        "change": commit_of(change),
        "seed": SEED,
        "seconds": SECONDS,
        "calibrate": calibration(),
        "workloads": workloads,
        "verdict": "pass" if all(w["passed"] for w in workloads.values())
        else "fail",
    }


def append_record(path: Path, record: dict) -> None:
    """Append ``record`` to the JSON list in ``path``."""
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1) + "\n")


def gate(
    parent: Path, change: Path, workload: str
) -> tuple[list[tuple[dict, dict]], float, list[str]]:
    """:data:`PAIRS` alternating pairs on one workload; prints each pair
    and the verdict, and returns the pairs, their median ratio and the
    workload's problems."""
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
    return pairs, ratio, [f"{workload}: {problem}" for problem in problems]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfgate.py")
    parser.add_argument("parent", type=Path, help="the parent's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument(
        "--record", type=Path, metavar="PATH",
        help="append this gate run's record to the JSON list in PATH",
    )
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    results = {
        workload: gate(parent, change, workload) for workload in BOUNDS
    }
    problems = [
        problem for _, _, found in results.values() for problem in found
    ]
    if args.record is not None:
        append_record(args.record, gate_record(parent, change, results))
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print("ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
