"""Regenerate the committed expected counts in ``perfbench/expected/``.

    python3 perfbench/make_expected.py --group dip-dense

Every count is computed by two execution paths and written only if they
agree:

* ``dip-dense``: the factorized counter (the timed path) and the frame
  machine's capped count with a cap above any total;
* ``road-sparse-capped``: the frame machine's capped count (the timed
  path) and the streaming enumerator under the same cap, each streamed
  embedding checked against the data graph. A query whose count stays
  below its cap must also equal the exact count;
* ``dip-continuous``: the standing query's initial count, factorized and
  capped above the total.

A seed only reorders the queries (for ``dip-continuous``, renumbers the
graph), so the counts hold for every seed; they are computed under each
of ``SEEDS`` and must also agree across them. The file carries the
digest of the catalog it was computed from, and the benchmark ignores
(and re-derives) counts whose catalog has changed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import (
    EXPECTED_DIR,
    UNCAPPED,
    load_repro,
    reference_count,
    to_graph,
)
from workloads import (
    DENSE_VARIANTS,
    SCALES,
    adjacency,
    catalog_digest,
    continuous_inputs,
    make_inputs,
)

GROUPS = {
    "dip-dense": tuple(DENSE_VARIANTS),
    "road-sparse-capped": ("road-sparse-capped",),
    "dip-continuous": ("dip-continuous",),
}
SEEDS = (0, 1)


def agree(what: str, timed: int, reference: int | None) -> int:
    if reference is None:
        raise SystemExit(f"{what}: the stream gave an invalid or repeated embedding")
    if timed != reference:
        raise SystemExit(f"{what}: paths disagree ({timed} != {reference})")
    return timed


def query_counts(workload: str, seed: int, scale) -> list[int]:
    """Every query's count by its timed path, checked against the other."""
    from repro import CSCE

    inputs = make_inputs(workload, seed, scale)
    engine = CSCE(to_graph(inputs.n, inputs.edges))
    adj = adjacency(inputs.n, inputs.edges)
    counts = [0] * len(inputs.patterns)
    timed_s = reference_s = 0.0
    below_cap = 0
    for j, (spec, variant, cap) in enumerate(
        zip(inputs.patterns, inputs.variants, inputs.caps)
    ):
        what = f"{workload} seed {seed} query {j}"
        pattern = to_graph(*spec)
        engine.session.compile(pattern, variant)
        start = time.perf_counter()
        result = engine.match(
            pattern, variant, count_only=True, max_embeddings=cap
        )
        middle = time.perf_counter()
        reference = reference_count(engine, spec, variant, cap, adj)
        timed_s += middle - start
        reference_s += time.perf_counter() - middle
        if result.stop_reason not in (None, "embedding_limit"):
            raise SystemExit(f"{what}: {result.stop_reason}")
        counts[inputs.origin[j]] = agree(what, result.count, reference)
        if cap is not None and result.count < cap:
            below_cap += 1
            agree(f"{what} (exact)", result.count,
                  engine.count(pattern, variant))
    # The path effect: the same counts by the two paths, timed.
    print(f"{workload} seed {seed}: timed path {timed_s:.2f}s,"
          f" reference path {reference_s:.2f}s over {len(counts)} queries"
          + (f", {below_cap} below their cap" if below_cap else ""))
    return counts


def initial_total(seed: int, scale) -> int:
    from repro import CSCE

    inputs = continuous_inputs(seed, scale)
    engine = CSCE(to_graph(inputs.n, inputs.edges))
    query = to_graph(*inputs.query)
    return agree(
        f"dip-continuous seed {seed} initial total",
        engine.count(query),
        engine.match(query, count_only=True, max_embeddings=UNCAPPED).count,
    )


def entry_for(group: str, seed: int, scale) -> dict:
    if group == "dip-dense":
        return {
            variant: query_counts(workload, seed, scale)
            for workload, variant in DENSE_VARIANTS.items()
        }
    if group == "road-sparse-capped":
        return {"counts": query_counts(group, seed, scale)}
    return {"initial_total": initial_total(seed, scale)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--group", choices=tuple(GROUPS), required=True)
    args = parser.parse_args(argv)
    load_repro()
    scale = SCALES["full"]
    entries = []
    for seed in SEEDS:
        entries.append(entry_for(args.group, seed, scale))
        print(f"{args.group} seed {seed}: both paths agree", flush=True)
    if any(entry != entries[0] for entry in entries):
        raise SystemExit(f"{args.group}: counts differ between seeds {SEEDS}")
    doc = {
        "digest": catalog_digest(GROUPS[args.group][0], scale),
        "seeds_checked": list(SEEDS),
        **entries[0],
    }
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / f"{args.group}.json"
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
