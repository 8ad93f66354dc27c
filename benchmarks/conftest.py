"""Shared machinery for the figure/table benchmarks.

Every benchmark regenerates one table or figure of the paper at laptop
scale (see DESIGN.md for the scaling rationale). Results are printed
(visible with ``pytest -s``) *and* written to
``benchmarks/results/experiments.txt``, where each figure's block replaces
its previous one, so ``--benchmark-only`` runs leave the paper-style rows
on disk.

Conventions mirroring Section VII:

* time limits replace the paper's 1e4 s with seconds-level budgets;
* runaway enumerations are capped at ``EMBEDDING_CAP`` results (the
  existing-works convention of stopping at 1e5, scaled down);
* each configuration averages several sampled patterns.
"""

from __future__ import annotations

import os
import re

import pytest

from repro.bench.tables import format_table

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Default dataset scale for benchmarks (fractions of the stand-in sizes).
SCALE = 0.25
#: Wall-clock budget per (engine, pattern) task.
TIME_LIMIT = 1.5
#: Result cap standing in for the 1e5 cap used by existing works.
EMBEDDING_CAP = 20_000
#: Patterns sampled per configuration (paper: 10).
PATTERNS_PER_CONFIG = 2


#: First line of the results file; ``=== title ===`` blocks follow it.
HEADER = "CSCE reproduction benchmark results\n"
_TITLE = re.compile(r"^=== (.*) ===$", re.MULTILINE)


def read_blocks(path: str) -> dict[str, str]:
    """The ``=== title ===`` blocks of a results file, by title, in file
    order (empty for a missing file). Each block runs from its title line
    to the blank line before the next title."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        return {}
    titles = list(_TITLE.finditer(text))
    ends = [m.start() - 1 for m in titles[1:]] + [len(text)]
    return {m.group(1): text[m.start() : end] for m, end in zip(titles, ends)}


def write_blocks(path: str, blocks: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(HEADER + "".join("\n" + block for block in blocks.values()))


@pytest.fixture(scope="session")
def report():
    """Write a titled text block to the results file and stdout. A block
    replaces the file's block of the same title and leaves the others, so
    a run of one benchmark file keeps every other figure's results."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "experiments.txt")
    blocks = read_blocks(path)

    def _report(title: str, rows: list[dict], columns=None) -> None:
        block = f"=== {title} ===\n{format_table(rows, columns)}\n"
        print("\n" + block)
        blocks[title] = block
        write_blocks(path, blocks)

    return _report


def record_rows(records):
    """ExperimentRecords -> printable rows."""
    return [r.row() for r in records]
