"""Machine calibration for benchmark records.

``perfbench/run.py`` stamps :func:`calibrate` into every run record's
environment, so two records can be read against their machines' speeds.
"""

from __future__ import annotations

import time


def calibrate(loops: int = 200_000, repeats: int = 3) -> float:
    """Time a fixed CPU-bound loop; the recording machine's speed constant.

    The minimum over ``repeats`` runs suppresses scheduler noise. Only
    the *ratio* between two machines' constants matters, not the loop's
    absolute cost.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best
