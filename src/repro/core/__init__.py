"""CSCE core: variants, dependency DAGs, planning, and execution.

Execution itself lives in :mod:`repro.engine` (logical plans are compiled
to physical operators and run iteratively); this package keeps the
planning pipeline and re-exports the engine's options/result contract
(:class:`MatchOptions`, :class:`MatchResult`).
"""

from repro.core.variants import Variant
from repro.core.dag import DependencyDAG, build_dag
from repro.core.descendants import compute_descendants, compute_descendant_sizes
from repro.core.equivalence import SCEStats, nec_classes, sce_statistics
from repro.core.gcf import gcf_order, rapidmatch_order
from repro.core.ldsf import ldsf_order
from repro.core.plan import Plan, assemble_plan
from repro.core.csce import CSCE, PLANNERS
from repro.core.cost import cost_based_order
from repro.core.continuous import (
    ContinuousMatcher,
    DeltaResult,
    embeddings_containing_edge,
)
from repro.engine.results import MatchOptions, MatchResult

__all__ = [
    "Variant",
    "DependencyDAG",
    "build_dag",
    "compute_descendants",
    "compute_descendant_sizes",
    "SCEStats",
    "nec_classes",
    "sce_statistics",
    "gcf_order",
    "rapidmatch_order",
    "ldsf_order",
    "Plan",
    "assemble_plan",
    "MatchOptions",
    "MatchResult",
    "CSCE",
    "PLANNERS",
    "cost_based_order",
    "ContinuousMatcher",
    "DeltaResult",
    "embeddings_containing_edge",
]
