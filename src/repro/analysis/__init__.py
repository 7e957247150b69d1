"""Analyses backing the paper's evaluation figures."""

from repro.analysis.clock_study import (
    ClockStudyController,
    ClockStudyResult,
    run_clock_study,
)
from repro.analysis.columns import RehydratedRun, rehydrate
from repro.analysis.critical_path import (
    CriticalPathResult,
    analyze_critical_path,
    validate_explain_json,
    write_explain_json,
)
from repro.analysis.divergence import (
    CallsiteProfileDiff,
    Delivery,
    DivergenceReport,
    RankDivergence,
    diff_runs,
    divergence_timeline,
    rehydrate_run,
    run_outcomes,
    validate_divergence_json,
    write_divergence_json,
    write_divergence_timeline,
)
from repro.analysis.estimator import (
    DEFAULT_PROCS_PER_NODE,
    GrowthCurve,
    MethodRate,
    budget_comparison,
)
from repro.analysis.inspector import (
    CallsiteProfile,
    ChunkStats,
    chunk_stats,
    iter_chunk_stats,
    profile_callsites,
)
from repro.analysis.report import human_bytes, render_histogram, render_table
from repro.analysis.seed_search import SeedSweep, sweep_seeds
from repro.analysis.size_model import SizeBreakdown, archive_breakdown
from repro.analysis.similarity import (
    ClockSeries,
    PermutationHistogram,
    clock_series,
    permutation_histogram,
)

__all__ = [
    "CallsiteProfile",
    "CallsiteProfileDiff",
    "ChunkStats",
    "ClockSeries",
    "ClockStudyController",
    "ClockStudyResult",
    "CriticalPathResult",
    "DEFAULT_PROCS_PER_NODE",
    "Delivery",
    "DivergenceReport",
    "GrowthCurve",
    "MethodRate",
    "PermutationHistogram",
    "RankDivergence",
    "RehydratedRun",
    "SeedSweep",
    "SizeBreakdown",
    "analyze_critical_path",
    "archive_breakdown",
    "budget_comparison",
    "chunk_stats",
    "clock_series",
    "diff_runs",
    "divergence_timeline",
    "human_bytes",
    "iter_chunk_stats",
    "permutation_histogram",
    "profile_callsites",
    "rehydrate",
    "rehydrate_run",
    "render_histogram",
    "render_table",
    "run_clock_study",
    "run_outcomes",
    "sweep_seeds",
    "validate_divergence_json",
    "validate_explain_json",
    "write_divergence_json",
    "write_divergence_timeline",
    "write_explain_json",
]
