"""Trace postprocessing: the paper's analysis methodology.

- :mod:`repro.analysis.reconstruct` — cache contents rebuilt from the
  miss stream (direct-mapped caches make this exact).
- :mod:`repro.analysis.decode` — the single-pass analyzer: escape
  decoding, Table 2 classification, attribution, invocation
  segmentation, time accounting.
- :mod:`repro.analysis.report` — Table 1 style rollups.
- :mod:`repro.analysis.sweeps` — the Figure 6 what-if: replay the I-miss
  stream against larger / set-associative caches.
- :mod:`repro.analysis.lockstats` — Tables 10-12 and Figure 11 from the
  OS-kept synchronization statistics.
"""

from repro.analysis.decode import TraceAnalysis, TraceAnalyzer, OsInvocation
from repro.analysis.report import AnalysisReport, analyze_trace
from repro.analysis.reconstruct import ReconstructedCache, CpuReconstruction
from repro.analysis.sweeps import (
    SweepPoint,
    simulate_icache_config,
    simulate_icache_sweep,
)
from repro.analysis.lockstats import (
    LockRow,
    SyncStallSummary,
    failed_acquires_per_ms,
    lock_table_rows,
    sync_stall_summary,
)
from repro.analysis.charts import bar_chart, profile_chart, series_chart

__all__ = [
    "TraceAnalysis",
    "TraceAnalyzer",
    "OsInvocation",
    "AnalysisReport",
    "analyze_trace",
    "ReconstructedCache",
    "CpuReconstruction",
    "SweepPoint",
    "simulate_icache_config",
    "simulate_icache_sweep",
    "LockRow",
    "SyncStallSummary",
    "failed_acquires_per_ms",
    "lock_table_rows",
    "sync_stall_summary",
    "bar_chart",
    "profile_chart",
    "series_chart",
]
