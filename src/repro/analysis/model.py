"""Analytic model of OS/application interleaving.

Figure 1/3's stated purpose: "This data is also useful to build analytic
models of OS and application referencing activity." This module builds
that model — an alternating-renewal process of application intervals and
OS invocations, parameterized from a measured trace — and closes the
loop by predicting aggregate quantities (OS time share, miss rates, the
Table 1 stall fractions) that can be checked against the direct
measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.decode import TraceAnalysis
from repro.common.params import CYCLES_PER_TICK


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _cv(values: Sequence[float]) -> float:
    """Coefficient of variation (std/mean); 1.0 for exponential."""
    if len(values) < 2:
        return 0.0
    mean = _mean(values)
    if mean == 0:
        return 0.0
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(var) / mean


@dataclass(frozen=True)
class PhaseModel:
    """One phase of the alternating process."""

    mean_cycles: float
    cv_cycles: float        # shape: 1.0 = exponential-like
    mean_imisses: float
    mean_dmisses: float

    @property
    def miss_rate_per_cycle(self) -> float:
        if self.mean_cycles <= 0:
            return 0.0
        return (self.mean_imisses + self.mean_dmisses) / self.mean_cycles


@dataclass(frozen=True)
class OsActivityModel:
    """Alternating renewal model: application interval -> OS invocation.

    UTLB faults ride inside application intervals as near-free spikes
    (Figure 1), contributing their (small) cost to the application
    phase's cycle count.
    """

    os_phase: PhaseModel
    app_phase: PhaseModel
    utlb_per_app_interval: float
    utlb_misses_per_fault: float
    bus_stall_cycles: int = 35

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    @classmethod
    def from_analysis(
        cls, analysis: TraceAnalysis, bus_stall_cycles: int = 35
    ) -> "OsActivityModel":
        invocations = analysis.invocations
        intervals = analysis.app_intervals
        if not invocations or not intervals:
            raise ValueError("analysis holds no invocation structure to fit")
        os_cycles = [inv.duration_ticks * CYCLES_PER_TICK for inv in invocations]
        app_cycles = [iv.duration_ticks * CYCLES_PER_TICK for iv in intervals]
        os_phase = PhaseModel(
            mean_cycles=_mean(os_cycles),
            cv_cycles=_cv(os_cycles),
            mean_imisses=_mean([inv.imisses for inv in invocations]),
            mean_dmisses=_mean([inv.dmisses for inv in invocations]),
        )
        app_phase = PhaseModel(
            mean_cycles=_mean(app_cycles),
            cv_cycles=_cv(app_cycles),
            mean_imisses=_mean([iv.imisses for iv in intervals]),
            mean_dmisses=_mean([iv.dmisses for iv in intervals]),
        )
        utlb_rate = _mean([iv.utlb_faults for iv in intervals])
        utlb_miss = (
            analysis.utlb_misses / analysis.utlb_count
            if analysis.utlb_count else 0.0
        )
        return cls(os_phase, app_phase, utlb_rate, utlb_miss, bus_stall_cycles)

    # ------------------------------------------------------------------
    # Predictions
    # ------------------------------------------------------------------
    @property
    def cycle_length(self) -> float:
        """Mean cycles of one app-interval + OS-invocation period."""
        return self.os_phase.mean_cycles + self.app_phase.mean_cycles

    @property
    def os_time_share(self) -> float:
        """Predicted fraction of non-idle time spent in the OS."""
        if self.cycle_length <= 0:
            return 0.0
        return self.os_phase.mean_cycles / self.cycle_length

    @property
    def invocation_interval_cycles(self) -> float:
        """Mean cycles between OS invocations (the Figure 1 quantity)."""
        return self.cycle_length

    def predicted_os_miss_share(self) -> float:
        """OS misses / all misses (Table 1 column 5)."""
        os_misses = self.os_phase.mean_imisses + self.os_phase.mean_dmisses
        app_misses = (
            self.app_phase.mean_imisses + self.app_phase.mean_dmisses
            + self.utlb_per_app_interval * self.utlb_misses_per_fault
        )
        total = os_misses + app_misses
        return os_misses / total if total else 0.0

    def predicted_os_stall_pct(self) -> float:
        """OS-miss stall as % of non-idle time (Table 1 column 7)."""
        if self.cycle_length <= 0:
            return 0.0
        os_misses = self.os_phase.mean_imisses + self.os_phase.mean_dmisses
        return 100.0 * os_misses * self.bus_stall_cycles / self.cycle_length

    def predicted_total_stall_pct(self) -> float:
        """All-miss stall as % of non-idle time (Table 1 column 6)."""
        if self.cycle_length <= 0:
            return 0.0
        misses = (
            self.os_phase.mean_imisses + self.os_phase.mean_dmisses
            + self.app_phase.mean_imisses + self.app_phase.mean_dmisses
            + self.utlb_per_app_interval * self.utlb_misses_per_fault
        )
        return 100.0 * misses * self.bus_stall_cycles / self.cycle_length

    # ------------------------------------------------------------------
    # Synthetic generation (for model-based what-ifs)
    # ------------------------------------------------------------------
    def generate(self, rng, periods: int) -> List[Tuple[float, float]]:
        """Draw ``periods`` (app_cycles, os_cycles) pairs.

        Phases are drawn from gamma distributions matched to each
        phase's mean and CV (an exponential when CV == 1), the standard
        renewal-model fit for this kind of data.
        """
        out = []
        for _ in range(periods):
            out.append((
                self._draw(rng, self.app_phase),
                self._draw(rng, self.os_phase),
            ))
        return out

    @staticmethod
    def _draw(rng, phase: PhaseModel) -> float:
        if phase.mean_cycles <= 0:
            return 0.0
        cv = max(phase.cv_cycles, 0.05)
        shape = 1.0 / (cv * cv)
        scale = phase.mean_cycles / shape
        return rng.gammavariate(shape, scale)


def validate_model(
    model: OsActivityModel, analysis: TraceAnalysis
) -> dict:
    """Model-predicted vs directly-measured aggregates."""
    measured_share = (
        analysis.sys_ticks / analysis.non_idle_ticks()
        if analysis.non_idle_ticks() else 0.0
    )
    total_misses = analysis.total_misses()
    from repro.common.types import RefDomain

    measured_os_share = (
        analysis.total_misses(RefDomain.OS) / total_misses
        if total_misses else 0.0
    )
    return {
        "os_time_share": (model.os_time_share, measured_share),
        "os_miss_share": (model.predicted_os_miss_share(), measured_os_share),
    }
