"""Simulation sessions: determinism, horizons, machine variants."""

import pytest

from repro.common.params import MachineParams
from repro.common.types import Mode
from repro import api
from repro.api import Simulation


class TestBasicRun:
    def test_all_cpus_reach_horizon(self, pmake_run):
        horizon = pmake_run.simulation.horizon_cycles
        for proc in pmake_run.processors:
            assert proc.cycles >= horizon

    def test_trace_nonempty(self, pmake_run):
        assert len(pmake_run.trace) > 1000

    def test_measure_from_set(self, pmake_run):
        params = pmake_run.params
        assert pmake_run.measure_from_cycles == params.ms_to_cycles(60.0)

    def test_time_modes_all_observed(self, pmake_run):
        total = {m: 0 for m in Mode}
        for proc in pmake_run.processors:
            for mode in Mode:
                total[mode] += proc.mode_cycles[mode]
        assert total[Mode.USER] > 0
        assert total[Mode.KERNEL] > 0


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def run():
            sim = Simulation("pmake", seed=9)
            return sim.run(5.0, warmup_ms=0.0)

        a, b = run(), run()
        assert len(a.trace) == len(b.trace)
        assert list(a.trace.all_entries()) == list(b.trace.all_entries())

    def test_different_seed_different_trace(self):
        a = Simulation("pmake", seed=1).run(5.0, warmup_ms=0.0)
        b = Simulation("pmake", seed=2).run(5.0, warmup_ms=0.0)
        assert list(a.trace.all_entries()) != list(b.trace.all_entries())

    def test_warmup_is_required_by_keyword(self):
        """No default window: a caller names the steady state it traces."""
        sim = Simulation("pmake", seed=1)
        with pytest.raises(TypeError, match="warmup_ms"):
            sim.run(5.0)
        with pytest.raises(TypeError):
            sim.run(5.0, 0.0)


class TestMachineVariants:
    @pytest.mark.parametrize("ncpus", [1, 2, 6])
    def test_other_cpu_counts_run(self, ncpus):
        sim = Simulation("multpgm", machine=MachineParams(num_cpus=ncpus), seed=1)
        run = sim.run(4.0, warmup_ms=0.0)
        assert len(run.processors) == ncpus
        assert sim.kernel.os_invocations > 0

    def test_untraced_run_has_no_escapes(self):
        sim = Simulation("pmake", seed=1, trace=False)
        sim.run(4.0, warmup_ms=0.0)
        assert sim.memsys.bus_uncached == 0

    def test_convenience_runner(self):
        run = api.run("oracle", horizon_ms=3.0, warmup_ms=0.0, seed=1)
        assert run.workload_name == "oracle"
        assert len(run.trace) > 0


class TestMasterIntegration:
    def test_master_dumps_with_small_buffer(self):
        from repro.monitor.master import MasterConfig

        sim = Simulation(
            "pmake", machine=MachineParams(trace_buffer_entries=4000), seed=1,
            master_config=MasterConfig(check_interval_ms=2.0,
                                       dump_threshold=0.5),
        )
        run = sim.run(10.0, warmup_ms=0.0)
        assert sim.master.dumps >= 1
        assert len(run.trace.segments) == sim.master.dumps + 1

    def test_strict_buffer_survives_with_master(self):
        """The threshold must leave headroom for a worst-case burst
        between master wake-ups (the paper chooses it 'so that the
        buffer never overflows')."""
        from repro.monitor.master import MasterConfig

        sim = Simulation(
            "pmake", machine=MachineParams(trace_buffer_entries=40_000), seed=1,
            monitor_strict=True,
            master_config=MasterConfig(check_interval_ms=2.0,
                                       dump_threshold=0.5),
        )
        sim.run(10.0, warmup_ms=0.0)  # must not raise BufferOverflow
