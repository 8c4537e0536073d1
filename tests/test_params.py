"""MachineParams / CacheGeometry validation."""

import dataclasses

import pytest

from repro.common.params import CYCLES_PER_TICK, CacheGeometry, MachineParams
from repro.machines import MACHINES, resolve_machine


class TestCacheGeometry:
    def test_default_block_size(self):
        geom = CacheGeometry(64 * 1024)
        assert geom.block_bytes == 16

    def test_num_blocks(self):
        geom = CacheGeometry(64 * 1024)
        assert geom.num_blocks == 4096

    def test_num_sets_direct_mapped(self):
        geom = CacheGeometry(64 * 1024)
        assert geom.num_sets == 4096

    def test_num_sets_two_way(self):
        geom = CacheGeometry(64 * 1024, associativity=2)
        assert geom.num_sets == 2048

    def test_rejects_nonmultiple_size(self):
        with pytest.raises(ValueError):
            CacheGeometry(1000, block_bytes=16)

    def test_rejects_zero_associativity(self):
        with pytest.raises(ValueError):
            CacheGeometry(64 * 1024, associativity=0)


class TestMachineParams:
    def test_default_is_4d340(self, params):
        assert params.num_cpus == 4
        assert params.cycle_ns == 30.0
        assert params.icache.size_bytes == 64 * 1024
        assert params.dcache_l1.size_bytes == 64 * 1024
        assert params.dcache_l2.size_bytes == 256 * 1024
        assert params.memory_bytes == 32 * 1024 * 1024
        assert params.tlb_entries == 64

    def test_paper_stall_costs(self, params):
        assert params.bus_stall_cycles == 35
        assert params.l2_hit_stall_cycles == 15

    def test_monitor_tick_is_two_cycles(self, params):
        assert params.monitor_tick_ns / params.cycle_ns == 2.0

    def test_block_bytes(self, params):
        assert params.block_bytes == 16

    def test_num_pages(self, params):
        assert params.num_pages == 8192

    def test_cycles_per_ms(self, params):
        assert params.cycles_per_ms() == pytest.approx(33333.33, rel=1e-3)

    def test_ms_cycles_roundtrip(self, params):
        assert params.cycles_to_ms(params.ms_to_cycles(10.0)) == pytest.approx(
            10.0, rel=1e-4
        )

    def test_rejects_zero_cpus(self):
        with pytest.raises(ValueError):
            MachineParams(num_cpus=0)

    def test_rejects_ragged_memory(self):
        with pytest.raises(ValueError):
            MachineParams(memory_bytes=4096 * 100 + 1)

    def test_custom_cpu_count(self):
        assert MachineParams(num_cpus=8).num_cpus == 8

    @pytest.mark.parametrize(
        "overrides", [{"cycle_ns": 25.0}, {"monitor_tick_ns": 90.0}]
    )
    def test_rejects_cycles_per_tick_the_analysis_cannot_decode(self, overrides):
        # The analysis converts cycles to monitor ticks with the fixed
        # CYCLES_PER_TICK; any other ratio would shift its window.
        with pytest.raises(ValueError, match="monitor_tick_ns"):
            MachineParams(**overrides)

    def test_accepts_a_faster_clock_with_its_tick(self):
        params = MachineParams(cycle_ns=25.0, monitor_tick_ns=50.0)
        assert params.monitor_tick_ns == CYCLES_PER_TICK * params.cycle_ns

    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_every_preset_constructs(self, name):
        params = dataclasses.replace(MACHINES[name].params)
        assert params == resolve_machine(name)
        assert params.monitor_tick_ns == CYCLES_PER_TICK * params.cycle_ns
