"""The machine-preset registry and the CPU-count scaling surface.

Covers the :mod:`repro.machines` registry itself (coherent geometry
scaling along the ladder), machine selection through every public layer
(Simulation, ExperimentContext, repro.api, the service), the audit of
former 4-CPU assumptions (interrupt routing, clock stagger, run-queue
hashing, sanitizer sizing), and the cache-key compatibility contract:
the default 4d340 machine must key and render byte-identically to the
world before presets existed.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.common.params import MachineParams
from repro.experiments._base import (
    EXHIBIT_SCHEMA_VERSION,
    Exhibit,
    ExperimentContext,
    RunSettings,
    resolve_settings,
)
from repro.kernel.scheduler import Scheduler
from repro.machines import (
    DEFAULT_MACHINE,
    LADDER,
    MACHINES,
    canonical_machine,
    machine_for_cpus,
    resolve_machine,
)
from repro.sim._session import Simulation, clock_stagger


class TestRegistry:
    def test_ladder_order_and_default(self):
        assert LADDER[0] == DEFAULT_MACHINE == "4d340"
        assert LADDER == ["4d340", "cpus8", "cpus16", "cpus32", "cpus64"]

    def test_default_is_legacy_params(self):
        assert MACHINES[DEFAULT_MACHINE].params == MachineParams()

    def test_geometry_scales_coherently(self):
        """Each doubling: L2 and memory double, bus stall +5, run
        queues double (one queue per 4-CPU cluster)."""
        presets = [MACHINES[name] for name in LADDER]
        for small, big in zip(presets, presets[1:]):
            assert big.params.num_cpus == 2 * small.params.num_cpus
            assert big.params.memory_bytes == 2 * small.params.memory_bytes
            assert big.params.bus_stall_cycles == small.params.bus_stall_cycles + 5
            if small.name != DEFAULT_MACHINE:
                assert big.params.dcache_l2.size_bytes == \
                    2 * small.params.dcache_l2.size_bytes
                assert big.run_queues == 2 * small.run_queues
            assert big.run_queues * 4 == big.params.num_cpus
            # Per-CPU L1s and the cycle time model "more of the same CPU".
            assert big.params.dcache_l1 == small.params.dcache_l1
            assert big.params.icache == small.params.icache
            assert big.params.cycle_ns == small.params.cycle_ns

    def test_resolve_machine(self):
        assert resolve_machine(None) == MachineParams()
        assert resolve_machine("cpus16").num_cpus == 16
        params = MachineParams(num_cpus=2)
        assert resolve_machine(params) is params
        with pytest.raises(ValueError, match="unknown machine"):
            resolve_machine("cray1")
        with pytest.raises(TypeError, match="preset name or MachineParams"):
            resolve_machine(16)

    def test_canonical_machine(self):
        assert canonical_machine("cpus8") == "cpus8"
        assert canonical_machine(None) == DEFAULT_MACHINE
        # Params equal to a preset canonicalize to its name...
        assert canonical_machine(MACHINES["cpus8"].params) == "cpus8"
        assert canonical_machine(MachineParams()) == DEFAULT_MACHINE
        # ...custom params stay themselves.
        custom = MachineParams(num_cpus=2)
        assert canonical_machine(custom) is custom

    def test_machine_for_cpus(self):
        assert machine_for_cpus(4) == "4d340"
        assert machine_for_cpus(64) == "cpus64"
        with pytest.raises(ValueError, match="no machine preset"):
            machine_for_cpus(12)

    def test_resolve_machine_name_chain(self, monkeypatch):
        def machine(**explicit):
            return resolve_settings(explicit).machine

        monkeypatch.delenv("REPRO_MACHINE", raising=False)
        assert machine() == DEFAULT_MACHINE
        assert machine(machine="cpus32") == "cpus32"
        monkeypatch.setenv("REPRO_MACHINE", "cpus8")
        assert machine() == "cpus8"
        assert machine(machine="cpus16") == "cpus16"  # explicit wins
        monkeypatch.setenv("REPRO_MACHINE", "vax")
        with pytest.raises(ValueError, match="unknown machine"):
            machine()


class TestMachineParamsRouting:
    def test_default_routing(self):
        params = MachineParams()
        assert params.device_cpu == 0
        assert params.network_cpu == 1

    def test_uniprocessor_routes_to_cpu0(self):
        assert MachineParams(num_cpus=1).network_cpu == 0

    @pytest.mark.parametrize("ncpus", [8, 16, 32, 64])
    def test_scaled_routing_in_bounds(self, ncpus):
        params = resolve_machine(machine_for_cpus(ncpus))
        assert 0 <= params.device_cpu < ncpus
        assert 0 <= params.network_cpu < ncpus

    def test_routing_validation(self):
        with pytest.raises(ValueError, match="device_cpu"):
            MachineParams(num_cpus=4, device_cpu=4)
        with pytest.raises(ValueError, match="network_cpu"):
            MachineParams(num_cpus=4, network_cpu=-1)
        with pytest.raises(ValueError, match="network_cpu"):
            MachineParams(num_cpus=2, network_cpu=2)


class TestClockStagger:
    def test_legacy_4cpu_values(self):
        """The 4D/340's stagger is byte-identical to the pre-preset
        arithmetic (cache keys depend on the event stream)."""
        assert clock_stagger(333333, 4) == [333333, 416666, 499999, 583332]

    @pytest.mark.parametrize("ncpus", [1, 3, 5, 6, 8, 16, 33, 64])
    def test_exact_for_any_cpu_count(self, ncpus):
        period = 333333
        stagger = clock_stagger(period, ncpus)
        assert len(stagger) == ncpus
        assert stagger[0] == period
        # Strictly increasing, all inside one period: no two CPUs tick
        # together and nobody wraps into the next period.
        assert all(b > a for a, b in zip(stagger, stagger[1:]))
        assert all(period <= s < 2 * period for s in stagger)
        # Bresenham exactness: offsets are floor(period * i / n).
        assert [s - period for s in stagger] == [
            period * i // ncpus for i in range(ncpus)
        ]


class _KernelStandIn:
    """Just the kernel's ``params``. A plain class, not a SimpleNamespace:
    the scheduler holds its kernel by weak reference."""

    def __init__(self, params):
        self.params = params


class TestRunQueueHashing:
    @pytest.mark.parametrize("name", ["cpus8", "cpus16", "cpus32", "cpus64"])
    def test_every_queue_serves_a_cluster(self, name):
        preset = MACHINES[name]
        kernel = _KernelStandIn(preset.params)
        sched = Scheduler(kernel, num_queues=preset.run_queues)
        mapping = [
            sched.queue_of_cpu(cpu) for cpu in range(preset.params.num_cpus)
        ]
        # Every queue owned by at least one CPU, indices in range, and
        # contiguous 4-CPU clusters share a queue.
        assert set(mapping) == set(range(preset.run_queues))
        assert mapping == sorted(mapping)
        cluster = preset.params.num_cpus // preset.run_queues
        assert all(
            mapping[cpu] == cpu // cluster
            for cpu in range(preset.params.num_cpus)
        )


class TestSimulationSelection:
    def test_machine_by_name(self):
        sim = Simulation("multpgm", machine="cpus8")
        assert sim.params == MACHINES["cpus8"].params
        assert len(sim.processors) == 8
        # The preset's recommended distributed run queues are folded
        # into the default tuning.
        assert sim.kernel.scheduler.num_queues == MACHINES["cpus8"].run_queues

    def test_machine_params_equal_to_preset_gets_preset_queues(self):
        sim = Simulation("multpgm", machine=MACHINES["cpus8"].params)
        assert sim.kernel.scheduler.num_queues == MACHINES["cpus8"].run_queues

    def test_default_machine_keeps_global_queue(self):
        assert Simulation("multpgm").kernel.scheduler.num_queues == 1
        assert Simulation(
            "multpgm", machine="4d340"
        ).kernel.scheduler.num_queues == 1

    def test_explicit_tuning_wins(self):
        from repro.kernel.kernel import KernelTuning

        sim = Simulation(
            "multpgm", machine="cpus8", tuning=KernelTuning(num_run_queues=1)
        )
        assert sim.kernel.scheduler.num_queues == 1

    def test_machine_and_params_conflict(self):
        """A geometry has one spelling, machine=; every argument after
        the workload is keyword-only."""
        with pytest.raises(TypeError, match="params"):
            Simulation("multpgm", params=MachineParams())
        with pytest.raises(TypeError, match="positional"):
            Simulation("multpgm", MachineParams())

    def test_checked_run_sizes_sanitizers(self):
        """Per-CPU sanitizer state follows the machine, not a baked-in 4."""
        sim = Simulation("multpgm", machine="cpus8", seed=3, check=True)
        assert len(sim.checks.lockdep.held) == 8
        run = sim.run(1.0, warmup_ms=4.0)
        report = run.check_report
        assert report is not None and report.ok, report.to_text()


class TestContextAndCacheKeys:
    def test_default_cache_repr_is_legacy(self):
        assert RunSettings().cache_repr() == (
            "RunSettings(horizon_ms=80.0, warmup_ms=500.0, seed=7, "
            "check=False)"
        )

    def test_non_default_machine_enters_cache_repr(self):
        settings = RunSettings(machine="cpus16")
        assert settings.cache_repr().endswith("check=False, machine='cpus16')")

    def test_preset_params_key_as_name(self):
        by_name = RunSettings(machine="cpus16").cache_repr()
        by_params = RunSettings(machine=MACHINES["cpus16"].params).cache_repr()
        assert by_name == by_params

    def test_resolved_default_machine_has_no_sim_kwargs(self):
        ctx = ExperimentContext(RunSettings())
        assert ctx._settings_for({}).sim_kwargs() == {}
        assert ctx._settings_for({"machine": "4d340"}).sim_kwargs() == {}

    def test_resolved_scaled_machine(self):
        ctx = ExperimentContext(RunSettings())
        settings = ctx._settings_for({"machine": MACHINES["cpus8"].params})
        assert settings.sim_kwargs() == {"machine": "cpus8"}


class TestExhibitSchema:
    def test_to_dict_carries_version(self):
        exhibit = Exhibit("t", "T", ("a",))
        exhibit.add_row(1)
        payload = exhibit.to_dict()
        assert payload["schema_version"] == EXHIBIT_SCHEMA_VERSION
        assert list(payload)[0] == "schema_version"

    def test_round_trip(self):
        exhibit = Exhibit("t", "T", ("a", "b"))
        exhibit.add_row(1, 2.5)
        exhibit.note("n")
        clone = Exhibit.from_dict(exhibit.to_dict())
        assert clone.to_dict() == exhibit.to_dict()
        assert clone.to_text() == exhibit.to_text()

    def test_accepts_version1_payload(self):
        payload = {
            "exhibit_id": "t", "title": "T", "columns": ["a"],
            "rows": [[1]], "notes": [],
        }
        clone = Exhibit.from_dict(payload)
        assert clone.rows == [(1,)]
        # Re-serialized at the current version.
        assert clone.to_dict()["schema_version"] == EXHIBIT_SCHEMA_VERSION

    def test_rejects_newer_version(self):
        payload = Exhibit("t", "T", ("a",)).to_dict()
        payload["schema_version"] = EXHIBIT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            Exhibit.from_dict(payload)


class TestApiSurface:
    def test_run_machine_kwarg(self):
        run = api.run("multpgm", horizon_ms=1.0, warmup_ms=4.0,
                      machine="cpus8")
        assert run.params.num_cpus == 8

    def test_params_shim_warns_and_works(self):
        """The params= shim is gone: it fails loudly and names machine=."""
        with pytest.raises(TypeError, match="machine="):
            api.run(
                "multpgm", horizon_ms=1.0, warmup_ms=4.0,
                params=MachineParams(num_cpus=2),
            )

    def test_machine_and_params_conflict(self):
        with pytest.raises(TypeError, match="machine="):
            api.run("multpgm", machine="cpus8", params=MachineParams())

    def test_report_forwards_machine(self):
        report = api.report("multpgm", horizon_ms=1.0, warmup_ms=4.0,
                            machine="cpus8")
        assert report.analysis.total_misses() > 0

    def test_report_rejects_machine_with_run(self):
        run = api.run("multpgm", horizon_ms=1.0, warmup_ms=4.0)
        with pytest.raises(TypeError, match="machine"):
            api.report("multpgm", run=run, machine="cpus8")

    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError, match="unknown machine"):
            api.run("multpgm", horizon_ms=1.0, warmup_ms=4.0,
                    machine="pdp11")

    def test_exports(self):
        assert "cpus16" in api.MACHINES
        assert api.machine_for_cpus(8) == "cpus8"
        assert api.resolve_machine("cpus8").num_cpus == 8


class TestServiceMachineParam:
    def test_unknown_machine_is_400(self):
        from repro.service.app import ServiceApp, ServiceConfig

        app = ServiceApp(ServiceConfig(no_cache=True))
        reply = app.handle("GET", "/exhibits/table1", "machine=bogus")
        assert reply.status == 400
        assert reply.json()["choices"] == list(MACHINES)

    def test_alias_resolves_before_lookup(self):
        from repro.service.app import ServiceApp, ServiceConfig

        app = ServiceApp(ServiceConfig(no_cache=True))
        exhibit = Exhibit("figure-scaling", "T", ("a",))
        app.exhibits[("figure-scaling", app.config.settings)] = exhibit
        direct = app.handle("GET", "/exhibits/figure-scaling", "")
        alias = app.handle("GET", "/exhibits/scaling", "")
        assert direct.status == alias.status == 200
        assert direct.body == alias.body


class TestScalingExperiment:
    def test_sweep_caps_at_context_machine(self):
        from repro.experiments import scaling

        ctx = ExperimentContext(RunSettings(machine="cpus8"))
        assert scaling.sweep_machines(ctx) == ["4d340", "cpus8"]
        ctx = ExperimentContext(RunSettings(machine="cpus64"))
        assert scaling.sweep_machines(ctx) == LADDER
        # The default ladder stops at cpus16.
        ctx = ExperimentContext(RunSettings())
        assert scaling.sweep_machines(ctx) == ["4d340", "cpus8", "cpus16"]

    def test_build_and_alias(self):
        from repro.experiments.registry import run_experiment

        ctx = ExperimentContext(
            RunSettings(horizon_ms=2.0, warmup_ms=10.0, machine="cpus8")
        )
        exhibit = run_experiment("scaling", ctx)
        assert exhibit.exhibit_id == "figure-scaling"
        assert [row[0] for row in exhibit.rows] == ["4d340", "cpus8"]
        assert [row[1] for row in exhibit.rows] == [4, 8]
        # Alias and canonical id share the context cache entry.
        assert run_experiment("figure-scaling", ctx) is exhibit
