"""Workload models: setup invariants and driver progression."""

import pytest

from repro.common.rng import substream
from repro.api import Simulation
from repro.workloads import (
    WORKLOADS, canonical_workload_args, make_workload, parse_workload_args,
    register_workload, workload_arg_names,
)
from repro.workloads.kv import KvWorkload
from repro.workloads.multpgm import MultpgmWorkload
from repro.workloads.netserver import NetserverWorkload
from repro.workloads.oracle import OracleWorkload
from repro.workloads.pmake import PmakeWorkload

ALL_WORKLOADS = ("pmake", "multpgm", "oracle", "kv", "netserver")


class TestFactory:
    def test_known_names(self):
        for name in ALL_WORKLOADS:
            assert make_workload(name).name == name

    def test_case_insensitive(self):
        assert make_workload("PMAKE").name == "pmake"

    def test_unknown_rejected_listing_all(self):
        with pytest.raises(ValueError) as excinfo:
            make_workload("doom")
        for name in ALL_WORKLOADS:
            assert name in str(excinfo.value)

    def test_registry_complete(self):
        assert set(WORKLOADS) == set(ALL_WORKLOADS)

    def test_kwargs_reach_the_workload(self):
        workload = make_workload("kv", skew=1.2, workers=3)
        assert workload.skew == 1.2
        assert workload.workers == 3

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            register_workload("kv", KvWorkload)
        assert "already registered" in str(excinfo.value)

    def test_uppercase_registration_rejected(self):
        with pytest.raises(ValueError):
            register_workload("Doom", KvWorkload)


class TestWorkloadArgs:
    def test_canonical_sorts_and_stringifies_names(self):
        assert canonical_workload_args({"skew": 1.2, "keys": 64}) == (
            ("keys", 64), ("skew", 1.2),
        )

    def test_canonical_empty_forms(self):
        assert canonical_workload_args(None) == ()
        assert canonical_workload_args({}) == ()
        assert canonical_workload_args(()) == ()

    def test_canonical_accepts_pair_iterables(self):
        pairs = (("skew", 1.2), ("keys", 64))
        assert canonical_workload_args(pairs) == (
            ("keys", 64), ("skew", 1.2),
        )

    def test_parse_coerces_int_float_str(self):
        parsed = parse_workload_args(["keys=64", "skew=1.2", "mode=fast"])
        assert parsed == (("keys", 64), ("mode", "fast"), ("skew", 1.2))
        assert isinstance(parsed[0][1], int)
        assert isinstance(parsed[2][1], float)

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_workload_args(["skew"])
        with pytest.raises(ValueError):
            parse_workload_args(["=1.2"])

    def test_simulation_applies_args_by_name(self):
        sim = Simulation("kv", seed=1, workload_args=(("skew", 1.2),))
        assert sim.workload.skew == 1.2

    def test_arg_names_follow_the_constructors(self):
        assert workload_arg_names("pmake") == ("max_jobs", "num_files")
        assert workload_arg_names("multpgm") == ()
        every = workload_arg_names()
        assert set(workload_arg_names("kv")) <= set(every)
        assert "scale" in every and "self" not in every

    def test_make_workload_names_the_args_it_takes(self):
        """A knob another workload takes fails before the constructor,
        naming this workload and its knobs."""
        with pytest.raises(ValueError) as excinfo:
            make_workload("pmake", skew=1.2)
        assert str(excinfo.value) == (
            "workload 'pmake' takes no argument 'skew'; "
            "it takes max_jobs, num_files"
        )
        with pytest.raises(ValueError, match="'multpgm' .* takes none"):
            make_workload("multpgm", skew=1.2)

    def test_simulation_rejects_args_with_instance(self):
        with pytest.raises(TypeError):
            Simulation(KvWorkload(), seed=1, workload_args=(("skew", 1.2),))

    def test_bad_knob_value_raises(self):
        with pytest.raises(ValueError):
            make_workload("kv", workers=0)
        with pytest.raises(ValueError):
            make_workload("kv", skew=-0.5)
        with pytest.raises(ValueError):
            make_workload("kv", get_fraction=1.5)
        with pytest.raises(ValueError):
            make_workload("netserver", servers=0)
        with pytest.raises(ValueError):
            make_workload("netserver", arrivals_per_ms=0.0)
        with pytest.raises(ValueError):
            make_workload("netserver", read_bytes=10**9)


class TestPmakeSetup:
    @pytest.fixture(scope="class")
    def sim(self):
        return Simulation("pmake", seed=1)

    def test_56_sources_registered(self, sim):
        sources = [f for f in sim.kernel.fs.files.values()
                   if f.name.endswith(".c")]
        assert len(sources) == 56

    def test_make_process_created(self, sim):
        names = [p.name for p in sim.kernel.processes.values()]
        assert "make" in names

    def test_make_image_preloaded(self, sim):
        workload = sim.workload
        assert workload.make_image.resident()
        # The compiler is demand-paged, not preloaded.
        assert not workload.cc_image.resident()


class TestMultpgmSetup:
    @pytest.fixture(scope="class")
    def sim(self):
        return Simulation("multpgm", seed=1)

    def test_component_processes(self, sim):
        names = [p.name for p in sim.kernel.processes.values()]
        assert sum(1 for n in names if n.startswith("mp3d")) == 4
        assert sum(1 for n in names if n.startswith("ed")) == 5
        assert "make" in names  # the embedded Pmake

    def test_mp3d_shares_particle_pages(self, sim):
        mp3d = [p for p in sim.kernel.processes.values()
                if p.name.startswith("mp3d")]
        shared_vpage = 0x110
        frames = {p.data_frames[shared_vpage] for p in mp3d}
        assert len(frames) == 1
        assert sim.kernel.frame_shared(frames.pop())

    def test_tty_events_respect_horizon(self, sim):
        events = sim.workload.tty_events(10**7, substream(0, "tty"))
        assert events
        assert all(0 <= t < 10**7 for t, _sid, _n in events)
        assert all(1 <= n <= 15 for _t, _sid, n in events)  # paper bursts
        assert {sid for _t, sid, _n in events} == set(range(5))


class TestOracleSetup:
    @pytest.fixture(scope="class")
    def sim(self):
        return Simulation("oracle", seed=1)

    def test_servers_plus_lgwr(self, sim):
        names = [p.name for p in sim.kernel.processes.values()]
        assert sum(1 for n in names if n.startswith("oracle-")) >= 6
        assert "oracle-lgwr" in names

    def test_sga_shared_by_all(self, sim):
        procs = [p for p in sim.kernel.processes.values()]
        vpage = 0x110
        frames = {p.data_frames[vpage] for p in procs}
        assert len(frames) == 1

    def test_tp1_files(self, sim):
        dbf = [f for f in sim.kernel.fs.files.values()
               if f.name.endswith(".dbf")]
        assert len(dbf) == 10  # the 10 branches

    def test_big_binary(self, sim):
        assert sim.workload.oracle_image.text_pages * 4096 > 1024 * 1024


class TestKvSetup:
    @pytest.fixture(scope="class")
    def sim(self):
        return Simulation("kv", seed=1)

    def test_store_files_registered(self, sim):
        stores = [f for f in sim.kernel.fs.files.values()
                  if f.name.endswith(".kv")]
        assert len(stores) == 16

    def test_keyspace_dwarfs_buffer_cache(self, sim):
        from repro.kernel.fs import BUFFER_BYTES, NBUF

        workload = sim.workload
        keyspace = sum(f.size for f in sim.kernel.fs.files.values()
                       if f.name.endswith(".kv"))
        assert keyspace >= workload.keys * workload.value_bytes
        assert keyspace > 50 * NBUF * BUFFER_BYTES

    def test_worker_processes(self, sim):
        names = [p.name for p in sim.kernel.processes.values()]
        assert sum(1 for n in names if n.startswith("kvd-")) == 6

    def test_image_preloaded(self, sim):
        assert sim.workload.kv_image.resident()


class TestNetserverSetup:
    @pytest.fixture(scope="class")
    def sim(self):
        return Simulation("netserver", seed=1)

    def test_documents_registered(self, sim):
        docs = [f for f in sim.kernel.fs.files.values()
                if f.name.endswith(".dat")]
        assert len(docs) == 24

    def test_server_processes(self, sim):
        names = [p.name for p in sim.kernel.processes.values()]
        assert sum(1 for n in names if n.startswith("netd-")) == 4

    def test_net_events_respect_horizon(self, sim):
        events = sim.workload.net_events(10**7, substream(0, "net"))
        assert events
        assert all(0 <= t < 10**7 for t, _sid, _n in events)
        assert {sid for _t, sid, _n in events} == set(range(4))

    def test_arrival_rate_scales(self):
        slow = NetserverWorkload(arrivals_per_ms=1.0)
        fast = NetserverWorkload(arrivals_per_ms=8.0)
        horizon = 5 * 10**6
        n_slow = len(slow.net_events(horizon, substream(0, "net")))
        n_fast = len(fast.net_events(horizon, substream(0, "net")))
        assert n_fast > 2 * n_slow


class TestDriversMakeProgress:
    @pytest.mark.parametrize("name", list(ALL_WORKLOADS))
    def test_syscalls_issued_within_short_run(self, name):
        sim = Simulation(name, seed=2)
        sim.run(8.0, warmup_ms=0.0)
        assert sim.kernel.os_invocations > 0
        assert sum(sim.kernel.syscalls.counts.values()) > 0


class TestServerWorkloadDeterminism:
    @pytest.mark.parametrize("name", ["kv", "netserver"])
    def test_same_seed_same_counters(self, name):
        def fingerprint():
            sim = Simulation(name, seed=5)
            sim.run(5.0, warmup_ms=10.0)
            bc = sim.kernel.fs.buffer_cache
            return (
                sim.kernel.os_invocations,
                bc.hits, bc.misses,
                dict(sim.kernel.syscalls.counts),
                max(p.cycles for p in sim.kernel.processors),
            )
        assert fingerprint() == fingerprint()

    def test_kv_skew_moves_hit_rate(self):
        def hit_rate(skew):
            sim = Simulation("kv", seed=7, workload_args=(("skew", skew),))
            sim.run(10.0, warmup_ms=100.0)
            bc = sim.kernel.fs.buffer_cache
            return bc.hits / (bc.hits + bc.misses)
        assert hit_rate(1.2) > hit_rate(0.0) + 0.05

    def test_netserver_interrupts_delivered(self):
        from repro.common.types import InterruptKind

        sim = Simulation("netserver", seed=5)
        sim.run(5.0, warmup_ms=10.0)
        assert sim.kernel.interrupts.counts[InterruptKind.NETWORK] > 0
        assert sum(sim.workload.served.values()) >= 0  # ledger exists
        assert sim.kernel.tty_input  # requests queued on the streams
