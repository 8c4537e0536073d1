"""Full-system integration invariants across all three workloads."""

from repro.analysis.report import analyze_trace
from repro.common.types import MissClass, Mode, RefDomain
from repro.kernel.process import ProcState


class TestSystemInvariants:
    def test_frames_conserved(self, any_run):
        """Allocated + free frames always equals the pool size."""
        kernel = any_run.kernel
        phys = kernel.memsys.memory
        assert len(phys._allocated) + phys.free_frame_count() == phys.num_frames

    def test_no_lock_left_held(self, any_run):
        for lock in any_run.kernel.locks.all_locks():
            assert lock.holder_cpu is None, lock.name

    def test_lock_acquires_match_releases(self, any_run):
        for lock in any_run.kernel.locks.all_locks():
            assert lock.stats.acquires == lock.stats.releases, lock.name

    def test_every_cpu_saw_kernel_time(self, any_run):
        for proc in any_run.processors:
            assert proc.mode_cycles[Mode.KERNEL] > 0

    def test_clocks_monotone_and_reach_horizon(self, any_run):
        horizon = any_run.simulation.horizon_cycles
        for proc in any_run.processors:
            assert proc.cycles >= horizon

    def test_processes_in_consistent_states(self, any_run):
        kernel = any_run.kernel
        for process in kernel.processes.values():
            if process.state is ProcState.RUNNING:
                assert kernel.current[process.last_cpu] is process
            if process.state is ProcState.SLEEPING:
                assert process.sleep_channel is not None

    def test_current_processes_marked_running(self, any_run):
        for cpu, process in enumerate(any_run.kernel.current):
            if process is not None:
                assert process.state is ProcState.RUNNING

    def test_trace_timestamps_monotone_per_cpu(self, any_run):
        """Entries are in recording order; each CPU's own timestamps are
        monotone (cross-CPU interleaving is bounded clock skew)."""
        last = {}
        for segment in any_run.trace.segments:
            for tick, cpu, _addr, _op in segment.entries:
                assert tick >= last.get(cpu, 0)
                last[cpu] = tick

    def test_sginap_means_lock_backoff_happened(self, multpgm_run):
        kernel = multpgm_run.kernel
        engine = multpgm_run.simulation.engine
        assert kernel.syscalls.counts["sginap"] >= engine.lock_sginaps


class TestPaperShapeProperties:
    """Qualitative results the paper reports must hold in any decent run."""

    def test_os_misses_substantial(self, any_run):
        truth = any_run.kernel.memsys.truth
        os_misses = truth.total_misses(RefDomain.OS)
        total = truth.total_misses()
        assert os_misses / total > 0.10

    def test_migration_produces_sharing_misses(self, multpgm_run):
        report = analyze_trace(multpgm_run, keep_imiss_stream=False)
        from repro.experiments.derive import migration_misses

        assert migration_misses(report.analysis)["total"] > 0

    def test_blockops_produce_data_misses(self, pmake_report):
        assert sum(pmake_report.analysis.blockop_misses.values()) > 0

    def test_instruction_misses_significant(self, any_run):
        """Section 4.2.1: OS instruction misses are a large share of OS
        misses (the paper's first major source)."""
        truth = any_run.kernel.memsys.truth
        i_misses = sum(
            count for (dom, kind, cls), count in truth.counts.items()
            if dom is RefDomain.OS and kind == "I"
            and cls is not MissClass.UNCACHED
        )
        os_misses = sum(
            count for (dom, _kind, cls), count in truth.counts.items()
            if dom is RefDomain.OS and cls is not MissClass.UNCACHED
        )
        assert i_misses / os_misses > 0.2

    def test_os_locks_show_locality(self, pmake_run):
        """Section 5.2: OS lock accesses have high locality overall."""
        stats = pmake_run.kernel.locks.family_stats()
        acquires = sum(s.acquires for s in stats.values())
        local = sum(s.same_cpu_no_intervening for s in stats.values())
        assert acquires > 100
        assert local / acquires > 0.3

    def test_lock_contention_low_on_4_cpus(self, pmake_run):
        """Section 5.2: low lock contention with four CPUs."""
        stats = pmake_run.kernel.locks.family_stats()
        acquires = sum(s.acquires for s in stats.values())
        failed = sum(s.failed_acquires for s in stats.values())
        assert failed / acquires < 0.25

    def test_oracle_has_biggest_app_footprint(self, pmake_run, oracle_run):
        """Oracle's application misses dominate relative to OS misses
        (Table 1: OS share 26.6% vs Pmake's 52.6%)."""
        def os_share(run):
            truth = run.kernel.memsys.truth
            return truth.total_misses(RefDomain.OS) / truth.total_misses()

        assert os_share(oracle_run) < os_share(pmake_run)

    def test_ap_dispos_exists(self, nowarmup_report):
        assert sum(nowarmup_report.analysis.ap_dispos.values()) > 0
