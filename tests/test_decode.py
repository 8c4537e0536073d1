"""The trace analyzer against the simulator's ground truth.

These are the reproduction's central correctness tests: everything the
postprocessor infers from the bus trace alone must agree with what the
simulator knows actually happened. The second half holds the decoder's
single inline loop to a per-entry reference decoder built on
:class:`ReconstructedCache`'s methods, byte for byte.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import report as report_module
from repro.analysis.decode import FIG5_BUCKET_BYTES, TraceAnalyzer
from repro.analysis.report import analyze_trace
from repro.common.types import InterruptKind, MissClass, Mode, RefDomain
from repro.kernel.kernel import CODE_OP
from repro.kernel.structures import StructName
from repro.kernel import tlbfault
from repro.memsys.memory import FRAMES_BASE, KTEXT_BASE, KTEXT_SIZE
from repro.monitor.escapes import EventType, payload_address, signal_address
from repro.monitor.hwmonitor import (
    OP_READ,
    OP_UNCACHED,
    OP_WRITE,
    Trace,
    TraceSegment,
)


@pytest.fixture(scope="module")
def truth_and_analysis(nowarmup_run):
    report = analyze_trace(nowarmup_run)
    return nowarmup_run, report


class TestMissTotalsExact:
    def test_total_misses_match_bus(self, truth_and_analysis):
        run, report = truth_and_analysis
        analysis = report.analysis
        cacheable_txns = run.memsys.bus_reads + run.memsys.bus_writes
        assert analysis.total_misses() + analysis.upgrades == cacheable_txns

    def test_escape_count_matches(self, truth_and_analysis):
        run, report = truth_and_analysis
        assert report.analysis.escape_reads == run.memsys.bus_uncached


class TestClassAgreement:
    @pytest.mark.parametrize("domain", [RefDomain.OS, RefDomain.APP])
    def test_class_counts_close(self, truth_and_analysis, domain):
        """Per-class counts agree with ground truth to within 1%
        (residual skew comes from cross-CPU timestamp interleaving in
        the recorded order)."""
        run, report = truth_and_analysis
        measured = report.analysis.class_counts(domain)
        expected = run.memsys.truth.class_counts(domain=domain)
        expected.pop(MissClass.UNCACHED, None)
        total = sum(expected.values())
        for cls in set(measured) | set(expected):
            delta = abs(measured.get(cls, 0) - expected.get(cls, 0))
            assert delta <= max(5, 0.01 * total), (cls, measured, expected)

    def test_domain_totals_close(self, truth_and_analysis):
        run, report = truth_and_analysis
        for domain in (RefDomain.OS, RefDomain.APP):
            measured = report.analysis.total_misses(domain)
            expected = sum(
                count
                for (dom, _k, cls), count in run.memsys.truth.counts.items()
                if dom is domain and cls is not MissClass.UNCACHED
            )
            assert measured == pytest.approx(expected, rel=0.01)


class TestTimeAccounting:
    def test_split_matches_ground_truth(self, truth_and_analysis):
        run, report = truth_and_analysis
        total = {mode: 0 for mode in Mode}
        for proc in run.processors:
            for mode in Mode:
                total[mode] += proc.mode_cycles[mode]
        grand = sum(total.values())
        # Tolerance 2.5 points: the decoder sees state changes only at
        # bus events, so short quiet stretches around blocking/idle
        # transitions can land in the neighbouring bucket (the paper's
        # own instrumentation distorted cycle counts by 1.5-7%).
        assert report.user_pct == pytest.approx(
            100.0 * total[Mode.USER] / grand, abs=2.5
        )
        assert report.sys_pct == pytest.approx(
            100.0 * total[Mode.KERNEL] / grand, abs=2.5
        )
        assert report.idle_pct == pytest.approx(
            100.0 * total[Mode.IDLE] / grand, abs=2.5
        )

    def test_ticks_sum_to_wall_time(self, truth_and_analysis):
        _run, report = truth_and_analysis
        analysis = report.analysis
        total = analysis.user_ticks + analysis.sys_ticks + analysis.idle_ticks
        assert total == analysis.measured_ticks * analysis.num_cpus


class TestInvocations:
    def test_invocation_count_matches_kernel(self, truth_and_analysis):
        run, report = truth_and_analysis
        # Kernel counts every os_invocation() including nested ones and
        # UTLB faults; the analyzer's outermost invocations + UTLB
        # spikes + nested entries must add up.
        kernel_total = run.kernel.os_invocations + run.kernel.tlbfaults.utlb_faults
        analyzer_total = sum(report.analysis.op_counts.values()) - sum(
            count for label, count in report.analysis.op_counts.items()
            if label.startswith("intr_")
        )
        assert analyzer_total == pytest.approx(kernel_total, rel=0.02)

    def test_utlb_faults_counted(self, truth_and_analysis):
        run, report = truth_and_analysis
        assert report.analysis.utlb_count == pytest.approx(
            run.kernel.tlbfaults.utlb_faults, rel=0.02
        )

    def test_utlb_faults_nearly_miss_free(self, truth_and_analysis):
        """Figure 1: a UTLB fault causes well under a miss on average
        once the handler is warm."""
        _run, report = truth_and_analysis
        analysis = report.analysis
        if analysis.utlb_count >= 50:
            assert analysis.utlb_misses / analysis.utlb_count < 2.0

    def test_invocations_have_positive_duration(self, truth_and_analysis):
        _run, report = truth_and_analysis
        assert all(i.duration_ticks >= 0 for i in report.analysis.invocations)

    def test_blockop_log_matches_kernel(self, truth_and_analysis):
        run, report = truth_and_analysis
        kernel_ops = (
            run.kernel.blockops.copies
            + run.kernel.blockops.clears
            + run.kernel.blockops.traversals
        )
        assert len(report.analysis.blockop_log) == kernel_ops


class TestAttribution:
    def test_sharing_by_struct_totals(self, truth_and_analysis):
        _run, report = truth_and_analysis
        analysis = report.analysis
        by_struct = sum(analysis.sharing_by_struct.values())
        sharing_total = analysis.miss_counts.get(
            (RefDomain.OS, "D", MissClass.SHARING), 0
        )
        assert by_struct == sharing_total

    def test_migration_ops_subset_of_migration_misses(self, truth_and_analysis):
        _run, report = truth_and_analysis
        analysis = report.analysis
        from repro.experiments.derive import migration_misses

        assert (
            sum(analysis.migration_op_misses.values())
            <= migration_misses(analysis)["total"]
            + analysis.sharing_by_struct.get(StructName.RUN_QUEUE, 0)
        )

    def test_dispos_routines_are_real(self, truth_and_analysis):
        run, report = truth_and_analysis
        for name in report.analysis.imiss_dispos_by_routine:
            assert name in run.kernel.layout.routines


# ----------------------------------------------------------------------
# The single-loop decoder against the per-entry reference decoder
# ----------------------------------------------------------------------
_KTEXT_END = KTEXT_BASE + KTEXT_SIZE


class _ReferenceAnalyzer(TraceAnalyzer):
    """The per-entry decoder: one method call per cacheable entry, on
    :class:`ReconstructedCache`'s ``classify_fill``/``invalidate``/
    ``resident``."""

    def feed(self, entries) -> None:
        for entry in entries:
            if entry[3] == OP_UNCACHED:
                self._escape(entry)
            else:
                self._reference(entry)

    def _reference(self, entry) -> None:
        tick, cpu, addr, op = entry
        cpu_state = self._cpus[cpu]
        recon = self._recons[cpu]
        result = self.result
        in_window = tick >= self._window_start
        block = addr // self.block_bytes
        is_instr = self._is_instr(addr)
        domain = (
            RefDomain.OS
            if (cpu_state.os_depth > 0 or cpu_state.idle)
            else RefDomain.APP
        )
        if op == OP_WRITE:
            result.monitor_writes += 1
            for other, other_recon in enumerate(self._recons):
                if other != cpu:
                    other_recon.dcache.invalidate(block)
            if recon.dcache.resident(block):
                if in_window:
                    result.upgrades += 1
                return
        elif is_instr:
            result.monitor_instr_reads += 1
        else:
            result.monitor_data_reads += 1
        cache = recon.icache if is_instr else recon.dcache
        miss_class, dispossame = cache.classify_fill(
            block, domain, recon.app_epoch
        )
        if is_instr and miss_class is MissClass.SHARING:
            miss_class = MissClass.INVAL
        kind = "I" if is_instr else "D"
        if is_instr and self.keep_imiss_stream:
            result.imiss_stream.append(
                (cpu, block, domain is RefDomain.OS, in_window)
            )
        if domain is RefDomain.OS:
            if is_instr:
                cpu_state.inv_imiss += 1
            else:
                cpu_state.inv_dmiss += 1
        else:
            if is_instr:
                cpu_state.app_imiss += 1
            else:
                cpu_state.app_dmiss += 1
        if not in_window:
            return
        result.miss_counts[(domain, kind, miss_class)] += 1
        if dispossame:
            result.dispossame[(domain, kind)] += 1
        if domain is RefDomain.OS and cpu_state.op_stack:
            result.op_misses[(cpu_state.op_stack[-1], kind)] += 1
        if domain is RefDomain.OS:
            if is_instr:
                routine_name = self.layout.routine_at(addr)
                if routine_name is not None:
                    result.imiss_by_routine[routine_name] += 1
                if miss_class is MissClass.DISPOS:
                    if routine_name is not None:
                        result.imiss_dispos_by_routine[routine_name] += 1
                    result.imiss_dispos_addr_hist[addr // FIG5_BUCKET_BYTES] += 1
            else:
                struct = self.datamap.structure_at(addr)
                result.dmiss_by_struct_class[(struct, miss_class)] += 1
                if miss_class is MissClass.SHARING:
                    result.sharing_by_struct[struct] += 1
                    if struct is StructName.EFRAME:
                        result.migration_op_misses["low_level_exception"] += 1
                    elif struct in (StructName.PCB, StructName.RUN_QUEUE):
                        result.migration_op_misses["run_queue_mgmt"] += 1
                    elif (
                        struct is StructName.USTRUCT_REST
                        and cpu_state.op_stack
                        and cpu_state.op_stack[-1] == "io_syscall"
                    ):
                        result.migration_op_misses["rw_setup"] += 1
                if cpu_state.blockop is not None:
                    result.blockop_misses[cpu_state.blockop] += 1
        else:
            if miss_class is MissClass.DISPOS:
                result.ap_dispos[kind] += 1

    def _is_instr(self, addr: int) -> bool:
        if addr < _KTEXT_END:
            return True
        return self._frame_is_text.get(addr >> 12, False)


def _decoder_state(analyzer) -> bytes:
    """Everything the decode loop leaves behind, order included."""
    return pickle.dumps((
        analyzer.result, analyzer._recons, analyzer._cpus,
        analyzer._frame_is_text,
    ))


# Small reconstructed caches (16 sets) and a small per-example pool of
# referenced addresses make re-references common, and with them
# evictions, Dispos/Dispap/Sharing/Inval misses, upgrades and
# cross-CPU invalidations.
_SETS = 16
_BLOCK_BYTES = 16
_USER_FRAMES = [FRAMES_BASE // 4096 + i for i in range(4)]
# Region bases the pool is drawn around: kernel text (routine bodies
# and gaps), the kernel data structures behind each Sharing-attribution
# branch (Eframe, PCB, run queue, rest of the user structure) plus the
# kernel stack, process table and heap, and user frames.
_BASES = [
    0x000000, 0x004000, 0x0a0000,
    0x1d60f0, 0x1d6000, 0x153c00, 0x1d619c, 0x156000, 0x100000, 0x300000,
] + [frame * 4096 for frame in _USER_FRAMES]
_POOL = st.lists(
    st.builds(
        lambda base, block, byte: base + block * _BLOCK_BYTES + byte,
        st.sampled_from(_BASES), st.integers(0, 2 * _SETS), st.integers(0, 15),
    ),
    min_size=1, max_size=10,
)
_OS_OPS = st.sampled_from(sorted(CODE_OP) + [tlbfault.UTLB_OP_CODE])
_EVENTS = st.one_of(
    st.tuples(st.just(EventType.OS_ENTER), st.tuples(_OS_OPS)),
    st.tuples(st.just(EventType.OS_EXIT), st.just(())),
    st.tuples(st.sampled_from([EventType.IDLE_ENTER, EventType.IDLE_EXIT,
                               EventType.BLOCKOP_END, EventType.INTR_EXIT,
                               EventType.TRACE_START]),
              st.just(())),
    st.tuples(st.just(EventType.PID_SET), st.tuples(st.integers(0, 3))),
    st.tuples(st.just(EventType.TLB_UPDATE), st.builds(
        lambda index, vpage, frame, pid, is_text: (
            index, vpage, frame, pid * 2 + is_text),
        st.integers(0, 63), st.integers(0, 255),
        st.sampled_from(_USER_FRAMES), st.integers(0, 3), st.integers(0, 1))),
    st.tuples(st.just(EventType.ICACHE_FLUSH),
              st.tuples(st.sampled_from(_USER_FRAMES))),
    st.tuples(st.just(EventType.BLOCKOP_BEGIN), st.tuples(
        st.integers(0, 3), st.integers(0, 4096), st.integers(0, 64))),
    st.tuples(st.just(EventType.INTR_ENTER),
              st.tuples(st.integers(0, len(InterruptKind) - 1))),
)
# (tick advance, cpu, step): a step is a reference (pool index,
# is_write) or an escape event with its payloads.
_STEPS = st.lists(
    st.tuples(
        st.integers(0, 4), st.integers(0, 3),
        st.one_of(
            st.tuples(st.just("ref"), st.tuples(st.integers(0, 9), st.booleans())),
            st.tuples(st.just("event"), _EVENTS),
        ),
    ),
    min_size=40, max_size=200,
)
# A seam dump's blocks, as pool indices.
_INDICES = st.integers(0, 9)
_CACHE_DUMP = st.fixed_dictionaries({
    "resident": st.lists(_INDICES, max_size=4),
    "ever_cached": st.sets(_INDICES, max_size=8),
    "evicted_by": st.dictionaries(
        _INDICES,
        st.tuples(st.sampled_from([RefDomain.OS, RefDomain.APP]),
                  st.integers(0, 3)),
        max_size=4,
    ),
    "invalidated": st.sets(_INDICES, max_size=4),
})
_SEAM_ENTRY = st.fixed_dictionaries({
    "app_epoch": st.integers(0, 3),
    "icache": _CACHE_DUMP,
    "dcache": _CACHE_DUMP,
})


def _trace(pool, steps, num_cpus, cuts):
    """Encode ``steps`` as monitor entries, split into segments."""
    entries = []
    tick = 0
    for advance, cpu, (what, args) in steps:
        cpu %= num_cpus
        tick += advance
        if what == "ref":
            index, write = args
            addr = pool[index % len(pool)]
            entries.append((tick, cpu, addr, OP_WRITE if write else OP_READ))
            continue
        event, payloads = args
        entries.append((tick, cpu, signal_address(event), OP_UNCACHED))
        for value in payloads:
            entries.append((tick, cpu, payload_address(value), OP_UNCACHED))
    bounds = sorted({0, len(entries), *(c % (len(entries) + 1) for c in cuts)})
    segments = [
        TraceSegment(
            start_cycles=2 * chunk[0][0], entries=chunk,
            end_cycles=2 * chunk[-1][0] + 1,
        )
        for chunk in (entries[a:b] for a, b in zip(bounds, bounds[1:]))
        if chunk
    ]
    return Trace(segments), tick


def _seam_state(pool, seam, num_cpus):
    """The drawn seam dumps, with pool indices mapped to blocks."""
    if seam is None:
        return None
    blocks = [addr // _BLOCK_BYTES for addr in pool]

    def block(index):
        return blocks[index % len(blocks)]

    return [
        {
            "app_epoch": entry["app_epoch"],
            **{
                key: {
                    "resident": [block(i) for i in entry[key]["resident"]],
                    "ever_cached": {block(i) for i in entry[key]["ever_cached"]},
                    "evicted_by": {
                        block(i): displaced
                        for i, displaced in entry[key]["evicted_by"].items()
                    },
                    "invalidated": {block(i) for i in entry[key]["invalidated"]},
                }
                for key in ("icache", "dcache")
            },
        }
        for entry in seam[:num_cpus]
    ]


class TestSingleLoopDecoderMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        num_cpus=st.integers(2, 4),
        pool=_POOL,
        steps=_STEPS,
        cuts=st.lists(st.integers(0, 1000), max_size=2),
        window=st.floats(0.0, 1.0),
        seam=st.one_of(st.none(), st.lists(_SEAM_ENTRY, min_size=4, max_size=4)),
        keep_imiss_stream=st.booleans(),
    )
    def test_same_analysis_reconstruction_and_cpu_state(
        self, num_cpus, pool, steps, cuts, window, seam, keep_imiss_stream
    ):
        trace, last_tick = _trace(pool, steps, num_cpus, cuts)
        stats_from_tick = int(window * last_tick)
        analyzers = []
        for cls in (TraceAnalyzer, _ReferenceAnalyzer):
            analyzer = cls(
                "prop", num_cpus,
                icache_bytes=_SETS * _BLOCK_BYTES,
                dcache_bytes=_SETS * _BLOCK_BYTES,
                block_bytes=_BLOCK_BYTES,
                keep_imiss_stream=keep_imiss_stream,
            )
            analyzer.seed_seam(_seam_state(pool, seam, num_cpus))
            analyzer.analyze(trace, stats_from_tick=stats_from_tick)
            analyzers.append(analyzer)
        new, ref = analyzers
        assert pickle.dumps(new.result) == pickle.dumps(ref.result)
        assert _decoder_state(new) == _decoder_state(ref)


@pytest.fixture(scope="module", params=["pmake", "netserver", "oracle-mixed"])
def short_run(request):
    from repro import api

    workload, _, fidelity = request.param.partition("-")
    kwargs = {"fidelity": fidelity} if fidelity else {}
    return api.run(workload, horizon_ms=3.0, warmup_ms=15.0, seed=7, **kwargs)


class TestSingleLoopDecoderOnRuns:
    def test_same_report_as_reference(self, short_run, monkeypatch):
        new = analyze_trace(short_run)
        monkeypatch.setattr(report_module, "TraceAnalyzer", _ReferenceAnalyzer)
        ref = analyze_trace(short_run)
        assert new.analysis.total_misses() > 0
        assert pickle.dumps(new) == pickle.dumps(ref)
