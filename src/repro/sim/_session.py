"""Top-level simulation session.

Builds the full machine (memory system, CPUs, kernel, monitor, master
tracer), installs a workload, and runs the event loop: CPUs execute in
interleaved slices ordered by their local clocks; clock interrupts, disk
completions, terminal input and the master tracer's buffer checks are
delivered at slice boundaries.

``Simulation(workload, ...).run(horizon_ms, warmup_ms=...)`` returns a
:class:`TracedRun` bundling the recorded trace with the machine handles
the analysis pipeline needs; :func:`repro.api.run` is the one-call form.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.common.params import MachineParams
from repro.common.rng import substream
from repro.common.types import HighLevelOp, Mode
from repro.cpu.processor import Processor
from repro.fidelity import (
    UnsupportedFidelityError,
    snapshot_window_counters,
    validate_fast_forward,
    validate_fidelity,
)
from repro.kernel.kernel import Kernel, KernelTuning
from repro.kernel.vm import VmTuning
from repro.machines import MACHINES, MachineSpec, canonical_machine, resolve_machine
from repro.memsys.system import MemorySystem
from repro.monitor.escapes import Instrumentation
from repro.monitor.hwmonitor import HardwareMonitor, Trace
from repro.monitor.master import MasterConfig, MasterTracer
from repro.sanitizers import (
    CheckRegistry,
    CheckReport,
    check_enabled_by_env,
    deep_check_enabled_by_env,
)
from repro.sim.config import CALIBRATIONS
from repro.sim.runcache import young_gc_only
from repro.sim.usermode import UserEngine
from repro.workloads import Workload, canonical_workload_args, make_workload


def clock_stagger(clock_period: int, num_cpus: int) -> List[int]:
    """First clock-tick time per CPU: one period plus ``i/num_cpus`` of a
    period, as exact integer arithmetic.

    ``clock_period * i // num_cpus`` is a Bresenham spread: offsets are
    distinct, strictly increasing, land inside ``[0, clock_period)``,
    and consecutive gaps differ by at most one cycle for *any* CPU
    count — power of two or not — with no floating-point rounding to
    drift at 64 CPUs. The 4-CPU values are byte-identical to the
    original inline loop.
    """
    return [
        clock_period + clock_period * i // num_cpus for i in range(num_cpus)
    ]


def default_tuning(workload_name: str, machine: MachineSpec = None) -> KernelTuning:
    """The kernel tuning a :class:`Simulation` of ``workload_name`` on
    ``machine`` gets when no ``tuning=`` is passed.

    The workload's calibration sets the quantum and the memory held by
    untraced residents; a machine preset sets its run-queue count (one
    queue per 4-CPU cluster, Section 6). The ablations derive their
    variants from this, so a variant differs from its baseline only in
    the ablated knob.
    """
    calibration = CALIBRATIONS.get(workload_name)
    vm = VmTuning()
    if calibration is not None:
        vm.baseline_frames = calibration.baseline_frames
    machine = canonical_machine(machine)
    return KernelTuning(
        quantum_ms=calibration.quantum_ms if calibration else 30.0,
        num_run_queues=MACHINES[machine].run_queues if isinstance(machine, str) else 1,
        vm=vm,
    )


@dataclass
class TracedRun:
    """Everything a finished traced run hands to the analysis pipeline.

    A finished run is picklable (workload driver generators are dropped
    by :meth:`repro.kernel.process.Process.__getstate__`), which is what
    lets :mod:`repro.sim.runcache` persist runs across sessions and the
    parallel experiment runner ship them between processes. A restored
    run supports the whole analysis surface but must not be resumed —
    its processes' drivers are gone.
    """

    workload_name: str
    params: MachineParams
    trace: Trace
    simulation: "Simulation"
    # Statistics window start: the trace before this point only feeds the
    # cache-content reconstruction (warmup), mirroring the paper's
    # tracing of a long-running system.
    measure_from_cycles: int = 0
    # Fidelity provenance (repro.fidelity): which engine tier produced
    # this run, where a mixed run's atomic→detailed seam sat, and how
    # many references the atomic tier fast-forwarded through.
    fidelity: str = "detailed"
    seam_cycles: Optional[int] = None
    fast_forwarded_refs: int = 0
    # Mixed runs only: the simulator's own warm-state dump at the seam
    # (resident blocks + classification history per CPU), used to seed
    # the trace-side cache reconstruction, which otherwise starts cold
    # and would inflate the COLD class of every post-seam miss.
    seam_state: Optional[list] = None

    @property
    def kernel(self) -> Kernel:
        return self.simulation.kernel

    @property
    def processors(self) -> List[Processor]:
        return self.simulation.processors

    @property
    def memsys(self) -> MemorySystem:
        return self.simulation.memsys

    @property
    def check_report(self) -> Optional[CheckReport]:
        """The sanitizer report, if the run was simulated with checks.

        Survives the run cache: the registry pickles with the
        simulation, so a reloaded checked run still carries its report.
        """
        checks = self.simulation.checks
        if checks is None:
            return None
        return checks.finalize(max(p.cycles for p in self.processors))


class Simulation:
    """One machine + workload instance."""

    def __init__(
        self,
        workload: Union[str, Workload],
        *,
        machine: MachineSpec = None,
        seed: int = 0,
        trace: bool = True,
        tuning: Optional[KernelTuning] = None,
        master_config: Optional[MasterConfig] = None,
        monitor_strict: bool = False,
        layout=None,
        check: Union[bool, str] = False,
        fidelity: str = "detailed",
        fast_forward: int = 0,
        record_drivers: bool = False,
        workload_args=None,
    ):
        # ``machine`` is a preset name from repro.machines or a full
        # MachineParams; a geometry equal to a preset is that preset.
        # A preset also carries its run-queue count (one queue per 4-CPU
        # cluster, Section 6), folded into the default tuning below —
        # explicit ``tuning=`` always wins.
        machine = canonical_machine(machine)
        self.params = resolve_machine(machine)
        self.seed = seed
        self.fidelity = validate_fidelity(fidelity)
        self.fast_forward = validate_fast_forward(fast_forward, fidelity)
        self.record_drivers = record_drivers
        if fidelity == "atomic" and (check or check_enabled_by_env()):
            raise UnsupportedFidelityError(
                "check= requires detailed-mode event streams; the atomic "
                "tier issues no bus transactions and charges no stalls, so "
                "the sanitizers would report coverage the run never had. "
                "Use fidelity='mixed' (checkers run inside the detailed "
                "window) or fidelity='detailed'."
            )
        # ``workload_args`` is the canonical tuned-knob form: a sorted
        # tuple of (name, value) pairs (a dict is accepted and
        # canonicalized). It only applies when the workload arrives by
        # name — a pre-built Workload instance already carries its knobs.
        self.workload_args = canonical_workload_args(workload_args)
        if isinstance(workload, str):
            workload = make_workload(workload, **dict(self.workload_args))
        elif self.workload_args:
            raise TypeError(
                "workload_args= requires a workload name; the supplied "
                "Workload instance already carries its arguments"
            )
        self.workload = workload

        calibration = CALIBRATIONS.get(workload.name)
        if calibration is not None:
            cfg = workload.engine_config
            cfg.touches_per_kcycle = calibration.touches_per_kcycle
            cfg.hot_text_fraction = calibration.hot_text_fraction
            cfg.hot_data_fraction = calibration.hot_data_fraction
        if tuning is None:
            tuning = default_tuning(workload.name, machine)

        self.memsys = MemorySystem(self.params)
        self.processors = [
            Processor(i, self.params, self.memsys) for i in range(self.params.num_cpus)
        ]
        self.instr = Instrumentation(enabled=trace)
        self.monitor = HardwareMonitor(
            self.memsys.bus,
            capacity=self.params.trace_buffer_entries,
            cycle_ns=self.params.cycle_ns,
            tick_ns=self.params.monitor_tick_ns,
            strict_capacity=monitor_strict,
        )
        self.master = MasterTracer(
            self.monitor,
            self.params.cycles_per_ms(),
            master_config if master_config is not None else MasterConfig(),
        )
        self.kernel = Kernel(
            self.params, self.memsys, self.processors, self.instr, tuning, seed,
            layout=layout,
        )
        # Invariant checking (repro.sanitizers): explicit opt-in or
        # REPRO_CHECK=1. When off, self.checks stays None and every hook
        # in the kernel/memsys stays a dormant None-attribute.
        # check="deep" (or REPRO_CHECK=deep) additionally attributes
        # dread_block/dwrite_block sweeps to kernel structures.
        self.checks: Optional[CheckRegistry] = None
        if check or check_enabled_by_env():
            deep = check == "deep" or deep_check_enabled_by_env()
            self.checks = CheckRegistry(
                self.params.num_cpus, self.kernel.datamap, workload.name,
                deep=deep,
            ).install(self.kernel, self.processors, self.memsys)
        self.engine = UserEngine(
            self.kernel, workload.engine_config, substream(seed, "engine")
        )
        workload.setup(self.kernel, substream(seed, "workload"))

        clock_period = self.params.ms_to_cycles(self.params.clock_interrupt_ms)
        ncpus = self.params.num_cpus
        # Stagger the per-CPU clocks so ticks do not all collide.
        self._next_clock = clock_stagger(clock_period, ncpus)
        self._clock_period = clock_period
        self._slice_cycles = self.params.ms_to_cycles(workload.engine_config.slice_ms)
        self._idle_step = max(
            1, self.params.ms_to_cycles(workload.engine_config.idle_step_ms)
        )
        self._idle_flag = [False] * ncpus
        self._tty_queue: List = []
        self._tty_head = 0
        self._net_queue: List = []
        self._net_head = 0
        self.horizon_cycles = 0

        # Fidelity schedule state (repro.fidelity). Setup above ran at
        # full fidelity in every tier; the atomic flags flip only now.
        # ``_instr_trace`` remembers the caller's trace choice so a mixed
        # run can restore it at the seam.
        self._instr_trace = trace
        self._detail_active = self.fidelity == "detailed"
        self._seam_deadline: Optional[int] = None
        self.seam_cycles: Optional[int] = None
        self.seam_state: Optional[list] = None
        if not self._detail_active:
            self.instr.enabled = False
            self.memsys.atomic = True
            if self.checks is not None:
                # Mixed: checkers resume at the seam (registry.resume).
                self.checks.suspend(self.kernel, self.processors, self.memsys)
        # Resumable-loop state: the event heap lives on the instance so a
        # checkpoint pickles mid-run and continue_run() resumes with
        # identical ordering. ``_pending_entry`` is the popped heap entry
        # being serviced when a checkpoint captures.
        self._heap: List = []
        self._seq = 0
        self._pending_entry = None
        self._loop_hooks = False
        self._warmup_cycles = 0
        self._measure_pending = False
        self.measure_snapshot = None
        # Checkpoint controls: a cache handle + key installed by
        # load_or_run (mixed runs store their seam checkpoint there), and
        # test hooks capturing an in-memory EngineCheckpoint at a cycle
        # count (checkpoint_at) or when a predicate fires
        # (checkpoint_when); the capture lands in captured_checkpoint.
        self.checkpoint_cache = None
        self.checkpoint_cache_key: Optional[str] = None
        self.checkpoint_at: Optional[int] = None
        self.checkpoint_when = None
        self.captured_checkpoint = None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, horizon_ms: float, *, warmup_ms: float) -> TracedRun:
        """Run the workload and trace ``horizon_ms`` of simulated time.

        ``warmup_ms`` runs the workload *before* the monitor starts
        recording: the paper traced an already-running system, not a cold
        boot (binaries resident, buffer cache warm, scheduler in steady
        state). It has no default: ``RunSettings`` and the sweeps each
        choose their own steady state.
        """
        warmup = self.params.ms_to_cycles(warmup_ms)
        horizon = warmup + self.params.ms_to_cycles(horizon_ms)
        self.horizon_cycles = horizon
        self._warmup_cycles = warmup
        self._measure_pending = True

        rng = substream(self.seed, "tty")
        self._tty_queue = sorted(self.workload.tty_events(horizon, rng))
        self._tty_head = 0
        net_rng = substream(self.seed, "net")
        self._net_queue = sorted(self.workload.net_events(horizon, net_rng))
        self._net_head = 0

        if self.record_drivers or not self._detail_active:
            # Log driver next()s and forks so a checkpoint taken mid-run
            # can replay the unpicklable generators (repro.fidelity).
            self.kernel.driver_log = []

        if self._detail_active:
            # Record from t=0 so the analysis can reconstruct cache
            # contents across the whole run, but report statistics only
            # for the post-warmup window (equivalent to the paper's
            # continuous tracing of an already-running system).
            self._begin_tracing(0)
        elif self.fidelity == "mixed":
            # Switch to detailed a little before the measurement window
            # opens, so escapes and mode transitions settle; a nonzero
            # fast_forward budget can pull the seam earlier still.
            margin = min(2 * self._clock_period, warmup // 4)
            self._seam_deadline = max(0, warmup - margin)

        self._heap = [(proc.cycles, i, i) for i, proc in enumerate(self.processors)]
        heapq.heapify(self._heap)
        self._seq = len(self._heap)
        self._update_loop_hooks()
        return self._run_loop()

    def _run_loop(self) -> TracedRun:
        """Drain the event heap to the horizon; resumable at any pop.

        Only young collections run meanwhile: the engine makes no cyclic
        garbage of its own, so a full collection would walk every live
        engine and free nothing.
        """
        with young_gc_only():
            heap = self._heap
            while heap:
                entry = heapq.heappop(heap)
                cpu = entry[2]
                proc = self.processors[cpu]
                if proc.cycles >= self.horizon_cycles:
                    continue  # this CPU is done; drain the rest
                if self._loop_hooks:
                    self._pending_entry = entry
                    self._loop_hook(proc)
                self._step(cpu)
                self._seq += 1
                heapq.heappush(heap, (proc.cycles, self._seq, cpu))
            end = max(proc.cycles for proc in self.processors)
            self.master.finish(end)
            if self.checks is not None:
                self.checks.finalize(end)
            return TracedRun(
                self.workload.name, self.params, self.monitor.trace, self,
                measure_from_cycles=self._warmup_cycles,
                fidelity=self.fidelity,
                seam_cycles=self.seam_cycles,
                fast_forwarded_refs=self.memsys.atomic_refs,
                seam_state=self.seam_state,
            )

    def continue_run(self, horizon_ms: Optional[float] = None) -> TracedRun:
        """Resume a restored :class:`EngineCheckpoint` to the horizon.

        Only meaningful on a simulation rebuilt by
        ``EngineCheckpoint.restore()``; pass ``horizon_ms`` to run the
        warmed state out to a different horizon than the capturing run's
        (valid for workloads without a horizon-derived tty schedule).
        """
        if not self._heap:
            raise RuntimeError(
                "continue_run() resumes a restored checkpoint; this "
                "simulation has no in-flight event queue"
            )
        if horizon_ms is not None:
            self.horizon_cycles = self._warmup_cycles + self.params.ms_to_cycles(
                horizon_ms
            )
        return self._run_loop()

    # ------------------------------------------------------------------
    # Slice-boundary hooks (fidelity seam, checkpoints, window snapshot)
    # ------------------------------------------------------------------
    def _update_loop_hooks(self) -> None:
        self._loop_hooks = (
            self._measure_pending
            or self.checkpoint_at is not None
            or self.checkpoint_when is not None
            or (self.fidelity == "mixed" and not self._detail_active)
        )

    def _loop_hook(self, proc: Processor) -> None:
        now = proc.cycles
        if not self._detail_active and self.fidelity == "mixed" and (
            now >= self._seam_deadline
            or (
                self.fast_forward > 0
                and self.memsys.atomic_refs >= self.fast_forward
            )
        ):
            self._switch_to_detail()
        if self._measure_pending and now >= self._warmup_cycles:
            self._measure_pending = False
            self.measure_snapshot = snapshot_window_counters(self)
        when = self.checkpoint_when
        if when is not None and when(self):
            self.checkpoint_when = None
            self._capture_checkpoint_blob(now)
        at = self.checkpoint_at
        if at is not None and now >= at:
            self.checkpoint_at = None
            self._capture_checkpoint_blob(now)
        self._update_loop_hooks()

    def _switch_to_detail(self) -> None:
        """The atomic→detailed seam of a mixed-fidelity run.

        Stores the seam checkpoint if a cache is attached, aligns every
        CPU's clock (so the seam's trace-start state dump is
        tick-monotone), then flips the machine to full fidelity and
        starts the monitor with the standard trace-start protocol. The
        capture comes first because a restored checkpoint runs this
        method again: state captured after the alignment would be
        aligned twice, and each ``set_mode`` bumps a user-mode CPU's
        ``app_epoch``.
        """
        resume_at = max(p.cycles for p in self.processors)
        if self.checkpoint_cache is not None:
            from repro.fidelity.checkpoint import capture

            checkpoint = capture(self, resume_at)
            self.checkpoint_cache.store(
                self.checkpoint_cache_key, {"checkpoint": checkpoint}
            )
            self.checkpoint_cache = None
            self.checkpoint_cache_key = None
        for p in self.processors:
            mode = p.mode
            p.set_mode(Mode.IDLE)
            p.advance_to(resume_at)
            p.set_mode(mode)
        if not self.record_drivers:
            self.kernel.driver_log = None
        # The atomic tier keeps only the bus-visible levels (I-cache, L2)
        # warm; flush the untracked first-level data caches so the L1⊆L2
        # inclusion invariant holds when detailed accesses resume. (They
        # are empty in practice — mixed runs are atomic from cycle 0 —
        # but the seam must not depend on that.)
        for hierarchy in self.memsys.hierarchies:
            hierarchy.dl1.invalidate_all()
        self.memsys.atomic = False
        self.instr.enabled = self._instr_trace
        self._detail_active = True
        self.seam_cycles = resume_at
        self.seam_state = self._dump_seam_state()
        self.monitor.note_seam(resume_at)
        if self.checks is not None:
            self.checks.resume(self.kernel, self.processors, self.memsys)
        self._begin_tracing(resume_at, seam=True)

    def _capture_checkpoint_blob(self, now: int) -> None:
        from repro.fidelity.checkpoint import capture

        self.captured_checkpoint = capture(self, now)

    def _dump_seam_state(self) -> list:
        """Per-CPU warm-state dump for the trace analyzer.

        The mixed-fidelity trace begins at the seam, so the trace-driven
        reconstruction (:mod:`repro.analysis.reconstruct`) would start
        from empty caches and blank classification history — every first
        post-seam miss on a warmed block would look COLD. This dump
        carries the simulator's own answer across the seam: resident
        blocks and the ``ever_cached``/``evicted_by``/``invalidated``
        classification state for the two bus-visible caches, plus each
        CPU's application epoch. The fields map one-to-one onto
        :class:`repro.analysis.reconstruct.ReconstructedCache`.
        """
        from repro.memsys.tracking import DATA, INSTR

        state = []
        truth = self.memsys.truth
        for proc, hierarchy in zip(self.processors, self.memsys.hierarchies):
            entry = {"app_epoch": proc.app_epoch}
            for key, cache, kind in (
                ("icache", hierarchy.icache, INSTR),
                ("dcache", hierarchy.dl2, DATA),
            ):
                cpu_truth = truth.cpu_truth(proc.cpu_id, kind)
                entry[key] = {
                    "resident": sorted(cache.resident_blocks),
                    "ever_cached": set(cpu_truth.ever_cached),
                    "evicted_by": dict(cpu_truth.evicted_by),
                    "invalidated": set(cpu_truth.invalidated),
                }
            state.append(entry)
        return state

    def _begin_tracing(self, now_cycles: int, seam: bool = False) -> None:
        """Trace-start protocol: dump machine state, then record.

        The real system call "dumps the contents of the TLBs and some
        process state onto the trace buffer when tracing starts"
        (Section 2.2) so the postprocessor can translate addresses from
        the first entry on.

        ``seam`` marks the mixed-fidelity atomic→detailed hand-off: CPUs
        sitting in the idle loop re-announce it (their original
        ``idle_enter`` fired while escapes were disabled), so the decoder
        does not misattribute their post-seam idle time. Detailed runs
        never pass ``seam`` — their trace stays byte-identical.
        """
        self.master.start(now_cycles)
        for proc in self.processors:
            self.instr.trace_start(proc)
            self.instr.pid_set(proc, proc.current_pid)
            for entry in proc.tlb.entries():
                self.instr.tlb_update(
                    proc, 0, entry.vpage, entry.frame, entry.pid, entry.is_text
                )
            if seam and self._idle_flag[proc.cpu_id]:
                self.instr.idle_enter(proc)

    # ------------------------------------------------------------------
    # One slice on one CPU
    # ------------------------------------------------------------------
    def _step(self, cpu: int) -> None:
        proc = self.processors[cpu]
        kernel = self.kernel

        if cpu == 0 and self._detail_active and self.master.due(proc.cycles):
            self._service_master(proc)
        if cpu == self.params.device_cpu:
            self._deliver_device_events(proc)
        if cpu == self.params.network_cpu and self._net_queue:
            self._deliver_net_events(proc)

        # Clock ticks due on this CPU.
        while self._next_clock[cpu] <= proc.cycles:
            self._next_clock[cpu] += self._clock_period
            self._leave_idle(proc)
            with kernel.os_invocation(proc, HighLevelOp.INTERRUPT):
                expired = kernel.interrupts.clock(proc)
                if expired:
                    kernel.scheduler.preempt_current(proc)
            self._enter_idle_if_none(proc)

        process = kernel.current[cpu]
        if process is None:
            self._idle_slice(proc)
            return
        self._leave_idle(proc)
        self.engine.run_slice(proc, process, self._slice_cycles)
        self._enter_idle_if_none(proc)

    def _idle_slice(self, proc: Processor) -> None:
        kernel = self.kernel
        if kernel.scheduler.runnable_waiting():
            # A wakeup IPI pulls the CPU out of the idle loop to dispatch.
            self._leave_idle(proc)
            with kernel.os_invocation(proc, HighLevelOp.INTERRUPT, save_frame=False):
                kernel.interrupts.inter_cpu(proc)
                kernel.scheduler.dispatch(proc)
            self._enter_idle_if_none(proc)
            return
        if not self._idle_flag[proc.cpu_id]:
            self._idle_flag[proc.cpu_id] = True
            proc.set_mode(Mode.IDLE)
            self.instr.idle_enter(proc)
        # The idle loop: a tiny resident code loop polling the run queue.
        base, _size = kernel.routine_span("idle_loop")
        proc.ifetch_block(base // self.params.block_bytes)
        proc.advance(self._idle_step)

    def _leave_idle(self, proc: Processor) -> None:
        if self._idle_flag[proc.cpu_id]:
            self._idle_flag[proc.cpu_id] = False
            self.instr.idle_exit(proc)

    def _enter_idle_if_none(self, proc: Processor) -> None:
        if self.kernel.current[proc.cpu_id] is None:
            proc.set_mode(Mode.IDLE)

    # ------------------------------------------------------------------
    # Devices
    # ------------------------------------------------------------------
    def _deliver_device_events(self, proc: Processor) -> None:
        kernel = self.kernel
        disk_due = kernel.fs.disk.next_time()
        if disk_due is not None and disk_due <= proc.cycles:
            self._leave_idle(proc)
            kernel.service_disk(proc)
            self._enter_idle_if_none(proc)
        while (
            self._tty_head < len(self._tty_queue)
            and self._tty_queue[self._tty_head][0] <= proc.cycles
        ):
            _, session_id, nchars = self._tty_queue[self._tty_head]
            self._tty_head += 1
            self._leave_idle(proc)
            with kernel.os_invocation(proc, HighLevelOp.INTERRUPT):
                kernel.interrupts.terminal(proc, session_id, nchars)
            self._enter_idle_if_none(proc)

    def _deliver_net_events(self, proc: Processor) -> None:
        """Inbound requests due at the NIC, as network interrupts."""
        kernel = self.kernel
        while (
            self._net_head < len(self._net_queue)
            and self._net_queue[self._net_head][0] <= proc.cycles
        ):
            _, session_id, nchars = self._net_queue[self._net_head]
            self._net_head += 1
            self._leave_idle(proc)
            with kernel.os_invocation(proc, HighLevelOp.INTERRUPT):
                kernel.interrupts.network(proc, session_id, nchars)
            self._enter_idle_if_none(proc)

    # ------------------------------------------------------------------
    # The master tracer (Section 2.1's suspend/dump/resume loop)
    # ------------------------------------------------------------------
    def _service_master(self, proc: Processor) -> None:
        suspend_cycles = self.master.service(proc.cycles)
        if suspend_cycles <= 0:
            return
        # Workload suspended: every CPU idles while the buffer is dumped
        # to the remote disk.
        resume_at = max(p.cycles for p in self.processors) + suspend_cycles
        for p in self.processors:
            mode = p.mode
            p.set_mode(Mode.IDLE)
            p.advance_to(resume_at)
            p.set_mode(mode)
        # The transfer wakes the network daemons (CPU 1 on the measured
        # machine, Section 2.1; an explicit MachineParams field so scaled
        # geometries route deliberately).
        net_proc = self.processors[self.params.network_cpu]
        with self.kernel.os_invocation(
            net_proc, HighLevelOp.INTERRUPT, save_frame=False
        ):
            self.kernel.interrupts.network(net_proc)
