"""The simulated device: engine + memory + scheduler + kernel execution."""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.errors import KernelTimeoutError
from repro.gpu.atomics import AtomicRegistry
from repro.gpu.config import DeviceConfig
from repro.gpu.context import BlockCtx
from repro.gpu.kernel import KernelSpec
from repro.gpu.scheduler import BlockScheduler
from repro.simcore.effects import Acquire, Delay, Join, Release, Spawn, WaitUntil
from repro.simcore.engine import Engine
from repro.simcore.trace import Trace
from repro.gpu.memory import GlobalMemory

__all__ = ["Device"]


class Device:
    """One simulated GPU plus its simulation engine.

    A :class:`Device` owns everything stateful: the discrete-event
    engine, global memory, the atomic-unit registry, the block scheduler
    and the span trace.  Experiments create a fresh device per run so
    measurements never bleed into each other.
    """

    def __init__(
        self,
        config: Optional[DeviceConfig] = None,
        *,
        engine: Optional[Engine] = None,
        device_wide_atomics: bool = False,
        fuzzer=None,
        faults=None,
    ):
        self.config = config or DeviceConfig()
        #: the simulation engine — private by default; pass a shared one
        #: to put several devices in one simulated system (multi-GPU).
        #: ``fuzzer`` (a :class:`repro.sanitize.ScheduleFuzzer`) perturbs
        #: same-time event ordering and SM placement tie-breaking.
        self.engine = engine or Engine(
            tiebreak=fuzzer.queue_priority if fuzzer is not None else None,
        )
        self.memory = GlobalMemory(self.engine, self.config.global_mem_bytes)
        self.atomics = AtomicRegistry(device_wide=device_wide_atomics)
        self.scheduler = BlockScheduler(self.config, fuzz=fuzzer)
        self.trace = Trace()
        #: observers of device-side execution (barrier rounds, global
        #: memory traffic); see :class:`repro.sanitize.SanitizerProbe`.
        #: Kept empty in normal runs so instrumentation costs nothing.
        self.probes: List[Any] = []
        #: armed fault plan (:class:`repro.faults.FaultPlan`) or ``None``.
        #: Injection hooks across the GPU layer are all behind a single
        #: ``faults is not None`` check — the same zero-overhead pattern
        #: as the probe list.
        self.faults = faults
        if faults is not None:
            faults.bind_clock(lambda: self.engine.now)
        #: kernels completed on this device (diagnostics).
        self.kernels_completed = 0
        #: kernel name → SmPlacement of its most recent execution.
        self.placements: dict = {}

    def notify_access(self, ctx, array, index, kind: str) -> None:
        """Forward one global-memory access to every registered probe.

        ``kind`` is ``"read"``, ``"write"``, ``"atomic"`` or ``"spin"``.
        Called by :class:`~repro.gpu.context.BlockCtx` only when probes
        are registered.
        """
        for probe in self.probes:
            probe.on_access(ctx, array, index, kind)

    # -- kernel execution (spawned by the Host) ------------------------------

    def kernel_process(
        self,
        handle: "KernelHandle",
        predecessor,
        wait_event=None,
    ) -> Generator:
        """The device-side life of one kernel launch.

        Pre-Fermi kernel-engine semantics: wait for the predecessor
        process in the device's issue-order FIFO (``predecessor`` is a
        :class:`~repro.simcore.process.Process` or ``None``), then for
        this kernel's launch command to arrive, then — if the launch was
        gated on an :class:`~repro.gpu.stream.Event` — for that event,
        head-of-line; finally dispatch blocks (setup), run them under
        occupancy limits, and drain them (teardown).
        """
        spec = handle.spec
        timings = self.config.timings
        if predecessor is not None:
            yield Join(predecessor, reason=f"kernel engine order {spec.name}")
        yield WaitUntil(
            handle.arrival_signal,
            lambda: handle.arrived,
            f"launch command {spec.name}",
        )
        if wait_event is not None:
            yield WaitUntil(
                wait_event.signal,
                lambda: wait_event.recorded,
                f"event {wait_event.name} before {spec.name}",
            )
        handle.start_ns = self.engine.now

        if self.config.watchdog_ns is not None:
            yield Spawn(
                self._watchdog(handle, self.config.watchdog_ns),
                f"watchdog:{spec.name}",
            )

        if self.faults is not None:
            kill_at = self.faults.take_driver_kill()
            if kill_at is not None:
                yield Spawn(
                    self._fault_killer(handle, kill_at),
                    f"fault-kill:{spec.name}",
                )

        setup_start = self.engine.now
        yield Delay(timings.kernel_setup_ns)
        self.trace.add(spec.name, "kernel-setup", setup_start, self.engine.now)

        slots = self.scheduler.slots_for(spec)
        placement = self.scheduler.placement_for(spec)
        self.placements[spec.name] = placement
        blocks: List = []
        for block_id in range(spec.grid_blocks):
            proc = yield Spawn(
                self._block_process(spec, slots, placement, block_id),
                f"{spec.name}/b{block_id}",
            )
            blocks.append(proc)
            handle.block_processes.append(proc)
        for proc in blocks:
            yield Join(proc, reason=f"drain {spec.name}")

        teardown_start = self.engine.now
        yield Delay(timings.kernel_teardown_ns)
        self.trace.add(spec.name, "kernel-teardown", teardown_start, self.engine.now)

        handle.end_ns = self.engine.now
        self.kernels_completed += 1

    def _watchdog(self, handle: "KernelHandle", watchdog_ns: int) -> Generator:
        """Kill overlong kernels like a display-attached driver would.

        Sleeps for the watchdog interval; if the kernel is still running
        (the common cause here: a deadlocked device barrier), it raises
        :class:`~repro.errors.KernelTimeoutError`, which surfaces from
        ``Device.run`` exactly where a real ``cudaThreadSynchronize``
        would report "the launch timed out".
        """
        yield Delay(watchdog_ns)
        if handle.end_ns is not None or handle.killed:
            return
        if self.config.watchdog_action == "kill":
            # Abort like the real driver: kill the kernel manager and
            # every block (freeing their SM slots), mark the handle, and
            # let host code observe the failure via get_last_error().
            handle.killed = True
            handle.end_ns = self.engine.now
            if handle.process is not None:
                self.engine.cancel(
                    handle.process, f"watchdog killed {handle.spec.name}"
                )
            for block in handle.block_processes:
                self.engine.cancel(
                    block, f"watchdog killed {handle.spec.name}"
                )
        else:
            raise KernelTimeoutError(
                handle.spec.name, watchdog_ns, handle.start_ns or 0
            )

    def _fault_killer(self, handle: "KernelHandle", kill_at_ns: int) -> Generator:
        """Injected driver-style kernel kill (``driver-kill`` fault).

        Sleeps ``kill_at_ns`` past kernel start, then — if the kernel is
        still running — aborts it exactly like the display watchdog's
        "kill" action: the handle is marked killed, the kernel manager
        and every block are cancelled (freeing SM slots), and the host
        observes the failure via ``Host.get_last_error()``.
        """
        yield Delay(kill_at_ns)
        if handle.end_ns is not None or handle.killed:
            return  # kernel finished first; the kill dissipates
        self.faults.note_driver_kill_fired()
        reason = f"injected driver-kill of {handle.spec.name} (fault plan)"
        handle.killed = True
        handle.end_ns = self.engine.now
        if handle.process is not None:
            self.engine.cancel(handle.process, reason)
        for block in handle.block_processes:
            self.engine.cancel(block, reason)

    def _block_process(
        self, spec: KernelSpec, slots, placement, block_id: int
    ) -> Generator:
        """One block: acquire an SM slot, run to completion, release.

        Non-preemptive by construction — the slot is held across the whole
        program, including any spin-waits inside device barriers.  The
        aggregate slot resource gates capacity; the placement tracker
        records *which* SM hosts the block (least-loaded placement).
        """
        yield Acquire(slots, f"SM slot for {spec.name}/b{block_id}")
        sm_id = placement.place(block_id)
        ctx = BlockCtx(
            device=self,
            kernel_name=spec.name,
            block_id=block_id,
            num_blocks=spec.grid_blocks,
            block_threads=spec.block_threads,
            sm_id=sm_id,
            shared_mem_bytes=spec.shared_mem_per_block,
            grid_dim=spec.effective_grid_dim,
            block_dim=spec.effective_block_dim,
        )
        yield from spec.program(ctx, **spec.params)
        placement.release(block_id)
        yield Release(slots)

    # -- convenience -----------------------------------------------------------

    @property
    def now(self) -> int:
        """Current virtual time (ns)."""
        return self.engine.now

    def run(self, until: Optional[int] = None) -> int:
        """Run the simulation to completion (or a horizon); returns time."""
        return self.engine.run(until)


# Imported late to avoid a module cycle (host needs Device for typing only).
from repro.gpu.host import KernelHandle  # noqa: E402  (re-export for typing)
