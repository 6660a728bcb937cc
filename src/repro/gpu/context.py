"""Block execution contexts: the device-side API available to kernels.

One :class:`BlockCtx` is created per block per kernel launch.  Device
programs receive it as their first argument and drive the device through
its generator helpers, always via ``yield from``::

    def program(ctx: BlockCtx, data: GlobalArray) -> Generator:
        yield from ctx.compute(500)                  # charge compute time
        yield from ctx.gwrite(flags, ctx.block_id, 1)
        yield from ctx.spin_until(flags, lambda: flags.data[0] == 1, "wait")

The simulation agent granularity is one process per block (the paper's
"leading thread"); intra-block thread parallelism is folded into the cost
model, and ``syncthreads`` charges the intra-block barrier's latency.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.errors import ConfigError, MemoryError_
from repro.gpu.memory import GlobalArray
from repro.gpu.shared import SharedMemory
from repro.simcore.effects import Acquire, Delay, Release, WaitUntil
from repro.simcore.trace import Trace

__all__ = ["BlockCtx"]


class BlockCtx:
    """Per-block device context (the kernel's view of the GPU)."""

    def __init__(
        self,
        device: "Device",  # noqa: F821 - circular type, bound at runtime
        kernel_name: str,
        block_id: int,
        num_blocks: int,
        block_threads: int,
        sm_id: Optional[int] = None,
        shared_mem_bytes: Optional[int] = None,
        grid_dim: Optional[tuple] = None,
        block_dim: Optional[tuple] = None,
    ):
        self.device = device
        self.kernel_name = kernel_name
        self.block_id = block_id
        self.num_blocks = num_blocks
        self.block_threads = block_threads
        #: the SM hosting this block (None when constructed directly,
        #: outside the scheduler).
        self.sm_id = sm_id
        self.owner = f"{kernel_name}/b{block_id}"
        # Shared-memory budget: what the kernel requested at launch, or
        # the SM's full scratchpad for directly-constructed contexts.
        if shared_mem_bytes is None:
            shared_mem_bytes = device.config.shared_mem_per_sm
        self._shared_budget = shared_mem_bytes
        self._shared: Optional[SharedMemory] = None
        #: 2-D shapes; defaults match a 1-D launch.
        self.grid_dim = grid_dim or (num_blocks, 1)
        self.block_dim = block_dim or (block_threads, 1)
        # Topology placement: which sync domain this block runs in, and
        # whether cross-domain traffic costs anything.  Single-domain
        # (the default) keeps both at the zero-cost fast path so the
        # paper's traces stay bit-identical.
        topo = device.config.topology
        self.domain = (
            topo.domain_of(block_id, num_blocks) if topo.num_domains > 1 else 0
        )
        self._crossing = topo if topo.crossing_ns > 0 else None

    def _remote_ns(self, array: GlobalArray) -> int:
        """Interconnect latency for touching ``array`` from this block."""
        if self._crossing is None:
            return 0
        return self._crossing.crossing_latency_ns(self.domain, array.home_domain)

    # -- introspection -------------------------------------------------------

    @property
    def now(self) -> int:
        """Current virtual time (ns)."""
        return self.device.engine.now

    @property
    def trace(self) -> Trace:
        """The device-wide span trace."""
        return self.device.trace

    @property
    def timings(self):
        """The device's calibrated timing parameters."""
        return self.device.config.timings

    @property
    def is_leader_block(self) -> bool:
        """True for block 0 (convention for single-block work)."""
        return self.block_id == 0

    @property
    def block_idx(self) -> tuple:
        """``(blockIdx.x, blockIdx.y)`` under the paper's linearization.

        Fig. 9 computes ``bid = blockIdx.x * gridDim.y + blockIdx.y``;
        this is that mapping inverted, so ``block_idx[0] * gridDim.y +
        block_idx[1] == block_id`` always holds.
        """
        _gx, gy = self.grid_dim
        return (self.block_id // gy, self.block_id % gy)

    def record(self, phase: str, start: int, **meta: Any) -> None:
        """Record a span from ``start`` to now under this block's name."""
        self.trace.add(self.owner, phase, start, self.now, **meta)

    # -- computation -----------------------------------------------------------

    def compute(
        self,
        cost_ns: float,
        work: Optional[Callable[[], None]] = None,
        phase: str = "compute",
        **meta: Any,
    ) -> Generator:
        """Charge ``cost_ns`` of computation, then apply ``work()``.

        ``work`` runs *after* the delay, so its results become visible to
        other blocks only once the computation has finished — a block that
        illegally races past a barrier therefore reads stale data, exactly
        as on hardware.
        """
        if cost_ns < 0:
            raise ConfigError(f"compute cost must be non-negative, got {cost_ns}")
        if self.device.faults is not None:
            cost_ns = self.device.faults.scale_compute(self.block_id, cost_ns)
        start = self.now
        if cost_ns > 0:
            yield Delay(cost_ns)
        if work is not None:
            work()
        self.record(phase, start, **meta)

    # -- global memory ---------------------------------------------------------

    def gread(self, array: GlobalArray, index: Any) -> Generator:
        """Read one element/slice of global memory (charges read latency,
        plus the interconnect crossing when the array is homed in another
        sync domain)."""
        yield Delay(self.timings.global_read_ns + self._remote_ns(array))
        if self.device.probes:
            self.device.notify_access(self, array, index, "read")
        return array.load(index)

    def gwrite(self, array: GlobalArray, index: Any, value: Any) -> Generator:
        """Write global memory; visible (and waking spinners) after the
        write latency — plus any interconnect crossing — elapses."""
        yield Delay(self.timings.global_write_ns + self._remote_ns(array))
        if self.device.faults is not None:
            value = self.device.faults.corrupt_store(self.block_id, value)
        if self.device.probes:
            self.device.notify_access(self, array, index, "write")
        array.store(index, value)

    def atomic_add(self, array: GlobalArray, index: Any, value: Any) -> Generator:
        """``atomicAdd``: FIFO-serialized per cell; returns the old value.

        The read-modify-write holds the cell's atomic unit for
        ``atomic_ns``; contending blocks queue, which is why N blocks
        hammering one mutex take ``N·t_a`` (Eq. 6).
        """
        flat = self._flat_index(array, index)
        unit = self.device.atomics.unit_for(array.name, flat)
        start = self.now
        queued = yield Acquire(unit, f"atomic on {array.name}[{flat}]")
        yield Delay(self.timings.atomic_ns + self._remote_ns(array))
        if self.device.probes:
            self.device.notify_access(self, array, index, "atomic")
        old = array.load(index)
        dropped = self.device.faults is not None and self.device.faults.drop_atomic(
            self.block_id
        )
        if dropped:
            # Transient fault: the read-modify-write's store is lost.
            # The old value is still returned — on hardware the faulting
            # increment simply never lands in the cell.
            self.device.atomics.faulted_ops += 1
        else:
            array.store(index, old + value)
        self.device.atomics.ops += 1
        yield Release(unit)
        self.record("atomic", start, cell=f"{array.name}[{flat}]", queued=queued)
        return old

    def spin_until(
        self,
        array: GlobalArray,
        predicate: Callable[[], bool],
        reason: str,
    ) -> Generator:
        """Spin on global memory until ``predicate()`` holds.

        Event-driven: the block parks on the array's store signal instead
        of busy-ticking; when the awaited store lands it pays one
        spin-observation latency (the paper's ``t_c``).  Returns the
        number of predicate polls while blocked (diagnostics).
        """
        start = self.now
        polls = yield WaitUntil(array.signal, predicate, reason)
        if self.device.faults is not None:
            # Spurious wakeups: the spin loop observed the cell extra
            # times without its predicate holding; each costs one
            # observation latency, none affect correctness.
            extra = self.device.faults.spurious_polls(self.block_id)
            for _ in range(extra):
                yield Delay(self.timings.spin_read_ns)
            polls += extra
        yield Delay(self.timings.spin_read_ns + self._remote_ns(array))
        if self.device.probes:
            self.device.notify_access(self, array, None, "spin")
        self.record("spin", start, on=array.name, polls=polls)
        return polls

    # -- shared memory -----------------------------------------------------------

    @property
    def shared(self) -> SharedMemory:
        """This block's shared-memory scratchpad (created on first use)."""
        if self._shared is None:
            self._shared = SharedMemory(self.owner, self._shared_budget)
        return self._shared

    def shared_alloc(self, name: str, shape: Any, dtype: Any = None) -> Any:
        """Allocate shared memory within the kernel's launch budget."""
        import numpy as np

        return self.shared.alloc(name, shape, dtype or np.float64)

    def sread(self, array: Any, index: Any) -> Generator:
        """Read shared memory (fast: a few cycles, paper §2)."""
        yield Delay(self.timings.shared_access_ns)
        return array[index]

    def swrite(self, array: Any, index: Any, value: Any) -> Generator:
        """Write shared memory (fast; visible to this block only)."""
        yield Delay(self.timings.shared_access_ns)
        array[index] = value

    # -- intra-block -------------------------------------------------------------

    def syncthreads(self) -> Generator:
        """``__syncthreads()``: intra-block barrier latency.

        Blocks are simulated as single agents, so this only charges the
        barrier's cost; it is still semantically load-bearing because the
        protocol code calls it exactly where the CUDA code would.
        """
        start = self.now
        yield Delay(self.timings.syncthreads_ns)
        self.record("syncthreads", start)

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _flat_index(array: GlobalArray, index: Any) -> int:
        """Flatten an index for atomic-unit lookup; atomics are scalar."""
        if isinstance(index, tuple):
            try:
                import numpy as np

                return int(np.ravel_multi_index(index, array.shape))
            except ValueError as exc:
                raise MemoryError_(
                    f"bad atomic index {index!r} for {array.name!r}"
                ) from exc
        if isinstance(index, slice):
            raise MemoryError_("atomic operations require a scalar index")
        return int(index)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BlockCtx({self.owner}, {self.num_blocks} blocks)"
