"""Run one algorithm under one synchronization strategy and measure it."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Tuple, Union

import numpy as np

from repro.algorithms.base import RoundAlgorithm
from repro.errors import BarrierTimeoutError, ConfigError, FaultError, OccupancyError
from repro.faults.watchdog import DEFAULT_BARRIER_DEADLINE_NS, BarrierWatchdog
from repro.gpu.config import DeviceConfig
from repro.gpu.presets import get_preset
from repro.gpu.context import BlockCtx
from repro.gpu.device import Device
from repro.gpu.host import Host
from repro.gpu.kernel import KernelSpec
from repro.sync.base import SyncStrategy, get_strategy

__all__ = ["RaceMonitor", "RecoveryEvent", "RunResult", "run"]


class RaceMonitor:
    """Detects barrier violations during a run.

    Every block's round work is wrapped; when block ``b`` executes round
    ``r`` before every block finished round ``r-1``, a violation is
    recorded.  A correct barrier yields zero violations; the broken/null
    configurations exercised in tests and the deadlock demo yield many.
    """

    def __init__(self, rounds: int, num_blocks: int):
        self.num_blocks = num_blocks
        self._done = np.zeros(rounds, dtype=np.int64)
        #: ``(round, block, blocks_done_in_previous_round)`` records.
        self.violations: List[Tuple[int, int, int]] = []

    def wrap(self, round_idx: int, block_id: int, work):
        """Wrap (possibly ``None``) round work with violation tracking."""

        def wrapped() -> None:
            if round_idx > 0 and self._done[round_idx - 1] < self.num_blocks:
                self.violations.append(
                    (round_idx, block_id, int(self._done[round_idx - 1]))
                )
            if work is not None:
                work()
            self._done[round_idx] += 1

        return wrapped

    @property
    def clean(self) -> bool:
        """True when no violation was observed."""
        return not self.violations


@dataclass(frozen=True)
class RecoveryEvent:
    """One resilience action taken during a run.

    ``kind`` is ``"retry"``, ``"degrade"`` or ``"watchdog-kill"``;
    ``detail`` is the human-readable cause (the caught error's message
    or the fallback strategy's name).
    """

    kind: str
    attempt: int  #: 1-based attempt the event happened in
    at_ns: int  #: virtual time charged up to this point
    detail: str


@dataclass
class RunResult:
    """Everything measured from one configuration."""

    algorithm: str
    strategy: str
    num_blocks: int
    threads_per_block: int
    rounds: int
    total_ns: int  #: wall-clock virtual time of the whole run
    kernel_launches: int
    verified: Optional[bool]  #: None when verification was skipped
    violations: int  #: barrier violations seen by the race monitor (-1: off)
    atomic_ops: int
    trace_compute_ns: int  #: sum of per-block compute spans
    trace_sync_ns: int  #: sum of per-block sync + sync-overhead spans
    device: Optional[Device] = field(default=None, repr=False)
    # -- resilient-runtime fields (defaults describe a plain clean run) --
    #: launch attempts consumed (1 = first try succeeded).
    attempts: int = 1
    #: True when the run finished on a fallback barrier, not ``strategy``.
    degraded: bool = False
    #: the original strategy a degraded run started on.
    degraded_from: Optional[str] = None
    #: injected faults that actually fired across all attempts.
    faults_fired: int = 0
    #: virtual time burned by failed attempts + backoff (already included
    #: in ``total_ns``).
    retry_overhead_ns: int = 0
    #: every resilience action taken, in order.
    recovery: List[RecoveryEvent] = field(default_factory=list)
    # -- executor-provenance fields (filled by supervised batch runs) --
    #: process-level re-executions the parallel supervisor forced for
    #: this task (timeouts, worker deaths) — distinct from ``attempts``,
    #: which counts *simulated* launch attempts inside one execution.
    retries: int = 0
    #: run-id of the journal this result was replayed from, if any.
    #: In-memory provenance only: excluded from serialization and
    #: equality so a resumed run stays bit-identical to a fresh one.
    resumed_from: Optional[str] = field(default=None, compare=False)

    @property
    def total_ms(self) -> float:
        """Total time in milliseconds."""
        return self.total_ns / 1e6

    @property
    def recovered(self) -> bool:
        """True when the run needed any resilience action to finish."""
        return self.attempts > 1 or self.degraded


def run(
    algorithm: RoundAlgorithm,
    strategy: Union[str, SyncStrategy],
    num_blocks: int,
    threads_per_block: Optional[int] = None,
    config: Optional[DeviceConfig] = None,
    verify: bool = True,
    monitor_races: bool = True,
    keep_device: bool = False,
    jitter_pct: float = 0.0,
    jitter_seed: int = 0,
    fuzzer=None,
    probe=None,
    faults=None,
    barrier_deadline_ns: Optional[int] = None,
) -> RunResult:
    """Execute ``algorithm`` under ``strategy`` on a fresh device.

    * device strategies run a single kernel whose blocks loop over rounds
      calling the strategy's barrier (paper Fig. 4);
    * host strategies launch one kernel per round, synchronizing between
      launches when the strategy is explicit (paper Fig. 2).

    The algorithm is :meth:`~repro.algorithms.base.RoundAlgorithm.reset`
    before running and, unless ``verify=False`` or the strategy is the
    ``null`` timing stub, verified afterwards.

    ``jitter_pct`` adds hardware-style run-to-run variability: each
    block's round cost is scaled by a lognormal factor with that
    relative spread, deterministically derived from ``jitter_seed`` (so
    a given seed is exactly reproducible — use
    :func:`repro.harness.stats.repeat_run` to average over seeds the way
    the paper averages three runs).

    ``fuzzer`` (a :class:`repro.sanitize.ScheduleFuzzer`) permutes
    same-time event ordering and SM-placement tie-breaking — the
    sanitizer's adversarial-interleaving layer.  ``probe`` (a
    :class:`repro.sanitize.SanitizerProbe`) observes barrier rounds and
    global-memory traffic.  Both default to off and cost nothing then.

    ``faults`` (a :class:`repro.faults.FaultPlan`) arms deterministic
    fault injection on the device; armed runs (or any run passing
    ``barrier_deadline_ns``) also get a
    :class:`repro.faults.BarrierWatchdog`, so a stalled barrier raises
    a recoverable :class:`~repro.errors.BarrierTimeoutError` naming the
    stuck processes instead of a terminal
    :class:`~repro.errors.DeadlockError`, and a kernel killed mid-run
    (the ``driver-kill`` fault) raises
    :class:`~repro.errors.FaultError`.  Both default to off and cost
    nothing then — this function is single-attempt; recovery (retry,
    graceful degradation) lives in ``repro.harness.resilient`` (the
    :func:`repro.run` facade's ``resilient=`` path).
    """
    if isinstance(strategy, str):
        strategy = get_strategy(strategy)
    cfg = config or get_preset("gtx280")
    threads = threads_per_block or algorithm.default_threads
    if threads > cfg.max_threads_per_block:
        raise ConfigError(
            f"{threads} threads/block exceeds the device limit "
            f"{cfg.max_threads_per_block}"
        )
    if jitter_pct < 0:
        raise ConfigError(f"jitter_pct must be non-negative, got {jitter_pct}")
    strategy.validate_grid(cfg, num_blocks)

    algorithm.reset()
    device = Device(cfg, fuzzer=fuzzer, faults=faults)
    if probe is not None:
        device.probes.append(probe)
    host = Host(device)
    rounds = algorithm.num_rounds()
    monitor = RaceMonitor(rounds, num_blocks) if monitor_races else None

    # Resilient path: any armed run gets the barrier watchdog, so a
    # stall surfaces as a typed, recoverable error instead of a
    # heap-drain DeadlockError.
    watchdog: Optional[BarrierWatchdog] = None
    if faults is not None or barrier_deadline_ns is not None:
        watchdog = BarrierWatchdog(
            device,
            barrier_deadline_ns or DEFAULT_BARRIER_DEADLINE_NS,
            strategy_name=strategy.name,
        )

    if jitter_pct > 0:
        sigma = jitter_pct / 100.0
        jitter_rng = np.random.default_rng(jitter_seed)

        def jitter(cost: float) -> float:
            return cost * jitter_rng.lognormal(mean=0.0, sigma=sigma)

    else:

        def jitter(cost: float) -> float:
            return cost

    def work_for(round_idx: int, block_id: int):
        work = algorithm.round_work(round_idx, block_id, num_blocks)
        if monitor is None:
            return work
        return monitor.wrap(round_idx, block_id, work)

    if strategy.mode == "device":
        strategy.prepare(device, num_blocks)

        def program(ctx: BlockCtx) -> Generator:
            for r in range(rounds):
                cost = jitter(algorithm.round_cost(r, ctx.block_id, num_blocks))
                yield from ctx.compute(cost, work_for(r, ctx.block_id), round=r)
                yield from strategy.instrumented_barrier(ctx, r)

        spec = KernelSpec(
            name=f"{algorithm.name}:{strategy.name}",
            program=program,
            grid_blocks=num_blocks,
            block_threads=threads,
            shared_mem_per_block=strategy.shared_mem_request(cfg),
        )

        # The cudaLaunchCooperativeKernel rule: under cooperative
        # co-residency the topology's ``max_co_resident_blocks`` is only
        # an upper bound, so validate against the *actual* capacity of
        # this block shape (occupancy-aware).  Exclusive topologies keep
        # the paper's behavior untouched: validate_grid above is the
        # guard, and bypassing it still reaches the engine's own
        # deadlock detection.  Capacity 0 (a block that cannot be
        # placed at all) keeps the scheduler's own error.
        if cfg.topology.co_residency == "cooperative":
            capacity = device.scheduler.co_resident_capacity(spec)
            if capacity and num_blocks > capacity:
                raise OccupancyError(
                    f"{strategy.name}: {num_blocks} blocks of {threads} "
                    f"threads exceed the device's co-resident capacity of "
                    f"{capacity} blocks; a device-side barrier would "
                    "deadlock (non-preemptive blocks)"
                )

        def host_program() -> Generator:
            handle = yield from host.launch(spec)
            if watchdog is not None:
                watchdog.watch(handle)
            yield from host.synchronize()
            if watchdog is not None:
                watchdog.disarm()

    else:

        def round_program(ctx: BlockCtx, round_idx: int) -> Generator:
            cost = jitter(
                algorithm.round_cost(round_idx, ctx.block_id, num_blocks)
            )
            yield from ctx.compute(
                cost, work_for(round_idx, ctx.block_id), round=round_idx
            )

        def host_program() -> Generator:
            for r in range(rounds):
                spec = KernelSpec(
                    name=f"{algorithm.name}:r{r}",
                    program=round_program,
                    grid_blocks=num_blocks,
                    block_threads=threads,
                    params={"round_idx": r},
                )
                handle = yield from host.launch(spec)
                if watchdog is not None:
                    watchdog.watch(handle)
                if strategy.explicit:
                    yield from host.synchronize()
            yield from host.synchronize()
            if watchdog is not None:
                watchdog.disarm()

    if watchdog is not None:
        watchdog.arm()
    device.engine.spawn(host_program(), "host")
    total_ns = device.run()

    if watchdog is not None and watchdog.fired:
        raise BarrierTimeoutError(
            strategy.name,
            watchdog.deadline_ns,
            watchdog.fired_at or total_ns,
            watchdog.stuck,
            faults=[f.description for f in faults.fired] if faults else None,
        )
    if faults is not None:
        # Check the handles, not just the host's sticky error: in host
        # mode the final synchronize joins only the *last* kernel, so a
        # kill of an earlier launch never latches last_error.
        killed = [h for h in host.launches if h.killed]
        if killed:
            detail = host.get_last_error() or (
                f"kernel {killed[0].spec.name!r} was killed"
            )
            raise FaultError(f"kernel killed mid-run: {detail}")

    verified: Optional[bool] = None
    if verify and strategy.name != "null":
        algorithm.verify()  # raises VerificationError on mismatch
        verified = True

    return RunResult(
        algorithm=algorithm.name,
        strategy=strategy.name,
        num_blocks=num_blocks,
        threads_per_block=threads,
        rounds=rounds,
        total_ns=total_ns,
        kernel_launches=len(host.launches),
        verified=verified,
        violations=len(monitor.violations) if monitor is not None else -1,
        atomic_ops=device.atomics.ops,
        trace_compute_ns=device.trace.total("compute"),
        trace_sync_ns=(
            device.trace.total("sync") + device.trace.total("sync-overhead")
        ),
        device=device if keep_device else None,
        faults_fired=len(faults.fired) if faults is not None else 0,
    )
