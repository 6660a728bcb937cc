"""How much CPU a process actually gets on a shared host.

A shared host slows each vCPU in spells of milliseconds to minutes, and
the guest cannot see it: ``time.process_time`` runs on while the vCPU
stands still, and spells on different vCPUs are unrelated.  A workload
timed through such spells reads up to 1.7x slower at one time than at
another, so the benchmark samples the host's speed while it measures and
reports the program's time in *reference seconds*: seconds on a vCPU
that runs the calibration loop in :data:`REFERENCE_S`.

:class:`Sampler` does that from inside the measured process.  Every
``interval_s`` of wall time a ``SIGALRM`` handler runs a fixed piece of
calibration work and records how long it took.  Samples fall uniformly
in wall time, so over a window the mean of ``REFERENCE_S / sample`` is
the speed the process had, relative to the reference, and

    reference seconds = program seconds * mean(REFERENCE_S / sample)

where *program seconds* leave the handler's own time out
(:meth:`Sampler.clock`).

In a process the benchmark does not start itself (the service's worker)
the sampler comes in through ``sitehook/sitecustomize.py`` and appends
its samples to a log file that :func:`read_log` reads back.  Clocks
agree across processes: ``perf_counter`` is the system's monotonic clock.
"""

from __future__ import annotations

import gc
import signal
import statistics
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: wall seconds between samples; each sample costs about 5 % of that.
INTERVAL_S = 0.04
#: iterations of the calibration loop.
CALIBRATION_LOOPS = 6_000
#: the calibration loop's time on the reference vCPU: the quickest
#: samples on the 2-vCPU x86 machine the benchmark was built on took
#: 1.9-2.1 ms.
REFERENCE_S = 0.002

#: (perf_counter at the sample's start, seconds it took).
Sample = Tuple[float, float]


class _Node:
    __slots__ = ("key", "pair")


def _calibrate(loops: int) -> int:
    """Small-object churn: allocation, attribute and dict traffic.

    The simulator spends its time on the same kind of work, and this
    loop tracks its slowdowns more closely than integer arithmetic does.
    The cyclic garbage collector is held off meanwhile: a collection
    that the loop's allocations set off would scan the program's heap,
    and the sample would then depend on the program.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        table: Dict[int, _Node] = {}
        acc = 0
        for i in range(loops):
            node = _Node()
            node.key = i
            node.pair = [i, i + 1]
            table[i & 1023] = node
            other = table.get((i * 7) & 1023)
            if other is not None:
                acc += other.key
        return acc
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Samples host speed on ``SIGALRM`` in the main thread."""

    def __init__(self, interval_s: float = INTERVAL_S, log: Optional[Path] = None):
        self.interval_s = interval_s
        self.samples: List[Sample] = []
        #: wall seconds spent inside the handler so far.
        self.spent = 0.0
        self._log = open(log, "a", buffering=1) if log is not None else None
        self._previous: Any = None

    def _on_alarm(self, signum: int, frame: Any) -> None:
        t0 = perf_counter()
        _calibrate(CALIBRATION_LOOPS)
        t1 = perf_counter()
        self.samples.append((t0, t1 - t0))
        if self._log is not None:
            self._log.write(f"{t0!r} {t1 - t0!r}\n")
        self.spent += perf_counter() - t0

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        if self._log is not None:
            self._log.close()
            self._log = None

    def clock(self) -> float:
        """``perf_counter`` minus the handler's time: the program's clock."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:  # no sample ran in between
                return now - spent


def read_log(path: Path) -> List[Sample]:
    samples = []
    for line in path.read_text().splitlines():
        start, seconds = line.split()
        samples.append((float(start), float(seconds)))
    return samples


def in_window(samples: Iterable[Sample], t0: float, t1: float) -> List[Sample]:
    return [s for s in samples if t0 <= s[0] < t1]


def speed(window: Sequence[Sample]) -> float:
    """Speed over ``window`` relative to the reference vCPU."""
    if not window:
        raise RuntimeError("no host-speed sample fell inside a timed pass")
    return statistics.fmean(REFERENCE_S / seconds for _, seconds in window)
