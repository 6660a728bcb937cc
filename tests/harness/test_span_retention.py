"""Span retention follows ``keep_device``: totals-only runs measure the same.

A run whose device is not kept records per-phase totals only; one with
``keep_device=True`` keeps every span.  Both must produce the same
:class:`~repro.harness.runner.RunResult` (``device`` aside), and the
totals-only trace must answer ``by_phase()``/``phases()`` exactly as the
retained spans would.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, List

import pytest

from repro.algorithms import FFT, BitonicSort, MeanMicrobench, SmithWaterman
from repro.errors import SpansNotKeptError
from repro.gpu.device import Device
from repro.harness import runner
from repro.sync import strategy_names

MICRO_STRATEGIES = [s for s in strategy_names() if not s.startswith("broken-")]

KERNELS: Dict[str, Callable[[], object]] = {
    "fft": lambda: FFT(n=2**8),
    "bitonic": lambda: BitonicSort(n=2**9),
    "swat": lambda: SmithWaterman(64, 64),
}


def _fields(result: runner.RunResult) -> dict:
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "device"
    }


def _sums_from_spans(trace) -> Dict[str, int]:
    sums: Dict[str, int] = {}
    for span in trace:
        sums[span.phase] = sums.get(span.phase, 0) + span.duration
    return sums


@pytest.fixture
def devices(monkeypatch) -> List[Device]:
    """Every device the runner builds, in construction order."""
    built: List[Device] = []

    class RecordingDevice(Device):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(runner, "Device", RecordingDevice)
    return built


def _check_pair(devices, factory, strategy: str, blocks: int) -> None:
    lean = runner.run(factory(), strategy, blocks)
    full = runner.run(factory(), strategy, blocks, keep_device=True)
    assert lean.device is None and full.device is devices[1]
    assert _fields(lean) == _fields(full)

    totals_only, spans = devices[0].trace, full.device.trace
    assert not totals_only.keep_spans and spans.keep_spans
    from_spans = _sums_from_spans(spans)
    assert totals_only.by_phase() == spans.by_phase() == from_spans
    assert totals_only.phases() == spans.phases() == list(from_spans)
    with pytest.raises(SpansNotKeptError):
        totals_only.spans()


@pytest.mark.parametrize("strategy", MICRO_STRATEGIES)
def test_microbench_totals_only_run_matches_span_run(devices, strategy):
    factory = functools.partial(
        MeanMicrobench, rounds=5, num_blocks_hint=8, threads_per_block=32
    )
    _check_pair(devices, factory, strategy, 8)


@pytest.mark.parametrize("strategy", ["cpu-implicit", "gpu-lockfree"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_totals_only_run_matches_span_run(devices, kernel, strategy):
    _check_pair(devices, KERNELS[kernel], strategy, 4)
