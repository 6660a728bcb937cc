"""Golden digests: the event engine's observables are pinned byte for byte.

Every case here runs one configuration and compares the SHA-256 of its
full observable state — RunResult fields, the complete span trace, the
final virtual clock and the dispatch count, or a serialized sweep —
against ``engine_golden.json``.  The cover spans every barrier strategy,
the seeded-bug ``broken-*`` mutants (whose *failure* is pinned too),
seeded schedule fuzzing, the figure drivers and a Fig. 11 sweep on every
device preset.  Any change to dispatch order, timing or serialization
shows up as a digest mismatch.

Allocation names carry per-strategy-instance uids (``g_mutex#3``) that
depend on how many strategies the process built before; snapshots
normalize ``#<digits>`` to ``#N`` so the digests do not depend on test
order.

A deliberate change to simulated behaviour regenerates the goldens with::

    PYTHONPATH=src python tests/simcore/test_engine_golden.py

and the diff of ``engine_golden.json`` belongs in the same commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.algorithms import MeanMicrobench
from repro.gpu.presets import get_preset, preset_names
from repro.harness import experiments
from repro.harness.runner import run
from repro.sanitize import ScheduleFuzzer, derive_seeds

GOLDEN_PATH = Path(__file__).with_name("engine_golden.json")

_UID = re.compile(r"#\d+")

STRATEGIES = [
    "cpu-explicit",
    "cpu-implicit",
    "gpu-simple",
    "gpu-simple-reset",
    "gpu-tree-2",
    "gpu-tree-3",
    "gpu-lockfree",
    "gpu-lockfree-serial",
    "gpu-lockfree-detailed",
]

#: seeded-bug fixtures (repro.sanitize.mutants): one deadlock, one
#: premature release, one divergence — the failure modes are pinned too.
MUTANTS = [
    "broken-lockfree-noscatter",
    "broken-simple-undercount",
    "broken-simple-skipround",
]

#: device-mode strategies exercised under the schedule fuzzer (the
#: fuzzer permutes same-time ordering, which only they are sensitive to).
FUZZED = ["gpu-simple", "gpu-simple-reset", "gpu-tree-2", "gpu-lockfree",
          "gpu-lockfree-detailed"]
FUZZ_CASES = 50
FUZZ_SEEDS = derive_seeds(20250807, FUZZ_CASES)
MUTANT_FUZZ_SEEDS = [11, 97]

#: the preset grid: the tightest co-residency limit in the registry is
#: fermi_class (15), and gpu-lockfree needs block_threads >= num_blocks.
#: The strategies cover each barrier family: host, atomic counter, tree,
#: lock-free and the hierarchical cluster barrier, which must also
#: degenerate correctly on flat single-domain presets.
PRESET_BLOCKS = [2, 4]
PRESET_ROUNDS = 3
PRESET_STRATEGIES = (
    "cpu-implicit",
    "gpu-simple",
    "gpu-tree-2",
    "gpu-lockfree",
    "gpu-cluster-tree",
)


def _norm(obj: Any) -> Any:
    """Normalize strategy-instance uids (``#7`` -> ``#N``) recursively."""
    if isinstance(obj, str):
        return _UID.sub("#N", obj)
    if isinstance(obj, tuple):
        return tuple(_norm(o) for o in obj)
    if isinstance(obj, list):
        return [_norm(o) for o in obj]
    if isinstance(obj, dict):
        return {_norm(k): _norm(v) for k, v in obj.items()}
    return obj


def _digest(obj: Any) -> str:
    text = obj if isinstance(obj, str) else repr(obj)
    return hashlib.sha256(text.encode()).hexdigest()


def _snapshot(
    strategy: str,
    rounds: int = 4,
    blocks: int = 6,
    seed: Optional[int] = None,
    jitter_pct: float = 0.0,
) -> Tuple[Any, ...]:
    """Every observable of one run, normalized.

    A failing run snapshots as ``("error", type, normalized message)``,
    so a mutant must keep failing the same way, not merely fail.
    """
    fuzzer = ScheduleFuzzer(seed) if seed is not None else None
    try:
        result = run(
            MeanMicrobench(rounds=rounds),
            strategy,
            num_blocks=blocks,
            keep_device=True,
            fuzzer=fuzzer,
            jitter_pct=jitter_pct,
            jitter_seed=3,
        )
    except Exception as exc:  # noqa: BLE001 - the outcome is the observable
        return ("error", type(exc).__name__, _norm(str(exc)))
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "device"
    }
    device = result.device
    assert device is not None
    # trace.digest() hashes raw span names, which carry the instance
    # uids normalized away here; to_tuples() is the full trace.
    return _norm(
        (
            "ok",
            fields,
            device.trace.to_tuples(),
            device.engine.now,
            device.engine.events_dispatched,
        )
    )


def _mutant_snapshot(strategy: str) -> Tuple[Any, ...]:
    # 30% timing jitter skews block arrivals: the condition the
    # undercount mutant needs to actually open the barrier early.
    return _snapshot(strategy, jitter_pct=30.0)


def _fuzz_snapshot(case: int) -> Tuple[Any, ...]:
    strategy = FUZZED[case % len(FUZZED)]
    return _snapshot(strategy, rounds=3, seed=FUZZ_SEEDS[case])


def _driver_fig11() -> str:
    return experiments.fig11(rounds=10, blocks=[2, 5, 8]).to_json()


def _driver_fig13(algorithm: str) -> str:
    return experiments.fig13(algorithm_name=algorithm, blocks=[9, 12]).to_json()


def _driver_fig14(algorithm: str) -> str:
    return experiments.fig14(algorithm_name=algorithm, blocks=[9, 12]).to_json()


def _driver_fig15() -> Any:
    return experiments.fig15(num_blocks=6, algorithms=("bitonic",))


def _preset_sweep(preset: str) -> str:
    return experiments.fig11(
        config=get_preset(preset),
        rounds=PRESET_ROUNDS,
        blocks=PRESET_BLOCKS,
        strategies=PRESET_STRATEGIES,
    ).to_json()


def capture() -> Dict[str, str]:
    """Compute every golden digest under the current engine."""
    golden: Dict[str, str] = {}
    for strategy in STRATEGIES:
        golden[f"strategy/{strategy}"] = _digest(_snapshot(strategy))
    for strategy in MUTANTS:
        golden[f"mutant/{strategy}"] = _digest(_mutant_snapshot(strategy))
    for case in range(FUZZ_CASES):
        golden[f"fuzz/{case}"] = _digest(_fuzz_snapshot(case))
    for strategy in MUTANTS:
        for seed in MUTANT_FUZZ_SEEDS:
            golden[f"fuzz-mutant/{strategy}/{seed}"] = _digest(
                _snapshot(strategy, rounds=3, seed=seed)
            )
    golden["driver/fig11"] = _digest(_driver_fig11())
    for algorithm in ("fft", "bitonic"):
        golden[f"driver/fig13/{algorithm}"] = _digest(_driver_fig13(algorithm))
        golden[f"driver/fig14/{algorithm}"] = _digest(_driver_fig14(algorithm))
    golden["driver/fig15"] = _digest(_driver_fig15())
    for preset in preset_names():
        golden[f"preset/{preset}"] = _digest(_preset_sweep(preset))
    return golden


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


# ---------------------------------------------------------------------------
# Runs: every strategy, the mutants, fuzzed schedules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategy_matches_golden(golden, strategy):
    assert _digest(_snapshot(strategy)) == golden[f"strategy/{strategy}"]


@pytest.mark.parametrize("strategy", MUTANTS)
def test_mutant_outcome_matches_golden(golden, strategy):
    """Seeded bugs keep failing the same way.

    The deadlock mutant names the same blocked processes with the same
    wait reasons; the premature-release mutant reports the same
    violation count; the divergence mutant starves identically.
    """
    snap = _mutant_snapshot(strategy)
    assert _digest(snap) == golden[f"mutant/{strategy}"]
    if strategy == "broken-lockfree-noscatter":
        assert snap[0] == "error" and snap[1] == "DeadlockError"
    if strategy == "broken-simple-undercount":
        # Completes, but the race monitor caught the early opens.
        assert snap[0] == "ok" and snap[1]["violations"] > 0


@pytest.mark.parametrize("case", range(FUZZ_CASES))
def test_fuzzed_schedule_matches_golden(golden, case):
    """Adversarial same-time interleavings stay pinned.

    The fuzzer's tiebreak PRNG is consumed once per scheduled event, so
    one extra or missing draw desynchronizes the stream and changes the
    digest immediately.
    """
    assert _digest(_fuzz_snapshot(case)) == golden[f"fuzz/{case}"]


@pytest.mark.parametrize("strategy", MUTANTS)
@pytest.mark.parametrize("seed", MUTANT_FUZZ_SEEDS)
def test_fuzzed_mutant_matches_golden(golden, strategy, seed):
    snap = _snapshot(strategy, rounds=3, seed=seed)
    assert _digest(snap) == golden[f"fuzz-mutant/{strategy}/{seed}"]


# ---------------------------------------------------------------------------
# Experiment drivers and the preset matrix, serialized bytes
# ---------------------------------------------------------------------------

def test_fig11_driver_matches_golden(golden):
    assert _digest(_driver_fig11()) == golden["driver/fig11"]


@pytest.mark.parametrize("algorithm", ["fft", "bitonic"])
def test_fig13_fig14_driver_matches_golden(golden, algorithm):
    assert _digest(_driver_fig13(algorithm)) == golden[f"driver/fig13/{algorithm}"]
    assert _digest(_driver_fig14(algorithm)) == golden[f"driver/fig14/{algorithm}"]


def test_fig15_driver_matches_golden(golden):
    assert _digest(_driver_fig15()) == golden["driver/fig15"]


@pytest.mark.parametrize("preset", preset_names())
def test_preset_sweep_matches_golden(golden, preset):
    key = f"preset/{preset}"
    assert key in golden, f"no golden for preset {preset!r}; regenerate"
    assert _digest(_preset_sweep(preset)) == golden[key]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
