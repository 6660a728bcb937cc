"""Golden outputs: the values every run's outputs must reproduce.

    python3 perfbench/golden.py        # regenerate golden.json

``golden.json`` pins, per workload, the simulated ``RunResult`` fields of
every in-process operation and the SHA-256 of every service result
envelope.  Simulated time on this model does not depend on the input
data, so those values are the same for every workload seed; the
generator proves that on :data:`GENERATION_SEEDS` before writing.  The
chaos campaign is seeded by the workload seed, so its envelope digest is
stored per seed for :data:`CHAOS_SEEDS`; on any other seed the campaign
is checked by its own invariants only (every plan outcome explained).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict

from workloads import Outcome, PaperCells, PaperKernels, service_jobs

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GENERATION_SEEDS = (0, 1, 2)
CHAOS_SEEDS = range(100)


def load() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def check(golden: Dict[str, Any], workload: str, seed: int, out: Outcome) -> None:
    """Mark every operation whose outputs differ from the golden file."""
    expected_ops = golden[workload]
    for label, got in out.outputs.items():
        if label == "chaos":
            digest = golden["sweep_service_chaos"].get(str(seed))
            expected = None if digest is None else {"sha256": digest}
        else:
            expected = expected_ops.get(label)
            if expected is None:
                out.fail(label, "no golden value for this operation")
                continue
        if expected is not None and got != expected:
            out.fail(label, f"golden mismatch: got {got}, expected {expected}")


def _in_process(workload: Any) -> Dict[str, Any]:
    outputs = None
    for seed in GENERATION_SEEDS:
        out = workload.run_pass(workload.build(seed))
        if out.failures:
            raise SystemExit(f"{workload.name} seed {seed} failed: {out.failures}")
        if outputs is not None and out.outputs != outputs:
            raise SystemExit(f"{workload.name}: outputs depend on the seed")
        outputs = out.outputs
    return dict(sorted(outputs.items()))


def _envelope_digest(spec: Dict[str, Any]) -> str:
    import hashlib

    from repro.service.runners import execute_spec

    with tempfile.TemporaryDirectory() as tmp:
        text = execute_spec(spec, journal_dir=Path(tmp) / "journal", cache_dir=Path(tmp) / "cache")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def generate() -> Dict[str, Any]:
    service = {
        label: {"sha256": _envelope_digest(spec)}
        for label, spec in service_jobs(seed=0)
        if label != "chaos"
    }
    chaos = {
        str(seed): _envelope_digest(dict(service_jobs(seed))["chaos"])
        for seed in CHAOS_SEEDS
    }
    return {
        "generation_seeds": list(GENERATION_SEEDS),
        "paper_cells": _in_process(PaperCells()),
        "paper_kernels": _in_process(PaperKernels()),
        "sweep_service": service,
        "sweep_service_chaos": chaos,
    }


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    GOLDEN_PATH.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
