"""Self-test of the benchmark: shape, tracing arithmetic, a held-out seed.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The end-to-end cases run the real command (about two minutes in all).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from hostspeed import REFERENCE_S, Sampler, in_window, speed  # noqa: E402
from tracer import Tracer, install, merge_stats  # noqa: E402

#: a seed outside golden.py's GENERATION_SEEDS and CHAOS_SEEDS.
HELD_OUT_SEED = 7919
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def _nested(tracer: Tracer):
    """A small call tree: f -> (g -> h) twice, with a generator in g."""
    from time import sleep

    def h():
        sleep(0.002)

    def g():
        sleep(0.001)
        yield 1
        h_()
        sent = yield 2
        return sent * 10

    h_ = tracer.wrap_function("h", h)
    g_ = tracer.wrap_generator("g", g)

    def f():
        total = 0
        for _ in range(2):
            gen = g_()
            assert next(gen) == 1
            assert next(gen) == 2
            try:
                gen.send(4)
            except StopIteration as stop:
                total += stop.value
        return total

    return tracer.wrap_function("f", f)


def test_self_time_is_never_negative_or_above_inclusive_time():
    tracer = Tracer()
    assert _nested(tracer)() == 80
    spans, _, negative = merge_stats([tracer.stats()], lambda seg: True)
    assert negative == 0
    assert spans["f"][:2] == [1, 1]
    assert spans["g"][:2] == [2, 6]  # two calls, three resumes each
    assert spans["h"][:2] == [2, 2]
    for name, (_calls, _spans, incl, own) in spans.items():
        assert 0 <= own <= incl, name
    # f's self time excludes everything its children cover
    assert spans["f"][3] <= spans["f"][2] - spans["g"][2]


def test_generator_wrapper_forwards_throw_and_close():
    tracer = Tracer()

    def gen():
        try:
            yield 1
        except KeyError:
            yield "caught"
        yield 3

    wrapped = tracer.wrap_generator("gen", gen)()
    assert next(wrapped) == 1
    assert wrapped.throw(KeyError()) == "caught"
    wrapped.close()
    assert tracer.stats()["negative_self"] == 0


def test_traced_simulation_matches_untraced_and_nests():
    from repro.algorithms import MeanMicrobench
    from repro.harness import runner

    def fields(result):
        return [getattr(result, f) for f in ("total_ns", "atomic_ops", "kernel_launches",
                                               "trace_compute_ns", "trace_sync_ns", "violations")]

    micro = MeanMicrobench(rounds=20, num_blocks_hint=8)
    plain = runner.run(micro, "gpu-tree-2", 8)
    tracer = Tracer()
    inst = install(tracer)
    try:
        traced = runner.run(micro, "gpu-tree-2", 8)
    finally:
        inst.undo()
    assert fields(traced) == fields(plain)
    assert runner.run(micro, "gpu-tree-2", 8).total_ns == plain.total_ns
    spans, counters, negative = merge_stats([tracer.stats()], lambda seg: True)
    assert negative == 0
    for name, (_calls, _spans, incl, own) in spans.items():
        assert 0 <= own <= incl, name
    assert spans["sync.barrier"][0] == 20 * 8
    assert spans["harness.runner"][2] >= spans["simcore.run"][2]
    assert counters["simcore.events"] > 0


def test_host_speed_sampler_leaves_its_own_time_out():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    sampler = Sampler(interval_s=0.02).start()
    r0, c0 = perf_counter(), sampler.clock()
    while perf_counter() - r0 < 0.4:
        pass
    r1, c1 = perf_counter(), sampler.clock()
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    window = in_window(sampler.samples, r0, r1)
    assert len(window) >= 5
    spent = sum(sec for _, sec in window)
    # the program clock stops while a sample runs
    assert c1 - c0 == pytest.approx(r1 - r0 - spent, abs=0.01)
    assert speed(window) == pytest.approx(
        sum(REFERENCE_S / sec for _, sec in window) / len(window))
    with pytest.raises(RuntimeError):
        speed([])


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_held_out_seed_untraced(workload):
    result = _result(_bench("--workload", workload, "--seed", str(HELD_OUT_SEED),
                            "--seconds", "0", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_held_out_seed_traced_service():
    result = _result(_bench("--workload", "sweep_service", "--seed", str(HELD_OUT_SEED),
                            "--seconds", "0", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    for name in ("simcore.events", "sync.barriers", "parallel.cells_run",
                 "parallel.cache_hits", "parallel.journal_records",
                 "service.dedup_hits", "service.submit_ms"):
        assert metrics[name]["value"] > 0, name
    assert metrics["cell_s.gpu-simple"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "paper_cells", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
