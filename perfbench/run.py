"""The repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload paper_cells --seed 1 --seconds 10 --trace 0

Runs one workload against the program under ``src/`` and prints, as the
last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics (host time, memory, model accuracy);
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics.  Every pass's outputs are checked against
``golden.json``; any failed operation makes ``correct`` false and the
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: runtime scratch (service directories, span files); never committed.
WORK_DIR = ROOT / ".perfbench"

WORKLOADS = ("paper_cells", "paper_kernels", "sweep_service")
#: set-up samples per run; setup_s is their median.
SETUP_REPEATS = 5
#: wall seconds between host-speed samples (hostspeed.py) in a set-up
#: probe, which lasts well under a second; elsewhere the default.
PROBE_SAMPLE_INTERVAL_S = 0.02

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "paper_err_pp": "pp",
}
PER_LAYER = {
    "simcore.events": "count",
    "simcore.self_s": "s",
    "simcore.host_ns_per_event": "ns",
    "simcore.trace.spans": "count",
    "simcore.trace.add_s": "s",
    "simcore.trace.total_s": "s",
    "gpu.ctx_self_s": "s",
    "gpu.atomics": "count",
    "gpu.spin_polls": "count",
    "gpu.launches": "count",
    "gpu.host_self_s": "s",
    "sync.barriers": "count",
    "sync.self_s": "s",
    "algorithms.work_s": "s",
    "algorithms.verify_s": "s",
    "harness.runner.self_s": "s",
    "parallel.cells_run": "count",
    "parallel.cache_hits": "count",
    "parallel.cache_hit_ratio": "ratio",
    "parallel.cache_get_s": "s",
    "parallel.cache_put_s": "s",
    "parallel.journal_records": "count",
    "parallel.journal_record_s": "s",
    "parallel.executor_self_s": "s",
    "service.submit_ms": "ms",
    "service.queue_wait_s": "s",
    "service.result_ms": "ms",
    "service.dedup_hits": "count",
    "trace.overhead_s": "s",
    "cell_s.cpu-explicit": "s",
    "cell_s.cpu-implicit": "s",
    "cell_s.gpu-simple": "s",
    "cell_s.gpu-tree-2": "s",
    "cell_s.gpu-tree-3": "s",
    "cell_s.gpu-lockfree": "s",
    "kernel_s.fft": "s",
    "kernel_s.bitonic": "s",
    "kernel_s.swat": "s",
}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up sample in a fresh interpreter
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _workload(name: str) -> Any:
    from workloads import PaperCells, PaperKernels, SweepService

    if name == "sweep_service":
        return SweepService(WORK_DIR)
    return PaperCells() if name == "paper_cells" else PaperKernels()


def _peak_rss_mb() -> float:
    """Peak resident memory of the largest process of the run."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _setup_probe(args: argparse.Namespace) -> int:
    """Imports plus input construction, timed in this fresh interpreter."""
    from hostspeed import Sampler

    sampler = Sampler(interval_s=PROBE_SAMPLE_INTERVAL_S).start()
    t0 = sampler.clock()
    r0 = perf_counter()
    _workload(args.workload).build(args.seed)
    program_s = sampler.clock() - t0
    window = (r0, perf_counter())
    sampler.stop()
    print(json.dumps({"program_s": program_s, "window": window, "samples": sampler.samples}))
    return 0


def _probe_setups(args: argparse.Namespace) -> List[Dict[str, Any]]:
    cmd = [
        sys.executable, str(Path(__file__)), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0",
    ]
    probes = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def _run_untraced(args: argparse.Namespace, golden: Dict[str, Any]) -> Tuple[List[Any], Dict[str, float]]:
    """Set-ups and timed passes, each reported in reference seconds.

    Every set-up and pass gives its program seconds (the samplers' own
    time left out), the window of wall time it ran in, and the host-speed
    samples of the process that did the work; hostspeed.py explains the
    arithmetic.
    """
    import workloads
    from golden import check
    from hostspeed import Sampler, in_window, read_log, speed

    wl = _workload(args.workload)
    passes: List[Any] = []
    #: (program seconds, perf_counter window) per set-up and timed pass.
    setups: List[Tuple[float, Tuple[float, float]]] = []
    timed: List[Tuple[float, Tuple[float, float]]] = []
    if args.workload == "sweep_service":
        # The work runs in the service's worker, on whichever vCPU it
        # gets, so the sampler runs there (sitehook/sitecustomize.py).
        speed_dir = WORK_DIR / "hostspeed" / str(os.getpid())
        speed_dir.mkdir(parents=True, exist_ok=True)
        saved_env = dict(os.environ)
        os.environ.update({
            "PERFBENCH_HOSTSPEED_DIR": str(speed_dir),
            "PYTHONPATH": os.pathsep.join((str(HERE / "sitehook"), saved_env["PYTHONPATH"])),
        })
        windows: List[Tuple[str, Tuple[float, float]]] = []
        t_start = perf_counter()
        try:
            # Each pass needs a fresh service directory, so each pass
            # gets its own set-up; set-ups after the timed phase only
            # complete the set-up sample.
            while True:
                timing = not passes or perf_counter() - t_start < args.seconds
                if not timing and sum(kind == "setup" for kind, _ in windows) >= SETUP_REPEATS:
                    break
                t0 = perf_counter()
                state = wl.start(args.seed)
                t1 = perf_counter()
                windows.append(("setup", (t0, t1)))
                try:
                    if timing:
                        passes.append(wl.run_pass(state))
                        windows.append(("pass", (t1, perf_counter())))
                finally:
                    wl.stop(state)
        finally:
            os.environ.clear()
            os.environ.update(saved_env)
        samples = [s for log in sorted(speed_dir.glob("*.log")) for s in read_log(log)]
        shutil.rmtree(speed_dir, ignore_errors=True)
        # The worker's samples held up its jobs, and with them the client.
        pass_s = iter(out.wall_s for out in passes)
        for kind, window in windows:
            measured = window[1] - window[0] if kind == "setup" else next(pass_s)
            program_s = measured - sum(sec for _, sec in in_window(samples, *window))
            (setups if kind == "setup" else timed).append((program_s, window))
    else:
        probes = _probe_setups(args)
        samples = [tuple(s) for probe in probes for s in probe["samples"]]
        setups = [(probe["program_s"], tuple(probe["window"])) for probe in probes]
        inputs = wl.build(args.seed)
        sampler = Sampler().start()
        workloads.clock = sampler.clock
        try:
            warm = wl.warm_up(inputs)  # checked, not timed
            t_start = perf_counter()
            while not timed or perf_counter() - t_start < args.seconds:
                r0 = perf_counter()
                passes.append(wl.run_pass(inputs))
                timed.append((passes[-1].wall_s, (r0, perf_counter())))
        finally:
            sampler.stop()
            workloads.clock = perf_counter
        samples += sampler.samples
        passes.insert(0, warm)
    for out in passes:
        check(golden, args.workload, args.seed, out)
    calibration = sorted(sec for _, sec in samples)
    print(f"  host speed: {len(samples)} samples, calibration loop fastest "
          f"{calibration[0] * 1e3:.3f} ms, median {statistics.median(calibration) * 1e3:.3f} ms")

    def reference_s(program_s: float, window: Tuple[float, float]) -> float:
        return program_s * speed(in_window(samples, *window))

    for kind, runs in (("set-up", setups), ("pass", timed)):
        for program_s, window in runs:
            print(f"  {kind}: {program_s:.4f} s measured, {reference_s(program_s, window):.4f} reference s")
    metrics = {
        "setup_s": statistics.median(reference_s(*run) for run in setups),
        "wall_s": statistics.median(reference_s(*run) for run in timed),
        "peak_rss_mb": _peak_rss_mb(),
        "paper_err_pp": statistics.median(p.paper_err_pp for p in passes[-len(timed):]),
    }
    return passes, metrics


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans: Dict[str, List[int]], counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from merged span aggregates and counters."""

    def calls(name: str) -> int:
        return spans.get(name, [0, 0, 0, 0])[0]

    def incl_s(name: str) -> float:
        return spans.get(name, [0, 0, 0, 0])[2] / 1e9

    def self_s(*prefixes: str) -> float:
        return sum(rec[3] for n, rec in spans.items() if n.startswith(prefixes)) / 1e9

    def mean_ms(name: str) -> float:
        return 1e3 * incl_s(name) / calls(name) if calls(name) else 0.0

    events = counters.get("simcore.events", 0)
    gets = calls("parallel.cache.get")
    hits = counters.get("parallel.cache_hits", 0)
    return {
        "simcore.events": events,
        "simcore.self_s": self_s("simcore.run"),
        "simcore.host_ns_per_event": self_s("simcore.run") * 1e9 / events if events else 0.0,
        "simcore.trace.spans": calls("simcore.trace.add"),
        "simcore.trace.add_s": incl_s("simcore.trace.add"),
        "simcore.trace.total_s": incl_s("simcore.trace.total"),
        "gpu.ctx_self_s": self_s("gpu.ctx."),
        "gpu.atomics": calls("gpu.ctx.atomic_add"),
        "gpu.spin_polls": counters.get("gpu.spin_polls", 0),
        "gpu.launches": calls("gpu.host.launch"),
        "gpu.host_self_s": self_s("gpu.host."),
        "sync.barriers": calls("sync.barrier"),
        "sync.self_s": self_s("sync.barrier"),
        "algorithms.work_s": incl_s("algorithms.work"),
        "algorithms.verify_s": incl_s("algorithms.verify"),
        "harness.runner.self_s": self_s("harness.runner"),
        "parallel.cells_run": calls("parallel.worker"),
        "parallel.cache_hits": hits,
        "parallel.cache_hit_ratio": hits / gets if gets else 0.0,
        "parallel.cache_get_s": incl_s("parallel.cache.get"),
        "parallel.cache_put_s": incl_s("parallel.cache.put"),
        "parallel.journal_records": calls("parallel.journal.record"),
        "parallel.journal_record_s": incl_s("parallel.journal.record"),
        "parallel.executor_self_s": self_s("parallel.executor.map"),
        "service.submit_ms": mean_ms("service.client.submit"),
        "service.queue_wait_s": counters.get("service.queue_wait_s", 0.0),
        "service.result_ms": mean_ms("service.client.result_text"),
        "service.dedup_hits": counters.get("service.dedup_hits", 0),
    }


def op_metrics(out: Any) -> Dict[str, float]:
    """cell_s.* and kernel_s.* from one pass (0 where they do not apply)."""
    from workloads import CELL_STRATEGIES, KERNEL_STRATEGIES, KERNELS

    metrics = {
        f"cell_s.{s}": out.op_s.get(f"micro/{s}", 0.0)
        for s in CELL_STRATEGIES if s != "null"
    }
    for k in KERNELS:
        metrics[f"kernel_s.{k}"] = sum(out.op_s.get(f"{k}/{s}", 0.0) for s in KERNEL_STRATEGIES)
    return metrics


def _run_traced(args: argparse.Namespace, golden: Dict[str, Any]) -> Tuple[List[Any], Dict[str, float]]:
    from golden import check
    from tracer import Tracer, install, merge_stats

    wl = _workload(args.workload)
    tracer = Tracer()
    traces = WORK_DIR / "traces"
    stem = f"{args.workload}-seed{args.seed}"
    docs: List[Dict[str, Any]] = []
    #: the untimed warm-up (see _run_untraced), checked with the passes.
    warm: List[Any] = []
    if args.workload == "sweep_service":
        state = wl.start(args.seed)
        try:
            plain = wl.run_pass(state)
        finally:
            wl.stop(state)
        tracer.segment = "setup"
        inst = install(tracer)
        try:
            state = wl.start(args.seed, trace_out=traces / f"{stem}-worker")
            try:
                tracer.segment = "pass"
                traced = wl.run_pass(state)
            finally:
                worker_doc = wl.stop(state)
        finally:
            inst.undo()
        if worker_doc is None:
            raise RuntimeError("the traced worker wrote no statistics")
        docs.append(worker_doc)
        keep_ids = set(traced.job_ids.values())
    else:
        inputs = wl.build(args.seed)
        warm.append(wl.warm_up(inputs))
        plain = wl.run_pass(inputs)
        tracer.segment = "pass"
        inst = install(tracer)
        try:
            traced = wl.run_pass(inputs)
        finally:
            inst.undo()
        keep_ids = set()
    tracer.write(traces / f"{stem}.spans.json.gz")
    docs.append(tracer.stats())
    spans, counters, negative = merge_stats(docs, lambda seg: seg == "pass" or seg in keep_ids)

    for out in (*warm, plain, traced):
        check(golden, args.workload, args.seed, out)
    traced.attempted += 2  # the two checks below
    if plain.outputs != traced.outputs:
        traced.fail("traced-vs-untraced", "traced outputs differ from the untraced pass")
    if negative:
        traced.fail("trace", f"{negative} spans with negative self time")
    metrics = layer_metrics(spans, counters)
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics.update(op_metrics(plain))
    return [*warm, plain, traced], metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Service workers are separate interpreters; they import the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    if args.setup_probe:
        return _setup_probe(args)

    from golden import load

    golden = load()
    if args.trace:
        passes, metrics = _run_traced(args, golden)
        units = PER_LAYER
    else:
        passes, metrics = _run_untraced(args, golden)
        units = END_TO_END

    attempted = sum(p.attempted for p in passes)
    failed = 0
    for i, out in enumerate(passes):
        failed += len(out.failures)
        for label, why in sorted(out.failures.items()):
            print(f"FAILED pass {i} {label}: {why}", file=sys.stderr)
    for out in passes:
        for label, seconds in sorted(out.op_s.items()):
            print(f"  {label:<24} {seconds:10.4f} s")
    for name, unit in units.items():
        print(f"{name:<28} {metrics[name]:>14.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
