"""The benchmark's three workloads, each driven through the public API.

Every workload runs on the ``gtx280`` preset with the default reference
engine, and one *pass* is the unit the timed phase repeats:

* ``paper_cells`` — one Fig. 11 micro-benchmark cell per strategy at
  30 blocks and 1,000 rounds, through :func:`repro.harness.runner.run`;
* ``paper_kernels`` — FFT, bitonic sort and Smith-Waterman at their
  calibrated sizes, 30 blocks, under ``null``, ``cpu-implicit`` and
  ``gpu-lockfree`` (the Table 1 / abstract pairs);
* ``sweep_service`` — a live :class:`repro.service.ServiceApp` with one
  worker subprocess and the result cache on, fed by one closed-loop
  client (README.md in this directory says why each was chosen).

A pass returns an :class:`Outcome`: host seconds per operation, the
outputs the golden check compares, and every failed operation.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: the clock every pass is timed with; run.py swaps in the host-speed
#: sampler's clock, which leaves the sampler's own time out.
clock: Callable[[], float] = perf_counter

BLOCKS = 30
MICRO_ROUNDS = 1000
CELL_STRATEGIES = (
    "null", "cpu-explicit", "cpu-implicit", "gpu-simple",
    "gpu-tree-2", "gpu-tree-3", "gpu-lockfree",
)
KERNELS = ("fft", "bitonic", "swat")
KERNEL_STRATEGIES = ("null", "cpu-implicit", "gpu-lockfree")
#: RunResult fields pinned by the golden file (simulated time and
#: counts; event and span counts are deliberately left out).
RESULT_FIELDS = (
    "total_ns", "atomic_ops", "kernel_launches", "trace_compute_ns",
    "trace_sync_ns",
)

#: the closed-loop client's job sequence, in submission order.
SERVICE_FIG11 = {"experiment": "fig11", "params": {"rounds": 10}}
SERVICE_WARMUP = {
    "experiment": "chaos", "params": {"plans": 1, "seed": 0, "blocks": 4},
}
SERVICE_POLL_S = 0.01
SERVICE_WORKER_POLL_S = 0.02
SERVICE_JOB_TIMEOUT_S = 60.0


def service_jobs(seed: int) -> List[Tuple[str, Dict[str, Any]]]:
    return [
        ("fig11", SERVICE_FIG11),
        ("fft-step3", {"experiment": "algorithm-sweep",
                       "params": {"algorithm": "fft", "step": 3}}),
        ("fft-step6", {"experiment": "algorithm-sweep",
                       "params": {"algorithm": "fft", "step": 6}}),
        ("bitonic-step7", {"experiment": "algorithm-sweep",
                           "params": {"algorithm": "bitonic", "step": 7}}),
        ("chaos", {"experiment": "chaos",
                   "params": {"plans": 24, "seed": seed, "blocks": 8}}),
        ("fig11-dup", SERVICE_FIG11),
    ]


@dataclass
class Outcome:
    """What one pass measured and produced."""

    wall_s: float = 0.0
    #: operation label -> host seconds.
    op_s: Dict[str, float] = field(default_factory=dict)
    #: operation label -> outputs the golden check compares.
    outputs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: operation label -> why it failed.
    failures: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    #: mean absolute error against model/paper_data.py, in points.
    paper_err_pp: float = 0.0
    #: operation label -> service job id (sweep_service only).
    job_ids: Dict[str, str] = field(default_factory=dict)

    def fail(self, label: str, why: str) -> None:
        self.failures.setdefault(label, why)


def _check_run(out: Outcome, label: str, result: Any, strategy: str) -> None:
    """Record a RunResult's golden fields and its verification verdict."""
    out.outputs[label] = {f: int(getattr(result, f)) for f in RESULT_FIELDS}
    if strategy != "null":
        if result.verified is not True:
            out.fail(label, f"verified={result.verified!r}")
        if result.violations != 0:
            out.fail(label, f"{result.violations} barrier violations")


def _timed_run(
    out: Outcome, label: str, algorithm: Any, strategy: str
) -> Optional[Any]:
    from repro.harness import runner

    out.attempted += 1
    measured = strategy != "null"
    t0 = clock()
    try:
        # null is the compute-only baseline: no barrier, so neither a
        # verification nor a race monitor applies (harness.phases).
        result = runner.run(
            algorithm, strategy, BLOCKS, verify=measured, monitor_races=measured
        )
    except Exception as exc:  # an operation error counts as a failure
        out.fail(label, f"{type(exc).__name__}: {exc}")
        return None
    out.op_s[label] = clock() - t0
    _check_run(out, label, result, strategy)
    return result


def _fig11_order_ok(totals: Dict[str, int]) -> Optional[str]:
    """The paper's Fig. 11 ordering at 30 blocks (§5.4 observations)."""
    order = ("null", "gpu-lockfree", "gpu-tree-2", "cpu-implicit",
             "gpu-simple", "cpu-explicit")
    values = [totals[s] for s in order]
    if values != sorted(values) or len(set(values)) != len(values):
        return "Fig. 11 ordering at 30 blocks broken: " + ", ".join(
            f"{s}={totals[s]}" for s in order
        )
    if not totals["gpu-lockfree"] < totals["gpu-tree-3"] < totals["cpu-implicit"]:
        return "gpu-tree-3 is out of place in the Fig. 11 ordering"
    return None


def _micro_errors(sync: Dict[str, int]) -> List[float]:
    """Relative error (%) of the abstract's 7.8x / 3.7x micro ratios."""
    from repro.model.paper_data import HEADLINE

    lockfree = sync["gpu-lockfree"]
    return [
        abs(sync["cpu-explicit"] / lockfree / HEADLINE["micro_lockfree_vs_explicit"].value - 1) * 100,
        abs(sync["cpu-implicit"] / lockfree / HEADLINE["micro_lockfree_vs_implicit"].value - 1) * 100,
    ]


def _kernel_errors(name: str, null: int, implicit: int, lockfree: int) -> List[float]:
    """Point errors of Table 1's sync share and the abstract's gain."""
    from repro.model.paper_data import HEADLINE, TABLE1_SYNC_PCT

    sync_pct = 100.0 * (implicit - null) / implicit
    gain_pct = 100.0 * (implicit - lockfree) / implicit
    return [
        abs(sync_pct - TABLE1_SYNC_PCT[name].value),
        abs(gain_pct - HEADLINE[f"{name}_improvement_pct"].value),
    ]


# ---------------------------------------------------------------------------
# paper_cells
# ---------------------------------------------------------------------------


class PaperCells:
    name = "paper_cells"

    def build(self, seed: int) -> Any:
        from repro.algorithms import MeanMicrobench

        return MeanMicrobench(rounds=MICRO_ROUNDS, num_blocks_hint=BLOCKS, seed=seed)

    def warm_up(self, micro: Any) -> Outcome:
        """Nothing: a first pass runs within 3 % of the next ones."""
        return Outcome()

    def run_pass(self, micro: Any) -> Outcome:
        out = Outcome()
        totals: Dict[str, int] = {}
        t0 = clock()
        for strategy in CELL_STRATEGIES:
            result = _timed_run(out, f"micro/{strategy}", micro, strategy)
            if result is not None:
                totals[strategy] = result.total_ns
        out.wall_s = clock() - t0
        out.attempted += 1
        if len(totals) != len(CELL_STRATEGIES):
            out.fail("fig11-order", "a cell failed")
            return out
        broken = _fig11_order_ok(totals)
        if broken:
            out.fail("fig11-order", broken)
        sync = {s: totals[s] - totals["null"] for s in totals}
        errors = _micro_errors(sync)
        out.paper_err_pp = sum(errors) / len(errors)
        return out


# ---------------------------------------------------------------------------
# paper_kernels
# ---------------------------------------------------------------------------


class PaperKernels:
    name = "paper_kernels"

    def build(self, seed: int) -> Any:
        from repro.algorithms import SmithWaterman
        from repro.harness.experiments import make_algorithm

        kernels = {}
        for name in KERNELS:
            # make_algorithm fixes the calibrated size; the workload
            # seed then draws the input data.
            proto = make_algorithm(name)
            if name == "swat":
                kernels[name] = SmithWaterman(proto.n, proto.m, seed=seed)
            else:
                kernels[name] = type(proto)(n=proto.n, seed=seed)
        return kernels

    def warm_up(self, kernels: Any) -> Outcome:
        """One untimed ``cpu-implicit`` SWat run.

        Its first run in a process takes about 1.6 times as long as the
        next ones (the heap grows to its peak); every other operation's
        first run is within a few percent, or a few milliseconds.
        """
        out = Outcome()
        _timed_run(out, "swat/cpu-implicit", kernels["swat"], "cpu-implicit")
        return out

    def run_pass(self, kernels: Any) -> Outcome:
        out = Outcome()
        totals: Dict[Tuple[str, str], int] = {}
        t0 = clock()
        for name in KERNELS:
            for strategy in KERNEL_STRATEGIES:
                result = _timed_run(out, f"{name}/{strategy}", kernels[name], strategy)
                if result is not None:
                    totals[name, strategy] = result.total_ns
        out.wall_s = clock() - t0
        if len(totals) == len(KERNELS) * len(KERNEL_STRATEGIES):
            errors: List[float] = []
            for name in KERNELS:
                errors += _kernel_errors(
                    name, *(totals[name, s] for s in KERNEL_STRATEGIES)
                )
            out.paper_err_pp = sum(errors) / len(errors)
        return out


# ---------------------------------------------------------------------------
# sweep_service
# ---------------------------------------------------------------------------


@dataclass
class ServiceState:
    directory: Path
    app: Any
    client: Any
    seed: int
    #: the benchmark-launched traced worker (traced runs only).
    worker: Optional[subprocess.Popen] = None
    worker_stats: Optional[Path] = None


class SweepService:
    name = "sweep_service"

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def start(self, seed: int, trace_out: Optional[Path] = None) -> ServiceState:
        """Service start plus one warm-up job (this is the set-up phase).

        With ``trace_out`` the service starts without workers and the
        benchmark launches the traced worker itself, with the arguments
        ServiceApp would give its own worker, so the wrapped layers run
        inside it; the worker writes its span statistics and spans to
        files named with the ``trace_out`` prefix.
        """
        from repro.service import ServiceApp
        from repro.service.client import ServiceClient

        self.work_dir.mkdir(parents=True, exist_ok=True)
        directory = Path(tempfile.mkdtemp(prefix="service-", dir=self.work_dir))
        app = ServiceApp(
            directory,
            workers=0 if trace_out is not None else 1,
            use_cache=True,
            worker_poll_s=SERVICE_WORKER_POLL_S,
        )
        state = ServiceState(directory, app, ServiceClient(app.url, timeout_s=60.0), seed)
        app.start()
        if trace_out is not None:
            state.worker_stats = Path(str(trace_out) + ".stats.json")
            cmd = [
                sys.executable, str(Path(__file__).with_name("trace_worker.py")),
                "--trace-out", str(trace_out),
                "--service-dir", str(app.service_dir),
                "--lease-s", str(app.lease_s),
                "--retry-budget", str(app.retry_budget),
                "--jobs", str(app.worker_jobs),
                "--poll-s", str(app.worker_poll_s),
            ]
            if app.use_cache:
                cmd.append("--cache")
            state.worker = subprocess.Popen(cmd)
        try:
            status, _ = self._job(state, SERVICE_WARMUP)
        except BaseException:
            self.stop(state)
            raise
        if status["state"] != "done":
            self.stop(state)
            raise RuntimeError(f"warm-up job ended {status['state']!r}")
        return state

    def _job(self, state: ServiceState, spec: Dict[str, Any]) -> Tuple[Dict[str, Any], str]:
        client = state.client
        job = client.submit(spec)
        status = client.wait(job["id"], timeout_s=SERVICE_JOB_TIMEOUT_S, poll_s=SERVICE_POLL_S)
        text = client.result_text(job["id"]) if status["state"] == "done" else ""
        return status, text

    def run_pass(self, state: ServiceState) -> Outcome:
        out = Outcome()
        texts: Dict[str, str] = {}
        ids = out.job_ids
        t_pass = clock()
        broken = False
        for label, spec in service_jobs(state.seed):
            out.attempted += 1
            if broken:
                # The service stopped answering; do not wait out every job.
                out.fail(label, "not run: an earlier job errored")
                continue
            t0 = clock()
            try:
                status, text = self._job(state, spec)
            except Exception as exc:
                out.fail(label, f"{type(exc).__name__}: {exc}")
                broken = True
                continue
            out.op_s[label] = clock() - t0
            ids[label] = status["id"]
            if status["state"] != "done":
                out.fail(label, f"job ended {status['state']!r}")
                continue
            texts[label] = text
            out.outputs[label] = {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
        out.wall_s = clock() - t_pass
        self._check_envelopes(out, texts, ids)
        return out

    def _check_envelopes(self, out: Outcome, texts: Dict[str, str], ids: Dict[str, str]) -> None:
        from repro.harness.experiments import SweepResult

        if "fig11-dup" in texts:
            if ids.get("fig11-dup") != ids.get("fig11") or texts["fig11-dup"] != texts.get("fig11"):
                out.fail("fig11-dup", "duplicate submission was not deduplicated")
        if "chaos" in texts:
            records = json.loads(texts["chaos"])["records"]
            unexplained = [r["seed"] for r in records if not r["explained"]]
            if unexplained:
                out.fail("chaos", f"unexplained plan outcomes: {unexplained}")
        if not {"fig11", "fft-step3", "bitonic-step7"} <= set(texts):
            return
        fig11 = SweepResult.from_json(texts["fig11"])
        col = fig11.blocks.index(BLOCKS)
        totals = {s: series[col] for s, series in fig11.totals.items()}
        totals["null"] = fig11.nulls[col]
        broken = _fig11_order_ok(totals)
        if broken:
            out.fail("fig11", broken)
        errors = _micro_errors({s: totals[s] - totals["null"] for s in totals})
        for label, name in (("fft-step3", "fft"), ("bitonic-step7", "bitonic")):
            sweep = SweepResult.from_json(texts[label])
            col = sweep.blocks.index(BLOCKS)
            errors += _kernel_errors(
                name,
                sweep.nulls[col],
                sweep.totals["cpu-implicit"][col],
                sweep.totals["gpu-lockfree"][col],
            )
        out.paper_err_pp = sum(errors) / len(errors)

    def stop(self, state: ServiceState) -> Optional[Dict[str, Any]]:
        """Drain the service, stop the traced worker; returns its stats."""
        stats = None
        try:
            state.app.drain(grace_s=30.0)
        finally:
            if state.worker is not None:
                if state.worker.poll() is None:
                    state.worker.send_signal(signal.SIGTERM)
                try:
                    state.worker.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    state.worker.kill()
                    state.worker.wait()
                if state.worker_stats is not None and state.worker_stats.is_file():
                    stats = json.loads(state.worker_stats.read_text())
            shutil.rmtree(state.directory, ignore_errors=True)
        return stats

