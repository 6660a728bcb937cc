"""Sweep-service recovery overhead — what one crashed attempt costs.

Measures the same job twice through a real :class:`JobTable` and
in-process :class:`Worker`:

* **undisturbed** — submit, claim, execute, complete;
* **recovered** — submit, let a ghost owner claim the lease and die
  (never heartbeats, never completes), wait out the lease, reap, then
  execute the requeued attempt.

The difference is the recovery tax the crash matrix
(``repro crashtest``, docs/crashtest.md) proves correct but does not
price: lease expiry plus a reaper sweep plus the journal-replaying
re-execution.  Persisted as schema-versioned
``benchmarks/out/BENCH_service.json`` for CI's ``service-chaos`` job.
"""

import time
from pathlib import Path

from benchmarks.conftest import OUT_DIR
from repro.serialization import dump_result
from repro.service.jobs import JobTable, job_id_for
from repro.service.runners import validate_spec
from repro.service.worker import Worker

SPEC = {"experiment": "fig11", "params": {"rounds": 3}}
LEASE_S = 0.3


def _table(service_dir: Path) -> JobTable:
    return JobTable(
        service_dir / "jobs.sqlite3",
        lease_s=LEASE_S,
        retry_budget=3,
        backoff_base_s=0.05,
        backoff_cap_s=0.2,
    )


def _run_job(service_dir: Path, *, crash_first_attempt: bool) -> dict:
    """Submit one job and drive it to ``done``; returns the final row
    plus the measured submit→done latency."""
    spec = validate_spec(SPEC)
    job_id = job_id_for(spec)
    table = _table(service_dir)
    worker = Worker(
        table,
        service_dir=service_dir,
        owner="worker-1@bench",
        poll_s=0.01,
    )
    started = time.perf_counter()
    table.submit(spec)
    if crash_first_attempt:
        # A ghost host wins the lease and dies without a trace: no
        # heartbeat, no complete.  Production recovery is the lease
        # expiring plus a reaper sweep; the requeued attempt then pays
        # the (journal-replaying) re-execution.
        ghost = table.claim("worker-99999@ghost-host")
        assert ghost is not None and ghost["id"] == job_id
        deadline = time.perf_counter() + 30.0
        while job_id not in table.requeue_expired()[0]:
            if time.perf_counter() > deadline:
                raise AssertionError("orphaned lease never expired")
            time.sleep(0.02)
    # A requeued job carries a retry backoff before it is claimable
    # again — poll, like a real worker loop would.
    deadline = time.perf_counter() + 30.0
    while not worker.run_once():
        if time.perf_counter() > deadline:
            raise AssertionError("worker never claimed the job")
        time.sleep(0.01)
    seconds = time.perf_counter() - started
    job = table.get(job_id)
    assert job is not None
    job["seconds"] = seconds
    return job


def test_recovery_overhead(benchmark, tmp_path):
    """Requeued-attempt latency vs. undisturbed, same job, same table."""

    def measure():
        undisturbed = _run_job(
            tmp_path / "undisturbed", crash_first_attempt=False
        )
        recovered = _run_job(tmp_path / "recovered", crash_first_attempt=True)
        return undisturbed, recovered

    undisturbed, recovered = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    for job, attempts in ((undisturbed, 1), (recovered, 2)):
        assert job["state"] == "done"
        assert job["attempts"] == attempts
        assert job["completions"] == 1
        assert str(job["completed_by"]).endswith("@bench")
    # Recovery must change the price, never the bytes.
    assert recovered["result"] == undisturbed["result"]
    overhead = recovered["seconds"] - undisturbed["seconds"]
    assert overhead > 0.0  # at minimum the lease had to run out

    workloads = {
        "undisturbed": {
            "seconds": round(undisturbed["seconds"], 6),
            "attempts": undisturbed["attempts"],
        },
        "recovered": {
            "seconds": round(recovered["seconds"], 6),
            "attempts": recovered["attempts"],
            "lease_s": LEASE_S,
            "overhead_seconds": round(overhead, 6),
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_service.json"
    path.write_text(
        dump_result("bench", {"bench": "service", "workloads": workloads}) + "\n"
    )
