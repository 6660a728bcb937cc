"""Command-line entry point: ``python -m repro.harness <verb>``.

Every verb is one entry of :data:`VERBS`: its handler, the flags it
reads and a one-line help.  ``python -m repro.harness <verb> --help``
is the flag reference; a verb rejects (exit 2) any flag it does not
read.  ``all`` runs the paper's verbs (DESIGN.md §4) in table order.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.errors import InterruptedSweepError
from repro.faults.crashpoints import CRASH_ACTIONS
from repro.gpu.presets import get_preset, preset_names
from repro.harness import experiments, report
from repro.parallel import DEFAULT_CACHE_DIR, DEFAULT_JOURNAL_DIR, Executor, ResultCache

__all__ = ["main"]

#: the six device barriers: the paper's three plus the extension
#: barriers.  ``extensions`` compares them; ``sanitize --strategy all``
#: sweeps them.
DEVICE_BARRIERS = (
    "gpu-simple", "gpu-sense-reversal", "gpu-tree-2", "gpu-tree-3",
    "gpu-dissemination", "gpu-lockfree",
)

#: strategies ``chaos --strategy all`` sweeps: every device barrier that
#: can degrade to the host-side fallback, plus the fallback itself so
#: the host path's fault handling is exercised directly.
CHAOS_ALL = ("gpu-simple", "gpu-tree-2", "gpu-lockfree", "cpu-implicit")

# -- flags --------------------------------------------------------------------

#: every flag (and positional) any verb reads, by name.
FLAGS: Dict[str, dict] = {
    "--preset": dict(
        default="gtx280", help="device preset (default gtx280, the paper's card)"
    ),
    "--jobs": dict(
        type=int, default=1, help="worker processes (default 1: serial, in-process)"
    ),
    "--cache": dict(
        action=argparse.BooleanOptionalAction,
        default=False,
        help="memoize runs in the content-addressed result cache",
    ),
    "--cache-dir": dict(help="cache location (default benchmarks/out/cache)"),
    "--journal": dict(
        action=argparse.BooleanOptionalAction,
        default=False,
        help="journal every completed cell so an interrupted run can resume",
    ),
    "--journal-dir": dict(help="journal location (default benchmarks/out/journal)"),
    "--resume": dict(
        nargs="?",
        const="auto",
        metavar="RUN_ID",
        help="replay a journaled run and execute only the remainder (implies "
        "--journal); no RUN_ID resumes whatever journal matches each batch",
    ),
    "--rounds": dict(type=int, default=200, help="rounds (paper: 10000; default 200)"),
    "--plot": dict(action="store_true", help="add ASCII charts of the sweeps"),
    "--save-sweeps": dict(metavar="DIR", help="persist the sweeps as JSON + CSV"),
    "--algorithms": dict(
        nargs="+",
        default=["fft", "swat", "bitonic"],
        choices=["fft", "swat", "bitonic"],
    ),
    "--step": dict(type=int, default=3, help="block-count step (paper: 1; default 3)"),
    "--strategy": dict(
        default="gpu-lockfree",
        help="barrier strategy (sanitize and chaos also accept 'all')",
    ),
    "--blocks": dict(type=int, default=8, help="grid size (default 8)"),
    "--seed": dict(type=int, help="base seed (default: the sanitizer's)"),
    "--format": dict(choices=["text", "json"], default="text"),
    "--strict": dict(
        action="store_true",
        help="exit 1 on any finding (lint) or a suboptimal strategy (tune)",
    ),
    "--out": dict(default="trace.json", help="Chrome-tracing JSON path"),
    "--report-out": dict(default="report.md", help="Markdown report path"),
    "--baseline": dict(required=True, help="the blessed sweep JSON"),
    "--current": dict(required=True, help="the sweep JSON to compare"),
    "--rel-tol": dict(type=float, default=0.0, help="relative drift tolerance"),
    "--schedules": dict(type=int, default=25, help="fuzzed schedules per strategy"),
    "--plans": dict(type=int, default=50, help="seeded fault plans per strategy"),
    "action": dict(nargs="?", choices=("stats", "clear"), default="stats"),
    "paths": dict(
        nargs="*",
        default=["src/repro", "examples"],
        metavar="PATH",
        help="files/directories to analyze (default: src/repro examples)",
    ),
    "--fix": dict(action="store_true", help="apply every machine-applicable repair"),
    "--diff": dict(action="store_true", help="--fix dry run: print a unified diff"),
    "--check": dict(
        action="store_true", help="--fix dry run: exit 1 when any repair is pending"
    ),
    "--compute-ns": dict(
        type=float, default=5_000.0, help="per-round compute time in ns (default 5000)"
    ),
    "--measure": dict(
        action="store_true", help="validate the model against a measured sweep"
    ),
    "--host": dict(default="127.0.0.1", help="bind address"),
    "--port": dict(type=int, default=8642, help="bind port (0 picks a free port)"),
    "--service-dir": dict(help="service root (default benchmarks/out/service)"),
    "--workers": dict(
        type=int, default=1, help="worker processes (0 = external workers)"
    ),
    "--lease-s": dict(type=float, default=30.0, help="worker lease in seconds"),
    "--retry-budget": dict(
        type=int, default=2, help="lease-expiry re-executions before failing a job"
    ),
    "--max-queued": dict(
        type=int, default=256, help="queue bound; a full queue answers 429"
    ),
    "--budget-s": dict(
        type=float, default=900.0, help="wall-clock budget; later scenarios fail"
    ),
    "--crash-lease-s": dict(
        type=float, default=1.0, help="worker lease duration (default 1.0)"
    ),
    "--skew-s": dict(
        type=float, default=0.6, help="clock skew of the skewed-host configs"
    ),
    "--crash-points": dict(
        nargs="+", metavar="POINT", help="only these crash points (default: all)"
    ),
    "--crash-actions": dict(
        nargs="+",
        choices=sorted(CRASH_ACTIONS),
        metavar="ACTION",
        help=f"only these actions ({', '.join(sorted(CRASH_ACTIONS))})",
    ),
}

#: named flag groups; a verb's ``reads`` names groups, single flags,
#: or a tuple of mutually exclusive flags.
GROUPS: Dict[str, Tuple[str, ...]] = {
    "preset": ("--preset",),
    "execution": (
        "--jobs", "--cache", "--cache-dir", "--journal", "--journal-dir",
        "--resume",
    ),
    "rounds": ("--rounds",),
    "figure": ("--plot", "--save-sweeps"),
    "sweep": ("--algorithms", "--step"),
    "target": ("--strategy", "--blocks"),
    "seed": ("--seed",),
    "format": ("--format", "--strict"),
}


# -- shared setup ---------------------------------------------------------------


class Context:
    """Setup the verbs of one invocation share, built once.

    ``config`` is the preset's device; ``pinned_blocks`` is the
    paper's 30-block grid (its GTX 280's SM count) clamped to the
    preset's co-residency limit — the identity on ``gtx280``, which
    keeps output and cache keys byte-identical to the paper's card.
    ``executor``/``cache`` exist only for verbs that take execution
    flags and ask for sharding, caching or journaling.
    """

    def __init__(self, args: argparse.Namespace, execution: bool) -> None:
        self.config = get_preset(getattr(args, "preset", "gtx280"))
        self.limit = self.config.topology.max_co_resident_blocks(self.config)
        self.pinned_blocks = min(30, self.limit)
        self.cache: Optional[ResultCache] = None
        self.executor: Optional[Executor] = None
        if not execution:
            return
        if args.cache:
            self.cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
        journal_dir = None
        if args.journal or args.resume is not None:
            journal_dir = args.journal_dir or DEFAULT_JOURNAL_DIR
        if args.jobs > 1 or self.cache is not None or journal_dir is not None:
            self.executor = Executor(
                args.jobs, cache=self.cache, journal_dir=journal_dir
            )


def _per_batch_resume(resume: Optional[str], batches: int) -> Optional[str]:
    """An explicit run-id can only match one batch; multi-batch
    experiments resume each batch from its own journal (``"auto"``)."""
    if resume is None or batches == 1:
        return resume
    return "auto"


# -- verb handlers: (args, ctx) -> (text, exit code) --------------------------


def _show_sweep(args, sweep, table: str, stem: str, sync: bool, title: str):
    """Persist a sweep under ``--save-sweeps`` and append its ``--plot``."""
    if args.save_sweeps is not None:
        from pathlib import Path

        from repro.harness.store import save_sweep

        out = Path(args.save_sweeps)
        out.mkdir(parents=True, exist_ok=True)
        save_sweep(sweep, out / f"{stem}.json")
        (out / f"{stem}.csv").write_text(sweep.to_csv())
        (out / f"{stem}_sync.csv").write_text(sweep.to_csv(sync=True))
    if not args.plot:
        return table
    from repro.harness.plot import plot_sweep

    return f"{table}\n\n{plot_sweep(sweep, sync=sync, title=title)}"


def _pinned(run: Callable, render: Callable):
    """A verb that renders ``run`` on the paper's (clamped) 30-block grid."""

    def handler(args, ctx):
        result = run(
            config=ctx.config,
            num_blocks=ctx.pinned_blocks,
            executor=ctx.executor,
            resume=args.resume,
        )
        return render(result), 0

    return handler


def _fig11(args, ctx):
    sweep = experiments.fig11(
        config=ctx.config, rounds=args.rounds, executor=ctx.executor, resume=args.resume
    )
    table = report.render_sweep_totals(
        sweep, f"Fig. 11 (micro-benchmark, {args.rounds} rounds)"
    )
    return _show_sweep(args, sweep, table, "fig11", True, "Fig. 11 sync time"), 0


def _fig13_14(args, ctx, sync: bool):
    chunks: List[str] = []
    resume = _per_batch_resume(args.resume, len(args.algorithms))
    fig, stem = ("Fig. 14", "fig14") if sync else ("Fig. 13", "fig13")
    render = report.render_sweep_sync if sync else report.render_sweep_totals
    for algo in args.algorithms:
        sweep = experiments.algorithm_sweep(
            algo,
            config=ctx.config,
            step=args.step,
            executor=ctx.executor,
            resume=resume,
        )
        title = f"{fig} ({algo})"
        table = render(sweep, title)
        chunks.append(_show_sweep(args, sweep, table, f"{stem}_{algo}", sync, title))
    return "\n\n".join(chunks), 0


def _models(args, ctx):
    blocks = [n for n in (1, 2, 4, 8, 16, 24, 30) if n <= ctx.limit]
    validation = experiments.model_validation(
        config=ctx.config, blocks=blocks, executor=ctx.executor
    )
    return report.render_model_validation(validation), 0


def _extensions(args, ctx):
    """Compare all six device barriers on the micro-benchmark."""
    rounds, blocks = min(args.rounds, 200), ctx.pinned_blocks
    _, sync = experiments.probe_sync_ns(
        DEVICE_BARRIERS, blocks, rounds, ctx.config, executor=ctx.executor
    )
    rows = sorted(sync.items(), key=lambda r: r[1])
    return report.format_table(
        ["barrier", "per-round cost (µs)"],
        [[name, f"{ns / rounds / 1e3:.2f}"] for name, ns in rows],
        title=f"Extension barriers — micro, {blocks} blocks",
    ), 0


def _composition(args, ctx):
    from repro.harness.tracestats import composition_study, render_composition

    study = composition_study(num_blocks=ctx.pinned_blocks, config=ctx.config)
    return render_composition(study), 0


def _trace(args, ctx):
    """Run one configuration and dump a Chrome-tracing JSON."""
    from repro.algorithms import FFT
    from repro.harness.runner import run
    from repro.harness.traceview import write_chrome_trace

    result = run(
        FFT(n=2**10), args.strategy, args.blocks, config=ctx.config, keep_device=True
    )
    path = write_chrome_trace(result.device.trace, args.out)
    return (
        f"ran fft (n=1024) under {args.strategy} on {args.blocks} blocks: "
        f"{result.total_ms:.3f} ms, verified={result.verified}\n"
        f"wrote {len(result.device.trace)} spans to {path} "
        "(open in chrome://tracing or ui.perfetto.dev)"
    ), 0


def _report(args, ctx):
    from repro.harness.paperreport import generate_report

    path = generate_report(args.report_out, config=ctx.config, micro_rounds=args.rounds)
    return f"wrote reproduction report to {path}", 0


def _diff(args, ctx):
    from repro.harness.regression import compare_sweeps
    from repro.harness.store import load_sweep

    drifts = compare_sweeps(
        load_sweep(args.baseline), load_sweep(args.current), args.rel_tol
    )
    if not drifts:
        return "no drift: sweeps are identical within tolerance", 0
    lines = "\n".join(f"  {d}" for d in drifts)
    return f"{len(drifts)} drifted point(s):\n{lines}", 1


def _campaign(args, ctx, everything: Tuple[str, ...], run_one: Callable):
    """Run ``run_one`` per strategy (``--strategy all``: ``everything``).

    Exits 1 when any report is not clean.
    """
    from repro.errors import ConfigError
    from repro.sanitize import DEFAULT_SEED

    strategies = everything if args.strategy == "all" else [args.strategy]
    common = dict(
        seed=DEFAULT_SEED if args.seed is None else args.seed,
        num_blocks=args.blocks,
        config=ctx.config,
        executor=ctx.executor,
        resume=_per_batch_resume(args.resume, len(strategies)),
    )
    try:
        reports = [run_one(strat, **common) for strat in strategies]
    except (ConfigError, ValueError) as exc:
        raise SystemExit(f"{args.verb}: {exc}")
    text = "\n\n".join(rep.render() for rep in reports)
    return text, int(not all(rep.clean for rep in reports))


def _sanitize(args, ctx):
    from repro.sanitize import sanitize_run

    def run_one(strat, **kwargs):
        return sanitize_run(strategy=strat, schedules=args.schedules, **kwargs)

    return _campaign(args, ctx, DEVICE_BARRIERS, run_one)


def _chaos(args, ctx):
    from repro.faults import chaos_campaign

    return _campaign(args, ctx, CHAOS_ALL, partial(chaos_campaign, plans=args.plans))


def _cache(args, ctx):
    store = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    if args.action == "stats":
        return store.stats().render(), 0
    removed = store.clear()
    noun = "entry" if removed == 1 else "entries"
    return f"cleared {removed} {noun} from {store.root}", 0


def _lint(args, ctx):
    """Lint (or, with ``--fix``, repair) the given paths."""
    from repro.staticcheck import LintError, lint_paths, sm_limit_for_preset

    try:
        if args.fix:
            return _lint_fix(args, sm_limit_for_preset(args.preset))
        rep = lint_paths(args.paths, sm_limit=sm_limit_for_preset(args.preset))
    except LintError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return "", 2
    text = rep.to_json() if args.format == "json" else rep.render()
    return text, rep.exit_code(strict=args.strict)


def _lint_fix(args, sm_limit: int):
    """``--fix`` rewrites files in place; ``--diff`` and ``--check`` are
    dry runs (print the unified diff / gate on pending repairs)."""
    from repro.staticcheck.repair import fix_paths

    write = not (args.diff or args.check)
    results = fix_paths(args.paths, sm_limit=sm_limit, write=write)
    changed = [r for r in results if r.changed]
    applied = sum(len(r.applied) for r in results)
    remaining = sum(len(r.remaining) for r in results)
    if args.format == "json":
        from repro.serialization import dump_result

        text = dump_result(
            "fix-report",
            {
                "files_checked": len(results),
                "files_changed": len(changed),
                "fixes_applied": applied,
                "findings_remaining": remaining,
                "written": write,
                "results": [
                    r.to_dict() for r in results if r.changed or r.remaining
                ],
            },
        )
    elif args.diff:
        text = "".join(r.diff() for r in changed) or "lint --fix: nothing to repair"
    else:
        verb = "fixed" if write else "would fix"
        lines = [
            f"lint --fix: {len(results)} file(s) checked, "
            f"{verb} {applied} finding(s) in {len(changed)} file(s), "
            f"{remaining} finding(s) not auto-fixable"
        ]
        for r in changed:
            lines.append(f"  {r.path}:")
            lines.extend(f"    {a.render()}" for a in r.applied)
        text = "\n".join(lines)
    return text, int(bool(args.check and changed))


def _tune(args, ctx):
    from repro.errors import ConfigError
    from repro.model.tune import tune_workload

    try:
        rep = tune_workload(
            args.rounds,
            args.compute_ns,
            args.blocks,
            args.strategy,
            args.preset,
            measure=args.measure,
            executor=ctx.executor,
        )
    except ConfigError as exc:
        raise SystemExit(f"tune: {exc}")
    text = rep.to_json() if args.format == "json" else rep.render()
    return text, rep.exit_code(strict=args.strict)


def _serve(args, ctx):
    from pathlib import Path

    from repro.service.app import serve

    return "", serve(
        Path(args.service_dir or "benchmarks/out/service"),
        host=args.host,
        port=args.port,
        workers=args.workers,
        lease_s=args.lease_s,
        retry_budget=args.retry_budget,
        max_queued=args.max_queued,
        worker_jobs=args.jobs,
        use_cache=args.cache,
    )


def _crashtest(args, ctx):
    from repro.faults.crashtest import crash_campaign

    rep = crash_campaign(
        points=args.crash_points,
        actions=args.crash_actions,
        budget_s=args.budget_s,
        lease_s=args.crash_lease_s,
        skew_s=args.skew_s,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    return rep.render(), int(not rep.ok)


def _all(args, ctx):
    # 'all' runs many batches; each resumes from its own journal.
    args.resume = _per_batch_resume(args.resume, len(PAPER_VERBS))
    results = [VERBS[name].handler(args, ctx) for name in PAPER_VERBS]
    return "\n\n".join(t for t, _ in results), max(c for _, c in results)


# -- the verb table -------------------------------------------------------------


class Verb(NamedTuple):
    handler: Callable[[argparse.Namespace, Context], Tuple[str, int]]
    #: flag groups, flags, or tuples of mutually exclusive flags.
    reads: Tuple[Union[str, Tuple[str, ...]], ...]
    help: str
    #: part of the paper's evaluation (run by ``all``, in table order).
    paper: bool = False


#: what every verb that runs batches on a device reads.
_BATCH = ("preset", "execution")
_SERVICE = (
    "--host", "--port", "--service-dir", "--workers", "--lease-s",
    "--retry-budget", "--max-queued", "--jobs", "--cache",
)
_CRASH = (
    "--budget-s", "--crash-lease-s", "--skew-s", "--crash-points",
    "--crash-actions",
)

VERBS: Dict[str, Verb] = {
    "table1": Verb(
        _pinned(experiments.table1, report.render_table1), _BATCH,
        "Table 1: share of time spent on inter-block communication", paper=True,
    ),
    "fig11": Verb(
        _fig11, _BATCH + ("rounds", "figure"),
        "Fig. 11: micro-benchmark time vs blocks, all strategies", paper=True,
    ),
    "fig13": Verb(
        partial(_fig13_14, sync=False), _BATCH + ("sweep", "figure"),
        "Fig. 13a-c: kernel time vs blocks for fft/swat/bitonic", paper=True,
    ),
    "fig14": Verb(
        partial(_fig13_14, sync=True), _BATCH + ("sweep", "figure"),
        "Fig. 14a-c: synchronization time vs blocks", paper=True,
    ),
    "fig15": Verb(
        _pinned(experiments.fig15, report.render_fig15), _BATCH,
        "Fig. 15: compute/sync percentage breakdown", paper=True,
    ),
    "headline": Verb(
        _pinned(experiments.headline, report.render_headline), _BATCH,
        "the abstract's speedup numbers", paper=True,
    ),
    "models": Verb(
        _models, _BATCH, "barrier cost: measured vs Eqs. 6/7/9", paper=True
    ),
    "extensions": Verb(
        _extensions, _BATCH + ("rounds",),
        "all six device barriers (paper + extensions) on the micro-benchmark",
        paper=True,
    ),
    "composition": Verb(
        _composition, ("preset",),
        "Figs. 7/10: barrier time composition from per-primitive spans",
        paper=True,
    ),
    "trace": Verb(
        _trace, ("preset", "target", "--out"),
        "run one configuration and write a Chrome-tracing JSON of its spans",
    ),
    "report": Verb(
        _report, ("preset", "rounds", "--report-out"),
        "write the Markdown reproduction report with PASS/FAIL claims",
    ),
    "diff": Verb(
        _diff, ("--baseline", "--current", "--rel-tol"),
        "compare two saved sweeps; exits 1 on drift",
    ),
    "sanitize": Verb(
        _sanitize, _BATCH + ("target", "seed", "--schedules"),
        "replay under fuzzed schedules and report barrier/race findings "
        "(docs/sanitizer.md); exits 1 on any finding",
    ),
    "chaos": Verb(
        _chaos, _BATCH + ("target", "seed", "--plans"),
        "run seeded fault plans under the resilient runtime "
        "(docs/faults.md); exits 1 on any unexplained fate",
    ),
    "cache": Verb(
        _cache, ("action", "--cache-dir"),
        "inspect or empty the content-addressed result cache",
    ),
    "lint": Verb(
        _lint, ("paths", "preset", "format", "--fix", ("--diff", "--check")),
        "static barrier-protocol analysis and repair (docs/staticcheck.md); "
        "exits 1 on findings, 2 on unreadable input",
    ),
    "tune": Verb(
        _tune,
        _BATCH + ("rounds", "target", "format", "--compute-ns", "--measure"),
        "cost-model-backed strategy advice (docs/tuning.md)",
    ),
    "serve": Verb(
        _serve, _SERVICE, "run the crash-safe sweep service (docs/service.md)"
    ),
    "crashtest": Verb(
        _crashtest, _CRASH,
        "run the service crash matrix (docs/crashtest.md); exits 1 unless "
        "every scenario passed",
    ),
}

PAPER_VERBS = tuple(name for name, verb in VERBS.items() if verb.paper)
VERBS["all"] = Verb(
    _all,
    tuple(dict.fromkeys(r for n in PAPER_VERBS for r in VERBS[n].reads)),
    f"every paper verb in order ({', '.join(PAPER_VERBS)}); slow",
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description=(
            "Reproduce the tables and figures of 'Inter-Block GPU "
            "Communication via Fast Barrier Synchronization' (IPDPS 2010) "
            "on a simulated device. '<verb> --help' lists the flags a "
            "verb reads; any other flag exits 2."
        ),
    )
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    for name, verb in VERBS.items():
        sub = verbs.add_parser(name, help=verb.help, description=verb.help)
        for item in verb.reads:
            if isinstance(item, str):
                _add_flags(sub, GROUPS.get(item, (item,)))
            else:
                _add_flags(sub.add_mutually_exclusive_group(), item)
    return parser


def _add_flags(target, names) -> None:
    for flag in names:
        # presets registered at runtime are valid choices too
        live = {"choices": preset_names()} if flag == "--preset" else {}
        target.add_argument(flag, **FLAGS[flag], **live)


def _epilogue(want: str, started: float, cache=None) -> None:
    """Timing (and, when caching, hit-rate) summary on stderr."""
    if cache is not None:
        looked = cache.hits + cache.misses
        rate = 100.0 * cache.hits / looked if looked else 0.0
        print(
            f"\n[cache: {cache.hits} hit(s), {cache.misses} miss(es), "
            f"hit-rate {rate:.1f}%]",
            file=sys.stderr,
        )
    print(f"\n[{want} completed in {time.time() - started:.1f}s]", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and run; exits 130 on a resumable interrupt."""
    try:
        return _main(argv)
    except InterruptedSweepError as exc:
        print(f"\ninterrupted: {exc}", file=sys.stderr)
        print(f"resume with: --resume {exc.run_id}", file=sys.stderr)
        return 130


def _main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.verb == "lint" and (args.diff or args.check) and not args.fix:
        parser.error("--diff and --check require --fix")
    started = time.time()
    verb = VERBS[args.verb]
    ctx = Context(args, execution="execution" in verb.reads)
    text, code = verb.handler(args, ctx)
    if text:
        print(text)
    _epilogue(args.verb, started, ctx.cache)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
