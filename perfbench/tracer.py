"""Span tracing of the program's layers for the benchmark's traced run.

The benchmark never edits the program: :func:`install` wraps the public
entry points of each layer from the outside (class attributes and module
functions are swapped for timing wrappers) and the returned
:class:`Installation`'s ``undo`` puts the originals back.

Every wrapped call records a span ``(name, start, end, parent)`` on the
calling thread's stack.  Generator functions (the simulator's device
programs are generators driven by the event engine) are timed per
resume: each ``send``/``throw`` into the generator is one span, so a
block parked inside a barrier is not charged for the virtual time it
waits.  A span's self time is its duration minus the time its child
spans cover; children nest strictly inside their parent on one thread,
so the difference is exact in integer nanoseconds.

Aggregates are kept per *segment* (a label the caller switches, e.g.
one per service job) and per span name: calls, spans, inclusive time
(outermost span of a name only, so recursion is not double-counted)
and self time.  Retained spans are capped so that a long traced run
keeps bounded memory; aggregates cover every span.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: spans kept per thread for the written trace; aggregates see all.
MAX_KEPT_SPANS = 200_000


class _ThreadState:
    __slots__ = ("stack", "agg", "depth", "spans", "dropped", "negative", "name")

    def __init__(self, name: str):
        #: open frames: [name, start_ns, child_ns, outermost, kept_index]
        self.stack: List[list] = []
        #: (segment, name) -> [calls, spans, incl_ns, self_ns]
        self.agg: Dict[Tuple[str, str], List[int]] = {}
        self.depth: Dict[str, int] = {}
        #: kept spans: [name, start_ns, end_ns, parent_index]
        self.spans: List[list] = []
        self.dropped = 0
        #: spans whose children covered more than their own duration
        #: (impossible for strictly nested spans; reported, never hidden).
        self.negative = 0
        self.name = name


class Tracer:
    """Span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        #: (segment, counter name) -> value, for counts wrappers derive
        #: from return values (polls, cache hits, queue waits, ...).
        self.counters: Dict[Tuple[str, str], float] = {}
        self.segment = "main"

    # -- span bookkeeping ----------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def _open(self, st: _ThreadState, name: str) -> list:
        depth = st.depth.get(name, 0)
        st.depth[name] = depth + 1
        kept = None
        start = perf_counter_ns()
        if len(st.spans) < MAX_KEPT_SPANS:
            parent = st.stack[-1][4] if st.stack else -1
            kept = len(st.spans)
            st.spans.append([name, start, None, -1 if parent is None else parent])
        else:
            st.dropped += 1
        frame = [name, start, 0, depth == 0, kept]
        st.stack.append(frame)
        return frame

    def _close(self, st: _ThreadState, frame: list, calls: int = 0) -> None:
        end = perf_counter_ns()
        st.stack.pop()
        name = frame[0]
        st.depth[name] -= 1
        duration = end - frame[1]
        own = duration - frame[2]
        if own < 0:
            st.negative += 1
        if st.stack:
            st.stack[-1][2] += duration
        key = (self.segment, name)
        rec = st.agg.get(key)
        if rec is None:
            rec = st.agg[key] = [0, 0, 0, 0]
        rec[0] += calls
        rec[1] += 1
        if frame[3]:
            rec[2] += duration
        rec[3] += own
        if frame[4] is not None:
            st.spans[frame[4]][2] = end

    def count_call(self, name: str) -> None:
        st = self._state()
        key = (self.segment, name)
        rec = st.agg.get(key)
        if rec is None:
            rec = st.agg[key] = [0, 0, 0, 0]
        rec[0] += 1

    def add(self, counter: str, value: float = 1) -> None:
        """Add to a derived counter in the current segment."""
        with self._lock:
            key = (self.segment, counter)
            self.counters[key] = self.counters.get(key, 0) + value

    # -- wrappers ------------------------------------------------------------

    def wrap_function(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[["Tracer", Any, tuple], None]] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            st = tracer._state()
            frame = tracer._open(st, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(st, frame, calls=1)
            if on_result is not None:
                on_result(tracer, result, args)
            return result

        return wrapper

    def wrap_generator(
        self,
        name: str,
        fn: Callable,
        on_return: Optional[Callable[["Tracer", Any], None]] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.count_call(name)
            return tracer._drive(name, fn(*args, **kwargs), on_return)

        return wrapper

    def _drive(self, name: str, gen: Any, on_return: Optional[Callable]) -> Any:
        """Re-yield ``gen``'s items, timing each resume as one span."""
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            st = self._state()
            frame = self._open(st, name)
            try:
                if error is None:
                    item = gen.send(value)
                else:
                    pending, error = error, None
                    item = gen.throw(pending)
            except StopIteration as stop:
                self._close(st, frame)
                if on_return is not None:
                    on_return(self, stop.value)
                return stop.value
            except BaseException:
                self._close(st, frame)
                raise
            self._close(st, frame)
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the inner generator
                value, error = None, exc

    # -- results -------------------------------------------------------------

    def negative_self_spans(self) -> int:
        return sum(st.negative for st in self._states)

    def write(self, path: Path) -> None:
        """Write the kept spans (per thread) as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            doc = {
                "format": "perfbench-spans-1",
                "fields": ["name", "start_ns", "end_ns", "parent"],
                "threads": [
                    {"thread": st.name, "dropped": st.dropped, "spans": st.spans}
                    for st in self._states
                ],
            }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def stats(self) -> Dict[str, Any]:
        """Per-segment aggregates and counters as plain JSON data."""
        segments: Dict[str, Dict[str, Any]] = {}

        def segment(label: str) -> Dict[str, Any]:
            return segments.setdefault(label, {"spans": {}, "counters": {}})

        with self._lock:
            for st in self._states:
                for (label, name), rec in st.agg.items():
                    acc = segment(label)["spans"].setdefault(name, [0, 0, 0, 0])
                    for i, v in enumerate(rec):
                        acc[i] += v
            for (label, name), value in self.counters.items():
                counters = segment(label)["counters"]
                counters[name] = counters.get(name, 0) + value
        return {"segments": segments, "negative_self": self.negative_self_spans()}


def merge_stats(
    docs: List[Dict[str, Any]], keep: Callable[[str], bool]
) -> Tuple[Dict[str, List[int]], Dict[str, float], int]:
    """Sum :meth:`Tracer.stats` documents over the segments ``keep`` accepts.

    Returns ``(spans, counters, negative_self)`` where ``spans`` maps a
    span name to ``[calls, spans, incl_ns, self_ns]``.
    """
    spans: Dict[str, List[int]] = {}
    counters: Dict[str, float] = {}
    negative = 0
    for doc in docs:
        negative += doc["negative_self"]
        for label, seg in doc["segments"].items():
            if not keep(label):
                continue
            for name, rec in seg["spans"].items():
                acc = spans.setdefault(name, [0, 0, 0, 0])
                for i, v in enumerate(rec):
                    acc[i] += v
            for name, value in seg["counters"].items():
                counters[name] = counters.get(name, 0) + value
    return spans, counters, negative


# ---------------------------------------------------------------------------
# Layer wiring: which public entry points get which span names
# ---------------------------------------------------------------------------

#: BlockCtx device operations (all generator methods).
CTX_OPS = (
    "compute", "gread", "gwrite", "atomic_add", "spin_until",
    "sread", "swrite", "syncthreads",
)


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


class Installation:
    """The patches one :func:`install` applied, undone by :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr`` (class or module attribute)."""
        if attr in vars(owner):
            original = vars(owner)[attr]
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, replacement)

    def patch_item(self, mapping: Dict[str, Any], key: str, replacement: Any) -> None:
        """Replace one entry of a registry dict."""
        original = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = replacement

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _on_device_run(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.add("simcore.events", args[0].engine.events_dispatched)


def _on_spin(tracer: Tracer, polls: Any) -> None:
    tracer.add("gpu.spin_polls", polls)


def _on_cache_get(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.add("parallel.cache_hits", 1 if result[0] else 0)


def _on_submit(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.add("service.dedup_hits", 0 if result[1] else 1)


def _on_claim(tracer: Tracer, job: Any, args: tuple) -> None:
    if job is not None:
        # A claim starts the job's segment, so everything the worker does
        # for that job can be told apart (e.g. from the warm-up job).
        tracer.segment = job["id"]
        tracer.add("service.queue_wait_s", job["updated_at"] - job["submitted_at"])


def _wrap_work(tracer: Tracer, fn: Callable) -> Callable:
    """Time the closures an algorithm's ``round_work`` returns."""

    @functools.wraps(fn)
    def round_work(self: Any, *args: Any, **kwargs: Any) -> Any:
        work = fn(self, *args, **kwargs)
        if work is None:
            return None
        return tracer.wrap_function("algorithms.work", work)

    return round_work


def install(tracer: Tracer) -> Installation:
    """Wrap every layer's public entry points; returns the undo handle."""
    import repro.algorithms  # noqa: F401 - registers the algorithm classes
    import repro.harness.phases  # noqa: F401 - binds runner.run by name
    import repro.harness.runner as runner
    import repro.sync  # noqa: F401 - registers every strategy
    from repro.algorithms.base import RoundAlgorithm
    from repro.gpu.context import BlockCtx
    from repro.gpu.device import Device
    from repro.gpu.host import Host
    from repro.parallel import workers
    from repro.parallel.cache import ResultCache
    from repro.parallel.executor import Executor
    from repro.parallel.journal import RunJournal
    from repro.service.client import ServiceClient
    from repro.service.jobs import JobTable
    from repro.simcore.trace import Trace
    from repro.sync.base import SyncStrategy

    inst = Installation()
    fn_, gen_ = tracer.wrap_function, tracer.wrap_generator

    inst.patch(Device, "run", fn_("simcore.run", Device.run, _on_device_run))
    inst.patch(Trace, "add", fn_("simcore.trace.add", Trace.add))
    inst.patch(Trace, "total", fn_("simcore.trace.total", Trace.total))
    for op in CTX_OPS:
        on_return = _on_spin if op == "spin_until" else None
        inst.patch(BlockCtx, op, gen_(f"gpu.ctx.{op}", getattr(BlockCtx, op), on_return))
    inst.patch(Host, "launch", gen_("gpu.host.launch", Host.launch))
    inst.patch(Host, "synchronize", gen_("gpu.host.synchronize", Host.synchronize))
    for cls in _subclasses(SyncStrategy):
        if "barrier" in vars(cls):
            inst.patch(cls, "barrier", gen_("sync.barrier", vars(cls)["barrier"]))
    for cls in _subclasses(RoundAlgorithm):
        if "round_work" in vars(cls):
            inst.patch(cls, "round_work", _wrap_work(tracer, vars(cls)["round_work"]))
        if "verify" in vars(cls):
            inst.patch(cls, "verify", fn_("algorithms.verify", vars(cls)["verify"]))

    # runner.run is a module function that other modules import by name:
    # patch the defining module and every module that already bound it
    # (modules imported later bind the wrapper).
    original_run = runner.run
    traced_run = fn_("harness.runner", original_run)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            vars(module).get("run") is original_run
        ):
            inst.patch(module, "run", traced_run)

    inst.patch(Executor, "map", fn_("parallel.executor.map", Executor.map))
    inst.patch(ResultCache, "get", fn_("parallel.cache.get", ResultCache.get, _on_cache_get))
    inst.patch(ResultCache, "put", fn_("parallel.cache.put", ResultCache.put))
    inst.patch(RunJournal, "record", fn_("parallel.journal.record", RunJournal.record))
    for name, worker_fn in list(workers.WORKERS.items()):
        inst.patch_item(workers.WORKERS, name, fn_("parallel.worker", worker_fn))

    inst.patch(JobTable, "claim", fn_("service.jobs.claim", JobTable.claim, _on_claim))
    inst.patch(JobTable, "submit", fn_("service.jobs.submit", JobTable.submit, _on_submit))
    for method in ("submit", "status", "wait", "result_text"):
        inst.patch(
            ServiceClient,
            method,
            fn_(f"service.client.{method}", getattr(ServiceClient, method)),
        )
    return inst
