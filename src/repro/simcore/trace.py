"""Span tracing for phase accounting.

The harness reproduces the paper's §7.3 methodology (synchronization time
= total kernel time − computation-only time), which needs only per-phase
totals.  Every :class:`Trace` keeps those as running sums.  A trace may
also keep the *spans* themselves — ``(owner, phase, start, end)``
intervals — so breakdowns (Fig. 15 / Table 1) can be cross-checked
structurally and tests can assert ordering invariants ("no block enters
round i+1 before every block left round i").  Spans cost an object per
interval, so a trace keeps them only when asked to (``keep_spans``); a
totals-only trace refuses every span query with
:class:`~repro.errors.SpansNotKeptError`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import SpansNotKeptError

__all__ = ["Span", "Trace"]


@dataclass(frozen=True, slots=True)
class Span:
    """One traced interval of virtual time."""

    owner: str  #: e.g. "block3", "host", "sm0"
    phase: str  #: e.g. "compute", "sync", "launch", "atomic"
    start: int  #: ns
    end: int  #: ns
    meta: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> int:
        """Span length in nanoseconds."""
        return self.end - self.start

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"span ends before it starts: {self}")


class Trace:
    """Running per-phase totals, plus the spans themselves if kept.

    ``keep_spans=False`` makes a totals-only trace: :meth:`add` updates
    one sum per phase, and :meth:`total` (without ``owner``),
    :meth:`by_phase` and :meth:`phases` answer from those sums.  Queries
    that need individual spans raise
    :class:`~repro.errors.SpansNotKeptError` instead of answering from
    an empty list.
    """

    def __init__(self, *, keep_spans: bool = True) -> None:
        #: phase -> summed duration (ns), in first-appearance order.
        self._totals: Dict[str, int] = {}
        self._spans: Optional[List[Span]] = [] if keep_spans else None

    @property
    def keep_spans(self) -> bool:
        """True when this trace retains individual spans."""
        return self._spans is not None

    def add(
        self,
        owner: str,
        phase: str,
        start: int,
        end: int,
        **meta: Any,
    ) -> Optional[Span]:
        """Record an interval; returns its span, or None if spans are off."""
        spans = self._spans
        if spans is None:
            if end < start:
                raise ValueError(
                    f"span ends before it starts: {owner} {phase} [{start}, {end}]"
                )
            span = None
        else:
            span = Span(owner, phase, start, end, meta or None)  # validates
            spans.append(span)
        totals = self._totals
        totals[phase] = totals.get(phase, 0) + end - start
        return span

    def _kept(self) -> List[Span]:
        """The retained spans; refuses on a totals-only trace."""
        if self._spans is None:
            raise SpansNotKeptError(
                "this trace keeps per-phase totals only; span queries need "
                "a run with keep_device=True (repro.run(trace=True))"
            )
        return self._spans

    def __iter__(self) -> Iterator[Span]:
        return iter(self._kept())

    def __len__(self) -> int:
        return len(self._kept())

    def spans(
        self, phase: Optional[str] = None, owner: Optional[str] = None
    ) -> List[Span]:
        """Spans filtered by phase and/or owner."""
        out = self._kept()
        if phase is not None:
            out = [s for s in out if s.phase == phase]
        if owner is not None:
            out = [s for s in out if s.owner == owner]
        return list(out)

    def total(self, phase: Optional[str] = None, owner: Optional[str] = None) -> int:
        """Summed duration of ``phase`` (all phases if None), in ns.

        Filtering by ``owner`` needs the spans themselves.
        """
        if owner is not None:
            return sum(s.duration for s in self.spans(phase, owner))
        if phase is None:
            return sum(self._totals.values())
        return self._totals.get(phase, 0)

    def phases(self) -> List[str]:
        """Distinct phase names in first-appearance order."""
        return list(self._totals)

    def by_phase(self) -> Dict[str, int]:
        """Total duration per phase (ns)."""
        return dict(self._totals)

    def merge(self, others: Iterable["Trace"]) -> "Trace":
        """Return a new trace combining this trace with ``others``.

        Spans are merged (sorted by start) only when every input kept
        them; otherwise the result is totals-only, with summed totals.
        """
        traces = [self, *others]
        if all(t.keep_spans for t in traces):
            spans = sorted(
                (s for t in traces for s in t._kept()), key=lambda s: (s.start, s.end)
            )
            merged = Trace()
            merged._spans = spans
            totals = merged._totals
            for s in spans:
                totals[s.phase] = totals.get(s.phase, 0) + s.duration
            return merged
        merged = Trace(keep_spans=False)
        totals = merged._totals
        for t in traces:
            for phase, ns in t._totals.items():
                totals[phase] = totals.get(phase, 0) + ns
        return merged

    def clear(self) -> None:
        """Drop all recorded spans and totals."""
        self._totals.clear()
        if self._spans is not None:
            self._spans.clear()

    # -- canonical export (golden digests) ---------------------------------

    def to_tuples(self) -> List[Tuple[Any, ...]]:
        """Spans as plain tuples in recording order.

        ``(owner, phase, start, end, sorted_meta_items)`` — a canonical,
        order-preserving form two traces can be compared on directly.
        The engine golden digests (``tests/simcore/test_engine_golden.py``)
        hash exactly this.
        """
        return [
            (
                s.owner,
                s.phase,
                s.start,
                s.end,
                tuple(sorted(s.meta.items())) if s.meta else (),
            )
            for s in self._kept()
        ]

    def digest(self) -> str:
        """SHA-256 over the canonical span tuples (event-trace fingerprint)."""
        payload = json.dumps(
            self.to_tuples(), separators=(",", ":"), sort_keys=False, default=str
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
