"""Unit tests for span tracing."""

import pytest

from repro.errors import SpansNotKeptError
from repro.simcore import Span, Trace


def test_span_duration():
    assert Span("b0", "compute", 10, 25).duration == 15


def test_span_rejects_negative_duration():
    with pytest.raises(ValueError):
        Span("b0", "compute", 10, 5)


def test_trace_add_and_filter():
    tr = Trace()
    tr.add("b0", "compute", 0, 10)
    tr.add("b0", "sync", 10, 14)
    tr.add("b1", "compute", 0, 12)
    assert len(tr) == 3
    assert tr.total("compute") == 22
    assert tr.total("compute", owner="b0") == 10
    assert tr.total("sync") == 4
    assert tr.total() == 26


def test_trace_phases_in_first_appearance_order():
    tr = Trace()
    tr.add("a", "launch", 0, 1)
    tr.add("a", "compute", 1, 2)
    tr.add("b", "launch", 0, 1)
    assert tr.phases() == ["launch", "compute"]


def test_trace_by_phase_totals():
    tr = Trace()
    tr.add("a", "x", 0, 5)
    tr.add("b", "x", 0, 5)
    tr.add("a", "y", 5, 6)
    assert tr.by_phase() == {"x": 10, "y": 1}


def test_trace_meta_is_preserved():
    tr = Trace()
    span = tr.add("b0", "sync", 0, 3, round=7)
    assert span.meta == {"round": 7}
    assert tr.spans("sync")[0].meta == {"round": 7}


def test_trace_merge_sorts_by_start():
    a, b = Trace(), Trace()
    a.add("a", "x", 10, 20)
    b.add("b", "x", 0, 5)
    merged = a.merge([b])
    assert [s.owner for s in merged] == ["b", "a"]
    assert len(a) == 1 and len(b) == 1  # originals untouched


def test_trace_clear():
    tr = Trace()
    tr.add("a", "x", 0, 1)
    tr.clear()
    assert len(tr) == 0
    assert tr.total() == 0


# -- running totals and span retention ----------------------------------------


def _spans_off():
    tr = Trace(keep_spans=False)
    tr.add("b0", "compute", 0, 10, round=0)
    tr.add("b0", "sync", 10, 14)
    tr.add("b1", "compute", 0, 12)
    return tr


def test_totals_only_trace_answers_phase_queries():
    tr = _spans_off()
    assert not tr.keep_spans
    assert tr.total("compute") == 22
    assert tr.total("sync") == 4
    assert tr.total("launch") == 0
    assert tr.total() == 26
    assert tr.by_phase() == {"compute": 22, "sync": 4}
    assert tr.phases() == ["compute", "sync"]


def test_totals_only_add_returns_no_span():
    assert Trace(keep_spans=False).add("b0", "compute", 0, 1) is None


def test_running_totals_match_spans():
    tr = Trace()
    tr.add("a", "y", 0, 3)
    tr.add("a", "x", 3, 3)  # a zero-length span still names its phase
    tr.add("b", "y", 1, 2)
    sums = {}
    for s in tr:
        sums[s.phase] = sums.get(s.phase, 0) + s.duration
    assert tr.by_phase() == sums == {"y": 4, "x": 0}
    assert tr.phases() == ["y", "x"]


def test_by_phase_returns_a_copy():
    tr = _spans_off()
    tr.by_phase()["compute"] = 0
    assert tr.total("compute") == 22


@pytest.mark.parametrize("keep_spans", [True, False])
def test_clear_resets_totals(keep_spans):
    tr = Trace(keep_spans=keep_spans)
    tr.add("a", "x", 0, 5)
    tr.clear()
    assert tr.total() == 0 and tr.total("x") == 0
    assert tr.by_phase() == {} and tr.phases() == []
    tr.add("a", "y", 0, 2)
    assert tr.by_phase() == {"y": 2}


def test_merge_sums_totals_of_totals_only_traces():
    a, b = _spans_off(), Trace(keep_spans=False)
    b.add("c", "launch", 0, 7)
    b.add("c", "sync", 0, 1)
    merged = a.merge([b])
    assert not merged.keep_spans
    assert merged.by_phase() == {"compute": 22, "sync": 5, "launch": 7}
    assert a.total() == 26 and b.total() == 8  # originals untouched


def test_merge_with_a_totals_only_trace_drops_spans():
    a = Trace()
    a.add("a", "x", 0, 5)
    merged = a.merge([_spans_off()])
    assert not merged.keep_spans
    assert merged.by_phase() == {"x": 5, "compute": 22, "sync": 4}


def test_merge_of_span_traces_keeps_spans_and_totals():
    a, b = Trace(), Trace()
    a.add("a", "x", 10, 20)
    b.add("b", "y", 0, 5)
    merged = a.merge([b])
    assert merged.keep_spans
    assert merged.by_phase() == {"y": 5, "x": 10}
    assert merged.phases() == ["y", "x"]  # first appearance after sorting


@pytest.mark.parametrize(
    "query",
    [
        lambda tr: tr.spans(),
        lambda tr: tr.spans("compute"),
        lambda tr: list(tr),
        lambda tr: len(tr),
        lambda tr: tr.to_tuples(),
        lambda tr: tr.digest(),
        lambda tr: tr.total("compute", owner="b0"),
        lambda tr: tr.total(owner="b0"),
    ],
    ids=["spans", "spans-phase", "iter", "len", "to_tuples", "digest",
         "total-owner-phase", "total-owner"],
)
def test_totals_only_trace_refuses_span_queries(query):
    with pytest.raises(SpansNotKeptError, match=r"keep_device=True"):
        query(_spans_off())


def test_totals_only_trace_still_rejects_negative_duration():
    tr = Trace(keep_spans=False)
    with pytest.raises(ValueError, match="ends before it starts"):
        tr.add("b0", "compute", 10, 5)
    assert tr.total() == 0 and tr.phases() == []


def test_span_trace_rejects_negative_duration_without_counting_it():
    tr = Trace()
    with pytest.raises(ValueError, match="ends before it starts"):
        tr.add("b0", "compute", 10, 5)
    assert len(tr) == 0 and tr.total() == 0
