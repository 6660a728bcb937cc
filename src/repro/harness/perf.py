"""The ``BENCH_*.json`` protocol.

:func:`render_bench` / :func:`load_bench` own the schema-versioned JSON
envelope (shared with every other batch result — see
:mod:`repro.serialization`) behind ``benchmarks/out/BENCH_*.json``.

Wall-clock numbers vary run to run; the JSON layout does not: keys are
sorted and the envelope carries its schema version.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.serialization import dump_result, parse_result, require

__all__ = [
    "BENCH_KIND",
    "load_bench",
    "render_bench",
]

#: ``kind`` tag of the bench envelope (``{"schema": .., "kind": "bench"}``).
BENCH_KIND = "bench"


def render_bench(name: str, workloads: Dict[str, Dict[str, Any]]) -> str:
    """Render a bench report as versioned, deterministic JSON.

    ``workloads`` maps workload name to a dict of its measurements.
    """
    return dump_result(BENCH_KIND, {"bench": name, "workloads": workloads})


def load_bench(text: str, *, source: str = "<string>") -> Dict[str, Any]:
    """Parse :func:`render_bench` output; typed errors name ``source``."""
    payload = parse_result(text, kind=BENCH_KIND, source=source)
    require(payload, "bench", source)
    require(payload, "workloads", source)
    return payload
