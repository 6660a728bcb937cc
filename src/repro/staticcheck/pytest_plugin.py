"""Pytest integration for the static barrier-protocol linter.

Loaded via ``pytest_plugins = ("repro.staticcheck.pytest_plugin",)`` in
the repo-root ``conftest.py``.  Adds:

* ``--staticcheck`` — after collection, lint **every strategy class
  registered** via :func:`repro.sync.base.register_strategy` (the
  deliberately-broken ``broken-*`` mutants are exempt: their bugs are
  the sanitizer's seeded ground truth) and fail the session with a
  usage error if any finding survives;
* fixtures ``lint_strategy_report`` and ``lint_source_report`` for
  tests that want a :class:`~repro.staticcheck.report.LintReport`
  without importing the engine directly.

The plugin lints the strategies the suite *actually registered* — not
whatever files happen to sit in a directory — so a test-local strategy
defined inside a test module gets linted exactly like a shipped one.
"""

from __future__ import annotations

from typing import Callable, List

import pytest

from repro.staticcheck.engine import LintError, lint_source, lint_strategy
from repro.staticcheck.report import LintReport

__all__ = [
    "pytest_addoption",
    "pytest_collection_finish",
    "pytest_report_header",
]


def pytest_addoption(parser: "pytest.Parser") -> None:
    group = parser.getgroup("staticcheck", "static barrier-protocol linter")
    group.addoption(
        "--staticcheck",
        action="store_true",
        default=False,
        help="lint every registered sync strategy after collection and "
        "fail the session on any finding (broken-* mutants exempt)",
    )


def pytest_report_header(config: "pytest.Config") -> str:
    on = config.getoption("--staticcheck")
    return "staticcheck: %s" % ("lint registered strategies" if on else "off")


def _registered_strategy_classes() -> List[type]:
    """Distinct classes behind the non-mutant registry entries."""
    from repro.sync.base import get_strategy, strategy_names

    classes: List[type] = []
    seen = set()
    for name in strategy_names():
        if name.startswith("broken-"):
            continue
        cls = type(get_strategy(name))
        if cls in seen:
            continue
        seen.add(cls)
        classes.append(cls)
    return classes


def pytest_collection_finish(session: "pytest.Session") -> None:
    if not session.config.getoption("--staticcheck"):
        return
    failures: List[str] = []
    linted = 0
    for cls in _registered_strategy_classes():
        try:
            report = lint_strategy(cls)
        except LintError:
            # Strategies without retrievable source (REPL, exec) are
            # outside the linter's remit.
            continue
        linted += 1
        # Advice-severity findings (SC100) flag performance
        # hazards, not bugs — they gate ``repro lint --strict`` and
        # ``--fix --check``, never the test session.
        failures.extend(
            f.render() for f in report.findings if f.severity != "advice"
        )
    if failures:
        raise pytest.UsageError(
            "--staticcheck: %d finding(s) in registered strategies:\n%s"
            % (len(failures), "\n".join("  " + line for line in failures))
        )
    session.config._staticcheck_linted = linted


@pytest.fixture
def lint_strategy_report() -> Callable[..., LintReport]:
    """Factory fixture: lint one strategy class or instance."""

    def call(strategy, **kwargs) -> LintReport:
        return lint_strategy(strategy, **kwargs)

    return call


@pytest.fixture
def lint_source_report() -> Callable[..., LintReport]:
    """Factory fixture: lint a source string."""

    def call(source: str, path: str = "<test>", **kwargs) -> LintReport:
        return lint_source(source, path, **kwargs)

    return call
