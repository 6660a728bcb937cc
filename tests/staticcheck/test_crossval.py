"""Cross-validation: the linter vs. the sanitizer's seeded mutants.

The contract under test (ISSUE acceptance criteria): every dynamic bug
class the mutants exhibit is *also* flagged statically with the
registry-linked SC code, and every shipped clean strategy, algorithm
and example lints clean.
"""

import pytest

import repro.sanitize.mutants  # noqa: F401  (registers the broken-* mutants)
from repro.staticcheck.crossval import (
    MUTANT_EXPECTATIONS,
    crossval_all,
    crossval_mutant,
    expectation_links_ok,
    repair_mutant,
    repaired_findings,
    verify_expectations,
    verify_repairs,
)


def test_expectations_cover_every_registered_mutant():
    from repro.sync.base import strategy_names

    registered = {n for n in strategy_names() if n.startswith("broken-")}
    assert registered == set(MUTANT_EXPECTATIONS)


@pytest.mark.parametrize("name", sorted(MUTANT_EXPECTATIONS))
def test_each_mutant_is_statically_flagged_with_expected_codes(name):
    report = crossval_mutant(name)
    assert set(report.codes()) == MUTANT_EXPECTATIONS[name].static


@pytest.mark.parametrize("name", sorted(MUTANT_EXPECTATIONS))
def test_static_and_dynamic_taxonomies_are_linked(name):
    assert expectation_links_ok(MUTANT_EXPECTATIONS[name])


def test_verify_expectations_reports_no_problems():
    assert verify_expectations() == []


def test_crossval_all_lints_every_mutant():
    assert set(crossval_all()) == set(MUTANT_EXPECTATIONS)


def test_clean_strategies_lint_clean():
    """Every non-mutant registered strategy produces zero findings."""
    from repro.staticcheck import lint_strategy
    from repro.sync.base import get_strategy, strategy_names

    for name in strategy_names():
        if name.startswith("broken-"):
            continue
        report = lint_strategy(get_strategy(name))
        assert report.clean, (
            f"{name}: {[f.render() for f in report.findings]}"
        )


def test_shipped_tree_lints_clean():
    """src/repro + examples: zero unsuppressed findings (the CI gate)."""
    from repro.staticcheck import lint_paths

    report = lint_paths(["src/repro", "examples"])
    assert report.clean, [f.render() for f in report.findings]
    # The deliberate sites (mutants, reset-variant, occupancy demo) are
    # annotated, not invisible: the suppression count proves the linter
    # still sees them.
    assert report.suppressed == 6


def test_mutant_detection_survives_noqa_annotations():
    """The mutants' noqa comments hide them from tree lint runs but not
    from cross-validation (respect_noqa=False)."""
    from repro.staticcheck import lint_paths

    tree = lint_paths(["src/repro/sanitize/mutants.py"])
    assert tree.clean and tree.suppressed == 3
    for name, exp in MUTANT_EXPECTATIONS.items():
        assert set(crossval_mutant(name).codes()) == exp.static


# ---------------------------------------------------------------------------
# Repair cross-validation: the mutants must be fixable, not just findable
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MUTANT_EXPECTATIONS))
def test_each_mutant_repairs_with_its_expected_codes(name):
    """The engine applies exactly the expected SC fixes, scoped to the
    mutant class, and the repaired class lints clean."""
    repair = repair_mutant(name)
    assert {a.code for a in repair.fix.applied} == MUTANT_EXPECTATIONS[
        name
    ].static
    assert repaired_findings(repair) == []


def test_repair_does_not_touch_neighbouring_mutants():
    """Class-scoped repair: fixing one mutant leaves the other seeded
    bugs in the same file detectable."""
    repair = repair_mutant("broken-simple-undercount")
    # The other two mutants' bugs survive in the repaired file source.
    from repro.staticcheck.engine import lint_source

    report = lint_source(repair.fix.fixed, "<x>", respect_noqa=False)
    codes_by_unit = {(f.unit.split(".")[0], f.code) for f in report.findings}
    assert ("BrokenLockFreeNoScatter", "SC008") in codes_by_unit
    assert ("BrokenSimpleSkipRound", "SC001") in codes_by_unit
    assert not any(
        unit == "BrokenSimpleUndercount" for unit, _ in codes_by_unit
    )


def test_repair_restores_the_strategy_registry():
    """Executing repaired module source re-registers strategies; the
    harness must snapshot and restore so mutants stay seeded."""
    from repro.sync.base import get_strategy, strategy_names

    before = strategy_names()
    broken_cls = type(get_strategy("broken-simple-skipround"))
    repair_mutant("broken-simple-skipround")
    assert strategy_names() == before
    assert type(get_strategy("broken-simple-skipround")) is broken_cls


def test_verify_repairs_closes_the_loop():
    """Every mutant repairs back to passing: lint-clean, sanitizer-clean
    and verified."""
    assert verify_repairs(schedules=4) == []
