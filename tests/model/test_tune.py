"""Topology-resolved cost predictions and the ``repro tune`` layer."""

import json

import pytest

from repro.algorithms import MeanMicrobench, Reduction
from repro.errors import ConfigError
from repro.gpu.presets import get_preset, resolve_timing_context
from repro.gpu.topology import Topology
from repro.harness import run
from repro.model.barrier_costs import lockfree_cost, simple_cost, tree_cost
from repro.model.tune import (
    MODELED_STRATEGIES,
    barrier_cost_table,
    predict_all,
    recommend,
    tune_workload,
)

# ---------------------------------------------------------------------------
# Topology surcharges on the barrier cost models
# ---------------------------------------------------------------------------


def test_single_device_topology_is_the_paper_identity():
    flat = Topology()
    for n in (1, 2, 8, 30):
        assert simple_cost(n, topology=flat) == simple_cost(n)
        assert tree_cost(n, 2, topology=flat) == tree_cost(n, 2)
        assert lockfree_cost(n, topology=flat) == lockfree_cost(n)


def test_simple_cost_charges_every_remote_arrival():
    topo = Topology(kind="multi-device", num_domains=2, crossing_ns=1_500)
    n = 8  # blocks 4..7 land on domain 1
    base = simple_cost(n)
    # 4 remote atomics + 1 remote release observation on the critical path.
    assert simple_cost(n, topology=topo) == base + 4 * 1_500 + 1_500


def test_lockfree_cost_charges_exactly_two_crossings():
    topo = Topology(kind="multi-device", num_domains=2, crossing_ns=1_500)
    base = lockfree_cost(8)
    assert lockfree_cost(8, topology=topo) == base + 2 * 1_500
    # Independent of how many blocks are remote.
    assert lockfree_cost(30, topology=topo) == lockfree_cost(30) + 2 * 1_500


def test_tree_cost_charges_one_crossing_per_remote_domain():
    topo = Topology(kind="cluster", num_domains=4, crossing_ns=250)
    n = 8  # all 4 domains occupied
    base = tree_cost(n, 2)
    assert tree_cost(n, 2, topology=topo) == base + 3 * 250 + 250


def test_grid_confined_to_one_domain_pays_nothing():
    # domain_of partitions contiguously: a 1-block grid sits in domain 0.
    topo = Topology(kind="multi-device", num_domains=2, crossing_ns=1_500)
    assert simple_cost(1, topology=topo) == simple_cost(1)
    assert lockfree_cost(1, topology=topo) == lockfree_cost(1)
    assert tree_cost(1, 2, topology=topo) == tree_cost(1, 2)


# ---------------------------------------------------------------------------
# The advisor under a device config
# ---------------------------------------------------------------------------


def test_advisor_reproduces_fig11_ordering_on_gtx280():
    """Paper Fig. 11: lock-free beats simple at high block counts."""
    cfg = get_preset("gtx280")
    preds = predict_all(100, 5_000, 30, config=cfg)
    assert preds["gpu-lockfree"] < preds["gpu-simple"]
    assert recommend(100, 5_000, 30, config=cfg).strategy == "gpu-lockfree"


def test_advisor_prefers_simple_at_tiny_grids_on_gtx280():
    cfg = get_preset("gtx280")
    assert recommend(100, 5_000, 4, config=cfg).strategy == "gpu-simple"


@pytest.mark.parametrize("preset", ["dual_gpu", "riscv_cluster_1024"])
def test_recommendation_flips_on_multi_domain_presets(preset):
    """The same 4-block workload that favours gpu-simple on the paper's
    card flips to gpu-lockfree once arrivals cross an interconnect."""
    cfg = get_preset(preset)
    assert recommend(100, 5_000, 4, config=cfg).strategy == "gpu-lockfree"


def test_advisor_config_resolves_preset_timings():
    cfg = get_preset("fermi_class")
    via_config = predict_all(10, 1_000, 8, config=cfg)
    via_timings = predict_all(10, 1_000, 8, cfg.timings)
    assert via_config == via_timings  # single-device: topology is a no-op


def test_explicit_timings_win_over_config():
    gtx = get_preset("gtx280")
    dual = get_preset("dual_gpu")
    preds = predict_all(10, 1_000, 8, gtx.timings, config=dual)
    # Timings from gtx280, topology from dual_gpu: lockfree pays exactly
    # the two crossings over its flat-gtx280 prediction.
    flat = predict_all(10, 1_000, 8, gtx.timings)
    assert preds["gpu-lockfree"] == flat["gpu-lockfree"] + 10 * 2 * 1_500


def test_barrier_cost_table_is_the_topology_aware_eq_6_7_9():
    cfg = get_preset("dual_gpu")
    t, topo = cfg.timings, cfg.topology
    assert barrier_cost_table(8, t, topo) == {
        "gpu-simple": simple_cost(8, t, topology=topo),
        "gpu-tree-2": tree_cost(8, 2, t, topology=topo),
        "gpu-tree-3": tree_cost(8, 3, t, topology=topo),
        "gpu-lockfree": lockfree_cost(8, t, topology=topo),
    }


def test_resolve_timing_context_matches_preset():
    timings, topology = resolve_timing_context("dual_gpu")
    cfg = get_preset("dual_gpu")
    assert timings == cfg.timings
    assert topology == cfg.topology
    with pytest.raises(ConfigError):
        resolve_timing_context("no-such-preset")


# ---------------------------------------------------------------------------
# tune_workload
# ---------------------------------------------------------------------------


def test_tune_optimal_configuration_has_no_advisory():
    report = tune_workload(100, 5_000, 30, "gpu-lockfree", "gtx280")
    assert report.optimal
    assert report.advisory is None
    assert report.predicted_speedup == 1.0
    assert report.exit_code() == 0
    assert report.exit_code(strict=True) == 0
    assert "matches the cost-model recommendation" in report.render()


def test_tune_suboptimal_configuration_emits_sc100():
    report = tune_workload(100, 5_000, 30, "gpu-simple", "gtx280")
    assert not report.optimal
    assert report.recommended == "gpu-lockfree"
    advisory = report.advisory
    assert advisory is not None
    assert advisory.code == "SC100"
    assert advisory.severity == "advice"
    assert advisory.file == "<workload:gtx280>"
    assert advisory.unit == "gpu-simple"
    assert "gpu-lockfree" in advisory.message
    assert report.predicted_speedup > 1.5
    # Advisory severity: exit 0 unless strict.
    assert report.exit_code() == 0
    assert report.exit_code(strict=True) == 1


def test_tune_recommendation_changes_with_preset():
    """ISSUE acceptance: the same workload tunes differently on the
    multi-domain presets."""
    on_gtx = tune_workload(100, 5_000, 4, "gpu-simple", "gtx280")
    assert on_gtx.optimal
    for preset in ("dual_gpu", "riscv_cluster_1024"):
        report = tune_workload(100, 5_000, 4, "gpu-simple", preset)
        assert not report.optimal
        assert report.recommended == "gpu-lockfree"
        assert report.advisory is not None


def test_tune_rejects_unmodeled_strategy():
    with pytest.raises(ConfigError, match="unmodeled"):
        tune_workload(100, 5_000, 8, "gpu-sense-reversal")


def test_tune_report_envelope_round_trip():
    report = tune_workload(100, 5_000, 30, "gpu-simple", "gtx280")
    envelope = json.loads(report.to_json())
    assert envelope["schema"] == 3
    assert envelope["kind"] == "tune-report"
    assert envelope["configured"] == "gpu-simple"
    assert envelope["recommended"] == "gpu-lockfree"
    assert envelope["optimal"] is False
    assert envelope["advisory"]["code"] == "SC100"
    assert set(envelope["predictions"]) == set(MODELED_STRATEGIES)


def test_tune_measured_sweep_validates_the_model():
    report = tune_workload(
        20, 5_000, 8, "gpu-lockfree", "gtx280", measure=True, measure_rounds=10
    )
    assert set(report.measured_sync_ns) == set(MODELED_STRATEGIES)
    assert report.measured_null_ns is not None
    assert all(v > 0 for v in report.measured_sync_ns.values())
    # The measured sweep agrees with the model's headline call: lock-free
    # synchronizes cheaper than simple at this grid.
    measured = report.measured_sync_ns
    assert measured["gpu-lockfree"] < measured["gpu-simple"]
    assert report.measured_best == "gpu-lockfree"
    assert "measured sync overhead" in report.render()


# ---------------------------------------------------------------------------
# The recommendation against brute force: run every modeled strategy
# ---------------------------------------------------------------------------


def _pick_and_brute_force(algorithm, num_blocks, preset="gtx280"):
    """The tuner's pick from the slowest block's per-round compute, and
    the strategy that actually runs fastest."""
    cfg = get_preset(preset)
    per_round = [
        max(algorithm.round_cost(r, b, num_blocks) for b in range(num_blocks))
        for r in range(algorithm.num_rounds())
    ]
    rec = recommend(algorithm.num_rounds(), per_round, num_blocks, config=cfg)
    totals = {
        name: run(algorithm, name, num_blocks, config=cfg).total_ns
        for name in MODELED_STRATEGIES
    }
    return rec, min(totals, key=totals.get)


def test_picks_lockfree_for_sync_bound_grid():
    rec, fastest = _pick_and_brute_force(Reduction(n=4096, num_blocks_hint=30), 30)
    assert rec.strategy == fastest == "gpu-lockfree"


def test_picks_simple_for_tiny_grid():
    rec, fastest = _pick_and_brute_force(
        MeanMicrobench(rounds=50, num_blocks_hint=2), 2
    )
    assert rec.strategy == fastest == "gpu-simple"


def test_pick_is_brute_force_fastest_at_24_blocks():
    rec, fastest = _pick_and_brute_force(
        MeanMicrobench(rounds=40, num_blocks_hint=24), 24
    )
    assert rec.strategy == fastest


def test_pick_is_brute_force_fastest_on_dual_gpu():
    """A short probe under-prices cpu-implicit here (total - null
    charges only (R-1)/R of a kernel boundary per round); the cost model
    charges every boundary and agrees with running every strategy."""
    rec, fastest = _pick_and_brute_force(
        Reduction(n=4096, num_blocks_hint=30), 30, preset="dual_gpu"
    )
    assert rec.strategy == fastest == "gpu-lockfree"


def test_prediction_close_to_measurement():
    """The recommendation's predicted total must track a real run."""
    micro = MeanMicrobench(rounds=60, num_blocks_hint=16)
    rec = recommend(60, micro.round_cost(0, 0, 16), 16)
    measured = run(micro, rec.strategy, 16).total_ns
    assert measured == pytest.approx(rec.predicted_ns, rel=0.05)
