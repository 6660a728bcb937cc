"""Smoke and shape tests for the experiment drivers (small configs)."""

import pytest

from repro.errors import ConfigError, ExperimentError
from repro.gpu.presets import get_preset
from repro.harness import experiments
from repro.harness.experiments import probe_sync_ns
from repro.model.barrier_costs import lockfree_cost, simple_cost, tree_cost
from repro.parallel import Executor, ResultCache


def test_make_algorithm_known_names():
    assert experiments.make_algorithm("fft").name == "fft"
    assert experiments.make_algorithm("swat").name == "swat"
    assert experiments.make_algorithm("bitonic").name == "bitonic"


def test_make_algorithm_unknown_rejected():
    with pytest.raises(ExperimentError):
        experiments.make_algorithm("quicksort")


def test_fig11_small_sweep_shape():
    sweep = experiments.fig11(rounds=10, blocks=[2, 8, 16])
    assert sweep.blocks == [2, 8, 16]
    assert len(sweep.nulls) == 3
    for strat, series in sweep.totals.items():
        assert len(series) == 3, strat
    # CPU explicit must dominate everything at every point.
    for i in range(3):
        assert sweep.totals["cpu-explicit"][i] == max(
            s[i] for s in sweep.totals.values()
        )
    # GPU simple grows with blocks; lock-free stays flat.
    simple = sweep.sync_series("gpu-simple")
    assert simple[0] < simple[1] < simple[2]
    lockfree = sweep.sync_series("gpu-lockfree")
    assert lockfree[0] == lockfree[1] == lockfree[2]


def test_fig11_sync_series_matches_totals_minus_null():
    sweep = experiments.fig11(rounds=5, blocks=[4], strategies=["gpu-simple"])
    assert sweep.sync_series("gpu-simple") == [
        sweep.totals["gpu-simple"][0] - sweep.nulls[0]
    ]


def test_sweep_result_best():
    sweep = experiments.fig11(rounds=5, blocks=[2, 8], strategies=["cpu-implicit"])
    assert sweep.best("cpu-implicit") == min(sweep.totals["cpu-implicit"])


def test_model_validation_small():
    out = experiments.model_validation(blocks=[2, 8], rounds=5)
    assert set(out) == {"gpu-simple", "gpu-tree-2", "gpu-tree-3", "gpu-lockfree"}
    for strat, per_n in out.items():
        for n, pair in per_n.items():
            assert pair["measured"] <= pair["predicted"] * 1.01, (strat, n)
            assert pair["measured"] >= pair["predicted"] * 0.80, (strat, n)


def test_model_validation_predicts_with_the_preset_topology():
    cfg = get_preset("dual_gpu")
    t, topo = cfg.timings, cfg.topology
    out = experiments.model_validation(config=cfg, blocks=[8], rounds=5)
    expected = {
        "gpu-simple": simple_cost(8, t, topology=topo),
        "gpu-tree-2": tree_cost(8, 2, t, topology=topo),
        "gpu-tree-3": tree_cost(8, 3, t, topology=topo),
        "gpu-lockfree": lockfree_cost(8, t, topology=topo),
    }
    assert {s: out[s][8]["predicted"] for s in out} == expected
    assert out["gpu-lockfree"][8]["predicted"] == 4_600
    assert out["gpu-lockfree"][8]["measured"] == 4_600


def test_empty_block_sweep_rejected():
    with pytest.raises(ExperimentError):
        experiments.algorithm_sweep("fft", blocks=[])


# ---------------------------------------------------------------------------
# The sync-cost probe
# ---------------------------------------------------------------------------


def test_probe_matches_known_costs():
    _, sync = probe_sync_ns(("gpu-lockfree", "gpu-simple"), 16, 8)
    assert sync["gpu-lockfree"] / 8 == lockfree_cost(16)
    assert sync["gpu-simple"] / 8 == simple_cost(16)


def test_probe_cpu_implicit():
    _, sync = probe_sync_ns(("cpu-implicit",), 8, 10)
    # total-minus-null attributes (R-1)/R of the boundary per round.
    assert 5000 <= sync["cpu-implicit"] / 10 <= 6000


def test_probe_validation():
    with pytest.raises(ConfigError):
        probe_sync_ns(("gpu-lockfree",), 8, 0)


def test_probe_is_served_from_the_fig11_cache(tmp_path):
    ex = Executor(cache=ResultCache(tmp_path))
    sweep = experiments.fig11(
        rounds=3, blocks=[8, 30], strategies=("gpu-simple",), executor=ex
    )
    ran = ex.tasks_run
    null, sync = probe_sync_ns(("gpu-simple",), 8, 3, executor=ex)
    assert ex.tasks_run == ran  # every cell was a cache hit
    assert null == sweep.nulls[0]
    assert sync["gpu-simple"] == sweep.sync_series("gpu-simple")[0]
