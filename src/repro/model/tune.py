"""The strategy tuner: Eq. 3–9 cost predictions and ``repro tune``.

The paper closes with a future-work item: "a general model to
characterize algorithms' parallelism properties, based on which better
performance can be obtained".  This module realizes the obvious version
of that.  :func:`predict_all` predicts a workload's total time under
every synchronization strategy from its per-round computation time, its
number of rounds and a block count (Eqs. 3–5 around the Eq. 6/7/9
barrier costs of :func:`barrier_cost_table`), charging the interconnect
crossings of multi-domain topologies; :func:`recommend` picks the
fastest.

:func:`tune_workload` turns the answer into an *auditable report*
against the strategy a user actually configured.  When the configured
strategy diverges from the recommendation it emits an ``SC100
suboptimal-strategy`` advisory as a regular
:class:`~repro.staticcheck.report.StaticFinding`, so CI surfaces tuning
drift through the same finding pipeline as the linter.

With ``measure=True`` the report also checks the model against the
simulator: :func:`~repro.harness.experiments.probe_sync_ns` runs the
micro-benchmark under every modeled strategy plus a ``null``
(compute-only) baseline through the cached executor, and the measured
synchronization overheads (``total - null``) ride along for comparison
with the predictions — the paper's §5.4 model-vs-measurement check, per
workload.

Serialization uses the shared schema-3 envelope under the
``tune-report`` kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

from repro.errors import ConfigError
from repro.gpu.presets import get_preset, resolve_timing_context
from repro.gpu.topology import Topology
from repro.model.barrier_costs import lockfree_cost, simple_cost, tree_cost
from repro.model.calibration import CalibratedTimings, default_timings
from repro.model.kernel_time import (
    cpu_explicit_time,
    cpu_implicit_time,
    gpu_sync_time,
)
from repro.staticcheck.report import StaticFinding

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.gpu.config import DeviceConfig

__all__ = [
    "MODELED_STRATEGIES",
    "Recommendation",
    "TuneReport",
    "barrier_cost_table",
    "predict_all",
    "recommend",
    "tune_workload",
]

Number = Union[int, float]

#: every strategy the cost model predicts (Eqs. 3–9); all are
#: registered under the same names, so the measured sweep can run each.
MODELED_STRATEGIES = (
    "cpu-explicit",
    "cpu-implicit",
    "gpu-simple",
    "gpu-tree-2",
    "gpu-tree-3",
    "gpu-lockfree",
)


def barrier_cost_table(
    num_blocks: int,
    timings: CalibratedTimings,
    topology: Optional[Topology] = None,
) -> Dict[str, float]:
    """Per-round device-barrier cost (ns) of each GPU strategy.

    Eqs. 6, 7 and 9, plus the crossing surcharges ``topology`` adds on
    multi-domain devices (``None`` is the paper's single device).
    """
    return {
        "gpu-simple": simple_cost(num_blocks, timings, topology=topology),
        "gpu-tree-2": tree_cost(num_blocks, 2, timings, topology=topology),
        "gpu-tree-3": tree_cost(num_blocks, 3, timings, topology=topology),
        "gpu-lockfree": lockfree_cost(num_blocks, timings, topology=topology),
    }


@dataclass(frozen=True)
class Recommendation:
    """Outcome of :func:`recommend`."""

    strategy: str  #: name of the predicted-fastest strategy
    predicted_ns: float  #: its predicted total time
    ranking: List[tuple]  #: all (strategy, predicted_ns) sorted ascending
    rho: float  #: compute fraction under the CPU-implicit baseline


def predict_all(
    rounds: int,
    compute_ns: Union[Number, Sequence[Number]],
    num_blocks: int,
    timings: Optional[CalibratedTimings] = None,
    *,
    config: Optional["DeviceConfig"] = None,
) -> Dict[str, float]:
    """Predicted total time (ns) for every strategy at this configuration.

    ``config`` predicts for a concrete device: its calibrated timings
    (unless ``timings`` is given explicitly) *and* its topology, so
    multi-domain presets (``dual_gpu``, ``riscv_cluster_1024``) charge
    the interconnect crossings their barriers would really pay.
    """
    if num_blocks < 1:
        raise ConfigError(f"num_blocks must be >= 1, got {num_blocks}")
    if timings is None and config is not None:
        timings = config.timings
    t = timings or default_timings()
    costs = barrier_cost_table(
        num_blocks, t, config.topology if config else None
    )
    return {
        "cpu-explicit": cpu_explicit_time(rounds, compute_ns, t),
        "cpu-implicit": cpu_implicit_time(rounds, compute_ns, t),
        **{
            name: gpu_sync_time(rounds, compute_ns, cost, t)
            for name, cost in costs.items()
        },
    }


def recommend(
    rounds: int,
    compute_ns: Union[Number, Sequence[Number]],
    num_blocks: int,
    timings: Optional[CalibratedTimings] = None,
    *,
    config: Optional["DeviceConfig"] = None,
) -> Recommendation:
    """Recommend the predicted-fastest synchronization strategy.

    ``config`` resolves timings and topology from a concrete device,
    exactly as in :func:`predict_all`.
    """
    predictions = predict_all(
        rounds, compute_ns, num_blocks, timings, config=config
    )
    ranking = sorted(predictions.items(), key=lambda kv: kv[1])
    baseline = predictions["cpu-implicit"]
    total_compute = (
        compute_ns * rounds
        if isinstance(compute_ns, (int, float))
        else float(sum(compute_ns))
    )
    return Recommendation(
        strategy=ranking[0][0],
        predicted_ns=ranking[0][1],
        ranking=ranking,
        rho=total_compute / baseline,
    )


@dataclass
class TuneReport:
    """One workload tuned against one device preset."""

    rounds: int
    compute_ns: float  #: per-round computation time the model assumes
    num_blocks: int
    preset: str
    configured: str  #: the strategy the user runs today
    recommended: str  #: the model's pick
    predictions: Dict[str, float]  #: strategy → predicted total ns
    rho: float  #: compute fraction under the CPU-implicit baseline
    #: the ``SC100`` advisory; ``None`` when the configuration is optimal.
    advisory: Optional[StaticFinding] = None
    #: measured sync overhead (ns, ``total - null``) per strategy, when
    #: the report was built with ``measure=True``.
    measured_sync_ns: Dict[str, int] = field(default_factory=dict)
    #: compute-only baseline total (ns) of the measured sweep.
    measured_null_ns: Optional[int] = None

    @property
    def optimal(self) -> bool:
        """True when the configured strategy is the model's pick."""
        return self.configured == self.recommended

    @property
    def predicted_speedup(self) -> float:
        """Predicted time ratio configured/recommended (1.0 = optimal)."""
        return self.predictions[self.configured] / self.predictions[self.recommended]

    @property
    def measured_best(self) -> Optional[str]:
        """Strategy with the lowest measured sync overhead, if measured."""
        if not self.measured_sync_ns:
            return None
        return min(self.measured_sync_ns, key=lambda s: self.measured_sync_ns[s])

    def exit_code(self, strict: bool = False) -> int:
        """CLI exit status — advisory by default, gating under strict."""
        if strict and not self.optimal:
            return 1
        return 0

    def ranking(self) -> List[Any]:
        """All ``(strategy, predicted_ns)`` sorted fastest-first."""
        return sorted(self.predictions.items(), key=lambda kv: kv[1])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rounds": self.rounds,
            "compute_ns": self.compute_ns,
            "num_blocks": self.num_blocks,
            "preset": self.preset,
            "configured": self.configured,
            "recommended": self.recommended,
            "optimal": self.optimal,
            "predicted_speedup": self.predicted_speedup,
            "rho": self.rho,
            "predictions": {
                s: self.predictions[s] for s in sorted(self.predictions)
            },
            "advisory": self.advisory.to_dict() if self.advisory else None,
            "measured_sync_ns": {
                s: self.measured_sync_ns[s]
                for s in sorted(self.measured_sync_ns)
            },
            "measured_null_ns": self.measured_null_ns,
            "measured_best": self.measured_best,
        }

    def to_json(self) -> str:
        """Deterministic JSON in the shared schema-3 envelope."""
        from repro.serialization import dump_result

        return dump_result("tune-report", self.to_dict())

    def render(self) -> str:
        """Deterministic plain-text report."""
        lines = [
            f"tune: preset={self.preset}, {self.rounds} round(s) x "
            f"{self.compute_ns:g} ns compute, {self.num_blocks} block(s) "
            f"(rho={self.rho:.3f})",
            f"  configured:  {self.configured} "
            f"(predicted {self.predictions[self.configured]:.0f} ns)",
            f"  recommended: {self.recommended} "
            f"(predicted {self.predictions[self.recommended]:.0f} ns)",
        ]
        for strategy, predicted in self.ranking():
            marker = " <- configured" if strategy == self.configured else ""
            lines.append(f"    {strategy:13s} {predicted:>14.0f} ns{marker}")
        if self.measured_sync_ns:
            lines.append(
                f"  measured sync overhead (null baseline "
                f"{self.measured_null_ns} ns):"
            )
            for strategy in sorted(
                self.measured_sync_ns, key=lambda s: self.measured_sync_ns[s]
            ):
                lines.append(
                    f"    {strategy:13s} "
                    f"{self.measured_sync_ns[strategy]:>14d} ns"
                )
        if self.advisory is not None:
            lines.append("  " + self.advisory.render())
        else:
            lines.append(
                "  configured strategy matches the cost-model recommendation"
            )
        return "\n".join(lines)


def tune_workload(
    rounds: int,
    compute_ns: float,
    num_blocks: int,
    configured: str,
    preset: str = "gtx280",
    *,
    measure: bool = False,
    measure_rounds: Optional[int] = None,
    executor=None,
) -> TuneReport:
    """Tune one workload: predictions, recommendation, SC100 advisory.

    ``configured`` is the strategy the workload runs today; it must be
    one of :data:`MODELED_STRATEGIES`.  ``measure=True`` additionally
    runs the workload's microbenchmark under every modeled strategy
    (``measure_rounds`` caps the simulated rounds; default
    ``min(rounds, 50)``) through ``executor`` — or a throwaway inline
    executor — and reports measured sync overheads next to the
    predictions.
    """
    if configured not in MODELED_STRATEGIES:
        raise ConfigError(
            f"cannot tune unmodeled strategy {configured!r}; "
            f"modeled: {', '.join(MODELED_STRATEGIES)}"
        )
    timings, _ = resolve_timing_context(preset)
    config = get_preset(preset)
    rec: Recommendation = recommend(
        rounds, compute_ns, num_blocks, timings, config=config
    )
    predictions = dict(rec.ranking)
    advisory: Optional[StaticFinding] = None
    if configured != rec.strategy:
        ratio = predictions[configured] / predictions[rec.strategy]
        advisory = StaticFinding(
            code="SC100",
            message=(
                f"configured strategy '{configured}' is predicted "
                f"{ratio:.2f}x slower than '{rec.strategy}' for this "
                f"workload on preset '{preset}'"
            ),
            file=f"<workload:{preset}>",
            line=0,
            unit=configured,
        )
    report = TuneReport(
        rounds=rounds,
        compute_ns=compute_ns,
        num_blocks=num_blocks,
        preset=preset,
        configured=configured,
        recommended=rec.strategy,
        predictions=predictions,
        rho=rec.rho,
        advisory=advisory,
    )
    if measure:
        from repro.harness.experiments import probe_sync_ns

        report.measured_null_ns, report.measured_sync_ns = probe_sync_ns(
            MODELED_STRATEGIES,
            num_blocks,
            measure_rounds or min(rounds, 50),
            config,
            executor=executor,
        )
    return report
