"""Performance models from the paper (§4, §5).

* :mod:`repro.model.calibration` — the timing constants of the simulated
  GTX 280, with derivations from the paper's own measurements.
* :mod:`repro.model.kernel_time` — Eqs. 1, 3, 4, 5 (kernel execution time
  under each synchronization family).
* :mod:`repro.model.speedup` — Eq. 2 (Amdahl-style bound on kernel speedup
  from accelerating synchronization only).
* :mod:`repro.model.barrier_costs` — Eqs. 6, 7, 9 (analytic barrier costs)
  and Eq. 8 (optimal tree grouping).
* :mod:`repro.model.tune` — the strategy tuner: one Eq. 3–9 cost table,
  the recommendation built on it (the paper's future-work item), and
  the ``repro tune`` report with its ``SC100`` advisory.
"""

from repro.model.barrier_costs import (
    lockfree_cost,
    simple_cost,
    tree_cost,
    tree_group_sizes,
    tree_num_groups,
)
from repro.model.calibration import CalibratedTimings, default_timings
from repro.model.kernel_time import (
    cpu_explicit_time,
    cpu_implicit_time,
    gpu_sync_time,
    total_time,
)
from repro.model.speedup import kernel_speedup, max_speedup, rho

__all__ = [
    "CalibratedTimings",
    "cpu_explicit_time",
    "cpu_implicit_time",
    "default_timings",
    "gpu_sync_time",
    "kernel_speedup",
    "lockfree_cost",
    "max_speedup",
    "rho",
    "simple_cost",
    "total_time",
    "tree_cost",
    "tree_group_sizes",
    "tree_num_groups",
]
