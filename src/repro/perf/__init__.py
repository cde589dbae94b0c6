"""Hot-path performance layer: deterministic counters and the bench matrix.

:mod:`repro.perf.counters` aggregates per-run event/packet/decision
counters at zero hot-path cost; :mod:`repro.perf.profiler` attributes
host wall time to simulation components (collapsed-stack/flamegraph
output, registry histograms) behind the :mod:`repro.sim.probe` pointer; and
:mod:`repro.perf.bench` runs the pinned workload matrix behind ``python
-m repro.cli bench`` and emits the machine-readable ``BENCH_<rev>.json``
perf trajectory.

Only the counter and profiler layers are imported eagerly -- the bench
harness pulls in every workload module, and protocol layers importing
``repro.perf`` must stay cycle-free.
"""

from repro.perf.counters import (
    ENV_VAR,
    PerfCollector,
    PerfRecord,
    PerfSnapshot,
    collecting,
    measure,
    perf_enabled,
)
from repro.perf.profiler import (
    SimProfiler,
    profile_enabled,
    profiling,
)

__all__ = [
    "ENV_VAR",
    "PerfCollector",
    "PerfRecord",
    "PerfSnapshot",
    "SimProfiler",
    "collecting",
    "measure",
    "perf_enabled",
    "profile_enabled",
    "profiling",
]
