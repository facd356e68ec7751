"""``repro.exp`` — the unified experiment subsystem.

One declarative shape for every artifact the reproduction regenerates:

* :class:`ExperimentSpec` / :class:`SweepAxis` — frozen, hashable sweep
  descriptions (machine config + workload + seed + axes) that
  round-trip through ``to_dict``/``from_dict`` and hash to stable
  content addresses;
* :class:`SweepRunner` — executes a spec through a pluggable
  :class:`ExecutionBackend` (``serial``, ``pool``, or the
  work-stealing ``sharded`` backend; see :mod:`repro.exp.backend`),
  streaming results back as points complete and resuming partial
  sweeps from the cache;
* :class:`AdaptiveSampler` — spends exact-simulation cycles only where
  the :mod:`repro.analysis.queueing` prior is uncertain, turning dense
  grids into sparse ones with an audited error bound;
* :class:`ResultCache` — the content-addressed on-disk store that makes
  re-running ``fig7``/``table1``/``table2`` a near-instant cache hit
  (:class:`NullCache` and ``refresh=True`` are the escape hatches);
* the built-in experiment definitions in
  :mod:`repro.exp.experiments` (``figure7_spec``, ``table1_spec``,
  ``tred2_spec``, ``hotspot_spec``, ``scaling_spec``) and the
  :func:`point_function` registry for defining new ones.

Quickstart::

    from repro.exp import SweepRunner, figure7_spec

    result = SweepRunner(workers=4).run(figure7_spec(n=4096))
    for payload in result.payloads:
        print(payload["label"], len(payload["points"]))
"""

from .adaptive import (
    ADAPTIVE_PROFILES,
    AdaptiveProfile,
    AdaptiveReport,
    AdaptiveSampler,
)
from .backend import (
    BACKENDS,
    ExecutionBackend,
    PoolBackend,
    SerialBackend,
    ShardedBackend,
    ShardedSweepError,
    WorkerCrashError,
    make_backend,
)
from .cache import NullCache, ResultCache, default_cache_root
from .engine import (
    PayloadSerializationError,
    PointOutcome,
    SweepResult,
    SweepRunner,
    serial_runner,
)
from .experiments import (
    CROSS_TOPOLOGY_RATES,
    build_hotspot_machine,
    drift_spec,
    figure7_cross_topology_spec,
    figure7_simulated_spec,
    figure7_spec,
    hotspot_spec,
    scaling_spec,
    start_delays,
    table1_spec,
    timeline_spec,
    tred2_spec,
)
from .registry import POINT_FUNCTIONS, available, execute, point_function, resolve
from .spec import (
    RESULTS_VERSION,
    ExperimentSpec,
    SweepAxis,
    SweepPoint,
    point_hash,
)

__all__ = [
    "ADAPTIVE_PROFILES",
    "AdaptiveProfile",
    "AdaptiveReport",
    "AdaptiveSampler",
    "BACKENDS",
    "CROSS_TOPOLOGY_RATES",
    "ExecutionBackend",
    "ExperimentSpec",
    "NullCache",
    "POINT_FUNCTIONS",
    "PayloadSerializationError",
    "PointOutcome",
    "PoolBackend",
    "RESULTS_VERSION",
    "ResultCache",
    "SerialBackend",
    "ShardedBackend",
    "ShardedSweepError",
    "SweepAxis",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "WorkerCrashError",
    "available",
    "build_hotspot_machine",
    "default_cache_root",
    "drift_spec",
    "execute",
    "figure7_cross_topology_spec",
    "figure7_simulated_spec",
    "figure7_spec",
    "hotspot_spec",
    "make_backend",
    "point_function",
    "point_hash",
    "resolve",
    "scaling_spec",
    "serial_runner",
    "start_delays",
    "table1_spec",
    "timeline_spec",
    "tred2_spec",
]
