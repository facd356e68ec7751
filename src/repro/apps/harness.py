"""WASHCLOTH-style scaling studies (section 5's methodology).

The paper's group "routinely run[s] parallel scientific programs under a
paracomputer simulator ... to measure the speedup obtained ... and to
judge the difficulty involved in creating parallel programs."  This
module is that instrument as a public API: give it a program factory
parameterized by (pe count, problem size) and it measures T(P, N),
speedup, and efficiency over a grid, exactly as Table 2's "measured"
entries were produced.

Programs follow the standard coroutine protocol; the factory signature
is ``factory(processors, size) -> (setup, program_fn, args)`` where
``setup(machine)`` initializes shared memory and ``program_fn`` is
spawned once per PE.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ..core.memory_ops import FetchAdd
from ..core.paracomputer import Paracomputer
from ..util import Registry

#: setup(machine) -> None; returns the per-PE program and its args.
WorkloadFactory = Callable[..., tuple[Callable, Callable, tuple]]

#: Registered workloads: name -> factory.  A *named* workload can cross
#: a process boundary, so the experiment engine can fan its (P, size)
#: grid out over workers and cache the points; see :func:`run_study`.
WORKLOADS: Registry[WorkloadFactory] = Registry("workload")


def register_workload(name: str) -> Callable[[WorkloadFactory], WorkloadFactory]:
    """Register a workload factory under a stable name.

    ::

        @register_workload("stencil")
        def stencil_workload(processors, size):
            ...

    Registered names can be passed to :func:`run_study` (and to
    :func:`repro.exp.experiments.scaling_spec`) in place of the factory
    itself, unlocking parallel execution and result caching.
    """
    return functools.partial(WORKLOADS.register, name)


@register_workload("faa-counter")
def faa_counter_workload(processors: int, size: int):
    """Built-in reference workload: ``size`` fetch-and-add work items
    dealt out by a shared dispenser — pure self-scheduling overhead,
    the harness's smallest meaningful subject."""

    def setup(machine) -> None:
        machine.poke(0, 0)

    def program(pe_id, items):
        while True:
            item = yield FetchAdd(0, 1)
            if item >= items:
                return pe_id
            yield 2  # the work

    return setup, program, (size,)


@dataclass(frozen=True)
class ScalingPoint:
    """One (P, size) measurement."""

    processors: int
    size: int
    cycles: int
    ops_issued: int

    def speedup_vs(self, serial: "ScalingPoint") -> float:
        return serial.cycles / self.cycles

    def efficiency_vs(self, serial: "ScalingPoint") -> float:
        return self.speedup_vs(serial) / self.processors


@dataclass
class ScalingStudy:
    """Measured grid plus derived speedup/efficiency tables."""

    workload_name: str
    points: dict[tuple[int, int], ScalingPoint] = field(default_factory=dict)

    def serial(self, size: int) -> ScalingPoint:
        try:
            return self.points[(1, size)]
        except KeyError:
            raise KeyError(
                f"no serial (P=1) measurement for size {size}; include "
                "P=1 in the grid to compute speedups"
            )

    def speedup(self, processors: int, size: int) -> float:
        return self.points[(processors, size)].speedup_vs(self.serial(size))

    def efficiency(self, processors: int, size: int) -> float:
        return self.points[(processors, size)].efficiency_vs(self.serial(size))

    def table(self) -> str:
        sizes = sorted({size for _, size in self.points})
        processor_counts = sorted({p for p, _ in self.points})
        corner = "size\\P"
        header = f"{corner:>8} | " + " ".join(
            f"{p:>7}" for p in processor_counts
        )
        lines = [f"efficiency of {self.workload_name}", header, "-" * len(header)]
        for size in sizes:
            cells = []
            for p in processor_counts:
                if (p, size) in self.points and (1, size) in self.points:
                    cells.append(f"{self.efficiency(p, size) * 100:>6.1f}%")
                else:
                    cells.append(f"{'-':>7}")
            lines.append(f"{size:>8} | " + " ".join(cells))
        return "\n".join(lines)


def run_point(
    factory: WorkloadFactory,
    processors: int,
    size: int,
    *,
    seed: int = 0,
    max_cycles: int = 10_000_000,
) -> ScalingPoint:
    """Measure one (P, size) configuration on a fresh paracomputer."""
    setup, program_fn, args = factory(processors, size)
    para = Paracomputer(seed=seed)
    setup(para)
    para.spawn_many(processors, program_fn, *args)
    stats = para.run(max_cycles)
    return ScalingPoint(
        processors=processors,
        size=size,
        cycles=stats.cycles,
        ops_issued=stats.requests_issued,
    )


def run_study(
    factory: Union[WorkloadFactory, str],
    *,
    name: Optional[str] = None,
    processor_counts: list[int],
    sizes: list[int],
    seed: int = 0,
    max_cycles: int = 10_000_000,
    runner=None,
) -> ScalingStudy:
    """Measure the full grid (include 1 in ``processor_counts`` so the
    efficiency table has its serial baselines).

    ``factory`` is either a workload factory callable or the *name* of
    a workload registered with :func:`register_workload`.  Named
    workloads run through the experiment engine — one ``scaling.point``
    sweep over the (size, processors) grid — so a configured
    :class:`~repro.exp.SweepRunner` can spread the grid over worker
    processes and memoize the points; the default runner is in-process
    and uncached, reproducing the old serial loop exactly.  Callables
    cannot cross a process boundary, so they always run in-process.
    """
    if isinstance(factory, str):
        workload_name = factory
        WORKLOADS[workload_name]  # fail fast on typos
        display_name = name or workload_name
        from ..exp import scaling_spec, serial_runner

        spec = scaling_spec(
            workload_name,
            processor_counts,
            sizes,
            seed=seed,
            max_cycles=max_cycles,
        )
        result = (runner or serial_runner()).run(spec)
        study = ScalingStudy(workload_name=display_name)
        for payload in result.payloads:
            key = (payload["processors"], payload["size"])
            study.points[key] = ScalingPoint(
                processors=payload["processors"],
                size=payload["size"],
                cycles=payload["cycles"],
                ops_issued=payload["ops_issued"],
            )
        return study

    if runner is not None:
        raise ValueError(
            "a custom runner requires a *registered* workload name "
            "(callables cannot cross process boundaries); register the "
            "factory with register_workload() and pass its name"
        )
    if name is None:
        raise ValueError("run_study needs name= when given a bare callable")
    study = ScalingStudy(workload_name=name)
    for size in sizes:
        for processors in processor_counts:
            study.points[(processors, size)] = run_point(
                factory, processors, size, seed=seed, max_cycles=max_cycles
            )
    return study
