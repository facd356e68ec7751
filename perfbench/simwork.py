"""The two simulator workloads, one repetition per process.

``python3 perfbench/simwork.py --workload W --seed S --trace 0|1`` builds
one 4096-PE machine, runs the workload on it, checks the outputs and
prints one JSON line.  :mod:`run` starts a fresh process per repetition,
so peak RSS and the collector's generations never carry over from one
repetition to the next.  Garbage collection is left exactly as the
program has it; its cost shows only as the traced ``host.gc.*`` layer.

* ``fig7-uniform-4096``: one ``fig7.simulated`` point (uniform Bernoulli
  traffic at p = 0.05, offered for ``FIG7_CYCLES`` cycles and then
  drained), made by ``figure7_simulated_spec`` with its default kernel and
  run by the program's own point function.
* ``barrier-4096``: every PE runs synchronized rounds of a compute gap
  then ``FetchAdd(0, 1)`` on one cell, to quiescence on the batch kernel.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from typing import Any, Optional

import common

FIG7_PES = 4096
FIG7_RATE = 0.05
FIG7_CYCLES = 60
BARRIER_PES = 4096
#: the gaps are this fixed set, in a seeded order, so every seed does the
#: same amount of compute between fetch-and-adds
BARRIER_GAPS = (200, 225, 250, 275, 300, 325, 350, 375)
#: each PE starts up to this many cycles late (seeded), so the rounds are
#: synchronized but not in lockstep
BARRIER_JITTER = 3
SIM_WORKLOADS = ("fig7-uniform-4096", "barrier-4096")


def fig7_point(seed: int) -> tuple[str, dict[str, Any]]:
    """The point function's name and its parameters, exactly as the
    spec's sweep hands them to a worker."""
    from repro.exp import figure7_simulated_spec

    traffic_seed = common.derive_rng(seed, "fig7").randrange(1, 2**31)
    spec = figure7_simulated_spec(
        pes=FIG7_PES, rates=(FIG7_RATE,), cycles=FIG7_CYCLES,
        seed=traffic_seed,
    )
    return spec.experiment, next(iter(spec.points())).as_dict()


def barrier_plan(seed: int) -> tuple[tuple[int, ...], list[int]]:
    """The compute gap of each round, shared by every PE, and each PE's
    start delay."""
    rng = common.derive_rng(seed, "barrier")
    gaps = list(BARRIER_GAPS)
    rng.shuffle(gaps)
    delays = [rng.randrange(BARRIER_JITTER + 1) for _ in range(BARRIER_PES)]
    return tuple(gaps), delays


def barrier_program(pe_id: int, gaps: tuple[int, ...], delay: int):
    from repro.core.memory_ops import FetchAdd

    total = 0
    for round_, gap in enumerate(gaps):
        yield gap + (delay if round_ == 0 else 0)
        total += yield FetchAdd(0, 1)
    return total


# ----------------------------------------------------------------------
# tracing: which public functions are wrapped, under which layer names
# ----------------------------------------------------------------------
def instrument(tracer) -> None:
    from repro.memory.module import MemoryModule
    from repro.network.interfaces import MNI, PNI
    from repro.network.multistage import MultistageNetwork
    from repro.network.switch import Switch
    from repro.network.systolic_queue import CombiningQueue
    from repro.network.wait_buffer import WaitBuffer
    from repro.workloads.synthetic import SyntheticTrafficDriver

    def refused(key: str):
        def observe(_args, accepted) -> None:
            if not accepted:
                tracer.count(key)
        return observe

    def skipped(args, _result) -> None:
        tracer.count("kernel.skipped", args[1])

    for attr in ("offer_forward", "offer_return"):
        name = f"network.switch.{attr}"
        tracer.wrap(Switch, attr, name, refused(f"{name}.refused"))
    for attr in ("tick_forward", "tick_return"):
        tracer.wrap(Switch, attr, f"network.switch.{attr}")
    for attr in ("find_partner", "commit_combine"):
        tracer.wrap(CombiningQueue, attr, f"network.systolic_queue.{attr}")
    tracer.wrap(WaitBuffer, "insert", "network.wait_buffer.insert")
    for attr in ("match", "match_all"):
        tracer.wrap(WaitBuffer, attr, "network.wait_buffer.match")
    tracer.wrap(PNI, "tick_outbound", "network.interfaces.pni.tick_outbound")
    tracer.wrap(MNI, "tick", "network.interfaces.mni.tick")
    tracer.wrap(MNI, "tick_outbound", "network.interfaces.mni.tick_outbound")
    tracer.wrap(SyntheticTrafficDriver, "tick", "workloads.synthetic.tick")
    tracer.wrap(MemoryModule, "apply", "memory.module.apply")
    tracer.wrap(MultistageNetwork, "advance_cycle", "kernel.advance_cycle")
    tracer.wrap(MultistageNetwork, "fast_forward", "kernel.fast_forward",
                skipped)


def layer_metrics(tracer, machine, workload: str,
                  objects: int) -> dict[str, float]:
    networks = len(machine.networks)
    out: dict[str, float] = {}
    out["core.machine.build_s"] = tracer.layer("core.machine.build")[1]
    out["core.machine.objects"] = objects
    out["host.gc.build_s"] = tracer.gc_s.get("build", 0.0)
    out["host.gc.gen2_collections"] = tracer.gc_gen2.get("build", 0)
    out["host.gc.run_s"] = tracer.gc_s.get("run", 0.0)
    out["kernel.stepped_cycles"] = (
        tracer.layer("kernel.advance_cycle")[0] / networks)
    out["kernel.skipped_cycles"] = (
        tracer.counts.get("kernel.skipped", 0) / networks)
    switch_self = 0.0
    for attr in ("offer_forward", "offer_return"):
        name = f"network.switch.{attr}"
        out[f"{name}.calls"] = tracer.layer(name)[0]
        out[f"{name}.refused"] = tracer.counts.get(f"{name}.refused", 0)
    for attr in ("offer_forward", "offer_return", "tick_forward",
                 "tick_return"):
        switch_self += tracer.layer(f"network.switch.{attr}")[2]
    out["network.switch.self_s"] = switch_self
    for name in ("network.systolic_queue.find_partner",
                 "network.systolic_queue.commit_combine",
                 "network.wait_buffer.insert",
                 "network.wait_buffer.match",
                 "memory.module.apply"):
        out[f"{name}.calls"] = tracer.layer(name)[0]
    for name in ("network.interfaces.pni.tick_outbound",
                 "network.interfaces.mni.tick"):
        calls, _, self_s = tracer.layer(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    # 0.0 on barrier-4096, whose PEs run programs, not the synthetic driver
    out["workloads.synthetic.tick.self_s"] = (
        tracer.layer("workloads.synthetic.tick")[2])
    return out


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
class BuildWatch:
    """Times every ``Ultracomputer.__init__`` from outside the program and
    keeps the machine it built.

    The ``fig7.simulated`` point function builds its own machine; the
    watch splits its time into the build and the run after it.  In a
    traced repetition the build is the ``core.machine.build`` span and
    garbage collected after it is charged to the run.
    """

    def __init__(self, tracer=None) -> None:
        from repro.core.machine import Ultracomputer

        self.machine = None
        self.build_s = 0.0
        self.built_at = 0.0
        self.objects = 0
        self._owner = Ultracomputer
        self._original = Ultracomputer.__dict__["__init__"]
        original, watch = self._original, self

        def __init__(machine, *args, **kwargs):
            if tracer is not None:
                before = len(gc.get_objects())
                tracer.begin("core.machine.build")
            started = time.perf_counter()
            original(machine, *args, **kwargs)
            watch.built_at = time.perf_counter()
            watch.build_s = watch.built_at - started
            watch.machine = machine
            if tracer is not None:
                tracer.finish()
                watch.objects = len(gc.get_objects()) - before
                tracer.phase = "run"

        Ultracomputer.__init__ = __init__

    def restore(self) -> None:
        self._owner.__init__ = self._original


def run_rep(workload: str, seed: int, tracer=None) -> dict[str, Any]:
    """Build, run and check one repetition; returns timings, the
    simulated statistics and the check tallies."""
    common.import_program()
    # Import what the run phase uses now, so that no import is timed.
    import repro.analysis.configurations  # noqa: F401
    import repro.analysis.queueing  # noqa: F401
    import repro.workloads.synthetic  # noqa: F401
    from repro.exp import registry

    if workload not in SIM_WORKLOADS:
        raise ValueError(f"unknown simulator workload {workload!r}")
    if tracer is not None:
        instrument(tracer)
        tracer.watch_gc()
    watch = BuildWatch(tracer)
    try:
        if workload == "fig7-uniform-4096":
            experiment, params = fig7_point(seed)
            point = registry.resolve(experiment)
            payload = point(params)
            run_s = time.perf_counter() - watch.built_at
            sim, failures, attempted = _check_fig7(watch.machine, params,
                                                   payload)
        else:
            run_s, sim, failures, attempted = _run_barrier(watch, seed)
    finally:
        watch.restore()
    machine = watch.machine

    out: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "build_s": watch.build_s,
        "run_s": run_s,
        "cycles": sim["sim.cycles"],
        "sim": sim,
        "attempted": attempted,
        "failed": sum(count for _, count in failures),
        "failures": [text for text, _ in failures],
    }
    if tracer is not None:
        tracer.restore()
        out["layers"] = layer_metrics(tracer, machine, workload,
                                      watch.objects)
        stepped = out["layers"]["kernel.stepped_cycles"]
        skipped = out["layers"]["kernel.skipped_cycles"]
        if stepped + skipped != machine.cycle:
            out["failures"].append(
                f"stepped {stepped} + skipped {skipped} cycles != "
                f"{machine.cycle} simulated")
            out["failed"] += 1
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return out


def model_err_pct(config, rate: float, latency: float) -> float:
    """Simulated mean round trip against the Kruskal-Snir uniform-traffic
    prediction at the same mean rate per PE per cycle, in percent."""
    from repro.analysis.queueing import predict_uniform_run

    predicted = predict_uniform_run(
        config.n_pes, config.k, rate,
        mm_latency=config.mm_latency).round_trip
    return 100.0 * (latency - predicted) / predicted


def _check_fig7(machine, params, payload):
    """The simulated statistics of a ``fig7.simulated`` payload, and the
    drain check: every issued request completed."""
    config = machine.config
    issued, completed = payload["issued"], payload["completed"]
    observed_rate = issued / (config.n_pes * params["cycles"])
    latency = payload["observed_mean_round_trip"]
    sim = {
        "sim.cycles": payload["cycles_total"],
        "sim.requests": issued,
        "sim.round_trip_mean_cycles": latency,
        "sim.combining_rate": machine.stats().combining_rate,
        "sim.model_err_pct": model_err_pct(config, observed_rate, latency),
    }
    failures = []
    if completed != issued:
        failures.append((
            f"{issued - completed} of {issued} requests never completed",
            issued - completed))
    return sim, failures, issued


def _run_barrier(watch, seed):
    from repro.core.machine import MachineConfig, Ultracomputer

    gaps, delays = barrier_plan(seed)
    machine = Ultracomputer(MachineConfig(n_pes=BARRIER_PES, kernel="batch"))
    for delay in delays:
        machine.spawn(barrier_program, gaps, delay)
    started = time.perf_counter()
    result = machine.run()
    run_s = time.perf_counter() - started

    per_pe = result.per_pe.values()
    sim = {
        "sim.cycles": machine.cycle,
        "sim.requests": result.requests_issued,
        "sim.round_trip_mean_cycles": result.mean_round_trip,
        "sim.combining_rate": result.combining_rate,
        # How far a combined hot spot is from uniform traffic at the same
        # mean rate; combining is what keeps the two close.
        "sim.model_err_pct": model_err_pct(
            machine.config,
            result.requests_issued / (BARRIER_PES * machine.cycle),
            result.mean_round_trip),
    }
    attempted = BARRIER_PES * len(gaps)
    failures = []
    unfinished = sum(1 for r in per_pe if not r.finished)
    if unfinished:
        failures.append((f"{unfinished} PEs never finished", unfinished))
    if result.requests_issued != attempted:
        failures.append((
            f"{result.requests_issued} fetch-and-adds issued, "
            f"expected {attempted}", 1))
    tickets = sum(r.return_value or 0 for r in per_pe)
    if tickets != attempted * (attempted - 1) // 2:
        failures.append((
            f"fetch-and-add tickets sum to {tickets}, expected "
            f"{attempted * (attempted - 1) // 2}", 1))
    if not result.combining_rate > 0.9:
        failures.append((
            f"combining rate {result.combining_rate:.4f} <= 0.9", 1))
    return run_s, sim, failures, attempted


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=SIM_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-id", default="")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.trace_id)
    rep = run_rep(args.workload, args.seed, tracer)
    if tracer is not None:
        tracer.write(os.path.join(common.WORK, f"trace-{args.workload}.npz"))
    print(json.dumps(rep), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
