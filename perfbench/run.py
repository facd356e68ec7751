"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it measures the
end-to-end metrics with no tracing; with ``--trace 1`` it makes one
untraced and one traced pass and reports the per-layer metrics, the
per-layer table and the tracing overhead.  Either way it checks the
program's outputs, and the last line of standard output is the result
object.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import uuid
from typing import Any

import common
import servework
from simwork import SIM_WORKLOADS

WORKLOADS = SIM_WORKLOADS + ("serve-zipf",)
#: a simulator run makes at least this many repetitions, each in a fresh
#: process; set-up time and throughput are their medians
MIN_SIM_REPS = 3
EXPECTED_SIM = os.path.join(common.HERE, "expected_sim.json")


class Tally:
    """Failed operations against attempted ones, with what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        self.notes.append(note)


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------
def sim_rep(workload: str, seed: int, trace_id: str = "") -> dict[str, Any]:
    """One repetition in a fresh process (see simwork.py)."""
    command = [sys.executable, os.path.join(common.HERE, "simwork.py"),
               "--workload", workload, "--seed", str(seed)]
    if trace_id:
        command += ["--trace", "1", "--trace-id", trace_id]
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=common.ROOT, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} repetition failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_sim(workload: str, seed: int, reps: list[dict[str, Any]],
              tally: Tally) -> None:
    """Every repetition passed its own checks, all agree on every
    simulated statistic, and the statistics match the recorded values
    for this seed when the seed has been recorded."""
    for rep in reps:
        tally.attempted += rep["attempted"]
        tally.notes.extend(rep["failures"])
        tally.failed += rep["failed"]
    first = reps[0]["sim"]
    for rep in reps[1:]:
        if rep["sim"] != first:
            tally.fail(f"simulated statistics differ between repetitions: "
                       f"{first} vs {rep['sim']}")
    with open(EXPECTED_SIM, encoding="utf-8") as handle:
        recorded = json.load(handle).get(workload, {}).get(str(seed))
    if recorded is None:
        print(f"seed {seed}: no recorded {workload} statistics; checked "
              f"across repetitions only")
    elif recorded != first:
        tally.fail(f"simulated statistics {first} differ from those "
                   f"recorded for seed {seed}: {recorded}")


def run_sim(workload: str, seed: int, seconds: float,
            tally: Tally) -> dict[str, float]:
    reps: list[dict[str, Any]] = []
    measured = 0.0
    while len(reps) < MIN_SIM_REPS or measured < seconds:
        reps.append(sim_rep(workload, seed))
        measured += reps[-1]["run_s"]
    check_sim(workload, seed, reps, tally)
    for rep in reps:
        print(f"  rep: build {rep['build_s']:.3f} s, run {rep['run_s']:.3f} s"
              f" for {rep['cycles']} cycles, peak RSS "
              f"{rep['peak_rss_mb']:.1f} MB")
    return {
        "setup_s": common.median([r["build_s"] for r in reps]),
        "sim_cycles_per_s":
            common.median([r["cycles"] / r["run_s"] for r in reps]),
        "peak_rss_mb": common.median([r["peak_rss_mb"] for r in reps]),
    }


def trace_sim(workload: str, seed: int, trace_id: str,
              tally: Tally) -> tuple[dict[str, float], float]:
    """Per-layer metrics from a traced repetition, plus the tracing
    overhead against an untraced one (as a share of its throughput)."""
    plain = sim_rep(workload, seed)
    traced = sim_rep(workload, seed, trace_id)
    check_sim(workload, seed, [plain, traced], tally)
    layers = dict(traced["layers"])
    layers.update(traced["sim"])
    # Host time per stepped cycle comes from the untraced pass, which
    # the wrappers do not slow down; the cycle count is the same in both.
    layers["kernel.step_ms"] = (
        1000.0 * plain["run_s"] / layers["kernel.stepped_cycles"])
    plain_rate = plain["cycles"] / plain["run_s"]
    traced_rate = traced["cycles"] / traced["run_s"]
    overhead = 100.0 * (plain_rate - traced_rate) / plain_rate
    print(f"  untraced {plain_rate:.1f} cycles/s, traced "
          f"{traced_rate:.1f} cycles/s")
    return layers, overhead


# ----------------------------------------------------------------------
# the serve workload
# ----------------------------------------------------------------------
def serve_pass(seed: int, seconds: float, run_dir: str, tally: Tally,
               tracer=None) -> dict[str, Any]:
    trace_out = ""
    if tracer is not None:
        trace_out = os.path.join(common.WORK, "trace-serve-zipf-server.npz")
    out = servework.drive(seed, seconds, run_dir, tracer, trace_out)
    tally.attempted += len(out["replies"])
    for note, count in out["failures"]:
        tally.fail(note, count)
    return out


def latencies_ms(out: dict[str, Any], served_by: str) -> list[float]:
    return [1000.0 * r.latency_s for r in out["replies"]
            if r.served_by == served_by]


def request_rate(out: dict[str, Any]) -> float:
    """Median over epochs of requests per second.  Every epoch asks for
    the same work, so a stall of the host moves one epoch, not the run."""
    return common.median([servework.SERVE_REQUESTS / seconds
                          for seconds in out["epoch_s"]])


def serve_metrics(out: dict[str, Any]) -> dict[str, float]:
    metrics = {
        "setup_s": common.median(out["setup_samples"]),
        "req_per_s": request_rate(out),
    }
    tails = {}
    for label, served_by in (("hit", "cache"), ("miss", "computed")):
        values = latencies_ms(out, served_by)
        metrics[f"{label}_p50_ms"] = common.median(values)
        tails[label] = common.tail(values)
        value, percentile, samples = tails[label]
        print(f"  {label}_tail_ms {value:.4f} ms: p{percentile:.2f} of "
              f"{samples} {served_by} samples")
    # The hit tail is printed, not reported: on the host this benchmark
    # was tuned on (with a worker and a connection per CPU), its
    # interquartile range over ten runs was 0.4 to 1.3 times its median,
    # too wide for any bound.
    metrics["miss_tail_ms"] = tails["miss"][0]
    coalesced = len(latencies_ms(out, "coalesced"))
    print(f"  {len(out['replies'])} requests in {out['epochs']} epochs over "
          f"{sum(out['epoch_s']):.3f} s; {coalesced} coalesced")
    return metrics


def serve_layers(out: dict[str, Any]) -> dict[str, float]:
    stats = out["stats"]
    cache = stats["cache"]
    tasks = servework.prometheus_value(out["metrics_text"],
                                       "repro_backend_tasks_total")
    execute_s = servework.prometheus_value(
        out["metrics_text"], "repro_backend_execute_seconds_total")
    layers = {
        "exp.cache.hits": cache["hits"],
        "exp.cache.misses": cache["misses"],
        "exp.cache.write_bytes": cache["bytes_written"],
        "exp.engine.point_ms": 1000.0 * execute_s / tasks,
        "serve.coalesce.followers": stats["by_class"]["coalesced"],
        "serve.coalesce.ratio": stats["coalescing_ratio"],
    }
    for served_by in ("cache", "computed"):
        client = latencies_ms(out, served_by)
        server_ms = stats["latency_us"][served_by]["mean"] / 1000.0
        layers[f"serve.http.overhead_ms.{served_by}"] = (
            sum(client) / len(client) - server_ms)
    return layers


def run_serve(seed: int, seconds: float, trace_id: str, tally: Tally,
              trace: bool) -> tuple[dict[str, float], float]:
    run_dir = os.path.join(common.WORK, f"serve-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        plain = serve_pass(seed, seconds, os.path.join(run_dir, "plain"),
                           tally)
        if not trace:
            return serve_metrics(plain), 0.0
        from tracer import Tracer

        tracer = Tracer(trace_id)
        traced = serve_pass(seed, seconds, os.path.join(run_dir, "traced"),
                            tally, tracer)
        tracer.write(os.path.join(common.WORK, "trace-serve-zipf-client.npz"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    plain_rate = request_rate(plain)
    traced_rate = request_rate(traced)
    overhead = 100.0 * (plain_rate - traced_rate) / plain_rate
    print(f"  untraced {plain_rate:.2f} req/s, traced {traced_rate:.2f} req/s")
    return serve_layers(traced), overhead


# ----------------------------------------------------------------------
def declared() -> dict[str, Any]:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def declared_units() -> dict[str, str]:
    """Each metric's unit, as BENCHMARK.json declares it."""
    manifest = declared()
    return {entry["name"]: entry["unit"]
            for entry in manifest["end_to_end"] + manifest["per_layer"]}


def missing_metrics(workload: str, trace: bool,
                    values: dict[str, float]) -> list[str]:
    """What a workload listed in BENCHMARK.json must report in this mode
    and did not, or reported beyond it."""
    manifest = declared()
    if workload not in {entry["name"] for entry in manifest["workloads"]}:
        return []
    wanted = {entry["name"]
              for entry in manifest["per_layer" if trace else "end_to_end"]}
    return sorted(wanted.symmetric_difference(values))


def print_layers(workload: str, metrics: dict[str, dict[str, Any]],
                 overhead: float) -> None:
    print(f"per-layer metrics, {workload} (traced pass):")
    for name, entry in metrics.items():
        print(f"  {name:48s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"tracing overhead, {workload}: {overhead:.1f}% of untraced "
          f"throughput")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.import_program()
    except common.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    trace_id = uuid.uuid4().hex[:16]
    tally = Tally()
    print(f"{args.workload} seed {args.seed}, trace id {trace_id}")
    if args.workload in SIM_WORKLOADS:
        if args.trace:
            values, overhead = trace_sim(args.workload, args.seed, trace_id,
                                         tally)
        else:
            values = run_sim(args.workload, args.seed, args.seconds, tally)
    else:
        values, overhead = run_serve(args.seed, args.seconds, trace_id,
                                      tally, bool(args.trace))
    if args.trace:
        values["trace.overhead_pct"] = overhead
    wrong = missing_metrics(args.workload, bool(args.trace), values)
    if wrong:
        print(f"perfbench: metrics missing or not declared in BENCHMARK.json:"
              f" {', '.join(wrong)}", file=sys.stderr)
        return 1
    units = (servework.UNITS if args.workload == "serve-zipf"
             else declared_units())
    metrics = {name: common.metric(value, units[name])
               for name, value in values.items()}
    if args.trace:
        print_layers(args.workload, metrics, overhead)
    else:
        for name, entry in metrics.items():
            print(f"  {name:20s} {entry['value']:>14.6g} {entry['unit']}")
    for note in tally.notes:
        print(f"FAILED: {note}")
    common.emit_result(tally.failed == 0, tally.attempted, tally.failed,
                       metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
