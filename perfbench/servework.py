"""The ``serve-zipf`` workload: a closed-loop client against the serving tier.

The server (``ServeApp`` over a pool-backed ``SweepService``) runs in a
process of its own, started by :func:`start_server` with its one-worker
pool forked before it reports ready, and with an empty cache directory.
The client drives it over one keep-alive connection, sending its next
request only when the previous one has been answered.  So the request
chain is sequential, and :func:`drive` runs the client, the server and
its worker on one CPU: on a virtual machine, handing work to an idle CPU
waits for the hypervisor to wake it, and that wait grows with the load of
other guests.  On the 2-vCPU host this benchmark was tuned on, pinning
made serving 1.4 times faster, and in a slow period of the host it lost
22-26% of its speed instead of 35-39%.

The requests are epochs of a seeded Zipf sequence over a catalogue of
distinct ``fig7.simulated`` specs: the ``fig7-uniform-4096`` point at 64
PEs, each with its own traffic seed.  The Zipf mix is that of
``benchmarks/bench_serve.py`` (exponent 1.2, 32 specs, 600 requests).
Every epoch has the same composition (the same count per rank); each
epoch draws fresh specs, so the first request of every spec is computed
and the rest are cache hits.  ``python3 perfbench/servework.py
--cache-dir D`` is the server process itself.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import http.client
import json
import os
import signal
import subprocess
import sys
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Optional

import common
from simwork import FIG7_CYCLES, FIG7_RATE

SERVE_PES = 64
#: the Zipf mix of benchmarks/bench_serve.py: exponent, catalogue size
#: and requests (per epoch here)
ZIPF_EXPONENT = 1.2
SERVE_DISTINCT = 32
SERVE_REQUESTS = 600
#: the server's pool; the client keeps one request in flight
SERVE_WORKERS = 1
#: units of this workload's metrics.  BENCHMARK.json does not list the
#: workload: on the host the benchmark was tuned on its times spread
#: beyond any bound (see README.md), so it is run by hand.
UNITS = {
    "setup_s": "s", "req_per_s": "req/s", "hit_p50_ms": "ms",
    "miss_p50_ms": "ms", "miss_tail_ms": "ms",
    "exp.cache.hits": "count", "exp.cache.misses": "count",
    "exp.cache.write_bytes": "bytes", "exp.engine.point_ms": "ms",
    "serve.coalesce.followers": "count", "serve.coalesce.ratio": "ratio",
    "serve.http.overhead_ms.cache": "ms",
    "serve.http.overhead_ms.computed": "ms", "trace.overhead_pct": "%",
}
#: server starts per run; set-up time is their median
SERVER_STARTS = 5


# ----------------------------------------------------------------------
# the request sequence
# ----------------------------------------------------------------------
def rank_sequence(seed: int, epoch: int) -> list[int]:
    """Ranks of one epoch's requests in order.

    Rank ``r`` is requested ``max(1, round(R * w_r))`` times with Zipf
    weights ``w_r``, trimmed or padded at rank 0 to exactly R requests, so
    every epoch of every seed has the same counts; the seed and the epoch
    set only the order, and a run averages over as many orders as epochs.
    """
    weights = [1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(SERVE_DISTINCT)]
    scale = SERVE_REQUESTS / sum(weights)
    counts = [max(1, round(w * scale)) for w in weights]
    counts[0] += SERVE_REQUESTS - sum(counts)
    ranks = [r for r, c in enumerate(counts) for _ in range(c)]
    common.derive_rng(seed, "zipf", epoch).shuffle(ranks)
    return ranks


def epoch_specs(seed: int, epoch: int) -> list[Any]:
    """The epoch's catalogue: one spec per rank, distinct from every
    other epoch's.  Each is the ``fig7-uniform-4096`` point (same rate,
    cycles and default kernel) at 64 PEs with a seeded traffic seed, so
    every computation costs about the same and the computed latencies
    have one mode."""
    from repro.exp import figure7_simulated_spec

    rng = common.derive_rng(seed, "serve", epoch)
    return [
        figure7_simulated_spec(
            pes=SERVE_PES, rates=(FIG7_RATE,), cycles=FIG7_CYCLES,
            seed=rng.randrange(1, 2**31),
        )
        for _ in range(SERVE_DISTINCT)
    ]


def results_digest(results: Any) -> str:
    return hashlib.sha256(
        json.dumps(results, sort_keys=True).encode()).hexdigest()


def direct_digest(spec_json: str) -> str:
    """Digest of a direct serial ``SweepRunner`` run of one spec."""
    common.import_program()
    from repro.exp import ExperimentSpec, NullCache, SweepRunner

    spec = ExperimentSpec.from_dict(json.loads(spec_json))
    runner = SweepRunner(cache=NullCache(), backend="serial")
    return results_digest(runner.run(spec).to_dict()["results"])


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
@dataclass
class Server:
    process: subprocess.Popen
    port: int

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        if self.process.stdout is not None:
            self.process.stdout.close()


def start_server(cache_dir: str, trace_id: str = "",
                 trace_out: str = "") -> tuple[Server, float]:
    """Start a server process; returns it with its start-up seconds
    (process start, imports, pool fork and warm-up, socket bound)."""
    command = [sys.executable, os.path.join(common.HERE, "servework.py"),
               "--cache-dir", cache_dir]
    if trace_out:
        command += ["--trace-id", trace_id, "--trace-out", trace_out]
    started = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               cwd=common.ROOT)
    line = process.stdout.readline()
    elapsed = time.perf_counter() - started
    if not line.startswith("READY "):
        process.kill()
        process.wait(timeout=30)
        raise RuntimeError(f"server failed to start: {line!r}")
    return Server(process, int(line.split()[1])), elapsed


async def _serve(args: argparse.Namespace) -> None:
    common.import_program()
    from repro.exp import ResultCache
    from repro.serve import ServeApp, SweepService

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer(args.trace_id)
        _instrument_server(tracer)
    service = SweepService(workers=SERVE_WORKERS,
                           cache=ResultCache(args.cache_dir), backend="pool")
    app = ServeApp(service)
    await app.start("127.0.0.1", 0)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    serving = asyncio.ensure_future(app.serve_forever())
    print(f"READY {app.port}", flush=True)
    await stop.wait()
    serving.cancel()
    try:
        await serving
    except asyncio.CancelledError:
        pass
    await app.stop()
    if tracer is not None:
        tracer.restore()
        tracer.write(args.trace_out)


def _instrument_server(tracer) -> None:
    """Spans for the content store (synchronous, on the event loop) and
    for each sweep execution (a coroutine, so recorded as a root span)."""
    from repro.exp.cache import ResultCache
    from repro.serve.service import SweepService

    tracer.wrap(ResultCache, "get", "exp.cache.get")
    tracer.wrap(ResultCache, "put", "exp.cache.put")
    original = SweepService.__dict__["execute"]

    async def execute(*args, **kwargs):
        started = time.perf_counter()
        try:
            return await original(*args, **kwargs)
        finally:
            tracer.record("exp.engine.execute", started, time.perf_counter())

    tracer.patch(SweepService, "execute", execute)


# ----------------------------------------------------------------------
# the client
# ----------------------------------------------------------------------
@dataclass
class Reply:
    epoch: int
    rank: int
    status: int
    latency_s: float
    served_by: str
    digest: str


class ReplyLog:
    """Replies as recorded during the measurement.

    Flat arrays and byte strings are not tracked by the garbage collector,
    so the load generator's own collections, which grow with every object
    it keeps, stay out of the latencies it measures.  Envelopes are parsed
    afterwards, by :meth:`replies`.
    """

    def __init__(self) -> None:
        self.epoch = array("q")
        self.rank = array("q")
        self.status = array("q")
        self.latency_s = array("d")
        self.bodies: list[bytes] = []

    def __len__(self) -> int:
        return len(self.latency_s)

    def add(self, epoch: int, rank: int, status: int, latency_s: float,
            body: bytes) -> None:
        self.epoch.append(epoch)
        self.rank.append(rank)
        self.status.append(status)
        self.latency_s.append(latency_s)
        self.bodies.append(body)

    def replies(self) -> list[Reply]:
        out = []
        for i, body in enumerate(self.bodies):
            served_by, digest = "error", ""
            if self.status[i] == 200:
                envelope = json.loads(body)
                served_by = envelope["served_by"]
                digest = results_digest(envelope["results"])
            out.append(Reply(self.epoch[i], self.rank[i], self.status[i],
                             self.latency_s[i], served_by, digest))
        return out


def _post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
    conn.request("POST", "/run", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def run_epoch(conn: http.client.HTTPConnection, log: ReplyLog, epoch: int,
              ranks: list[int], bodies: list[bytes], tracer=None) -> None:
    """Send one epoch's requests in order as a closed loop, recording
    each reply in ``log``."""
    for rank in ranks:
        started = time.perf_counter()
        try:
            status, data = _post(conn, bodies[rank])
        except (OSError, http.client.HTTPException):
            status, data = 0, b""
            conn.close()  # the next request reconnects
        finished = time.perf_counter()
        if tracer is not None:
            tracer.record("serve.request", started, finished)
        log.add(epoch, rank, status, finished - started, data)


def prometheus_value(text: str, name: str) -> float:
    """Sum of every sample of one metric family in Prometheus text."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name + "{") or line.startswith(name + " "):
            total += float(line.rsplit(" ", 1)[1])
    return total


def drive(seed: int, seconds: float, run_dir: str,
          tracer=None, trace_out: str = "") -> dict[str, Any]:
    """Set up, measure for ``seconds`` (whole epochs), collect the
    server's counters, stop, then check every reply.  Set-up and
    measurement run on one CPU, the check on all."""
    from repro.serve import ServeClient

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})  # the server inherits it
    try:
        setup_samples = []
        for start in range(SERVER_STARTS):
            cache_dir = os.path.join(run_dir, f"cache-{start}")
            os.makedirs(cache_dir)
            server, elapsed = start_server(
                cache_dir, tracer.trace_id if tracer is not None else "",
                trace_out)
            setup_samples.append(elapsed)
            if start < SERVER_STARTS - 1:
                server.stop()

        log = ReplyLog()
        spec_json: dict[tuple[int, int], str] = {}
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=120)
        try:
            epoch_s: list[float] = []
            epoch = 0
            while sum(epoch_s) < seconds or epoch < 2:
                specs = epoch_specs(seed, epoch)
                bodies = []
                for rank, spec in enumerate(specs):
                    text = json.dumps(spec.to_dict(), sort_keys=True)
                    spec_json[(epoch, rank)] = text
                    bodies.append(text.encode())
                started = time.perf_counter()
                run_epoch(conn, log, epoch, rank_sequence(seed, epoch),
                          bodies, tracer)
                epoch_s.append(time.perf_counter() - started)
                epoch += 1
            client = ServeClient("127.0.0.1", server.port)
            stats = client.stats()
            metrics_text = client.metrics()
        finally:
            conn.close()
            server.stop()
    finally:
        os.sched_setaffinity(0, cpus)

    replies = log.replies()
    failures = _check(replies, spec_json, epoch, len(cpus))
    return {
        "setup_samples": setup_samples,
        "epoch_s": epoch_s,
        "epochs": epoch,
        "replies": replies,
        "stats": stats,
        "metrics_text": metrics_text,
        "failures": failures,
    }


def _check(replies: list[Reply], spec_json: dict[tuple[int, int], str],
           epochs: int, workers: int) -> list[tuple[str, int]]:
    failures: list[tuple[str, int]] = []
    bad_status = sum(1 for r in replies if r.status != 200)
    if bad_status:
        failures.append((f"{bad_status} responses were not 200", bad_status))
    for epoch in range(epochs):
        computed = sum(1 for r in replies
                       if r.epoch == epoch and r.served_by == "computed")
        if computed != SERVE_DISTINCT:
            failures.append((
                f"epoch {epoch}: {computed} computed responses, expected "
                f"{SERVE_DISTINCT} (the distinct specs)", 1))
    digests: dict[tuple[int, int], set[str]] = {}
    for reply in replies:
        if reply.status == 200:
            digests.setdefault((reply.epoch, reply.rank), set()).add(
                reply.digest)
    keys = sorted(digests)
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=get_context("spawn")) as pool:
        expected = list(pool.map(direct_digest,
                                 [spec_json[key] for key in keys],
                                 chunksize=8))
    for key, want in zip(keys, expected):
        wrong = digests[key] - {want}
        if wrong:
            count = sum(1 for r in replies
                        if (r.epoch, r.rank) == key and r.digest != want)
            failures.append((
                f"epoch {key[0]} rank {key[1]}: {count} payloads differ "
                f"from a direct serial run", count))
    return failures


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="serve-zipf server process")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-id", default="")
    parser.add_argument("--trace-out", default="")
    asyncio.run(_serve(parser.parse_args(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
