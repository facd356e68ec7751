"""Batch-kernel speedup on the low-offered-load regime of Figure 7.

Figure 7's transit-time study lives in the analytic model, but its
operating regime — many PEs, offered load p well below the network's
capacity bound — is exactly where the dense kernel wastes its time
ticking idle switches.  This benchmark reruns that regime on the cycle
simulator: 64 PEs issuing uniform loads separated by compute gaps of
1/p cycles, under both kernels.

Two contracts are asserted, matching the tentpole's acceptance
criteria:

* the kernels are **bit-identical** (``RunResult.to_dict()`` compares
  equal) at every load point;
* the batch kernel is at least **3x faster** in simulated cycles per
  wall-clock second at the lowest offered load.
"""

from __future__ import annotations

import random
import time

from bench_utils import banner

from repro import Load, MachineConfig, Ultracomputer

N_PES = 64
ROUNDS = 24
#: compute gap between references, per PE; offered load p ~= 1/gap.
GAPS = [16, 64, 256]


def _program(pe_id, gap, seed=0):
    rng = random.Random((seed << 20) | pe_id)
    for _ in range(ROUNDS):
        yield gap
        yield Load(rng.randrange(0, 64 * N_PES))


def _run(kernel: str, gap: int):
    machine = Ultracomputer(MachineConfig(n_pes=N_PES, kernel=kernel))
    machine.spawn_many(N_PES, _program, gap)
    start = time.perf_counter()
    result = machine.run()
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_batch_kernel_speedup_low_load(report):
    _run("dense", GAPS[0])  # warm both code paths before timing
    _run("batch", GAPS[0])

    lines = [
        banner(f"kernel speedup, Figure 7 low-load regime "
               f"({N_PES} PEs x {ROUNDS} uniform loads)"),
        f"{'gap':>5} {'p':>7} {'cycles':>8} "
        f"{'dense ms':>9} {'batch ms':>9} "
        f"{'dense cyc/s':>12} {'batch cyc/s':>12} {'speedup':>8}",
    ]
    speedups: dict[int, float] = {}
    for gap in GAPS:
        dense_result, dense_s = _run("dense", gap)
        batch_result, batch_s = _run("batch", gap)
        assert dense_result.to_dict() == batch_result.to_dict(), (
            f"kernels diverged at gap={gap}; the batch kernel must be "
            "observationally invisible"
        )
        cycles = dense_result.cycles
        speedups[gap] = dense_s / batch_s
        lines.append(
            f"{gap:>5} {1 / gap:>7.4f} {cycles:>8} "
            f"{dense_s * 1e3:>9.1f} {batch_s * 1e3:>9.1f} "
            f"{cycles / dense_s:>12.0f} {cycles / batch_s:>12.0f} "
            f"{speedups[gap]:>7.1f}x"
        )
    lines.append(
        f"lowest load (gap={GAPS[-1]}): {speedups[GAPS[-1]]:.1f}x "
        "(acceptance floor: 3x)"
    )
    report("\n".join(lines))

    assert speedups[GAPS[-1]] >= 3.0, (
        f"batch kernel is only {speedups[GAPS[-1]]:.2f}x faster than dense "
        f"at gap={GAPS[-1]}; its quiet-cycle fast-forward has regressed"
    )
