"""Simulation kernels: the pluggable registry and the reference kernel.

The Ultracomputer's cycle loop originally ticked every component — every
switch of every network copy, every PNI/MNI, every PE — on every cycle,
even when most of the Omega network was idle.  That is faithful but
wasteful: at low offered load almost all of the work is ticking
components that provably cannot make progress.  This module separates
the *semantics* of a cycle from the *schedule* that executes it:

* :class:`DenseKernel` — the reference kernel.  Ticks everything every
  cycle, exactly as the seed simulator did.  Its behavior is the
  specification.
* ``BatchKernel`` (:mod:`repro.core.batch_kernel`,
  ``MachineConfig(kernel="batch")``) — the fast kernel, on every
  topology.  It mirrors per-stage switch state into numpy arrays,
  visits only components that can act, and fast-forwards globally
  quiet cycles through the wake contract below.

Kernels are *pluggable*: each registers a factory under its config name
with ``KERNELS.register`` (a :class:`repro.util.Registry`); machine
construction looks the name up there and the CLI's ``--kernel`` choices
derive from it, so new kernels need no config or CLI changes.

The contract, enforced by ``tests/integration/test_kernel_equivalence.py``
for every registered kernel: for any workload, the kernel produces a
:class:`~repro.core.results.RunResult` whose ``to_dict()`` — cycles,
combines, per-PE finish times and return values, instrumentation
snapshot, cycle trace — is bit-identical to ``kernel="dense"``.

Wake contract (PNIs, MNIs, networks, and optionally drivers; see
:class:`repro.core.machine.Driver`):

``next_event_cycle(cycle) -> Optional[int]``
    The earliest cycle ``>= cycle`` at which ``tick()`` would do
    anything beyond closed-form counter updates; ``None`` when the
    component is purely waiting on external stimulus (a reply in
    flight) or finished.  Drivers that do not implement the method are
    treated as active every cycle — the kernel then never
    fast-forwards, which keeps open-loop stochastic drivers (whose RNG
    draws are per-cycle) bit-identical.
``fast_forward(delta) -> None``
    Apply the counter updates ``delta`` skipped cycles would have made.
    Only called when ``next_event_cycle`` reported no activity before
    ``cycle + delta``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from ..util import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .machine import Ultracomputer
    from .results import RunResult

__all__ = [
    "DenseKernel",
    "KERNELS",
    "Kernel",
    "KernelFactory",
]


@runtime_checkable
class Kernel(Protocol):
    """What the machine requires of a simulation kernel.

    A kernel owns the cycle loop of one :class:`Ultracomputer`; the
    machine delegates ``step``/``run``/``run_cycles`` to it.  Any
    registered kernel must be *observationally invisible*: for any
    workload its ``RunResult.to_dict()`` — cycles, combines, per-PE
    stats, instrumentation snapshot, cycle trace — must be bit-identical
    to :class:`DenseKernel`, the reference semantics.  The differential
    grid in ``tests/integration/test_kernel_equivalence.py`` enforces
    this for every kernel in the registry.
    """

    name: str

    def step(self) -> None:
        """Execute exactly one machine cycle."""

    def run(self, max_cycles: int = 1_000_000) -> "RunResult":
        """Run to quiescence (or raise RuntimeError at ``max_cycles``)."""

    def run_cycles(self, n: int) -> "RunResult":
        """Advance exactly ``n`` simulated cycles."""


#: A kernel factory receives the fully wired machine and returns a
#: :class:`Kernel` bound to it.  Factories run at machine construction
#: time, so registration stays import-free and the CLI can list every
#: kernel name cheaply.
KernelFactory = Callable[["Ultracomputer"], "Kernel"]

#: Kernel registry keyed by the ``MachineConfig.kernel`` string.  The
#: CLI's ``--kernel`` choices derive from it; every kernel must run
#: every registered topology.
KERNELS: Registry[KernelFactory] = Registry("kernel")


class DenseKernel:
    """Reference kernel: tick every component every cycle.

    The phase order within a cycle is part of the machine's semantics
    (it realizes the paper's pipelining: an MNI reply injected this
    cycle is seen by the last switch stage this cycle, and so on) and is
    identical in every kernel:

    1. MNIs complete/start memory accesses;
    2. requests move one hop toward memory (downstream stages first);
    3. PNIs inject queued requests into stage 0;
    4. replies move one hop toward the PEs;
    5. MNIs inject queued replies at their reply-entry stage;
    6. drivers (PEs) consume replies and issue new work;
    7. every clock advances.
    """

    name = "dense"

    def __init__(self, machine: "Ultracomputer") -> None:
        self.machine = machine

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one cycle, ticking everything (the seed semantics)."""
        m = self.machine
        cycle = m.cycle
        for mni in m.mnis:
            mni.tick(cycle)
        for network in m.networks:
            network.step_forward()
        for pni in m.pnis:
            pni.tick_outbound(cycle, m._inject_request)
        for network in m.networks:
            network.step_return()
        for mni in m.mnis:
            mni.tick_outbound(cycle, m._inject_reply)
        for driver in m.drivers:
            driver.tick(cycle)
        for network in m.networks:
            network.advance_cycle()
        m.cycle += 1

    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 1_000_000) -> "RunResult":
        m = self.machine
        while not m.quiescent():
            if m.cycle >= max_cycles:
                raise self._timeout(max_cycles)
            self.step()
        return m.stats()

    def run_cycles(self, n: int) -> "RunResult":
        for _ in range(n):
            self.step()
        return self.machine.stats()

    # ------------------------------------------------------------------
    def _timeout(self, max_cycles: int) -> RuntimeError:
        m = self.machine
        return RuntimeError(
            f"machine did not quiesce within {max_cycles} cycles "
            f"({sum(n.pending_messages() for n in m.networks)} "
            "messages in flight)"
        )


def _batch_factory(machine: "Ultracomputer") -> "Kernel":
    # Imported at call time: batch_kernel subclasses DenseKernel, so a
    # module-level import here would be circular.
    from .batch_kernel import BatchKernel

    return BatchKernel(machine)


KERNELS.register(DenseKernel.name, DenseKernel)
KERNELS.register("batch", _batch_factory)
