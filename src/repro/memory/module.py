"""Memory modules (MMs) — the shared-memory banks (sections 3.0, 3.1.4).

The central memory is composed of N memory modules, "standard components
consisting of off the shelf memory chips".  A module services one request
at a time with a fixed access latency, which is precisely why the paper
worries about hot modules: "If every PE simultaneously requests a
distinct word from the same MM, these N requests are serviced one at a
time" — the motivation for the address hashing of
:mod:`repro.memory.hashing`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..core.memory_ops import Effect, Op
from ..instrumentation import DISABLED, Instrumentation, OCCUPANCY_BUCKETS


@dataclass(slots=True)
class ServiceRecord:
    """Trace of one completed memory access (for statistics/tests)."""

    offset: int
    started: int
    finished: int


class MemoryModule:
    """One memory bank: a word store plus a serial service port.

    Parameters
    ----------
    index:
        Module number (its network output line).
    latency:
        Access time in network cycles; the paper's simulation uses twice
        the network cycle time (section 4.2).
    """

    __slots__ = (
        "index",
        "latency",
        "storage",
        "_pending",
        "_busy_until",
        "_in_service",
        "accesses",
        "busy_cycles",
        "history",
        "keep_history",
        "_instr",
        "_instr_on",
        "_access_counter",
        "_queue_histogram",
    )

    def __init__(
        self,
        index: int,
        latency: int = 2,
        *,
        instrumentation: Instrumentation = DISABLED,
    ) -> None:
        if latency < 1:
            raise ValueError("memory latency must be at least one cycle")
        self.index = index
        self.latency = latency
        self.storage: dict[int, int] = {}
        self._pending: deque[tuple[Op, int]] = deque()  # (op, enqueue cycle)
        self._busy_until = 0
        self._in_service: Optional[tuple[Op, int]] = None
        # statistics
        self.accesses = 0
        self.busy_cycles = 0
        self.history: list[ServiceRecord] = []
        self.keep_history = False
        # instrumentation (handles cached once; probes gate on _instr_on)
        self._instr = instrumentation
        self._instr_on = instrumentation.enabled
        if instrumentation.enabled:
            self._access_counter = instrumentation.counter(
                "memory.accesses", module=index
            )
            self._queue_histogram = instrumentation.histogram(
                "memory.queue_length", buckets=OCCUPANCY_BUCKETS, module=index
            )
        else:
            self._access_counter = None
            self._queue_histogram = None

    # ------------------------------------------------------------------
    # direct (zero-time) access for initialization and verification
    # ------------------------------------------------------------------
    def peek(self, offset: int) -> int:
        return self.storage.get(offset, 0)

    def poke(self, offset: int, value: int) -> None:
        self.storage[offset] = value

    def apply(self, op: Op) -> Effect:
        """Apply an operation immediately (the MNI adder's arithmetic)."""
        old = self.storage.get(op.address, 0)
        effect = op.apply(old)
        self.storage[op.address] = effect.new_value
        if self._instr_on:
            self._access_counter.inc()
        return effect

    # ------------------------------------------------------------------
    # timed service
    # ------------------------------------------------------------------
    def enqueue(self, op: Op, cycle: int) -> None:
        self._pending.append((op, cycle))
        if self._instr_on:
            self._queue_histogram.observe(self.queue_length)

    @property
    def queue_length(self) -> int:
        return len(self._pending) + (1 if self._in_service else 0)

    def tick(self, cycle: int) -> Optional[tuple[Op, Effect]]:
        """Advance one cycle; return the (op, effect) completed this cycle.

        At most one completion per call — the module is a serial server.
        A new service begins in the same cycle a previous one completes,
        so a saturated module sustains one access per ``latency`` cycles.
        """
        completed: Optional[tuple[Op, Effect]] = None
        if self._in_service is not None and cycle >= self._busy_until:
            op, started = self._in_service
            effect = self.apply(op)
            if self.keep_history:
                self.history.append(
                    ServiceRecord(offset=op.address, started=started, finished=cycle)
                )
            self._in_service = None
            completed = (op, effect)

        if self._in_service is None and self._pending:
            op, _enqueued = self._pending.popleft()
            self._in_service = (op, cycle)
            self._busy_until = cycle + self.latency
            self.accesses += 1

        if self._in_service is not None:
            self.busy_cycles += 1
        return completed


class BankedMemory:
    """The complete central memory: N modules behind the network.

    Provides whole-machine load/dump helpers used by tests to compare
    final memory images against the paracomputer reference, plus
    aggregate hot-spot statistics for the hashing experiments.
    """

    def __init__(
        self,
        n_modules: int,
        latency: int = 2,
        *,
        instrumentation: Instrumentation = DISABLED,
    ) -> None:
        self.modules = [
            MemoryModule(i, latency, instrumentation=instrumentation)
            for i in range(n_modules)
        ]

    def __len__(self) -> int:
        return len(self.modules)

    def __getitem__(self, index: int) -> MemoryModule:
        return self.modules[index]

    def access_counts(self) -> list[int]:
        return [m.accesses for m in self.modules]

    def imbalance(self) -> float:
        """Max/mean access ratio; 1.0 is perfectly balanced traffic."""
        counts = self.access_counts()
        total = sum(counts)
        if total == 0:
            return 1.0
        mean = total / len(counts)
        return max(counts) / mean
