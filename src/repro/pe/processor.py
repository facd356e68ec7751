"""The register-locking processing element (section 3.5).

"To fully utilize the high bandwidth connection network, a PE must
continue execution of the instruction stream immediately after issuing a
request to fetch a value from central memory.  The target register would
be marked 'locked' until the requested value is returned from memory; an
attempt to use a blocked register would suspend execution."

:class:`Processor` implements exactly that: one instruction per cycle,
loads/fetch-and-adds issue through the PNI and lock their destination,
and an instruction whose source or destination register is locked stalls
the pipeline until the reply lands.  The difference between this model
and the blocking PE of :class:`repro.core.machine.ProgramDriver` is the
paper's prefetching argument — measured directly by the latency-hiding
tests and the quickstart example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.memory_ops import FetchAdd, Load, Store
from ..network.interfaces import PNI
from . import isa


@dataclass(slots=True)
class ProcessorStats:
    instructions: int = 0
    stall_cycles: int = 0
    issue_stall_cycles: int = 0
    loads_issued: int = 0
    stores_issued: int = 0
    fetch_adds_issued: int = 0

    @property
    def total_cycles(self) -> int:
        return self.instructions + self.stall_cycles + self.issue_stall_cycles


class Processor:
    """A PE executing a fixed program with register locking."""

    __slots__ = (
        "pe_id",
        "program",
        "pni",
        "registers",
        "locked",
        "_lock_tags",
        "pc",
        "halted",
        "stats",
    )

    def __init__(
        self,
        pe_id: int,
        program: list[isa.Instruction],
        pni: PNI,
        *,
        n_registers: int = 16,
    ) -> None:
        isa.validate_program(program, n_registers)
        self.pe_id = pe_id
        self.program = program
        self.pni = pni
        self.registers = [0] * n_registers
        self.locked: set[int] = set()
        self._lock_tags: dict[int, int] = {}  # tag -> register
        self.pc = 0
        self.halted = False
        self.stats = ProcessorStats()

    # ------------------------------------------------------------------
    def _collect_replies(self, cycle: int) -> None:
        while True:
            reply = self.pni.pop_reply()
            if reply is None:
                return
            register = self._lock_tags.pop(reply.tag, None)
            if register is not None:
                if reply.value is not None:
                    self.registers[register] = reply.value
                self.locked.discard(register)

    def _blocked(self, instr: isa.Instruction) -> bool:
        return any(r in self.locked for r in (*instr.reads(), *instr.writes()))

    def step(self, cycle: int) -> None:
        """Execute (at most) one instruction this cycle."""
        self._collect_replies(cycle)
        if self.halted or self.pc >= len(self.program):
            self.halted = True
            return
        instr = self.program[self.pc]
        if self._blocked(instr):
            self.stats.stall_cycles += 1
            return

        if isinstance(instr, (isa.LoadR, isa.FaaR)):
            if isinstance(instr, isa.LoadR):
                op = Load(self.registers[instr.ra])
            else:
                op = FetchAdd(self.registers[instr.ra], self.registers[instr.rv])
            if not self.pni.can_issue(op):
                self.stats.issue_stall_cycles += 1
                return
            tag = self.pni.issue(op, cycle)
            self.locked.add(instr.rd)
            self._lock_tags[tag] = instr.rd
            if isinstance(instr, isa.LoadR):
                self.stats.loads_issued += 1
            else:
                self.stats.fetch_adds_issued += 1
            self.pc += 1
        elif isinstance(instr, isa.StoreR):
            op = Store(self.registers[instr.ra], self.registers[instr.rs])
            if not self.pni.can_issue(op):
                self.stats.issue_stall_cycles += 1
                return
            tag = self.pni.issue(op, cycle)
            # Stores lock no register; the ack is matched and dropped.
            self._lock_tags[tag] = None  # type: ignore[assignment]
            self.stats.stores_issued += 1
            self.pc += 1
        elif isinstance(instr, isa.Li):
            self.registers[instr.rd] = instr.imm
            self.pc += 1
        elif isinstance(instr, isa.Mov):
            self.registers[instr.rd] = self.registers[instr.rs]
            self.pc += 1
        elif isinstance(instr, isa.Sub):
            self.registers[instr.rd] = (
                self.registers[instr.rs1] - self.registers[instr.rs2]
            )
            self.pc += 1
        elif isinstance(instr, isa.Mul):
            self.registers[instr.rd] = (
                self.registers[instr.rs1] * self.registers[instr.rs2]
            )
            self.pc += 1
        elif isinstance(instr, isa.Add):
            self.registers[instr.rd] = (
                self.registers[instr.rs1] + self.registers[instr.rs2]
            )
            self.pc += 1
        elif isinstance(instr, isa.Addi):
            self.registers[instr.rd] = self.registers[instr.rs] + instr.imm
            self.pc += 1
        elif isinstance(instr, isa.Bnz):
            self.pc = instr.target if self.registers[instr.rs] != 0 else self.pc + 1
        elif isinstance(instr, isa.Bez):
            self.pc = instr.target if self.registers[instr.rs] == 0 else self.pc + 1
        elif isinstance(instr, isa.Jump):
            self.pc = instr.target
        elif isinstance(instr, isa.Halt):
            self.halted = True
            return
        else:  # pragma: no cover - exhaustive over the ISA
            raise TypeError(f"unknown instruction {instr!r}")
        self.stats.instructions += 1

    def done(self) -> bool:
        """Halted with no memory traffic still in flight."""
        return self.halted and not self._lock_tags

    # ------------------------------------------------------------------
    # wake contract (batch kernel fast-forward)
    # ------------------------------------------------------------------
    def _next_op(self, instr: isa.Instruction):
        """The memory op the current instruction would issue, if any."""
        if isinstance(instr, isa.LoadR):
            return Load(self.registers[instr.ra])
        if isinstance(instr, isa.FaaR):
            return FetchAdd(self.registers[instr.ra], self.registers[instr.rv])
        if isinstance(instr, isa.StoreR):
            return Store(self.registers[instr.ra], self.registers[instr.rs])
        return None

    def poll(self) -> str:
        """Classify what :meth:`step` would do this cycle, without doing it.

        Returns one of:

        * ``"active"`` — the step changes machine state (consumes a
          reply, executes an instruction, issues a request, or latches
          ``halted``) and must run on the real clock;
        * ``"stall"`` — register-locked: the step would only bump
          ``stats.stall_cycles`` while waiting for a reply;
        * ``"issue_stall"`` — PNI refuses the op: the step would only
          bump ``stats.issue_stall_cycles``;
        * ``"idle"`` — halted: the step is a pure no-op (any in-flight
          replies wake the PE through ``pni.completed``).
        """
        if self.pni.completed:
            return "active"
        if self.halted:
            return "idle"
        if self.pc >= len(self.program):
            return "active"  # the step that latches `halted` is an event
        instr = self.program[self.pc]
        if self._blocked(instr):
            return "stall"
        op = self._next_op(instr)
        if op is not None and not self.pni.can_issue(op):
            return "issue_stall"
        return "active"

    def fast_forward(self, delta: int) -> None:
        """Apply the counters ``delta`` skipped steps would have made."""
        state = self.poll()
        if state == "stall":
            self.stats.stall_cycles += delta
        elif state == "issue_stall":
            self.stats.issue_stall_cycles += delta


@dataclass(slots=True)
class ProcessorDriver:
    """Machine driver running one :class:`Processor` per PE."""

    processors: list[Processor] = field(default_factory=list)

    def add(self, processor: Processor) -> None:
        self.processors.append(processor)

    def tick(self, cycle: int) -> None:
        for processor in self.processors:
            if not processor.done():
                processor.step(cycle)

    def done(self) -> bool:
        return all(p.done() for p in self.processors)

    # ------------------------------------------------------------------
    # wake contract (batch kernel fast-forward)
    # ------------------------------------------------------------------
    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Register-locking PEs have no multi-cycle local work: every
        state change is either due *now* or triggered by a reply (an
        external stimulus the network/MNI events already cover)."""
        for processor in self.processors:
            if not processor.done() and processor.poll() == "active":
                return cycle
        return None

    def fast_forward(self, delta: int) -> None:
        for processor in self.processors:
            if not processor.done():
                processor.fast_forward(delta)
