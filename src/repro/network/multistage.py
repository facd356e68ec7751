"""The pipelined, message-switched combining network, any topology.

Assembles the stage grid a :class:`~repro.network.topology.Topology`
describes out of :class:`~repro.network.switch.Switch` instances and
wires it with prebound delivery callables — the generic form of the
Omega assembly (section 3.1), achieving the paper's design objectives
wherever the geometry allows:

1. bandwidth from pipelining + queues + combining;
2. latency of one cycle per traversed stage when queues are empty;
3. identical components throughout (one switch type, arity from the
   topology);
4. routing decisions local to each switch (destination-digit routing);
5. no performance penalty for concurrent access to a single cell
   (pairwise combining at every stage).

The network proper owns only the switches and the wiring; endpoints
(PNIs on the PE side, MNIs on the memory side) are connected through
sink callbacks so the same network serves the full machine, the
synthetic-traffic benchmarks, and the unit tests.
``MultistageNetwork(config, OmegaTopology(n, k))`` is the paper's
Omega network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..instrumentation import DISABLED, Instrumentation
from .message import Message
from .switch import Deliver, Switch
from .topology import Topology

#: Endpoint sinks: called with (endpoint index, message); return True to
#: accept the message this cycle.
Sink = Callable[[int, Message], bool]


@dataclass
class NetworkConfig:
    """Knobs of a network instance (the k/m/d space of section 4).

    ``queue_capacity_packets=None`` models the infinite queues of the
    analytic study; the paper's simulations use 15 packets.  ``copies``
    (the d of section 4.1) is realized by the machine layer instantiating
    several networks and striping traffic across them.  ``k`` is the
    Omega digit base; topologies with a fixed per-node degree (hypercube,
    mesh) size their switches themselves.
    """

    n_ports: int
    k: int = 2
    queue_capacity_packets: Optional[int] = None
    wait_buffer_capacity: Optional[int] = None
    combining: bool = True
    pairwise_only: bool = True


class MultistageNetwork:
    """A topology's stage grid of combining switches, fully wired."""

    def __init__(
        self,
        config: NetworkConfig,
        topology: Topology,
        *,
        instrumentation: Instrumentation = DISABLED,
    ) -> None:
        if topology.n_ports != config.n_ports:
            raise ValueError(
                f"topology has {topology.n_ports} ports but the network "
                f"config says {config.n_ports}"
            )
        self.config = config
        self.topology = topology
        self.instrumentation = instrumentation
        self.stages: list[list[Switch]] = [
            [
                Switch(
                    topology.switch_arity,
                    stage,
                    index,
                    queue_capacity_packets=config.queue_capacity_packets,
                    wait_buffer_capacity=config.wait_buffer_capacity,
                    combining=config.combining,
                    pairwise_only=config.pairwise_only,
                    instrumentation=instrumentation,
                )
                for index in range(topology.switches_per_stage)
            ]
            for stage in range(topology.stages)
        ]
        self.mm_sink: Optional[Sink] = None
        self.pe_sink: Optional[Sink] = None
        self.cycle = 0
        self._build_wiring()

    # ------------------------------------------------------------------
    # static wiring
    # ------------------------------------------------------------------
    def _build_wiring(self) -> None:
        """Resolve the topology's wiring once, then prebind delivery
        callbacks on it.

        ``forward_targets[stage]`` and ``return_targets[stage]`` hold
        every output port's :data:`~repro.network.topology.ForwardTarget`
        / ``ReturnTarget``, flat-indexed by ``switch * arity + port``.
        Stages with identical wiring share one tuple — every inner Omega
        stage is the same shuffle — so the tables cost one row per
        distinct wiring.  The dense path prebinds each port's target
        (switch object and input port, or endpoint line) into its own
        callable, so the per-cycle hot path runs with no lookups or
        tuple unpacking; the batch kernel indexes the tables directly.
        """
        topo = self.topology
        arity = topo.switch_arity
        switches = range(topo.switches_per_stage)
        ports = range(arity)

        def resolve(target_of) -> list[tuple]:
            distinct: dict[tuple, tuple] = {}
            rows = []
            for stage in range(topo.stages):
                row = tuple(
                    target_of(stage, index, port)
                    for index in switches for port in ports
                )
                rows.append(distinct.setdefault(row, row))
            return rows

        self.forward_targets = resolve(topo.forward_target)
        self.return_targets = resolve(topo.return_target)

        def unused(stage: int, f: int) -> Deliver:
            index, port = divmod(f, arity)

            def deliver(msg: Message) -> bool:
                raise AssertionError(
                    f"message routed out unused port {port} of switch "
                    f"{index} at stage {stage} — routing invariant broken"
                )

            return deliver

        def fwd_sink(line: int) -> Deliver:
            def deliver(msg: Message) -> bool:
                return self.mm_sink(line, msg)  # type: ignore[misc]

            return deliver

        def fwd_hop(target: Switch, in_port: int) -> Deliver:
            def deliver(msg: Message) -> bool:
                return target.offer_forward(in_port, msg, self.cycle)

            return deliver

        def ret_sink(line: int) -> Deliver:
            def deliver(msg: Message) -> bool:
                return self.pe_sink(line, msg)  # type: ignore[misc]

            return deliver

        def ret_hop(target: Switch, mm_port: int) -> Deliver:
            def deliver(msg: Message) -> bool:
                return target.offer_return(mm_port, msg, self.cycle)

            return deliver

        def bind_forward(stage: int, f: int) -> Deliver:
            target = self.forward_targets[stage][f]
            if target is None:
                return unused(stage, f)
            if target[0] == "mm":
                return fwd_sink(target[1])
            return fwd_hop(self.stages[stage + 1][target[1]], target[2])

        def bind_return(stage: int, f: int) -> Deliver:
            target = self.return_targets[stage][f]
            if target is None:
                return unused(stage, f)
            if target[0] == "pe":
                return ret_sink(target[1])
            return ret_hop(self.stages[stage - 1][target[1]], target[2])

        def bind_stage(bind, stage: int) -> list[list[Deliver]]:
            return [
                [bind(stage, index * arity + port) for port in ports]
                for index in switches
            ]

        self._fwd_deliver = [
            bind_stage(bind_forward, stage) for stage in range(topo.stages)
        ]
        self._ret_deliver = [
            bind_stage(bind_return, stage) for stage in range(topo.stages)
        ]

    # ------------------------------------------------------------------
    # endpoint attachment
    # ------------------------------------------------------------------
    def connect(self, *, mm_sink: Sink, pe_sink: Sink) -> None:
        self.mm_sink = mm_sink
        self.pe_sink = pe_sink

    # ------------------------------------------------------------------
    # injection (PNI -> stage 0, MNI -> the reply-entry stage)
    # ------------------------------------------------------------------
    def offer_request(self, pe: int, message: Message) -> bool:
        """Inject a request from PE ``pe`` into the first stage."""
        switch_index, in_port = self.topology.inject_point(pe)
        return self.stages[0][switch_index].offer_forward(
            in_port, message, self.cycle
        )

    def offer_reply(self, mm: int, message: Message) -> bool:
        """Inject a reply from MM ``mm`` at the stage its request left
        the grid (the last stage for Omega; the origin's hop distance
        for direct topologies)."""
        stage, switch_index, mm_port = self.topology.reply_entry(
            mm, message.origin
        )
        return self.stages[stage][switch_index].offer_return(
            mm_port, message, self.cycle
        )

    # ------------------------------------------------------------------
    # cycle advance
    # ------------------------------------------------------------------
    def step_forward(self) -> None:
        """Move requests one hop toward memory (downstream stages first,
        so a message advances at most one stage per cycle while freed
        queue slots are reusable within the cycle — full pipelining)."""
        if self.mm_sink is None:
            raise RuntimeError("network endpoints not connected")
        for stage in range(self.topology.stages - 1, -1, -1):
            deliver_row = self._fwd_deliver[stage]
            for switch in self.stages[stage]:
                switch.tick_forward(self.cycle, deliver_row[switch.index])

    def step_return(self) -> None:
        """Move replies one hop toward the PEs (PE-side stages first)."""
        if self.pe_sink is None:
            raise RuntimeError("network endpoints not connected")
        for stage in range(self.topology.stages):
            deliver_row = self._ret_deliver[stage]
            for switch in self.stages[stage]:
                switch.tick_return(self.cycle, deliver_row[switch.index])

    def advance_cycle(self) -> None:
        self.cycle += 1

    # ------------------------------------------------------------------
    # wake contract (batch kernel fast-forward)
    # ------------------------------------------------------------------
    def fast_forward(self, delta: int) -> None:
        """Advance the clock over quiet cycles.

        Only called when no switch holds a resident message: then
        nothing ticks, so the closed form of ``delta`` dense cycles is
        just the clock advance.
        """
        self.cycle += delta

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending_messages(self) -> int:
        return sum(
            switch.pending_messages() for row in self.stages for switch in row
        )

    def pending_wait_records(self) -> int:
        return sum(
            switch.pending_wait_records() for row in self.stages for switch in row
        )

    def total_combines(self) -> int:
        return sum(switch.stats.combines for row in self.stages for switch in row)

    def total_decombines(self) -> int:
        return sum(switch.stats.decombines for row in self.stages for switch in row)

    def is_drained(self) -> bool:
        return self.pending_messages() == 0 and self.pending_wait_records() == 0
