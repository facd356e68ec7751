"""Tests for network-copy failover ("enhancing network reliability")."""

import pytest

from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import FetchAdd, Load


def counter_program(pe_id, rounds):
    for _ in range(rounds):
        yield FetchAdd(0, 1)
    return True


class TestFailover:
    def test_failed_copy_is_avoided(self):
        machine = Ultracomputer(MachineConfig(n_pes=8, copies=2))
        machine.fail_network_copy(0)
        machine.spawn_many(8, counter_program, 4)
        machine.run()
        assert machine.peek(0) == 32
        routed = [
            sum(s.stats.requests_routed for row in net.stages for s in row)
            for net in machine.networks
        ]
        assert routed[0] == 0  # nothing touched the failed copy
        assert routed[1] > 0

    @staticmethod
    def _failover_mid_run(kernel):
        """Drain, fail a copy, keep computing: correctness unaffected."""
        machine = Ultracomputer(MachineConfig(n_pes=8, copies=2, kernel=kernel))
        machine.spawn_many(8, counter_program, 3)
        machine.run()
        assert machine.peek(0) == 24
        machine.fail_network_copy(1)
        machine.spawn_many(0, counter_program, 0)  # no-op; reuse machine
        machine.programs.spawn_many(0, counter_program, 0)
        # Run a second wave on an extra ProgramDriver: it has no wake
        # contract, so the batch kernel ticks it every cycle.
        from repro.core.machine import ProgramDriver

        second = ProgramDriver(machine)
        machine.attach_driver(second)
        second.spawn_many(8, counter_program, 3)
        machine.run()
        assert machine.peek(0) == 48
        return machine.stats().to_dict()

    @pytest.mark.parametrize("kernel", ["dense", "batch"])
    def test_failover_mid_run(self, kernel):
        assert self._failover_mid_run(kernel) == self._failover_mid_run("dense")

    def test_cannot_fail_last_copy(self):
        machine = Ultracomputer(MachineConfig(n_pes=8, copies=1))
        with pytest.raises(ValueError, match="last"):
            machine.fail_network_copy(0)

    def test_cannot_fail_unknown_or_failed_copy(self):
        machine = Ultracomputer(MachineConfig(n_pes=8, copies=2))
        machine.fail_network_copy(0)
        with pytest.raises(ValueError, match="not in service"):
            machine.fail_network_copy(0)

    def test_cannot_fail_copy_with_traffic(self):
        machine = Ultracomputer(MachineConfig(n_pes=8, copies=2))
        pni = machine.pnis[0]
        pni.issue(Load(0), 0)
        machine.step()  # request enters some copy
        target = next(
            i for i, net in enumerate(machine.networks) if not net.is_drained()
        )
        with pytest.raises(RuntimeError, match="in flight"):
            machine.fail_network_copy(target)

    def test_degraded_bandwidth_not_correctness(self):
        """Losing a copy under load: everything still completes, just
        slower than the two-copy machine."""
        from repro.workloads.synthetic import SyntheticTrafficDriver, TrafficSpec

        latencies = {}
        for healthy in (2, 1):
            machine = Ultracomputer(
                MachineConfig(n_pes=16, copies=2, combining=False)
            )
            if healthy == 1:
                machine.fail_network_copy(1)
            driver = SyntheticTrafficDriver(
                machine, TrafficSpec(rate=0.30, seed=5)
            )
            machine.attach_driver(driver)
            machine.run_cycles(600)
            stats = driver.stats()
            assert stats.completed > 0
            latencies[healthy] = stats.mean_latency
        assert latencies[1] > latencies[2]
