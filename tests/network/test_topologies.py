"""The pluggable topology layer: registry, direct networks, invariants.

Three groups of guarantees:

* the registry (`TOPOLOGIES`, `make_topology`) resolves names and
  validates sizes with actionable messages;
* the hypercube and mesh satisfy the wiring contract the simulator
  relies on — deterministic routes, amalgam-reversible paths,
  reply-entry consistency, exact structural facts;
* property tests (hypothesis): the Omega shuffle/unshuffle bijection
  for every arity, and route interning returning the *same* tuple
  object per destination (what the hot path banks on).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.network import (
    HypercubeTopology,
    MeshTopology,
    OmegaTopology,
    Topology,
    TOPOLOGIES,
    make_topology,
)

ALL_NAMES = ("omega", "hypercube", "mesh")


def build(name: str, n: int):
    return make_topology(name, n, 2)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert set(ALL_NAMES) <= set(TOPOLOGIES.names())

    def test_make_topology_builds_the_right_class(self):
        assert isinstance(build("omega", 16), OmegaTopology)
        assert isinstance(build("hypercube", 16), HypercubeTopology)
        assert isinstance(build("mesh", 16), MeshTopology)

    def test_invalid_size_raises_before_building(self):
        with pytest.raises(ValueError, match="nearest valid sizes"):
            make_topology("hypercube", 100, 2)
        with pytest.raises(ValueError, match="nearest valid sizes"):
            make_topology("mesh", 108, 2)

    def test_protocol_conformance(self):
        for name in ALL_NAMES:
            assert isinstance(build(name, 16), Topology)


# ----------------------------------------------------------------------
# the wiring contract, checked end to end for every (source, dest)
# ----------------------------------------------------------------------
def walk_forward(topo, source: int, dest: int):
    """Follow the routing digits through ``forward_target`` exactly the
    way :class:`MultistageNetwork` wires delivery, recording the amalgam
    (arrival ports) along the way.  Returns (eject_stage, mm, amalgam).
    """
    digits = topo.route_tuple(dest, source)
    switch, in_port = topo.inject_point(source)
    amalgam = {}
    stage = 0
    while True:
        # (switch, arrival port, departure port) — the arrival port is
        # what the amalgam records; the departure port names the queue
        # whose wait buffer holds the combining records.
        amalgam[stage] = (switch, in_port, digits[stage])
        target = topo.forward_target(stage, switch, digits[stage])
        assert target is not None, (
            f"route {source}->{dest} fell off the grid at stage {stage}"
        )
        if target[0] == "mm":
            return stage, target[1], amalgam
        _kind, switch, in_port = target
        stage += 1


def walk_return(topo, eject_stage: int, mm: int, amalgam) -> int:
    """Retrace the amalgam through ``return_target`` back to a PE."""
    stage, switch, _port = topo.reply_entry(mm, amalgam[0][0])
    assert stage == eject_stage
    while True:
        out_port = amalgam[stage][1]
        target = topo.return_target(stage, switch, out_port)
        assert target is not None, (
            f"reply from mm {mm} fell off the grid at stage {stage}"
        )
        if target[0] == "pe":
            assert stage == 0
            return target[1]
        _kind, switch, mm_port = target
        stage -= 1
        assert (switch, mm_port) == amalgam[stage][::2], (
            "reply re-entered a different queue than the request departed"
        )


@pytest.mark.parametrize("name,n", [
    ("omega", 16), ("hypercube", 16), ("mesh", 16), ("mesh", 9),
])
class TestDeliveryInvariants:
    def test_every_pair_delivers_and_returns(self, name, n):
        topo = build(name, n)
        for source in range(n):
            for dest in range(n):
                eject_stage, mm, amalgam = walk_forward(topo, source, dest)
                assert mm == dest
                assert walk_return(topo, eject_stage, mm, amalgam) == source

    def test_forward_path_matches_target_walk(self, name, n):
        topo = build(name, n)
        for source in range(n):
            for dest in range(n):
                path = topo.forward_path(source, dest)
                eject_stage, _mm, amalgam = walk_forward(topo, source, dest)
                assert eject_stage == len(path) - 1
                assert [amalgam[s][0] for s in sorted(amalgam)] == [
                    h.switch for h in path
                ]

    def test_combining_invariant_shared_suffix(self, name, n):
        """Two routes to one destination that meet at a (stage, switch)
        must share their entire remaining digit sequence — the property
        pairwise combining relies on."""
        topo = build(name, n)
        dest = n - 1
        seen: dict[tuple[int, int], tuple] = {}
        for source in range(n):
            digits = topo.route_tuple(dest, source)
            path = topo.forward_path(source, dest)
            for hop in path:
                key = (hop.stage, hop.switch)
                suffix = tuple(digits[hop.stage:len(path)])
                if key in seen:
                    assert seen[key] == suffix
                else:
                    seen[key] = suffix


# ----------------------------------------------------------------------
# per-fabric routing facts
# ----------------------------------------------------------------------
class TestHypercube:
    def test_route_is_lowest_dimension_first(self):
        topo = HypercubeTopology(16)
        assert topo.route_tuple(0b1010, source=0b0000)[:2] == (1, 3)
        assert topo.hop_count(0b1010, 0b0000) == 2

    def test_ports_are_self_reverse(self):
        topo = HypercubeTopology(8)
        for node in range(8):
            for port in range(topo.dimensions):
                neighbor = topo._neighbor(node, port)
                assert topo._neighbor(neighbor, port) == node

    def test_self_route_ejects_immediately(self):
        topo = HypercubeTopology(8)
        stage, mm, _ = walk_forward(topo, 5, 5)
        assert (stage, mm) == (0, 5)

    def test_structural_facts(self):
        topo = HypercubeTopology(16)
        assert topo.n_switches == 16
        assert topo.n_links == 16 * 4 // 2
        assert topo.stages == 5
        assert topo.switch_arity == 5
        assert "dimension-order" in topo.describe()

    def test_hop_classes_match_exact_mean(self):
        topo = HypercubeTopology(16)
        pairs = [(s, d) for s in range(16) for d in range(16)]
        exact = sum(topo.hop_count(s, d) for s, d in pairs) / len(pairs)
        declared = dict(
            (label, count) for label, count, _f in topo.hop_classes()
        )
        assert declared["link"] == pytest.approx(exact)


class TestMesh:
    def test_xy_routing_resolves_x_first(self):
        topo = MeshTopology(16)  # 4x4; node = y*4 + x
        route = topo._link_route(0, 10)  # (0,0) -> (2,2)
        assert route == (topo.EAST, topo.EAST, topo.SOUTH, topo.SOUTH)

    def test_boundary_ports_dangle(self):
        topo = MeshTopology(9)
        assert topo._neighbor(0, topo.WEST) is None
        assert topo._neighbor(0, topo.NORTH) is None
        assert topo._neighbor(8, topo.EAST) is None
        assert topo._neighbor(8, topo.SOUTH) is None
        assert topo.forward_target(0, 0, topo.WEST) is None

    def test_reverse_pairs(self):
        topo = MeshTopology(9)
        assert topo._reverse(topo.EAST) == topo.WEST
        assert topo._reverse(topo.SOUTH) == topo.NORTH

    def test_structural_facts(self):
        topo = MeshTopology(16)
        assert topo.n_switches == 16
        assert topo.n_links == 2 * 4 * 3
        assert topo.stages == 7
        assert topo.switch_arity == 5
        assert "XY" in topo.describe()

    def test_hop_classes_match_exact_mean(self):
        topo = MeshTopology(16)
        r = topo.side
        exact_axis = sum(
            abs(a - b) for a in range(r) for b in range(r)
        ) / (r * r)
        declared = dict(
            (label, count) for label, count, _f in topo.hop_classes()
        )
        assert declared["x-link"] == pytest.approx(exact_axis)
        assert declared["y-link"] == pytest.approx(exact_axis)


# ----------------------------------------------------------------------
# paths_through_switch: range validation (all fabrics) and exactness
# ----------------------------------------------------------------------
class TestPathsThroughSwitch:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_out_of_range_raises(self, name):
        topo = build(name, 16)
        with pytest.raises(ValueError, match="stage"):
            topo.paths_through_switch(-1, 0)
        with pytest.raises(ValueError, match="stage"):
            topo.paths_through_switch(topo.stages, 0)
        with pytest.raises(ValueError, match="switch"):
            topo.paths_through_switch(0, -1)
        with pytest.raises(ValueError, match="switch"):
            topo.paths_through_switch(0, topo.switches_per_stage)

    @pytest.mark.parametrize("name,n", [("hypercube", 8), ("mesh", 9)])
    def test_counts_partition_the_paths(self, name, n):
        """At each stage the per-switch counts must sum to the number
        of (s, d) pairs whose unrolled path reaches that stage."""
        topo = build(name, n)
        lengths = [
            len(topo.forward_path(s, d))
            for s in range(n) for d in range(n)
        ]
        for stage in range(topo.stages):
            total = sum(
                topo.paths_through_switch(stage, sw)
                for sw in range(topo.switches_per_stage)
            )
            assert total == sum(1 for L in lengths if stage < L)


# ----------------------------------------------------------------------
# property tests (hypothesis)
# ----------------------------------------------------------------------
class TestShuffleProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(8, 2), (16, 2), (64, 2), (27, 3), (81, 3),
                            (16, 4), (64, 4), (125, 5)]),
           st.data())
    def test_shuffle_unshuffle_inverse_bijection(self, size_k, data):
        """For every arity k, shuffle and unshuffle are mutually inverse
        permutations of the line space."""
        n, k = size_k
        topo = OmegaTopology(n, k)
        line = data.draw(st.integers(0, n - 1))
        assert topo.unshuffle(topo.shuffle(line)) == line
        assert topo.shuffle(topo.unshuffle(line)) == line

    @pytest.mark.parametrize("n,k", [(8, 2), (27, 3), (64, 4)])
    def test_shuffle_is_a_permutation(self, n, k):
        topo = OmegaTopology(n, k)
        assert sorted(topo.shuffle(line) for line in range(n)) == list(range(n))


class TestRouteInterning:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(ALL_NAMES), st.integers(0, 15), st.integers(0, 15))
    def test_route_tuple_returns_identical_object(self, name, source, dest):
        """The hot path compares and hashes routes by identity; repeated
        lookups must return the *same* interned tuple object."""
        topo = build(name, 16)
        first = topo.route_tuple(dest, source)
        second = topo.route_tuple(dest, source)
        assert first is second

    def test_translation_invariant_routes_share_objects(self):
        """Direct-network routes are keyed by offset, so equal offsets
        intern to one object across sources."""
        cube = HypercubeTopology(16)
        assert cube.route_tuple(5, source=0) is cube.route_tuple(12, source=9)
