"""Property-based tests: the serialization principle under fuzzing.

The paper's correctness claim is that the combining network "appears to
the user as a paracomputer": any batch of simultaneous operations
behaves as if executed in *some* serial order.  Example-based tests pin
specific schedules; here ``hypothesis`` searches the space of increment
multisets, arrival staggers, and combine trees for counterexamples:

* any interleaving of simultaneous fetch-and-adds to one cell conserves
  the sum and returns a serializable multiset of prefix sums;
* folding fetch-and-adds pairwise through ``try_combine`` in any
  association order is itself serializable (combining associativity);
* pairwise combines of mixed operation types match some serial order of
  the two original requests;
* and the dense/batch kernels agree on every generated workload — the
  equivalence grid, fuzzed.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.combining import try_combine
from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import (
    PHI_OPERATORS,
    FetchAdd,
    FetchPhi,
    Load,
    Store,
    Swap,
    TestAndSet,
    as_fetch_phi,
)
from repro.core.serialization import (
    BatchOutcome,
    fetch_add_outcome_valid,
    is_serializable,
)

# Small nonzero magnitudes keep the reconstruction search in
# fetch_add_outcome_valid fast while still exercising ties (equal
# increments) and sign changes.
increments_strategy = st.lists(
    st.integers(min_value=-7, max_value=7), min_size=2, max_size=8
)


def _run_simultaneous_faas(increments, gaps, kernel):
    """Issue one F&A per PE against cell 0 with per-PE start staggers."""
    machine = Ultracomputer(MachineConfig(n_pes=8, kernel=kernel))

    def program(pe_id, increment, gap):
        if gap:
            yield gap
        return (yield FetchAdd(0, increment))

    for pe_id, (increment, gap) in enumerate(zip(increments, gaps)):
        machine.spawn(program, increment, gap)
    result = machine.run(max_cycles=10_000)
    returned = [result.per_pe[pe].return_value for pe in range(len(increments))]
    return returned, machine.peek(0), result.to_dict()


class TestFetchAddSerialization:
    @given(
        increments=increments_strategy,
        gaps=st.lists(st.integers(min_value=1, max_value=5), min_size=8, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_machine_interleavings_serialize_and_conserve(self, increments, gaps):
        gaps = [g if g > 1 else 0 for g in gaps]  # mix immediate and staggered
        returned, final, _ = _run_simultaneous_faas(increments, gaps, "dense")
        assert final == sum(increments)  # conserved sum (cell starts at 0)
        assert fetch_add_outcome_valid(0, increments, returned, final)

    @given(
        increments=increments_strategy,
        gaps=st.lists(st.integers(min_value=1, max_value=5), min_size=8, max_size=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_kernels_agree_on_fuzzed_workloads(self, increments, gaps):
        dense = _run_simultaneous_faas(increments, gaps, "dense")
        batch = _run_simultaneous_faas(increments, gaps, "batch")
        assert dense == batch


class TestCombineAssociativity:
    @given(
        initial=st.integers(min_value=-100, max_value=100),
        increments=increments_strategy,
    )
    @settings(max_examples=100, deadline=None)
    def test_pairwise_fold_is_serializable(self, initial, increments):
        """Fold n F&As left-to-right through try_combine, then unwind the
        decombine stack the way a switch's wait buffer does: the replies
        must be valid prefix sums and the cell must hold the full sum."""
        ops = [FetchAdd(0, e) for e in increments]
        forward = ops[0]
        plans = []
        for op in ops[1:]:
            plan = try_combine(forward, op)
            assert plan is not None  # F&As to one cell always combine
            plans.append(plan)
            forward = plan.forward

        effect = forward.apply(initial)
        final = effect.new_value
        assert final == initial + sum(increments)

        # Most-recent combine first: its rule applies to the raw reply.
        results = [None] * len(ops)
        value = effect.result
        for index, plan in zip(range(len(ops) - 1, 0, -1), reversed(plans)):
            results[index] = plan.new_rule.materialize(value)
            value = plan.old_rule.materialize(value)
        results[0] = value

        assert fetch_add_outcome_valid(initial, increments, results, final)


class TestPhiOperatorAlgebra:
    """The registry's declared algebraic flags, checked on sampled ints.

    Combining correctness leans on these flags (section 2.3 requires phi
    associative for the switches to fold requests in tree order), so a
    mislabelled operator would silently corrupt combined results."""

    @given(
        name=st.sampled_from(sorted(PHI_OPERATORS)),
        a=st.integers(min_value=-1000, max_value=1000),
        b=st.integers(min_value=-1000, max_value=1000),
        c=st.integers(min_value=-1000, max_value=1000),
    )
    @settings(max_examples=300, deadline=None)
    def test_declared_flags_hold(self, name, a, b, c):
        phi = PHI_OPERATORS[name]
        if phi.associative:
            assert phi(phi(a, b), c) == phi(a, phi(b, c))
        if phi.commutative:
            assert phi(a, b) == phi(b, a)


class TestFetchPhiNormalization:
    """``as_fetch_phi`` preserves semantics for every op kind (section
    2.4: each primitive is a special case of fetch-and-phi)."""

    @given(
        address=st.integers(min_value=0, max_value=63),
        operand=st.integers(min_value=-100, max_value=100),
        old=st.integers(min_value=-1000, max_value=1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_normalized_form_matches_original(self, address, operand, old):
        ops = [
            Load(address),
            Store(address, operand),
            Swap(address, operand),
            FetchAdd(address, operand),
            TestAndSet(address),
            FetchPhi(address, operand, PHI_OPERATORS["max"]),
        ]
        for op in ops:
            normalized = as_fetch_phi(op)
            assert isinstance(normalized, FetchPhi)
            assert normalized.address == op.address
            direct = op.apply(old)
            via_phi = normalized.apply(old)
            assert via_phi.new_value == direct.new_value
            if op.expects_value:
                # Store/ack-style ops discard the fetched value; for the
                # rest the normalized form must return the same result.
                assert via_phi.result == direct.result

    def test_fetch_phi_is_identity_and_zero_operand_forms_intern(self):
        phi_op = FetchPhi(3, 5, PHI_OPERATORS["add"])
        assert as_fetch_phi(phi_op) is phi_op
        assert as_fetch_phi(Load(7)) is as_fetch_phi(Load(7))
        assert as_fetch_phi(TestAndSet(9)) is as_fetch_phi(TestAndSet(9))


def _mixed_op(draw_kind, value):
    if draw_kind == "load":
        return Load(0)
    if draw_kind == "store":
        return Store(0, value)
    if draw_kind == "swap":
        return Swap(0, value)
    return FetchAdd(0, value)


class TestMixedPairCombining:
    @given(
        initial=st.integers(min_value=-50, max_value=50),
        old_kind=st.sampled_from(["load", "store", "swap", "faa"]),
        new_kind=st.sampled_from(["load", "store", "swap", "faa"]),
        old_value=st.integers(min_value=-9, max_value=9),
        new_value=st.integers(min_value=-9, max_value=9),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_pairwise_combine_matches_a_serial_order(
        self, initial, old_kind, new_kind, old_value, new_value
    ):
        old = _mixed_op(old_kind, old_value)
        new = _mixed_op(new_kind, new_value)
        plan = try_combine(old, new)
        if plan is None:
            return  # not combinable: nothing to verify
        effect = plan.forward.apply(initial)
        observed = BatchOutcome(
            results=(
                plan.old_rule.materialize(effect.result),
                plan.new_rule.materialize(effect.result),
            ),
            final={0: effect.new_value},
        )
        assert is_serializable({0: initial}, [old, new], observed)
