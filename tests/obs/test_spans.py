"""Span reconstruction: joins, per-stage delays, latency summaries.

The differential tests here are the observability layer's anchor: the
latency summary computed from reconstructed spans must agree exactly
with what the flat trace says, under both kernels.
"""

import json

import pytest

from repro import FetchAdd, MachineConfig, Ultracomputer
from repro.instrumentation import TraceEvent
from repro.obs import IncompleteTraceError, LatencySummary, reconstruct_spans


def _traced_run(pes=8, rounds=3, kernel="dense", capacity=4096):
    machine = Ultracomputer(MachineConfig(
        n_pes=pes, instrument=True, trace_capacity=capacity, kernel=kernel,
    ))

    def program(pe_id):
        for _ in range(rounds):
            yield FetchAdd(0, 1)

    machine.spawn_many(pes, program)
    return machine.run()


class TestReconstruction:
    def test_every_request_gets_a_complete_span(self):
        result = _traced_run()
        spans = reconstruct_spans(result.trace)
        assert len(spans) == result.requests_issued
        assert len(spans.completed()) == result.requests_issued
        for span in spans:
            assert span.complete
            assert span.tag in spans
            # issue -> network -> MM -> back: at least a few cycles
            assert span.transit_latency >= 2

    def test_combine_pairs_match_machine_count(self):
        result = _traced_run()
        spans = reconstruct_spans(result.trace)
        pairs = spans.combine_pairs()
        assert len(pairs) == result.combines > 0
        for absorbed_tag, survivor_tag in pairs:
            assert absorbed_tag in spans
            assert survivor_tag in spans
            assert absorbed_tag in spans[survivor_tag].absorbed
            assert spans[absorbed_tag].combined

    def test_stage_delays_at_least_one_cycle(self):
        # The forward pipeline moves a message at most one stage per
        # cycle, so every observed stage delay is >= 1 (service) cycle.
        result = _traced_run()
        pooled = reconstruct_spans(result.trace).stage_delays()
        assert pooled, "no stage delays reconstructed"
        for delays in pooled.values():
            assert all(delay >= 1 for delay in delays)

    def test_injection_wait_non_negative(self):
        result = _traced_run()
        for span in reconstruct_spans(result.trace):
            if span.hops:
                assert span.injection_wait >= 0

    def test_unknown_event_kind_ignored(self):
        events = [
            TraceEvent("issue", 1, tag=1, pe=0),
            TraceEvent("frobnicate", 2, tag=1),
        ]
        spans = reconstruct_spans(events)
        assert len(spans) == 1


class TestRunResultIntegration:
    def test_spans_and_latency_properties(self):
        result = _traced_run()
        assert result.spans is not None
        assert result.spans is result.spans  # cached, not re-joined
        assert result.latency.count == result.requests_issued

    def test_untraced_run_has_no_spans(self):
        machine = Ultracomputer(MachineConfig(n_pes=4, instrument=True))

        def program(pe_id):
            yield FetchAdd(0, 1)

        machine.spawn_many(4, program)
        result = machine.run()
        assert result.trace is None
        assert result.spans is None
        assert result.latency is None

    def test_to_dict_omits_latency_when_truncated(self):
        result = _traced_run(capacity=16)
        assert result.trace_dropped > 0
        out = result.to_dict()
        assert out["trace_dropped"] == result.trace_dropped
        assert "latency" not in out

    def test_truncated_trace_raises_on_span_access(self):
        result = _traced_run(capacity=16)
        with pytest.raises(IncompleteTraceError, match="trace_capacity"):
            result.spans


class TestLatencyDifferential:
    @pytest.mark.parametrize("kernel", ["dense", "batch"])
    def test_p100_matches_flat_trace_max(self, kernel):
        result = _traced_run(kernel=kernel)
        issues = {
            e.tag: e.cycle for e in result.trace if e.kind == "issue"
        }
        flat_max = max(
            e.cycle - issues[e.tag]
            for e in result.trace
            if e.kind == "reply"
        )
        latency = result.latency
        assert latency.max == flat_max
        assert latency.quantile(1.0) == flat_max

    def test_kernels_export_identical_results(self):
        dense = _traced_run(kernel="dense").to_dict()
        batch = _traced_run(kernel="batch").to_dict()
        assert dense["trace"] == batch["trace"]
        assert dense["latency"] == batch["latency"]
        assert dense == batch

    @pytest.mark.parametrize("kernel", ["dense", "batch"])
    def test_trace_round_trips_through_json(self, kernel):
        out = _traced_run(kernel=kernel).to_dict()
        restored = json.loads(json.dumps(out))
        assert restored["trace"] == out["trace"]
        assert restored["trace_dropped"] == 0
        # zero is a legal pe/stage/value and must survive serialization
        assert any(e.get("pe") == 0 for e in restored["trace"])
        assert any(e.get("stage") == 0 for e in restored["trace"])
        assert any(
            e.get("value") == 0
            for e in restored["trace"]
            if e["kind"] == "reply"
        )


class TestIncompleteTrace:
    def test_dropped_events_raise(self):
        with pytest.raises(IncompleteTraceError, match="dropped 3"):
            reconstruct_spans([], dropped=3)

    def test_unknown_tag_raises(self):
        events = [TraceEvent("reply", 5, tag=7)]
        with pytest.raises(IncompleteTraceError, match="no captured issue"):
            reconstruct_spans(events)

    def test_duplicate_issue_raises(self):
        events = [
            TraceEvent("issue", 1, tag=1, pe=0),
            TraceEvent("issue", 2, tag=1, pe=0),
        ]
        with pytest.raises(IncompleteTraceError, match="duplicate"):
            reconstruct_spans(events)

    def test_combine_with_unknown_survivor_raises(self):
        events = [
            TraceEvent("issue", 1, tag=2, pe=0),
            TraceEvent("combine", 2, tag=2, stage=0, tag2=99),
        ]
        with pytest.raises(IncompleteTraceError, match="survivor"):
            reconstruct_spans(events)


class TestLatencySummary:
    def test_empty(self):
        summary = LatencySummary.from_values([])
        assert summary.count == 0
        assert summary.max == 0
        assert summary.quantile(0.9) == 0.0

    def test_single_value(self):
        summary = LatencySummary.from_values([7])
        assert summary.p50 == summary.p95 == summary.p99 == 7.0
        assert summary.quantile(1.0) == 7.0 == summary.max

    def test_nearest_rank_on_known_sample(self):
        summary = LatencySummary.from_values(range(1, 101))
        assert summary.p50 == 50.0
        assert summary.p95 == 95.0
        assert summary.quantile(1.0) == 100.0
        assert summary.max == 100

    def test_out_of_range_rejected(self):
        summary = LatencySummary.from_values([1, 2])
        with pytest.raises(ValueError):
            summary.quantile(1.5)

    def test_to_dict_shape(self):
        out = LatencySummary.from_values([3, 5, 5]).to_dict()
        assert out == {
            "count": 3, "mean": pytest.approx(13 / 3),
            "p50": 5.0, "p95": 5.0, "p99": 5.0, "max": 5,
        }
