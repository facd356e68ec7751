"""The fleet event log: ring + JSONL sink, readers, flight dumps, and
the merged Chrome trace."""

import json

import pytest

from repro.obs.events import (
    DUMP_SCHEMA,
    EventLog,
    FleetEvent,
    default_dump_dir,
    flight_dump,
    iter_batch_events,
    new_span_id,
    new_trace_id,
    read_dump,
    read_events,
    validate_event,
)
from repro.obs.perfetto import fleet_chrome_trace


class TestEventLog:
    def test_emit_builds_flat_events(self):
        log = EventLog("t" * 16, "driver", enabled=True)
        event = log.emit("claim", span="b0.g1", block=0, gen=1)
        assert event.kind == "claim"
        assert event.trace == "t" * 16
        assert event.worker == "driver"
        assert event.span == "b0.g1"
        raw = event.to_dict()
        assert raw["block"] == 0 and raw["gen"] == 1
        assert validate_event(raw) is raw

    def test_ring_is_bounded_and_tail_is_oldest_first(self):
        log = EventLog("t", "w", capacity=4, enabled=True)
        for i in range(10):
            log.emit("point", index=i)
        tail = log.tail()
        assert [e.fields["index"] for e in tail] == [6, 7, 8, 9]
        assert [e.fields["index"] for e in log.tail(2)] == [8, 9]

    def test_jsonl_sink_is_line_per_event(self, tmp_path):
        path = tmp_path / "events" / "w.jsonl"
        log = EventLog("abc", "shard-0", path=path, enabled=True)
        log.emit("worker_start", pid=1)
        log.emit("claim", span="b0.g1", block=0)
        log.close()
        events = read_events(path)
        assert [e.kind for e in events] == ["worker_start", "claim"]
        assert all(e.trace == "abc" for e in events)

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "w.jsonl"
        good = json.dumps({"ts": 1.0, "kind": "claim", "worker": "w"})
        path.write_text(good + "\n" + good[: len(good) // 2])
        events = read_events(path)
        assert len(events) == 1 and events[0].kind == "claim"

    def test_kill_switch_disables_emission(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_LOG", "0")
        path = tmp_path / "w.jsonl"
        log = EventLog("t", "w", path=path)
        assert log.emit("claim") is None
        assert log.tail() == []
        assert not path.exists()

    def test_disabled_flag_beats_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLEET_LOG", raising=False)
        log = EventLog("t", "w", enabled=False)
        assert log.emit("claim") is None

    def test_ids_are_hex_and_distinct(self):
        assert len(new_trace_id()) == 16
        assert len(new_span_id()) == 8
        int(new_trace_id(), 16)
        assert new_trace_id() != new_trace_id()


class TestValidateEvent:
    @pytest.mark.parametrize("raw", [
        "not a dict",
        {"kind": "x", "worker": "w"},                     # no ts
        {"ts": float("nan"), "kind": "x", "worker": "w"},
        {"ts": float("inf"), "kind": "x", "worker": "w"},
        {"ts": 1.0, "kind": "", "worker": "w"},
        {"ts": 1.0, "kind": "x", "worker": ""},
        {"ts": 1.0, "kind": "x", "worker": "w", "trace": 7},
        {"ts": 1.0, "kind": "x", "worker": "w", "span": 3},
    ])
    def test_rejects_malformed(self, raw):
        with pytest.raises(ValueError):
            validate_event(raw)

    def test_accepts_minimal_and_full(self):
        validate_event({"ts": 1, "kind": "x", "worker": "w"})
        validate_event({"ts": 1.5, "kind": "claim", "worker": "shard-0",
                        "trace": "ab", "span": "b0.g1", "parent": "b0.g0",
                        "block": 0})


class TestBatchReader:
    def test_merges_logs_time_ordered_with_trace_filter(self, tmp_path):
        events_dir = tmp_path / "events"
        a = EventLog("t1", "shard-0", path=events_dir / "shard-0.jsonl",
                     enabled=True)
        b = EventLog("t2", "shard-1", path=events_dir / "shard-1.jsonl",
                     enabled=True)
        a.emit("worker_start")
        b.emit("worker_start")
        a.emit("worker_exit")
        a.close(), b.close()
        merged = iter_batch_events(tmp_path)
        assert len(merged) == 3
        assert [e.ts for e in merged] == sorted(e.ts for e in merged)
        only_t1 = iter_batch_events(tmp_path, trace="t1")
        assert {e.trace for e in only_t1} == {"t1"}
        assert len(only_t1) == 2

    def test_missing_events_dir_is_empty(self, tmp_path):
        assert iter_batch_events(tmp_path / "nope") == []


class TestFlightDump:
    def _events(self, n=5):
        return [FleetEvent(ts=float(i), kind="point", trace="t",
                           worker="shard-0", fields={"index": i})
                for i in range(n)]

    def test_round_trip(self, tmp_path):
        path = flight_dump(tmp_path, "worker-crash", self._events(),
                           trace="t", extra={"batch": "b1"})
        assert path.name.startswith("crash-worker-crash-")
        payload = read_dump(path)
        assert payload["schema"] == DUMP_SCHEMA
        assert payload["reason"] == "worker-crash"
        assert payload["trace"] == "t"
        assert payload["batch"] == "b1"
        assert [e["index"] for e in payload["events"]] == [0, 1, 2, 3, 4]

    def test_limit_keeps_newest(self, tmp_path):
        path = flight_dump(tmp_path, "steal", self._events(10), limit=3)
        payload = read_dump(path)
        assert [e["index"] for e in payload["events"]] == [7, 8, 9]

    def test_read_dump_rejects_wrong_schema(self, tmp_path):
        bogus = tmp_path / "crash-x-1.json"
        bogus.write_text(json.dumps({"schema": "nope", "events": []}))
        with pytest.raises(ValueError):
            read_dump(bogus)

    def test_default_dump_dir_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_DUMPS", str(tmp_path / "d"))
        assert default_dump_dir() == tmp_path / "d"


class TestFleetChromeTrace:
    def _sweep_events(self):
        """A synthetic 2-worker sweep with one steal."""
        t = "trace00trace0000"
        mk = lambda ts, worker, kind, span=None, parent=None, **f: \
            FleetEvent(ts=ts, kind=kind, trace=t, worker=worker,
                       span=span, parent=parent, fields=f)
        return [
            mk(0.00, "driver", "batch_start", tasks=2),
            mk(0.01, "shard-0", "worker_start", pid=11),
            mk(0.01, "shard-1", "worker_start", pid=12),
            mk(0.02, "shard-0", "claim", span="b0.g1", block=0, gen=1),
            mk(0.05, "shard-0", "heartbeat", span="b0.g1", block=0),
            mk(0.30, "shard-1", "steal", span="b0.g2", parent="b0.g1",
               block=0, gen=2, victim_gen=1),
            mk(0.31, "shard-1", "claim", span="b0.g2", block=0, gen=2),
            mk(0.35, "shard-1", "point", span="p1", parent="b0.g2",
               index=0, dur=0.03),
            mk(0.36, "shard-1", "result_write", span="b0.g2", block=0,
               gen=2, points=1),
            mk(0.40, "shard-1", "worker_exit", reason="done"),
            mk(0.41, "driver", "batch_done", complete=True),
        ]

    def test_one_process_track_per_worker(self):
        doc = fleet_chrome_trace(self._sweep_events())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"
                and e.get("name") == "process_name"]
        names = {e["args"]["name"] for e in meta}
        assert names == {"driver", "shard-0", "shard-1"}
        pids = {e["pid"] for e in meta}
        assert len(pids) == 3  # distinct track per process
        assert doc["otherData"]["workers"] == ["driver", "shard-0",
                                               "shard-1"]

    def test_steal_flow_pair_links_thief_claim(self):
        doc = fleet_chrome_trace(self._sweep_events())
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        ends = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == 1 and len(ends) == 1
        assert starts[0]["id"] == ends[0]["id"] == 0
        assert ends[0]["bp"] == "e"
        assert starts[0]["ts"] <= ends[0]["ts"]

    def test_block_and_point_slices(self):
        doc = fleet_chrome_trace(self._sweep_events())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in slices}
        assert "block 0" in names
        assert "point 0" in names
        block = next(e for e in slices if e["name"] == "block 0")
        assert block["dur"] > 0

    def test_trace_filter_drops_foreign_sweeps(self):
        events = self._sweep_events()
        events.append(FleetEvent(ts=9.0, kind="claim", trace="other",
                                 worker="shard-9", span="b5.g1"))
        doc = fleet_chrome_trace(events, trace="trace00trace0000")
        assert "shard-9" not in doc["otherData"]["workers"]

    def test_empty_input(self):
        doc = fleet_chrome_trace([])
        assert doc["traceEvents"] == []
