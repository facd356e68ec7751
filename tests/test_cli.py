"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("demo", "fig7", "table1", "packaging", "hotspot",
                        "stats", "trace", "timeline", "drift"):
            args = parser.parse_args([command])
            assert args.command == command


class TestCommands:
    def test_demo_prints_combining_story(self, capsys):
        assert main(["demo", "--pes", "8"]) == 0
        out = capsys.readouterr().out
        assert "final counter:     32" in out
        assert "memory accesses:" in out

    def test_fig7_prints_curves(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "k=4 d=2" in out
        assert "sat" in out  # saturated entries rendered

    def test_packaging_prints_paper_numbers(self, capsys):
        assert main(["packaging"]) == 0
        out = capsys.readouterr().out
        assert "65536" in out
        assert "352" in out and "672" in out

    def test_hotspot_shows_both_columns(self, capsys):
        assert main(["hotspot", "--pes", "8"]) == 0
        out = capsys.readouterr().out
        assert "combining" in out and "serialized" in out
        assert "combines by switch stage" in out
        assert "round-trip histogram" in out

    def test_table1_prints_four_rows(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        for name in ("weather-16", "weather-48", "tred2-16", "poisson-16"):
            assert name in out

    def test_table2_quick(self, capsys):
        assert main(["table2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Table 3" in out
        assert "N\\PE" in out

    def test_fig7_plot(self, capsys):
        assert main(["fig7", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "T (cycles)" in out
        assert "k=4 d=2" in out

    def test_fig7_cross_topology_table_and_chart(self, capsys):
        assert main(["fig7", "--topology", "omega", "--topology", "mesh",
                     "--rate", "0.05", "--cycles", "120", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7 across fabrics" in out
        assert "fabric" in out and "mesh" in out and "omega" in out
        # the latency-vs-load chart with one legend entry per fabric
        assert "mean round trip (cycles)" in out

    def test_fig7_cross_topology_json(self, capsys):
        assert main(["fig7", "--topology", "hypercube", "--rate", "0.05",
                     "--cycles", "120", "--json", "--no-cache"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (point,) = payload["results"]
        assert point["topology"] == "hypercube"
        assert point["issued"] == point["completed"] > 0
        assert point["predicted_round_trip"] > 0

    def test_fig7_invalid_topology_size_is_actionable(self, capsys):
        with pytest.raises(ValueError, match="nearest valid sizes"):
            main(["fig7", "--topology", "mesh", "--pes", "8",
                  "--rate", "0.05", "--no-cache"])

    def test_drift_topology_flag(self, capsys):
        assert main(["drift", "--topology", "hypercube", "--cycles", "400",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "hypercube fabric" in out

    def test_queue_race(self, capsys, monkeypatch):
        import pathlib

        monkeypatch.chdir(pathlib.Path(__file__).resolve().parents[1])
        assert main(["queue"]) == 0
        out = capsys.readouterr().out
        assert "lock-free" in out and "locked" in out

    def test_stats_prints_metrics_table(self, capsys):
        assert main(["stats", "--pes", "8"]) == 0
        out = capsys.readouterr().out
        assert "network.combines{stage=0}" in out
        assert "machine.round_trip_cycles" in out

    def test_trace_prints_events(self, capsys):
        assert main(["trace", "--pes", "4", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "issue" in out
        assert out.count("\n") <= 7  # header + 5 events + trailing

    def test_trace_warns_on_truncation(self, capsys):
        assert main(["trace", "--pes", "8", "--rounds", "4",
                     "--capacity", "16", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "WARNING: trace truncated" in out
        assert "--capacity" in out

    def test_trace_chrome_export(self, capsys, tmp_path):
        path = tmp_path / "perfetto.json"
        assert main(["trace", "--pes", "4", "--chrome", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ui.perfetto.dev" in out
        doc = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_stats_trace_capacity_reports_latency(self, capsys):
        assert main(["stats", "--pes", "8", "--trace-capacity", "4096"]) == 0
        out = capsys.readouterr().out
        assert "transit latency:" in out
        assert "p50=" in out and "max=" in out

    def test_stats_warns_on_truncated_trace(self, capsys):
        assert main(["stats", "--pes", "8", "--trace-capacity", "16"]) == 0
        out = capsys.readouterr().out
        assert "WARNING: trace truncated" in out

    def test_timeline_prints_table_and_plots(self, capsys):
        assert main(["timeline", "--pes", "8", "--cycles", "300",
                     "--window", "100"]) == 0
        out = capsys.readouterr().out
        assert "fwd pkts" in out and "mm util" in out
        assert "-- forward_packets --" in out
        assert "x: cycle" in out

    def test_drift_prints_stage_table(self, capsys):
        assert main(["drift", "--cycles", "500"]) == 0
        out = capsys.readouterr().out
        assert "analytic drift monitor" in out
        assert "rel error" in out
        assert "round trip:" in out
        assert "ok — every error within" in out

    def test_drift_strict_fails_on_tiny_threshold(self, capsys):
        assert main(["drift", "--cycles", "300", "--strict",
                     "--threshold", "0.000001"]) == 1
        out = capsys.readouterr().out
        assert "WARNING:" in out

    def test_drift_non_strict_warns_but_succeeds(self, capsys):
        assert main(["drift", "--cycles", "300",
                     "--threshold", "0.000001"]) == 0
        assert "WARNING:" in capsys.readouterr().out


class TestJsonOutput:
    """Every --json path emits the same envelope: schema_version,
    command, optional spec/sweep echoes, and the payload in results."""

    @staticmethod
    def _envelope(capsys, command):
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["command"] == command
        return payload

    def test_demo_json(self, capsys):
        assert main(["demo", "--pes", "8", "--json"]) == 0
        payload = self._envelope(capsys, "demo")
        assert payload["results"]["final_counter"] == 32
        assert payload["results"]["requests_issued"] == 32

    def test_fig7_json(self, capsys):
        assert main(["fig7", "--json"]) == 0
        payload = self._envelope(capsys, "fig7")
        assert payload["spec"]["experiment"] == "fig7.design_curve"
        assert payload["sweep"]["cached_points"] == 0
        assert len(payload["results"]) == 6
        assert all("points" in s for s in payload["results"])

    def test_fig7_simulate_json_defaults_to_spec_kernel(self, capsys):
        """Without --kernel, the spec function's own default (batch for
        the simulated Figure 7 points) decides — the CLI adds none."""
        assert main(["fig7", "--simulate", "--pes", "16", "--cycles", "20",
                     "--rate", "0.05", "--no-cache", "--json"]) == 0
        payload = self._envelope(capsys, "fig7")
        assert payload["spec"]["base"]["kernel"] == "batch"
        assert [p["kernel"] for p in payload["results"]] == ["batch"]

    def test_fig7_json_second_run_is_cached(self, capsys):
        assert main(["fig7", "--json"]) == 0
        capsys.readouterr()
        assert main(["fig7", "--json"]) == 0
        payload = self._envelope(capsys, "fig7")
        assert payload["sweep"]["cached_points"] == 6
        assert payload["sweep"]["computed_points"] == 0

    def test_table1_json(self, capsys):
        assert main(["table1", "--json"]) == 0
        payload = self._envelope(capsys, "table1")
        programs = {row["program"] for row in payload["results"]}
        assert programs == {
            "weather-16", "weather-48", "tred2-16", "poisson-16",
        }

    def test_hotspot_json(self, capsys):
        assert main(["hotspot", "--pes", "8", "--json"]) == 0
        payload = self._envelope(capsys, "hotspot")
        on = payload["results"]["combining"]
        off = payload["results"]["serialized"]
        assert on["memory_accesses"] < off["memory_accesses"]

    def test_queue_json(self, capsys):
        assert main(["queue", "--json"]) == 0
        payload = self._envelope(capsys, "queue")
        assert [row["pes"] for row in payload["results"]] == [2, 4, 8, 16]

    def test_packaging_json(self, capsys):
        assert main(["packaging", "--json"]) == 0
        payload = self._envelope(capsys, "packaging")
        assert payload["pes"] == 4096
        assert any(row["value"] == 4096 for row in payload["results"])

    def test_stats_json_carries_metrics(self, capsys):
        assert main(["stats", "--pes", "8", "--json"]) == 0
        payload = self._envelope(capsys, "stats")["results"]
        names = {sample["name"] for sample in payload["metrics"]}
        assert "network.combines" in names
        assert "machine.round_trip_cycles" in names
        stage_counts = [
            sample["value"] for sample in payload["metrics"]
            if sample["name"] == "network.combines"
        ]
        assert sum(stage_counts) == payload["combines"]

    def test_trace_json(self, capsys):
        assert main(["trace", "--pes", "4", "--limit", "3", "--json"]) == 0
        envelope = self._envelope(capsys, "trace")
        payload = envelope["results"]
        assert len(payload) == 3
        assert all(event["kind"] == "issue" for event in payload)
        assert envelope["dropped"] == 0
        assert envelope["total_events"] > 3

    def test_trace_json_surfaces_dropped_count(self, capsys):
        assert main(["trace", "--pes", "8", "--rounds", "4",
                     "--capacity", "16", "--json"]) == 0
        envelope = self._envelope(capsys, "trace")
        assert envelope["dropped"] > 0

    def test_trace_json_combine_events_carry_tag2(self, capsys):
        assert main(["trace", "--pes", "4", "--json"]) == 0
        payload = self._envelope(capsys, "trace")["results"]
        combines = [e for e in payload if e["kind"] == "combine"]
        assert combines
        assert all("tag2" in e for e in combines)

    def test_trace_json_chrome_path_echoed(self, capsys, tmp_path):
        path = tmp_path / "perfetto.json"
        assert main(["trace", "--pes", "4", "--chrome", str(path),
                     "--json"]) == 0
        envelope = self._envelope(capsys, "trace")
        assert envelope["chrome_trace"] == str(path)
        assert path.exists()

    def test_stats_json_carries_latency_and_dropped(self, capsys):
        assert main(["stats", "--pes", "8", "--trace-capacity", "4096",
                     "--json"]) == 0
        payload = self._envelope(capsys, "stats")["results"]
        assert payload["trace_dropped"] == 0
        assert payload["latency"]["count"] == payload["requests_issued"]
        assert payload["latency"]["max"] >= payload["latency"]["p50"]

    def test_timeline_json(self, capsys):
        assert main(["timeline", "--pes", "8", "--cycles", "300",
                     "--window", "100", "--json"]) == 0
        envelope = self._envelope(capsys, "timeline")
        assert envelope["spec"]["experiment"] == "obs.timeline"
        samples = envelope["results"]["samples"]
        assert [s["cycle"] for s in samples] == [100, 200, 300]

    def test_drift_json(self, capsys):
        assert main(["drift", "--cycles", "500", "--json"]) == 0
        envelope = self._envelope(capsys, "drift")
        assert envelope["spec"]["experiment"] == "obs.drift"
        report = envelope["results"]
        assert report["ok"] is True
        assert report["stages"]
        assert report["round_trip"]["rel_error"] < report["threshold"]


class TestSweepFlags:
    def test_no_cache_never_caches(self, capsys):
        assert main(["fig7", "--json", "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["fig7", "--json", "--no-cache"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sweep"]["cached_points"] == 0

    def test_refresh_recomputes(self, capsys):
        assert main(["fig7", "--json"]) == 0
        capsys.readouterr()
        assert main(["fig7", "--json", "--refresh"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sweep"]["cached_points"] == 0
        assert payload["sweep"]["computed_points"] == 6

    def test_cache_dir_flag(self, capsys, tmp_path):
        cache_dir = tmp_path / "elsewhere"
        assert main(["fig7", "--json", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert any(cache_dir.rglob("*.json"))
        assert main(["fig7", "--json", "--cache-dir", str(cache_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sweep"]["cached_points"] == 6


class TestSeedFlag:
    def test_seed_zero_is_lockstep_default(self, capsys):
        assert main(["demo", "--pes", "8", "--seed", "0", "--json"]) == 0
        zero = json.loads(capsys.readouterr().out)
        assert main(["demo", "--pes", "8", "--json"]) == 0
        default = json.loads(capsys.readouterr().out)
        assert zero == default

    def test_seed_changes_arrival_pattern_reproducibly(self, capsys):
        assert main(["demo", "--pes", "8", "--seed", "7", "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["demo", "--pes", "8", "--seed", "7", "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert main(["demo", "--pes", "8", "--json"]) == 0
        lockstep = json.loads(capsys.readouterr().out)
        # staggered start changes timing but not correctness
        assert first["results"]["final_counter"] == 32
        assert first["results"]["cycles"] != lockstep["results"]["cycles"]

    def test_hotspot_seed_flag(self, capsys):
        assert main(["hotspot", "--pes", "8", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "combining" in out and "serialized" in out


class TestSweepCommand:
    def test_parser_knows_sweep_and_cache(self):
        parser = build_parser()
        assert parser.parse_args(["sweep", "fig7"]).command == "sweep"
        assert parser.parse_args(["cache"]).command == "cache"

    def test_sweep_fig7_serial_text_summary(self, capsys):
        assert main(["sweep", "fig7", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "backend=serial" in out
        assert "computed 6" in out

    def test_sweep_backend_parity_serial_vs_sharded(self, capsys, tmp_path):
        assert main(["sweep", "fig7", "--json",
                     "--cache-dir", str(tmp_path / "a")]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["sweep", "fig7", "--json", "--backend", "sharded",
                     "--shards", "2", "--cache-dir", str(tmp_path / "b")]) == 0
        sharded = json.loads(capsys.readouterr().out)
        assert serial["sweep"]["backend"] == "serial"
        assert sharded["sweep"]["backend"] == "sharded"
        assert json.dumps(serial["results"], sort_keys=True) \
            == json.dumps(sharded["results"], sort_keys=True)
        assert sharded["backend_stats"]["workers"] == 2

    def test_sweep_unknown_backend_is_actionable(self):
        with pytest.raises(SystemExit, match="sharded"):
            main(["sweep", "fig7", "--backend", "bogus", "--no-cache"])

    def test_sweep_shards_alone_implies_parallelism(self, capsys):
        assert main(["sweep", "fig7", "--backend", "sharded", "--shards", "2",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "workers=2" in out

    def test_sweep_spec_json_file(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "experiment": "debug.echo",
            "base": {"tag": "cli"},
            "axes": [{"name": "n", "values": [1, 2, 3]}],
            "seed": 4,
        }))
        assert main(["sweep", "--spec-json", str(spec_file), "--json",
                     "--no-cache"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["echo"]["n"] for r in payload["results"]] == [1, 2, 3]

    def test_sweep_without_preset_or_spec_exits(self):
        with pytest.raises(SystemExit, match="preset"):
            main(["sweep", "--no-cache"])

    def test_sweep_adaptive_cross_topology(self, capsys, tmp_path):
        assert main(["sweep", "cross-topology", "--adaptive",
                     "--cycles", "120",
                     "--rate", "0.02", "--rate", "0.05", "--rate", "0.08",
                     "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "adaptive sweep" in out
        assert "seed" in out and "audited estimate error" in out

    def test_sweep_adaptive_json_report(self, capsys, tmp_path):
        assert main(["sweep", "cross-topology", "--adaptive", "--json",
                     "--cycles", "120",
                     "--rate", "0.02", "--rate", "0.05", "--rate", "0.08",
                     "--cache-dir", str(tmp_path / "d")]) == 0
        payload = json.loads(capsys.readouterr().out)
        report = payload["results"]
        assert report["total_points"] == 9  # 3 topologies x 3 rates
        assert report["simulated_points"] + report["skipped_points"] == 9
        assert len(report["points"]) == 9


class TestCacheCommand:
    def test_stats_on_empty_cache(self, capsys, tmp_path):
        assert main(["cache", "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out

    def test_stats_json_after_sweep(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "c")
        assert main(["sweep", "fig7", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "--json", "--cache-dir", cache_dir]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["disk"]["entries"] == 6
        assert payload["results"]["disk"]["bytes"] > 0
        assert "session" in payload["results"]

    def test_clear_removes_entries(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "c")
        assert main(["sweep", "fig7", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "--clear", "--cache-dir", cache_dir]) == 0
        assert "removed 6 entries" in capsys.readouterr().out
        assert main(["cache", "--json", "--cache-dir", cache_dir]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["disk"]["entries"] == 0
