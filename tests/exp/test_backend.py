"""Execution backends: registry, bit parity, crash recovery, stealing."""

from __future__ import annotations

import json

import pytest

from repro.exp import (
    ExperimentSpec,
    NullCache,
    SweepAxis,
    SweepRunner,
    serial_runner,
)
from repro.exp.backend import (
    BACKENDS,
    ExecutionBackend,
    PoolBackend,
    SerialBackend,
    ShardedBackend,
    ShardedSweepError,
    WorkerCrashError,
    make_backend,
    _shard_of,
)


def canonical(payloads) -> str:
    return json.dumps(payloads, sort_keys=True)


def echo_spec(n=6, seed=3):
    return ExperimentSpec(
        experiment="debug.echo",
        base={"tag": "backend"},
        axes=(SweepAxis("n", tuple(range(n))),),
        seed=seed,
    )


def echo_tasks(n=6):
    return [
        (i, "debug.echo", json.dumps({"n": i, "seed": 0}, sort_keys=True))
        for i in range(n)
    ]


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"serial", "pool", "sharded"} <= set(BACKENDS.names())

    def test_make_backend_unknown_name(self):
        with pytest.raises(KeyError, match="no-such-backend"):
            make_backend("no-such-backend")

    def test_make_backend_constructs_each_builtin(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("pool", workers=2), PoolBackend)
        sharded = make_backend("sharded", shards=2)
        assert isinstance(sharded, ShardedBackend)
        assert sharded.workers == 2

    def test_custom_backend_registration(self, monkeypatch):
        class Custom(ExecutionBackend):
            name = "custom-test"

            def __init__(self, **_):
                pass

        # A private copy of the entries, restored after the test.
        monkeypatch.setattr(BACKENDS, "_entries", dict(BACKENDS._entries))
        BACKENDS.register("custom-test", Custom)
        assert "custom-test" in BACKENDS.names()
        assert isinstance(make_backend("custom-test"), Custom)

    def test_shard_placement_is_stable_and_bounded(self):
        key = "deadbeef" + "0" * 56
        assert _shard_of(key, 4) == int("deadbeef", 16) % 4
        for shards in (1, 2, 3, 7):
            assert 0 <= _shard_of(key, shards) < shards


class TestBitParity:
    """The refactor's core contract: every backend renders the same
    bytes for the same spec."""

    def test_three_backends_bit_identical(self, tmp_path):
        spec = echo_spec()
        rendered = {}
        for name in ("serial", "pool", "sharded"):
            runner = SweepRunner(
                workers=2,
                cache=NullCache(),
                backend=name,
                shards=2,
            )
            result = runner.run(spec)
            assert result.backend == name
            rendered[name] = canonical(result.to_dict()["results"])
        assert rendered["serial"] == rendered["pool"] == rendered["sharded"]

    def test_backend_matches_cache_replay(self, tmp_path):
        from repro.exp import ResultCache

        spec = echo_spec()
        cache = ResultCache(tmp_path / "cache")
        cold = SweepRunner(
            workers=2, cache=cache, backend="sharded", shards=2
        ).run(spec)
        warm = SweepRunner(workers=1, cache=cache).run(spec)
        assert warm.cached_points == spec.n_points
        assert canonical(cold.payloads) == canonical(warm.payloads)

    def test_default_backend_selection_preserved(self):
        # workers=1 -> serial, workers>1 -> pool: the pre-refactor rules
        assert SweepRunner(workers=1, cache=NullCache()).run(
            echo_spec(2)).backend == "serial"
        assert SweepRunner(workers=2, cache=NullCache()).run(
            echo_spec(2)).backend == "pool"


class TestSerialBackend:
    def test_completions_in_submission_order(self):
        completions = list(SerialBackend().run_tasks(echo_tasks(4)))
        assert [index for index, _, _ in completions] == [0, 1, 2, 3]

    def test_stats_accumulate(self):
        backend = SerialBackend()
        list(backend.run_tasks(echo_tasks(3)))
        list(backend.run_tasks(echo_tasks(2)))
        stats = backend.stats()
        assert stats["backend"] == "serial"
        assert stats["batches"] == 2
        assert stats["tasks"] == 5

    def test_point_error_propagates_plainly(self):
        tasks = [(0, "no.such.experiment", "{}")]
        with pytest.raises(KeyError):
            list(SerialBackend().run_tasks(tasks))


class TestPoolBackend:
    def test_worker_crash_rebuilds_pool(self):
        backend = PoolBackend(workers=2)
        crash = [(0, "debug.crash", json.dumps({"code": 3}))]
        try:
            with pytest.raises(WorkerCrashError):
                list(backend.run_tasks(crash))
            assert backend.rebuilds == 1
            # the rebuilt pool serves the next batch normally
            completions = list(backend.run_tasks(echo_tasks(2)))
            assert len(completions) == 2
        finally:
            backend.shutdown()

    def test_shutdown_then_reuse(self):
        backend = PoolBackend(workers=2)
        list(backend.run_tasks(echo_tasks(2)))
        backend.shutdown()
        assert len(list(backend.run_tasks(echo_tasks(2)))) == 2
        backend.shutdown()

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            PoolBackend(workers=0)


class TestShardedBackend:
    def _backend(self, tmp_path, **kwargs):
        kwargs.setdefault("root", tmp_path / "shards")
        return ShardedBackend(shards=2, **kwargs)

    def test_all_tasks_complete_once(self, tmp_path):
        backend = self._backend(tmp_path)
        completions = list(backend.run_tasks(echo_tasks(13), batch_id="b1"))
        assert sorted(index for index, _, _ in completions) == list(range(13))
        payloads = {i: p for i, p, _ in completions}
        assert payloads[7]["echo"]["n"] == 7

    def test_batch_dir_removed_after_completion(self, tmp_path):
        backend = self._backend(tmp_path)
        list(backend.run_tasks(echo_tasks(3), batch_id="cleanup-test"))
        assert not (tmp_path / "shards" / "cleanup-test"[:24]).exists()

    def test_lease_recovery_after_worker_death(self, tmp_path):
        """The crash-detection path end to end: debug.crash_once kills
        its first claimant; the sweep finishes only if the expired lease
        is stolen (or the dead process respawned) and re-executed."""
        # each of the 6 points kills its first claimant, so allow more
        # respawns than the 2*shards default budget
        backend = self._backend(
            tmp_path, lease_ttl=1.0, block_size=1, max_respawns=12
        )
        tasks = [
            (
                i,
                "debug.crash_once",
                json.dumps(
                    {"marker": str(tmp_path / f"marker-{i}"), "value": i},
                    sort_keys=True,
                ),
            )
            for i in range(6)
        ]
        completions = list(backend.run_tasks(tasks, batch_id="crashy"))
        assert sorted(i for i, _, _ in completions) == list(range(6))
        assert all(p["survived"] for _, p, _ in completions)
        stats = backend.stats()
        assert stats["steals"] + stats["respawns"] >= 1

    def test_point_error_raises_sharded_error(self, tmp_path):
        backend = self._backend(tmp_path)
        tasks = [(0, "no.such.experiment", "{}")]
        with pytest.raises(ShardedSweepError, match="no.such.experiment"):
            list(backend.run_tasks(tasks, batch_id="boom"))

    def test_resume_adopts_prior_results(self, tmp_path):
        """A restarted driver harvests result files a killed driver's
        workers left behind, without re-executing those points."""
        backend = self._backend(tmp_path)
        tasks = echo_tasks(4)
        batch = backend._batch_dir(tasks, "resume-test")
        results_dir = batch / "results"
        results_dir.mkdir(parents=True)
        # Fabricate a finished block for points 0 and 1 with payloads a
        # re-execution could not produce, proving adoption over rerun.
        (results_dir / "block-00000.json").write_text(json.dumps({
            "block": 0, "gen": 1, "worker": 0,
            "enqueued": 1.0, "claimed": 2.0, "finished": 3.0,
            "completions": [
                [0, {"echo": {"adopted": True}}, 0.0],
                [1, {"echo": {"adopted": True}}, 0.0],
            ],
        }))
        completions = list(backend.run_tasks(tasks, batch_id="resume-test"))
        payloads = {i: p for i, p, _ in completions}
        assert sorted(payloads) == [0, 1, 2, 3]
        assert payloads[0] == {"echo": {"adopted": True}}
        assert payloads[2]["echo"]["n"] == 2
        assert backend.stats()["resumed_blocks"] == 1

    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            ShardedBackend(shards=0)

    def test_default_root_honors_env(self, monkeypatch, tmp_path):
        from repro.exp.backend import default_shard_root

        monkeypatch.setenv("REPRO_EXP_SHARDS", str(tmp_path / "sh"))
        assert default_shard_root() == tmp_path / "sh"


class TestRunnerIntegration:
    def test_runner_owns_named_backend_lifecycle(self):
        runner = SweepRunner(workers=2, cache=NullCache(), backend="pool")
        result = runner.run(echo_spec(3))
        assert result.backend == "pool"
        # shutdown happened in stream()'s finally; pool restarts lazily
        assert runner.backend._executor is None

    def test_caller_owned_backend_survives_run(self):
        backend = SerialBackend()
        runner = SweepRunner(workers=1, cache=NullCache(), backend=backend)
        runner.run(echo_spec(2))
        runner.run(echo_spec(2))
        assert backend.stats()["batches"] == 2

    def test_indices_restrict_the_sweep(self):
        runner = serial_runner()
        result = runner.run(echo_spec(6), indices=[1, 4])
        assert [o.index for o in result.outcomes] == [1, 4]
        assert [p["echo"]["n"] for p in result.payloads] == [1, 4]
