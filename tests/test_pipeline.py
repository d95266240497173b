"""Tests of the batched ensemble-evaluation pipeline (executors + cache)."""

from __future__ import annotations

import json
import threading
import warnings
from dataclasses import fields, replace

import pytest

from repro import _version
from repro.runtime import ResultCache as RuntimeResultCache, make_executor
from repro.exceptions import ExperimentError
from repro.experiments import (
    EvaluationPipeline,
    ResultCache,
    SerialExecutor,
    ensemble_cache_key,
    random_ensemble_tasks,
    run_ensemble_task,
    scaled_parameters,
    tiers_ensemble_tasks,
)
from repro.experiments.evaluation import EvaluationRecord
from repro.experiments.figures import figure_4a
from repro.cli import build_parser


@pytest.fixture(scope="module")
def tiny_parameters():
    return replace(
        scaled_parameters(0.1),
        node_counts=(6, 9),
        densities=(0.25, 0.4),
        configurations_per_point=1,
        tiers_sizes=(30,),
        tiers_platforms_per_size=2,
        seed=13,
    )


@pytest.fixture(scope="module")
def serial_records(tiny_parameters):
    return EvaluationPipeline(jobs=1).evaluate("random", tiny_parameters)


class TestTasks:
    def test_task_fanout_shape(self, tiny_parameters):
        tasks = random_ensemble_tasks(tiny_parameters)
        assert len(tasks) == tiny_parameters.total_random_platforms
        assert len({t.seed for t in tasks}) == len(tasks)  # independent streams
        tiers = tiers_ensemble_tasks(tiny_parameters)
        assert len(tiers) == tiny_parameters.total_tiers_platforms
        assert all(not t.include_multi_port for t in tiers)

    def test_task_seeds_are_order_free(self, tiny_parameters):
        # Rebuilding the task list must reproduce identical tasks.
        assert random_ensemble_tasks(tiny_parameters) == random_ensemble_tasks(
            tiny_parameters
        )

    def test_run_single_task(self, tiny_parameters):
        task = random_ensemble_tasks(tiny_parameters)[0]
        records = run_ensemble_task(task)
        assert records and all(r.generator == "random" for r in records)

    def test_unknown_kind_rejected(self, tiny_parameters):
        with pytest.raises(ExperimentError):
            EvaluationPipeline().evaluate("no-such-kind", tiny_parameters)


class TestExecutorDeterminism:
    def test_serial_and_parallel_records_identical(self, tiny_parameters, serial_records):
        parallel = EvaluationPipeline(jobs=2).evaluate("random", tiny_parameters)
        assert [r.deterministic_payload() for r in serial_records] == [
            r.deterministic_payload() for r in parallel
        ]

    def test_figure_render_bit_identical(self, tiny_parameters, serial_records):
        with EvaluationPipeline(jobs=2, backend="warm-pool") as pipeline:
            parallel = pipeline.evaluate("random", tiny_parameters)
        serial_render = figure_4a(tiny_parameters, records=serial_records).render()
        parallel_render = figure_4a(tiny_parameters, records=parallel).render()
        assert serial_render == parallel_render

    def test_warm_pool_records_identical(self, tiny_parameters, serial_records):
        with EvaluationPipeline(jobs=2, backend="warm-pool") as pipeline:
            warm = pipeline.evaluate("random", tiny_parameters)
        assert [r.deterministic_payload() for r in serial_records] == [
            r.deterministic_payload() for r in warm
        ]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ExperimentError):
            EvaluationPipeline(jobs=0)
        with pytest.raises(ExperimentError):
            make_executor("warm-pool", 0)

    def test_executor_and_backend_are_mutually_exclusive(self):
        with pytest.raises(ExperimentError, match="not both"):
            EvaluationPipeline(executor=SerialExecutor(), backend="serial")

    def test_serial_executor_preserves_order(self):
        executor = SerialExecutor()
        assert list(executor.map(lambda x: [x], [3, 1, 2])) == [[3], [1], [2]]

    def test_serial_executor_is_lazy(self):
        seen: list[int] = []

        def record(x):
            seen.append(x)
            return [x]

        stream = SerialExecutor().map(record, [1, 2, 3])
        assert seen == []  # nothing ran yet: progress can interleave
        next(stream)
        assert seen == [1]


class TestCacheKey:
    def test_every_parameter_field_changes_the_key(self, tiny_parameters):
        base = ensemble_cache_key("random", tiny_parameters)
        overrides = {
            "node_counts": (5, 9),
            "densities": (0.3, 0.4),
            "configurations_per_point": 2,
            "rate_mean": 99.0,
            "rate_deviation": 21.0,
            "slice_size_mb": 50.0,
            "send_fraction": 0.7,
            "tiers_sizes": (30, 40),
            "tiers_platforms_per_size": 3,
            "source": 0,
            "seed": 14,
            "collective_nodes": 25,
            "collective_density": 0.25,
            "collective_target_counts": (3, 9),
            "collective_instances": 2,
            "dynamic_nodes": 12,
            "dynamic_density": 0.35,
            "dynamic_seeds": 3,
            "dynamic_horizon": 6,
            "dynamic_drift": 0.25,
            "dynamic_congestion": 0.3,
            "dynamic_churn": 0.1,
            "dynamic_threshold": 0.2,
            "dynamic_replan_cost": 0.1,
            "extra": {"note": "changed"},
        }
        assert set(overrides) == {f.name for f in fields(tiny_parameters)}
        for name, value in overrides.items():
            if getattr(tiny_parameters, name) == value:
                continue
            changed = replace(tiny_parameters, **{name: value})
            assert ensemble_cache_key("random", changed) != base, name

    def test_kind_and_model_change_the_key(self, tiny_parameters):
        base = ensemble_cache_key("random", tiny_parameters)
        assert ensemble_cache_key("tiers", tiny_parameters) != base
        assert (
            ensemble_cache_key("random", tiny_parameters, include_multi_port=False)
            != base
        )

    def test_library_version_changes_the_key(self, tiny_parameters, monkeypatch):
        base = ensemble_cache_key("random", tiny_parameters)
        monkeypatch.setattr(_version, "__version__", "999.0.0")
        assert ensemble_cache_key("random", tiny_parameters) != base


class TestResultCache:
    def _record(self) -> EvaluationRecord:
        return EvaluationRecord(
            generator="random",
            platform_name="p",
            num_nodes=6,
            density=0.25,
            instance_index=0,
            heuristic="grow-tree",
            model="one-port",
            throughput=0.5,
            optimal_throughput=1.0,
            relative_performance=0.5,
            build_seconds=0.0,
            lp_seconds=0.0,
        )

    def test_memory_level_returns_same_object(self, tmp_path):
        cache = ResultCache(tmp_path)
        records = [self._record()]
        cache.put("k", records)
        assert cache.get("k") is records

    def test_disk_roundtrip_across_instances(self, tmp_path):
        ResultCache(tmp_path).put("k", [self._record()])
        replayed = ResultCache(tmp_path).get("k")
        assert replayed is not None
        assert replayed[0] == self._record()

    def test_corrupted_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", [self._record()])
        entry = next(tmp_path.glob("ensemble-*.json"))
        entry.write_text("{ not json at all", encoding="utf-8")
        assert ResultCache(tmp_path).get("k") is None

    def test_entry_with_missing_fields_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", [self._record()])
        entry = next(tmp_path.glob("ensemble-*.json"))
        payload = json.loads(entry.read_text(encoding="utf-8"))
        del payload["records"][0]["throughput"]
        entry.write_text(json.dumps(payload), encoding="utf-8")
        assert ResultCache(tmp_path).get("k") is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", [self._record()])
        entry = next(tmp_path.glob("ensemble-*.json"))
        other = tmp_path / "ensemble-other.json"
        entry.rename(other)
        assert ResultCache(tmp_path).get("other") is None

    def test_memory_hit_writes_through_to_empty_disk(self, tmp_path):
        shared: dict = {}
        ResultCache(memory=shared).put("k", [self._record()])
        # Same memory, disk level added later: the hit must persist the entry.
        with_disk = ResultCache(tmp_path, memory=shared)
        assert with_disk.get("k") is not None
        assert ResultCache(tmp_path).get("k") == [self._record()]

    def test_cache_dir_must_not_be_a_file(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied", encoding="utf-8")
        with pytest.raises(ExperimentError):
            ResultCache(target)

    def test_memoryless_without_disk(self):
        cache = ResultCache()
        assert cache.get("missing") is None
        cache.put("k", [self._record()])
        cache.clear_memory()
        assert cache.get("k") is None


class TestCacheRobustness:
    """Failure modes of the two-level cache: corruption, bad dirs, races."""

    def _rows(self, value: int = 1) -> list[dict]:
        return [{"value": value}]

    def test_truncated_entry_is_quarantined(self, tmp_path):
        RuntimeResultCache(tmp_path, version="v").put("k", self._rows())
        entry = tmp_path / "ensemble-k.json"
        entry.write_text(entry.read_text(encoding="utf-8")[:10], encoding="utf-8")
        assert RuntimeResultCache(tmp_path, version="v").get("k") is None
        # The corrupted file is moved aside, never re-parsed on later runs.
        assert not entry.exists()
        assert entry.with_suffix(".corrupt").exists()
        assert RuntimeResultCache(tmp_path, version="v").get("k") is None

    def test_key_mismatch_is_quarantined(self, tmp_path):
        RuntimeResultCache(tmp_path, version="v").put("k", self._rows())
        entry = tmp_path / "ensemble-k.json"
        imposter = tmp_path / "ensemble-other.json"
        entry.rename(imposter)
        assert RuntimeResultCache(tmp_path, version="v").get("other") is None
        assert not imposter.exists()
        assert imposter.with_suffix(".corrupt").exists()

    def test_other_version_entry_is_a_miss_not_corruption(self, tmp_path):
        RuntimeResultCache(tmp_path, version="1.0").put("k", self._rows(1))
        entry = tmp_path / "ensemble-k.json"
        newer = RuntimeResultCache(tmp_path, version="2.0")
        assert newer.get("k") is None
        assert entry.exists()  # valid entry, just stale: not quarantined
        newer.put("k", self._rows(2))
        assert RuntimeResultCache(tmp_path, version="2.0").get("k") == self._rows(2)

    def test_unwritable_cache_dir_degrades_to_memory_with_one_warning(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied", encoding="utf-8")
        # The directory cannot be created (its parent is a file), which is
        # only discovered on first write.
        cache = RuntimeResultCache(blocker / "cache", version="v")
        assert cache.disk_active
        with pytest.warns(RuntimeWarning, match="in-memory level only"):
            cache.put("k", self._rows())
        assert not cache.disk_active
        assert cache.get("k") == self._rows()  # memory level still serves
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # degraded exactly once: no rewarn
            cache.put("k2", self._rows(2))
        assert cache.get("k2") == self._rows(2)

    def test_concurrent_same_key_writers_leave_a_parsable_entry(self, tmp_path):
        written = [self._rows(i) for i in range(8)]
        barrier = threading.Barrier(len(written))

        def writer(rows: list[dict]) -> None:
            cache = RuntimeResultCache(tmp_path, version="v")
            barrier.wait()
            for _ in range(25):
                cache.put("k", rows)

        threads = [
            threading.Thread(target=writer, args=(rows,)) for rows in written
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        final = RuntimeResultCache(tmp_path, version="v").get("k")
        assert final in written  # atomic replace: one writer's rows, intact
        assert not list(tmp_path.glob("*.corrupt"))


class TestPipelineCacheIntegration:
    def test_disk_cache_replay_is_deterministic(self, tiny_parameters, tmp_path):
        first = EvaluationPipeline(cache_dir=tmp_path).evaluate("tiers", tiny_parameters)
        # A fresh pipeline (empty memory) replays the exact records from disk.
        replayed = EvaluationPipeline(cache_dir=tmp_path).evaluate(
            "tiers", tiny_parameters
        )
        assert [r.to_dict() for r in first] == [r.to_dict() for r in replayed]

    def test_version_bump_misses_disk_cache(self, tiny_parameters, tmp_path, monkeypatch):
        EvaluationPipeline(cache_dir=tmp_path).evaluate("tiers", tiny_parameters)
        assert len(list(tmp_path.glob("ensemble-*.json"))) == 1
        monkeypatch.setattr(_version, "__version__", "999.0.0")
        EvaluationPipeline(cache_dir=tmp_path).evaluate("tiers", tiny_parameters)
        assert len(list(tmp_path.glob("ensemble-*.json"))) == 2

    def test_parameter_change_misses_disk_cache(self, tiny_parameters, tmp_path):
        EvaluationPipeline(cache_dir=tmp_path).evaluate("tiers", tiny_parameters)
        changed = replace(tiny_parameters, seed=tiny_parameters.seed + 1)
        EvaluationPipeline(cache_dir=tmp_path).evaluate("tiers", changed)
        assert len(list(tmp_path.glob("ensemble-*.json"))) == 2

    def test_corrupted_pipeline_entry_recomputes(self, tiny_parameters, tmp_path):
        pipeline = EvaluationPipeline(cache_dir=tmp_path)
        first = pipeline.evaluate("tiers", tiny_parameters)
        entry = next(tmp_path.glob("ensemble-*.json"))
        entry.write_text("garbage", encoding="utf-8")
        fresh = EvaluationPipeline(cache_dir=tmp_path)
        recomputed = fresh.evaluate("tiers", tiny_parameters)
        assert [r.deterministic_payload() for r in recomputed] == [
            r.deterministic_payload() for r in first
        ]


class TestCLIFlags:
    def test_experiment_accepts_jobs_and_cache_dir(self):
        args = build_parser().parse_args(
            ["experiment", "--artefact", "table3", "--jobs", "4", "--cache-dir", "/tmp/c"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"

    def test_experiment_defaults_to_serial_no_cache(self):
        args = build_parser().parse_args(["experiment"])
        assert args.jobs == 1
        assert args.cache_dir is None
