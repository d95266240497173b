"""Warm worker pool: shared-memory platforms, backends, lifecycle hygiene.

The contract under test (ROADMAP item 3):

* the pluggable backend registry (:func:`repro.runtime.make_executor`)
  selects the warm pool for ``jobs > 1`` — except on single-CPU hosts,
  where it warns and falls back to the batched serial path;
* :class:`repro.pool.WarmPoolExecutor` keeps long-lived workers, survives
  crashes by respawning within a budget, and carries fault plans per task;
* ``Session.solve_many`` over the pool is bit-identical to the serial
  batched path, with compiled platform arrays published once into
  ``multiprocessing.shared_memory`` and attached read-only by workers;
* **no shared segment ever outlives its owner** — clean shutdown, worker
  crashes, respawns and whole fault campaigns all leave ``/dev/shm``
  empty of this process's segments.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.api import FailedResult, Job, PlatformRecipe, RetryPolicy, Session
from repro.exceptions import ExperimentError, WorkerCrashError
from repro.faults import inject_faults
from repro.pool import WarmPoolExecutor, _crash_probe, _echo_probe, _sleep_probe
from repro.runtime import (
    SerialExecutor,
    SupervisedExecutor,
    available_backends,
    make_executor,
)
from repro.shm import (
    SEGMENT_PREFIX,
    SharedSegmentRegistry,
    attach_arrays,
    pack_arrays,
)

_SHM_DIR = Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    not _SHM_DIR.is_dir(), reason="needs a POSIX /dev/shm to observe segments"
)


def _own_segments() -> set[str]:
    """Names of this process's shared segments currently linked on disk."""
    prefix = f"{SEGMENT_PREFIX}_{os.getpid()}_"
    return {p.name for p in _SHM_DIR.glob(f"{SEGMENT_PREFIX}_*") if p.name.startswith(prefix)}


def _job(seed: int, *, num_nodes: int = 7, size: float | None = None) -> Job:
    return Job.broadcast(
        PlatformRecipe.of("random", num_nodes=num_nodes, density=0.35, seed=seed),
        source=0,
        size=size,
    )


def _deterministic(results) -> list:
    return [r.deterministic_metrics() for r in results]


# --------------------------------------------------------------------------- #
# Shared-memory primitives and the registry
# --------------------------------------------------------------------------- #
class TestSharedMemory:
    def test_pack_attach_round_trip_is_exact_and_read_only(self):
        arrays = {
            "a": np.arange(17, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 5),
            "c": np.array([[1, 2], [3, 4]], dtype=np.int32),
        }
        segment, layout = pack_arrays(arrays)
        try:
            for spec in layout["arrays"].values():
                assert spec["offset"] % 64 == 0  # cache-line aligned
            mapped, views = attach_arrays(segment.name, layout)
            try:
                for name, original in arrays.items():
                    np.testing.assert_array_equal(views[name], original)
                    assert not views[name].flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    views["a"][0] = 99
            finally:
                del views
                mapped.close()
        finally:
            segment.unlink()
            segment.close()

    def test_pack_rejects_empty_bundle(self):
        with pytest.raises(ExperimentError):
            pack_arrays({})

    def test_registry_memoizes_by_key(self):
        registry = SharedSegmentRegistry()
        arrays = {"x": np.arange(4.0)}
        name1, _ = registry.publish("k", arrays)
        name2, _ = registry.publish("k", arrays)
        assert name1 == name2
        assert registry.stats()["published"] == 1
        assert registry.stats()["hits"] == 1
        registry.close()

    def test_registry_refcount_pins_across_eviction(self):
        registry = SharedSegmentRegistry(max_segments=1)
        name_a, _ = registry.publish("a", {"x": np.arange(3.0)})
        registry.acquire("a")
        registry.publish("b", {"x": np.arange(3.0)})
        # "a" is pinned: the bound is exceeded rather than unlinking it.
        assert "a" in registry
        assert (_SHM_DIR / name_a).exists()
        registry.release("a")
        registry.publish("c", {"x": np.arange(3.0)})
        # Unpinned now: LRU eviction reclaims down toward the bound.
        assert "a" not in registry
        assert not (_SHM_DIR / name_a).exists()
        assert registry.stats()["evictions"] >= 1
        registry.close()

    def test_registry_close_unlinks_everything_and_is_final(self):
        registry = SharedSegmentRegistry()
        names = [
            registry.publish(key, {"x": np.arange(8.0)})[0] for key in ("a", "b")
        ]
        assert all((_SHM_DIR / name).exists() for name in names)
        registry.close()
        registry.close()  # idempotent
        assert not any((_SHM_DIR / name).exists() for name in names)
        with pytest.raises(ExperimentError):
            registry.publish("c", {"x": np.arange(2.0)})


# --------------------------------------------------------------------------- #
# Backend registry
# --------------------------------------------------------------------------- #
class TestMakeExecutor:
    def test_registered_backends(self):
        assert {"serial", "process", "warm-pool"} <= set(available_backends())

    def test_jobs_one_defaults_to_serial(self):
        assert isinstance(make_executor(None, 1), SerialExecutor)

    def test_single_cpu_downgrades_with_warning(self, monkeypatch):
        import repro.runtime as runtime

        monkeypatch.setattr(runtime.os, "cpu_count", lambda: 1)
        with pytest.warns(RuntimeWarning, match="single CPU"):
            executor = make_executor(None, 4)
        assert isinstance(executor, SerialExecutor)

    def test_explicit_backend_bypasses_the_downgrade(self, monkeypatch):
        import repro.runtime as runtime

        monkeypatch.setattr(runtime.os, "cpu_count", lambda: 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            executor = make_executor("warm-pool", 2)
        try:
            assert isinstance(executor, WarmPoolExecutor)
        finally:
            executor.close()

    def test_multi_cpu_auto_selects_the_warm_pool(self, monkeypatch):
        import repro.runtime as runtime

        monkeypatch.setattr(runtime.os, "cpu_count", lambda: 4)
        executor = make_executor(None, 2)
        try:
            assert isinstance(executor, WarmPoolExecutor)
        finally:
            executor.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExperimentError, match="warm-pool"):
            make_executor("no-such-backend", 2)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ExperimentError):
            make_executor(None, 0)


# --------------------------------------------------------------------------- #
# The executor itself
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def pool():
    executor = WarmPoolExecutor(2)
    yield executor
    executor.close()


class TestWarmPoolExecutor:
    def test_map_preserves_order(self, pool):
        assert list(pool.map(_echo_probe, list(range(8)))) == list(range(8))

    def test_workers_persist_across_maps(self, pool):
        list(pool.map(_echo_probe, [1, 2]))
        spawns = pool.spawns
        list(pool.map(_echo_probe, [3, 4]))
        assert pool.spawns == spawns  # no new processes for the second map

    def test_crash_surfaces_as_worker_crash_error_and_pool_recovers(self, pool):
        future = pool.submit(_crash_probe, 7, label="boom", fault_hook=False)
        with pytest.raises(WorkerCrashError, match="boom"):
            future.result(timeout=60)
        assert pool.crashes >= 1
        # Keep both slots fed until the crashed one picks up a task and
        # respawns transparently (which thread grabs which task is racy).
        deadline = time.monotonic() + 30
        while pool.respawns == 0 and time.monotonic() < deadline:
            assert list(pool.map(_echo_probe, [5, 6])) == [5, 6]
        assert pool.respawns >= 1

    def test_abandon_terminates_a_hung_worker(self, pool):
        future = pool.submit(_sleep_probe, 60.0, label="hang", fault_hook=False)
        deadline = time.monotonic() + 30
        while not future.running() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool.abandon(future)
        with pytest.raises(WorkerCrashError):
            future.result(timeout=60)
        assert list(pool.map(_echo_probe, [6])) == [6]

    def test_fault_plan_travels_with_the_task(self, pool):
        # Warm workers pre-date this context, so env inheritance cannot
        # deliver the plan; submission must snapshot it per task.
        with inject_faults(seed=1, task_error_rate=1.0, persistent=True):
            future = pool.submit(_echo_probe, 1, label="faulted")
        with pytest.raises(Exception, match="injected worker fault"):
            future.result(timeout=60)
        # Outside the context the same submission is clean again.
        assert pool.submit(_echo_probe, 2, label="faulted").result(timeout=60) == 2

    def test_stats_shape(self, pool):
        stats = pool.stats()
        assert stats["pool_size"] == 2
        for key in ("alive", "spawns", "respawns", "crashes", "completed", "failed"):
            assert key in stats
        assert set(stats["shared_segments"]) == {
            "segments", "bytes", "published", "hits", "evictions",
        }

    def test_supervised_map_outcomes_over_the_pool(self, pool):
        supervisor = SupervisedExecutor(
            pool, RetryPolicy(retries=0, backoff=0.001), fault_hook=False
        )
        outcomes = list(supervisor.map_outcomes(_echo_probe, [10, 11, 12]))
        assert [o.value for o in outcomes] == [10, 11, 12]
        assert all(o.ok for o in outcomes)

    def test_respawn_budget_exhaustion_fails_closed(self):
        executor = WarmPoolExecutor(1, max_respawns=0)
        try:
            with pytest.raises(WorkerCrashError):
                executor.submit(_crash_probe, 1, fault_hook=False).result(timeout=60)
            # Budget 0: the dead slot cannot respawn, tasks fail closed.
            with pytest.raises(WorkerCrashError, match="respawn budget"):
                executor.submit(_echo_probe, 1, fault_hook=False).result(timeout=60)
            assert not executor.healthy
        finally:
            executor.close()


# --------------------------------------------------------------------------- #
# Session over the warm pool: identity, stats, async
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def serial_results():
    jobs = [_job(seed) for seed in range(4)] + [_job(0)]  # one dedupe twin
    with Session() as session:
        return jobs, _deterministic(session.solve_many(jobs))


class TestSessionOverWarmPool:
    def test_solve_many_bit_identical_to_serial(self, serial_results):
        jobs, expected = serial_results
        with Session(jobs=2, backend="warm-pool") as session:
            results = session.solve_many(jobs)
            assert _deterministic(results) == expected
            workers = session.cache_stats()["workers"]
        assert workers["backend"] == "warm-pool"
        assert workers["jobs"] == 2
        assert workers["groups_dispatched"] == 4  # one per distinct platform
        assert workers["jobs_shipped"] == 4  # the twin deduplicates away
        assert workers["pool"]["shared_segments"]["published"] == 4

    def test_executor_and_backend_are_mutually_exclusive(self):
        from repro.exceptions import ConfigError

        with pytest.raises(ConfigError, match="not both"):
            Session(executor=SerialExecutor(), backend="warm-pool")

    def test_warm_workers_reuse_platform_state_across_batches(self):
        # One worker makes the reuse deterministic: every group of the
        # second batch lands on the worker that already holds the platform.
        with Session(jobs=1, backend="warm-pool") as session:
            session.solve_many([_job(seed) for seed in range(2)])
            assert session.cache_stats()["workers"]["warm_reuse_hits"] == 0
            session.solve_many([_job(seed, size=2.0) for seed in range(2)])
            workers = session.cache_stats()["workers"]
        assert workers["warm_reuse_hits"] == 2
        assert workers["shm_attached"] >= 2

    def test_collect_mode_turns_injected_failures_into_data(self):
        jobs = [_job(seed) for seed in range(2)]
        with Session(
            jobs=2,
            backend="warm-pool",
            retry_policy=RetryPolicy(retries=0, backoff=0.001),
        ) as session:
            with inject_faults(seed=3, task_error_rate=1.0, persistent=True):
                results = session.solve_many(jobs, on_error="collect")
            assert all(isinstance(r, FailedResult) for r in results)
            assert all(
                r.failure.error_type == "InjectedWorkerError" for r in results
            )

    def test_group_verdict_is_not_resubmitted(self, monkeypatch):
        import repro.api.session as session_module
        from repro.exceptions import SimulationError

        sleeps: list[float] = []
        monkeypatch.setattr(session_module.time, "sleep", sleeps.append)
        job = Job.of_collective(
            PlatformRecipe.of("random", num_nodes=7, density=0.35, seed=1),
            "scatter", 0, None, heuristic="binomial", simulate=True,
        )
        with Session(jobs=1, backend="warm-pool") as session:
            with pytest.raises(SimulationError, match="direct tree"):
                session.solve_many([job])
            pool = session.cache_stats()["workers"]["pool"]
        assert (pool["completed"], pool["failed"]) == (0, 1)  # one submission
        assert sleeps == []

    def test_solve_many_async_matches_sync(self, serial_results):
        jobs, expected = serial_results
        with Session(jobs=2, backend="warm-pool") as session:
            handle = session.solve_many_async(jobs)
            assert handle.wait(timeout=120)
            assert handle.done()
            results = handle.result()
            assert results is handle.result()  # memoized
        assert _deterministic(results) == expected

    def test_async_handle_is_complete_on_non_pool_sessions(self, serial_results):
        jobs, expected = serial_results
        with Session() as session:
            handle = session.solve_many_async(jobs)
            assert handle.done()
            assert _deterministic(handle.result()) == expected


# --------------------------------------------------------------------------- #
# Shared-memory lifecycle: nothing leaks, ever
# --------------------------------------------------------------------------- #
class TestShmLifecycle:
    def test_clean_shutdown_unlinks_every_segment(self):
        before = _own_segments()
        session = Session(jobs=2, backend="warm-pool")
        session.solve_many([_job(seed) for seed in range(3)])
        assert len(session.executor.registry) == 3
        assert len(_own_segments() - before) == 3
        session.close()
        assert _own_segments() <= before

    def test_worker_crash_and_respawn_leak_nothing(self):
        before = _own_segments()
        session = Session(jobs=2, backend="warm-pool")
        session.solve_many([_job(0)])
        pool = session.executor
        with pytest.raises(WorkerCrashError):
            pool.submit(_crash_probe, 1, fault_hook=False).result(timeout=60)
        # The SIGKILLed worker dropped its mappings with the process; the
        # segment names live in the parent registry, untouched.
        assert len(pool.registry) == 1
        session.solve_many([_job(1)])  # respawned worker keeps working
        session.close()
        assert _own_segments() <= before

    def test_crash_fault_campaign_leaves_dev_shm_empty(self):
        """Persistent crash faults: failures land as data, segments do not leak."""
        before = _own_segments()
        jobs = [_job(seed) for seed in range(2)]
        session = Session(
            jobs=2,
            backend="warm-pool",
            retry_policy=RetryPolicy(retries=1, backoff=0.001),
        )
        with inject_faults(seed=5, task_crash_rate=1.0, persistent=True):
            results = session.solve_many(jobs, on_error="collect")
        assert all(isinstance(r, FailedResult) for r in results)
        # Every failure is structured: the group either died with its
        # worker (WorkerCrashError) or, once the pool degraded to an
        # in-process run, as the downgraded InjectedCrashError.
        assert all(
            r.failure.error_type in ("WorkerCrashError", "InjectedCrashError")
            for r in results
        )
        stats = session.cache_stats()["workers"]["pool"]
        assert stats["crashes"] >= 1
        session.close()
        assert _own_segments() <= before

    def test_abandoned_pool_is_finalized_by_gc(self):
        import gc

        before = _own_segments()
        executor = WarmPoolExecutor(1)
        name, _ = executor.registry.publish("k", {"x": np.arange(4.0)})
        assert (_SHM_DIR / name).exists()
        del executor  # no close(): the weakref finalizer must clean up
        gc.collect()
        assert _own_segments() <= before


# --------------------------------------------------------------------------- #
# Service surfacing
# --------------------------------------------------------------------------- #
class TestServiceWorkersBlock:
    def test_statz_surfaces_pool_stats_and_overlap(self):
        from repro.service import ServiceConfig, SolveService

        before = _own_segments()
        service = SolveService(
            ServiceConfig(jobs=2, backend="warm-pool", max_inflight_batches=2)
        ).start()
        try:
            service.pause()  # queue several requests into one loop round
            outcomes: dict[int, list] = {}

            def submit(i: int) -> None:
                outcomes[i] = service.submit([_job(i)], deadline_seconds=120)

            threads = [
                threading.Thread(target=submit, args=(i,)) for i in range(3)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.3)
            service.resume()
            for thread in threads:
                thread.join(timeout=120)
            assert all(not t.is_alive() for t in threads)
            assert all(result.ok for i in outcomes for result in outcomes[i])

            stats = service.stats()
            assert stats["counters"]["batches_overlapped"] >= 1
            workers = stats["caches"]["workers"]
            assert workers["backend"] == "warm-pool"
            assert workers["groups_dispatched"] >= 1
            assert workers["pool"]["pool_size"] == 2
        finally:
            service.stop()
        assert _own_segments() <= before
