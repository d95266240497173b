"""Fault-injection suite: the fault-tolerant runtime under deterministic faults.

The acceptance scenario of the fault-tolerant runtime: a 200-task campaign
with ~20% injected worker errors / hangs / crashes completes under
``keep_going``, its surviving records are bit-identical to the fault-free
run, every injected fault is accounted for as a structured error record,
and a second invocation resumes from the disk cache, recomputing only the
failed tasks.

Every fault decision is a pure function of the plan seed and the task /
job labels (:func:`repro.faults.classify_task`), so the tests *predict*
the exact failure set up front and assert the runtime matches it.  Fault
plans are selected by scanning seeds against the prediction rather than
pinned: labels embed the library version, so pinned seeds would silently
change meaning on a version bump.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import (
    FailedResult,
    Job,
    PlatformRecipe,
    Result,
    RetryPolicy,
    Session,
    TaskFailure,
)
from repro.collectives import CollectiveSpec
from repro.exceptions import (
    ConfigError,
    ExperimentError,
    HeuristicError,
    JobFailedError,
    LPError,
    PlatformError,
    ReproError,
    SimulationError,
    TaskTimeoutError,
    TreeError,
    WorkerCrashError,
)
from repro.experiments import (
    EvaluationPipeline,
    ResultCache,
    SerialExecutor,
    ensemble_task_key,
    random_ensemble_tasks,
    scaled_parameters,
)
from repro.experiments.pipeline import _task_jobs
from repro.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    InjectedCrashError,
    InjectedWorkerError,
    active_plan,
    classify_task,
    inject_faults,
)
from repro import runtime
from repro.runtime import ResultCache as RuntimeResultCache
from repro.runtime import SupervisedExecutor, is_retryable, stable_key


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
class CountingSerial(SerialExecutor):
    """Serial executor counting how many tasks were actually submitted."""

    def __init__(self) -> None:
        self.calls = 0

    def map(self, function, tasks):
        tasks = list(tasks)
        self.calls += len(tasks)
        return super().map(function, tasks)


def _campaign_parameters(configurations: int, seed: int):
    return replace(
        scaled_parameters(0.1),
        node_counts=(5,),
        densities=(0.4,),
        configurations_per_point=configurations,
        tiers_sizes=(),
        seed=seed,
    )


def _task_labels_and_job_keys(tasks):
    """Per-task supervision label plus the job labels its session will roll."""
    session = Session()
    task_keys = [ensemble_task_key(task) for task in tasks]
    job_keys = [
        [job.cache_key() for job in _task_jobs(task, session)] for task in tasks
    ]
    return task_keys, job_keys


def _first_fault(plan, task_key, job_keys):
    """The first fault site a task hits, or ``None`` when it survives.

    Mirrors the runtime's two supervision layers: the pipeline rolls the
    task label first (the hook runs before the task body), then the
    session inside the task rolls each job label in submission order.
    """
    kind = classify_task(plan, task_key)
    if kind != "ok":
        return kind
    for key in job_keys:
        kind = classify_task(plan, key)
        if kind != "ok":
            return kind
    return None


def _predict_failures(plan, task_keys, job_keys):
    """Map of task index -> fault kind for every task the plan fails."""
    predicted = {}
    for i, task_key in enumerate(task_keys):
        kind = _first_fault(plan, task_key, job_keys[i])
        if kind is not None:
            predicted[i] = kind
    return predicted


def _payloads(records):
    return [record.deterministic_payload() for record in records]


#: Fault kind -> exception type the runtime surfaces for it (serial runs;
#: crash faults downgrade to :class:`InjectedCrashError` outside workers).
_SERIAL_ERROR_TYPES = {
    "error": "InjectedWorkerError",
    "timeout": "TaskTimeoutError",
    "crash": "InjectedCrashError",
}


# --------------------------------------------------------------------------- #
# The plan: validation, serialization, deterministic classification
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ConfigError):
            FaultPlan(task_error_rate=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(solver_error_rate=-0.1)

    def test_task_rates_must_partition(self):
        with pytest.raises(ConfigError):
            FaultPlan(task_error_rate=0.5, task_timeout_rate=0.4, task_crash_rate=0.2)

    def test_hang_must_be_positive(self):
        with pytest.raises(ConfigError):
            FaultPlan(hang_seconds=0.0)

    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=9,
            task_error_rate=0.125,
            task_crash_rate=0.25,
            solver_error_rate=0.5,
            hang_seconds=1.5,
            persistent=True,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_classification_is_deterministic_and_partitioned(self):
        plan = FaultPlan(
            seed=3, task_error_rate=0.1, task_timeout_rate=0.2, task_crash_rate=0.1
        )
        labels = [f"label-{i}" for i in range(2000)]
        kinds = [classify_task(plan, label) for label in labels]
        assert kinds == [classify_task(plan, label) for label in labels]
        fractions = {
            kind: kinds.count(kind) / len(kinds)
            for kind in ("error", "timeout", "crash", "ok")
        }
        assert fractions["error"] == pytest.approx(0.1, abs=0.04)
        assert fractions["timeout"] == pytest.approx(0.2, abs=0.04)
        assert fractions["crash"] == pytest.approx(0.1, abs=0.04)
        assert fractions["ok"] == pytest.approx(0.6, abs=0.04)

    def test_inject_faults_publishes_and_restores_environment(self):
        assert active_plan() is None
        outer = FaultPlan(seed=1, task_error_rate=0.1)
        inner = FaultPlan(seed=2, task_error_rate=0.2)
        with inject_faults(outer):
            assert active_plan() == outer
            assert FAULT_PLAN_ENV in os.environ
            with inject_faults(inner):
                assert active_plan() == inner
            assert active_plan() == outer
        assert active_plan() is None
        assert FAULT_PLAN_ENV not in os.environ

    def test_keyword_rates_shortcut(self):
        with inject_faults(seed=5, task_error_rate=0.5) as plan:
            assert plan.task_error_rate == 0.5
        with pytest.raises(ConfigError):
            inject_faults(FaultPlan(), task_error_rate=0.5)


class TestStableKeyGuard:
    def test_identity_repr_is_rejected_with_field_name(self):
        with pytest.raises(ExperimentError, match=r"\$\.options\.callback"):
            stable_key({"seed": 3, "options": {"callback": object()}})

    def test_value_reprs_still_accepted(self):
        assert stable_key({"a": (1, 2)}) == stable_key({"a": (1, 2)})


# --------------------------------------------------------------------------- #
# Supervision units under injection
# --------------------------------------------------------------------------- #
class TestSupervisionUnderInjection:
    def test_transient_faults_are_recovered_by_one_retry(self):
        supervisor = SupervisedExecutor(
            SerialExecutor(), RetryPolicy(retries=1, backoff=0.0)
        )
        with inject_faults(seed=0, task_error_rate=1.0):
            values = list(supervisor.map(lambda x: x * x, [1, 2, 3]))
        assert values == [1, 4, 9]

    def test_exhausted_retries_become_structured_failures(self):
        supervisor = SupervisedExecutor(
            SerialExecutor(), RetryPolicy(retries=2, backoff=0.0)
        )
        plan = FaultPlan(seed=0, task_error_rate=1.0, persistent=True)
        with inject_faults(plan):
            outcomes = list(
                supervisor.map_outcomes(lambda x: x, [1, 2], labels=["a", "b"])
            )
        assert [o.ok for o in outcomes] == [False, False]
        assert [o.failure.label for o in outcomes] == ["a", "b"]
        assert all(o.failure.attempts == 3 for o in outcomes)
        assert all(o.failure.error_type == "InjectedWorkerError" for o in outcomes)

    def test_map_raises_the_original_exception_type(self):
        supervisor = SupervisedExecutor(
            SerialExecutor(), RetryPolicy(retries=0, backoff=0.0)
        )
        plan = FaultPlan(seed=0, task_error_rate=1.0, persistent=True)
        with inject_faults(plan):
            with pytest.raises(InjectedWorkerError):
                list(supervisor.map(lambda x: x, [1]))

    def test_injected_hang_trips_the_watchdog_then_recovers(self):
        supervisor = SupervisedExecutor(
            SerialExecutor(),
            RetryPolicy(retries=1, task_timeout=0.1, backoff=0.0),
        )
        plan = FaultPlan(seed=0, task_timeout_rate=1.0, hang_seconds=0.4)
        with inject_faults(plan):
            values = list(supervisor.map(lambda x: x + 1, [41]))
        assert values == [42]

    def test_injected_hang_is_permanent_without_retries(self):
        supervisor = SupervisedExecutor(
            SerialExecutor(),
            RetryPolicy(retries=0, task_timeout=0.1, backoff=0.0),
        )
        plan = FaultPlan(
            seed=0, task_timeout_rate=1.0, hang_seconds=0.4, persistent=True
        )
        with inject_faults(plan):
            outcomes = list(supervisor.map_outcomes(lambda x: x, [1]))
        assert not outcomes[0].ok
        assert outcomes[0].failure.error_type == "TaskTimeoutError"
        assert isinstance(outcomes[0].exception, TaskTimeoutError)

    def test_crash_faults_downgrade_to_exceptions_in_process(self):
        supervisor = SupervisedExecutor(
            SerialExecutor(), RetryPolicy(retries=0, backoff=0.0)
        )
        plan = FaultPlan(seed=0, task_crash_rate=1.0, persistent=True)
        with inject_faults(plan):
            outcomes = list(supervisor.map_outcomes(lambda x: x, [1]))
        assert not outcomes[0].ok
        assert outcomes[0].failure.error_type == "InjectedCrashError"
        assert isinstance(outcomes[0].exception, InjectedCrashError)


# --------------------------------------------------------------------------- #
# Model verdicts fail on the first attempt; everything else is retried
# --------------------------------------------------------------------------- #
def _raise_simulation_error(item):
    """Module-level (picklable) task failing with a model verdict."""
    raise SimulationError(f"verdict for {item}")


class TestModelVerdictsAreNotRetried:
    @pytest.fixture
    def sleeps(self, monkeypatch):
        calls: list[float] = []
        monkeypatch.setattr(runtime.time, "sleep", calls.append)
        return calls

    @staticmethod
    def _failing(error: Exception):
        calls: list[int] = []

        def task(item):
            calls.append(item)
            raise error

        return task, calls

    @pytest.mark.parametrize(
        "error",
        [
            SimulationError("routed"),
            TreeError("cycle"),
            HeuristicError("stuck"),
            PlatformError("bad link"),
            ConfigError("bad value"),
        ],
        ids=lambda error: type(error).__name__,
    )
    def test_verdicts_fail_once_without_backoff(self, error, sleeps):
        task, calls = self._failing(error)
        supervisor = SupervisedExecutor(SerialExecutor())  # default policy
        (outcome,) = supervisor.map_outcomes(task, [1])
        assert not is_retryable(error)
        assert calls == [1]
        assert outcome.failure.attempts == 1
        assert outcome.exception is error
        assert sleeps == []

    @pytest.mark.parametrize(
        "error",
        [
            LPError("solver trouble"),
            ReproError("unknown"),
            ValueError("outside"),
            InjectedWorkerError("fault"),
            InjectedCrashError("crash"),
            TaskTimeoutError("hang"),
            WorkerCrashError("died"),
        ],
        ids=lambda error: type(error).__name__,
    )
    def test_other_failures_keep_the_retry_budget(self, error, sleeps):
        task, calls = self._failing(error)
        supervisor = SupervisedExecutor(SerialExecutor())
        (outcome,) = supervisor.map_outcomes(task, [1])
        assert is_retryable(error)
        assert calls == [1, 1, 1]
        assert outcome.failure.attempts == 3
        assert len(sleeps) == 2

    def test_session_simulation_error_job_fails_on_first_attempt(self, sleeps):
        recipe = PlatformRecipe.of("random", num_nodes=7, density=0.35, seed=1)
        job = Job.of_collective(
            recipe, "scatter", 0, None, heuristic="binomial", simulate=True
        )
        session = Session()
        assert session.retry_policy == RetryPolicy()
        (result,) = session.solve_many([job], on_error="collect")
        assert result.error.error_type == "SimulationError"
        assert result.error.attempts == 1
        assert sleeps == []

    def test_warm_pool_verdict_is_not_resubmitted(self, sleeps):
        from repro.pool import WarmPoolExecutor

        with WarmPoolExecutor(1) as pool:
            supervisor = SupervisedExecutor(pool, fault_hook=False)
            (outcome,) = supervisor.map_outcomes(_raise_simulation_error, [7])
            stats = pool.stats()
        assert outcome.failure.error_type == "SimulationError"
        assert isinstance(outcome.exception, SimulationError)
        assert outcome.failure.attempts == 1
        # One submission: the verdict never went back to the pool.
        assert (stats["completed"], stats["failed"]) == (0, 1)
        assert sleeps == []


# --------------------------------------------------------------------------- #
# LP solver: transient failures recovered by the method-fallback chain
# --------------------------------------------------------------------------- #
class TestSolverFallback:
    def _job(self):
        recipe = PlatformRecipe.of("random", num_nodes=6, density=0.4, seed=3)
        return Job(
            recipe,
            CollectiveSpec("broadcast", 0),
            heuristic="grow-tree",
            model="one-port",
        )

    def test_method_chain_starts_with_the_request_without_duplicates(self):
        from repro.lp.solver import _method_chain

        # Production: devex dual simplex, then HiGHS's default, then IPM.
        assert _method_chain("highs-ds-devex") == (
            "highs-ds-devex",
            "highs",
            "highs-ipm",
        )
        assert _method_chain("highs") == ("highs", "highs-ds-devex", "highs-ipm")
        chain = _method_chain("highs-ds")
        assert chain[0] == "highs-ds"
        assert len(chain) == len(set(chain))

    def test_every_solve_recovers_through_the_alternate_method(self):
        baseline = Session().solve(self._job()).lp_bound
        plan = FaultPlan(seed=0, solver_error_rate=1.0)
        with inject_faults(plan):
            recovered = Session().solve(self._job()).lp_bound
        assert recovered == pytest.approx(baseline, abs=1e-9)


# --------------------------------------------------------------------------- #
# Facade: failure as data
# --------------------------------------------------------------------------- #
class TestFailedResult:
    def _failure(self):
        return TaskFailure(
            label="job-x",
            error_type="InjectedWorkerError",
            message="boom",
            attempts=2,
        )

    def _job(self):
        recipe = PlatformRecipe.of("random", num_nodes=5, density=0.4, seed=11)
        return Job(
            recipe,
            CollectiveSpec("broadcast", 0),
            heuristic="binomial",
            model="one-port",
        )

    def test_failure_is_data_until_a_metric_is_touched(self):
        result = FailedResult(self._job(), Session(), self._failure())
        assert result.ok is False
        assert result.error == self._failure()
        assert result.metrics() == {}
        assert result.is_materialized() is False
        with pytest.raises(JobFailedError):
            result.throughput
        with pytest.raises(JobFailedError):
            result.materialize()
        with pytest.raises(ReproError):  # the library-wide contract
            result.lp_bound

    def test_serialization_round_trip(self):
        session = Session()
        result = FailedResult(self._job(), session, self._failure())
        restored = Result.from_json(result.to_json(), session=session)
        assert isinstance(restored, FailedResult)
        assert restored.ok is False
        assert restored.error == self._failure()
        assert restored.job.cache_key() == self._job().cache_key()

    def _two_jobs_and_plan(self):
        """Two jobs on one platform plus a plan failing exactly the first."""
        recipe = PlatformRecipe.of("random", num_nodes=5, density=0.4, seed=11)
        jobs = [
            Job(
                recipe,
                CollectiveSpec("broadcast", 0),
                heuristic=heuristic,
                model="one-port",
            )
            for heuristic in ("binomial", "grow-tree")
        ]
        keys = [job.cache_key() for job in jobs]
        for seed in range(500):
            plan = FaultPlan(seed=seed, task_error_rate=0.4, persistent=True)
            kinds = [classify_task(plan, key) for key in keys]
            if kinds == ["error", "ok"]:
                return jobs, plan
        raise AssertionError("no seed fails exactly the first job")

    def test_collect_mode_substitutes_failed_results(self):
        jobs, plan = self._two_jobs_and_plan()
        baseline = Session().solve_many(jobs)
        session = Session(retry_policy=RetryPolicy(retries=0, backoff=0.0))
        with inject_faults(plan):
            results = session.solve_many(jobs, on_error="collect")
        assert [r.ok for r in results] == [False, True]
        assert isinstance(results[0], FailedResult)
        assert results[0].error.error_type == "InjectedWorkerError"
        assert results[0].error.label == jobs[0].cache_key()
        # The surviving batch-mate is untouched by its neighbour's failure.
        assert results[1].deterministic_metrics() == baseline[1].deterministic_metrics()

    def test_raise_mode_propagates_the_original_exception(self):
        jobs, plan = self._two_jobs_and_plan()
        session = Session(retry_policy=RetryPolicy(retries=0, backoff=0.0))
        with inject_faults(plan):
            with pytest.raises(InjectedWorkerError):
                session.solve_many(jobs, on_error="raise")

    def test_unknown_on_error_mode_rejected(self):
        with pytest.raises(ConfigError):
            Session().solve_many([], on_error="ignore")

    def test_failed_results_are_never_persisted(self, tmp_path):
        jobs, plan = self._two_jobs_and_plan()
        session = Session(
            cache_dir=tmp_path, retry_policy=RetryPolicy(retries=0, backoff=0.0)
        )
        with inject_faults(plan):
            session.solve_many(jobs, on_error="collect")
        # A fresh session sees only the survivor on disk: the failed job is
        # recomputed (and now succeeds) instead of replaying its failure.
        fresh = Session(cache_dir=tmp_path)
        results = fresh.solve_many(jobs)
        assert all(r.ok for r in results)


# --------------------------------------------------------------------------- #
# Cache corruption faults
# --------------------------------------------------------------------------- #
class TestCacheCorruptionFaults:
    def test_corrupted_reads_are_quarantined_and_recomputed(self, tmp_path):
        RuntimeResultCache(tmp_path, version="v").put("k", [{"value": 1}])
        entry = tmp_path / "ensemble-k.json"
        assert entry.exists()
        fresh = RuntimeResultCache(tmp_path, version="v")
        with inject_faults(seed=0, cache_corrupt_rate=1.0):
            assert fresh.get("k") is None  # truncated payload: a miss
        assert not entry.exists()
        assert entry.with_suffix(".corrupt").exists()
        # Recompute-and-rewrite restores normal service.
        fresh.put("k", [{"value": 2}])
        assert RuntimeResultCache(tmp_path, version="v").get("k") == [{"value": 2}]


# --------------------------------------------------------------------------- #
# The acceptance campaign: 200 tasks, ~20% faults, keep_going + resume
# --------------------------------------------------------------------------- #
CAMPAIGN_TASKS = 200

_CAMPAIGN_POLICY = RetryPolicy(retries=0, task_timeout=1.0, backoff=0.001)


def _pick_campaign_plan(task_keys, job_keys):
    """First seed failing 25-55 tasks in all three ways, few timeout waits.

    Each predicted ``timeout`` costs one full ``task_timeout`` wait, so the
    scan bounds them to keep the suite fast; the bounds also pin the
    "roughly 20% of tasks fail" shape of the acceptance scenario.
    """
    for seed in range(300):
        plan = FaultPlan(
            seed=seed,
            task_error_rate=0.015,
            task_timeout_rate=0.0025,
            task_crash_rate=0.010,
            persistent=True,
            hang_seconds=2.5,
        )
        predicted = _predict_failures(plan, task_keys, job_keys)
        kinds = set(predicted.values())
        timeouts = sum(1 for kind in predicted.values() if kind == "timeout")
        if 25 <= len(predicted) <= 55 and timeouts <= 2 and kinds == {
            "error",
            "timeout",
            "crash",
        }:
            return plan, predicted
    raise AssertionError("no campaign seed matches the scenario shape")


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """Run the whole scenario once; the tests below assert its pieces."""
    parameters = _campaign_parameters(CAMPAIGN_TASKS, seed=77)
    tasks = random_ensemble_tasks(parameters, include_multi_port=False)
    assert len(tasks) == CAMPAIGN_TASKS
    task_keys, job_keys = _task_labels_and_job_keys(tasks)
    plan, predicted = _pick_campaign_plan(task_keys, job_keys)

    # Fault-free reference, through the same supervised per-task path.
    baseline_pipe = EvaluationPipeline(
        cache=ResultCache(tmp_path_factory.mktemp("baseline")),
        keep_going=True,
        retry_policy=RetryPolicy(retries=0),
    )
    baseline = baseline_pipe.evaluate("random", parameters, include_multi_port=False)
    assert not baseline_pipe.failures
    per_task = [baseline_pipe.cache.get(key) for key in task_keys]
    assert all(records for records in per_task)

    # The faulted campaign.
    cache_dir = tmp_path_factory.mktemp("campaign")
    pipe = EvaluationPipeline(
        cache=ResultCache(cache_dir),
        keep_going=True,
        retry_policy=_CAMPAIGN_POLICY,
    )
    with inject_faults(plan):
        survivors = pipe.evaluate("random", parameters, include_multi_port=False)

    return SimpleNamespace(
        parameters=parameters,
        tasks=tasks,
        task_keys=task_keys,
        plan=plan,
        predicted=predicted,
        baseline=baseline,
        per_task=per_task,
        survivors=survivors,
        failures=list(pipe.failures),
        cache_dir=cache_dir,
    )


class TestCampaignUnderFaults:
    def test_scenario_shape(self, campaign):
        fraction = len(campaign.predicted) / CAMPAIGN_TASKS
        assert 0.1 <= fraction <= 0.3  # "roughly 20% of tasks fail"

    def test_campaign_completes_with_every_failure_accounted(self, campaign):
        assert len(campaign.failures) == len(campaign.predicted)
        failed_keys = {
            ensemble_task_key(record.task) for record in campaign.failures
        }
        assert failed_keys == {
            campaign.task_keys[i] for i in campaign.predicted
        }
        by_key = {
            ensemble_task_key(record.task): record for record in campaign.failures
        }
        for index, kind in campaign.predicted.items():
            record = by_key[campaign.task_keys[index]]
            assert record.failure.error_type == _SERIAL_ERROR_TYPES[kind]
            assert record.failure.attempts == 1  # retries=0: one attempt
            assert record.failure.label == campaign.task_keys[index]
            assert record.describe()  # human-readable line renders

    def test_error_records_survive_serialization(self, campaign):
        from repro.experiments import TaskErrorRecord

        for record in campaign.failures:
            assert TaskErrorRecord.from_dict(record.to_dict()) == record

    def test_survivors_bit_identical_to_fault_free_run(self, campaign):
        expected = [
            payload
            for i, records in enumerate(campaign.per_task)
            if i not in campaign.predicted
            for payload in _payloads(records)
        ]
        assert _payloads(campaign.survivors) == expected

    def test_resume_recomputes_only_the_failed_tasks(self, campaign):
        counting = CountingSerial()
        resume = EvaluationPipeline(
            cache=ResultCache(campaign.cache_dir),
            executor=counting,
            keep_going=True,
            retry_policy=_CAMPAIGN_POLICY,
        )
        records = resume.evaluate(
            "random", campaign.parameters, include_multi_port=False
        )
        assert counting.calls == len(campaign.predicted)
        assert not resume.failures
        assert _payloads(records) == _payloads(campaign.baseline)

        # The completed campaign wrote its campaign-level entry: a third
        # invocation replays it without executing a single task.
        replay_counting = CountingSerial()
        replay = EvaluationPipeline(
            cache=ResultCache(campaign.cache_dir),
            executor=replay_counting,
            keep_going=True,
            retry_policy=_CAMPAIGN_POLICY,
        )
        replayed = replay.evaluate(
            "random", campaign.parameters, include_multi_port=False
        )
        assert replay_counting.calls == 0
        assert _payloads(replayed) == _payloads(campaign.baseline)

    def test_partial_campaign_is_never_replayed_as_complete(self, campaign):
        # The faulted run must not have written the campaign-level entry:
        # a fresh pipeline over the same disk cache still sees per-task
        # entries only (it would recompute the failed tasks).
        from repro.experiments.pipeline import ensemble_cache_key

        key = ensemble_cache_key(
            "random", campaign.parameters, include_multi_port=False
        )
        probe = ResultCache(campaign.cache_dir)
        # Reading straight from disk (fresh memory): per-task entries hit,
        # the campaign entry was deferred until the resume run above.
        assert probe.get(campaign.task_keys[0]) is not None


class TestCampaignOverWarmPool:
    def test_worker_crashes_are_charged_to_their_tasks(self, tmp_path):
        parameters = _campaign_parameters(12, seed=99)
        tasks = random_ensemble_tasks(parameters, include_multi_port=False)
        task_keys, job_keys = _task_labels_and_job_keys(tasks)
        plan = predicted = None
        for seed in range(200):
            candidate = FaultPlan(seed=seed, task_crash_rate=0.04, persistent=True)
            hits = _predict_failures(candidate, task_keys, job_keys)
            if 2 <= len(hits) <= 3:
                plan, predicted = candidate, hits
                break
        assert plan is not None, "no crash-plan seed matches"

        baseline_pipe = EvaluationPipeline(
            cache=ResultCache(tmp_path / "baseline"),
            keep_going=True,
            retry_policy=RetryPolicy(retries=0),
        )
        baseline = baseline_pipe.evaluate(
            "random", parameters, include_multi_port=False
        )
        per_task = [baseline_pipe.cache.get(key) for key in task_keys]

        with EvaluationPipeline(
            jobs=2,
            backend="warm-pool",
            cache=ResultCache(tmp_path / "campaign"),
            keep_going=True,
            retry_policy=RetryPolicy(retries=0, backoff=0.001),
        ) as pipe:
            with inject_faults(plan):
                survivors = pipe.evaluate(
                    "random", parameters, include_multi_port=False
                )
        # Closing the pool unlinked every segment this process published.
        assert not list(Path("/dev/shm").glob(f"repro_shm_{os.getpid()}_*"))

        assert len(pipe.failures) == len(predicted)
        assert {ensemble_task_key(r.task) for r in pipe.failures} == {
            task_keys[i] for i in predicted
        }
        # Crashes surface as the dead worker (WorkerCrashError) or, after
        # the pool has degraded to in-process execution, as the downgraded
        # InjectedCrashError — both structured, both accounted.
        assert all(
            record.failure.error_type in ("WorkerCrashError", "InjectedCrashError")
            for record in pipe.failures
        )
        expected = [
            payload
            for i, records in enumerate(per_task)
            if i not in predicted
            for payload in _payloads(records)
        ]
        assert _payloads(survivors) == expected
        assert not baseline_pipe.failures
        assert _payloads(baseline) == [
            payload for records in per_task for payload in _payloads(records)
        ]


# --------------------------------------------------------------------------- #
# Concurrent same-session access under injection
# --------------------------------------------------------------------------- #
class TestConcurrentSessionUnderFaults:
    """Threaded ``solve_many`` calls racing on one shared ``Session``.

    The solve service assumes a session's caches tolerate concurrent
    requests; here several threads push overlapping batches — with
    persistent injected faults — through one session and every thread must
    observe the exact fate ``classify_task`` predicts, with survivor
    metrics bit-identical to a fresh fault-free serial session.
    """

    def _threaded_jobs(self):
        return [
            Job.broadcast(
                PlatformRecipe.of(
                    "random", num_nodes=7, density=0.35, seed=200 + seed
                ),
                source=0,
            )
            for seed in range(6)
        ]

    def _mixed_plan(self, jobs):
        keys = [job.cache_key() for job in jobs]
        for seed in range(300):
            plan = FaultPlan(seed=seed, task_error_rate=0.35, persistent=True)
            fates = [classify_task(plan, key) for key in keys]
            if "error" in fates and fates.count("ok") >= 2:
                return plan
        raise AssertionError("no seed produced a mixed-fate plan")

    def test_threads_racing_one_session_agree_with_prediction(self):
        import threading

        jobs = self._threaded_jobs()
        plan = self._mixed_plan(jobs)
        expected = {
            job.cache_key(): classify_task(plan, job.cache_key())
            for job in jobs
        }
        session = Session(retry_policy=RetryPolicy(retries=0, backoff=0.001))
        # Overlapping batches: every thread shares some jobs with its
        # neighbours, so the memo caches are hit from several threads at
        # once for the same keys.
        batches = [jobs[0:4], jobs[2:6], jobs[::2], jobs[1::2], list(jobs)]
        outcomes: dict[int, list] = {}
        errors: list = []

        def run(index, batch):
            try:
                outcomes[index] = session.solve_many(batch, on_error="collect")
            except BaseException as error:  # pragma: no cover - fail loudly
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=(i, batch))
            for i, batch in enumerate(batches)
        ]
        # One plan activation around all threads: the plan travels in a
        # process-wide environment variable, so per-thread contexts would
        # race on it.
        with inject_faults(plan):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not errors
        assert sorted(outcomes) == list(range(len(batches)))

        reference = Session()
        reference_metrics = {
            job.cache_key(): reference.solve(job)
            .materialize()
            .deterministic_metrics()
            for job in jobs
            if expected[job.cache_key()] == "ok"
        }
        for index, batch in enumerate(batches):
            for job, result in zip(batch, outcomes[index]):
                fate = expected[job.cache_key()]
                if fate == "error":
                    assert isinstance(result, FailedResult), (index, fate)
                    assert result.error.error_type == "InjectedWorkerError"
                else:
                    assert result.ok, (index, job.describe())
                    assert (
                        result.deterministic_metrics()
                        == reference_metrics[job.cache_key()]
                    )


# --------------------------------------------------------------------------- #
# Campaign interruption (SIGTERM/SIGINT)
# --------------------------------------------------------------------------- #
class TestCampaignInterrupt:
    def test_sigterm_flushes_cache_and_writes_manifest(self, tmp_path):
        import json
        import signal as _signal

        from repro.experiments.pipeline import INTERRUPT_MANIFEST

        parameters = _campaign_parameters(configurations=4, seed=11)
        tasks = random_ensemble_tasks(parameters, include_multi_port=False)
        labels = [ensemble_task_key(task) for task in tasks]
        cache = ResultCache(tmp_path / "campaign")
        pipe = EvaluationPipeline(
            cache=cache, retry_policy=RetryPolicy(retries=0, backoff=0.001)
        )
        # SIGTERM the process right after the first task's write-through;
        # the campaign guard must convert it to a clean SystemExit *after*
        # finishing the write and leaving a manifest behind.
        original_put = cache.put
        fired = []

        def put_then_sigterm(key, rows):
            original_put(key, rows)
            if not fired:
                fired.append(True)
                os.kill(os.getpid(), _signal.SIGTERM)

        cache.put = put_then_sigterm
        before = _signal.getsignal(_signal.SIGTERM)
        with pytest.raises(SystemExit) as excinfo:
            pipe.evaluate("random", parameters, include_multi_port=False)
        assert excinfo.value.code == 128 + _signal.SIGTERM
        # The handler is restored after the guarded region.
        assert _signal.getsignal(_signal.SIGTERM) == before

        manifest_path = tmp_path / "campaign" / INTERRUPT_MANIFEST
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["reason"] == "SystemExit"
        assert manifest["exit_code"] == 128 + _signal.SIGTERM
        assert manifest["tasks_total"] == len(tasks)
        assert manifest["tasks_completed"] == 1
        assert set(manifest["pending_labels"]) == set(labels[1:])
        assert manifest["failures"] == []

        # The completed task survived the interrupt on disk ...
        cache.put = original_put
        assert cache.get(labels[0]) is not None
        # ... so a re-run resumes: only the pending tasks are recomputed.
        resumed = EvaluationPipeline(
            cache=ResultCache(tmp_path / "campaign"),
            retry_policy=RetryPolicy(retries=0, backoff=0.001),
        )
        records = resumed.evaluate("random", parameters, include_multi_port=False)
        fresh = EvaluationPipeline(
            cache=ResultCache(tmp_path / "fresh")
        ).evaluate("random", parameters, include_multi_port=False)
        assert _payloads(records) == _payloads(fresh)

    def test_keyboard_interrupt_also_writes_manifest(self, tmp_path):
        import json

        from repro.experiments.pipeline import INTERRUPT_MANIFEST

        parameters = _campaign_parameters(configurations=3, seed=12)
        cache = ResultCache(tmp_path / "campaign")
        pipe = EvaluationPipeline(
            cache=cache, retry_policy=RetryPolicy(retries=0, backoff=0.001)
        )
        original_put = cache.put
        fired = []

        def put_then_interrupt(key, rows):
            original_put(key, rows)
            if not fired:
                fired.append(True)
                raise KeyboardInterrupt

        cache.put = put_then_interrupt
        with pytest.raises(KeyboardInterrupt):
            pipe.evaluate("random", parameters, include_multi_port=False)
        manifest = json.loads(
            (tmp_path / "campaign" / INTERRUPT_MANIFEST).read_text()
        )
        assert manifest["reason"] == "KeyboardInterrupt"
        assert manifest["exit_code"] is None
        assert manifest["tasks_completed"] == 1
