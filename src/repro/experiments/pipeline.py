"""Batched, parallel, cached evaluation of platform ensembles.

The paper's headline artefacts (Figures 4a/4b/5, Table 3) all reduce to the
same shape of computation: *generate N platforms deterministically, evaluate
every heuristic on each, aggregate the records*.  This module turns that
shape into an explicit pipeline on top of the shared infrastructure of
:mod:`repro.runtime` and the :mod:`repro.api` facade:

1. **Tasks** — :func:`random_ensemble_tasks` / :func:`tiers_ensemble_tasks`
   expand a :class:`~repro.experiments.config.PaperParameters` into a flat
   list of self-contained :class:`EnsembleTask` descriptions.  Each task
   carries its own seed (derived with
   :func:`repro.utils.rng.derive_seed`), so evaluation order — and therefore
   parallelism — cannot change the results.
2. **Executors** — the order-preserving
   :class:`~repro.runtime.SerialExecutor` or the warm worker pool
   (:class:`~repro.pool.WarmPoolExecutor`), the same backends
   :class:`~repro.api.Session` uses.
3. **Cache** — :class:`ResultCache` specialises the two-level store of
   :mod:`repro.runtime` to :class:`EvaluationRecord` rows, keyed by a
   stable hash of the experiment parameters *and the library version*;
   changing any parameter field or upgrading the library is a cache miss,
   and corrupted disk entries are silently recomputed.

Each task runs as a list of declarative :class:`~repro.api.Job` solved
through a :class:`~repro.api.Session`, so the ensemble path and one-off
facade solves share the same code and the same LP-reuse behaviour.
Worker processes solve one task per call (:func:`run_ensemble_task`,
whose job groups are batched again inside the worker); the in-process
serial path instead shares one session across a *chunk* of tasks
(:func:`run_ensemble_tasks_batched`), handing
:meth:`Session.solve_many <repro.api.Session.solve_many>` the chunk's
whole job list at once so compatible jobs from different platforms can be
stacked into :class:`~repro.kernels.EnsembleBatch` sweeps.

:class:`EvaluationPipeline` glues the three together and is what the
runner, the CLI (``--jobs`` / ``--cache-dir``) and the benchmarks use.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, fields
from typing import Any, Iterator, Mapping

from .. import _version
from ..api import Job, PlatformRecipe, Session
from ..collectives import CollectiveSpec
from ..exceptions import ExperimentError
from ..runtime import (
    ResultCache as _GenericResultCache,
    RetryPolicy,
    SerialExecutor,
    SupervisedExecutor,
    TaskExecutor,
    TaskFailure,
    make_executor,
    stable_key,
)
from ..utils.rng import spawn_seeds
from .config import PaperParameters
from .evaluation import (
    EvaluationRecord,
    broadcast_jobs,
    evaluate_collective_platform,
    evaluate_platform,
    record_from_result,
)

__all__ = [
    "EnsembleTask",
    "TaskErrorRecord",
    "run_ensemble_task",
    "run_ensemble_tasks_batched",
    "random_ensemble_tasks",
    "tiers_ensemble_tasks",
    "collective_ensemble_tasks",
    "SerialExecutor",
    "ResultCache",
    "EvaluationPipeline",
    "INTERRUPT_MANIFEST",
    "ensemble_cache_key",
    "ensemble_task_key",
]

NodeName = Any


# --------------------------------------------------------------------------- #
# Tasks
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class EnsembleTask:
    """One self-contained platform evaluation (picklable, order-free).

    The task embeds everything a worker needs: the generator kind and its
    parameters, the derived per-instance seed, and the evaluation options.
    Two tasks built from the same parameters are equal, whatever process
    builds them.
    """

    kind: str  # "random" | "tiers" | "collective"
    instance_index: int
    seed: int
    source: NodeName
    send_fraction: float
    include_multi_port: bool
    num_nodes: int = 0
    density: float = 0.0
    rate_mean: float = 0.0
    rate_deviation: float = 0.0
    slice_size_mb: float = 0.0
    tiers_size: int = 0
    collective: str = "broadcast"
    num_targets: int = 0

    def platform_recipe(self) -> PlatformRecipe:
        """The declarative platform description this task evaluates."""
        if self.kind == "tiers":
            return PlatformRecipe.of("tiers", size=self.tiers_size, seed=self.seed)
        return PlatformRecipe.of(
            "random",
            num_nodes=self.num_nodes,
            density=self.density,
            rate_mean=self.rate_mean,
            rate_deviation=self.rate_deviation,
            slice_size_mb=self.slice_size_mb,
            send_fraction=self.send_fraction,
            seed=self.seed,
        )


def ensemble_task_key(task: EnsembleTask) -> str:
    """Stable per-task cache key (task payload + library version).

    The key doubles as the task's supervision label, so retry jitter and
    the deterministic fault-injection harness key on task *identity*, not
    position: serial, chunked and warm-pool runs, full campaigns and
    resumed ones all make the same per-task decisions.
    """
    return stable_key(
        {
            "task": {f.name: getattr(task, f.name) for f in fields(EnsembleTask)},
            "version": _version.__version__,
        }
    )


@dataclass(frozen=True)
class TaskErrorRecord:
    """One permanently failed ensemble task, as data (``--keep-going``).

    Pairs the full :class:`EnsembleTask` description (enough to re-derive
    and re-run the task) with its structured
    :class:`~repro.runtime.TaskFailure`; serializable so campaign reports
    can persist their failure manifest next to the records.
    """

    task: EnsembleTask
    failure: TaskFailure

    def describe(self) -> str:
        """One-line human summary for campaign logs."""
        task = self.task
        if task.kind == "random":
            what = f"random n={task.num_nodes} d={task.density:g}"
        elif task.kind == "tiers":
            what = f"tiers size={task.tiers_size}"
        else:
            what = f"{task.collective} |targets|={task.num_targets}"
        return f"[{what} #{task.instance_index}] {self.failure.summary()}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "task": {f.name: getattr(self.task, f.name) for f in fields(EnsembleTask)},
            "failure": self.failure.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaskErrorRecord":
        return cls(
            task=EnsembleTask(**dict(data["task"])),
            failure=TaskFailure.from_dict(data["failure"]),
        )


def random_ensemble_tasks(
    parameters: PaperParameters, *, include_multi_port: bool = True
) -> list[EnsembleTask]:
    """Tasks of the random-platform ensemble of Figures 4 and 5."""
    tasks: list[EnsembleTask] = []
    for num_nodes in parameters.node_counts:
        for density in parameters.densities:
            seeds = spawn_seeds(
                parameters.seed,
                parameters.configurations_per_point,
                "random",
                num_nodes,
                int(density * 1000),
            )
            for instance, seed in enumerate(seeds):
                tasks.append(
                    EnsembleTask(
                        kind="random",
                        instance_index=instance,
                        seed=seed,
                        source=parameters.source,
                        send_fraction=parameters.send_fraction,
                        include_multi_port=include_multi_port,
                        num_nodes=num_nodes,
                        density=density,
                        rate_mean=parameters.rate_mean,
                        rate_deviation=parameters.rate_deviation,
                        slice_size_mb=parameters.slice_size_mb,
                    )
                )
    return tasks


def tiers_ensemble_tasks(parameters: PaperParameters) -> list[EnsembleTask]:
    """Tasks of the Tiers-like ensembles of Table 3 (one-port only)."""
    tasks: list[EnsembleTask] = []
    for size in parameters.tiers_sizes:
        seeds = spawn_seeds(
            parameters.seed, parameters.tiers_platforms_per_size, "tiers", size
        )
        for instance, seed in enumerate(seeds):
            tasks.append(
                EnsembleTask(
                    kind="tiers",
                    instance_index=instance,
                    seed=seed,
                    source=parameters.source,
                    send_fraction=parameters.send_fraction,
                    include_multi_port=False,
                    tiers_size=size,
                )
            )
    return tasks


def collective_ensemble_tasks(parameters: PaperParameters) -> list[EnsembleTask]:
    """Tasks of the collective-scaling sweep (throughput vs |targets|).

    Every instance index maps to *one* platform (the seed ignores the kind
    and the target count), so all points of a curve — and the multicast and
    scatter curves themselves — are measured on the same nested-target
    platforms; the monotonicity the shape check asserts is then exact.
    """
    tasks: list[EnsembleTask] = []
    instance_seeds = spawn_seeds(
        parameters.seed, parameters.collective_instances, "collective"
    )
    for kind in ("multicast", "scatter"):
        for count in parameters.collective_target_counts:
            for instance, seed in enumerate(instance_seeds):
                tasks.append(
                    EnsembleTask(
                        kind="collective",
                        instance_index=instance,
                        seed=seed,
                        source=parameters.source,
                        send_fraction=parameters.send_fraction,
                        include_multi_port=False,
                        num_nodes=parameters.collective_nodes,
                        density=parameters.collective_density,
                        rate_mean=parameters.rate_mean,
                        rate_deviation=parameters.rate_deviation,
                        slice_size_mb=parameters.slice_size_mb,
                        collective=kind,
                        num_targets=count,
                    )
                )
    return tasks


def run_ensemble_task(
    task: EnsembleTask, retry_policy: RetryPolicy | None = None
) -> list[EvaluationRecord]:
    """Evaluate one task; module-level so process pools can pickle it.

    Every task gets a fresh :class:`~repro.api.Session` (its platform and
    seed are unique to the task, so there is nothing to share across
    tasks) and runs its jobs through the facade: the per-platform LP is
    solved once and shared by every heuristic and by the relative
    performance reference.  ``retry_policy`` propagates the pipeline's
    policy to the session's own per-job supervision.
    """
    session = Session(retry_policy=retry_policy)
    if task.kind == "collective":
        return evaluate_collective_platform(
            task.platform_recipe(),
            task.source,
            collective=task.collective,
            num_targets=task.num_targets,
            instance_index=task.instance_index,
            session=session,
        )
    if task.kind not in ("random", "tiers"):
        raise ExperimentError(f"unknown ensemble task kind {task.kind!r}")
    evaluation = evaluate_platform(
        task.platform_recipe(),
        task.source,
        generator=task.kind,
        instance_index=task.instance_index,
        send_fraction=task.send_fraction,
        include_multi_port=task.include_multi_port,
        session=session,
    )
    return evaluation.records


#: Tasks per shared-session chunk on the in-process path.  Bounds the
#: session's platform / tree / LP caches while still giving
#: ``Session.solve_many`` dozens of compatible jobs to stack per ensemble
#: batch; matches the per-group platform limit of the worker protocol.
_BATCH_CHUNK_TASKS = 32


def _task_jobs(task: EnsembleTask, session: Session) -> list[Job]:
    """The declarative job list of one task.

    Mirrors exactly what :func:`run_ensemble_task` submits through
    :func:`~repro.experiments.evaluation.evaluate_platform` /
    :func:`~repro.experiments.evaluation.evaluate_collective_platform`, so
    the chunked path below solves the same jobs in the same order.
    """
    recipe = task.platform_recipe()
    if task.kind == "collective":
        resolved = session.platform(recipe)
        others = [node for node in resolved.nodes if node != task.source]
        spec = CollectiveSpec(
            task.collective, task.source, tuple(others[: task.num_targets])
        )
        return [Job(recipe, spec, heuristic="grow-tree", model="one-port")]
    if task.kind not in ("random", "tiers"):
        raise ExperimentError(f"unknown ensemble task kind {task.kind!r}")
    return broadcast_jobs(
        recipe,
        task.source,
        send_fraction=task.send_fraction,
        include_multi_port=task.include_multi_port,
    )


def run_ensemble_tasks_batched(
    tasks: list[EnsembleTask], *, chunk_tasks: int = _BATCH_CHUNK_TASKS
) -> Iterator[list[EvaluationRecord]]:
    """Yield each task's records, solving a chunk of tasks per session.

    The in-process twin of mapping :func:`run_ensemble_task`: instead of a
    fresh :class:`~repro.api.Session` per task, one session serves
    ``chunk_tasks`` consecutive tasks and receives the chunk's entire job
    list in a single :meth:`~repro.api.Session.solve_many` call, which
    stacks compatible jobs across platforms into
    :class:`~repro.kernels.EnsembleBatch` sweeps.  Results come back in
    submission order, so slicing them per task reproduces the per-task
    record lists bit-identically (timing fields aside).
    """
    for start in range(0, len(tasks), chunk_tasks):
        chunk = tasks[start : start + chunk_tasks]
        session = Session()
        job_lists = [_task_jobs(task, session) for task in chunk]
        results = session.solve_many([job for jobs in job_lists for job in jobs])
        position = 0
        for task, jobs in zip(chunk, job_lists):
            sliced = results[position : position + len(jobs)]
            position += len(jobs)
            yield [
                record_from_result(
                    result,
                    generator=task.kind,
                    instance_index=task.instance_index,
                )
                for result in sliced
            ]


# --------------------------------------------------------------------------- #
# Cache
# --------------------------------------------------------------------------- #
def ensemble_cache_key(
    kind: str, parameters: PaperParameters, *, include_multi_port: bool = True
) -> str:
    """Stable cache key over *every* parameter field and the library version.

    Any change to a :class:`PaperParameters` field, to the ensemble kind or
    multi-port inclusion, or to ``repro.__version__`` yields a different
    key, so stale results can never be replayed.
    """
    payload = {
        "kind": kind,
        "include_multi_port": include_multi_port,
        "version": _version.__version__,
        "parameters": {
            f.name: getattr(parameters, f.name) for f in fields(parameters)
        },
    }
    return stable_key(payload)


class ResultCache(_GenericResultCache):
    """Two-level :class:`EvaluationRecord` cache (in-memory + on-disk JSON).

    A thin specialisation of :class:`repro.runtime.ResultCache`: rows are
    encoded with :meth:`EvaluationRecord.to_dict` on the way to disk and
    rebuilt with :meth:`EvaluationRecord.from_dict` on the way back; every
    other behaviour (same-list memory hits, write-through, atomic writes,
    corrupted entries treated as misses) is inherited.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike[str] | None = None,
        *,
        memory: dict[str, list[EvaluationRecord]] | None = None,
    ) -> None:
        super().__init__(
            cache_dir,
            memory=memory,
            encode=lambda record: record.to_dict(),
            decode=EvaluationRecord.from_dict,
            prefix="ensemble",
            version=_version.__version__,
        )


# --------------------------------------------------------------------------- #
# Interrupts
# --------------------------------------------------------------------------- #
#: Manifest file a supervised campaign leaves in its cache directory when a
#: SIGINT/SIGTERM interrupts it mid-run.
INTERRUPT_MANIFEST = "interrupt-manifest.json"


class _campaign_interrupt_guard:
    """Turn SIGTERM into an exception so campaigns can exit cleanly.

    SIGINT already raises :class:`KeyboardInterrupt` between bytecodes;
    SIGTERM by default kills the process wherever it stands — including
    halfway through a cache write-through loop.  Inside the guard, SIGTERM
    raises :class:`SystemExit` (with the conventional ``128 + signum``
    code) instead, so the supervised loop's ``except`` path runs: the
    current atomic cache write completes, the interrupt manifest is
    written, and the process exits with campaign state on disk.

    Installs nothing when not on the main thread (``signal.signal`` is
    main-thread-only); the campaign then keeps the host application's
    handling.
    """

    def __init__(self) -> None:
        self._previous: Any = None
        self._installed = False

    @staticmethod
    def _raise_exit(signum: int, frame: Any) -> None:
        raise SystemExit(128 + signum)

    def __enter__(self) -> "_campaign_interrupt_guard":
        if threading.current_thread() is threading.main_thread():
            self._previous = signal.signal(signal.SIGTERM, self._raise_exit)
            self._installed = True
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._installed:
            signal.signal(signal.SIGTERM, self._previous)
            self._installed = False


# --------------------------------------------------------------------------- #
# Pipeline
# --------------------------------------------------------------------------- #
class EvaluationPipeline:
    """Cached, executor-pluggable evaluation of platform ensembles.

    Parameters
    ----------
    jobs:
        Number of worker processes; 1 (the default) evaluates in-process,
        ``> 1`` dispatches to the warm worker pool
        (:class:`~repro.pool.WarmPoolExecutor`) — long-lived workers that
        keep a warm session and attach published platform arrays over
        shared memory — falling back to the batched serial path (with a
        :class:`RuntimeWarning`) on single-CPU hosts.
    backend:
        Executor backend name (``"serial"`` or ``"warm-pool"``; see :func:`~repro.runtime.available_backends`)
        to force instead of the automatic ``jobs``-based choice.
        Mutually exclusive with ``executor``.
    cache_dir:
        Optional directory for the on-disk result cache.
    cache:
        Pre-built :class:`ResultCache` (overrides ``cache_dir``); used by
        the runner to share one in-memory cache across pipelines.
    executor:
        Explicit executor instance (overrides ``jobs`` and ``backend``).
    keep_going:
        Campaign semantics for permanent task failures: instead of
        aborting the whole evaluation, the failed task becomes a
        :class:`TaskErrorRecord` in :attr:`failures`, its batch-mates keep
        their results, and the campaign completes.  Successful tasks are
        written through to the disk cache *as they finish*, so a crashed
        or failed campaign resumes where it left off — a second invocation
        recomputes only the missing tasks.
    retry_policy:
        Supervision policy (:class:`~repro.runtime.RetryPolicy`) for the
        per-task retries/timeouts; setting it (or ``keep_going``) opts the
        pipeline into the supervised per-task path.

    Attributes
    ----------
    failures:
        :class:`TaskErrorRecord` list accumulated across
        :meth:`evaluate` calls under ``keep_going`` (empty otherwise).
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        backend: str | None = None,
        cache_dir: str | os.PathLike[str] | None = None,
        cache: ResultCache | None = None,
        executor: TaskExecutor | None = None,
        keep_going: bool = False,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        if executor is not None and backend is not None:
            raise ExperimentError(
                "pass either an executor instance or a backend name, not both"
            )
        if executor is None:
            executor = make_executor(backend, jobs)
        self.executor = executor
        self.cache = cache if cache is not None else ResultCache(cache_dir)
        self.keep_going = bool(keep_going)
        self.retry_policy = retry_policy
        self.failures: list[TaskErrorRecord] = []

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the executor (stops warm-pool workers, unlinks segments)."""
        closer = getattr(self.executor, "close", None)
        if callable(closer):
            closer()

    def __enter__(self) -> "EvaluationPipeline":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        kind: str,
        parameters: PaperParameters,
        *,
        include_multi_port: bool = True,
        progress: bool = False,
    ) -> list[EvaluationRecord]:
        """Evaluate the ``kind`` ensemble ("random" or "tiers") of ``parameters``.

        Returns the cached record list when the exact same experiment (all
        parameter fields, same library version) was evaluated before.
        """
        if kind == "random":
            tasks = random_ensemble_tasks(
                parameters, include_multi_port=include_multi_port
            )
        elif kind == "tiers":
            # Tiers ensembles are one-port only; normalise the flag so it
            # cannot split identical computations over two cache keys.
            include_multi_port = False
            tasks = tiers_ensemble_tasks(parameters)
        elif kind == "collective":
            include_multi_port = False
            tasks = collective_ensemble_tasks(parameters)
        else:
            raise ExperimentError(f"unknown ensemble kind {kind!r}")

        key = ensemble_cache_key(
            kind, parameters, include_multi_port=include_multi_port
        )
        cached = self.cache.get(key)
        if cached is not None:
            return cached

        if self.keep_going or self.retry_policy is not None:
            return self._evaluate_supervised(tasks, key, progress)

        if type(self.executor) is SerialExecutor:
            # In-process runs share one session per chunk of tasks so that
            # solve_many can stack compatible jobs from different platforms
            # into ensemble batches (repro.kernels.batch).  Worker pools
            # keep the one-task-per-call protocol; their job groups are
            # batched again inside each worker.
            record_lists = run_ensemble_tasks_batched(tasks)
        else:
            record_lists = self.executor.map(run_ensemble_task, tasks)

        records: list[EvaluationRecord] = []
        for task, task_records in zip(tasks, record_lists):
            records.extend(task_records)
            if progress and task_records:
                self._print_progress(task, task_records)
        self.cache.put(key, records)
        return records

    @staticmethod
    def _print_progress(
        task: EnsembleTask, task_records: "list[EvaluationRecord]"
    ) -> None:
        if task.kind == "random":
            label = f"n={task.num_nodes} d={task.density:.2f}"
        elif task.kind == "collective":
            label = f"{task.collective} |targets|={task.num_targets}"
        else:
            label = f"size={task.tiers_size}"
        print(
            f"[{task.kind}] {label} #{task.instance_index}: "
            f"optimum={task_records[0].optimal_throughput:.4f}"
        )

    def _evaluate_supervised(
        self,
        tasks: "list[EnsembleTask]",
        campaign_key: str,
        progress: bool,
    ) -> "list[EvaluationRecord]":
        """Per-task supervised evaluation with resume and ``keep_going``.

        Each task is checked against its *own* cache entry first — a prior
        run (crashed, failed or simply interrupted) left one entry per
        completed task, so only the missing tasks are recomputed.  Fresh
        results are written through as they finish.  Permanent failures
        either re-raise (default) or, under ``keep_going``, land in
        :attr:`failures` as :class:`TaskErrorRecord` entries while the
        rest of the campaign completes.  The campaign-level cache entry is
        only written when every task succeeded, so a partial campaign can
        never be replayed as a complete one.
        """
        policy = self.retry_policy if self.retry_policy is not None else RetryPolicy()
        labels = [ensemble_task_key(task) for task in tasks]
        record_lists: "list[list[EvaluationRecord] | None]" = []
        pending: list[int] = []
        for i in range(len(tasks)):
            resumed = self.cache.get(labels[i])
            record_lists.append(resumed)
            if resumed is None:
                pending.append(i)
        failed = 0
        if pending:
            supervisor = SupervisedExecutor(self.executor, policy)
            # The task timeout bounds whole tasks here; the session inside
            # each task inherits the retry/backoff knobs but not the
            # timeout (a task is many jobs long).
            inner = dataclasses.replace(policy, task_timeout=None)
            outcomes = supervisor.map_outcomes(
                functools.partial(run_ensemble_task, retry_policy=inner),
                [tasks[i] for i in pending],
                labels=[labels[i] for i in pending],
            )
            try:
                with _campaign_interrupt_guard():
                    for outcome in outcomes:
                        i = pending[outcome.index]
                        if outcome.ok:
                            record_lists[i] = outcome.value
                            # Write-through per task: this is what resume reads.
                            self.cache.put(labels[i], outcome.value)
                            if progress:
                                self._print_progress(tasks[i], outcome.value)
                            continue
                        if not self.keep_going:
                            outcome.raise_if_failed()
                        failed += 1
                        self.failures.append(
                            TaskErrorRecord(tasks[i], outcome.failure)
                        )
                        if progress:
                            print(f"[failed] {self.failures[-1].describe()}")
            except (KeyboardInterrupt, SystemExit) as interruption:
                # Completed tasks are already on disk (each cache write is
                # atomic and happened before this point); record what state
                # the campaign stopped in, then let the interrupt proceed.
                self._write_interrupt_manifest(tasks, labels, record_lists, interruption)
                raise
        records = [
            record
            for task_records in record_lists
            if task_records is not None
            for record in task_records
        ]
        if not failed:
            self.cache.put(campaign_key, records)
        return records

    def _write_interrupt_manifest(
        self,
        tasks: "list[EnsembleTask]",
        labels: "list[str]",
        record_lists: "list[list[EvaluationRecord] | None]",
        interruption: BaseException,
    ) -> None:
        """Leave a resume manifest in the cache directory on interrupt.

        Records which tasks completed (and are on disk), which are still
        pending, and the structured failures collected so far — so an
        operator inspecting an interrupted campaign knows exactly what a
        re-run will recompute.  Written atomically (temp file + rename)
        next to the per-task entries; skipped silently when the pipeline
        has no disk cache (nothing survives the process then anyway).
        """
        cache_dir = getattr(self.cache, "cache_dir", None)
        if cache_dir is None:
            return
        manifest = {
            "interrupted_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "reason": type(interruption).__name__,
            "exit_code": (
                interruption.code
                if isinstance(interruption, SystemExit)
                else None
            ),
            "tasks_total": len(tasks),
            "tasks_completed": sum(
                1 for task_records in record_lists if task_records is not None
            ),
            "pending_labels": [
                labels[i]
                for i in range(len(tasks))
                if record_lists[i] is None
            ],
            "failures": [record.to_dict() for record in self.failures],
        }
        try:
            os.makedirs(cache_dir, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(
                dir=cache_dir, prefix="interrupt-manifest.", suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
            os.replace(temp_path, os.path.join(cache_dir, INTERRUPT_MANIFEST))
        except OSError:
            pass  # a full/readonly disk must not mask the interrupt itself
