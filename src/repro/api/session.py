"""The cache- and executor-owning engine of the facade: :class:`Session`.

One :class:`Session` owns every piece of shared state a solve needs:

* the **LP solution cache** (:class:`~repro.lp.solver.LPSolutionCache`),
  keyed by platform identity / spec / size, so every heuristic, metric and
  CLI command on one platform pays for its LP exactly once;
* the **platform instances** resolved from jobs (inline or recipe) — the
  session hands out one shared :class:`~repro.platform.graph.Platform` per
  distinct platform payload, which also makes the per-platform compiled
  and reversed views (``platform.compiled()`` / ``platform.reversed()``)
  session-owned;
* the **built trees** and throughput reports, keyed by the job fields that
  determine them (platform, collective, heuristic, model, size);
* the **result cache** (:class:`~repro.runtime.ResultCache`): an in-memory
  plus optional on-disk store of materialized metric payloads, keyed by
  the job's canonical payload and the library version;
* the **executor** (:class:`~repro.runtime.SerialExecutor` or the warm
  worker pool, :class:`~repro.pool.WarmPoolExecutor`):
  :meth:`Session.solve_many` fans a batch out through it, so batch work and
  single solves share one code path and one cache keying scheme.

``session.solve(job)`` is lazy — it returns a
:class:`~repro.api.Result` immediately and computes on attribute access;
``session.solve_many(jobs)`` materializes every job's standard metric set
(through warm worker processes when the session runs the warm pool)
and persists the payloads into the result cache.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace
from typing import Any, Iterable

from .._version import __version__
from ..analysis.makespan import MakespanReport, pipelined_makespan
from ..analysis.throughput import ThroughputReport, collective_throughput
from ..core.registry import build_collective_tree, get_heuristic
from ..core.tree import BroadcastTree
from ..exceptions import ConfigError, ReproError, WorkerCrashError
from ..lp.solution import SteadyStateSolution
from ..lp.solver import LPSolutionCache
from ..platform.graph import Platform
from ..runtime import (
    BoundedCache,
    ByteBudget,
    ResultCache,
    RetryPolicy,
    SerialExecutor,
    SupervisedExecutor,
    TaskExecutor,
    TaskFailure,
    approx_nbytes,
    is_retryable,
    make_executor,
    stable_key,
)
from ..simulation.broadcast import SimulationResult
from ..simulation.collective import simulate_collective
from .dynamic import DynamicJob, DynamicResult
from .job import Job, PlatformRecipe, platform_payload
from .result import FailedResult, Result

__all__ = ["Session", "PendingBatch", "default_session"]


def _tree_nbytes(tree: "BroadcastTree") -> int:
    """Tree cache charge: own structure + compiled arrays, not the platform.

    The platform a tree points back into is charged by the platform cache;
    counting it again here would make every tree look platform-sized and
    starve the tree cache under a shared byte budget.
    """
    total = approx_nbytes(tree.parents) + approx_nbytes(tree.routes)
    for view in tree.__dict__.get("_compiled_tree_cache", {}).values():
        total += view.nbytes
    return total


def _simulation_nbytes(sim: SimulationResult) -> int:
    """Simulation cache charge, equal to ``approx_nbytes(sim)`` in O(nodes).

    The generic walk visits every arrival float; here each arrival list is
    charged as its ``sys.getsizeof`` plus one float per slice, which is what
    the walk adds up for a list of floats.  Arrival lists are homogeneous
    (``tolist()`` of a float array, or engine times), so their end items
    stand for the whole list.  Traced results, and arrival lists of any
    other element type, take the walk itself.
    """
    if len(sim.trace):
        return approx_nbytes(sim)
    arrivals = sim.arrival_times
    fields = sim.__dict__
    total = sys.getsizeof(sim) + sys.getsizeof(fields) + sys.getsizeof(arrivals)
    for name, value in fields.items():
        total += sys.getsizeof(name)
        if value is not arrivals:
            total += approx_nbytes(value, max_depth=2)
    float_size = sys.getsizeof(0.0)
    for node, times in arrivals.items():
        if times and (type(times[0]) is not float or type(times[-1]) is not float):
            return approx_nbytes(sim)
        total += approx_nbytes(node, max_depth=1)
        total += sys.getsizeof(times) + float_size * len(times)
    return total


def _pending_indices(batch: "list[Job]", results: "list[Result]") -> list[int]:
    """Positions of the batch's unmaterialized jobs, one per cache key.

    Equal jobs share one payload, so one representative per cache key is
    enough (and worker processes must not each pay the full solve for the
    same description).
    """
    pending: list[int] = []
    dispatched: set[str] = set()
    for i, result in enumerate(results):
        if result.is_materialized():
            continue
        key = batch[i].cache_key()
        if key in dispatched:
            continue
        dispatched.add(key)
        pending.append(i)
    return pending


class Session:
    """See the module docstring; this is the facade's engine.

    Parameters
    ----------
    jobs:
        Worker processes for :meth:`solve_many`; 1 (the default) solves
        batches in-process.
    cache_dir:
        Optional directory persisting materialized results on disk, keyed
        by job payload and library version.
    executor:
        Explicit executor instance (overrides ``jobs`` and ``backend``).
    backend:
        Executor backend name (``"serial"`` / ``"warm-pool"``; see
        :func:`~repro.runtime.make_executor`).  The default ``None`` picks
        automatically: serial for ``jobs == 1``, the warm worker pool for
        ``jobs > 1`` — except on single-CPU hosts, where the call warns and
        runs the batched serial path instead of a pool that could only
        lose.  Naming a backend forces it.
    retry_policy:
        How :meth:`solve_many` supervises its tasks — per-attempt timeout,
        retry budget, backoff (see :class:`~repro.runtime.RetryPolicy`).
        Defaults to ``RetryPolicy()`` (two retries, no timeout).
    lp_cache / result_cache:
        Pre-built caches (advanced; lets several sessions share state).
    max_cache_entries / max_cache_bytes:
        Budgets for the session-owned caches.  ``max_cache_entries`` bounds
        each memo cache (platforms, trees, reports, makespans, simulations,
        metric payloads, LP solutions) individually; ``max_cache_bytes`` is
        *one shared byte ceiling* across all of them, enforced by global
        least-recently-used eviction (:class:`~repro.runtime.ByteBudget`).
        Evicted entries are recomputed (or re-read from the disk result
        cache) on the next access — correctness is unaffected, memory stays
        bounded, which is what a long-lived solve service needs.  The
        defaults (``None``) keep the historical unbounded behaviour.

    Error handling
    --------------
    Every failure the facade raises derives from
    :class:`~repro.exceptions.ReproError`, so ``except ReproError`` around a
    solve catches everything the library can throw — invalid jobs, LP
    failures, heuristic errors, timeouts, crashed workers and injected
    faults alike.  With ``solve_many(..., on_error="collect")`` failures do
    not raise at all: they come back as
    :class:`~repro.api.result.FailedResult` records.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache_dir: str | os.PathLike[str] | None = None,
        executor: TaskExecutor | None = None,
        backend: str | None = None,
        retry_policy: RetryPolicy | None = None,
        lp_cache: LPSolutionCache | None = None,
        result_cache: ResultCache | None = None,
        max_cache_entries: int | None = None,
        max_cache_bytes: int | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if executor is not None and backend is not None:
            raise ConfigError("pass either an executor instance or a backend name, not both")
        if executor is None:
            executor = make_executor(backend, jobs)
        self.executor = executor
        #: Warm-pool dispatch counters surfaced by :meth:`cache_stats`.
        self._worker_stats: dict[str, int] = {
            "groups_dispatched": 0,
            "jobs_shipped": 0,
            "warm_reuse_hits": 0,
            "shm_attached": 0,
            "degraded_groups": 0,
        }
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        #: Shared byte ceiling across every session-owned cache (or None).
        self.cache_budget = (
            ByteBudget(max_cache_bytes) if max_cache_bytes is not None else None
        )

        def bounded(name: str, sizeof: Any = None) -> BoundedCache:
            return BoundedCache(
                max_cache_entries,
                budget=self.cache_budget,
                sizeof=sizeof,
                name=name,
            )

        self.lp_cache = (
            lp_cache
            if lp_cache is not None
            else LPSolutionCache(max_cache_entries, budget=self.cache_budget)
        )
        self.results = (
            result_cache
            if result_cache is not None
            else ResultCache(
                cache_dir,
                prefix="job",
                version=__version__,
                memory=bounded("result-rows"),
            )
        )
        # Platform entries record the instance's mutation epoch at insert:
        # a platform mutated after registration is a miss, not a stale hit.
        self._platforms: BoundedCache = bounded("platforms")
        self._trees: BoundedCache = bounded("trees", sizeof=_tree_nbytes)
        self._reports: BoundedCache = bounded("reports")
        self._makespans: BoundedCache = bounded("makespans")
        self._simulations: BoundedCache = bounded(
            "simulations", sizeof=_simulation_nbytes
        )
        self._payloads: BoundedCache = bounded("payloads")
        # Metric-key count at last persist per job; metrics only ever grow
        # (setdefault), so an unchanged count means nothing new to write.
        # Entry-bounded only: the values are a handful of bytes each.
        self._persisted: BoundedCache = BoundedCache(
            max_cache_entries, name="persisted"
        )
        # Wall-clock of the *actual* solve per LP identity: every job that
        # shares an LP reports the platform's real solve time, not the
        # near-zero cache-hit time of whoever asked second.
        self._lp_times: BoundedCache = BoundedCache(
            max_cache_entries, name="lp-times"
        )

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def solve(self, job: Job) -> Result:
        """Return the lazy :class:`Result` of ``job``.

        Nothing is computed here: previously materialized metrics (from an
        earlier solve in this session or from the on-disk cache) are
        attached, everything else is computed on first attribute access and
        memoized.
        """
        self._payload(job)
        return Result(job, self)

    def solve_dynamic(self, job: DynamicJob) -> DynamicResult:
        """Return the lazy :class:`DynamicResult` of a dynamic campaign.

        Nothing runs here: the trace generation, replay and policy
        comparison happen on first access to any time-series property (or
        :meth:`DynamicResult.materialize`), land in the job's metric
        payload, and persist through the same two-level result cache as
        ordinary solves — a repeated campaign replays instead of re-running.
        """
        self._payload(job)
        return DynamicResult(job, self)

    def solve_many(
        self,
        jobs: Iterable[Job],
        *,
        materialize: bool = True,
        on_error: str = "raise",
        retry_policy: RetryPolicy | None = None,
    ) -> list[Result]:
        """Solve a batch of jobs, fanning out through the session executor.

        Already-cached jobs are skipped; the remainder runs in-process on
        any non-pool executor, or ships as JSON job groups (one per
        platform) to the warm worker pool.  Either way the metric payloads
        are bit-identical to sequential :meth:`solve` calls (timing fields
        excepted) and end up in the session's result cache.

        Tasks are supervised under the session's
        :class:`~repro.runtime.RetryPolicy`: transient failures (injected or
        organic) are retried with backoff and hung tasks are timed out.  A
        group whose warm worker crashes is resubmitted while the pool's
        respawn budget lasts; once the pool is unhealthy the group runs
        in-process (a degraded group).  Model verdicts (a simulation,
        tree, heuristic, platform or configuration error computed from the
        job alone) fail on the first attempt; see
        :func:`~repro.runtime.is_retryable`.

        ``on_error`` selects what a *permanent* failure does:

        * ``"raise"`` (default): re-raise the job's original exception —
          always a :class:`~repro.exceptions.ReproError` for library
          failures.
        * ``"collect"``: every failed job becomes a
          :class:`~repro.api.result.FailedResult` in the returned list
          (successful batch-mates are unaffected), letting campaigns keep
          going and account for failures afterwards.

        ``retry_policy`` overrides the session policy for this call only —
        the solve service uses it to thread each request's remaining
        deadline into the per-task timeouts.
        """
        if on_error not in ("raise", "collect"):
            raise ConfigError(
                f"on_error must be 'raise' or 'collect', got {on_error!r}"
            )
        policy = retry_policy if retry_policy is not None else self.retry_policy
        batch = list(jobs)
        results = [self.solve(job) for job in batch]
        if not materialize:
            return results
        pending = _pending_indices(batch, results)
        failures: dict[str, TaskFailure] = {}
        if pending:
            if getattr(self.executor, "supervises_as_pool", False):
                _WarmDispatch(self, batch, pending, on_error, policy).settle(
                    failures
                )
            else:
                self._solve_pending_inprocess(
                    batch, results, pending, on_error, failures, policy
                )
        return self._finalize_many(batch, results, failures)

    def solve_many_async(
        self,
        jobs: Iterable[Job],
        *,
        on_error: str = "raise",
        retry_policy: RetryPolicy | None = None,
    ) -> "PendingBatch":
        """Dispatch a batch without blocking on it; settle via the handle.

        On a warm-pool session the job groups are published and submitted
        *now* and the returned :class:`PendingBatch` settles them on
        :meth:`PendingBatch.result` — which is how the solve service
        overlaps micro-batches with in-flight pool work.  On every other
        executor the batch solves synchronously here and the handle is
        already complete (same results, no concurrency).
        """
        if on_error not in ("raise", "collect"):
            raise ConfigError(
                f"on_error must be 'raise' or 'collect', got {on_error!r}"
            )
        if not getattr(self.executor, "supervises_as_pool", False):
            return PendingBatch(
                self, [], [], None,
                final=self.solve_many(
                    jobs, on_error=on_error, retry_policy=retry_policy
                ),
            )
        policy = retry_policy if retry_policy is not None else self.retry_policy
        batch = list(jobs)
        results = [self.solve(job) for job in batch]
        pending = _pending_indices(batch, results)
        dispatch = (
            _WarmDispatch(self, batch, pending, on_error, policy)
            if pending
            else None
        )
        return PendingBatch(self, batch, results, dispatch)

    def _finalize_many(
        self,
        batch: "list[Job]",
        results: "list[Result]",
        failures: "dict[str, TaskFailure]",
    ) -> "list[Result]":
        """Shared solve_many tail: substitute failures, persist successes."""
        if failures:
            # Twins deduplicated away share their representative's fate.
            for i, job in enumerate(batch):
                failure = failures.get(job.cache_key())
                if failure is not None:
                    results[i] = FailedResult(job, self, failure)
        for i, job in enumerate(batch):
            if results[i].ok:
                self._persist(job)
        return results

    def _solve_pending_inprocess(
        self,
        batch: "list[Job]",
        results: "list[Result]",
        pending: "list[int]",
        on_error: str,
        failures: "dict[str, TaskFailure]",
        policy: RetryPolicy,
    ) -> None:
        """Materialize pending jobs on this session's own caches.

        Any in-process executor (serial, threads, custom test doubles)
        works directly.  Compatible jobs (same port model / slice count,
        direct trees) first go through one ensemble-batched kernel sweep
        priming the makespan/simulation caches, then ``materialize()``
        fills the shared payloads in place (and computes whatever the
        batch did not cover).  Supervision labels are the job cache keys,
        so retries and injected faults are deterministic across runs and
        process layouts.
        """
        self._materialize_batched(batch, pending)
        labels = [batch[i].cache_key() for i in pending]
        supervisor = SupervisedExecutor(self.executor, policy)
        outcomes = supervisor.map_outcomes(
            lambda i: results[i].materialize() and None, pending, labels=labels
        )
        for outcome in outcomes:
            if outcome.ok:
                continue
            if on_error == "raise":
                outcome.raise_if_failed()
            failures[labels[outcome.index]] = outcome.failure

    #: Distinct message sizes published into shared memory per job group;
    #: sizes beyond the cap simply compile worker-locally (correctness is
    #: unaffected, the segments stay bounded).
    _SHM_SIZES_PER_GROUP = 4

    def _publish_group_platform(
        self, platform_key: str, jobs: "list[Job]"
    ) -> tuple[list[dict[str, Any]], list[Any]]:
        """Publish one group's compiled platform arrays into shared memory.

        Returns the shared-memory references to embed in the group task
        (segment name, array layout, scalar sidecar) plus the registry keys
        the caller must release once the group settles.  Publication is an
        optimization: any failure here returns empty refs and the workers
        compile locally — bit-identical results either way.
        """
        registry = getattr(self.executor, "registry", None)
        if registry is None or not jobs:
            return [], []
        refs: list[dict[str, Any]] = []
        keys: list[Any] = []
        try:
            platform = self.platform_for(jobs[0])
            sizes: list[float] = []
            for job in jobs:
                size = platform.slice_size if job.size is None else float(job.size)
                if size not in sizes:
                    sizes.append(size)
                if len(sizes) >= self._SHM_SIZES_PER_GROUP:
                    break
            for size in sizes:
                compiled = platform.compiled(size)
                key = (platform_key, compiled.size)
                segment, layout = registry.publish(key, compiled.array_bundle())
                registry.acquire(key)
                keys.append(key)
                refs.append(
                    {
                        "segment": segment,
                        "layout": layout,
                        "meta": {
                            "platform_name": compiled.platform_name,
                            "slice_size": compiled.slice_size,
                            "size": compiled.size,
                            "node_names": list(compiled.node_names),
                        },
                    }
                )
        except Exception:
            for key in keys:
                registry.release(key)
            return [], []
        return refs, keys

    def _merge_group_value(
        self,
        batch: "list[Job]",
        group: "list[int]",
        value: dict[str, Any],
        failures: "dict[str, TaskFailure]",
    ) -> None:
        """Fold one warm group's reply into payloads, failures and stats."""
        rider = value.get("worker", {})
        self._worker_stats["warm_reuse_hits"] += int(rider.get("platform_reuse", 0))
        self._worker_stats["shm_attached"] += int(rider.get("shm_attached", 0))
        for i, entry in zip(group, value["entries"]):
            if "error" in entry:
                failures[batch[i].cache_key()] = TaskFailure.from_dict(
                    entry["error"]
                )
                continue
            payload = self._payload(batch[i])
            for name, metric in entry["metrics"].items():
                payload.setdefault(name, metric)

    def platform(self, platform: "Platform | PlatformRecipe") -> Platform:
        """The session-shared instance of ``platform`` (building recipes once).

        Two jobs describing the same platform — by recipe or by equal
        inline payload — resolve to the *same* object, so the LP cache
        (keyed by platform identity) and the per-platform compiled /
        reversed views are shared between them.
        """
        return self._resolve_platform(stable_key(platform_payload(platform)), platform)

    def _resolve_platform(
        self, key: str, platform: "Platform | PlatformRecipe"
    ) -> Platform:
        entry = self._platforms.get(key)
        if entry is not None:
            existing, epoch = entry
            if existing.mutation_epoch == epoch:
                return existing
            # The registered instance was mutated since: it no longer
            # matches the description this key stands for.
        resolved = platform.build() if isinstance(platform, PlatformRecipe) else platform
        self._platforms[key] = (resolved, resolved.mutation_epoch)
        return resolved

    # ------------------------------------------------------------------ #
    # Per-job computation (called lazily by Result)
    # ------------------------------------------------------------------ #
    def _payload(self, job: Job) -> dict[str, Any]:
        """The live metric payload of ``job`` (attaching cached entries)."""
        key = job.cache_key()
        payload = self._payloads.get(key)
        if payload is None:
            rows = self.results.get(key)
            payload = dict(rows[0]) if rows else {}
            if rows:
                # The attached content is exactly what the cache holds:
                # prime the no-rewrite guard so replays don't churn disk.
                self._persisted[key] = len(payload)
            self._payloads[key] = payload
        return payload

    def _persist(self, job: Job) -> None:
        """Snapshot ``job``'s payload into the two-level result cache.

        Metrics only ever accumulate, so an unchanged key count since the
        last snapshot means there is nothing new to write — replaying a
        cached batch must not rewrite every disk entry.
        """
        key = job.cache_key()
        payload = self._payload(job)
        if not payload or self._persisted.get(key) == len(payload):
            return
        self.results.put(key, [dict(payload)])
        self._persisted[key] = len(payload)

    def platform_for(self, job: Job) -> Platform:
        """Resolve ``job.platform`` through the session platform store."""
        # The job memoizes its platform key; don't re-serialize the platform.
        return self._resolve_platform(job.platform_key(), job.platform)

    def lp_solution_for(self, job: Job) -> SteadyStateSolution:
        """The (cached) LP solution of the job's collective."""
        platform = self.platform_for(job)
        payload = self._payload(job)
        spec = job.collective
        lp_key = (job.platform_key(), spec.kind.value, spec.source, spec.targets, job.size)
        start = time.perf_counter()
        solution = self.lp_cache.solve_collective(platform, spec, job.size)
        self._lp_times.setdefault(lp_key, time.perf_counter() - start)
        payload.setdefault("lp_seconds", self._lp_times[lp_key])
        payload.setdefault("lp_bound", solution.throughput)
        return solution

    def tree_for(self, job: Job) -> BroadcastTree:
        """The (cached) tree of the job's heuristic on its platform."""
        key = job.tree_key()
        tree = self._trees.get(key)
        elapsed = 0.0
        if tree is None:
            platform = self.platform_for(job)
            heuristic = get_heuristic(job.heuristic)
            extra: dict[str, Any] = {}
            if heuristic.uses_lp_solution:
                # Share this job's LP solution instead of re-solving inside
                # the heuristic (the CLI and the runner did this by hand).
                extra["lp_solution"] = self.lp_solution_for(job)
            start = time.perf_counter()
            tree = build_collective_tree(
                platform,
                job.collective,
                heuristic=heuristic,
                model=job.port_model(),
                size=job.size,
                strict_model=False,
                **extra,
            )
            elapsed = time.perf_counter() - start
            self._trees[key] = tree
        self._payload(job).setdefault("build_seconds", elapsed)
        return tree

    def report_for(self, job: Job) -> ThroughputReport:
        """The (cached) steady-state throughput report of the job's tree."""
        key = job.tree_key()
        report = self._reports.get(key)
        if report is None:
            report = collective_throughput(
                self.tree_for(job), job.collective, job.port_model(), job.size
            )
            self._reports[key] = report
        payload = self._payload(job)
        payload.setdefault("throughput", report.throughput)
        if "lp_bound" in payload:
            payload.setdefault(
                "relative_performance", payload["throughput"] / payload["lp_bound"]
            )
        return report

    def makespan_for(self, job: Job) -> MakespanReport:
        """The (cached) canonical pipelined makespan of ``num_slices`` slices."""
        # Keyed below cache_key: the ``simulate`` flag (and anything else
        # outside tree_key/num_slices) does not affect the computation, so
        # ``job.but(simulate=True)`` twins share it.
        key = (job.tree_key(), job.num_slices)
        report = self._makespans.get(key)
        if report is None:
            report = pipelined_makespan(
                self.tree_for(job), job.num_slices, job.port_model(), job.size
            )
            self._makespans[key] = report
        self._payload(job).setdefault("makespan", report.makespan)
        return report

    def dynamic_payload_for(self, job: DynamicJob) -> dict[str, Any]:
        """Run (or replay from cache) a dynamic campaign; return its payload.

        The trace is generated from ``job.trace`` (protecting the source
        from churn), replayed once window-by-window, and every requested
        policy is driven over the same evolving platform copy — the
        session's shared pristine platform instance is never mutated.  The
        per-epoch LP bounds go through the session LP cache, and the final
        time-series payload persists into the result cache keyed by the
        job's canonical payload, so an identical campaign later (same spec,
        same seed, same version) attaches instead of recomputing.
        """
        payload = self._payload(job)
        if "timelines" not in payload:
            from ..dynamics import generate_trace, run_dynamic  # local: heavy

            platform = self._resolve_platform(job.platform_key(), job.platform)
            start = time.perf_counter()
            trace = generate_trace(platform, job.trace, protect=(job.source,))
            outcome = run_dynamic(
                platform,
                trace,
                source=job.source,
                heuristic=job.heuristic,
                model=job.port_model(),
                size=job.size,
                threshold=job.threshold,
                replan_cost=job.replan_cost,
                policies=job.policies,
                lp_cache=self.lp_cache,
            )
            elapsed = time.perf_counter() - start
            for name, value in outcome.to_payload().items():
                payload.setdefault(name, value)
            payload.setdefault("solve_seconds", elapsed)
        self._persist(job)
        return payload

    def _materialize_batched(self, batch: "list[Job]", pending: "list[int]") -> None:
        """Prime makespan/simulation caches through one ensemble-batched sweep.

        Groups the pending jobs that will need a simulation (``simulate``
        set, shared-message collective, canonical port model, same slice
        count) and evaluates every group's *direct* trees through
        :class:`~repro.kernels.batch.EnsembleBatch` — one vectorized sweep
        over the whole group instead of one kernel dispatch per job.  The
        cached values are bit-identical to what the lazy per-job path
        computes (the batched kernels reproduce the per-item recurrences
        exactly); everything the batch does not cover — distinct-message
        collectives, routed trees, custom models — is simply left to
        ``materialize()``.
        """
        from ..analysis.throughput import tree_throughput
        from ..kernels.batch import (
            EnsembleBatch,
            batch_inorder_simulation,
            batch_pipelined_makespan,
        )
        from ..kernels.makespan import supports_model
        from ..models.port_models import OnePortModel
        from ..simulation.broadcast import inorder_result_from_run

        groups: dict[tuple, list[int]] = {}
        for i in pending:
            job = batch[i]
            if not job.simulate or job.collective.distinct_messages:
                continue
            metric_key = (job.tree_key(), job.num_slices)
            if metric_key in self._makespans and metric_key in self._simulations:
                continue
            model = job.port_model()
            if not supports_model(model):
                continue
            group_key = (
                type(model).__name__,
                getattr(model, "send_fraction", None),
                job.num_slices,
            )
            groups.setdefault(group_key, []).append(i)

        for (_, _, num_slices), members in groups.items():
            items: list[tuple[Job, BroadcastTree, Any]] = []
            seen: set[tuple[str, int]] = set()
            for i in members:
                job = batch[i]
                metric_key = (job.tree_key(), num_slices)
                if metric_key in seen:
                    continue
                seen.add(metric_key)
                try:
                    tree = self.tree_for(job)
                    ctree = tree.compiled(job.size)
                except ReproError:
                    # A poisoned job must not sink its batch-mates: leave
                    # it to materialize(), where supervision handles it.
                    continue
                if ctree.is_direct:
                    items.append((job, tree, ctree))
            if len(items) < 2:
                continue  # nothing to amortize; the lazy path is just as fast
            model = items[0][0].port_model()
            try:
                ensemble = EnsembleBatch.from_trees([c for _, _, c in items], model)
                runs = batch_inorder_simulation(ensemble, num_slices)
                one_port = type(model) is OnePortModel
                if not one_port:
                    # Multi-port simulation arrivals include receive-port
                    # constraints the canonical makespan recurrence does not:
                    # the makespans need their own sweep.
                    makespans, fills = batch_pipelined_makespan(ensemble, num_slices)
            except ReproError:
                # Graceful degradation: skip the batched sweep for this
                # group and let every member compute per-item instead.
                continue
            for position, ((job, tree, _), run) in enumerate(zip(items, runs)):
                metric_key = (job.tree_key(), num_slices)
                if metric_key not in self._makespans:
                    if one_port:
                        # One-port simulation arrivals ARE the canonical
                        # recurrence matrix; reuse it.
                        makespan = float(run[0][:, num_slices - 1].max())
                        fill = float(run[0][:, 0].max())
                    else:
                        makespan = float(makespans[position])
                        fill = float(fills[position])
                    self._makespans[metric_key] = MakespanReport(
                        makespan=makespan,
                        num_slices=num_slices,
                        fill_time=fill,
                        steady_state_period=tree_throughput(
                            tree, model, job.size
                        ).period,
                    )
                if metric_key not in self._simulations:
                    self._simulations[metric_key] = inorder_result_from_run(
                        tree, num_slices, model, job.size, run
                    )
                payload = self._payload(job)
                payload.setdefault("makespan", self._makespans[metric_key].makespan)
                sim = self._simulations[metric_key]
                payload.setdefault("simulated_throughput", sim.measured_throughput)
                payload.setdefault("simulation_error", sim.relative_error())
                payload.setdefault("simulation_makespan", sim.makespan)

    def simulation_for(self, job: Job) -> SimulationResult:
        """The (cached) discrete-event simulation of ``num_slices`` rounds."""
        key = (job.tree_key(), job.num_slices)
        sim = self._simulations.get(key)
        if sim is None:
            sim = simulate_collective(
                self.tree_for(job),
                job.collective,
                job.num_slices,
                model=job.port_model(),
                size=job.size,
                record_trace=False,
            )
            self._simulations[key] = sim
        payload = self._payload(job)
        payload.setdefault("simulated_throughput", sim.measured_throughput)
        payload.setdefault("simulation_error", sim.relative_error())
        payload.setdefault("simulation_makespan", sim.makespan)
        return sim

    # ------------------------------------------------------------------ #
    # Introspection / housekeeping
    # ------------------------------------------------------------------ #
    def cache_info(self) -> dict[str, int]:
        """Entry counts of every session-owned cache (diagnostics)."""
        return {
            "platforms": len(self._platforms),
            "lp_solutions": len(self.lp_cache),
            "trees": len(self._trees),
            "results": len(self._payloads),
        }

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Usage snapshot of every session cache: entries, bytes, hits,
        misses and evictions.

        The byte figures make the unbounded-cache question measurable
        (ROADMAP item 1): compiled platform / tree views report their exact
        array payload (:attr:`CompiledPlatform.nbytes
        <repro.platform.compiled.CompiledPlatform.nbytes>` /
        :attr:`CompiledTree.nbytes <repro.kernels.tree.CompiledTree.nbytes>`),
        everything else the :func:`~repro.runtime.approx_nbytes` estimate
        the eviction budgets use.  The ``total`` block aggregates the
        budget-charged bytes (and the configured ceiling, when the session
        was built with ``max_cache_bytes``) — the number the solve
        service's ``/statz`` endpoint reports and its soak test asserts.
        Use :meth:`cache_info` when only entry counts are needed.
        """
        compiled_views = 0
        compiled_bytes = 0
        for platform, _ in self._platforms.values():
            for view in getattr(platform, "_compiled_cache", {}).values():
                compiled_views += 1
                compiled_bytes += view.nbytes
        tree_views = 0
        tree_bytes = 0
        for tree in self._trees.values():
            for ctree in tree.__dict__.get("_compiled_tree_cache", {}).values():
                # Tree arrays only; the platform views they point into are
                # counted above.
                tree_views += 1
                tree_bytes += ctree.nbytes
        payload_bytes = sum(
            sys.getsizeof(payload)
            + sum(sys.getsizeof(k) + sys.getsizeof(v) for k, v in payload.items())
            for payload in self._payloads.values()
        )
        lp_stats = (
            self.lp_cache.stats() if hasattr(self.lp_cache, "stats") else {}
        )
        stats = {
            "platforms": {
                **self._platforms.stats(),
                "compiled_views": compiled_views,
                "compiled_bytes": compiled_bytes,
            },
            "trees": {
                **self._trees.stats(),
                "compiled_views": tree_views,
                "compiled_bytes": tree_bytes,
            },
            "lp_solutions": {"entries": len(self.lp_cache), **lp_stats},
            "reports": self._reports.stats(),
            "makespans": self._makespans.stats(),
            "simulations": self._simulations.stats(),
            "results": {
                **self._payloads.stats(),
                "approx_bytes": payload_bytes,
            },
            "result_rows": self.results.memory_stats(),
        }
        tracked = (
            "platforms",
            "trees",
            "lp_solutions",
            "reports",
            "makespans",
            "simulations",
            "results",
            "result_rows",
        )
        stats["total"] = {
            "bytes": (
                self.cache_budget.total_bytes
                if self.cache_budget is not None
                else sum(int(stats[name].get("bytes", 0)) for name in tracked)
            ),
            "max_bytes": (
                self.cache_budget.max_bytes if self.cache_budget is not None else None
            ),
            "evictions": sum(
                int(stats[name].get("evictions", 0)) for name in tracked
            ),
        }
        # Executor/worker block: backend identity, pool health (size,
        # respawns, shared-segment count/bytes) and the warm dispatch
        # counters.  Present for every backend so /statz consumers never
        # have to feature-test; pool-specific keys appear only when the
        # executor exposes stats().
        workers: dict[str, Any] = {
            "backend": getattr(
                self.executor, "name", type(self.executor).__name__
            ),
            "jobs": getattr(self.executor, "jobs", 1),
            **self._worker_stats,
        }
        pool_stats = getattr(self.executor, "stats", None)
        if callable(pool_stats):
            workers["pool"] = pool_stats()
        stats["workers"] = workers
        return stats

    def clear(self) -> None:
        """Drop every in-memory cache (disk result entries are kept)."""
        self._platforms.clear()
        self._trees.clear()
        self._reports.clear()
        self._makespans.clear()
        self._simulations.clear()
        self._payloads.clear()
        self._persisted.clear()
        self._lp_times.clear()
        self.lp_cache.clear()
        self.results.clear_memory()

    def close(self) -> None:
        """Release the executor (warm workers, shared segments); idempotent.

        A serial executor holds nothing, so closing is free there; a
        warm-pool session retires its workers and unlinks
        every shared segment.  The session itself stays usable for solves
        only insofar as its executor does — treat ``close()`` as final.
        """
        closer = getattr(self.executor, "close", None)
        if callable(closer):
            closer()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# Warm-pool dispatch
# --------------------------------------------------------------------------- #
class _WarmDispatch:
    """One solve_many batch's job groups, in flight on the warm pool.

    Construction groups the pending jobs by platform (so each platform's
    LP is solved exactly once pool-wide), publishes each group's compiled
    platform arrays into shared memory and submits every group task —
    without blocking.  :meth:`settle` then waits for the group replies,
    supervising at group granularity: a crashed worker gets the group
    resubmitted while the retry budget and pool health allow, and an
    unhealthy pool degrades the group to an in-process run (the broken-
    pool degradation contract); per-*job* supervision happens inside the
    workers.
    """

    def __init__(
        self,
        session: Session,
        batch: "list[Job]",
        pending: "list[int]",
        on_error: str,
        policy: RetryPolicy,
    ) -> None:
        self.session = session
        self.batch = batch
        self.on_error = on_error
        # Group-level supervision runs without a task timeout (a group is
        # many jobs long); the per-job timeout applies inside the workers.
        self.policy = replace(policy, task_timeout=None)
        grouped: dict[str, list[int]] = {}
        for i in pending:
            grouped.setdefault(batch[i].platform_key(), []).append(i)
        self.groups = list(grouped.items())
        self.tasks: list[dict[str, Any]] = []
        self.shm_keys: list[list[Any]] = []
        self.futures: list[Any] = []
        pool = session.executor
        for platform_key, group in self.groups:
            refs, keys = session._publish_group_platform(
                platform_key, [batch[i] for i in group]
            )
            task = {
                "jobs": [batch[i].to_json() for i in group],
                "policy": policy.to_dict(),
                "on_error": on_error,
                "platform_key": platform_key,
                "shm": refs,
            }
            self.tasks.append(task)
            self.shm_keys.append(keys)
            # The per-job fault hook runs inside the worker's session;
            # hooking the group label too would double-inject.
            self.futures.append(
                pool.submit(
                    _solve_job_group_warm,
                    task,
                    label=f"group:{platform_key}",
                    fault_hook=False,
                )
            )
            session._worker_stats["groups_dispatched"] += 1
            session._worker_stats["jobs_shipped"] += len(group)
        self._settled = False

    def done(self) -> bool:
        """Whether every submitted group future has resolved (advisory)."""
        return self._settled or all(future.done() for future in self.futures)

    def settle(self, failures: "dict[str, TaskFailure]") -> None:
        """Wait for every group, supervising crashes; fold in the replies."""
        if self._settled:
            return
        self._settled = True
        pool = self.session.executor
        policy = self.policy
        registry = getattr(pool, "registry", None)
        for position, (platform_key, group) in enumerate(self.groups):
            label = f"group:{platform_key}"
            future = self.futures[position]
            attempts = 0
            value: dict[str, Any] | None = None
            error: BaseException | None = None
            try:
                while True:
                    try:
                        value = future.result()
                        break
                    except WorkerCrashError as exc:
                        attempts += 1
                        error = exc
                        if attempts <= policy.retries and pool.healthy:
                            time.sleep(policy.delay(attempts - 1, label))
                            future = pool.submit(
                                _solve_job_group_warm,
                                self.tasks[position],
                                label=label,
                                fault_hook=False,
                            )
                            continue
                        # Pool exhausted: the group's last chance runs
                        # in-process, sharing this process's warm session.
                        try:
                            value = _solve_job_group_warm(self.tasks[position])
                            self.session._worker_stats["degraded_groups"] += 1
                        except Exception as fallback_exc:
                            attempts += 1
                            error = fallback_exc
                        break
                    except Exception as exc:
                        attempts += 1
                        error = exc
                        if attempts <= policy.retries and is_retryable(exc):
                            time.sleep(policy.delay(attempts - 1, label))
                            future = pool.submit(
                                _solve_job_group_warm,
                                self.tasks[position],
                                label=label,
                                fault_hook=False,
                            )
                            continue
                        break
            finally:
                if registry is not None:
                    for key in self.shm_keys[position]:
                        registry.release(key)
            if value is None:
                assert error is not None
                if self.on_error == "raise":
                    raise error
                failure = TaskFailure.from_exception(label, error, max(attempts, 1))
                for i in group:
                    failures[self.batch[i].cache_key()] = failure
                continue
            self.session._merge_group_value(self.batch, group, value, failures)


class PendingBatch:
    """Handle of a :meth:`Session.solve_many_async` dispatch.

    :meth:`result` settles the batch (waits for the pool, substitutes
    failures, persists successes) and memoizes the final result list;
    :meth:`done` / :meth:`wait` observe progress without settling.
    """

    def __init__(
        self,
        session: Session,
        batch: "list[Job]",
        results: "list[Result]",
        dispatch: _WarmDispatch | None,
        *,
        final: "list[Result] | None" = None,
    ) -> None:
        self._session = session
        self._batch = batch
        self._results = results
        self._dispatch = dispatch
        self._final = final

    def done(self) -> bool:
        """Whether the in-flight pool work has resolved (advisory)."""
        if self._final is not None or self._dispatch is None:
            return True
        return self._dispatch.done()

    def wait(self, timeout: float | None = None) -> bool:
        """Block up to ``timeout`` seconds for the pool work; return :meth:`done`."""
        if self._final is not None or self._dispatch is None:
            return True
        from concurrent.futures import wait as _wait

        _wait(self._dispatch.futures, timeout=timeout)
        return self.done()

    def result(self) -> "list[Result]":
        """The settled result list (same contract as :meth:`Session.solve_many`)."""
        if self._final is None:
            failures: dict[str, TaskFailure] = {}
            if self._dispatch is not None:
                self._dispatch.settle(failures)
            self._final = self._session._finalize_many(
                self._batch, self._results, failures
            )
        return self._final


# --------------------------------------------------------------------------- #
# Warm-worker plumbing and the default session
# --------------------------------------------------------------------------- #
_WARM_SESSION: Session | None = None


def _warm_worker_session() -> Session:
    """The warm worker's process-lifetime session (entry-bounded caches).

    Warm workers live across many group submissions, so their session must
    self-evict (LRU) rather than grow without limit.
    """
    global _WARM_SESSION
    if _WARM_SESSION is None:
        _WARM_SESSION = Session(max_cache_entries=128)
    return _WARM_SESSION


def _solve_job_group_warm(task: dict[str, Any]) -> dict[str, Any]:
    """Materialize one platform's JSON-shipped jobs; picklable for the pool.

    ``task`` carries the job JSON texts plus the parent session's retry
    policy and ``on_error`` mode, so per-job supervision (retries,
    timeouts, deterministic fault hooks keyed on the job cache keys) runs
    *inside* the worker exactly as it would in-process.  Each reply entry
    is ``{"metrics": ...}`` on success or ``{"error": ...}`` (a serialized
    :class:`~repro.runtime.TaskFailure`) when the job failed under
    ``on_error="collect"``.

    The solve runs on the worker's *persistent* session (platforms,
    compiled views, LP solutions and trees survive across submissions).
    Shared-memory platform arrays from ``task["shm"]`` are attached as
    read-only views and installed into the platform's compiled cache before
    the solve (any attach failure degrades to local compilation — results
    are bit-identical either way).  The reply carries a ``worker`` rider
    (pid, warm-platform reuse, attach count) for the parent's
    ``cache_stats()['workers']`` block.
    """
    session = _warm_worker_session()
    jobs = [Job.from_json(text) for text in task["jobs"]]
    reuse = int(bool(jobs) and task.get("platform_key", "") in session._platforms)
    attached = 0
    if jobs and task.get("shm"):
        try:
            from ..platform.compiled import CompiledPlatform
            from ..shm import attach_arrays_cached

            platform = session.platform_for(jobs[0])
            cache = platform._compiled_cache
            for ref in task["shm"]:
                meta = ref["meta"]
                key = float(meta["size"])
                if key in cache:
                    continue
                views = attach_arrays_cached(ref["segment"], ref["layout"])
                compiled = CompiledPlatform.from_array_bundle(
                    views,
                    platform_name=meta["platform_name"],
                    slice_size=meta["slice_size"],
                    size=meta["size"],
                    node_names=tuple(meta["node_names"]),
                )
                while len(cache) >= platform._COMPILED_CACHE_LIMIT:
                    cache.pop(next(iter(cache)))
                cache[key] = compiled
                attached += 1
        except Exception:
            attached = 0  # optimization only; the solve compiles locally
    previous_policy = session.retry_policy
    session.retry_policy = RetryPolicy.from_dict(task.get("policy", {}))
    try:
        results = session.solve_many(jobs, on_error=task.get("on_error", "raise"))
    finally:
        session.retry_policy = previous_policy
    entries = [
        {"metrics": result.metrics()}
        if result.ok
        else {"error": result.error.to_dict()}
        for result in results
    ]
    return {
        "entries": entries,
        "worker": {
            "pid": os.getpid(),
            "platform_reuse": reuse,
            "shm_attached": attached,
        },
    }


_DEFAULT_SESSION: Session | None = None


def default_session() -> Session:
    """The process-wide shared session (used by the CLI and restored results)."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = Session()
    return _DEFAULT_SESSION
