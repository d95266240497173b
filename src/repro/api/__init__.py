"""Unified facade over the reproduction stack: declarative Jobs, cache-owning
Sessions, lazy Results.

Every workflow in this package — CLI commands, the experiments pipeline,
the examples, user code — reduces to the same sentence: *describe one
solve, hand it to an engine, read the metrics you need*.  The facade makes
that sentence the API:

* :class:`Job` — a frozen, declarative description of one solve: platform
  (inline or a named generator recipe), collective operation, heuristic,
  port model, message count/size, simulation on/off.  Jobs round-trip
  through versioned JSON (:meth:`Job.to_json` / :meth:`Job.from_json`).
* :class:`Session` — the engine.  It owns the LP solution cache, the
  shared platform instances (and thereby their compiled / reversed views),
  the built trees, the two-level result cache and the executor (serial,
  or the warm worker pool).  ``session.solve(job)`` returns a lazy :class:`Result`;
  ``session.solve_many(jobs)`` fans a batch out through the same caches.
* :class:`Result` — a lazy, memoized, serializable view: ``lp_bound``,
  ``tree``, ``throughput``, ``makespan``, ``simulation`` and
  ``relative_performance`` are computed on first access and cached.

Quick start
-----------
>>> from repro.api import Job, PlatformRecipe, Session
>>> session = Session()
>>> job = Job.broadcast(
...     PlatformRecipe.of("random", num_nodes=15, density=0.2, seed=42),
...     source=0, heuristic="grow-tree",
... )
>>> result = session.solve(job)
>>> 0 < result.relative_performance <= 1.0 + 1e-9
True
>>> session.solve(Job.from_json(job.to_json())).lp_bound == result.lp_bound
True
"""

from ..runtime import RetryPolicy, TaskFailure
from .dynamic import DYNAMIC_JOB_FORMAT_VERSION, DynamicJob, DynamicResult
from .job import JOB_FORMAT_VERSION, PLATFORM_GENERATORS, Job, PlatformRecipe
from .result import RESULT_FORMAT_VERSION, FailedResult, Result
from .session import Session, default_session

__all__ = [
    "JOB_FORMAT_VERSION",
    "RESULT_FORMAT_VERSION",
    "DYNAMIC_JOB_FORMAT_VERSION",
    "PLATFORM_GENERATORS",
    "Job",
    "PlatformRecipe",
    "Result",
    "FailedResult",
    "DynamicJob",
    "DynamicResult",
    "RetryPolicy",
    "TaskFailure",
    "Session",
    "default_session",
]
