"""Ensemble evaluation of the broadcast-tree heuristics.

The experiment harness mirrors Section 5 of the paper:

1. generate an ensemble of platforms (random platforms following Table 2,
   or Tiers-like hierarchical platforms),
2. for every platform, solve the steady-state LP once to obtain the MTP
   optimal throughput (the reference) and the communication-graph weights
   needed by the LP-based heuristics,
3. run every heuristic, compute its single-tree throughput under the
   relevant port model, and record the *relative performance* (heuristic
   throughput / LP optimum).

The records produced here are aggregated by :mod:`repro.experiments.figures`
and :mod:`repro.experiments.tables` into the paper's Figures 4(a), 4(b), 5
and Table 3.  The heavy lifting is delegated to
:class:`~repro.experiments.pipeline.EvaluationPipeline`, whose unit of work
is a batch of declarative :class:`~repro.api.Job` descriptions solved
through a :class:`~repro.api.Session` (one LP solve per platform, shared by
every heuristic): the same random ensemble feeds three different artefacts,
so evaluations are shared through a process-wide in-memory cache, optionally
persisted on disk (``cache_dir``, task by task as each finishes, so an
interrupted or failed campaign resumes) and fanned out over worker
processes (``jobs``).  Per-task seeds are derived deterministically, so
serial and parallel runs produce identical records.
"""

from __future__ import annotations

import os
from typing import Iterable

from ..exceptions import ExperimentError
from ..runtime import RetryPolicy
from .config import PaperParameters
from .evaluation import EvaluationRecord, PlatformEvaluation, evaluate_platform
from .pipeline import EvaluationPipeline, ResultCache, TaskErrorRecord

__all__ = [
    "EvaluationRecord",
    "PlatformEvaluation",
    "TaskErrorRecord",
    "evaluate_platform",
    "random_ensemble_records",
    "tiers_ensemble_records",
    "collective_ensemble_records",
    "clear_ensemble_cache",
    "filter_records",
]

#: Process-wide in-memory record store shared by every pipeline the runner
#: builds, so Figure 4(a), Figure 4(b) and Figure 5 pay for their common
#: ensemble once per process whatever ``jobs`` / ``cache_dir`` they pass.
_SHARED_MEMORY: dict[str, list[EvaluationRecord]] = {}


def _pipeline(
    jobs: int,
    cache_dir: str | os.PathLike[str] | None,
    keep_going: bool = False,
    retry_policy: RetryPolicy | None = None,
) -> EvaluationPipeline:
    cache = ResultCache(cache_dir, memory=_SHARED_MEMORY)
    return EvaluationPipeline(
        jobs=jobs, cache=cache, keep_going=keep_going, retry_policy=retry_policy
    )


def _evaluate(
    kind: str,
    parameters: PaperParameters,
    *,
    include_multi_port: bool = True,
    progress: bool,
    jobs: int,
    cache_dir: str | os.PathLike[str] | None,
    keep_going: bool,
    retry_policy: RetryPolicy | None,
    failures: "list[TaskErrorRecord] | None",
) -> list[EvaluationRecord]:
    """One ensemble evaluation, surfacing failures into the caller's sink.

    The pipeline is closed on the way out, so a ``jobs > 1`` call leaves
    no warm workers behind.
    """
    with _pipeline(jobs, cache_dir, keep_going, retry_policy) as pipeline:
        records = pipeline.evaluate(
            kind,
            parameters,
            include_multi_port=include_multi_port,
            progress=progress,
        )
    if failures is not None:
        failures.extend(pipeline.failures)
    return records


def clear_ensemble_cache() -> None:
    """Drop every in-memory ensemble evaluation (mostly useful in tests)."""
    _SHARED_MEMORY.clear()


def random_ensemble_records(
    parameters: PaperParameters,
    *,
    include_multi_port: bool = True,
    progress: bool = False,
    jobs: int = 1,
    cache_dir: str | os.PathLike[str] | None = None,
    keep_going: bool = False,
    retry_policy: RetryPolicy | None = None,
    failures: "list[TaskErrorRecord] | None" = None,
) -> list[EvaluationRecord]:
    """Evaluate the full random-platform ensemble of Figures 4 and 5.

    Results are cached per parameter set so that the three artefacts built
    from the same ensemble (Figure 4(a), Figure 4(b) and Figure 5) only pay
    for the LP solves once per process.  ``jobs`` fans the evaluation out
    over worker processes; ``cache_dir`` additionally persists the records
    on disk, keyed by the full parameter set and the library version.
    Every campaign is supervised under ``retry_policy`` and resumable from
    its per-task cache entries; ``keep_going`` only chooses what a
    permanent failure does: raise (the default) or append a
    :class:`TaskErrorRecord` to the ``failures`` sink and carry on.
    """
    return _evaluate(
        "random",
        parameters,
        include_multi_port=include_multi_port,
        progress=progress,
        jobs=jobs,
        cache_dir=cache_dir,
        keep_going=keep_going,
        retry_policy=retry_policy,
        failures=failures,
    )


def tiers_ensemble_records(
    parameters: PaperParameters,
    *,
    progress: bool = False,
    jobs: int = 1,
    cache_dir: str | os.PathLike[str] | None = None,
    keep_going: bool = False,
    retry_policy: RetryPolicy | None = None,
    failures: "list[TaskErrorRecord] | None" = None,
) -> list[EvaluationRecord]:
    """Evaluate the Tiers-like ensembles of Table 3 (one-port model only)."""
    return _evaluate(
        "tiers",
        parameters,
        progress=progress,
        jobs=jobs,
        cache_dir=cache_dir,
        keep_going=keep_going,
        retry_policy=retry_policy,
        failures=failures,
    )


def collective_ensemble_records(
    parameters: PaperParameters,
    *,
    progress: bool = False,
    jobs: int = 1,
    cache_dir: str | os.PathLike[str] | None = None,
    keep_going: bool = False,
    retry_policy: RetryPolicy | None = None,
    failures: "list[TaskErrorRecord] | None" = None,
) -> list[EvaluationRecord]:
    """Evaluate the collective-scaling sweep (multicast / scatter vs |targets|).

    Goes through the same pipeline, executors and two-level cache as the
    paper ensembles: the sweep is keyed by the full parameter set and the
    library version, fans out over ``jobs`` worker processes, and replays
    from ``cache_dir`` on repeat runs.
    """
    return _evaluate(
        "collective",
        parameters,
        progress=progress,
        jobs=jobs,
        cache_dir=cache_dir,
        keep_going=keep_going,
        retry_policy=retry_policy,
        failures=failures,
    )


def filter_records(
    records: Iterable[EvaluationRecord],
    *,
    model: str | None = None,
    heuristic: str | None = None,
    num_nodes: int | None = None,
) -> list[EvaluationRecord]:
    """Select records matching the given criteria."""
    selected = list(records)
    if model is not None:
        selected = [r for r in selected if r.model == model]
    if heuristic is not None:
        selected = [r for r in selected if r.heuristic == heuristic]
    if num_nodes is not None:
        selected = [r for r in selected if r.num_nodes == num_nodes]
    if not selected:
        raise ExperimentError("no record matches the requested filter")
    return selected
