"""Single-platform evaluation: one LP reference plus every heuristic.

This module holds the *unit of work* of the experiment harness, expressed
on the :mod:`repro.api` facade: a platform evaluation is a list of
declarative :class:`~repro.api.Job` descriptions (one per heuristic and
port model) solved through one :class:`~repro.api.Session`, so the
steady-state LP is solved exactly once per platform and shared by the
relative-performance reference and the LP-guided heuristics.  The lazy
:class:`~repro.api.Result` views are flattened into
:class:`EvaluationRecord` rows, the stable on-disk/aggregation format the
figures and tables consume.

The ensemble machinery — task fan-out, executors, caching — lives in
:mod:`repro.experiments.pipeline`; keeping the unit of work separate lets
worker processes import it without dragging the whole pipeline along.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Sequence

from ..api import Job, PlatformRecipe, Result, Session
from ..collectives import CollectiveKind, CollectiveSpec
from ..core.registry import PAPER_MULTI_PORT_HEURISTICS, PAPER_ONE_PORT_HEURISTICS
from ..platform.graph import Platform

__all__ = [
    "EvaluationRecord",
    "PlatformEvaluation",
    "broadcast_jobs",
    "record_from_result",
    "evaluate_platform",
]

NodeName = Any

#: Record fields that measure wall-clock time: they vary run to run and are
#: excluded from determinism comparisons (serial vs parallel, cache replay).
TIMING_FIELDS = ("build_seconds", "lp_seconds")


@dataclass(frozen=True)
class EvaluationRecord:
    """Relative performance of one heuristic on one platform instance.

    ``collective`` / ``num_targets`` locate the record inside the
    collective-scaling sweep (``"broadcast"`` / ``-1`` for the paper's
    broadcast ensembles, where every node is a destination).
    """

    generator: str
    platform_name: str
    num_nodes: int
    density: float
    instance_index: int
    heuristic: str
    model: str
    throughput: float
    optimal_throughput: float
    relative_performance: float
    build_seconds: float
    lp_seconds: float
    collective: str = "broadcast"
    num_targets: int = -1

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON friendly), used by the on-disk cache."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvaluationRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(**{name: data[name] for name in cls.__dataclass_fields__})

    def deterministic_payload(self) -> dict[str, Any]:
        """Record content minus the timing fields.

        Two runs of the same experiment at the same seed — serial or
        parallel, fresh or replayed from cache — must agree exactly on this
        payload.
        """
        payload = asdict(self)
        for name in TIMING_FIELDS:
            payload.pop(name)
        return payload


@dataclass
class PlatformEvaluation:
    """All records of one platform plus the LP reference."""

    platform: Platform
    source: NodeName
    optimal_throughput: float
    records: list[EvaluationRecord] = field(default_factory=list)


def broadcast_jobs(
    platform: "Platform | PlatformRecipe",
    source: NodeName,
    *,
    one_port_heuristics: Sequence[str] = PAPER_ONE_PORT_HEURISTICS,
    multi_port_heuristics: Sequence[str] = PAPER_MULTI_PORT_HEURISTICS,
    send_fraction: float = 0.8,
    include_multi_port: bool = True,
) -> list[Job]:
    """The paper's per-platform job list: every heuristic under its model.

    All jobs share the platform and the broadcast spec, so a session solves
    their reference LP once (for both models, like in the paper: the
    reference optimum is always the one-port LP).
    """
    spec = CollectiveSpec.broadcast(source)
    jobs = [
        Job(platform, spec, heuristic=name, model="one-port")
        for name in one_port_heuristics
    ]
    if include_multi_port:
        jobs.extend(
            Job(
                platform,
                spec,
                heuristic=name,
                model="multi-port",
                send_fraction=send_fraction,
            )
            for name in multi_port_heuristics
        )
    return jobs


def record_from_result(
    result: Result, *, generator: str = "custom", instance_index: int = 0
) -> EvaluationRecord:
    """Flatten one lazy :class:`~repro.api.Result` into a record row."""
    job = result.job
    platform = result.platform
    spec = job.collective
    if spec.kind is CollectiveKind.BROADCAST and spec.targets is None:
        num_targets = -1
    else:
        num_targets = len(spec.resolve_targets(platform))
    return EvaluationRecord(
        generator=generator,
        platform_name=platform.name,
        num_nodes=platform.num_nodes,
        density=platform.density,
        instance_index=instance_index,
        heuristic=job.heuristic,
        model=job.model,
        throughput=result.throughput,
        optimal_throughput=result.lp_bound,
        relative_performance=result.relative_performance,
        build_seconds=result.build_seconds,
        lp_seconds=result.lp_seconds,
        collective=spec.kind.value,
        num_targets=num_targets,
    )


def evaluate_platform(
    platform: "Platform | PlatformRecipe",
    source: NodeName,
    *,
    generator: str = "custom",
    instance_index: int = 0,
    one_port_heuristics: Sequence[str] = PAPER_ONE_PORT_HEURISTICS,
    multi_port_heuristics: Sequence[str] = PAPER_MULTI_PORT_HEURISTICS,
    send_fraction: float = 0.8,
    include_multi_port: bool = True,
    session: Session | None = None,
) -> PlatformEvaluation:
    """Evaluate every heuristic on one platform (inline or recipe).

    The work goes through a :class:`~repro.api.Session`: the steady-state
    LP is solved exactly once, its throughput is the reference for every
    relative-performance number, and its edge weights are reused by the
    LP-based heuristics.
    """
    session = session if session is not None else Session()
    jobs = broadcast_jobs(
        platform,
        source,
        one_port_heuristics=one_port_heuristics,
        multi_port_heuristics=multi_port_heuristics,
        send_fraction=send_fraction,
        include_multi_port=include_multi_port,
    )
    results = session.solve_many(jobs)
    records = [
        record_from_result(r, generator=generator, instance_index=instance_index)
        for r in results
    ]
    return PlatformEvaluation(
        platform=session.platform(platform),
        source=source,
        optimal_throughput=results[0].lp_bound if results else 0.0,
        records=records,
    )

