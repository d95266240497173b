"""The dynamic-scaling artefact: re-scheduling policies under platform drift.

This campaign goes beyond the paper (whose platforms are static) and
exercises the :mod:`repro.dynamics` subsystem on the ensemble machinery: a
Monte-Carlo sweep over trace seeds on one fixed random platform, each seed
running the full static / oracle-per-epoch / adaptive(threshold) policy
comparison of :func:`repro.dynamics.run_dynamic`.  Per-epoch
achieved-vs-LP-bound ratios are averaged across seeds into a
:class:`DynamicScalingData` figure (a :class:`~repro.experiments.figures.FigureData`
with the per-policy re-plan counts riding along), whose expected shape the
reporting module checks:

* every ratio lies in ``[0, 1]`` (a single tree never beats the per-epoch
  multi-tree LP optimum);
* adaptive's mean ratio is at least static's (re-planning on drift can
  only help, net of the re-planning charge);
* adaptive re-plans strictly fewer times than the per-epoch oracle.

Campaigns are deterministic (trace seeds are spawned from the master seed)
and cache-keyed on the full job payload — platform recipe, trace spec and
seed, controller knobs, library version — so re-running an identical sweep
replays from the per-job cache, and serial and warm-pool runs agree
bit-for-bit (wall-clock timings are stripped in the worker).
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .. import _version
from ..api import DynamicJob, PlatformRecipe
from ..dynamics.adaptive import POLICIES
from ..dynamics.trace import TraceSpec
from ..exceptions import ExperimentError
from ..runtime import (
    ResultCache as _GenericResultCache,
    RetryPolicy,
    TaskFailure,
    make_executor,
)
from ..utils.rng import derive_seed, spawn_seeds
from .config import PaperParameters
from .figures import FigureData
from .pipeline import run_campaign

__all__ = [
    "DynamicScalingData",
    "DynamicErrorRecord",
    "dynamic_jobs",
    "dynamic_ensemble_records",
    "dynamic_scaling",
]

#: Display labels of the policy series, in plot order.
POLICY_LABELS: dict[str, str] = {
    "static": "Static (plan once)",
    "oracle": "Oracle (re-plan every epoch)",
    "adaptive": "Adaptive (drift threshold)",
}


@dataclass(frozen=True)
class DynamicErrorRecord:
    """One permanently failed dynamic campaign seed, as data (``--keep-going``)."""

    job: DynamicJob
    failure: TaskFailure

    def describe(self) -> str:
        """One-line human summary for campaign logs."""
        return f"[{self.job.describe()}] {self.failure.summary()}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "job": self.job.canonical_payload(),
            "failure": self.failure.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DynamicErrorRecord":
        return cls(
            job=DynamicJob.from_dict(data["job"]),
            failure=TaskFailure.from_dict(data["failure"]),
        )


def dynamic_trace_spec(parameters: PaperParameters, seed: int) -> TraceSpec:
    """The trace spec of one Monte-Carlo instance of ``parameters``."""
    return TraceSpec(
        seed=seed,
        horizon=parameters.dynamic_horizon,
        drift=parameters.dynamic_drift,
        congestion_rate=parameters.dynamic_congestion,
        churn_rate=parameters.dynamic_churn,
    )


def dynamic_platform_recipe(parameters: PaperParameters) -> PlatformRecipe:
    """The one shared platform recipe every trace seed perturbs."""
    return PlatformRecipe.of(
        "random",
        num_nodes=parameters.dynamic_nodes,
        density=parameters.dynamic_density,
        rate_mean=parameters.rate_mean,
        rate_deviation=parameters.rate_deviation,
        slice_size_mb=parameters.slice_size_mb,
        send_fraction=parameters.send_fraction,
        seed=derive_seed(parameters.seed, "dynamic-platform"),
    )


def dynamic_jobs(parameters: PaperParameters) -> list[DynamicJob]:
    """The campaign's job list: one :class:`DynamicJob` per trace seed.

    All jobs share one platform recipe (so the Monte-Carlo spread isolates
    the *trace* randomness) and differ only in the trace seed, spawned from
    the master seed with :func:`~repro.utils.rng.spawn_seeds`.
    """
    recipe = dynamic_platform_recipe(parameters)
    seeds = spawn_seeds(parameters.seed, parameters.dynamic_seeds, "dynamic-trace")
    return [
        DynamicJob(
            recipe,
            trace=dynamic_trace_spec(parameters, seed),
            source=parameters.source,
            send_fraction=parameters.send_fraction,
            threshold=parameters.dynamic_threshold,
            replan_cost=parameters.dynamic_replan_cost,
        )
        for seed in seeds
    ]


def _solve_dynamic_task(payload: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Run one dynamic job; module-level so worker pools can pickle it.

    Runs on the warm worker's persistent session (or, on the serial path,
    the caller's process-global warm session), and strips the wall-clock
    field so serial and pooled campaigns return bit-identical records.
    Returns the job's cache rows: a one-record list.
    """
    from ..api.session import _warm_worker_session  # local: avoid cycle

    job = DynamicJob.from_dict(payload)
    record = dict(_warm_worker_session().dynamic_payload_for(job))
    record.pop("solve_seconds", None)
    return [record]


class _DynamicCache(_GenericResultCache):
    """Two-level payload-dict cache keyed by ``DynamicJob.cache_key()``."""

    def __init__(self, cache_dir: Any = None) -> None:
        super().__init__(
            cache_dir,
            encode=dict,
            decode=dict,
            prefix="dynamic",
            version=_version.__version__,
        )


def dynamic_ensemble_records(
    parameters: PaperParameters,
    *,
    progress: bool = False,
    jobs: int = 1,
    cache_dir: str | None = None,
    keep_going: bool = False,
    retry_policy: "RetryPolicy | None" = None,
    failures: "list[DynamicErrorRecord] | None" = None,
) -> list[dict[str, Any]]:
    """The campaign's deterministic per-seed payload records.

    Runs through the same campaign loop as the ensembles
    (:func:`~repro.experiments.pipeline.run_campaign`): each seed is checked
    against its own cache entry first and written through as it finishes,
    so interrupted campaigns resume, and the sweep fans out through the
    warm worker pool when ``jobs > 1``.  A permanently failed seed raises,
    or under ``keep_going`` becomes a :class:`DynamicErrorRecord` in
    ``failures``.
    """
    campaign = dynamic_jobs(parameters)

    def progress_line(index: int, rows: "list[dict[str, Any]]") -> str:
        timelines = rows[0]["timelines"]
        summary = ", ".join(
            f"{policy}={timelines[policy]['mean_ratio']:.3f}"
            for policy in rows[0]["policies"]
        )
        return f"[dynamic] trace seed {campaign[index].trace.seed}: {summary}"

    with closing(make_executor(None, jobs)) as executor:
        rows = run_campaign(
            _solve_dynamic_task,
            [job.canonical_payload() for job in campaign],
            [job.cache_key() for job in campaign],
            executor=executor,
            cache=_DynamicCache(cache_dir),
            failures=failures if failures is not None else [],
            failure_record=lambda i, failure: DynamicErrorRecord(campaign[i], failure),
            retry_policy=retry_policy,
            keep_going=keep_going,
            progress_line=progress_line if progress else None,
        )
    return [dict(found[0]) for found in rows if found is not None]


@dataclass(frozen=True)
class DynamicScalingData(FigureData):
    """The dynamic artefact: per-policy ratio curves plus re-plan counts.

    Extends :class:`~repro.experiments.figures.FigureData` (x axis: epoch
    time, series: mean achieved-vs-bound ratio per policy) with the
    campaign's re-plan statistics and the trace description, which the
    shape check and the CLI rendering both need.
    """

    replans: Mapping[str, float]
    mean_ratios: Mapping[str, float]
    trace_description: str

    def render(self) -> str:
        lines = [super().render(), "", "mean re-plans per campaign:"]
        for policy in POLICIES:
            if policy in self.replans:
                lines.append(
                    f"  {POLICY_LABELS[policy]}: {self.replans[policy]:.2f} "
                    f"(mean ratio {self.mean_ratios[policy]:.3f})"
                )
        lines.append(f"trace: {self.trace_description}")
        return "\n".join(lines)


def _mean(values: "list[float]") -> float:
    return sum(values) / len(values)


def _std(values: "list[float]") -> float:
    mean = _mean(values)
    return (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5


def dynamic_scaling(
    parameters: PaperParameters | None = None,
    records: "Iterable[Mapping[str, Any]] | None" = None,
    *,
    progress: bool = False,
    jobs: int = 1,
    cache_dir: str | None = None,
    keep_going: bool = False,
    retry_policy: "RetryPolicy | None" = None,
    failures: "list[DynamicErrorRecord] | None" = None,
) -> DynamicScalingData:
    """Achieved-vs-bound ratio over time for each re-scheduling policy.

    Each policy contributes one series over the shared epoch-time axis:
    the per-epoch ratio of its (charged) achieved throughput to that
    epoch's LP optimum, averaged across the campaign's trace seeds.
    """
    parameters = parameters or PaperParameters()
    if records is None:
        records = dynamic_ensemble_records(
            parameters,
            progress=progress,
            jobs=jobs,
            cache_dir=cache_dir,
            keep_going=keep_going,
            retry_policy=retry_policy,
            failures=failures,
        )
    selected = list(records)
    if not selected:
        raise ExperimentError("no dynamic campaign records available")
    times = tuple(float(t) for t in selected[0]["times"])
    for record in selected:
        if tuple(float(t) for t in record["times"]) != times:
            raise ExperimentError(
                "dynamic campaign records disagree on the epoch axis; "
                "mixed-parameter records cannot be aggregated"
            )

    series: dict[str, tuple[float, ...]] = {}
    deviations: dict[str, tuple[float, ...]] = {}
    samples: dict[str, tuple[int, ...]] = {}
    replans: dict[str, float] = {}
    mean_ratios: dict[str, float] = {}
    for policy in POLICIES:
        if any(policy not in record["timelines"] for record in selected):
            continue
        per_seed = [record["timelines"][policy] for record in selected]
        label = POLICY_LABELS[policy]
        ratio_rows = [
            [sample["ratio"] for sample in timeline["samples"]]
            for timeline in per_seed
        ]
        series[label] = tuple(
            _mean([row[i] for row in ratio_rows]) for i in range(len(times))
        )
        deviations[label] = tuple(
            _std([row[i] for row in ratio_rows]) for i in range(len(times))
        )
        samples[label] = tuple(len(ratio_rows) for _ in times)
        replans[policy] = _mean([float(t["replans"]) for t in per_seed])
        mean_ratios[policy] = _mean([float(t["mean_ratio"]) for t in per_seed])

    spec = dynamic_trace_spec(parameters, 0)
    return DynamicScalingData(
        figure_id="dynamic",
        title=(
            "Dynamic scaling - one-port model, random platform "
            f"(n={parameters.dynamic_nodes}, d={parameters.dynamic_density}, "
            f"{len(selected)} trace seeds): achieved / LP-bound throughput "
            "ratio vs time under bandwidth drift"
        ),
        x_label="time",
        x_values=times,
        series=series,
        deviations=deviations,
        samples_per_point=samples,
        replans=replans,
        mean_ratios=mean_ratios,
        trace_description=(
            f"horizon={spec.horizon}, window={spec.window:g}, "
            f"drift={spec.drift:g} (rho={spec.drift_rho:g}), "
            f"congestion={spec.congestion_rate:g}x{spec.congestion_factor:g}, "
            f"churn={spec.churn_rate:g}; threshold={parameters.dynamic_threshold:g}, "
            f"replan_cost={parameters.dynamic_replan_cost:g}"
        ),
    )
