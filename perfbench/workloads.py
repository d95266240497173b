"""The benchmark's workloads, each driven through the public API.

Every workload turns ``(seed, seconds)`` into a fixed list of inputs (the
amount of work is sized from ``seconds`` with a constant, so the same
arguments always give the same inputs), runs them, checks every output
and returns one :class:`Outcome`.  ``traced=True`` runs the separate
traced pass instead; see ``README.md`` for what each workload is for.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Relative slack of the tree-throughput <= LP-bound check.
BOUND_TOL = 1e-9

#: Routed distinct-message simulation is rejected by design.
EXPECTED_ERROR = ("SimulationError", "distinct-message replay requires a direct tree")


@dataclass
class Outcome:
    """What one run measured and whether its outputs were right."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    setups: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Largest multi-port throughput / one-port LP bound seen.
    multiport_above: float = 0.0

    def require(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)


@dataclass
class Calls:
    """The timed API calls of a workload and what each returned.

    Each operation's latency is that of the call that returned it.  The
    goodput is the median over calls of OK operations per second, so a
    burst of host noise during one call moves it less than a total would.
    """

    seconds: list[float] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    oks: list[int] = field(default_factory=list)
    perfs: list[float] = field(default_factory=list)

    def add(self, seconds: float, size: int, ok: int, perfs: list[float]) -> None:
        self.seconds.append(seconds)
        self.sizes.append(size)
        self.oks.append(ok)
        self.perfs.extend(perfs)

    def add_results(self, seconds: float, results: list[Any]) -> None:
        ok = [r for r in results if r.ok]
        # The paper's metric, where the LP is the model's optimum.
        perfs = [r.relative_performance for r in ok if r.job.model == "one-port"]
        self.add(seconds, len(results), len(ok), perfs)

    def metrics(self) -> dict[str, float]:
        return {
            "goodput_per_s": statistics.median(ok / s for ok, s in zip(self.oks, self.seconds)),
            "rel_perf_mean": statistics.fmean(self.perfs),
            "ok_frac": sum(self.oks) / sum(self.sizes),
        }

    def latency_note(self) -> str:
        latencies = [s for s, n in zip(self.seconds, self.sizes) for _ in range(n)]
        return (
            f"operation latency p50 {np.percentile(latencies, 50) * 1e3:.1f} ms, "
            f"slowest call {max(self.seconds) * 1e3:.1f} ms of {len(self.seconds)} calls"
        )


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #
def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def digest(values: list[Any]) -> str:
    text = json.dumps(values, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_results(
    outcome: Outcome, results: list[Any], expected: Callable[[Any], bool] = lambda job: False
) -> None:
    """Bound check on every OK one-port result; failures only where ``expected``.

    An expected failure must carry exactly the documented error; an
    expected-to-fail job that succeeds is checked like any other.
    """
    for result in results:
        if not result.ok:
            error = result.error
            outcome.require(
                expected(result.job)
                and error.error_type == EXPECTED_ERROR[0]
                and error.message.startswith(EXPECTED_ERROR[1]),
                f"unexpected failure {error.error_type}: {error.message[:120]}",
            )
            continue
        metrics = result.metrics()
        if result.job.model != "one-port":
            # The SSB(G) LP models the one-port platform: a multi-port tree
            # may legitimately beat it, so it bounds one-port trees only.
            above = metrics["throughput"] / metrics["lp_bound"]
            outcome.multiport_above = max(outcome.multiport_above, above)
            continue
        outcome.require(
            metrics["throughput"] <= metrics["lp_bound"] * (1 + BOUND_TOL),
            f"tree throughput above the LP bound: {result.job.describe()}",
        )


def payloads(results: list[Any]) -> list[Any]:
    """What must repeat exactly: deterministic metrics, or the error type."""
    return [r.deterministic_metrics() if r.ok else r.error.error_type for r in results]


def hit_ratio(stats: dict[str, Any]) -> float:
    hits, misses = stats.get("hits", 0), stats.get("misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def timed_calls(session: Any, batches: list[list[Any]]) -> tuple[list[Any], list[float]]:
    """One ``solve_many`` per batch: every result, and each call's seconds."""
    results, seconds = [], []
    for batch in batches:
        start = time.perf_counter()
        results.extend(session.solve_many(batch, on_error="collect"))
        seconds.append(time.perf_counter() - start)
    return results, seconds


def serial_solve(batches: list[list[Any]]) -> tuple[list[Any], float, dict[str, Any]]:
    """``batches`` solved in a fresh serial session: results, seconds, cache stats."""
    from repro.api import Session

    with Session() as session:
        results, seconds = timed_calls(session, batches)
        stats = session.cache_stats()["results"]
    return results, sum(seconds), stats


def traced_pass(run: Callable[[], Any]) -> tuple[Any, float, Any]:
    """``run()`` under the layer tracer: (result, wall seconds, tracer)."""
    from tracer import Tracer

    tracer = Tracer().install()
    start = time.perf_counter()
    try:
        value = run()
    finally:
        wall = time.perf_counter() - start
        tracer.restore()
    return value, wall, tracer


def trace_layers(outcome: Outcome, tracer: Any, traced_wall: float, plain_wall: float, label: str) -> None:
    """Fill the per-layer metrics and the breakdown table of a traced pass."""
    outcome.metrics.update(tracer.layer_metrics(traced_wall))
    outcome.metrics["trace.wall_s"] = traced_wall
    outcome.metrics["trace.overhead_s"] = traced_wall - plain_wall
    outcome.notes.append(f"traced pass: {label}")
    outcome.notes.extend(tracer.table(traced_wall))


# --------------------------------------------------------------------------- #
# cold_lp: cold LP campaign through the warm pool
# --------------------------------------------------------------------------- #
COLD_NODES = 20
COLD_DENSITY = 0.2
#: Platforms per second of ``--seconds`` (4 jobs each, 2 LPs each).
COLD_PLATFORMS_PER_S = 9.0
#: Fresh pooled sessions per run, and ``solve_many`` calls per session.
COLD_SESSIONS = 3
COLD_CALLS = 3
COLD_WORKERS = 2


def cold_lp_jobs(seed: int, count: int, first: int = 0) -> list[Any]:
    from repro.api import Job, PlatformRecipe

    half = tuple(range(1, COLD_NODES, 2))
    jobs = []
    for index in range(first, first + count):
        recipe = PlatformRecipe.of(
            "random", num_nodes=COLD_NODES, density=COLD_DENSITY, seed=seed * 10_000 + index
        )
        jobs.extend(
            Job.broadcast(recipe, 0, heuristic=heuristic)
            for heuristic in ("grow-tree", "lp-prune", "lp-grow-tree")
        )
        jobs.append(Job.of_collective(recipe, "multicast", 0, half, heuristic="grow-tree"))
    return jobs


def _pool_guard(outcome: Outcome, workers: dict[str, Any]) -> None:
    """The timed path must be the warm pool, healthy, on a multi-core host."""
    if (os.cpu_count() or 1) < 2:
        return
    outcome.require(workers.get("backend") == "warm-pool", f"backend {workers.get('backend')!r}, not warm-pool")
    outcome.require(workers.get("groups_dispatched", 0) > 0, "no job group reached the pool")
    outcome.require(workers.get("degraded_groups", 0) == 0, "pool groups degraded to in-process")
    outcome.require(workers.get("pool", {}).get("respawns", 0) == 0, "pool workers respawned")


def _pooled_session(
    outcome: Outcome, batches: list[list[Any]]
) -> tuple[list[Any], list[float], dict[str, Any], float]:
    """A fresh ``Session(jobs=2)``: set-up sample, timed calls, pool stats."""
    from repro.api import Session

    start = time.perf_counter()
    session = Session(jobs=COLD_WORKERS)
    try:
        starter = getattr(session.executor, "ensure_started", None)
        if starter is not None:
            starter()
        outcome.setups.append(time.perf_counter() - start)
        results, seconds = timed_calls(session, batches)
        workers = session.cache_stats()["workers"]
        rss = sum(peak_rss_mb(child.pid) for child in multiprocessing.active_children())
    finally:
        session.close()
    _pool_guard(outcome, workers)
    check_results(outcome, results)
    # Pooled results must equal a serial in-process solve exactly.
    reference, _, _ = serial_solve([batches[0][:4]])
    outcome.require(
        payloads(results[:4]) == payloads(reference), "pooled results differ from the serial reference"
    )
    return results, seconds, workers, rss


def run_cold_lp(seed: int, seconds: float, traced: bool) -> Outcome:
    outcome = Outcome()
    platforms = max(1, int(round(seconds * COLD_PLATFORMS_PER_S)))
    if traced:
        # Parent-side wrappers cannot see inside spawn workers: the stage
        # shares come from a serial pass over the pooled jobs.
        jobs = cold_lp_jobs(seed, max(1, platforms // 6))
        results, _, workers, _ = _pooled_session(outcome, [jobs])
        serial_solve([jobs[:4]])  # warm-up: lazy imports, first-call costs
        plain, plain_wall, _ = serial_solve([jobs])
        (traced_results, _, stats), wall, tracer = traced_pass(lambda: serial_solve([jobs]))
        outcome.attempted = len(jobs)
        outcome.require(
            payloads(traced_results) == payloads(plain) == payloads(results),
            "traced or serial pass differs from the pooled results",
        )
        trace_layers(outcome, tracer, wall, plain_wall, "serial in-process pass over the pooled jobs")
        outcome.metrics.update(
            {
                "api.cache_hit_ratio": hit_ratio(stats),
                "pool.groups": workers["groups_dispatched"],
                "pool.shm_attached": workers["shm_attached"],
                "pool.warm_reuse_hits": workers["warm_reuse_hits"],
                "pool.respawns": workers.get("pool", {}).get("respawns", 0),
                "pool.degraded_groups": workers["degraded_groups"],
            }
        )
        return outcome
    per_call = max(1, platforms // (COLD_SESSIONS * COLD_CALLS))
    calls = Calls()
    rss_workers = 0.0
    for session_index in range(COLD_SESSIONS):
        first = session_index * COLD_CALLS * per_call
        batches = [cold_lp_jobs(seed, per_call, first + k * per_call) for k in range(COLD_CALLS)]
        results, seconds, _, rss = _pooled_session(outcome, batches)
        rss_workers = max(rss_workers, rss)
        for k, elapsed in enumerate(seconds):
            calls.add_results(elapsed, results[k * 4 * per_call : (k + 1) * 4 * per_call])
    outcome.attempted = sum(calls.sizes)
    outcome.notes.append(
        f"cold_lp: {COLD_SESSIONS} pooled sessions x {COLD_CALLS} calls x {per_call} platforms, "
        f"{outcome.attempted} jobs, {calls.latency_note()}"
    )
    outcome.metrics.update(calls.metrics())
    outcome.metrics["peak_rss_mb"] = peak_rss_mb() + rss_workers
    return outcome


# --------------------------------------------------------------------------- #
# shared_lp_sweep: simulation-heavy sweep sharing each LP
# --------------------------------------------------------------------------- #
SWEEP_HEURISTICS = ("grow-tree", "prune-degree", "prune-simple", "binomial", "lp-prune", "lp-grow-tree")
SWEEP_KINDS = ("broadcast", "multicast", "reduce", "scatter")
#: Seconds of ``--seconds`` per Tiers-65 platform (96 jobs each).
SWEEP_SECONDS_PER_PLATFORM = 10.0


def sweep_jobs(seed: int, index: int) -> list[Any]:
    """All 96 jobs of one Tiers-65 platform (one ``solve_many`` call)."""
    from repro.api import Job, PlatformRecipe

    recipe = PlatformRecipe.of("tiers", size=65, seed=seed * 100 + index)
    half = tuple(range(1, 65, 2))
    return [
        Job.of_collective(
            recipe,
            kind,
            0,
            half if kind == "multicast" else None,
            heuristic=heuristic,
            model=model,
            num_slices=slices,
            simulate=True,
        )
        for kind in SWEEP_KINDS
        for heuristic in SWEEP_HEURISTICS
        for model in ("one-port", "multi-port")
        for slices in (50, 200)
    ]


def expected_sweep_failure(job: Any) -> bool:
    return job.collective.kind.value == "scatter" and job.heuristic == "binomial"


def run_shared_lp_sweep(seed: int, seconds: float, traced: bool) -> Outcome:
    outcome = Outcome()
    if traced:
        jobs = sweep_jobs(seed, 0)
        serial_solve([jobs[:12]])  # warm-up: lazy imports, first-call costs
        plain, plain_wall, _ = serial_solve([jobs])
        (results, _, stats), wall, tracer = traced_pass(lambda: serial_solve([jobs]))
        outcome.attempted = len(results)
        check_results(outcome, results, expected_sweep_failure)
        outcome.require(payloads(results) == payloads(plain), "traced pass changed the results")
        trace_layers(outcome, tracer, wall, plain_wall, "serial pass over one platform's jobs")
        outcome.metrics["kernels.batched_share"] = tracer.counts["kernels.batched_items"] / len(jobs)
        outcome.metrics["api.cache_hit_ratio"] = hit_ratio(stats)
        return outcome
    from repro.api import Session

    calls = Calls()
    expected_seen = 0
    for index in range(max(1, int(round(seconds / SWEEP_SECONDS_PER_PLATFORM)))):
        jobs = sweep_jobs(seed, index)
        start = time.perf_counter()
        session = Session()
        outcome.setups.append(time.perf_counter() - start)
        with session:
            results, call_seconds = timed_calls(session, [jobs])
        check_results(outcome, results, expected_sweep_failure)
        calls.add_results(call_seconds[0], results)
        if index == 0:
            # Determinism: one kind's one-port jobs re-solved in a fresh session.
            kind = SWEEP_KINDS[seed % len(SWEEP_KINDS)]
            picked = [
                i
                for i, job in enumerate(jobs)
                if job.collective.kind.value == kind and job.model == "one-port"
            ]
            again, _, _ = serial_solve([[jobs[i] for i in picked]])
            outcome.require(
                payloads(again) == payloads([results[i] for i in picked]),
                "sweep results differ between sessions",
            )
        expected_seen += sum(1 for r in results if not r.ok)
        outcome.notes.append(f"platform {index}: digest {digest(payloads(results))}")
    outcome.attempted = sum(calls.sizes)
    outcome.notes.append(
        f"shared_lp_sweep: {outcome.attempted} jobs, {expected_seen} expected failures "
        f"(scatter x binomial), multi-port throughput up to "
        f"{outcome.multiport_above:.3f} x the one-port LP bound, {calls.latency_note()}"
    )
    outcome.metrics.update(calls.metrics())
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    return outcome


# --------------------------------------------------------------------------- #
# dynamic_replan: drifting / congested / churning Tiers-30 campaigns
# --------------------------------------------------------------------------- #
#: Dynamic campaigns per second of ``--seconds``.
DYNAMIC_JOBS_PER_S = 1.0
DYNAMIC_HEURISTICS = ("grow-tree", "lp-grow-tree")


def dynamic_jobs(seed: int, count: int) -> list[Any]:
    from repro.api import DynamicJob, PlatformRecipe
    from repro.dynamics import TraceSpec

    jobs = []
    for index in range(count):
        sub = seed * 1000 + index
        jobs.append(
            DynamicJob(
                PlatformRecipe.of("tiers", size=30, seed=sub),
                TraceSpec(seed=sub, horizon=24, drift=0.2, congestion_rate=0.3, churn_rate=0.1),
                heuristic=DYNAMIC_HEURISTICS[index % len(DYNAMIC_HEURISTICS)],
            )
        )
    return jobs


def dynamic_solve(jobs: list[Any]) -> tuple[list[Any], list[float]]:
    """Every campaign through one fresh session: results, per-job seconds."""
    from repro.api import Session

    results, seconds = [], []
    with Session() as session:
        for job in jobs:
            start = time.perf_counter()
            results.append(session.solve_dynamic(job).materialize())
            seconds.append(time.perf_counter() - start)
    return results, seconds


def check_dynamic(outcome: Outcome, results: list[Any]) -> None:
    for result in results:
        for policy in result.job.policies:
            for sample in result.timeline(policy).samples:
                outcome.require(
                    sample.achieved <= sample.bound * (1 + BOUND_TOL),
                    f"{policy} throughput above the epoch LP bound",
                )


def run_dynamic_replan(seed: int, seconds: float, traced: bool) -> Outcome:
    outcome = Outcome()
    count = max(2, int(round(seconds * DYNAMIC_JOBS_PER_S)))
    if traced:
        jobs = dynamic_jobs(seed, max(1, count // 3))
        dynamic_solve(dynamic_jobs(seed + 1, 1))  # warm-up: lazy imports, first-call costs
        start = time.perf_counter()
        plain, _ = dynamic_solve(jobs)
        plain_wall = time.perf_counter() - start
        (results, _), wall, tracer = traced_pass(lambda: dynamic_solve(jobs))
        outcome.attempted = len(jobs)
        check_dynamic(outcome, results)
        outcome.require(
            [r.deterministic_metrics() for r in results] == [r.deterministic_metrics() for r in plain],
            "traced pass changed the dynamic payloads",
        )
        trace_layers(outcome, tracer, wall, plain_wall, "serial pass over a third of the jobs")
        outcome.metrics["dynamics.replans"] = float(
            sum(r.replans(p) for r in results for p in r.job.policies)
        )
        return outcome
    from repro.api import Session

    start = time.perf_counter()
    Session().close()
    outcome.setups.append(time.perf_counter() - start)
    jobs = dynamic_jobs(seed, count)
    results, job_seconds = dynamic_solve(jobs)
    check_dynamic(outcome, results)
    again, _ = dynamic_solve(jobs[:1])
    outcome.require(
        again[0].deterministic_metrics() == results[0].deterministic_metrics(),
        "dynamic payload differs between sessions",
    )
    calls = Calls()
    for result, elapsed in zip(results, job_seconds):
        calls.add(elapsed, 1, 1, [result.mean_ratio("adaptive")])
    outcome.attempted = len(jobs)
    outcome.notes.append(
        f"dynamic_replan: {len(jobs)} campaigns x {jobs[0].trace.horizon} windows, "
        f"digest {digest([r.deterministic_metrics() for r in results])}, {calls.latency_note()}"
    )
    outcome.metrics.update(calls.metrics())
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    return outcome


# --------------------------------------------------------------------------- #
# service_open: repro serve under an open-loop load
# --------------------------------------------------------------------------- #
def run_service_open(seed: int, seconds: float, traced: bool, root: Path) -> Outcome:
    import service
    from tracer import ROOT

    outcome = Outcome()
    if traced:
        plain = service.run_phase(root, seed, seconds, traced=False, starts=1)
        phase = service.run_phase(root, seed, seconds, traced=True, starts=1)
        outcome.attempted = len(phase["ok"])
        outcome.require(all(phase["ok"]) and all(plain["ok"]), "service replies failed their checks")
        tracer = phase["spans"]
        wall = tracer.incl_s.get(ROOT, 0.0)
        outcome.metrics.update(tracer.layer_metrics(wall))
        outcome.metrics["trace.wall_s"] = wall
        outcome.notes.extend(tracer.table(wall))
        # The server's busy time is not visible untraced: the overhead is
        # the client-side sum of latencies, traced minus untraced.
        outcome.metrics["trace.overhead_s"] = sum(phase["load"]["latency"]) - sum(plain["load"]["latency"])
        outcome.metrics.update(service.service_layers(phase))
        # Latency as a client sees it, from the untraced phase.
        for q in (50, 99):
            outcome.metrics[f"service.latency_p{q}_ms"] = float(np.percentile(plain["load"]["latency"], q)) * 1e3
        outcome.notes.insert(0, "traced pass: server process with the layer tracer, measured phase only")
        return outcome
    phase = service.run_phase(root, seed, seconds, traced=False)
    outcome.setups.extend(phase["setups"])
    load = phase["load"]
    ok = phase["ok"]
    outcome.attempted = len(ok)
    outcome.require(phase["hot_mismatch"] == 0, f"{phase['hot_mismatch']} hot replies differ from warm-up")
    outcome.require(all(ok), f"{ok.count(False)} requests failed or broke a check")
    within = sum(
        1 for good, latency in zip(ok, load["latency"]) if good and latency * 1e3 <= service.LIMIT_MS
    )
    outcome.notes.append(
        f"service_open: {len(ok)} requests at {service.RATE:g}/s, "
        f"{within} OK within {service.LIMIT_MS:g} ms, latency p50 "
        f"{np.percentile(load['latency'], 50) * 1e3:.2f} ms, p99 "
        f"{np.percentile(load['latency'], 99) * 1e3:.1f} ms, lag p99 "
        f"{np.percentile(load['lag'], 99) * 1e3:.2f} ms"
    )
    outcome.metrics.update(
        {
            "goodput_per_s": within / load["duration"],
            "rel_perf_mean": statistics.fmean(phase["perfs"]),
            "ok_frac": sum(ok) / len(ok),
            "peak_rss_mb": phase["rss_mb"],
        }
    )
    return outcome
