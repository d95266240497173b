"""Command-line interface for the broadcast-tree reproduction.

Every subcommand is a thin constructor over the :mod:`repro.api` facade:
the shared options build one declarative :class:`~repro.api.Job`, a
process-wide :class:`~repro.api.Session` solves it (owning the LP /
platform / tree caches, so e.g. ``--compare-lp`` never re-solves a
program the command already paid for), and the command prints the lazy
:class:`~repro.api.Result` views it needs:

``python -m repro.cli tree --nodes 20 --density 0.12 --heuristic grow-tree``
    generate a platform, build a tree, print its throughput and shape;

``python -m repro.cli lp --nodes 20 --density 0.12``
    solve the steady-state LP and print the optimal throughput and the
    busiest edges of the communication graph;

``python -m repro.cli simulate --nodes 20 --density 0.12 --slices 60``
    cross-check the analysis with the discrete-event simulator;

``python -m repro.cli collective --collective multicast --targets 1,3,5``
    run any collective operation (``broadcast``, ``multicast``, ``scatter``,
    ``reduce``, ``gather``) end to end: spec-parameterised LP optimum,
    spec-aware Steiner tree, steady-state analysis and distinct-message /
    pipelined simulation cross-check;

``python -m repro.cli experiment --artefact fig4a --scale 0.1``
    regenerate one of the paper's artefacts (``fig4a``, ``fig4b``, ``fig5``,
    ``table3``) or the collective-scaling sweep (``collective``) at a chosen
    ensemble scale;

``python -m repro.cli serve --port 8642``
    run the long-lived HTTP/JSON solve service (:mod:`repro.service`):
    warm byte-budgeted caches, admission control with per-tenant quotas,
    request deadlines, and SIGTERM-drained shutdown.

Every command accepts ``--tiers SIZE`` instead of ``--nodes/--density`` to
use the Tiers-like hierarchical generator, and ``--seed`` for
reproducibility.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .api import DynamicJob, Job, PlatformRecipe, RetryPolicy, Session, default_session
from .collectives import CollectiveSpec
from .core.registry import available_heuristics
from .dynamics import TraceSpec
from .experiments import (
    check_collective_scaling_shape,
    check_dynamic_scaling_shape,
    check_figure4_shape,
    check_figure5_shape,
    check_table3_shape,
    collective_scaling,
    dynamic_scaling,
    figure_4a,
    figure_4b,
    figure_5,
    scaled_parameters,
    table_3,
)
from .runtime import available_backends
from .utils.ascii_plot import format_table

__all__ = ["main", "build_parser", "job_from_args"]


# --------------------------------------------------------------------------- #
# Shared option groups (argparse parent parsers)
# --------------------------------------------------------------------------- #
def _platform_options() -> argparse.ArgumentParser:
    """Options selecting the platform every subcommand works on."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--nodes", type=int, default=20, help="number of processors")
    parent.add_argument("--density", type=float, default=0.12, help="edge density")
    parent.add_argument(
        "--tiers", type=int, default=None, help="use a Tiers preset of this size instead"
    )
    parent.add_argument("--seed", type=int, default=0, help="random seed")
    parent.add_argument("--source", type=int, default=0, help="collective root node")
    return parent


def _heuristic_options() -> argparse.ArgumentParser:
    """Options selecting the tree heuristic and the port model."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--heuristic", default="grow-tree", choices=available_heuristics()
    )
    parent.add_argument("--model", default="one-port", choices=["one-port", "multi-port"])
    return parent


def _parse_targets(raw: str | None) -> tuple[int, ...] | None:
    """Parse the ``--targets`` flag (comma-separated node names)."""
    if raw is None:
        return None
    try:
        return tuple(int(item) for item in raw.split(",") if item.strip() != "")
    except ValueError:
        raise SystemExit(
            f"--targets must be a comma-separated list of node ids, got {raw!r}"
        ) from None


def job_from_args(args: argparse.Namespace, *, simulate: bool = False) -> Job:
    """Build the declarative :class:`Job` one subcommand invocation describes."""
    if args.tiers is not None:
        recipe = PlatformRecipe.of("tiers", size=args.tiers, seed=args.seed)
    else:
        recipe = PlatformRecipe.of(
            "random", num_nodes=args.nodes, density=args.density, seed=args.seed
        )
    spec = CollectiveSpec(
        getattr(args, "collective", "broadcast"),
        args.source,
        _parse_targets(getattr(args, "targets", None)),
    )
    return Job(
        recipe,
        spec,
        heuristic=getattr(args, "heuristic", "grow-tree"),
        model=getattr(args, "model", "one-port"),
        num_slices=getattr(args, "slices", 50),
        simulate=simulate,
    )


# --------------------------------------------------------------------------- #
# Sub-commands
# --------------------------------------------------------------------------- #
def _cmd_tree(args: argparse.Namespace, session: Session) -> int:
    result = session.solve(job_from_args(args))
    report = result.report
    print(f"platform: {result.platform}")
    print(
        f"heuristic {args.heuristic!r} ({report.model}): throughput "
        f"{report.throughput:.4f} slices/time-unit, bottleneck node {report.bottleneck!r}"
    )
    if args.compare_lp:
        print(
            f"MTP optimum {result.lp_bound:.4f} -> relative performance "
            f"{result.relative_performance:.1%}"
        )
    if args.show_tree:
        print(result.tree.describe())
    return 0


def _cmd_lp(args: argparse.Namespace, session: Session) -> int:
    result = session.solve(job_from_args(args))
    solution = result.lp_solution
    print(f"platform: {result.platform}")
    print(solution.summary())
    print("\nbusiest edges (slices per time unit):")
    print(
        format_table(
            ["edge", "n_uv"],
            [[str(edge), value] for edge, value in solution.busiest_edges(args.top)],
        )
    )
    return 0


def _cmd_simulate(args: argparse.Namespace, session: Session) -> int:
    result = session.solve(job_from_args(args, simulate=True))
    simulation = result.simulation
    print(f"platform: {result.platform}")
    print(
        format_table(
            ["metric", "value"],
            [
                ["analytical throughput", simulation.analytical_throughput],
                ["simulated throughput", simulation.measured_throughput],
                ["relative error", simulation.relative_error()],
                ["makespan", simulation.makespan],
                ["effective throughput", simulation.effective_throughput],
            ],
            float_format="{:.4f}",
        )
    )
    return 0


def _cmd_collective(args: argparse.Namespace, session: Session) -> int:
    result = session.solve(job_from_args(args, simulate=True))
    job = result.job
    print(f"platform: {result.platform}")
    print(
        f"collective: {job.collective.describe()}  "
        f"(heuristic {job.heuristic!r}, {result.report.model})"
    )
    print(result.lp_solution.summary())
    print(
        format_table(
            ["metric", "value"],
            [
                ["LP optimum (multi-tree)", result.lp_bound],
                ["tree throughput (analytical)", result.throughput],
                ["tree throughput (simulated)", result.simulated_throughput],
                ["simulation relative error", result.simulation_error],
                ["relative performance", result.relative_performance],
                ["covered nodes", float(len(result.tree.nodes))],
            ],
            float_format="{:.4f}",
        )
    )
    if args.show_tree:
        print(result.tree.describe())
    return 0


def _cmd_dynamic(args: argparse.Namespace, session: Session) -> int:
    if args.tiers is not None:
        recipe = PlatformRecipe.of("tiers", size=args.tiers, seed=args.seed)
    else:
        recipe = PlatformRecipe.of(
            "random", num_nodes=args.nodes, density=args.density, seed=args.seed
        )
    trace = TraceSpec(
        seed=args.trace_seed,
        horizon=args.horizon,
        window=args.window,
        drift=args.drift,
        drift_rho=args.drift_rho,
        congestion_rate=args.congestion,
        churn_rate=args.churn,
    )
    job = DynamicJob(
        recipe,
        trace=trace,
        source=args.source,
        heuristic=args.heuristic,
        model=args.model,
        threshold=args.threshold,
        replan_cost=args.replan_cost,
    )
    result = session.solve_dynamic(job)
    print(result.summary())
    return 0


_ARTEFACTS = {
    "fig4a": (figure_4a, check_figure4_shape),
    "fig4b": (figure_4b, check_figure4_shape),
    "fig5": (figure_5, check_figure5_shape),
    "table3": (table_3, check_table3_shape),
    "collective": (collective_scaling, check_collective_scaling_shape),
    "dynamic": (dynamic_scaling, check_dynamic_scaling_shape),
}


def _cmd_experiment(args: argparse.Namespace, session: Session) -> int:
    parameters = scaled_parameters(args.scale, seed=args.seed)
    build, check = _ARTEFACTS[args.artefact]
    retry_policy = None
    if args.retries is not None or args.task_timeout is not None:
        retry_policy = RetryPolicy(
            retries=args.retries if args.retries is not None else 2,
            task_timeout=args.task_timeout,
        )
    failures: list = []
    artefact = build(
        parameters,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        keep_going=args.keep_going,
        retry_policy=retry_policy,
        failures=failures,
    )
    print(artefact.render())
    result = check(artefact)
    print()
    print(result.render())
    if failures:
        print()
        print(f"{len(failures)} task(s) failed permanently:")
        for record in failures:
            print(f"  {record.describe()}")
    return 0 if result.ok and not failures else 1


def _cmd_serve(args: argparse.Namespace, session: Session) -> int:
    # Imported here so every other subcommand stays free of the service
    # stack; the shared default session is deliberately NOT reused — the
    # server owns a bounded session sized by its own flags.
    from .service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_queued_jobs=args.max_queue,
        tenant_quota=args.tenant_quota,
        default_deadline=args.deadline,
        drain_timeout=args.drain_timeout,
        jobs=args.jobs,
        backend=args.backend,
        max_inflight_batches=args.max_inflight_batches,
        cache_dir=args.cache_dir,
        max_cache_entries=args.max_cache_entries,
        max_cache_bytes=args.max_cache_bytes,
    )

    def announce(host: str, port: int) -> None:
        print(f"repro solve service listening on http://{host}:{port}", flush=True)

    return serve(config, ready_callback=announce)


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Broadcast trees for heterogeneous platforms (IPPS 2005 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    platform_options = _platform_options()
    heuristic_options = _heuristic_options()

    tree = commands.add_parser(
        "tree",
        parents=[platform_options, heuristic_options],
        help="build a broadcast tree with a heuristic",
    )
    tree.add_argument("--compare-lp", action="store_true", help="also solve the LP reference")
    tree.add_argument("--show-tree", action="store_true", help="print the tree structure")
    tree.set_defaults(handler=_cmd_tree)

    lp = commands.add_parser(
        "lp", parents=[platform_options], help="solve the steady-state LP (MTP optimum)"
    )
    lp.add_argument("--top", type=int, default=8, help="number of busiest edges to show")
    lp.set_defaults(handler=_cmd_lp)

    simulate = commands.add_parser(
        "simulate",
        parents=[platform_options, heuristic_options],
        help="discrete-event simulation of a tree",
    )
    simulate.add_argument("--slices", type=int, default=60, help="number of message slices")
    simulate.set_defaults(handler=_cmd_simulate)

    collective = commands.add_parser(
        "collective",
        parents=[platform_options, heuristic_options],
        help="run a collective operation (LP + tree + simulation)",
    )
    collective.add_argument(
        "--collective",
        default="broadcast",
        choices=["broadcast", "multicast", "scatter", "reduce", "gather"],
        help="collective kind",
    )
    collective.add_argument(
        "--targets",
        default=None,
        help="comma-separated target node ids (default: all other nodes)",
    )
    collective.add_argument("--slices", type=int, default=60, help="simulated rounds")
    collective.add_argument("--show-tree", action="store_true", help="print the tree structure")
    collective.set_defaults(handler=_cmd_collective)

    dynamic = commands.add_parser(
        "dynamic",
        parents=[platform_options, heuristic_options],
        help="replay a dynamic platform trace and compare re-scheduling policies",
    )
    dynamic.add_argument(
        "--trace-seed", type=int, default=0, help="seed of the platform trace"
    )
    dynamic.add_argument(
        "--horizon", type=int, default=8, help="number of trace windows (epochs)"
    )
    dynamic.add_argument(
        "--window", type=float, default=1.0, help="duration of one trace window"
    )
    dynamic.add_argument(
        "--drift", type=float, default=0.15, help="per-window log-bandwidth drift scale"
    )
    dynamic.add_argument(
        "--drift-rho", type=float, default=0.6, help="AR(1) persistence of the drift"
    )
    dynamic.add_argument(
        "--congestion",
        type=float,
        default=0.2,
        help="expected congestion episodes per window",
    )
    dynamic.add_argument(
        "--churn", type=float, default=0.0, help="probability a node leaves per window"
    )
    dynamic.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="relative ratio drift that triggers an adaptive re-plan",
    )
    dynamic.add_argument(
        "--replan-cost",
        type=float,
        default=0.1,
        help="fraction of an epoch's throughput charged per re-plan",
    )
    dynamic.set_defaults(handler=_cmd_dynamic)

    experiment = commands.add_parser("experiment", help="regenerate a paper artefact")
    experiment.add_argument("--artefact", choices=sorted(_ARTEFACTS), default="fig4a")
    experiment.add_argument(
        "--scale", type=float, default=0.1, help="ensemble scale (1.0 = full paper setup)"
    )
    experiment.add_argument("--seed", type=int, default=None, help="override the ensemble seed")
    experiment.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the ensemble evaluation (1 = serial; "
            "> 1 selects the warm worker pool, falling back to the "
            "batched serial path on single-CPU hosts)"
        ),
    )
    experiment.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the on-disk ensemble result cache",
    )
    experiment.add_argument(
        "--retries",
        type=int,
        default=None,
        help="extra attempts per task before its failure is permanent",
    )
    experiment.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-attempt wall-clock budget per task, in seconds",
    )
    experiment.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "complete the campaign on permanent task failures and report "
            "them as structured error records (exit code 1) instead of "
            "aborting; either way finished tasks are written through to "
            "--cache-dir, so re-running resumes with only the missing tasks"
        ),
    )
    experiment.set_defaults(handler=_cmd_experiment)

    serve = commands.add_parser(
        "serve", help="run the long-lived HTTP/JSON solve service"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8642, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="total jobs admitted but not yet solved before 429s",
    )
    serve.add_argument(
        "--tenant-quota",
        type=int,
        default=32,
        help="per-tenant in-flight job ceiling (X-Tenant header)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        help="default per-request deadline, seconds",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="how long SIGTERM waits for in-flight jobs, seconds",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "session worker processes (1 = serial; > 1 selects the warm "
            "worker pool and overlapped micro-batch dispatch)"
        ),
    )
    serve.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="force a session executor backend instead of the --jobs auto-choice",
    )
    serve.add_argument(
        "--max-inflight-batches",
        type=int,
        default=2,
        help=(
            "micro-batches allowed in flight on the worker pool at once "
            "(1 disables overlapped dispatch)"
        ),
    )
    serve.add_argument(
        "--cache-dir", default=None, help="on-disk result cache directory"
    )
    serve.add_argument(
        "--max-cache-entries",
        type=int,
        default=512,
        help="per-cache entry bound of the server session",
    )
    serve.add_argument(
        "--max-cache-bytes",
        type=int,
        default=256 * 1024 * 1024,
        help="shared byte budget across the server session's caches",
    )
    serve.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: Sequence[str] | None = None, *, session: Session | None = None) -> int:
    """CLI entry point; returns the process exit code.

    ``session`` overrides the process-wide default
    :class:`~repro.api.Session` (tests use this to observe cache sharing
    between the CLI and programmatic solves).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args, session if session is not None else default_session())


if __name__ == "__main__":
    sys.exit(main())
