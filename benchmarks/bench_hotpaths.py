"""Benchmark of the array-backed schedule kernels (fast paths vs references).

Measures, and records into ``BENCH_hotpaths.json`` (repo root by default):

* **makespan recurrence** — the slice-vectorized kernel behind
  :func:`repro.analysis.makespan.pipelined_makespan` vs the ``(node, slice)``
  reference loop, swept over 20/50/100/200-node platforms and
  ``K = 100 / 1000`` slices;
* **in-order simulation** — the kernels behind
  :func:`repro.simulation.simulate_broadcast` vs the discrete-event engine
  on the same sweep: the event-free recurrence on direct (grow-tree) trees
  and the index-based replay on routed binomial trees (``binomial-*`` rows);
* **heuristics end-to-end** — heap-frontier growing, oracle-backed pruning
  and delta-evaluated local search vs their rescan/recompute references at
  20/50/100 nodes;
* **LP solve** — the production SSB(G) solve of
  :func:`repro.lp.solver.solve_collective_lp` (HiGHS dual simplex with
  devex pricing) vs a direct ``linprog(method="highs")`` call on the same
  assembled program, over random 20/30-node and Tiers 30/65-node LPs
  (``lp_solve`` rows; HiGHS seconds only, assembly excluded; one solve per
  program, since the 30-node solves take seconds).

Every timed pair is also *checked*: the benchmark platforms use integer
link times and integer explicit overheads, which makes the fast paths
bit-identical to their references (no re-association slack), and the run
aborts with a non-zero exit code on any mismatch.  The LP rows check the
optimal throughput ``TP`` to 1e-9 relative instead: the two pricing rules
may stop at different optimal vertices of the same program.  ``--quick``
shrinks the sweep for CI smoke coverage.

Run it as a script::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py [--quick]
        [--rounds 3] [--output BENCH_hotpaths.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
from scipy import optimize

from conftest import record_host
from repro import _version
from repro.api import PlatformRecipe
from repro.collectives import CollectiveSpec, effective_problem
from repro.core.binomial import BinomialTreeHeuristic
from repro.core.grow_tree import GrowingMinimumOutDegreeTree
from repro.core.local_search import improve_tree, improve_tree_reference
from repro.core.lp_prune import LPCommunicationGraphPruning
from repro.core.multiport_grow import MultiPortGrowingTree
from repro.core.prune_refined import RefinedPlatformPruning
from repro.analysis.makespan import pipelined_makespan, pipelined_makespan_reference
from repro.lp.formulation import build_collective_lp
from repro.lp.solver import solve_collective_lp, solve_steady_state_lp
from repro.models.port_models import MultiPortModel
from repro.platform.graph import Platform
from repro.platform.link import Link
from repro.platform.node import ProcessorNode
from repro.simulation.broadcast import PipelinedBroadcastSimulator

REPO_ROOT = Path(__file__).resolve().parent.parent

#: node count -> number of extra random undirected link pairs beyond the
#: spanning structure (keeps the directed edge count a few times the node
#: count at every size, like the paper's random ensembles).
EXTRA_PAIRS = {20: 40, 50: 120, 100: 300, 200: 600}


class BenchError(SystemExit):
    pass


def integer_platform(num_nodes: int, seed: int) -> Platform:
    """Connected random platform with small-integer costs and overheads.

    Integer quantities keep every schedule value exactly representable, so
    the fast-path/reference comparisons below are bit-identity checks.
    """
    rng = np.random.default_rng(seed)
    platform = Platform(name=f"bench-n{num_nodes}", slice_size=1.0)
    times: dict[tuple[int, int], int] = {}
    order = [int(n) for n in rng.permutation(num_nodes)]
    for position in range(1, num_nodes):
        u, v = order[int(rng.integers(0, position))], order[position]
        times[(u, v)] = int(rng.integers(1, 10))
        times[(v, u)] = int(rng.integers(1, 10))
    for _ in range(EXTRA_PAIRS[num_nodes]):
        u, v = (int(x) for x in rng.integers(0, num_nodes, size=2))
        if u != v and (u, v) not in times:
            times[(u, v)] = int(rng.integers(1, 10))
            times[(v, u)] = int(rng.integers(1, 10))
    for node in range(num_nodes):
        platform.add_node(
            ProcessorNode(name=node, send_overhead=int(rng.integers(1, 4)))
        )
    for (u, v), value in times.items():
        platform.add_link(Link.with_transfer_time(u, v, float(value)))
    platform.validate()
    return platform


def best_of(rounds: int, call):
    """Minimum wall-clock of ``rounds`` invocations, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result


def check(condition: bool, what: str) -> None:
    if not condition:
        raise BenchError(f"FAST PATH MISMATCH: {what}")


# --------------------------------------------------------------------------- #
# Sections
# --------------------------------------------------------------------------- #
def bench_makespan(platforms, slice_counts, rounds) -> dict:
    results = {}
    for num_nodes, platform in platforms.items():
        tree = GrowingMinimumOutDegreeTree().build(platform, 0)
        for num_slices in slice_counts:
            fast_seconds, fast = best_of(
                rounds, lambda: pipelined_makespan(tree, num_slices)
            )
            reference_seconds, reference = best_of(
                rounds, lambda: pipelined_makespan_reference(tree, num_slices)
            )
            check(
                fast == reference,
                f"makespan kernel vs reference at n={num_nodes}, K={num_slices}",
            )
            results[f"n{num_nodes}-K{num_slices}"] = {
                "reference_seconds": round(reference_seconds, 5),
                "kernel_seconds": round(fast_seconds, 5),
                "speedup": round(reference_seconds / fast_seconds, 2),
                "identical": True,
            }
    return results


def bench_simulation(platforms, slice_counts, rounds) -> dict:
    results = {}
    for num_nodes, platform in platforms.items():
        trees = {
            "": GrowingMinimumOutDegreeTree().build(platform, 0),
            "binomial-": BinomialTreeHeuristic().build(platform, 0),
        }
        if trees["binomial-"].is_direct:
            raise BenchError(f"binomial tree at n={num_nodes} has no routed edge")
        for prefix, tree in trees.items():
            for num_slices in slice_counts:
                def run(force_engine: bool):
                    simulator = PipelinedBroadcastSimulator(
                        tree, num_slices, record_trace=False
                    )
                    if force_engine:
                        simulator._fast_path_applicable = lambda: False
                    return simulator.run()

                fast_seconds, fast = best_of(rounds, lambda: run(False))
                engine_seconds, engine = best_of(1, lambda: run(True))
                check(
                    fast.arrival_times == engine.arrival_times
                    and fast.makespan == engine.makespan
                    and fast.resource_utilization == engine.resource_utilization,
                    f"in-order simulation fast path, {prefix}n={num_nodes}, K={num_slices}",
                )
                results[f"{prefix}n{num_nodes}-K{num_slices}"] = {
                    "engine_seconds": round(engine_seconds, 5),
                    "fastpath_seconds": round(fast_seconds, 5),
                    "speedup": round(engine_seconds / fast_seconds, 2),
                    "identical": True,
                }
    return results


def bench_heuristics(platforms, rounds, lp_max_nodes) -> dict:
    results = {}
    multi_port = MultiPortModel()
    for num_nodes, platform in platforms.items():
        arms = {
            "grow-tree": (
                lambda: GrowingMinimumOutDegreeTree(fast=True).build(platform, 0),
                lambda: GrowingMinimumOutDegreeTree(fast=False).build(platform, 0),
            ),
            "multiport-grow-tree": (
                lambda: MultiPortGrowingTree(fast=True).build(
                    platform, 0, model=multi_port
                ),
                lambda: MultiPortGrowingTree(fast=False).build(
                    platform, 0, model=multi_port
                ),
            ),
            "prune-degree": (
                lambda: RefinedPlatformPruning(fast=True).build(platform, 0),
                lambda: RefinedPlatformPruning(fast=False).build(platform, 0),
            ),
        }
        base_tree = GrowingMinimumOutDegreeTree().build(platform, 0)
        arms["local-search"] = (
            lambda: improve_tree(base_tree),
            lambda: improve_tree_reference(base_tree),
        )
        if num_nodes <= lp_max_nodes:
            lp_solution = solve_steady_state_lp(platform, 0)
            arms["lp-prune"] = (
                lambda: LPCommunicationGraphPruning(fast=True).build(
                    platform, 0, lp_solution=lp_solution
                ),
                lambda: LPCommunicationGraphPruning(fast=False).build(
                    platform, 0, lp_solution=lp_solution
                ),
            )
        for name, (fast_call, reference_call) in arms.items():
            fast_seconds, fast = best_of(rounds, fast_call)
            reference_seconds, reference = best_of(1, reference_call)
            check(
                fast.to_parent_dict() == reference.to_parent_dict(),
                f"{name} fast vs reference at n={num_nodes}",
            )
            results[f"{name}-n{num_nodes}"] = {
                "reference_seconds": round(reference_seconds, 5),
                "fast_seconds": round(fast_seconds, 5),
                "speedup": round(reference_seconds / fast_seconds, 2),
                "identical": True,
            }
    return results


#: Relative tolerance of the production-vs-default ``TP`` check.
LP_TP_RTOL = 1e-9

_KINDS = ("broadcast", "multicast", "reduce", "scatter")

#: Random platforms use ``cold_lp``'s seed scheme (``4242 * 10_000 + i``).
LP_SEED = 4242


def lp_shapes(quick: bool) -> dict[str, list[tuple[PlatformRecipe, CollectiveSpec]]]:
    """Row name -> the (platform recipe, collective) LPs it times."""

    def spec(kind: str, num_nodes: int) -> CollectiveSpec:
        half = tuple(range(1, num_nodes, 2)) if kind == "multicast" else None
        return CollectiveSpec(kind, 0, half)

    def random(num_nodes: int, count: int, kinds):
        return [
            (
                PlatformRecipe.of(
                    "random",
                    num_nodes=num_nodes,
                    density=0.2,
                    seed=LP_SEED * 10_000 + index,
                ),
                spec(kind, num_nodes),
            )
            for index in range(count)
            for kind in kinds
        ]

    def tiers(size: int):
        recipe = PlatformRecipe.of("tiers", size=size, seed=1)
        return [(recipe, spec(kind, size)) for kind in _KINDS]

    return {
        "random-n20": random(20, 3 if quick else 20, ("broadcast", "multicast")),
        "random-n30": random(30, 1 if quick else 4, ("broadcast",)),
        "tiers-n30": tiers(30),
        "tiers-n65": tiers(65),
    }


def bench_lp_solve(quick: bool) -> dict:
    results = {}
    for name, problems in lp_shapes(quick).items():
        production_seconds = default_seconds = 0.0
        worst = 0.0
        for recipe, spec in problems:
            platform = recipe.build()
            # The solution records its own HiGHS seconds (assembly and
            # extraction excluded), comparable to the bare linprog below.
            solution = solve_collective_lp(platform, spec)
            effective_platform, effective_spec = effective_problem(platform, spec)
            data = build_collective_lp(effective_platform, effective_spec)
            seconds, reference = best_of(
                1,
                lambda: optimize.linprog(
                    c=data.objective,
                    A_ub=data.a_ub,
                    b_ub=data.b_ub,
                    A_eq=data.a_eq,
                    b_eq=data.b_eq,
                    bounds=data.bounds,
                    method="highs",
                ),
            )
            check(reference.success, f"default linprog failed on {name}")
            expected = float(reference.x[data.index.throughput])
            relative = abs(solution.throughput - expected) / abs(expected)
            check(
                relative <= LP_TP_RTOL,
                f"lp_solve {name} ({spec.kind.value}): production TP "
                f"{solution.throughput!r} vs default {expected!r}",
            )
            worst = max(worst, relative)
            production_seconds += solution.solve_seconds
            default_seconds += seconds
        results[name] = {
            "lps": len(problems),
            "default_seconds": round(default_seconds, 4),
            "production_seconds": round(production_seconds, 4),
            "speedup": round(default_seconds / production_seconds, 2),
            "tp_max_rel_diff": worst,
        }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sweep (CI smoke): 20/50 nodes, K=100, one round",
    )
    parser.add_argument("--rounds", type=int, default=3, help="best-of round count")
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_hotpaths.json",
        help="where to write the benchmark record",
    )
    args = parser.parse_args(argv)

    if args.quick:
        kernel_nodes, heuristic_nodes = (20, 50), (20, 50)
        slice_counts, rounds, lp_max_nodes = (100,), 1, 20
    else:
        kernel_nodes, heuristic_nodes = (20, 50, 100, 200), (20, 50, 100)
        slice_counts, rounds, lp_max_nodes = (100, 1000), args.rounds, 50

    kernel_platforms = {n: integer_platform(n, seed=7 + n) for n in kernel_nodes}
    heuristic_platforms = {n: kernel_platforms[n] for n in heuristic_nodes}

    record = {
        "benchmark": "hotpaths",
        "version": _version.__version__,
        "created_unix": round(time.time(), 1),
        "quick": args.quick,
        "host": record_host(),
        "edge_counts": {
            str(n): p.num_links for n, p in kernel_platforms.items()
        },
        "makespan": bench_makespan(kernel_platforms, slice_counts, rounds),
        "simulation": bench_simulation(kernel_platforms, slice_counts, rounds),
        "heuristics": bench_heuristics(heuristic_platforms, rounds, lp_max_nodes),
        "lp_solve": bench_lp_solve(args.quick),
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
