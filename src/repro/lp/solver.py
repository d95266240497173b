"""Solving the steady-state broadcast LP with SciPy's HiGHS backend.

The paper solves the program with Maple / MuPad; this reproduction uses
``scipy.optimize.linprog`` with HiGHS on the sparse programs produced by
:func:`repro.lp.formulation.build_steady_state_lp`.  The production solve is
HiGHS dual simplex with *devex* pricing: the multi-commodity programs are
highly degenerate, and HiGHS's default steepest-edge pricing pays for weight
updates on every one of ~1000 iterations, where devex needs fewer and much
cheaper ones.  The optimum ``TP`` is the same; the optimal vertex (edge
counts and flows) may differ.  Solve times grow quickly with the platform
and vary widely between platforms of one shape: tens of milliseconds at 20
nodes, but 0.2-16 s with the default pricing (0.2-1.3 s with devex) on
30-node random platforms of density 0.2 (2-CPU x86-64 host; the
``lp_solve`` rows of ``BENCH_hotpaths.json`` track these shapes).

The module also provides :func:`optimal_throughput`, a light-weight helper
for callers that only need the MTP reference value, and an in-memory
memoisation layer (:class:`LPSolutionCache`) used by the experiment runner
so each platform's LP is solved once and shared by every heuristic that
needs it.
"""

from __future__ import annotations

import os
import time
from typing import Any

import numpy as np
from scipy import optimize

from ..collectives import CollectiveSpec, effective_problem
from ..exceptions import InfeasibleLPError, InjectedFault, LPError
from ..platform.graph import Platform
from ..runtime import FAULT_PLAN_ENV, BoundedCache, ByteBudget
from .formulation import SteadyStateLPData, build_collective_lp
from .solution import SteadyStateSolution

__all__ = [
    "solve_steady_state_lp",
    "solve_collective_lp",
    "optimal_throughput",
    "collective_optimal_throughput",
    "LPSolutionCache",
]

NodeName = Any
Edge = tuple[NodeName, NodeName]

#: Flows below this value are considered numerical noise and dropped.
_FLOW_TOLERANCE = 1e-9

#: The production method: HiGHS dual simplex with devex pricing (see the
#: module docstring).  Not a ``linprog`` method name: :func:`_run_linprog`
#: maps it onto ``highs-ds`` with the devex pricing option.
_DEVEX = "highs-ds-devex"

#: Methods tried (in order, after the requested one) before a failed solve
#: becomes an :class:`InfeasibleLPError`.  The chain covers transient
#: numerical trouble: devex dual simplex, then HiGHS's default choice
#: (steepest-edge dual simplex), then interior point.
_METHOD_FALLBACKS = (_DEVEX, "highs", "highs-ipm")

#: ``linprog`` status codes that describe the *model*, not the solver run:
#: 2 = infeasible, 3 = unbounded.  Retrying another method cannot change
#: these verdicts, so the chain stops immediately.
_DEFINITIVE_STATUSES = frozenset({2, 3})


def _method_chain(method: str) -> tuple[str, ...]:
    """The requested method followed by the deduplicated fallbacks."""
    chain = [method]
    for alternate in _METHOD_FALLBACKS:
        if alternate not in chain:
            chain.append(alternate)
    return tuple(chain)


def _run_linprog(
    data: SteadyStateLPData, method: str, attempt: int
) -> optimize.OptimizeResult:
    """One ``linprog`` call; the seam where fault injection plugs in."""
    if os.environ.get(FAULT_PLAN_ENV):
        from ..faults import maybe_fail_solver

        maybe_fail_solver(attempt)
    options = None
    if method == _DEVEX:
        method, options = "highs-ds", {"simplex_dual_edge_weight_strategy": "devex"}
    return optimize.linprog(
        c=data.objective,
        A_ub=data.a_ub,
        b_ub=data.b_ub,
        A_eq=data.a_eq,
        b_eq=data.b_eq,
        bounds=data.bounds,
        method=method,
        options=options,
    )


def _reverse_solution(
    solution: SteadyStateSolution, spec: CollectiveSpec
) -> SteadyStateSolution:
    """Map a dual solution on the reversed platform back to ``spec``.

    Edge keys flip back to the original orientation and each node's in/out
    occupation pair swaps sides; the throughput is unchanged (the programs
    are identical up to renaming).
    """
    return SteadyStateSolution(
        throughput=solution.throughput,
        edge_messages={(v, u): n for (u, v), n in solution.edge_messages.items()},
        flows={((v, u), w): x for ((u, v), w), x in solution.flows.items()},
        source=solution.source,
        objective_per_node={
            node: (t_out, t_in)
            for node, (t_in, t_out) in solution.objective_per_node.items()
        },
        solver_status=solution.solver_status,
        solve_seconds=solution.solve_seconds,
        num_variables=solution.num_variables,
        num_constraints=solution.num_constraints,
        spec=spec,
    )


def _extract_solution(
    platform: Platform,
    data: SteadyStateLPData,
    result: optimize.OptimizeResult,
    solve_seconds: float,
    size: float | None,
) -> SteadyStateSolution:
    """Convert a raw ``linprog`` result into a :class:`SteadyStateSolution`."""
    values = np.asarray(result.x, dtype=float)
    index = data.index
    throughput = float(values[index.throughput])

    edge_messages: dict[Edge, float] = {}
    for e, edge in enumerate(index.edges):
        edge_messages[edge] = float(max(values[index.messages(e)], 0.0))

    flows: dict[tuple[Edge, NodeName], float] = {}
    for e, edge in enumerate(index.edges):
        for w_index, destination in enumerate(index.destinations):
            value = float(values[index.flow(e, w_index)])
            if value > _FLOW_TOLERANCE:
                flows[(edge, destination)] = value

    # Per-node in/out occupation in one pass over the edges: accumulate
    # ``n_{u,v} * T_{u,v}`` onto both endpoints through the compiled edge
    # index (the per-node × per-edge loops this replaces were O(V * E)).
    view = platform.compiled(size)
    occupied = np.asarray(
        [edge_messages[edge] for edge in index.edges]
    ) * view.transfer_times
    t_in = np.zeros(view.num_nodes)
    t_out = np.zeros(view.num_nodes)
    np.add.at(t_in, view.edge_targets, occupied)
    np.add.at(t_out, view.edge_sources, occupied)
    occupation: dict[NodeName, tuple[float, float]] = {
        name: (float(t_in[i]), float(t_out[i]))
        for i, name in enumerate(view.node_names)
    }

    return SteadyStateSolution(
        throughput=throughput,
        edge_messages=edge_messages,
        flows=flows,
        source=data.source,
        objective_per_node=occupation,
        solver_status=str(result.message),
        solve_seconds=solve_seconds,
        num_variables=index.num_variables,
        num_constraints=data.num_constraints,
        spec=data.spec,
    )


def solve_steady_state_lp(
    platform: Platform,
    source: NodeName,
    size: float | None = None,
    *,
    method: str = _DEVEX,
) -> SteadyStateSolution:
    """Solve the broadcast ``SSB(G)`` and return the full solution.

    Parameters
    ----------
    platform:
        Target platform; must be broadcast-feasible from ``source``.
    source:
        Broadcast source processor.
    size:
        Message-slice size used for the edge occupation times; defaults to
        the platform slice size.
    method:
        Method tried first, before the fallback chain: a
        ``scipy.optimize.linprog`` method, or the default
        ``"highs-ds-devex"`` (HiGHS dual simplex with devex pricing, the
        fastest choice on these programs).
    """
    return solve_collective_lp(
        platform, CollectiveSpec.broadcast(source), size, method=method
    )


def solve_collective_lp(
    platform: Platform,
    spec: CollectiveSpec,
    size: float | None = None,
    *,
    method: str = _DEVEX,
) -> SteadyStateSolution:
    """Solve the steady-state LP of any :class:`CollectiveSpec`.

    Reduce and gather are solved as their dual forward kind on the reversed
    platform and the solution is mapped back: the returned edge weights
    ``n_{u,v}`` refer to the *original* platform orientation, with slices
    flowing ``u -> v`` toward the root.
    """
    effective_platform, effective_spec = effective_problem(platform, spec)
    data = build_collective_lp(effective_platform, effective_spec, size)
    chain = _method_chain(method)
    failures: list[str] = []
    result: optimize.OptimizeResult | None = None
    start = time.perf_counter()
    for attempt, candidate in enumerate(chain):
        try:
            outcome = _run_linprog(data, candidate, attempt)
        except InjectedFault as error:
            failures.append(f"{candidate}: {error}")
            continue
        if outcome.success:
            result = outcome
            break
        failures.append(f"{candidate}: {outcome.message}")
        if int(getattr(outcome, "status", -1)) in _DEFINITIVE_STATUSES:
            break  # the model, not the method, is at fault
    elapsed = time.perf_counter() - start
    if result is None:
        raise InfeasibleLPError(
            f"steady-state {spec.kind.value} LP failed for platform "
            f"{platform.name!r} (source {spec.source!r}); "
            f"methods tried: {'; '.join(failures)}"
        )
    solution = _extract_solution(effective_platform, data, result, elapsed, size)
    if solution.throughput <= 0:
        raise LPError(
            f"steady-state {spec.kind.value} LP returned non-positive throughput "
            f"{solution.throughput!r} for platform {platform.name!r}"
        )
    if spec.is_reversed:
        solution = _reverse_solution(solution, spec)
    return solution


def optimal_throughput(
    platform: Platform, source: NodeName, size: float | None = None
) -> float:
    """The MTP optimal broadcast throughput ``TP`` (reference of the paper)."""
    return solve_steady_state_lp(platform, source, size).throughput


def collective_optimal_throughput(
    platform: Platform, spec: CollectiveSpec, size: float | None = None
) -> float:
    """The MTP optimal throughput of any collective spec."""
    return solve_collective_lp(platform, spec, size).throughput


class LPSolutionCache:
    """Memoises LP solutions per (platform identity + mutation epoch, spec, size).

    The experiment runner evaluates several heuristics on the same platform;
    two of them (LP-Prune and LP-Grow-Tree) need the LP solution, and the
    relative-performance metric needs the optimal throughput.  Caching keyed
    on the platform object identity keeps each LP solved exactly once per
    platform without requiring platforms to be hashable by value.

    ``max_entries`` / ``max_bytes`` (or a shared
    :class:`~repro.runtime.ByteBudget`) bound the cache with LRU eviction —
    essential for long-lived processes, because every entry pins its
    platform (and thereby the platform's compiled views) alive.  The byte
    estimate covers the solution payload *and* the pinned platform, since
    evicting the entry is what releases both.  Defaults keep the historical
    unbounded behaviour; :meth:`stats` reports hits / misses / evictions /
    bytes either way.
    """

    def __init__(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        *,
        budget: "ByteBudget | None" = None,
    ) -> None:
        # Values pair the solution with the platform itself: the strong
        # reference pins the platform alive, so its id() cannot be recycled
        # by a new platform while the entry exists (id-keyed caches are
        # otherwise unsound after garbage collection).
        self._cache: BoundedCache = BoundedCache(
            max_entries, max_bytes, budget=budget, name="lp-solutions"
        )

    @staticmethod
    def _key(platform: Platform, spec: CollectiveSpec, size: float | None) -> tuple:
        targets = None if spec.targets is None else tuple(spec.targets)
        # The mutation epoch makes a platform mutated after being cached a
        # miss instead of a stale hit (identity alone cannot tell).
        return (
            id(platform),
            platform.mutation_epoch,
            spec.kind.value,
            spec.source,
            targets,
            size,
        )

    def solve(
        self, platform: Platform, source: NodeName, size: float | None = None
    ) -> SteadyStateSolution:
        """Return the cached broadcast solution, solving the LP on first use."""
        return self.solve_collective(platform, CollectiveSpec.broadcast(source), size)

    def solve_collective(
        self, platform: Platform, spec: CollectiveSpec, size: float | None = None
    ) -> SteadyStateSolution:
        """Return the cached solution of ``spec``, solving on first use."""
        key = self._key(platform, spec, size)
        entry = self._cache.get(key)
        if entry is None:
            entry = (platform, solve_collective_lp(platform, spec, size))
            self._cache[key] = entry
        return entry[1]

    def stats(self) -> dict:
        """Usage snapshot (entries / bytes / hits / misses / evictions)."""
        return self._cache.stats()

    def clear(self) -> None:
        """Drop every cached solution."""
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
