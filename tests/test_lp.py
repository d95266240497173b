"""Tests for the steady-state LP formulation, solver and LP-based heuristics."""

from __future__ import annotations

import pytest

from repro import (
    LPCommunicationGraphPruning,
    LPGrowTree,
    LPSolutionCache,
    build_broadcast_tree,
    build_steady_state_lp,
    optimal_throughput,
    solve_steady_state_lp,
    tree_throughput,
)
from repro.exceptions import HeuristicError, LPError
from tests.conftest import assert_spanning_tree


class TestFormulation:
    def test_dimensions(self, small_random_platform):
        data = build_steady_state_lp(small_random_platform, 0)
        edges = small_random_platform.num_links
        destinations = small_random_platform.num_nodes - 1
        assert data.index.num_edges == edges
        assert data.index.num_destinations == destinations
        assert data.index.num_variables == edges * destinations + edges + 1
        assert data.a_eq.shape[1] == data.index.num_variables
        assert data.a_ub.shape[1] == data.index.num_variables
        assert data.num_constraints == data.a_eq.shape[0] + data.a_ub.shape[0]

    def test_column_layout(self, line_platform):
        data = build_steady_state_lp(line_platform, 0)
        index = data.index
        assert index.flow(0, 0) == 0
        assert index.messages(0) == index.num_edges * index.num_destinations
        assert index.throughput == index.num_variables - 1

    def test_objective_maximises_throughput(self, line_platform):
        data = build_steady_state_lp(line_platform, 0)
        assert data.objective[data.index.throughput] == -1.0
        assert (data.objective[: data.index.throughput] == 0).all()

    def test_rejects_bad_source(self, line_platform):
        with pytest.raises(LPError):
            build_steady_state_lp(line_platform, 99)

    def test_rejects_single_node(self):
        from repro import Platform

        platform = Platform()
        platform.add_node(0)
        with pytest.raises(LPError):
            build_steady_state_lp(platform, 0)


class TestSolver:
    def test_star_optimum_known(self, star_platform):
        # The hub must send every slice to each of the 4 leaves; all sends
        # serialise on its output port: TP* = 1 / (4 * 2).
        solution = solve_steady_state_lp(star_platform, 0)
        assert solution.throughput == pytest.approx(1 / 8.0, rel=1e-6)

    def test_chain_optimum_known(self, line_platform):
        # The slowest link (time 3) limits the chain: TP* = 1/3.
        solution = solve_steady_state_lp(line_platform, 0)
        assert solution.throughput == pytest.approx(1 / 3.0, rel=1e-6)

    def test_complete_uniform_optimum(self, complete_uniform_platform):
        # A Hamiltonian chain achieves throughput 1 and the source cannot
        # inject faster than one slice per time unit on a unit-time link...
        solution = solve_steady_state_lp(complete_uniform_platform, 0)
        assert solution.throughput >= 1.0 - 1e-6

    def test_lp_upper_bounds_every_single_tree(self, medium_random_platform):
        optimum = optimal_throughput(medium_random_platform, 0)
        for heuristic in ("prune-simple", "prune-degree", "grow-tree", "binomial"):
            tree = build_broadcast_tree(medium_random_platform, 0, heuristic)
            assert tree_throughput(tree).throughput <= optimum + 1e-6

    def test_edge_occupation_constraints_hold(self, small_random_platform):
        solution = solve_steady_state_lp(small_random_platform, 0)
        for (u, v), messages in solution.edge_messages.items():
            occupation = messages * small_random_platform.transfer_time(u, v)
            assert occupation <= 1.0 + 1e-6

    def test_node_occupation_constraints_hold(self, small_random_platform):
        solution = solve_steady_state_lp(small_random_platform, 0)
        for node, (t_in, t_out) in solution.objective_per_node.items():
            assert t_in <= 1.0 + 1e-6
            assert t_out <= 1.0 + 1e-6

    def test_source_out_occupation_saturated(self, small_random_platform):
        # At the optimum the source's output port is the canonical bottleneck
        # candidate; it must at least carry TP slices on its fastest link.
        solution = solve_steady_state_lp(small_random_platform, 0)
        fastest = small_random_platform.min_out_transfer_time(0)
        assert solution.throughput <= 1.0 / fastest + 1e-6

    def test_solution_helpers(self, small_random_platform):
        solution = solve_steady_state_lp(small_random_platform, 0)
        busiest = solution.busiest_edges(3)
        assert len(busiest) == 3
        assert busiest[0][1] >= busiest[1][1] >= busiest[2][1]
        assert set(solution.used_edges()).issubset(set(small_random_platform.edges))
        assert "TP=" in solution.summary()
        assert solution.edge_weight(0, 99) == 0.0

    def test_cache_solves_once(self, small_random_platform):
        cache = LPSolutionCache()
        first = cache.solve(small_random_platform, 0)
        second = cache.solve(small_random_platform, 0)
        assert first is second
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_flows_respect_tolerance(self, line_platform):
        solution = solve_steady_state_lp(line_platform, 0)
        assert all(value > 0 for value in solution.flows.values())


@pytest.mark.parametrize("heuristic_cls", [LPCommunicationGraphPruning, LPGrowTree])
class TestLPHeuristics:
    def test_produces_spanning_tree(self, heuristic_cls, small_random_platform):
        tree = heuristic_cls().build(small_random_platform, 0)
        assert_spanning_tree(tree, small_random_platform, 0)

    def test_accepts_precomputed_solution(self, heuristic_cls, small_random_platform):
        solution = solve_steady_state_lp(small_random_platform, 0)
        tree = heuristic_cls().build(small_random_platform, 0, lp_solution=solution)
        assert_spanning_tree(tree, small_random_platform, 0)

    def test_rejects_solution_for_other_source(self, heuristic_cls, small_random_platform):
        solution = solve_steady_state_lp(small_random_platform, 1)
        with pytest.raises(HeuristicError):
            heuristic_cls().build(small_random_platform, 0, lp_solution=solution)

    def test_close_to_optimum_on_small_platform(self, heuristic_cls, small_random_platform):
        optimum = optimal_throughput(small_random_platform, 0)
        tree = heuristic_cls().build(small_random_platform, 0)
        ratio = tree_throughput(tree).throughput / optimum
        assert 0.4 <= ratio <= 1.0 + 1e-9

    def test_deterministic(self, heuristic_cls, small_random_platform):
        solution = solve_steady_state_lp(small_random_platform, 0)
        a = heuristic_cls().build(small_random_platform, 0, lp_solution=solution)
        b = heuristic_cls().build(small_random_platform, 0, lp_solution=solution)
        assert a.same_structure_as(b)


# --------------------------------------------------------------------------- #
# Production solve (devex dual simplex) vs HiGHS's default choice
# --------------------------------------------------------------------------- #
_SMALL_RECIPES = {
    "random": {"num_nodes": 8, "density": 0.4, "seed": 2},
    "tiers": {"size": 30, "seed": 2},
    "cluster": {"num_clusters": 3, "cluster_size": 3, "seed": 2},
    "star": {"num_nodes": 6, "seed": 2},
    "ring": {"num_nodes": 6, "seed": 2},
    "grid": {"rows": 2, "cols": 3, "seed": 2},
    "hypercube": {"dimension": 3, "seed": 2},
    "complete": {"num_nodes": 5, "seed": 2},
}


class TestProductionSolve:
    @pytest.mark.parametrize(
        "kind", ["broadcast", "multicast", "scatter", "reduce", "gather"]
    )
    @pytest.mark.parametrize("generator", sorted(_SMALL_RECIPES))
    def test_matches_default_highs_and_is_feasible(
        self, generator, kind, monkeypatch
    ):
        import numpy as np
        from scipy import optimize

        import repro.lp.solver as solver
        from repro.api import PLATFORM_GENERATORS
        from repro.collectives import CollectiveSpec

        platform = PLATFORM_GENERATORS[generator](**_SMALL_RECIPES[generator])
        spec = CollectiveSpec(kind, 0, (1, 3) if kind == "multicast" else None)
        calls = []
        real = solver._run_linprog

        def spy(data, method, attempt):
            outcome = real(data, method, attempt)
            calls.append((data, method, outcome))
            return outcome

        monkeypatch.setattr(solver, "_run_linprog", spy)
        solution = solver.solve_collective_lp(platform, spec)

        (data, method, outcome), = calls  # the first method succeeded
        assert method == "highs-ds-devex"
        reference = optimize.linprog(
            c=data.objective,
            A_ub=data.a_ub,
            b_ub=data.b_ub,
            A_eq=data.a_eq,
            b_eq=data.b_eq,
            bounds=data.bounds,
            method="highs",
        )
        assert reference.success
        expected = reference.x[data.index.throughput]
        assert solution.throughput == pytest.approx(expected, rel=1e-9, abs=0)

        x = np.asarray(outcome.x)
        assert np.abs(data.a_eq @ x - data.b_eq).max(initial=0.0) <= 1e-7
        assert (data.a_ub @ x - data.b_ub).max(initial=0.0) <= 1e-7
        lower = np.array([low for low, _ in data.bounds])
        upper = np.array([np.inf if high is None else high for _, high in data.bounds])
        assert (lower - x).max() <= 1e-7 and (x - upper).max() <= 1e-7
