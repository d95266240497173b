"""Fast-path kernels vs. their reference implementations.

Every kernel of :mod:`repro.kernels` has a pure-Python reference twin.  The
tests here assert the two agree across random platforms, sizes, both port
models and routed (binomial) trees:

* on *integer-cost* platforms every intermediate quantity of both
  implementations is an exact dyadic float, so the comparison is
  **bit-identical** (``==``, no tolerance), including against the
  discrete-event simulator;
* on continuous random platforms the vectorized scans re-associate prefix
  sums, so those comparisons allow ``1e-12`` relative slack — while the
  purely combinatorial kernels (heuristic selections, spanning oracle,
  multi-port simulation replay) stay bit-identical even there.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro import (
    BroadcastTree,
    CollectiveSpec,
    MultiPortModel,
    OnePortModel,
    Platform,
    build_broadcast_tree,
    build_collective_tree,
    generate_random_platform,
    pipelined_makespan,
    pipelined_makespan_reference,
    tree_throughput,
)
from repro.analysis.makespan import fill_time
from repro.core.grow_tree import GrowingMinimumOutDegreeTree
from repro.core.local_search import improve_tree, improve_tree_reference
from repro.core.lp_prune import LPCommunicationGraphPruning
from repro.core.multiport_grow import MultiPortGrowingTree
from repro.core.multiport_prune import MultiPortRefinedPruning
from repro.core.prune_refined import RefinedPlatformPruning
from repro.kernels import CompiledTree, SpanningOracle, arrival_matrix
from repro.lp.solver import solve_steady_state_lp
from repro.platform.link import Link
from repro.platform.node import ProcessorNode
from repro.simulation import simulate_broadcast
from repro.utils.graph_utils import adjacency_from_edges, edge_removal_keeps_spanning

_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)
MODERATE = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=_NO_SHRINK,
)

platform_params = st.tuples(
    st.integers(min_value=4, max_value=14),          # nodes
    st.floats(min_value=0.1, max_value=0.6),         # density
    st.integers(min_value=0, max_value=10_000),      # seed
)
integer_params = st.tuples(
    st.integers(min_value=4, max_value=14),          # nodes
    st.integers(min_value=0, max_value=30),          # extra directed edge pairs
    st.integers(min_value=0, max_value=10_000),      # seed
    st.booleans(),                                   # stamp explicit overheads
)


def integer_platform(num_nodes, extra_pairs, seed, recv_overheads=False) -> Platform:
    """Connected random platform whose costs are small integers.

    Integer transfer times and integer explicit overheads make every
    quantity of the schedule recurrences exactly representable, which turns
    the fast-path/reference comparisons into bit-identity checks.  (The
    multi-port default ``send_u = 0.8 * min T`` is deliberately avoided —
    0.8 is not a dyadic rational.)
    """
    rng = np.random.default_rng(seed)
    platform = Platform(name=f"int-{num_nodes}-{seed}", slice_size=1.0)
    times: dict[tuple[int, int], int] = {}
    order = [int(n) for n in rng.permutation(num_nodes)]
    for position in range(1, num_nodes):
        u, v = order[int(rng.integers(0, position))], order[position]
        times[(u, v)] = int(rng.integers(1, 10))
        times[(v, u)] = int(rng.integers(1, 10))
    for _ in range(extra_pairs):
        u, v = (int(x) for x in rng.integers(0, num_nodes, size=2))
        if u != v and (u, v) not in times:
            times[(u, v)] = int(rng.integers(1, 10))
            times[(v, u)] = int(rng.integers(1, 10))
    for node in range(num_nodes):
        platform.add_node(
            ProcessorNode(
                name=node,
                send_overhead=int(rng.integers(1, 4)),
                recv_overhead=int(rng.integers(1, 4)) if recv_overheads and rng.integers(2) else None,
            )
        )
    for (u, v), time in times.items():
        platform.add_link(Link.with_transfer_time(u, v, float(time)))
    platform.validate()
    return platform


def both_models():
    return (OnePortModel(), MultiPortModel())


# --------------------------------------------------------------------------- #
# CompiledTree structural equivalence
# --------------------------------------------------------------------------- #
class TestCompiledTree:
    @MODERATE
    @given(platform_params, st.sampled_from(["grow-tree", "binomial"]))
    def test_matches_tree_structure(self, params, heuristic):
        platform = generate_random_platform(
            num_nodes=params[0], density=params[1], seed=params[2]
        )
        tree = build_broadcast_tree(platform, 0, heuristic)
        ctree = tree.compiled()
        view = ctree.view
        assert view.name_of(ctree.source) == tree.source
        assert [view.name_of(i) for i in ctree.bfs.tolist()] == tree.bfs_order()
        for i, name in enumerate(view.node_names):
            children = [view.name_of(c) for c in ctree.children_of(i).tolist()]
            assert children == tree.children(name)
            parent = tree.parent(name)
            assert ctree.parents[i] == (-1 if parent is None else view.index_of(parent))
            for slot, child in zip(ctree.child_slots_of(i).tolist(), children):
                hops = [view.edge_list[e] for e in ctree.route_of(slot).tolist()]
                assert tuple(hops) == tree.route(name, child)
        assert ctree.is_direct == tree.is_direct

    def test_cached_per_size_and_rebuilt_on_mutation(self, diamond_platform):
        tree = BroadcastTree.from_edges(diamond_platform, 0, [(0, 1), (1, 2), (2, 3)])
        first = tree.compiled()
        assert tree.compiled() is first
        assert tree.compiled(2.0) is not first
        diamond_platform.add_link(Link.with_transfer_time(3, 0, 5.0))
        rebuilt = tree.compiled()
        assert rebuilt is not first
        assert rebuilt.view is diamond_platform.compiled()


# --------------------------------------------------------------------------- #
# Vectorized makespan kernel
# --------------------------------------------------------------------------- #
class TestMakespanKernel:
    @MODERATE
    @given(integer_params, st.sampled_from(["grow-tree", "prune-degree", "binomial"]))
    def test_bit_identical_on_integer_platforms(self, params, heuristic):
        nodes, extra, seed, overheads = params
        platform = integer_platform(nodes, extra, seed, overheads)
        tree = build_broadcast_tree(platform, 0, heuristic)
        for model in both_models():
            for num_slices in (1, 7, 40):
                fast = pipelined_makespan(tree, num_slices, model)
                reference = pipelined_makespan_reference(tree, num_slices, model)
                assert fast == reference  # dataclass equality: exact floats

    @MODERATE
    @given(platform_params, st.sampled_from(["grow-tree", "binomial"]))
    def test_close_on_continuous_platforms(self, params, heuristic):
        platform = generate_random_platform(
            num_nodes=params[0], density=params[1], seed=params[2]
        )
        tree = build_broadcast_tree(platform, 0, heuristic)
        for model in both_models():
            fast = pipelined_makespan(tree, 25, model)
            reference = pipelined_makespan_reference(tree, 25, model)
            assert fast.makespan == pytest.approx(reference.makespan, rel=1e-12)
            assert fast.fill_time == pytest.approx(reference.fill_time, rel=1e-12)
            assert fast.steady_state_period == reference.steady_state_period

    def test_shared_relay_falls_back_per_node(self):
        # Children 2 and 3 of logical parent 0 both route through relay 1:
        # that parent takes the scalar path, the rest stays vectorized.
        platform = Platform(name="shared-relay", slice_size=1.0)
        for node in range(4):
            platform.add_node(node)
        for u, v, t in [(0, 1, 2.0), (1, 2, 3.0), (1, 3, 5.0)]:
            platform.add_link(Link.with_transfer_time(u, v, t))
        tree = BroadcastTree.from_logical_transfers(
            platform, 0, [(0, 1), (0, 2), (0, 3)]
        )
        assert not tree.is_direct
        for num_slices in (1, 9):
            fast = pipelined_makespan(tree, num_slices)
            reference = pipelined_makespan_reference(tree, num_slices)
            assert fast == reference

        # fill_time must serialize the shared relay on both of its branches:
        # the kernel (canonical model) and the custom-model fallback loop.
        class CustomOnePort(OnePortModel):
            """Subclass: rejected by the kernel, takes the fallback path."""

        expected = pipelined_makespan_reference(tree, 1).fill_time
        assert fill_time(tree, OnePortModel()) == expected
        assert fill_time(tree, CustomOnePort()) == expected

    @MODERATE
    @given(integer_params)
    def test_fill_time_is_single_slice_makespan(self, params):
        platform = integer_platform(*params)
        tree = build_broadcast_tree(platform, 0, "grow-tree")
        for model in both_models():
            assert fill_time(tree, model) == (
                pipelined_makespan_reference(tree, 1, model).fill_time
            )


# --------------------------------------------------------------------------- #
# In-order simulation fast path
# --------------------------------------------------------------------------- #
class TestSimulationFastPath:
    @staticmethod
    def run_both(tree, model, num_slices=23):
        fast = simulate_broadcast(
            tree, num_slices, model=model, record_trace=False
        )
        # Reference arm: force the event engine for the same configuration.
        from repro.simulation.broadcast import PipelinedBroadcastSimulator

        reference = PipelinedBroadcastSimulator(
            tree, num_slices, model=model, record_trace=False
        )
        reference._fast_path_applicable = lambda: False
        return fast, reference.run()

    @MODERATE
    @given(integer_params, st.sampled_from(["grow-tree", "prune-degree"]))
    def test_bit_identical_on_integer_platforms(self, params, heuristic):
        nodes, extra, seed, overheads = params
        platform = integer_platform(nodes, extra, seed, overheads)
        tree = build_broadcast_tree(platform, 0, heuristic)
        for model in both_models():
            fast, engine = self.run_both(tree, model)
            assert fast.arrival_times == engine.arrival_times
            assert fast.makespan == engine.makespan
            assert fast.measured_throughput == engine.measured_throughput
            assert fast.analytical_throughput == engine.analytical_throughput
            assert fast.resource_utilization == engine.resource_utilization

    @MODERATE
    @given(platform_params)
    def test_multi_port_bit_identical_on_continuous_platforms(self, params):
        # The multi-port fast path replays the engine's arithmetic operation
        # for operation, so it is exact even with irrational-looking floats.
        platform = generate_random_platform(
            num_nodes=params[0], density=params[1], seed=params[2]
        )
        model = MultiPortModel()
        tree = build_broadcast_tree(platform, 0, "multiport-grow-tree", model=model)
        fast, engine = self.run_both(tree, model)
        assert fast.arrival_times == engine.arrival_times
        assert fast.resource_utilization == engine.resource_utilization

    @MODERATE
    @given(platform_params)
    def test_one_port_close_on_continuous_platforms(self, params):
        platform = generate_random_platform(
            num_nodes=params[0], density=params[1], seed=params[2]
        )
        tree = build_broadcast_tree(platform, 0, "grow-tree")
        fast, engine = self.run_both(tree, OnePortModel())
        for node, times in engine.arrival_times.items():
            assert fast.arrival_times[node] == pytest.approx(times, rel=1e-12)
        assert fast.makespan == pytest.approx(engine.makespan, rel=1e-12)

    def test_zero_send_overhead_matches_engine_utilization(self):
        # An explicit send_overhead of 0 makes every multi-port send free;
        # the engine then drops the send port from resource_utilization
        # (busy_time filter) and the fast path must do the same.
        platform = Platform(name="free-sender", slice_size=1.0)
        for node in range(3):
            platform.add_node(ProcessorNode(name=node, send_overhead=0.0))
        for u, v in [(0, 1), (1, 2)]:
            platform.add_link(Link.with_transfer_time(u, v, 2.0))
            platform.add_link(Link.with_transfer_time(v, u, 2.0))
        platform.validate()
        tree = BroadcastTree.from_edges(platform, 0, [(0, 1), (1, 2)])
        fast, engine = self.run_both(tree, MultiPortModel(), num_slices=8)
        assert fast.arrival_times == engine.arrival_times
        assert fast.resource_utilization == engine.resource_utilization

    def test_routed_trees_take_the_kernel_tracing_and_greedy_keep_the_engine(
        self, small_random_platform, monkeypatch
    ):
        from repro.simulation.broadcast import PipelinedBroadcastSimulator

        routed = build_broadcast_tree(small_random_platform, 0, "binomial")
        assert not routed.is_direct
        engine_runs = []
        build = PipelinedBroadcastSimulator._build_obligations
        monkeypatch.setattr(
            PipelinedBroadcastSimulator,
            "_build_obligations",
            lambda self: (engine_runs.append(self.policy), build(self))[1],
        )
        assert simulate_broadcast(routed, 10, record_trace=False).makespan > 0
        assert engine_runs == []  # in-order routed runs: the kernel path
        greedy = simulate_broadcast(routed, 10, policy="greedy", record_trace=False)
        assert greedy.makespan > 0 and engine_runs == ["greedy"]
        traced = simulate_broadcast(routed, 10, record_trace=True)
        assert len(traced.trace) > 0 and engine_runs == ["greedy", "in-order"]


# --------------------------------------------------------------------------- #
# Routed (binomial) trees: index-based replay vs. the event engine
# --------------------------------------------------------------------------- #
def _assert_kernel_matches_engine(tree, model, num_slices):
    fast, engine = TestSimulationFastPath.run_both(tree, model, num_slices)
    assert fast.arrival_times == engine.arrival_times
    assert fast.makespan == engine.makespan
    assert fast.measured_throughput == engine.measured_throughput
    assert fast.resource_utilization == engine.resource_utilization


class TestRoutedSimulationKernel:
    @pytest.mark.parametrize("platform_fixture", [
        "small_random_platform", "tiers_platform", "cluster_platform",
    ])
    @pytest.mark.parametrize("kind", ["broadcast", "multicast", "reduce"])
    @pytest.mark.parametrize("model", both_models(), ids=["one-port", "multi-port"])
    def test_bit_identical_to_engine(self, platform_fixture, kind, model, request):
        platform = request.getfixturevalue(platform_fixture)
        nodes = list(platform.nodes)
        spec = {
            "broadcast": CollectiveSpec.broadcast(nodes[0]),
            "multicast": CollectiveSpec.multicast(nodes[0], nodes[1::2]),
            "reduce": CollectiveSpec.reduce(nodes[0]),
        }[kind]
        tree = build_collective_tree(platform, spec, "binomial", model=model)
        assert not tree.is_direct
        for num_slices in (1, 2, 7, 50):
            _assert_kernel_matches_engine(tree, model, num_slices)

    @staticmethod
    def shared_relay_platform(send_overhead=None):
        # Relay 3 serves logical edges of two different parents (0 -> 2 and
        # 1 -> 4), so its receive port and send port interleave two streams.
        platform = Platform(name="shared-relay", slice_size=1.0)
        for node in range(5):
            platform.add_node(ProcessorNode(name=node, send_overhead=send_overhead))
        for u, v, t in [(0, 1, 2.0), (0, 3, 3.0), (3, 2, 1.5), (1, 3, 2.5), (3, 4, 4.0)]:
            platform.add_link(Link.with_transfer_time(u, v, t))
        platform.validate()
        tree = BroadcastTree.from_logical_transfers(
            platform, 0, [(0, 1), (0, 2), (1, 4), (0, 3)]
        )
        assert tree.route(0, 2) == ((0, 3), (3, 2))
        assert tree.route(1, 4) == ((1, 3), (3, 4))
        return tree

    @pytest.mark.parametrize("model", both_models(), ids=["one-port", "multi-port"])
    def test_relay_shared_by_two_logical_edges(self, model):
        tree = self.shared_relay_platform()
        for num_slices in (1, 2, 7, 50):
            _assert_kernel_matches_engine(tree, model, num_slices)

    def test_zero_send_overhead_on_a_routed_tree(self):
        # Free sends: sender-free events fire at the send's own start time,
        # and the engine drops the zero-busy send ports from the utilization.
        tree = self.shared_relay_platform(send_overhead=0.0)
        for num_slices in (1, 7, 50):
            _assert_kernel_matches_engine(tree, MultiPortModel(), num_slices)

    @MODERATE
    @given(integer_params)
    def test_bit_identical_on_integer_platforms(self, params):
        platform = integer_platform(*params)
        tree = build_broadcast_tree(platform, 0, "binomial")
        for model in both_models():
            _assert_kernel_matches_engine(tree, model, 13)

    def test_malformed_tree_raises_like_the_engine(self, small_random_platform):
        from dataclasses import replace

        from repro.exceptions import SimulationError
        from repro.kernels.simulation import inorder_routed_run

        ctree = build_broadcast_tree(small_random_platform, 0, "binomial").compiled()
        # Parents listed before their own parent never see their data.
        broken = replace(ctree, bfs=ctree.bfs[::-1].copy())
        with pytest.raises(SimulationError, match="pending transfers"):
            inorder_routed_run(broken, 3, OnePortModel())


# --------------------------------------------------------------------------- #
# Incremental heuristics
# --------------------------------------------------------------------------- #
class TestIncrementalHeuristics:
    @MODERATE
    @given(platform_params, st.booleans())
    def test_grow_tree_heap_matches_rescan(self, params, literal):
        platform = generate_random_platform(
            num_nodes=params[0], density=params[1], seed=params[2]
        )
        fast = GrowingMinimumOutDegreeTree(literal_cost_update=literal, fast=True)
        reference = GrowingMinimumOutDegreeTree(literal_cost_update=literal, fast=False)
        assert fast.build(platform, 0).to_parent_dict() == (
            reference.build(platform, 0).to_parent_dict()
        )

    @MODERATE
    @given(platform_params)
    def test_multiport_grow_heap_matches_rescan(self, params):
        platform = generate_random_platform(
            num_nodes=params[0], density=params[1], seed=params[2]
        )
        model = MultiPortModel()
        fast = MultiPortGrowingTree(fast=True).build(platform, 0, model=model)
        reference = MultiPortGrowingTree(fast=False).build(platform, 0, model=model)
        assert fast.to_parent_dict() == reference.to_parent_dict()

    @MODERATE
    @given(platform_params)
    def test_prune_refined_oracle_matches_reference(self, params):
        platform = generate_random_platform(
            num_nodes=params[0], density=params[1], seed=params[2]
        )
        fast = RefinedPlatformPruning(fast=True).build(platform, 0)
        reference = RefinedPlatformPruning(fast=False).build(platform, 0)
        assert fast.to_parent_dict() == reference.to_parent_dict()

    @MODERATE
    @given(platform_params)
    def test_multiport_prune_oracle_matches_reference(self, params):
        platform = generate_random_platform(
            num_nodes=params[0], density=params[1], seed=params[2]
        )
        model = MultiPortModel()
        fast = MultiPortRefinedPruning(fast=True).build(platform, 0, model=model)
        reference = MultiPortRefinedPruning(fast=False).build(platform, 0, model=model)
        assert fast.to_parent_dict() == reference.to_parent_dict()

    @MODERATE
    @given(st.tuples(
        st.integers(min_value=4, max_value=10),
        st.floats(min_value=0.2, max_value=0.6),
        st.integers(min_value=0, max_value=1_000),
    ))
    def test_lp_prune_oracle_matches_reference(self, params):
        platform = generate_random_platform(
            num_nodes=params[0], density=params[1], seed=params[2]
        )
        solution = solve_steady_state_lp(platform, 0)
        fast = LPCommunicationGraphPruning(fast=True).build(
            platform, 0, lp_solution=solution
        )
        reference = LPCommunicationGraphPruning(fast=False).build(
            platform, 0, lp_solution=solution
        )
        assert fast.to_parent_dict() == reference.to_parent_dict()

    @MODERATE
    @given(platform_params, st.sampled_from(["grow-tree", "binomial"]))
    def test_local_search_delta_matches_full_recompute(self, params, heuristic):
        platform = generate_random_platform(
            num_nodes=params[0], density=params[1], seed=params[2]
        )
        tree = build_broadcast_tree(platform, 0, heuristic)
        for model in both_models():
            fast = improve_tree(tree, model)
            reference = improve_tree_reference(tree, model)
            assert fast.to_parent_dict() == reference.to_parent_dict()
            assert (
                tree_throughput(fast, model).throughput
                == tree_throughput(reference, model).throughput
            )


# --------------------------------------------------------------------------- #
# Spanning oracle
# --------------------------------------------------------------------------- #
class TestSpanningOracle:
    @MODERATE
    @given(platform_params, st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_reference_reachability(self, params, removal_seed):
        platform = generate_random_platform(
            num_nodes=params[0], density=params[1], seed=params[2]
        )
        view = platform.compiled()
        oracle = SpanningOracle(view, view.index_of(0))
        nodes = platform.nodes
        remaining = set(platform.edges)
        adjacency = adjacency_from_edges(nodes, remaining)
        rng = np.random.default_rng(removal_seed)
        edge_ids = {edge: e for e, edge in enumerate(view.edge_list)}
        for _ in range(min(20, len(remaining))):
            edge = sorted(remaining)[int(rng.integers(0, len(remaining)))]
            expected = edge_removal_keeps_spanning(0, nodes, adjacency, edge)
            assert oracle.keeps_spanning(edge_ids[edge]) == expected
            if expected:
                remaining.discard(edge)
                adjacency[edge[0]].discard(edge[1])
                oracle.remove(edge_ids[edge])


# --------------------------------------------------------------------------- #
# LP solution extraction
# --------------------------------------------------------------------------- #
class TestLPOccupationExtraction:
    def test_one_pass_occupation_matches_naive_loops(self, small_random_platform):
        platform = small_random_platform
        solution = solve_steady_state_lp(platform, 0)
        for node in platform.nodes:
            t_in = sum(
                solution.edge_messages[(u, v)] * platform.transfer_time(u, v)
                for u, v in platform.edges
                if v == node
            )
            t_out = sum(
                solution.edge_messages[(u, v)] * platform.transfer_time(u, v)
                for u, v in platform.edges
                if u == node
            )
            reference_in, reference_out = solution.objective_per_node[node]
            assert reference_in == pytest.approx(t_in, rel=1e-12, abs=1e-15)
            assert reference_out == pytest.approx(t_out, rel=1e-12, abs=1e-15)
