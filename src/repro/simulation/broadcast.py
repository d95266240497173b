"""Discrete-event simulation of a pipelined broadcast along a tree.

The closed-form throughput of :mod:`repro.analysis.throughput` rests on the
steady-state argument of the paper; this simulator provides the ground
truth: it executes an explicit schedule of every slice transfer, respecting
the resource constraints of the chosen port model (serialised output port,
serialised input port, serialised link, per-send overheads), and measures
the throughput actually achieved.  Tests and the ``simulation_validation``
example check that the measured steady-state rate matches the analytical
prediction for both port models, including routed (binomial) trees.

Scheduling policy
-----------------
Each node serves its transfer obligations *in order*: slices in increasing
index, and for each slice its obligations in a fixed deterministic order
(the tree's child order).  This is the canonical schedule assumed by
:func:`repro.analysis.makespan.pipelined_makespan`.  A ``greedy`` policy is
also available: the node starts the first *ready* obligation (smallest slice
index), which can help routed trees where different obligations depend on
different arrivals.

Fast path
---------
For the in-order policy with the canonical port models and tracing
disabled, :mod:`repro.kernels.simulation` evaluates the schedule from the
compiled tree arrays.  On *direct* trees every resource serves its
obligations in a predetermined order, so no event heap is needed
(vectorized scans under the one-port model, a lean scalar recurrence
mirroring the engine's arithmetic under the multi-port model).  On routed
trees, shared relays make the order of receive-port reservations depend on
event timing, so the kernel replays this engine's event order over integer
indices.  The event engine remains the implementation for the greedy
policy, tracing and custom port models, and the test suite cross-checks
every kernel against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Literal, Mapping

from ..core.tree import BroadcastTree
from ..exceptions import SimulationError
from ..models.port_models import PortModel, get_port_model
from ..models.timing import transfer_timing
from .engine import SimulationEngine
from .resources import SequentialResource
from .trace import SimulationTrace, TransferRecord

__all__ = [
    "PipelinedBroadcastSimulator",
    "SimulationResult",
    "simulate_broadcast",
    "inorder_result_from_run",
    "measure_steady_rate",
]

NodeName = Any
Edge = tuple[NodeName, NodeName]
Policy = Literal["in-order", "greedy"]


@dataclass(frozen=True)
class _Obligation:
    """One physical hop a node must perform for every slice."""

    sender: NodeName
    receiver: NodeName
    logical_edge: Edge
    hop_index: int
    is_last_hop: bool


@dataclass
class SimulationResult:
    """Outcome of one simulated pipelined broadcast.

    Attributes
    ----------
    makespan:
        Time at which the last slice reached the last node.
    num_slices:
        Number of slices broadcast.
    arrival_times:
        For every node, the time each slice arrived (source: all zeros).
    measured_throughput:
        Throughput measured over the trailing half of the slices (steady
        state), directly comparable to the analytical prediction.
    analytical_throughput:
        The closed-form steady-state throughput of the same tree/model.
    trace:
        Full transfer trace (empty when tracing was disabled).
    resource_utilization:
        Busy fraction of each port/link over the makespan.
    """

    makespan: float
    num_slices: int
    arrival_times: Mapping[NodeName, list[float]]
    measured_throughput: float
    analytical_throughput: float
    trace: SimulationTrace = field(default_factory=SimulationTrace)
    resource_utilization: Mapping[str, float] = field(default_factory=dict)

    @property
    def effective_throughput(self) -> float:
        """Throughput including fill and drain phases."""
        if self.makespan <= 0:
            return float("inf")
        return self.num_slices / self.makespan

    def relative_error(self) -> float:
        """Relative gap between measured and analytical steady-state rates."""
        if self.analytical_throughput == 0:
            return 0.0
        return abs(self.measured_throughput - self.analytical_throughput) / self.analytical_throughput


class PipelinedBroadcastSimulator:
    """Simulate the pipelined broadcast of ``num_slices`` slices along a tree.

    Parameters
    ----------
    tree:
        The broadcast tree (possibly routed) to simulate.
    num_slices:
        Number of equal-size slices to broadcast; a few dozen is enough for
        the measured rate to converge to the steady state.
    model:
        Port model (instance, name or ``None`` for one-port).
    size:
        Slice size; defaults to the platform slice size.
    policy:
        ``"in-order"`` (canonical round-robin schedule, default) or
        ``"greedy"`` (start the first ready obligation).
    record_trace:
        Keep the full transfer trace (needed for validation / Gantt output;
        costs memory proportional to ``num_slices * edges``).
    """

    def __init__(
        self,
        tree: BroadcastTree,
        num_slices: int,
        *,
        model: PortModel | str | None = None,
        size: float | None = None,
        policy: Policy = "in-order",
        record_trace: bool = True,
    ) -> None:
        if num_slices < 1:
            raise SimulationError(f"num_slices must be >= 1, got {num_slices}")
        if policy not in ("in-order", "greedy"):
            raise SimulationError(f"unknown policy {policy!r}")
        self.tree = tree
        self.platform = tree.platform
        self.num_slices = num_slices
        self.model = get_port_model(model)
        self.size = size
        self.policy: Policy = policy
        self.record_trace = record_trace

        self.engine = SimulationEngine()
        self.trace = SimulationTrace()

        # Resources.
        self._send_port: dict[NodeName, SequentialResource] = {}
        self._recv_port: dict[NodeName, SequentialResource] = {}
        self._link: dict[Edge, SequentialResource] = {}

        # Data availability.
        self._arrival: dict[NodeName, dict[int, float]] = {tree.source: {}}
        self._hop_done: dict[tuple[Edge, int, int], float] = {}

        # Per-node work lists and progress pointers (built lazily by
        # run(): the event-free fast path never needs them).
        self._obligations: dict[NodeName, list[_Obligation]] = {}
        self._pending: dict[NodeName, list[tuple[int, int]]] = {}

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #
    def _build_obligations(self) -> None:
        obligations: dict[NodeName, list[_Obligation]] = {
            node: [] for node in self.platform.nodes
        }
        for parent in self.tree.bfs_order():
            for child in self.tree.children(parent):
                route = self.tree.route(parent, child)
                for hop_index, (a, b) in enumerate(route):
                    obligations[a].append(
                        _Obligation(
                            sender=a,
                            receiver=b,
                            logical_edge=(parent, child),
                            hop_index=hop_index,
                            is_last_hop=hop_index == len(route) - 1,
                        )
                    )
        self._obligations = obligations
        # Work items in canonical order: slice-major, then obligation order.
        self._pending = {
            node: [
                (slice_index, ob_index)
                for slice_index in range(self.num_slices)
                for ob_index in range(len(obligations[node]))
            ]
            for node in self.platform.nodes
        }

    def _build_resources(self) -> None:
        record = self.record_trace
        for node in self.platform.nodes:
            self._send_port[node] = SequentialResource(f"send-port:{node}", record=record)
            self._recv_port[node] = SequentialResource(f"recv-port:{node}", record=record)
        for edge, count in self.tree.physical_edge_multiplicities().items():
            if count > 0:
                self._link[edge] = SequentialResource(f"link:{edge}", record=record)

    # ------------------------------------------------------------------ #
    # Data readiness
    # ------------------------------------------------------------------ #
    def _ready_time(self, obligation: _Obligation, slice_index: int) -> float | None:
        """When the data of ``slice_index`` is available for this hop.

        ``None`` means "not yet known" (the upstream transfer has not
        completed in simulated time).
        """
        if obligation.hop_index == 0:
            if obligation.sender == self.tree.source:
                return 0.0
            node_arrivals = self._arrival.get(obligation.sender, {})
            return node_arrivals.get(slice_index)
        return self._hop_done.get(
            (obligation.logical_edge, obligation.hop_index - 1, slice_index)
        )

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def _try_send(self, node: NodeName) -> None:
        pending = self._pending[node]
        if not pending:
            return
        obligations = self._obligations[node]

        # Pick the next work item according to the policy.
        position = 0
        if self.policy == "in-order":
            slice_index, ob_index = pending[0]
            ready = self._ready_time(obligations[ob_index], slice_index)
            if ready is None:
                return
        else:  # greedy
            ready = None
            for candidate_position, (slice_index, ob_index) in enumerate(pending):
                candidate_ready = self._ready_time(obligations[ob_index], slice_index)
                if candidate_ready is not None:
                    position = candidate_position
                    ready = candidate_ready
                    break
            if ready is None:
                return
            slice_index, ob_index = pending[position]

        obligation = obligations[ob_index]
        timing = transfer_timing(
            self.model, self.platform, obligation.sender, obligation.receiver, self.size
        )
        send_port = self._send_port[obligation.sender]
        recv_port = self._recv_port[obligation.receiver]
        link = self._link[(obligation.sender, obligation.receiver)]

        start = max(self.engine.now, ready, send_port.next_free, link.next_free)
        if timing.receiver_busy > 0:
            # The receive occupation sits at the end of the transfer; delay
            # the start until the receiver's port can accommodate it.
            earliest_recv_start = recv_port.next_free
            start = max(start, earliest_recv_start - timing.receiver_busy_start_offset)

        if start < self.engine.now - 1e-9:
            raise SimulationError("computed a transfer start in the past (simulator bug)")

        send_port.reserve(start, timing.sender_busy)
        link.reserve(start, timing.link_busy)
        if timing.receiver_busy > 0:
            recv_port.reserve(start + timing.receiver_busy_start_offset, timing.receiver_busy)

        del pending[position]
        completion = start + timing.link_busy

        if self.record_trace:
            self.trace.add(
                TransferRecord(
                    sender=obligation.sender,
                    receiver=obligation.receiver,
                    slice_index=slice_index,
                    logical_edge=obligation.logical_edge,
                    start=start,
                    end=completion,
                )
            )

        self.engine.schedule_at(
            completion,
            lambda ob=obligation, k=slice_index, t=completion: self._on_completion(ob, k, t),
        )
        # The sender may start its next transfer once its port frees.
        self.engine.schedule_at(
            start + timing.sender_busy, lambda n=node: self._try_send(n)
        )

    def _on_completion(self, obligation: _Obligation, slice_index: int, time: float) -> None:
        self._hop_done[(obligation.logical_edge, obligation.hop_index, slice_index)] = time
        if obligation.is_last_hop:
            self._arrival.setdefault(obligation.logical_edge[1], {})[slice_index] = time
        else:
            # Intermediate relays also "hold" the slice from now on (only
            # relevant for readiness of the next hop, handled via _hop_done).
            pass
        self._try_send(obligation.receiver)

    # ------------------------------------------------------------------ #
    # Kernel fast path (canonical in-order schedule)
    # ------------------------------------------------------------------ #
    def _fast_path_applicable(self) -> bool:
        """Whether a :mod:`repro.kernels.simulation` kernel serves this run."""
        from ..kernels.simulation import supports_inorder_fast_path

        return (
            self.policy == "in-order"
            and not self.record_trace
            and supports_inorder_fast_path(self.tree.compiled(self.size), self.model)
        )

    def _run_fast(self) -> SimulationResult:
        """Evaluate the in-order schedule directly from the compiled arrays."""
        from ..kernels.simulation import inorder_direct_run, inorder_routed_run

        ctree = self.tree.compiled(self.size)
        kernel = inorder_direct_run if ctree.is_direct else inorder_routed_run
        run = kernel(ctree, self.num_slices, self.model)
        return inorder_result_from_run(
            self.tree, self.num_slices, self.model, self.size, run, trace=self.trace
        )

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Execute the simulation and return its result."""
        from ..analysis.throughput import tree_throughput  # local import: avoid cycle

        if self._fast_path_applicable():
            return self._run_fast()

        self._build_obligations()
        self._build_resources()
        self.engine.schedule_at(0.0, lambda: self._try_send(self.tree.source))
        max_events = 50 * self.num_slices * max(1, self.platform.num_links) + 1000
        self.engine.run(max_events=max_events)

        unfinished = [node for node, items in self._pending.items() if items]
        if unfinished:
            raise SimulationError(
                f"simulation ended with pending transfers at nodes {unfinished!r}; "
                "the broadcast tree is probably malformed"
            )

        arrivals: dict[NodeName, list[float]] = {}
        for node in self.tree.nodes:
            if node == self.tree.source:
                arrivals[node] = [0.0] * self.num_slices
                continue
            node_arrivals = self._arrival.get(node, {})
            missing = [k for k in range(self.num_slices) if k not in node_arrivals]
            if missing:
                raise SimulationError(
                    f"node {node!r} never received slices {missing[:5]!r}..."
                )
            arrivals[node] = [node_arrivals[k] for k in range(self.num_slices)]

        makespan = max(times[-1] for times in arrivals.values())
        analytical = tree_throughput(self.tree, self.model, self.size).throughput
        measured = self._measure_throughput(arrivals)
        utilization = {
            resource.name: resource.utilization(makespan)
            for resource in [*self._send_port.values(), *self._recv_port.values(), *self._link.values()]
            if resource.busy_time > 0
        }
        return SimulationResult(
            makespan=makespan,
            num_slices=self.num_slices,
            arrival_times=arrivals,
            measured_throughput=measured,
            analytical_throughput=analytical,
            trace=self.trace,
            resource_utilization=utilization,
        )

    def _measure_throughput(self, arrivals: Mapping[NodeName, list[float]]) -> float:
        """Steady-state rate: trailing half of the slices at the slowest node."""
        return measure_steady_rate(arrivals, self.num_slices)


def measure_steady_rate(
    arrivals: Mapping[NodeName, list[float]], num_slices: int
) -> float:
    """Steady-state rate over the trailing half of the slices (slowest node)."""
    if num_slices < 2:
        return float("inf")
    half = num_slices // 2
    if half >= num_slices - 1:
        half = num_slices - 2
    completion_half = max(times[half] for times in arrivals.values())
    completion_last = max(times[-1] for times in arrivals.values())
    measured_slices = num_slices - 1 - half
    if completion_last <= completion_half:
        return float("inf")
    return measured_slices / (completion_last - completion_half)


def inorder_result_from_run(
    tree: BroadcastTree,
    num_slices: int,
    model: PortModel,
    size: float | None,
    run: "tuple",
    trace: SimulationTrace | None = None,
) -> SimulationResult:
    """Assemble a :class:`SimulationResult` from a kernel in-order run.

    ``run`` is the ``(arrivals, send_busy, recv_busy, link_busy)`` tuple of
    :func:`repro.kernels.simulation.inorder_direct_run` or
    :func:`~repro.kernels.simulation.inorder_routed_run` (or one item of
    :func:`repro.kernels.batch.batch_inorder_simulation`, which is the same
    tuple); this is the single assembly path shared by the per-item fast
    path and the ensemble-batched :meth:`repro.api.Session.solve_many`, so
    batched and sequential simulations are identical object for object.
    """
    from ..analysis.throughput import tree_throughput  # local import: avoid cycle

    view = tree.compiled(size).view
    matrix, send_busy, recv_busy, link_busy = run
    # Only the covered nodes receive slices (a multicast tree is partial).
    arrivals: dict[NodeName, list[float]] = {
        name: matrix[view.index_of(name)].tolist() for name in tree.nodes
    }
    arrivals[tree.source] = [0.0] * num_slices
    makespan = max(times[-1] for times in arrivals.values())
    utilization = {}
    for index, busy in send_busy.items():
        utilization[f"send-port:{view.name_of(index)}"] = min(1.0, busy / makespan)
    for index, busy in recv_busy.items():
        utilization[f"recv-port:{view.name_of(index)}"] = min(1.0, busy / makespan)
    for edge_id, busy in link_busy.items():
        utilization[f"link:{view.edge_list[edge_id]}"] = min(1.0, busy / makespan)
    return SimulationResult(
        makespan=makespan,
        num_slices=num_slices,
        arrival_times=arrivals,
        measured_throughput=measure_steady_rate(arrivals, num_slices),
        analytical_throughput=tree_throughput(tree, model, size).throughput,
        trace=trace if trace is not None else SimulationTrace(),
        resource_utilization=utilization,
    )


def simulate_broadcast(
    tree: BroadcastTree,
    num_slices: int = 50,
    *,
    model: PortModel | str | None = None,
    size: float | None = None,
    policy: Policy = "in-order",
    record_trace: bool = True,
) -> SimulationResult:
    """Convenience wrapper: build a simulator, run it, return the result."""
    simulator = PipelinedBroadcastSimulator(
        tree,
        num_slices,
        model=model,
        size=size,
        policy=policy,
        record_trace=record_trace,
    )
    return simulator.run()
