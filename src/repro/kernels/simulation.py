"""Event-free and index-based fast paths for the in-order pipelined simulation.

The canonical in-order schedule of
:class:`~repro.simulation.broadcast.PipelinedBroadcastSimulator` serves every
resource's obligations in a *predetermined* order (slice-major, child-minor
per sender), so on direct trees the schedule **is** a recurrence and is
evaluated without any event heap:

* **one-port** — each transfer blocks sender port, link and receiver port
  for the full ``T_{u,v}``, which makes the link/receiver constraints
  provably redundant with the sender-port serialisation on direct trees;
  the arrivals are exactly the analytical recurrence of
  :func:`repro.kernels.makespan.arrival_matrix` (vectorized over slices).
* **multi-port** — the per-send overhead ``min(send_u, T)`` frees the
  sender's port before the link drains, so the link occupation of the
  previous slice *can* bind; a lean scalar recurrence mirrors the event
  simulator's arithmetic operation for operation (bit-identical results)
  at a fraction of its interpreter cost.

Routed (binomial) trees let several senders share one relay's receive port,
and the order of those reservations depends on when each upstream hop
completes.  :func:`inorder_routed_run` therefore replays the engine's event
order itself — same obligation lists, same heap tie-breaking, same checks —
over integer arrays and plain tuples instead of closures and name-keyed
dicts.  The event engine remains the implementation for the greedy policy,
tracing and custom port models, and the oracle the tests compare against.
"""

from __future__ import annotations

import heapq
from typing import Any

import numpy as np

from ..exceptions import SimulationError
from ..models.port_models import MultiPortModel, OnePortModel, PortModel
from ..models.timing import TransferTiming
from .makespan import arrival_matrix, supports_model
from .tree import CompiledTree

__all__ = [
    "supports_inorder_fast_path",
    "inorder_direct_run",
    "inorder_routed_run",
    "supports_scatter_fast_path",
    "scatter_direct_run",
]

NodeName = Any


def supports_inorder_fast_path(ctree: CompiledTree, model: PortModel) -> bool:
    """Whether the in-order schedule has a kernel for this tree/model.

    Direct trees take :func:`inorder_direct_run`, routed ones
    :func:`inorder_routed_run`; only custom port models need the engine.
    """
    return supports_model(model)


def inorder_direct_run(
    ctree: CompiledTree, num_slices: int, model: PortModel
) -> tuple[np.ndarray, dict[int, float], dict[int, float], dict[int, float]]:
    """Arrivals and resource busy times of the in-order schedule.

    Returns ``(arrivals, send_busy, recv_busy, link_busy)`` where
    ``arrivals[i, k]`` is the reception time of slice ``k`` at node ``i``,
    ``send_busy``/``recv_busy`` map node indices to total port occupation and
    ``link_busy`` maps first-hop edge ids to total link occupation — the
    exact quantities the event engine accumulates on its
    :class:`~repro.simulation.resources.SequentialResource` objects.
    """
    if not (supports_inorder_fast_path(ctree, model) and ctree.is_direct):
        raise ValueError("in-order fast path requires a direct tree and a canonical model")
    if type(model) is OnePortModel:
        return _one_port_run(ctree, num_slices, model)
    return _multi_port_run(ctree, num_slices, model)


# --------------------------------------------------------------------------- #
# One-port: the schedule equals the analytical recurrence
# --------------------------------------------------------------------------- #
def _one_port_run(ctree: CompiledTree, num_slices: int, model: OnePortModel):
    view = ctree.view
    arrivals = arrival_matrix(ctree, num_slices, model)
    send_busy: dict[int, float] = {}
    recv_busy: dict[int, float] = {}
    link_busy: dict[int, float] = {}
    for node in ctree.bfs.tolist():
        slots = ctree.child_slots_of(node)
        if not len(slots):
            continue
        hops = view.transfer_times[ctree.first_hop_edge_ids[slots]]
        # The engine accumulates busy time one reservation at a time, in
        # dispatch order; replay the same left-fold rounding.
        send_busy[node] = float(np.cumsum(np.tile(hops, num_slices))[-1])
        for j, slot in enumerate(slots.tolist()):
            occupation = float(np.cumsum(np.full(num_slices, hops[j]))[-1])
            link_busy[int(ctree.first_hop_edge_ids[slot])] = occupation
            recv_busy[int(ctree.child_nodes[slot])] = occupation
    return arrivals, send_busy, recv_busy, link_busy


# --------------------------------------------------------------------------- #
# Multi-port: lean scalar replay of the event simulator's arithmetic
# --------------------------------------------------------------------------- #
def supports_scatter_fast_path(ctree: CompiledTree, model: PortModel) -> bool:
    """Whether the index-based scatter replay applies to this tree/model."""
    return supports_model(model) and ctree.is_direct


def scatter_direct_run(
    ctree: CompiledTree, target_indices: "list[int]", num_rounds: int, model: PortModel
) -> dict[int, np.ndarray]:
    """Arrival times of every target's *own* messages under distinct-message replay.

    One scatter round sends a distinct message per target; node ``u`` serves
    its obligations round-major, child-major, and within a child the
    messages of the child's subtree targets ordered by ``str(name)`` — the
    canonical in-order schedule of
    :func:`repro.simulation.collective.simulate_collective`, whose
    name-keyed reference loop this mirrors operation for operation.

    Returns ``{target index: arrivals[num_rounds]}`` where entry ``k`` is
    when target ``t`` received its own round-``k`` message.
    """
    if not supports_scatter_fast_path(ctree, model):
        raise ValueError("scatter fast path requires a direct tree and a canonical model")
    view = ctree.view
    hop_times = view.transfer_times
    if type(model) is OnePortModel:
        send_times = None
        recv_overheads = None
    else:
        send_times = view.node_send_times(model.send_fraction)
        recv_overheads = view.recv_overheads

    target_set = set(int(t) for t in target_indices)
    names = view.node_names

    # Per child slot: the subtree targets whose messages cross it, ordered
    # by str(name) (matching the reference's deterministic message order).
    subtree_targets: dict[int, list[int]] = {}
    for node in ctree.bfs.tolist()[::-1]:
        mine = [node] if node in target_set and node != ctree.source else []
        for child in ctree.children_of(node).tolist():
            mine.extend(subtree_targets[child])
        subtree_targets[node] = sorted(mine, key=lambda i: str(names[i]))

    # arrivals[node] holds, per subtree target of ``node``, the round-indexed
    # arrival times of that target's messages at ``node``.
    arrivals: dict[int, dict[int, np.ndarray]] = {
        ctree.source: {t: np.zeros(num_rounds) for t in subtree_targets[ctree.source]}
    }
    for node in ctree.bfs.tolist():
        slots = ctree.child_slots_of(node)
        if not len(slots):
            continue
        children = ctree.child_nodes[slots].tolist()
        edges = ctree.first_hop_edge_ids[slots].tolist()
        here = arrivals[node]
        hops = [float(hop_times[e]) for e in edges]
        if send_times is None:
            busies = hops
            recvs = [0.0] * len(slots)
        else:
            send_time = float(send_times[node])
            busies = [min(send_time, hop) for hop in hops]
            recvs = []
            for j, child in enumerate(children):
                overhead = float(recv_overheads[child])
                recvs.append(min(overhead, hops[j]) if overhead == overhead else 0.0)
        offsets = [hops[j] - recvs[j] for j in range(len(slots))]
        rows: dict[int, dict[int, np.ndarray]] = {
            child: {t: np.empty(num_rounds) for t in subtree_targets[child]}
            for child in children
        }
        send_free = 0.0
        link_free = [0.0] * len(slots)
        recv_free = [0.0] * len(slots)
        for k in range(num_rounds):
            for j, child in enumerate(children):
                for t in subtree_targets[child]:
                    ready = 0.0 if node == ctree.source else float(here[t][k])
                    start = max(ready, send_free, link_free[j])
                    if recvs[j] > 0:
                        start = max(start, recv_free[j] - offsets[j])
                    send_free = start + busies[j]
                    link_free[j] = start + hops[j]
                    if recvs[j] > 0:
                        recv_free[j] = (start + offsets[j]) + recvs[j]
                    rows[child][t][k] = start + hops[j]
        for child in children:
            arrivals[child] = rows[child]

    # Under one-port the receiver is blocked for the full hop, so the
    # sender-port serialisation already dominates; either way the recurrence
    # above reproduced the event arithmetic directly.
    return {
        t: arrivals[t][t]
        for t in sorted(target_set, key=lambda i: str(names[i]))
        if t in arrivals
    }


def _multi_port_run(ctree: CompiledTree, num_slices: int, model: MultiPortModel):
    view = ctree.view
    send_times = view.node_send_times(model.send_fraction)
    recv_overheads = view.recv_overheads
    hop_times = view.transfer_times

    arrivals = np.zeros((ctree.num_nodes, num_slices))
    send_busy: dict[int, float] = {}
    recv_busy: dict[int, float] = {}
    link_busy: dict[int, float] = {}
    for node in ctree.bfs.tolist():
        slots = ctree.child_slots_of(node)
        if not len(slots):
            continue
        children = ctree.child_nodes[slots].tolist()
        edges = ctree.first_hop_edge_ids[slots].tolist()
        hops = [float(hop_times[e]) for e in edges]
        send_time = float(send_times[node])
        busies = [min(send_time, hop) for hop in hops]
        # receiver_busy = min(recv_v, T); nan recv overhead means "unset" (0).
        recvs = []
        for j, child in enumerate(children):
            overhead = float(recv_overheads[child])
            recvs.append(min(overhead, hops[j]) if overhead == overhead else 0.0)
        offsets = [hops[j] - recvs[j] for j in range(len(slots))]

        ready = arrivals[node].tolist()
        rows = [np.empty(num_slices) for _ in slots]
        send_free = 0.0
        link_free = [0.0] * len(slots)
        recv_free = [0.0] * len(slots)
        send_total = 0.0
        link_total = [0.0] * len(slots)
        recv_total = [0.0] * len(slots)
        for k in range(num_slices):
            ready_k = ready[k]
            for j in range(len(slots)):
                start = max(ready_k, send_free, link_free[j])
                if recvs[j] > 0:
                    start = max(start, recv_free[j] - offsets[j])
                send_free = start + busies[j]
                link_free[j] = start + hops[j]
                send_total += busies[j]
                link_total[j] += hops[j]
                if recvs[j] > 0:
                    recv_free[j] = (start + offsets[j]) + recvs[j]
                    recv_total[j] += recvs[j]
                rows[j][k] = start + hops[j]
        # The engine only reports resources with busy_time > 0; a zero
        # explicit send overhead makes every send free, so mirror the filter.
        if send_total > 0:
            send_busy[node] = send_total
        for j, child in enumerate(children):
            arrivals[child] = rows[j]
            link_busy[int(edges[j])] = link_total[j]
            if recv_total[j] > 0:
                recv_busy[child] = recv_total[j]
    return arrivals, send_busy, recv_busy, link_busy


# --------------------------------------------------------------------------- #
# Routed trees: index-based replay of the event engine
# --------------------------------------------------------------------------- #
def _hop_timing(view, edge: int, send_times: "list[float] | None") -> tuple[float, float, float]:
    """``(sender_busy, link_busy, receiver_busy)`` of one physical edge.

    The values :func:`repro.models.timing.transfer_timing` computes for the
    edge (``send_times`` is ``None`` under one-port), read from the compiled
    arrays and validated the same way.
    """
    hop = float(view.transfer_times[edge])
    if send_times is None:
        sender_busy = receiver_busy = hop
    else:
        sender_busy = min(send_times[int(view.edge_sources[edge])], hop)
        overhead = float(view.recv_overheads[int(view.edge_targets[edge])])
        # A nan receive overhead means "unset", which the model reads as 0.
        receiver_busy = min(overhead if overhead == overhead else 0.0, hop)
    try:
        TransferTiming(sender_busy, hop, receiver_busy)
    except ValueError as exc:
        raise SimulationError(f"invalid timing on edge {view.edge_list[edge]!r}: {exc}") from exc
    return sender_busy, hop, receiver_busy


def inorder_routed_run(
    ctree: CompiledTree, num_slices: int, model: PortModel
) -> tuple[np.ndarray, dict[int, float], dict[int, float], dict[int, float]]:
    """The in-order schedule of a (possibly routed) tree, replayed exactly.

    Does what :class:`~repro.simulation.broadcast.PipelinedBroadcastSimulator`
    does under the in-order policy, over integer indices:

    * every sender owns an obligation list — logical parents in BFS order,
      their children in child order, route hops in hop order — and serves
      it slice-major through an integer cursor;
    * one heap of ``(time, seq, obligation, slice)`` tuples replaces the
      closures: a send pushes its completion (``slice >= 0``) before its
      sender-free event (``slice == -1``), with ``seq`` from one global
      counter, so simultaneous events fire in the engine's order and shared
      relays see their receive-port reservations in the engine's order;
    * hop completions live in per-obligation lists indexed by slice.

    It raises :class:`~repro.exceptions.SimulationError` wherever the engine
    does: a start in the past, a double-booked port or link, the
    ``max_events`` valve, pending transfers or missing slices at the end,
    and invalid per-hop timings.  Returns the ``(arrivals, send_busy,
    recv_busy, link_busy)`` tuple of :func:`inorder_direct_run`, with
    ``link_busy`` keyed by every physical edge the routes keep busy.
    """
    if not supports_inorder_fast_path(ctree, model):
        raise ValueError("in-order replay requires a canonical port model")
    view = ctree.view
    num_nodes = ctree.num_nodes
    edge_sources = view.edge_sources.tolist()
    edge_targets = view.edge_targets.tolist()
    child_indptr = ctree.child_indptr.tolist()
    child_nodes = ctree.child_nodes.tolist()
    route_indptr = ctree.route_indptr.tolist()
    route_edge_ids = ctree.route_edge_ids.tolist()
    send_times = (
        None
        if type(model) is OnePortModel
        else view.node_send_times(model.send_fraction).tolist()
    )

    # Obligations, numbered in the engine's construction order: the hops of
    # one logical edge are consecutive, so hop h > 0 waits on obligation
    # g - 1.  Rows ``always`` and ``never`` of ``done`` stand for the
    # source's data (ready at 0) and a parent that never receives.
    timings: dict[int, tuple[float, float, float]] = {}
    obligations: list[tuple[int, int, int, int, float, float, float, float]] = []
    per_sender: list[list[int]] = [[] for _ in range(num_nodes)]
    last_hop_into: dict[int, int] = {}
    num_obligations = len(route_edge_ids)
    always, never = num_obligations, num_obligations + 1
    for parent in ctree.bfs.tolist():
        first_ready = always if parent == ctree.source else last_hop_into.get(parent, never)
        for slot in range(child_indptr[parent], child_indptr[parent + 1]):
            for position in range(route_indptr[slot], route_indptr[slot + 1]):
                edge = route_edge_ids[position]
                if edge not in timings:
                    timings[edge] = _hop_timing(view, edge, send_times)
                sender_busy, hop, receiver_busy = timings[edge]
                g = len(obligations)
                sender = edge_sources[edge]
                obligations.append(
                    (
                        sender,
                        edge_targets[edge],
                        edge,
                        first_ready if position == route_indptr[slot] else g - 1,
                        sender_busy,
                        hop,
                        receiver_busy,
                        hop - receiver_busy,
                    )
                )
                per_sender[sender].append(g)
            last_hop_into[child_nodes[slot]] = len(obligations) - 1

    num_edges = view.num_edges
    done: list[list[float | None]] = [[None] * num_slices for _ in range(num_obligations)]
    done.append([0.0] * num_slices)
    done.append([None] * num_slices)
    send_free = [0.0] * num_nodes
    recv_free = [0.0] * num_nodes
    link_free = [0.0] * num_edges
    send_total = [0.0] * num_nodes
    recv_total = [0.0] * num_nodes
    link_total = [0.0] * num_edges
    # Per-sender cursor over (slice, obligation); idle senders start done.
    cursor_slice = [0 if mine else num_slices for mine in per_sender]
    cursor_index = [0] * num_nodes
    per_sender_count = [len(mine) for mine in per_sender]

    max_events = 50 * num_slices * max(1, num_edges) + 1000
    heap: list[tuple[float, int, int, int]] = []
    if obligations:
        # The engine's kick-off: "try to send at the source" at time 0.
        heap.append((0.0, 0, per_sender[ctree.source][0], -1))
    seq = 1
    now = 0.0
    processed = 0
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        time, _, g, k = pop(heap)
        if time < now - 1e-12:
            raise SimulationError("event queue went back in time (engine bug)")
        if time > now:
            now = time
        if k >= 0:
            done[g][k] = time
            node = obligations[g][1]
        else:
            node = obligations[g][0]

        # try_send(node): the next obligation in canonical order, if ready.
        slice_index = cursor_slice[node]
        if slice_index < num_slices:
            mine = per_sender[node]
            index = cursor_index[node]
            ob = mine[index]
            u, v, e, ready_row, sender_busy, hop, receiver_busy, offset = obligations[ob]
            ready = done[ready_row][slice_index]
            if ready is not None:
                # max(now, ready, send port, link[, receive port - offset]),
                # spelled out: the comparisons are cheaper than the call.
                start = now
                if ready > start:
                    start = ready
                if send_free[u] > start:
                    start = send_free[u]
                if link_free[e] > start:
                    start = link_free[e]
                if receiver_busy > 0 and recv_free[v] - offset > start:
                    start = recv_free[v] - offset
                if start < now - 1e-9:
                    raise SimulationError("computed a transfer start in the past (simulator bug)")
                if start < send_free[u] - 1e-9 or start < link_free[e] - 1e-9:
                    raise SimulationError(
                        f"send port or link of edge {view.edge_list[e]!r} double-booked at {start}"
                    )
                end = start + sender_busy
                if end > send_free[u]:
                    send_free[u] = end
                send_total[u] += sender_busy
                completion = start + hop
                if completion > link_free[e]:
                    link_free[e] = completion
                link_total[e] += hop
                if receiver_busy > 0:
                    recv_start = start + offset
                    if recv_start < recv_free[v] - 1e-9:
                        raise SimulationError(
                            f"receive port of {view.name_of(v)!r} double-booked at {recv_start}"
                        )
                    recv_end = recv_start + receiver_busy
                    if recv_end > recv_free[v]:
                        recv_free[v] = recv_end
                    recv_total[v] += receiver_busy
                index += 1
                if index == per_sender_count[node]:
                    index = 0
                    cursor_slice[node] = slice_index + 1
                cursor_index[node] = index
                push(heap, (completion, seq, ob, slice_index))
                push(heap, (end, seq + 1, ob, -1))
                seq += 2

        processed += 1
        if processed >= max_events:
            raise SimulationError(
                f"simulation exceeded max_events={max_events}; the schedule is "
                "probably not making progress"
            )

    unfinished = [view.name_of(i) for i in range(num_nodes) if cursor_slice[i] < num_slices]
    if unfinished:
        raise SimulationError(
            f"simulation ended with pending transfers at nodes {unfinished!r}; "
            "the broadcast tree is probably malformed"
        )
    arrivals = np.zeros((num_nodes, num_slices))
    for node, g in sorted(last_hop_into.items()):
        row = done[g]
        missing = [k for k in range(num_slices) if row[k] is None]
        if missing:
            raise SimulationError(
                f"node {view.name_of(node)!r} never received slices {missing[:5]!r}..."
            )
        arrivals[node] = row
    # The engine only reports resources with busy_time > 0.
    send_busy = {i: busy for i, busy in enumerate(send_total) if busy > 0}
    recv_busy = {i: busy for i, busy in enumerate(recv_total) if busy > 0}
    link_busy = {e: busy for e, busy in enumerate(link_total) if busy > 0}
    return arrivals, send_busy, recv_busy, link_busy
