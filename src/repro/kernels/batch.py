"""Ensemble-batched schedule kernels: many compiled trees, one numpy sweep.

:mod:`repro.kernels.makespan` and :mod:`repro.kernels.simulation` removed the
per-``(node, slice)`` interpreter cost *inside* one platform; a campaign still
pays Python-level dispatch *between* platforms — thousands of
``arrival_matrix`` calls, each a loop of small numpy operations.
:class:`EnsembleBatch` removes that axis too: it stacks many
:class:`~repro.kernels.tree.CompiledTree` /
:class:`~repro.platform.compiled.CompiledPlatform` snapshots into one ragged
tensor bundle and evaluates the canonical pipelined schedule of the *whole
ensemble* level by level, so the number of interpreted steps is the maximum
tree depth of the batch instead of the total node count.

Ragged layout
-------------
Items keep their own node counts; nothing is resampled or truncated:

* **Concatenation + offsets** — per-node quantities of item ``i`` live at
  global rows ``node_offsets[i]:node_offsets[i + 1]`` (same for the per-slot
  arrays via ``item_slot_indptr``), exactly the CSR convention the compiled
  views already use.  An item's arrival matrix is a contiguous row-slice of
  the global ``(total_nodes, num_slices)`` matrix.
* **Per-level padding** — the lockstep sweep groups all parents of one BFS
  depth (across every item) into a rectangle of ``max_children`` slots.
  Padded slots carry ``busy = 0.0`` and ``ready = -inf``: a ``+ 0.0`` leaves
  every IEEE prefix sum bit-identical and a ``-inf`` never wins a running
  maximum, so the padded scans reproduce the per-item
  :func:`~repro.kernels.makespan.arrival_matrix` recurrence *exactly* —
  bit-for-bit, not just to rounding — which is what lets
  :class:`~repro.api.Session` substitute batched results for sequential ones.

Items the vector sweep cannot express — routed (multi-hop) trees, whose relay
ports serialize obligations across levels — fall back to the per-item kernel
inside the same call, so a mixed ensemble still returns one coherent result
set.  The multi-port in-order *simulation* (where link occupation of the
previous slice can bind) likewise falls back to the scalar per-item replay.

The stacked arrays are plain contiguous ndarrays by design: they are exactly
what a shared-memory worker pool (ROADMAP item 3) would place in
``multiprocessing.shared_memory``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..models.port_models import MultiPortModel, OnePortModel, PortModel
from .makespan import arrival_matrix, supports_model
from .simulation import _multi_port_run
from .tree import CompiledTree

__all__ = [
    "EnsembleBatch",
    "batch_arrival_matrices",
    "batch_pipelined_makespan",
    "batch_inorder_simulation",
]


@dataclass(frozen=True)
class _Level:
    """One BFS depth of the ensemble, padded rectangular (see module doc)."""

    parent_rows: np.ndarray  # (P,) global node ids of the level's senders
    mask: np.ndarray  # (P, S) True where a slot is real, False where padded
    busy: np.ndarray  # (P, S) sender-port busy time per slot (0 where padded)
    hop: np.ndarray  # (P, S) link transfer time per slot (0 where padded)
    child_rows: np.ndarray  # (P, S) global child node id per slot (-1 padded)


@dataclass(frozen=True, eq=False)  # identity semantics: ndarray fields
class EnsembleBatch:
    """Many compiled trees stacked into one ragged batch (see module doc).

    Attributes
    ----------
    trees:
        The compiled trees, in item order.
    model:
        The shared port model every item is evaluated under (one of the two
        canonical models; :func:`~repro.kernels.makespan.supports_model`).
    node_offsets:
        ``(num_items + 1,)`` — item ``i`` owns global node rows
        ``node_offsets[i]:node_offsets[i + 1]``.
    item_slot_indptr:
        ``(num_items + 1,)`` — item ``i`` owns global child-slot positions
        ``item_slot_indptr[i]:item_slot_indptr[i + 1]``.
    slot_counts / slot_indptr:
        Child-slot CSR over *global* node ids.
    slot_child / slot_hop / slot_busy / slot_first_edge_local:
        Per global slot: global child node id, first-hop transfer time,
        sender-port busy time under :attr:`model`, and the first-hop edge id
        *local to the item* (for resource bookkeeping).
    vector_items / fallback_items:
        Item indices the lockstep sweep covers (direct trees) vs the items
        evaluated through the per-item kernel (routed trees).
    levels:
        Precomputed padded rectangles, one per BFS depth of the batch.
    """

    #: The stacked ndarray attributes, in a stable order — the payload of
    #: :meth:`array_bundle` (shared-memory publication to pool workers).
    ARRAY_FIELDS = (
        "node_offsets",
        "item_slot_indptr",
        "slot_counts",
        "slot_indptr",
        "slot_child",
        "slot_hop",
        "slot_busy",
        "slot_first_edge_local",
    )

    trees: tuple[CompiledTree, ...]
    model: PortModel
    node_offsets: np.ndarray
    item_slot_indptr: np.ndarray
    slot_counts: np.ndarray
    slot_indptr: np.ndarray
    slot_child: np.ndarray
    slot_hop: np.ndarray
    slot_busy: np.ndarray
    slot_first_edge_local: np.ndarray
    vector_items: tuple[int, ...]
    fallback_items: tuple[int, ...]
    levels: tuple[_Level, ...]

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_trees(
        cls, trees: Sequence[CompiledTree], model: PortModel
    ) -> "EnsembleBatch":
        """Stack ``trees`` for evaluation under ``model``.

        Every tree may live on a different platform, at a different node
        count and message size; routed trees are accepted and routed through
        the per-item fallback.  Raises :class:`ValueError` for an empty
        ensemble or a non-canonical port model.
        """
        trees = tuple(trees)
        if not trees:
            raise ValueError("an EnsembleBatch needs at least one tree")
        if not supports_model(model):
            raise ValueError(f"unsupported port model for batched kernels: {model!r}")
        one_port = type(model) is OnePortModel

        node_counts = np.asarray([t.num_nodes for t in trees], dtype=np.int64)
        node_offsets = np.zeros(len(trees) + 1, dtype=np.int64)
        np.cumsum(node_counts, out=node_offsets[1:])

        parents_g = np.concatenate(
            [
                np.where(t.parents >= 0, t.parents + off, -1)
                for t, off in zip(trees, node_offsets[:-1].tolist())
            ]
        )
        slot_counts = np.concatenate([np.diff(t.child_indptr) for t in trees])
        slot_indptr = np.zeros(len(slot_counts) + 1, dtype=np.int64)
        np.cumsum(slot_counts, out=slot_indptr[1:])
        item_slot_indptr = slot_indptr[node_offsets]

        slot_child = np.concatenate(
            [t.child_nodes + off for t, off in zip(trees, node_offsets[:-1].tolist())]
        )
        slot_first_edge_local = np.concatenate([t.first_hop_edge_ids for t in trees])
        slot_hop = np.concatenate(
            [t.view.transfer_times[t.first_hop_edge_ids] for t in trees]
        )
        if one_port:
            slot_busy = slot_hop
        else:
            send_g = np.concatenate(
                [t.view.node_send_times(model.send_fraction) for t in trees]
            )
            parent_of_slot = np.repeat(
                np.arange(len(slot_counts), dtype=np.int64), slot_counts
            )
            slot_busy = np.minimum(send_g[parent_of_slot], slot_hop)

        vector_items = tuple(i for i, t in enumerate(trees) if t.is_direct)
        fallback_items = tuple(i for i, t in enumerate(trees) if not t.is_direct)

        # Node depths via synchronized parent-chain hops: O(max depth) numpy
        # steps for the whole ensemble instead of a per-node Python walk.
        depth = np.zeros(len(parents_g), dtype=np.int64)
        cursor = parents_g.copy()
        while True:
            alive = cursor >= 0
            if not alive.any():
                break
            depth[alive] += 1
            cursor = np.where(alive, parents_g[np.where(alive, cursor, 0)], -1)

        vector_node = np.zeros(len(parents_g), dtype=bool)
        for i in vector_items:
            vector_node[node_offsets[i] : node_offsets[i + 1]] = True

        levels: list[_Level] = []
        senders = vector_node & (slot_counts > 0)
        max_depth = int(depth.max()) if len(depth) else 0
        for d in range(max_depth + 1):
            sel = np.flatnonzero(senders & (depth == d))
            if not len(sel):
                continue
            counts = slot_counts[sel]
            width = int(counts.max())
            columns = np.arange(width, dtype=np.int64)
            mask = columns[None, :] < counts[:, None]
            # Clipped gather: padded cells re-read the slot at position 0 and
            # are immediately neutralized through ``mask``.
            gather = slot_indptr[sel][:, None] + np.where(mask, columns[None, :], 0)
            levels.append(
                _Level(
                    parent_rows=sel,
                    mask=mask,
                    busy=np.where(mask, slot_busy[gather], 0.0),
                    hop=np.where(mask, slot_hop[gather], 0.0),
                    child_rows=np.where(mask, slot_child[gather], -1),
                )
            )

        return cls(
            trees=trees,
            model=model,
            node_offsets=node_offsets,
            item_slot_indptr=item_slot_indptr,
            slot_counts=slot_counts,
            slot_indptr=slot_indptr,
            slot_child=slot_child,
            slot_hop=slot_hop,
            slot_busy=slot_busy,
            slot_first_edge_local=slot_first_edge_local,
            vector_items=vector_items,
            fallback_items=fallback_items,
            levels=tuple(levels),
        )

    # ------------------------------------------------------------------ #
    @property
    def num_items(self) -> int:
        """Number of stacked trees."""
        return len(self.trees)

    @property
    def total_nodes(self) -> int:
        """Sum of the items' node counts (rows of the global arrival matrix)."""
        return int(self.node_offsets[-1])

    def array_bundle(self) -> "dict[str, np.ndarray]":
        """The stacked arrays as a name → ndarray mapping.

        This is the shape :func:`repro.shm.pack_arrays` consumes, so a
        batch built once can be published into a shared-memory segment and
        re-viewed zero-copy by warm pool workers (the trees themselves are
        rebuilt worker-side from the shared compiled-platform arrays).
        """
        return {name: getattr(self, name) for name in self.ARRAY_FIELDS}

    @property
    def nbytes(self) -> int:
        """Bytes held by the stacked arrays (excluding the compiled views)."""
        arrays = [getattr(self, name) for name in self.ARRAY_FIELDS]
        total = sum(a.nbytes for a in arrays)
        for level in self.levels:
            total += (
                level.parent_rows.nbytes
                + level.mask.nbytes
                + level.busy.nbytes
                + level.hop.nbytes
                + level.child_rows.nbytes
            )
        return total

    def item_rows(self, item: int) -> slice:
        """Global node-row slice of ``item``."""
        return slice(int(self.node_offsets[item]), int(self.node_offsets[item + 1]))

    def __repr__(self) -> str:
        return (
            f"EnsembleBatch(items={self.num_items}, nodes={self.total_nodes}, "
            f"levels={len(self.levels)}, fallback={len(self.fallback_items)})"
        )


# --------------------------------------------------------------------------- #
# Batched kernels
# --------------------------------------------------------------------------- #
def batch_arrival_matrices(
    batch: EnsembleBatch,
    num_slices: int,
    *,
    collect_send_totals: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Arrival times of every item's canonical schedule, in one sweep.

    Returns ``(arrivals, send_totals)``: ``arrivals`` is the global
    ``(total_nodes, num_slices)`` matrix whose row-slice
    ``batch.item_rows(i)`` equals
    :func:`~repro.kernels.makespan.arrival_matrix` of item ``i``
    bit-for-bit; ``send_totals`` (only with ``collect_send_totals``, and only
    for vector items) accumulates each sender's total port occupation with
    the same left-fold rounding the per-item simulation fast path uses.
    """
    if num_slices < 1:
        raise ValueError(f"num_slices must be >= 1, got {num_slices}")
    arrivals = np.zeros((batch.total_nodes, num_slices))
    send_totals = np.zeros(batch.total_nodes) if collect_send_totals else None

    for level in batch.levels:
        parents, width = level.mask.shape
        ready_scan = np.repeat(arrivals[level.parent_rows], width, axis=1)
        if width > 1:
            ready_scan[~np.tile(level.mask, (1, num_slices))] = -np.inf
        busy_scan = np.tile(level.busy, (1, num_slices))
        prefix = np.zeros_like(busy_scan)
        np.cumsum(busy_scan[:, :-1], axis=1, out=prefix[:, 1:])
        start = prefix + np.maximum.accumulate(ready_scan - prefix, axis=1)
        available = start + np.tile(level.hop, (1, num_slices))
        series = available.reshape(parents, num_slices, width).transpose(0, 2, 1)
        arrivals[level.child_rows[level.mask]] = series[level.mask]
        if send_totals is not None:
            send_totals[level.parent_rows] = prefix[:, -1] + busy_scan[:, -1]

    for i in batch.fallback_items:
        arrivals[batch.item_rows(i)] = arrival_matrix(
            batch.trees[i], num_slices, batch.model
        )
    return arrivals, send_totals


def batch_pipelined_makespan(
    batch: EnsembleBatch, num_slices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-item makespans and fill times of the canonical schedule.

    Returns ``(makespans, fill_times)`` of shape ``(num_items,)``, each
    entry bit-identical to what
    :func:`repro.analysis.makespan.pipelined_makespan` reports for the
    corresponding tree (``makespan`` / ``fill_time`` fields).
    """
    arrivals, _ = batch_arrival_matrices(batch, num_slices)
    starts = batch.node_offsets[:-1]
    makespans = np.maximum.reduceat(arrivals[:, num_slices - 1], starts)
    fills = np.maximum.reduceat(arrivals[:, 0], starts)
    return makespans, fills


def batch_inorder_simulation(
    batch: EnsembleBatch, num_slices: int
) -> list[tuple[np.ndarray, dict[int, float], dict[int, float], dict[int, float]]]:
    """Event-free in-order simulation of every item of the batch.

    Returns, per item, the exact
    ``(arrivals, send_busy, recv_busy, link_busy)`` tuple of
    :func:`repro.kernels.simulation.inorder_direct_run` — one-port items
    share the single batched sweep; multi-port items are replayed through
    the scalar per-item recurrence (their link occupation genuinely couples
    consecutive slices).  Raises :class:`ValueError` when any item is a
    routed tree: those replay the engine's event order one tree at a time
    (:func:`repro.kernels.simulation.inorder_routed_run`), and their
    one-port arrivals are not the canonical makespan recurrence that
    :class:`~repro.api.Session` reuses from a batched sweep.
    """
    if batch.fallback_items:
        raise ValueError(
            "the batched in-order simulation requires direct trees; items "
            f"{list(batch.fallback_items)!r} are routed"
        )
    if type(batch.model) is MultiPortModel:
        return [_multi_port_run(t, num_slices, batch.model) for t in batch.trees]

    arrivals_g, send_totals = batch_arrival_matrices(
        batch, num_slices, collect_send_totals=True
    )
    occupations = _repeated_sum(batch.slot_hop, num_slices)

    results = []
    for i, tree in enumerate(batch.trees):
        rows = batch.item_rows(i)
        node_base = rows.start
        send_busy: dict[int, float] = {}
        recv_busy: dict[int, float] = {}
        link_busy: dict[int, float] = {}
        # BFS-ordered like the per-item run, so the dicts match key for key.
        for local in tree.bfs.tolist():
            g = node_base + local
            lo, hi = int(batch.slot_indptr[g]), int(batch.slot_indptr[g + 1])
            if lo == hi:
                continue
            send_busy[local] = float(send_totals[g])
            for s in range(lo, hi):
                occupation = float(occupations[s])
                link_busy[int(batch.slot_first_edge_local[s])] = occupation
                recv_busy[int(batch.slot_child[s]) - node_base] = occupation
        results.append((arrivals_g[rows], send_busy, recv_busy, link_busy))
    return results


def _repeated_sum(values: np.ndarray, count: int) -> np.ndarray:
    """``cumsum(full(count, v))[-1]`` for every ``v``, deduplicated.

    The engine accumulates a link/receiver occupation one reservation at a
    time; replaying that left fold keeps the totals bit-identical.  Equal
    values share one fold (the chain only depends on the value), so the
    temporary is ``(unique values, count)`` instead of ``(slots, count)``.
    """
    if not len(values):
        return np.zeros(0)
    unique, inverse = np.unique(values, return_inverse=True)
    folded = np.cumsum(
        np.broadcast_to(unique[:, None], (len(unique), count)), axis=1
    )[:, -1]
    return folded[inverse]
