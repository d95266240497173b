"""Array-backed fast-path kernels for the hot evaluation loops.

This package hosts the integer-indexed, slice-vectorized counterparts of
the pure-Python reference implementations spread across ``analysis``,
``simulation`` and ``core``:

* :mod:`~repro.kernels.tree` — :class:`CompiledTree`, the per-tree analogue
  of :class:`~repro.platform.compiled.CompiledPlatform`;
* :mod:`~repro.kernels.makespan` — running-max scans for the pipelined
  makespan recurrence;
* :mod:`~repro.kernels.simulation` — the in-order simulation schedule:
  event-free on direct trees, an index-based replay of the engine's event
  order on routed trees;
* :mod:`~repro.kernels.batch` — :class:`EnsembleBatch`, the ragged
  cross-platform stacking of many compiled trees, with ensemble-batched
  makespan / simulation sweeps;
* :mod:`~repro.kernels.batch_lp` — one concatenated COO assembly pass for
  a whole ensemble of steady-state LPs;
* :mod:`~repro.kernels.frontier` — lazy min-heap frontier for the growing
  heuristics;
* :mod:`~repro.kernels.spanning` — incremental reachability oracle for the
  pruning heuristics;
* :mod:`~repro.kernels.periods` — delta evaluation of node periods for the
  local search.

Every kernel has a reference twin kept in its original module (suffixed
``_reference`` or selectable with ``fast=False``); the test suite asserts
the two agree — bit-identically wherever the arithmetic is not
re-associated, to ``1e-12`` relative otherwise (see ``tests/test_kernels.py``).
"""

from .batch import (
    EnsembleBatch,
    batch_arrival_matrices,
    batch_inorder_simulation,
    batch_pipelined_makespan,
)
from .batch_lp import LPBatch, batch_lp_assembly
from .frontier import LazyFrontier
from .makespan import arrival_matrix, supports_model
from .periods import PeriodTracker
from .simulation import inorder_direct_run, supports_inorder_fast_path
from .spanning import SpanningOracle
from .tree import CompiledTree, compile_tree

__all__ = [
    "CompiledTree",
    "compile_tree",
    "EnsembleBatch",
    "LPBatch",
    "LazyFrontier",
    "PeriodTracker",
    "SpanningOracle",
    "arrival_matrix",
    "batch_arrival_matrices",
    "batch_inorder_simulation",
    "batch_lp_assembly",
    "batch_pipelined_makespan",
    "supports_model",
    "inorder_direct_run",
    "supports_inorder_fast_path",
]
