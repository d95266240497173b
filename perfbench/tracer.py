"""Outside-in layer tracing for the benchmark's traced passes.

The program has no span instrument of its own yet, so this module records
spans from the benchmark's side: it replaces, for the length of one pass,
the public functions the facade resolves at call time (module globals and
class attributes) with wrappers that time each call.  Nothing under
``src/`` changes; :meth:`Tracer.restore` puts every original back.

Each wrapper pushes a frame on a per-thread stack.  When a call ends its
duration is charged to the enclosing frame, so a layer's *self* time is
its span minus the spans nested in it (the ``lp.solve`` inside a
``dynamics.epoch_bound``, say), and the self times of all layers plus
``api.other_s`` add up to the wall time of the pass.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: Per-layer time metrics (self seconds) in report order.
LAYER_SPANS = (
    "lp.solve",
    "lp.assemble",
    "platform.compile",
    "platform.build",
    "core.build",
    "analysis.throughput",
    "analysis.makespan",
    "simulation.engine",
    "kernels.batch",
    "dynamics.trace",
    "dynamics.replay",
    "dynamics.epoch_bound",
)

#: Root span of a traced server: its inclusive time is the wall time of
#: the work, since a server between requests is idle, not busy.
ROOT = "api"


class Tracer:
    """Span recorder: self/inclusive seconds, call counts and counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------ #
    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span named ``name``; ``after`` sees each result."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            frame = [0.0]  # time spent in nested spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    self.incl_s[name] += elapsed
                    self.self_s[name] += elapsed - frame[0]
                    self.calls[name] += 1
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.timed(name, raw.__func__, after))
        else:
            wrapped = self.timed(name, raw, after)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every patched attribute back (reverse order)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------ #
    def install(self) -> "Tracer":
        """Wrap every layer boundary the benchmark measures."""
        import repro.api.session as session
        import repro.dynamics as dynamics
        import repro.dynamics.adaptive as adaptive
        import repro.kernels.batch as batch
        import repro.lp.solver as solver
        from repro.api.job import PlatformRecipe
        from repro.platform.graph import Platform

        def lp_size(tracer: Tracer, args: tuple, data: Any) -> None:
            tracer.count("lp.nnz", data.a_ub.nnz + data.a_eq.nnz)
            tracer.count("lp.cols", len(data.objective))

        def ensemble_size(tracer: Tracer, args: tuple, ensemble: Any) -> None:
            tracer.count("kernels.batched_items", len(args[1]))

        def window_events(tracer: Tracer, args: tuple, events: int) -> None:
            tracer.count("dynamics.events", events)

        self.patch(solver, "solve_collective_lp", "lp.solve")
        self.patch(solver, "build_collective_lp", "lp.assemble", lp_size)
        self.patch(PlatformRecipe, "build", "platform.build")
        for attr, name in (
            ("build_collective_tree", "core.build"),
            ("collective_throughput", "analysis.throughput"),
            ("pipelined_makespan", "analysis.makespan"),
            ("simulate_collective", "simulation.engine"),
        ):
            self.patch(session, attr, name)
        self.patch(adaptive, "build_epoch_tree", "core.build")
        self.patch(batch.EnsembleBatch, "from_trees", "kernels.batch", ensemble_size)
        self.patch(batch, "batch_inorder_simulation", "kernels.batch")
        self.patch(batch, "batch_pipelined_makespan", "kernels.batch")
        self.patch(dynamics, "generate_trace", "dynamics.trace")
        self.patch(dynamics.TraceReplayer, "apply_next_window", "dynamics.replay", window_events)
        self.patch(adaptive, "epoch_bound", "dynamics.epoch_bound")

        # Platform.compiled is called on every hot path and is a dict hit
        # almost always: only the calls that actually compile get a span.
        compiled = Platform.__dict__["compiled"]
        traced = self.timed("platform.compile", compiled)

        @functools.wraps(compiled)
        def compiled_on_miss(platform: Any, size: Any = None) -> Any:
            key = platform.slice_size if size is None else float(size)
            if key in getattr(platform, "_compiled_cache", ()):
                return compiled(platform, size)
            return traced(platform, size)

        Platform.compiled = compiled_on_miss
        self._patches.append((Platform, "compiled", compiled))
        return self

    # ------------------------------------------------------------------ #
    def totals(self) -> dict[str, dict[str, float]]:
        """Cumulative span totals, JSON-ready (see :meth:`since`)."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    @classmethod
    def since(cls, before: dict[str, dict[str, float]], after: dict[str, dict[str, float]]) -> "Tracer":
        """A tracer holding what was recorded between two :meth:`totals`."""
        tracer = cls()
        for field, target in (
            ("self_s", tracer.self_s),
            ("incl_s", tracer.incl_s),
            ("calls", tracer.calls),
            ("counts", tracer.counts),
        ):
            for name, value in after[field].items():
                target[name] = value - before[field].get(name, 0)
        return tracer

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Self seconds per layer, span counts, ``api.other_s``."""
        metrics = {f"{name}_s": self.self_s.get(name, 0.0) for name in LAYER_SPANS}
        solves = self.calls.get("lp.assemble", 0)
        metrics["lp.solves"] = float(self.calls.get("lp.solve", 0))
        metrics["lp.nnz_mean"] = self.counts["lp.nnz"] / solves if solves else 0.0
        metrics["lp.cols_mean"] = self.counts["lp.cols"] / solves if solves else 0.0
        metrics["platform.compiles"] = float(self.calls.get("platform.compile", 0))
        metrics["core.trees"] = float(self.calls.get("core.build", 0))
        metrics["simulation.engine_calls"] = float(self.calls.get("simulation.engine", 0))
        metrics["dynamics.events"] = self.counts["dynamics.events"]
        metrics["dynamics.epoch_bound_incl_s"] = self.incl_s.get("dynamics.epoch_bound", 0.0)
        metrics["api.other_s"] = wall_s - self.layers_s()
        return metrics

    def layers_s(self) -> float:
        """Self seconds of every named layer (the ``api`` root excluded)."""
        return sum(s for name, s in self.self_s.items() if name != ROOT)

    def table(self, wall_s: float) -> list[str]:
        """Human-readable self/inclusive breakdown, largest self time first."""
        lines = [f"{'layer':<22}{'calls':>8}{'self_s':>10}{'share':>8}{'incl_s':>10}"]
        rows = sorted(
            (item for item in self.self_s.items() if item[0] != ROOT),
            key=lambda item: -item[1],
        )
        other = wall_s - self.layers_s()
        for name, seconds in rows + [("api.other", other)]:
            share = seconds / wall_s if wall_s > 0 else 0.0
            incl = self.incl_s.get(name, seconds)
            lines.append(
                f"{name:<22}{self.calls.get(name, 0):>8}{seconds:>10.3f}"
                f"{share:>8.1%}{incl:>10.3f}"
            )
        return lines
