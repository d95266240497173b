"""Execution and caching infrastructure shared by the facade and the experiments.

This module holds the generic machinery introduced with the evaluation
pipeline (PR 1) in a dependency-free home so that both
:mod:`repro.api` (the :class:`~repro.api.Session` facade) and
:mod:`repro.experiments.pipeline` (the ensemble pipeline) can build on it
without importing each other:

* **Executors** — :class:`SerialExecutor` maps a function over work items
  in-process; the ``warm-pool`` backend (:mod:`repro.pool`, registered on
  first use) fans the same map out over persistent worker processes.  Both
  preserve item order, so the result stream is identical whichever
  executor runs it.
* **Supervision** — :class:`SupervisedExecutor` wraps either executor with
  per-task timeouts and bounded retries (exponential backoff,
  deterministic jitter — see :class:`RetryPolicy`).  On the warm pool a
  crashed worker is charged to its own task, the task is resubmitted while
  the pool's respawn budget lasts, and once the pool turns unhealthy the
  task's remaining attempts run in-process; finished items keep their
  order and values either way.  :meth:`SupervisedExecutor.map_outcomes`
  turns permanent failures into structured :class:`TaskFailure` records
  instead of exceptions, which is what ``--keep-going`` campaigns consume.
* **BoundedCache / ByteBudget** — thread-safe LRU mappings with entry and
  byte budgets plus hit/miss/eviction counters, the primitive behind every
  long-lived cache in the library (the session memos, the LP solution
  cache, the :class:`ResultCache` memory tier).  A :class:`ByteBudget` lets
  several caches share one byte ceiling with *global* least-recently-used
  eviction across all of them — the memory-pressure story of the solve
  service (ROADMAP item 1: unbounded caches are a blocker for any
  long-lived process).
* **ResultCache** — a two-level (in-memory + optional on-disk JSON) store
  of *row lists* keyed by caller-provided stable hashes.  The row type is
  pluggable through an ``encode`` / ``decode`` pair (JSON dictionaries by
  default).  Corrupted disk entries are quarantined (renamed to
  ``*.corrupt``) and treated as misses; an unwritable cache directory
  degrades the cache to memory-only with a single warning instead of
  aborting the campaign.  The memory tier can be bounded
  (``max_memory_entries`` / ``max_memory_bytes``): evicted rows fall back
  to the disk tier on the next lookup instead of growing the process
  without limit.
* **stable_key** — the canonical-JSON SHA-256 used to derive those keys.

Error-handling contract: every failure this module raises derives from
:class:`~repro.exceptions.ReproError` (``except ReproError`` catches
timeouts, crashed workers and invalid configurations alike); permanent
task failures surfaced as data use :class:`TaskFailure`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import sys
import tempfile
import threading
import time
import warnings
from collections import OrderedDict
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Protocol, Sequence, TypeVar

from .exceptions import (
    ConfigError,
    ExperimentError,
    HeuristicError,
    JobFailedError,
    PlatformError,
    SimulationError,
    TaskTimeoutError,
    TreeError,
    WorkerCrashError,
)

__all__ = [
    "TaskExecutor",
    "ExecutorBackend",
    "SerialExecutor",
    "SupervisedExecutor",
    "register_backend",
    "available_backends",
    "make_executor",
    "RetryPolicy",
    "is_retryable",
    "TaskFailure",
    "TaskOutcome",
    "BoundedCache",
    "ByteBudget",
    "approx_nbytes",
    "ResultCache",
    "stable_key",
]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Environment variable carrying an active fault-injection plan (see
#: :mod:`repro.faults`).  Environment variables propagate to worker
#: processes, so one ``inject_faults`` context covers the whole tree.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

_IDENTITY_REPR = re.compile(r" at 0x[0-9a-fA-F]+")


class _IdentityReprError(Exception):
    """Internal: ``stable_key`` met a value whose repr embeds ``id()``."""

    def __init__(self, value: Any, rendered: str) -> None:
        super().__init__(rendered)
        self.value = value
        self.rendered = rendered


def _repr_default(value: Any) -> str:
    rendered = repr(value)
    if _IDENTITY_REPR.search(rendered):
        raise _IdentityReprError(value, rendered)
    return rendered


def _find_identity_field(payload: Any, path: str = "$") -> tuple[str, str] | None:
    """Locate the first field whose repr embeds a memory address."""
    if isinstance(payload, Mapping):
        for key, value in payload.items():
            found = _find_identity_field(value, f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(payload, (list, tuple)):
        for index, value in enumerate(payload):
            found = _find_identity_field(value, f"{path}[{index}]")
            if found is not None:
                return found
        return None
    if isinstance(payload, (str, int, float, bool)) or payload is None:
        return None
    rendered = repr(payload)
    if _IDENTITY_REPR.search(rendered):
        return path, rendered
    return None


def stable_key(payload: Any) -> str:
    """SHA-256 of the canonical (sorted-keys) JSON rendering of ``payload``.

    Non-JSON values fall back to ``repr``, so any change in their printed
    form changes the key — exactly the conservative behaviour a cache wants.
    Values whose repr embeds their memory address (the default
    ``<... object at 0x...>`` form) are rejected with an
    :class:`~repro.exceptions.ExperimentError` naming the offending field:
    such keys would never match across processes, silently caching garbage.
    """
    try:
        canonical = json.dumps(payload, sort_keys=True, default=_repr_default)
    except _IdentityReprError as exc:
        found = _find_identity_field(payload)
        where, rendered = found if found is not None else ("$", exc.rendered)
        raise ExperimentError(
            f"stable_key: field {where} has an identity-based repr "
            f"({rendered!r}); its cache key would differ in every process — "
            f"provide a JSON-compatible value or a value-based repr"
        ) from None
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------------- #
class TaskExecutor(Protocol):
    """Order-preserving, lazily-consumable map over a work-item list."""

    jobs: int

    def map(
        self,
        function: Callable[[ItemT], ResultT],
        tasks: Sequence[ItemT],
    ) -> Iterable[ResultT]: ...


class SerialExecutor:
    """Evaluate work items one after the other in the calling process."""

    name = "serial"
    jobs = 1

    def map(
        self,
        function: Callable[[ItemT], ResultT],
        tasks: Sequence[ItemT],
    ) -> Iterator[ResultT]:
        # Lazy so callers can report progress as items complete.
        return (function(task) for task in tasks)

    def close(self) -> None:
        """Nothing to release (backend-protocol symmetry)."""


# --------------------------------------------------------------------------- #
# Pluggable backends
# --------------------------------------------------------------------------- #
class ExecutorBackend(Protocol):
    """What :func:`make_executor` produces: an executor with a lifecycle.

    Every :class:`TaskExecutor` qualifies once it carries a ``name`` and
    (possibly no-op) ``close``; backends that also expose the pool surface
    (``submit`` / ``abandon`` / ``healthy`` plus a true
    ``supervises_as_pool`` attribute) get per-future supervision from
    :class:`SupervisedExecutor` instead of the in-process fallback.
    """

    name: str
    jobs: int

    def map(
        self,
        function: Callable[[ItemT], ResultT],
        tasks: Sequence[ItemT],
    ) -> Iterable[ResultT]: ...

    def close(self) -> None: ...


_BACKEND_FACTORIES: dict[str, Callable[[int], Any]] = {}


def register_backend(name: str, factory: Callable[[int], Any]) -> None:
    """Register an executor ``factory`` (``jobs -> executor``) under ``name``.

    Later registrations replace earlier ones, so embedders can override the
    built-ins (``serial`` / ``warm-pool``).
    """
    _BACKEND_FACTORIES[str(name)] = factory


def available_backends() -> tuple[str, ...]:
    """Registered backend names (the warm pool registers on first use)."""
    _load_pool_backend()
    return tuple(sorted(_BACKEND_FACTORIES))


def _load_pool_backend() -> None:
    """Import :mod:`repro.pool` on demand (it registers ``warm-pool``).

    The import is deferred because :mod:`repro.pool` builds on this module;
    a top-level import here would be a cycle.
    """
    if "warm-pool" not in _BACKEND_FACTORIES:
        from . import pool  # noqa: F401  (import registers the backend)


def make_executor(backend: str | None = None, jobs: int = 1) -> Any:
    """Build the executor for ``jobs``-way parallelism.

    With ``backend=None`` (the default used by ``Session(jobs=...)`` and
    the pipeline) the choice is automatic: ``jobs == 1`` runs the batched
    serial path, ``jobs > 1`` the warm worker pool — except on single-CPU
    hosts, where a process pool is pure overhead, so the call warns once
    and falls back to the serial path instead of silently running slower
    than ``jobs=1``.  Naming a backend explicitly always honours it, single
    CPU or not (that is how the fallback itself is tested).
    """
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    if backend is None:
        if jobs == 1:
            return SerialExecutor()
        if (os.cpu_count() or 1) < 2:
            warnings.warn(
                f"jobs={jobs} requested but this host has a single CPU; "
                f"a worker pool would only add dispatch overhead — running "
                f"the batched serial path instead (pass an explicit "
                f"backend to force a pool)",
                RuntimeWarning,
                stacklevel=3,
            )
            return SerialExecutor()
        backend = "warm-pool"
    if backend == "warm-pool":
        _load_pool_backend()
    factory = _BACKEND_FACTORIES.get(backend)
    if factory is None:
        known = ", ".join(sorted(_BACKEND_FACTORIES)) or "none"
        raise ExperimentError(
            f"unknown executor backend {backend!r} (registered: {known})"
        )
    return factory(jobs)


register_backend("serial", lambda jobs: SerialExecutor())


# --------------------------------------------------------------------------- #
# Supervision
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryPolicy:
    """How a supervised task may fail before its failure becomes permanent.

    Parameters
    ----------
    retries:
        Additional attempts after the first one (so ``retries=2`` means up
        to three attempts).  ``0`` disables retrying.
    task_timeout:
        Per-attempt wall-clock budget in seconds; ``None`` disables the
        timeout.  The warm pool enforces it on the supervisor's wait for the
        task future; in-process execution runs the attempt on a watchdog
        thread (the timed-out attempt is abandoned, not interrupted, so
        supervised functions should be pure).
    backoff / backoff_factor / max_delay:
        Exponential backoff schedule between attempts:
        ``min(backoff * backoff_factor**n, max_delay)`` seconds after the
        ``n``-th failure, scaled by a deterministic jitter in ``[0.5, 1.0)``
        derived from the task label — identical runs sleep identically,
        while concurrent retriers of different tasks spread out.
    """

    retries: int = 2
    task_timeout: float | None = None
    backoff: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ExperimentError(f"retries must be >= 0, got {self.retries}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ExperimentError(
                f"task_timeout must be positive, got {self.task_timeout!r}"
            )
        if self.backoff < 0 or self.backoff_factor < 1.0 or self.max_delay < 0:
            raise ExperimentError(
                f"invalid backoff schedule: backoff={self.backoff!r}, "
                f"factor={self.backoff_factor!r}, max_delay={self.max_delay!r}"
            )

    @property
    def attempts(self) -> int:
        """Total attempt budget (first attempt plus retries)."""
        return self.retries + 1

    def delay(self, failed_attempts: int, token: str = "") -> float:
        """Seconds to sleep before the next attempt (deterministic jitter)."""
        base = min(
            self.backoff * self.backoff_factor ** max(failed_attempts, 0),
            self.max_delay,
        )
        digest = hashlib.sha256(
            f"{token}:{failed_attempts}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return base * (0.5 + 0.5 * fraction)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form (shipped to worker processes)."""
        return {
            "retries": self.retries,
            "task_timeout": self.task_timeout,
            "backoff": self.backoff,
            "backoff_factor": self.backoff_factor,
            "max_delay": self.max_delay,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RetryPolicy":
        """Rebuild from :meth:`to_dict` output."""
        return cls(**{name: data[name] for name in cls.__dataclass_fields__ if name in data})


#: Errors computed from the job alone: an invalid platform, tree or
#: configuration, a heuristic that cannot build, a schedule the simulator
#: rejects.  Another attempt fails identically, so they are never retried.
_MODEL_VERDICTS = (SimulationError, TreeError, HeuristicError, PlatformError, ConfigError)


def is_retryable(error: BaseException) -> bool:
    """Whether another attempt of a task that raised ``error`` could succeed.

    Model verdicts (see ``_MODEL_VERDICTS``) fail on their first attempt;
    everything else keeps the retry budget: injected faults, timeouts,
    worker crashes, LP failures and exceptions from outside the library.
    """
    return not isinstance(error, _MODEL_VERDICTS)


@dataclass(frozen=True)
class TaskFailure:
    """Structured, serializable record of one permanently-failed task."""

    label: str
    error_type: str
    message: str
    attempts: int

    def summary(self) -> str:
        """One-line human-readable form."""
        return (
            f"{self.label}: {self.error_type}: {self.message} "
            f"(after {self.attempts} attempt{'s' if self.attempts != 1 else ''})"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form."""
        return {
            "label": self.label,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaskFailure":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            label=str(data.get("label", "")),
            error_type=str(data.get("error_type", "Exception")),
            message=str(data.get("message", "")),
            attempts=int(data.get("attempts", 1)),
        )

    @classmethod
    def from_exception(
        cls, label: str, error: BaseException, attempts: int
    ) -> "TaskFailure":
        """Flatten an exception into a failure record."""
        return cls(
            label=label,
            error_type=type(error).__name__,
            message=str(error),
            attempts=attempts,
        )


@dataclass
class TaskOutcome:
    """What happened to one supervised task: a value or a failure record.

    ``exception`` carries the original exception object (for pool tasks,
    the copy pickled back from the worker, or the supervisor's
    :class:`~repro.exceptions.WorkerCrashError` / timeout).
    """

    index: int
    value: Any = None
    failure: TaskFailure | None = None
    exception: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def raise_if_failed(self) -> None:
        """Re-raise the original exception (or a :class:`JobFailedError`)."""
        if self.failure is None:
            return
        if self.exception is not None:
            raise self.exception
        raise JobFailedError(self.failure.summary(), self.failure)


def _call_with_timeout(
    function: Callable[[Any], Any], task: Any, timeout: float
) -> Any:
    """Run ``function(task)`` on a watchdog thread, bounded by ``timeout``.

    A timed-out attempt keeps running on its daemon thread until it returns
    (it cannot be interrupted); its eventual result is discarded.  This is
    the honest best-effort an in-process timeout can offer — supervised
    functions should be pure so an abandoned attempt has no side effects
    beyond warm caches.
    """
    box: list[tuple[str, Any]] = []

    def runner() -> None:
        try:
            box.append(("ok", function(task)))
        except BaseException as exc:  # ferried back to the caller below
            box.append(("err", exc))

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    thread.join(timeout)
    if not box and thread.is_alive():
        raise TaskTimeoutError(
            f"supervised task exceeded its {timeout:.3g}s timeout"
        )
    kind, payload = box[0]
    if kind == "err":
        raise payload
    return payload


def _run_attempt(
    function: Callable[[Any], Any],
    task: Any,
    label: str,
    attempt: int,
    timeout: float | None,
    fault_hook: bool = True,
) -> Any:
    """One supervised attempt: fault hook, then the call (maybe bounded).

    The fault hook runs *inside* the timed call, so an injected hang
    overruns the watchdog exactly like an organic one would.
    """
    hook_active = bool(fault_hook and os.environ.get(FAULT_PLAN_ENV))

    def attempt_call(item: Any) -> Any:
        if hook_active:
            from .faults import maybe_fail_task  # lazy: zero cost when inactive

            maybe_fail_task(label, attempt)
        return function(item)

    if timeout is None:
        return attempt_call(task)
    return _call_with_timeout(attempt_call, task, timeout)


class SupervisedExecutor:
    """Failure-isolating wrapper around any :class:`TaskExecutor`.

    :meth:`map` is a drop-in for the inner executor's ``map`` — same
    order-preserving value stream — except that transient failures are
    retried under the :class:`RetryPolicy` before the (original) exception
    propagates.  Model verdicts are not transient: they fail on the first
    attempt (see :func:`is_retryable`).  :meth:`map_outcomes` never raises: each task yields a
    :class:`TaskOutcome` holding either its value or a permanent
    :class:`TaskFailure` record, which is what ``--keep-going`` campaigns
    and ``solve_many(on_error="collect")`` consume.

    The warm pool additionally gets crash recovery: a crashed worker is
    charged to its own task, which is resubmitted while the pool's respawn
    budget lasts; once the pool is unhealthy the task's remaining attempts
    run in-process — finished items keep their order and values either
    way.

    ``labels`` name tasks in failure records and seed the deterministic
    retry jitter (and the fault-injection harness); they default to the
    task position.
    """

    def __init__(
        self,
        inner: TaskExecutor,
        policy: RetryPolicy | None = None,
        *,
        fault_hook: bool = True,
    ) -> None:
        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self.jobs = getattr(inner, "jobs", 1)
        self._fault_hook = fault_hook

    # ------------------------------------------------------------------ #
    def map(
        self,
        function: Callable[[ItemT], ResultT],
        tasks: Sequence[ItemT],
        *,
        labels: Sequence[str] | None = None,
    ) -> Iterator[ResultT]:
        """Value stream; permanent failures re-raise their original exception."""

        def stream() -> Iterator[ResultT]:
            for outcome in self.map_outcomes(function, tasks, labels=labels):
                outcome.raise_if_failed()
                yield outcome.value

        return stream()

    def map_outcomes(
        self,
        function: Callable[[ItemT], ResultT],
        tasks: Sequence[ItemT],
        *,
        labels: Sequence[str] | None = None,
    ) -> Iterator[TaskOutcome]:
        """Outcome stream in task order; never raises for task failures."""
        items = list(tasks)
        if labels is None:
            names = [f"task-{index}" for index in range(len(items))]
        else:
            names = [str(label) for label in labels]
            if len(names) != len(items):
                raise ExperimentError(
                    f"labels ({len(names)}) must match tasks ({len(items)})"
                )
        if not items:
            return iter(())
        # Persistent pools advertise their own supervision surface
        # (submit/abandon/healthy); tasks stay on the warm workers across
        # retries instead of degrading in-process on the first hiccup.
        if getattr(self.inner, "supervises_as_pool", False):
            return self._pool_outcomes(function, items, names)
        return self._inprocess_outcomes(function, items, names)

    # ------------------------------------------------------------------ #
    def _attempt_loop(
        self,
        index: int,
        function: Callable[[Any], Any],
        task: Any,
        label: str,
        start_attempt: int,
        prior: BaseException | None,
    ) -> TaskOutcome:
        """Run attempts ``start_attempt..retries`` in-process; never raises.

        A model verdict ends the loop at once (see :func:`is_retryable`).
        """
        policy = self.policy
        last = prior
        used = start_attempt
        for attempt in range(start_attempt, policy.retries + 1):
            if attempt > 0:
                time.sleep(policy.delay(attempt - 1, label))
            try:
                value = _run_attempt(
                    function, task, label, attempt, policy.task_timeout,
                    self._fault_hook,
                )
                return TaskOutcome(index, value=value)
            except Exception as exc:
                last = exc
                used = attempt + 1
                if not is_retryable(exc):
                    break
        assert last is not None
        return TaskOutcome(
            index,
            failure=TaskFailure.from_exception(label, last, max(used, 1)),
            exception=last,
        )

    def _inprocess_outcomes(
        self,
        function: Callable[[Any], Any],
        tasks: list[Any],
        labels: list[str],
    ) -> Iterator[TaskOutcome]:
        policy = self.policy

        def guarded(pair: tuple[int, Any]) -> TaskOutcome:
            index, task = pair
            try:
                value = _run_attempt(
                    function, task, labels[index], 0, policy.task_timeout,
                    self._fault_hook,
                )
                return TaskOutcome(index, value=value)
            except Exception as exc:
                return TaskOutcome(
                    index,
                    failure=TaskFailure.from_exception(labels[index], exc, 1),
                    exception=exc,
                )

        # The first attempt of every task flows through the inner executor
        # (keeping custom in-process executors on their own code path);
        # retries are the exceptional path and run here, serially.
        for outcome in self.inner.map(guarded, list(enumerate(tasks))):
            if outcome.ok or policy.retries == 0 or not is_retryable(outcome.exception):
                yield outcome
                continue
            yield self._attempt_loop(
                outcome.index,
                function,
                tasks[outcome.index],
                labels[outcome.index],
                1,
                outcome.exception,
            )

    def _pool_outcomes(
        self,
        function: Callable[[Any], Any],
        tasks: list[Any],
        labels: list[str],
    ) -> Iterator[TaskOutcome]:
        """Supervise a persistent pool through its own submission surface.

        All tasks are submitted upfront (the pool keeps its workers busy);
        outcomes are consumed in task order.  A crashed worker charges the
        crash to its task and the task is *resubmitted to the pool* while
        attempts and pool health allow; there is no whole-pool respawn,
        because slots respawn individually inside the pool.  Timeouts put
        the hung worker down via ``abandon`` (freeing the slot) and finish
        the task's remaining attempts in-process, as do organic failures:
        a retry resubmitted behind busy workers would have its queue
        *wait*, not its work, counted against the timeout.
        """
        policy = self.policy
        pool = self.inner
        total = len(tasks)
        attempts = [0] * total
        futures: dict[int, Any] = {}

        def submit(index: int) -> None:
            futures[index] = pool.submit(
                function,
                tasks[index],
                label=labels[index],
                attempt=attempts[index],
                fault_hook=self._fault_hook,
            )

        for index in range(total):
            submit(index)
        for index in range(total):
            while True:
                try:
                    value = futures[index].result(timeout=policy.task_timeout)
                    yield TaskOutcome(index, value=value)
                    break
                except _FuturesTimeout:
                    attempts[index] += 1
                    error: BaseException = TaskTimeoutError(
                        f"supervised task {labels[index]!r} exceeded its "
                        f"{policy.task_timeout:.3g}s timeout "
                        f"(attempt {attempts[index]})"
                    )
                    # The attempt is still occupying a worker: put that
                    # worker down so the slot frees up (it respawns lazily).
                    pool.abandon(futures[index])
                except WorkerCrashError as exc:
                    attempts[index] += 1
                    error = exc
                    if attempts[index] <= policy.retries and pool.healthy:
                        time.sleep(
                            policy.delay(attempts[index] - 1, labels[index])
                        )
                        submit(index)
                        continue
                except Exception as exc:
                    attempts[index] += 1
                    error = exc
                # Timeout, organic failure, or an unhealthy pool: remaining
                # attempts run in-process (degradation semantics).
                if attempts[index] <= policy.retries and is_retryable(error):
                    yield self._attempt_loop(
                        index, function, tasks[index], labels[index],
                        attempts[index], error,
                    )
                else:
                    yield TaskOutcome(
                        index,
                        failure=TaskFailure.from_exception(
                            labels[index], error, attempts[index]
                        ),
                        exception=error,
                    )
                break


# --------------------------------------------------------------------------- #
# Bounded caches
# --------------------------------------------------------------------------- #
def approx_nbytes(value: Any, max_depth: int = 4) -> int:
    """Best-effort byte footprint of ``value`` for cache budgeting.

    Exact where it matters — anything exposing an integer ``nbytes``
    (NumPy arrays, compiled platform/tree views) reports that — and a
    bounded-depth ``sys.getsizeof`` walk everywhere else: builtin
    containers recurse into their elements, arbitrary objects into their
    ``__dict__``, with an id-based guard against cycles and shared
    sub-objects.  The result is an *estimate* (attribute slots, interned
    strings and sharing across entries are approximated), which is exactly
    what an eviction budget needs: stable, cheap, and roughly proportional
    to the real footprint.
    """
    seen: set[int] = set()

    def walk(item: Any, depth: int) -> int:
        nbytes = getattr(item, "nbytes", None)
        if isinstance(nbytes, int) and not isinstance(item, (bool, int)):
            return nbytes + 64  # array payload plus object overhead
        if isinstance(item, (int, float, bool, complex)) or item is None:
            return sys.getsizeof(item)
        if isinstance(item, (str, bytes, bytearray)):
            return sys.getsizeof(item)
        if id(item) in seen or depth <= 0:
            return sys.getsizeof(item) if depth <= 0 and id(item) not in seen else 0
        seen.add(id(item))
        total = sys.getsizeof(item)
        if isinstance(item, Mapping):
            for key, value_ in item.items():
                total += walk(key, depth - 1) + walk(value_, depth - 1)
            return total
        if isinstance(item, (list, tuple, set, frozenset)):
            for value_ in item:
                total += walk(value_, depth - 1)
            return total
        attributes = getattr(item, "__dict__", None)
        if isinstance(attributes, dict):
            total += walk(attributes, depth - 1)
        return total

    return walk(value, max_depth)


class ByteBudget:
    """One byte ceiling shared by several :class:`BoundedCache` members.

    Member caches charge their entries against the shared total; whenever
    the total exceeds ``max_bytes``, the budget evicts the *globally*
    least-recently-used entry across every member (each touch stamps a
    monotonic clock) until the total fits again.  All members share the
    budget's re-entrant lock, so charging, touching and rebalancing are
    mutually consistent under concurrent requests — the locking story of
    the long-lived solve service.

    ``max_bytes=None`` disables the ceiling (the budget still aggregates
    byte totals for introspection).
    """

    def __init__(self, max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ExperimentError(f"max_bytes must be positive, got {max_bytes!r}")
        self.max_bytes = max_bytes
        self.lock = threading.RLock()
        self._members: list["BoundedCache"] = []
        self._clock = 0

    def register(self, cache: "BoundedCache") -> None:
        """Add ``cache`` to the member set (done by the cache constructor)."""
        with self.lock:
            self._members.append(cache)

    def tick(self) -> int:
        """Next value of the shared recency clock."""
        self._clock += 1
        return self._clock

    @property
    def total_bytes(self) -> int:
        """Current charged bytes across every member cache."""
        with self.lock:
            return sum(member.current_bytes for member in self._members)

    @property
    def total_evictions(self) -> int:
        """Evictions performed across every member cache."""
        with self.lock:
            return sum(member.evictions for member in self._members)

    def rebalance(self) -> None:
        """Evict globally-oldest entries until the total fits the ceiling.

        An entry bigger than the whole ceiling is kept once it is the only
        thing left to evict — a cache must be able to hold the item it was
        just asked to hold; the budget converges to "that entry alone".
        """
        if self.max_bytes is None:
            return
        with self.lock:
            while self.total_bytes > self.max_bytes:
                if sum(len(member) for member in self._members) <= 1:
                    break  # the single remaining entry is the overage
                oldest: "BoundedCache | None" = None
                oldest_tick = 0
                for member in self._members:
                    tick = member._oldest_tick()
                    if tick is None:
                        continue
                    if oldest is None or tick < oldest_tick:
                        oldest, oldest_tick = member, tick
                if oldest is None:
                    break
                oldest._evict_one()


class BoundedCache:
    """Thread-safe LRU mapping with entry/byte budgets and usage counters.

    A drop-in replacement for the plain dictionaries behind the library's
    long-lived memo caches: ``get`` / ``__getitem__`` / ``__setitem__`` /
    ``__contains__`` / ``pop`` / ``clear`` / ``len`` / ``values`` behave
    like ``dict`` (with ``get`` and ``__getitem__`` refreshing recency),
    while every insert enforces the budgets by evicting the
    least-recently-used entries and counts hits, misses and evictions for
    :meth:`stats`.

    Parameters
    ----------
    max_entries:
        Entry-count ceiling; ``None`` disables it.
    max_bytes:
        Byte ceiling over the ``sizeof`` estimates of the stored values;
        ``None`` disables it.  Ignored when ``budget`` is given (the shared
        budget governs bytes then).
    sizeof:
        Value-size estimator; defaults to :func:`approx_nbytes`.  Sizes are
        sampled at insert time — values mutated in place afterwards keep
        their recorded charge.
    budget:
        Optional shared :class:`ByteBudget`; the cache registers itself and
        uses the budget's lock, so several caches can be evicted against
        one global ceiling.
    name:
        Diagnostic label surfaced by :meth:`stats`.
    """

    def __init__(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        *,
        sizeof: Callable[[Any], int] | None = None,
        budget: ByteBudget | None = None,
        name: str = "cache",
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ExperimentError(
                f"max_entries must be positive, got {max_entries!r}"
            )
        if max_bytes is not None and max_bytes <= 0:
            raise ExperimentError(f"max_bytes must be positive, got {max_bytes!r}")
        self.name = name
        self.max_entries = max_entries
        self.max_bytes = None if budget is not None else max_bytes
        self._sizeof = sizeof if sizeof is not None else approx_nbytes
        self._budget = budget
        self._lock = budget.lock if budget is not None else threading.RLock()
        # key -> [value, nbytes, tick]; insertion/touch order is LRU order.
        self._entries: "OrderedDict[Any, list[Any]]" = OrderedDict()
        self._clock = 0
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if budget is not None:
            budget.register(self)

    # ------------------------------------------------------------------ #
    def _tick(self) -> int:
        if self._budget is not None:
            return self._budget.tick()
        self._clock += 1
        return self._clock

    def _oldest_tick(self) -> int | None:
        """Recency stamp of the least-recently-used entry (budget hook)."""
        if not self._entries:
            return None
        return next(iter(self._entries.values()))[2]

    def _evict_one(self) -> None:
        """Drop the least-recently-used entry (callers hold the lock)."""
        _, entry = self._entries.popitem(last=False)
        self.current_bytes -= entry[1]
        self.evictions += 1

    def _shrink(self) -> None:
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._evict_one()
        if self.max_bytes is not None:
            while self.current_bytes > self.max_bytes and len(self._entries) > 1:
                self._evict_one()

    # ------------------------------------------------------------------ #
    _MISSING = object()

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return default
            self.hits += 1
            entry[2] = self._tick()
            self._entries.move_to_end(key)
            return entry[0]

    def __getitem__(self, key: Any) -> Any:
        value = self.get(key, self._MISSING)
        if value is self._MISSING:
            raise KeyError(key)
        return value

    def __setitem__(self, key: Any, value: Any) -> None:
        nbytes = max(int(self._sizeof(value)), 0)
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.current_bytes -= previous[1]
            self._entries[key] = [value, nbytes, self._tick()]
            self.current_bytes += nbytes
            self._shrink()
            if self._budget is not None:
                self._budget.rebalance()

    put = __setitem__

    def __contains__(self, key: Any) -> bool:
        # Membership does not refresh recency and is not counted: the
        # idiomatic ``if key in cache: cache[key]`` pair must count one hit.
        with self._lock:
            return key in self._entries

    def setdefault(self, key: Any, default: Any) -> Any:
        with self._lock:
            value = self.get(key, self._MISSING)
            if value is self._MISSING:
                self[key] = default
                return default
            return value

    def pop(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return default
            self.current_bytes -= entry[1]
            return entry[0]

    def clear(self) -> None:
        """Drop every entry (usage counters are kept — they describe the run)."""
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[Any]:
        with self._lock:
            return list(self._entries)

    def values(self) -> list[Any]:
        with self._lock:
            return [entry[0] for entry in self._entries.values()]

    def items(self) -> list[tuple[Any, Any]]:
        with self._lock:
            return [(key, entry[0]) for key, entry in self._entries.items()]

    def stats(self) -> dict[str, Any]:
        """Usage snapshot: entries / bytes / hits / misses / evictions."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.current_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "max_entries": self.max_entries,
                "max_bytes": (
                    self._budget.max_bytes
                    if self._budget is not None
                    else self.max_bytes
                ),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BoundedCache({self.name}, entries={len(self._entries)}, "
            f"bytes={self.current_bytes})"
        )


# --------------------------------------------------------------------------- #
# Cache
# --------------------------------------------------------------------------- #
class ResultCache:
    """Two-level row-list cache: in-memory dict plus optional on-disk JSON.

    The memory level returns the *same list object* for repeated lookups in
    one process; the disk level survives across processes.  Disk entries
    embed their key, the library version and the encoded rows; anything
    unreadable — truncated JSON, missing fields, a key mismatch — is
    quarantined (renamed to ``*.corrupt`` so it is never re-read and
    re-parsed on the next process start) and treated as a miss.  Entries
    written by another library version are a plain miss.  A cache directory
    that turns out to be unwritable degrades the cache to memory-only with
    a single :class:`RuntimeWarning` instead of crashing the campaign.

    Parameters
    ----------
    cache_dir:
        Optional directory for the on-disk level.
    memory:
        Pre-existing dictionary (or :class:`BoundedCache`) to use as the
        in-memory level (lets several caches share one process-wide store).
    encode / decode:
        Row codec for the disk level; the defaults pass JSON-compatible
        dictionaries through unchanged.  The experiments pipeline plugs in
        the :class:`~repro.experiments.evaluation.EvaluationRecord` codec.
    prefix:
        File-name prefix of the disk entries (``<prefix>-<key>.json``).
    max_memory_entries / max_memory_bytes:
        Budgets for the in-memory level (a :class:`BoundedCache` is created
        to hold it).  Evicted rows are *not* lost when a disk level is
        configured — the next lookup re-reads them from disk; with no disk
        level they are recomputed.  Mutually exclusive with ``memory``.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike[str] | None = None,
        *,
        memory: "dict[str, list[Any]] | BoundedCache | None" = None,
        encode: Callable[[Any], dict[str, Any]] | None = None,
        decode: Callable[[dict[str, Any]], Any] | None = None,
        prefix: str = "ensemble",
        version: str = "",
        max_memory_entries: int | None = None,
        max_memory_bytes: int | None = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None and self.cache_dir.exists() and not self.cache_dir.is_dir():
            raise ExperimentError(
                f"cache_dir {str(self.cache_dir)!r} exists and is not a directory"
            )
        bounded = max_memory_entries is not None or max_memory_bytes is not None
        if memory is not None and bounded:
            raise ExperimentError(
                "pass either a shared `memory` store or memory budgets, not both"
            )
        if memory is not None:
            self._memory: "dict[str, list[Any]] | BoundedCache" = memory
        elif bounded:
            self._memory = BoundedCache(
                max_memory_entries, max_memory_bytes, name=f"{prefix}-memory"
            )
        else:
            self._memory = {}
        self._encode = encode if encode is not None else dict
        self._decode = decode if decode is not None else dict
        self._prefix = prefix
        self._version = version
        self._disk_disabled = False

    # ------------------------------------------------------------------ #
    def _path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{self._prefix}-{key}.json"

    @property
    def disk_active(self) -> bool:
        """Whether the on-disk level is configured and still writable."""
        return self.cache_dir is not None and not self._disk_disabled

    def _disable_disk(self, error: OSError) -> None:
        """Degrade to memory-only after a disk failure (warn exactly once)."""
        if self._disk_disabled:
            return
        self._disk_disabled = True
        warnings.warn(
            f"result cache directory {str(self.cache_dir)!r} is not writable "
            f"({error}); continuing with the in-memory level only — results "
            f"of this run will not be persisted",
            RuntimeWarning,
            stacklevel=4,
        )

    def _quarantine(self, path: Path) -> None:
        """Move a corrupted disk entry aside so it is never re-parsed."""
        with contextlib.suppress(OSError):
            os.replace(path, path.with_suffix(".corrupt"))

    def get(self, key: str) -> list[Any] | None:
        """Cached rows for ``key``, or ``None`` on a miss.

        A memory hit still writes through to an absent disk entry, so a
        caller that adds ``cache_dir`` after the rows were computed
        in-process gets them persisted rather than silently dropped.
        """
        rows = self._memory.get(key)
        if rows is not None:
            if self.disk_active and not self._path(key).exists():
                self._write_disk(key, rows)
            return rows
        if not self.disk_active:
            return None
        path = self._path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None  # plain miss: no entry (or unreadable directory)
        if os.environ.get(FAULT_PLAN_ENV):
            from .faults import maybe_corrupt_cache_text  # lazy, see above

            text = maybe_corrupt_cache_text(key, text)
        try:
            payload = json.loads(text)
            if payload["key"] != key:
                # The content disagrees with the file name: corruption.
                self._quarantine(path)
                return None
            if payload.get("version", "") != self._version:
                # A valid entry from another library version: just a miss
                # (a current-version write will replace it).
                return None
            rows = [self._decode(row) for row in payload["records"]]
        except (ValueError, KeyError, TypeError):
            # Truncated / malformed entry: quarantine and recompute.
            self._quarantine(path)
            return None
        self._memory[key] = rows
        return rows

    def put(self, key: str, rows: list[Any]) -> None:
        """Store ``rows`` in memory and (atomically) on disk."""
        self._memory[key] = rows
        if self.disk_active:
            self._write_disk(key, rows)

    def _write_disk(self, key: str, rows: list[Any]) -> None:
        assert self.cache_dir is not None
        payload = {
            "key": key,
            "version": self._version,
            "records": [self._encode(row) for row in rows],
        }
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            # Unique temp name per writer: concurrent processes computing the
            # same key must not trample each other's rename source.
            descriptor, temporary = tempfile.mkstemp(
                dir=self.cache_dir, prefix=f"{self._prefix}-{key}.", suffix=".tmp"
            )
        except OSError as error:
            # Read-only or vanished directory: keep the campaign alive on
            # the memory level alone.
            self._disable_disk(error)
            return
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(payload))
            os.replace(temporary, self._path(key))
        except OSError as error:
            with contextlib.suppress(OSError):
                os.unlink(temporary)
            self._disable_disk(error)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temporary)
            raise

    def clear_memory(self) -> None:
        """Drop the in-memory level (disk entries are kept)."""
        self._memory.clear()

    def memory_stats(self) -> dict[str, Any]:
        """Usage snapshot of the in-memory level.

        Bounded memory tiers report the full :meth:`BoundedCache.stats`
        block; unbounded ones report entry count only (byte accounting is
        not maintained for plain dictionaries).
        """
        if isinstance(self._memory, BoundedCache):
            return self._memory.stats()
        return {"entries": len(self._memory)}

    def __len__(self) -> int:
        return len(self._memory)
