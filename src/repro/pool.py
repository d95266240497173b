"""Persistent warm worker pool: long-lived processes with warm sessions.

:class:`WarmPoolExecutor` is the library's one multi-process backend
(``warm-pool``).  A fresh process pool per ``map`` call would pay worker
start-up for every batch *and* re-prime every worker-local cache
(platforms, compiled CSR views, LP solutions) from nothing; this pool
does neither:

* **Long-lived workers.**  ``jobs`` worker processes are spawned lazily
  and survive across ``map``/``submit`` calls.  A worker's module globals
  — in particular the warm :class:`~repro.api.Session` created by
  :func:`repro.api.session._solve_job_group_warm` — persist, so the second
  batch touching a platform pays neither process start-up nor LP re-derive.
* **Thread-per-worker supervision.**  Each worker is owned by one parent
  thread holding its duplex pipe: submit → send → blocking ``recv``.
  A broken pipe *is* the crash signal (no polling), the current task's
  future fails with :class:`~repro.exceptions.WorkerCrashError`, and the
  slot respawns its worker within a bounded budget.  One in-flight task
  per worker also means no correlation protocol.
* **Shared platform arrays.**  The pool carries a
  :class:`~repro.shm.SharedSegmentRegistry`; callers (the session facade)
  publish compiled platform arrays once and workers attach read-only
  views — see :mod:`repro.shm` for the lifecycle contract that keeps
  ``/dev/shm`` clean across crashes.
* **Fault plans travel per task.**  Environment variables only propagate
  at spawn time, and warm workers usually pre-date the ``inject_faults``
  context, so :meth:`WarmPoolExecutor.submit` snapshots the plan text and
  the worker applies it to its own environment before each attempt.

Supervision (retries, timeouts, degradation) stays in
:class:`~repro.runtime.SupervisedExecutor`, which recognises this class by
its ``supervises_as_pool`` marker and drives :meth:`submit` /
:meth:`abandon` / :attr:`healthy` directly.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import threading
import time
import weakref
from concurrent.futures import Future
from typing import Any, Callable, Iterator, Sequence

from .exceptions import ExperimentError, WorkerCrashError
from .runtime import FAULT_PLAN_ENV, _run_attempt, register_backend
from .shm import SharedSegmentRegistry

__all__ = ["WarmPoolExecutor"]

_STOP = object()  # serving-thread shutdown sentinel


def _echo_probe(value: Any) -> Any:
    """Round-trip probe used to warm up workers and test the pool."""
    return value


def _crash_probe(value: Any) -> Any:
    """Kill the worker mid-task (tests and benchmarks of the crash path)."""
    os._exit(int(value) if value else 1)


def _sleep_probe(seconds: float) -> float:
    """Occupy a worker for ``seconds`` (timeout-path tests)."""
    time.sleep(float(seconds))
    return float(seconds)


def _worker_main(connection: Any, worker_id: int) -> None:
    """Worker process loop: apply the task's fault plan, run it, reply.

    Replies are ``("ok", value)`` or ``("err", exception)``; an unpicklable
    value or exception is flattened to an :class:`ExperimentError` so the
    pipe never desynchronises.  Crash faults (``os._exit``) and signals are
    deliberately *not* caught — a dead worker is the parent's crash signal.
    """
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):  # parent went away
            return
        if message[0] == "stop":
            connection.close()
            return
        _, function, task, label, attempt, fault_hook, plan_text = message
        if plan_text is None:
            os.environ.pop(FAULT_PLAN_ENV, None)
        else:
            os.environ[FAULT_PLAN_ENV] = plan_text
        try:
            value = _run_attempt(function, task, label, attempt, None, fault_hook)
            reply = ("ok", value)
        except Exception as exc:
            reply = ("err", exc)
        try:
            pickle.dumps(reply[1])
        except Exception as exc:
            reply = (
                "err",
                ExperimentError(
                    f"warm-pool task {label!r} produced an unpicklable "
                    f"{reply[0] == 'ok' and 'result' or 'error'}: {exc}"
                ),
            )
        try:
            connection.send(reply)
        except (EOFError, OSError, BrokenPipeError):
            return


class _Slot:
    """One worker seat: its process, pipe, and the task it is running."""

    __slots__ = ("index", "lock", "process", "connection", "current", "spawned")

    def __init__(self, index: int) -> None:
        self.index = index
        self.lock = threading.Lock()
        self.process: multiprocessing.process.BaseProcess | None = None
        self.connection: Any = None
        self.current: Future | None = None
        self.spawned = False  # ever held a worker (respawn vs first spawn)


def _terminate_slot(slot: _Slot, grace: float = 1.0) -> None:
    """Tear one worker down hard (close pipe first so recv unblocks)."""
    with slot.lock:
        process, connection = slot.process, slot.connection
        slot.process, slot.connection = None, None
    if connection is not None:
        try:
            connection.close()
        except OSError:
            pass
    if process is not None and process.is_alive():
        process.terminate()
        process.join(grace)
        if process.is_alive():  # pragma: no cover - stuck in kernel
            process.kill()
            process.join(grace)


def _finalize_pool(slots: list[_Slot], registry: SharedSegmentRegistry) -> None:
    """GC / interpreter-exit backstop: no orphan workers, no leaked segments."""
    for slot in slots:
        _terminate_slot(slot, grace=0.2)
    registry.close()


class WarmPoolExecutor:
    """Order-preserving executor over persistent warm worker processes.

    Satisfies the :class:`~repro.runtime.TaskExecutor` protocol (``jobs``
    attribute plus :meth:`map`) and additionally the pool-supervision
    surface the ``supervises_as_pool`` marker promises: :meth:`submit`
    returning a :class:`~concurrent.futures.Future` per task,
    :meth:`abandon` to put down a hung worker, and :attr:`healthy` to
    decide between resubmission and degradation.

    Parameters
    ----------
    jobs:
        Number of worker processes (and serving threads).
    max_respawns:
        Pool-wide budget of worker *re*-spawns after crashes; the initial
        spawns are free.  Defaults to ``max(4, 2 * jobs)``.  An exhausted
        budget fails subsequent tasks with :class:`WorkerCrashError`, which
        the supervisor turns into in-process degradation.
    start_method:
        ``multiprocessing`` start method.  The default ``spawn`` is crash-
        isolated and thread-safe; its cost is paid once per worker
        lifetime, which is the entire point of keeping workers warm.
    registry:
        Optional shared-segment registry to adopt (owned either way: the
        pool closes it on shutdown).
    """

    name = "warm-pool"
    #: SupervisedExecutor duck-types on this to drive submit/abandon/healthy.
    supervises_as_pool = True

    def __init__(
        self,
        jobs: int,
        *,
        max_respawns: int | None = None,
        start_method: str = "spawn",
        registry: SharedSegmentRegistry | None = None,
    ) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.max_respawns = (
            max(4, 2 * jobs) if max_respawns is None else max_respawns
        )
        self.registry = registry if registry is not None else SharedSegmentRegistry()
        self._context = multiprocessing.get_context(start_method)
        self._tasks: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._closed = False
        self._slots = [_Slot(index) for index in range(jobs)]
        self._threads: list[threading.Thread] = []
        self.spawns = 0
        self.respawns = 0
        self.crashes = 0
        self.completed = 0
        self.failed = 0
        self._finalizer = weakref.finalize(
            self, _finalize_pool, self._slots, self.registry
        )

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _spawn_worker(self, slot: _Slot) -> None:
        """Start a fresh worker in ``slot`` (serving thread only)."""
        parent_end, child_end = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(child_end, slot.index),
            name=f"repro-warm-{slot.index}",
            daemon=True,
        )
        process.start()
        child_end.close()  # the worker holds the only child-side handle now
        with slot.lock:
            slot.process, slot.connection = process, parent_end
        with self._lock:
            self.spawns += 1
            if slot.spawned:
                self.respawns += 1
        slot.spawned = True

    def _ensure_worker(self, slot: _Slot) -> None:
        """Have a live worker in ``slot`` or raise :class:`WorkerCrashError`."""
        with slot.lock:
            if slot.process is not None and slot.process.is_alive():
                return
        if slot.spawned:
            with self._lock:
                if self.respawns >= self.max_respawns:
                    raise WorkerCrashError(
                        f"warm pool respawn budget exhausted "
                        f"({self.respawns}/{self.max_respawns} respawns used)"
                    )
        _terminate_slot(slot)  # reap any dead remnants before respawning
        self._spawn_worker(slot)

    def _serve(self, slot: _Slot) -> None:
        """Serving-thread loop: one task at a time through ``slot``'s worker."""
        while True:
            item = self._tasks.get()
            if item is _STOP:
                return
            future, message, label = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                self._ensure_worker(slot)
            except Exception as exc:
                with self._lock:
                    self.failed += 1
                future.set_exception(exc)
                continue
            with slot.lock:
                connection = slot.connection
                slot.current = future
            try:
                connection.send(message)
                kind, payload = connection.recv()
            except (EOFError, OSError, BrokenPipeError):
                # The worker died under us (injected crash, OOM kill,
                # abandon()): charge the crash to this task and retire the
                # corpse; the next task through this slot respawns.
                with self._lock:
                    self.crashes += 1
                    self.failed += 1
                _terminate_slot(slot)
                if not future.done():
                    future.set_exception(
                        WorkerCrashError(
                            f"warm worker died while running task {label!r}"
                        )
                    )
                continue
            finally:
                with slot.lock:
                    slot.current = None
            if kind == "ok":
                with self._lock:
                    self.completed += 1
                future.set_result(payload)
            else:
                with self._lock:
                    self.failed += 1
                future.set_exception(payload)

    def _start_threads(self) -> None:
        with self._lock:
            if self._closed:
                raise ExperimentError("warm pool is closed")
            if self._threads:
                return
            self._threads = [
                threading.Thread(
                    target=self._serve,
                    args=(slot,),
                    name=f"repro-warm-serve-{slot.index}",
                    daemon=True,
                )
                for slot in self._slots
            ]
            for thread in self._threads:
                thread.start()

    # ------------------------------------------------------------------ #
    # Submission surface
    # ------------------------------------------------------------------ #
    def submit(
        self,
        function: Callable[[Any], Any],
        task: Any,
        *,
        label: str = "",
        attempt: int = 0,
        fault_hook: bool = True,
    ) -> Future:
        """Queue one task; the future resolves to its value or exception.

        The active fault plan (if any) is snapshotted *now* — workers
        pre-date ``inject_faults`` contexts, so the plan must travel with
        the task rather than rely on environment inheritance.
        """
        self._start_threads()
        future: Future = Future()
        message = (
            "run", function, task, label, attempt, fault_hook,
            os.environ.get(FAULT_PLAN_ENV),
        )
        self._tasks.put((future, message, label))
        return future

    def map(
        self,
        function: Callable[[Any], Any],
        tasks: Sequence[Any],
    ) -> Iterator[Any]:
        """Order-preserving map (the plain :class:`TaskExecutor` surface)."""
        futures = [
            self.submit(function, task, label=f"task-{index}")
            for index, task in enumerate(tasks)
        ]
        return (future.result() for future in futures)

    def abandon(self, future: Future) -> bool:
        """Put down the worker running ``future`` (hung-task recovery).

        The supervisor calls this after a per-task timeout: terminating the
        worker unblocks its serving thread (broken pipe), which charges the
        crash to this future and frees the slot for the next task.
        """
        for slot in self._slots:
            with slot.lock:
                is_current = slot.current is future
            if is_current:
                _terminate_slot(slot)
                return True
        return False

    @property
    def healthy(self) -> bool:
        """Whether resubmitting to the pool can still succeed."""
        with self._lock:
            if self._closed:
                return False
            if self.respawns < self.max_respawns:
                return True
        return any(
            slot.process is not None and slot.process.is_alive()
            or not slot.spawned
            for slot in self._slots
        )

    def ensure_started(self) -> None:
        """Spawn and warm every worker now (benchmarks front-load this).

        Each serving thread is busy until its probe returns, so ``jobs``
        probes land on ``jobs`` distinct workers.
        """
        self._start_threads()
        probes = [
            self.submit(_echo_probe, index, label=f"warmup-{index}", fault_hook=False)
            for index in range(self.jobs)
        ]
        for probe in probes:
            probe.result()

    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """Pool health snapshot for ``cache_stats()`` / ``/statz``."""
        alive = sum(
            1
            for slot in self._slots
            if slot.process is not None and slot.process.is_alive()
        )
        with self._lock:
            counters = {
                "pool_size": self.jobs,
                "alive": alive,
                "spawns": self.spawns,
                "respawns": self.respawns,
                "max_respawns": self.max_respawns,
                "crashes": self.crashes,
                "completed": self.completed,
                "failed": self.failed,
            }
        counters["shared_segments"] = self.registry.stats()
        return counters

    def close(self, grace: float = 2.0) -> None:
        """Stop threads, retire workers, unlink shared segments (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads = list(self._threads)
        for _ in threads:
            self._tasks.put(_STOP)
        for thread in threads:
            thread.join(grace)
        for slot in self._slots:
            with slot.lock:
                connection = slot.connection
            if connection is not None:
                try:
                    connection.send(("stop",))
                except (EOFError, OSError, BrokenPipeError):
                    pass
            with slot.lock:
                process = slot.process
            if process is not None:
                process.join(grace)
            _terminate_slot(slot)
        self.registry.close()
        self._finalizer.detach()

    def __enter__(self) -> "WarmPoolExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


register_backend("warm-pool", lambda jobs: WarmPoolExecutor(jobs))
