"""The long-lived solve service: bounded session, batching loop, HTTP glue.

:class:`SolveService` is the engine: it owns one byte-budgeted
:class:`~repro.api.Session`, admits requests through
:class:`~repro.service.admission.AdmissionController`, micro-batches
concurrently queued jobs into single :meth:`~repro.api.Session.solve_many`
calls (so concurrent requests for the same platform share one LP solve and
one kernel sweep), and threads each request's remaining
:class:`~repro.service.admission.Deadline` into the
:class:`~repro.runtime.RetryPolicy` per-task timeout.

:func:`serve` wraps the engine in a :class:`http.server.ThreadingHTTPServer`
speaking the JSON contract of :class:`~repro.service.handlers.ServiceApp`,
and installs SIGTERM/SIGINT handlers that *drain* — stop admitting, finish
what is queued (up to ``drain_timeout``), then exit 0 — instead of dying
mid-solve.
"""

from __future__ import annotations

import json
import queue
import signal
import threading
from collections import deque
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping, Sequence

from ..api import Job, Result, Session
from ..exceptions import ConfigError, DeadlineExceededError, ReproError, ServiceError
from .admission import AdmissionController, Deadline
from .handlers import ServiceApp
from .quotas import TenantLedger

__all__ = ["ServiceConfig", "ServiceUnavailableError", "SolveService", "serve"]


class ServiceUnavailableError(ServiceError):
    """The service is draining or stopped; served as HTTP 503."""

    status = 503


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that shapes one solve-service process.

    The defaults suit the 1-CPU reference container: a serial in-process
    session, a queue a few bursts deep, and cache budgets small enough that
    a soak run *observes* evictions instead of merely hoping the bound
    holds.
    """

    host: str = "127.0.0.1"
    port: int = 8642
    #: Total jobs admitted but not yet fulfilled, across all tenants.
    max_queued_jobs: int = 64
    #: Per-tenant ceiling on admitted jobs (``None`` disables quotas).
    tenant_quota: int | None = 32
    #: Deadline applied when a request does not carry its own, seconds.
    default_deadline: float = 30.0
    #: Hard ceiling on client-supplied deadlines, seconds.
    max_deadline: float = 300.0
    #: ``Retry-After`` hint attached to 429 rejections, seconds.
    retry_after: float = 1.0
    #: Jobs gathered into one ``solve_many`` call per batching round.
    max_batch_jobs: int = 32
    #: How long a SIGTERM drain waits for in-flight work, seconds.
    drain_timeout: float = 30.0
    #: Worker processes of the owned session (1 = serial in-process).
    jobs: int = 1
    #: Executor backend of the owned session (``None`` = auto by ``jobs``:
    #: serial at 1, the warm worker pool above — see
    #: :func:`~repro.runtime.make_executor`).
    backend: str | None = None
    #: Micro-batches allowed in flight at once when the session runs on a
    #: worker pool: the solve loop dispatches the next batch while the
    #: pool still chews on the previous one, overlapping batching latency
    #: with pool work.  1 restores the strictly sequential loop.
    max_inflight_batches: int = 2
    #: Optional on-disk result cache directory for the owned session.
    cache_dir: str | None = None
    #: Per-cache entry bound of the owned session.
    max_cache_entries: int | None = 512
    #: Shared byte budget of the owned session's caches.
    max_cache_bytes: int | None = 256 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.default_deadline <= 0:
            raise ConfigError(
                f"default_deadline must be positive, got {self.default_deadline!r}"
            )
        if self.max_batch_jobs < 1:
            raise ConfigError(
                f"max_batch_jobs must be >= 1, got {self.max_batch_jobs!r}"
            )
        if self.max_inflight_batches < 1:
            raise ConfigError(
                "max_inflight_batches must be >= 1, "
                f"got {self.max_inflight_batches!r}"
            )


class _PendingRequest:
    """One admitted request travelling from handler thread to solve loop."""

    __slots__ = ("jobs", "tenant", "deadline", "done", "results", "error")

    def __init__(self, jobs: Sequence[Job], tenant: str, deadline: Deadline) -> None:
        self.jobs = list(jobs)
        self.tenant = tenant
        self.deadline = deadline
        self.done = threading.Event()
        self.results: list[Result] | None = None
        self.error: Exception | None = None


class SolveService:
    """The request engine behind the HTTP endpoints.

    Lifecycle: :meth:`start` spawns the solve loop; :meth:`submit` admits,
    enqueues and waits (the caller's deadline bounds the wait);
    :meth:`drain` stops admission and lets the queue empty; :meth:`stop`
    halts the loop and fails whatever is still queued with a structured
    503.  ``pause()`` / ``resume()`` freeze the solve loop — a test hook
    that makes queue-full 429s and deadline 504s deterministic.
    """

    def __init__(
        self, config: ServiceConfig | None = None, *, session: Session | None = None
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self._owns_session = session is None
        self.session = (
            session
            if session is not None
            else Session(
                jobs=self.config.jobs,
                backend=self.config.backend,
                cache_dir=self.config.cache_dir,
                max_cache_entries=self.config.max_cache_entries,
                max_cache_bytes=self.config.max_cache_bytes,
            )
        )
        self.admission = AdmissionController(
            self.config.max_queued_jobs,
            TenantLedger(self.config.tenant_quota),
            retry_after=self.config.retry_after,
        )
        self._queue: "queue.Queue[_PendingRequest]" = queue.Queue()
        self._gate = threading.Event()
        self._gate.set()
        self._stop = threading.Event()
        self._draining = False
        self._counters: dict[str, int] = {}
        self._counter_lock = threading.Lock()
        self._loop: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "SolveService":
        """Spawn the batching solve loop (idempotent)."""
        if self._loop is None or not self._loop.is_alive():
            self._stop.clear()
            self._loop = threading.Thread(
                target=self._solve_loop, name="repro-solve-loop", daemon=True
            )
            self._loop.start()
        return self

    @property
    def ready(self) -> bool:
        """Whether new requests will be accepted and eventually solved."""
        return (
            self._loop is not None
            and self._loop.is_alive()
            and not self._draining
            and not self._stop.is_set()
        )

    def pause(self) -> None:
        """Freeze the solve loop (test hook: deterministic 429/504)."""
        self._gate.clear()

    def resume(self) -> None:
        """Unfreeze the solve loop."""
        self._gate.set()

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, let queued work finish; ``True`` if it all did.

        The graceful half of shutdown: after ``drain`` returns, call
        :meth:`stop` to halt the loop (failing any stragglers with 503).
        """
        self._draining = True
        self._gate.set()
        budget = Deadline.after(
            timeout if timeout is not None else self.config.drain_timeout
        )
        while self.admission.queued_jobs > 0 and not budget.expired:
            threading.Event().wait(0.02)
        return self.admission.queued_jobs == 0

    def stop(self) -> None:
        """Halt the solve loop and fail whatever is still queued (503)."""
        self._draining = True
        self._stop.set()
        self._gate.set()
        if self._loop is not None and self._loop.is_alive():
            self._loop.join(timeout=5.0)
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            request.error = ServiceUnavailableError(
                "service stopped before the request was solved"
            )
            self._finish(request)
        if self._owns_session:
            # Stops warm-pool workers and unlinks their shared segments.
            self.session.close()

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def submit(
        self,
        jobs: Sequence[Job],
        *,
        tenant: str = "default",
        deadline_seconds: float | None = None,
    ) -> list[Result]:
        """Admit ``jobs``, wait for the solve loop, return per-job results.

        Raises :class:`~repro.exceptions.AdmissionError` (429) when over
        capacity, :class:`ServiceUnavailableError` (503) while draining,
        and :class:`~repro.exceptions.DeadlineExceededError` (504) when the
        deadline expires first — in which case the solve still completes in
        the background and warms the caches for a retry.
        """
        if not self.ready:
            raise ServiceUnavailableError("service is draining or stopped")
        seconds = (
            self.config.default_deadline
            if deadline_seconds is None
            else min(deadline_seconds, self.config.max_deadline)
        )
        self.admission.admit(tenant, len(jobs))
        request = _PendingRequest(jobs, tenant, Deadline.after(seconds))
        self._queue.put(request)
        if not request.done.wait(request.deadline.remaining()):
            self.count("requests_deadline_exceeded")
            raise DeadlineExceededError(
                f"deadline of {seconds:.3f}s expired before "
                f"{len(jobs)} job(s) finished; retry to reuse partial work"
            )
        if request.error is not None:
            raise request.error
        assert request.results is not None
        return request.results

    # ------------------------------------------------------------------ #
    # Solve loop
    # ------------------------------------------------------------------ #
    def _solve_loop(self) -> None:
        # Sessions running on a worker pool expose async submission
        # (solve_many_async), which lets the loop overlap micro-batches:
        # dispatch the next batch while the pool still chews on the
        # previous one, up to ``max_inflight_batches`` deep.
        overlapped = (
            self.config.max_inflight_batches > 1
            and getattr(self.session.executor, "supervises_as_pool", False)
        )
        inflight: "deque[tuple[Any, list[_PendingRequest]]]" = deque()
        try:
            while not self._stop.is_set():
                self._reap(inflight, block=False)
                if not self._gate.is_set():
                    self._gate.wait(timeout=0.05)
                    continue
                try:
                    first = self._queue.get(timeout=0.05)
                except queue.Empty:
                    continue
                if self._stop.is_set():
                    # Stopped while this get() was in flight: hand the request
                    # back for stop()'s flush to fail with a structured 503.
                    self._queue.put(first)
                    break
                if not self._gate.is_set():
                    # Paused while this get() was already in flight: hand the
                    # request back and go wait on the gate.
                    self._queue.put(first)
                    continue
                batch = [first]
                total = len(first.jobs)
                # Micro-batching: whatever is *already* queued rides along (up
                # to the cap), with no artificial latency added to gather more.
                while total < self.config.max_batch_jobs:
                    try:
                        request = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    batch.append(request)
                    total += len(request.jobs)
                try:
                    if overlapped:
                        while len(inflight) >= self.config.max_inflight_batches:
                            self._reap(inflight, block=True)
                        entry = self._dispatch_batch_async(batch)
                        if entry is not None:
                            inflight.append(entry)
                    else:
                        self._solve_batch(batch)
                except BaseException as error:  # noqa: BLE001 - loop must survive
                    for request in batch:
                        if not request.done.is_set():
                            request.error = ServiceError(
                                f"solve loop error: {type(error).__name__}: {error}"
                            )
                            self._finish(request)
        finally:
            while inflight:
                self._reap(inflight, block=True)

    # ------------------------------------------------------------------ #
    def _live_requests(
        self, batch: "list[_PendingRequest]"
    ) -> "list[_PendingRequest]":
        """Drop batch members whose deadline expired while queued."""
        live: list[_PendingRequest] = []
        for request in batch:
            if request.deadline.expired:
                # The waiting handler already answered 504; just release.
                request.error = DeadlineExceededError("deadline expired in queue")
                self._finish(request)
                continue
            live.append(request)
        return live

    def _batch_policy(self, live: "list[_PendingRequest]") -> Any:
        """The batch's retry policy: tightest remaining deadline wins.

        The whole batch runs under the most urgent request's budget: one
        solve_many call means one supervision scope, and a task that
        cannot finish inside that budget should be timed out, retried,
        and eventually failed *as data*.
        """
        remaining = max(
            0.001, min(request.deadline.remaining() for request in live)
        )
        policy = self.session.retry_policy
        task_timeout = (
            remaining
            if policy.task_timeout is None
            else min(policy.task_timeout, remaining)
        )
        return replace(policy, task_timeout=task_timeout)

    def _distribute(
        self, live: "list[_PendingRequest]", results: "list[Result]"
    ) -> None:
        """Slice batch results back onto their requests and release them."""
        self.count("batches_solved")
        offset = 0
        for request in live:
            request.results = results[offset : offset + len(request.jobs)]
            offset += len(request.jobs)
            failed = sum(1 for result in request.results if not result.ok)
            self.count("jobs_solved", len(request.jobs) - failed)
            self.count("jobs_failed", failed)
            self._finish(request)

    def _solve_batch(self, batch: "list[_PendingRequest]") -> None:
        live = self._live_requests(batch)
        if not live:
            return
        jobs = [job for request in live for job in request.jobs]
        try:
            results = self.session.solve_many(
                jobs,
                on_error="collect",
                retry_policy=self._batch_policy(live),
            )
        except ReproError as error:
            for request in live:
                request.error = error
                self._finish(request)
            return
        self._distribute(live, results)

    def _dispatch_batch_async(
        self, batch: "list[_PendingRequest]"
    ) -> "tuple[Any, list[_PendingRequest]] | None":
        """Ship one micro-batch to the pool without waiting for it."""
        live = self._live_requests(batch)
        if not live:
            return None
        jobs = [job for request in live for job in request.jobs]
        handle = self.session.solve_many_async(
            jobs,
            on_error="collect",
            retry_policy=self._batch_policy(live),
        )
        self.count("batches_overlapped")
        return handle, live

    def _reap(
        self,
        inflight: "deque[tuple[Any, list[_PendingRequest]]]",
        *,
        block: bool,
    ) -> None:
        """Settle finished in-flight batches (oldest first).

        ``block=True`` waits for the oldest batch (freeing one in-flight
        slot), then keeps reaping whatever else already finished.
        """
        while inflight and (block or inflight[0][0].done()):
            handle, live = inflight.popleft()
            block = False
            try:
                results = handle.result()
            except ReproError as error:
                for request in live:
                    request.error = error
                    self._finish(request)
                continue
            except BaseException as error:  # noqa: BLE001 - loop must survive
                for request in live:
                    if not request.done.is_set():
                        request.error = ServiceError(
                            f"solve loop error: {type(error).__name__}: {error}"
                        )
                        self._finish(request)
                continue
            self._distribute(live, results)

    def _finish(self, request: _PendingRequest) -> None:
        self.admission.release(request.tenant, len(request.jobs))
        request.done.set()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def count(self, name: str, amount: int = 1) -> None:
        """Bump a named monotonic counter (surfaced by ``/statz``)."""
        with self._counter_lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def stats(self) -> dict[str, Any]:
        """The ``/statz`` payload: queue, tenants, counters, cache stats."""
        with self._counter_lock:
            counters = dict(self._counters)
        counters["admission_rejections"] = (
            self.admission.rejections + self.admission.ledger.rejections
        )
        return {
            "ready": self.ready,
            "draining": self._draining,
            "queued_jobs": self.admission.queued_jobs,
            "tenants": self.admission.ledger.snapshot(),
            "counters": counters,
            "caches": self.session.cache_stats(),
        }


# --------------------------------------------------------------------------- #
# HTTP glue
# --------------------------------------------------------------------------- #
def _make_handler(app: ServiceApp) -> type[BaseHTTPRequestHandler]:
    class _Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-solve"
        # Headers and body go out as two sends; with Nagle on, the body of a
        # keep-alive reply would wait for the client's delayed ACK (~40 ms).
        disable_nagle_algorithm = True

        def log_message(self, *args: Any) -> None:  # pragma: no cover
            pass  # request logging would swamp the soak tests' stderr

        def _dispatch(self, method: str) -> None:
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                length = 0
            body = (
                self.rfile.read(length).decode("utf-8", "replace")
                if length > 0
                else ""
            )
            status, payload, extra = app.handle(
                method, self.path, body, self.headers
            )
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for name, value in extra.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self) -> None:  # noqa: N802 - http.server contract
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802 - http.server contract
            self._dispatch("POST")

    return _Handler


def serve(
    config: ServiceConfig | None = None,
    *,
    session: Session | None = None,
    ready_callback: Any = None,
    install_signal_handlers: bool = True,
) -> int:
    """Run the solve service until SIGTERM/SIGINT; returns the exit code.

    Shutdown is a *drain*: admission closes (``/readyz`` goes 503, new
    ``/solve`` requests get structured 503s), queued jobs finish within
    ``config.drain_timeout``, then the loop stops and the socket closes.
    ``ready_callback(host, port)`` — if given — fires once the socket is
    bound, with the *actual* port (useful with ``port=0`` in tests).
    """
    config = config if config is not None else ServiceConfig()
    service = SolveService(config, session=session).start()
    app = ServiceApp(service)
    httpd = ThreadingHTTPServer(
        (config.host, config.port), _make_handler(app)
    )

    def _shutdown(signum: int, frame: Any = None) -> None:
        def _drain_and_stop() -> None:
            service.drain(config.drain_timeout)
            service.stop()
            httpd.shutdown()

        # A daemon thread, because httpd.shutdown() deadlocks when called
        # from the serve_forever thread — and signal handlers run there.
        threading.Thread(target=_drain_and_stop, daemon=True).start()

    if install_signal_handlers:
        signal.signal(signal.SIGTERM, _shutdown)
        signal.signal(signal.SIGINT, _shutdown)
    if ready_callback is not None:
        ready_callback(*httpd.server_address[:2])
    try:
        httpd.serve_forever(poll_interval=0.1)
    finally:
        service.stop()
        httpd.server_close()
    return 0
