"""The solve service: endpoints, admission, deadlines, degradation, drain.

Most tests drive :class:`ServiceApp.handle` directly (no sockets — the
HTTP layer is a thin JSON pump), a few go over real HTTP through
:class:`ThreadingHTTPServer`, and the shutdown test runs the actual
``python -m repro.cli serve`` process and SIGTERMs it.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from dataclasses import replace
from http.server import ThreadingHTTPServer

import pytest

from repro.api import Job, PlatformRecipe, Result, RetryPolicy, Session
from repro.exceptions import AdmissionError, DeadlineExceededError
from repro.faults import FaultPlan, classify_task, inject_faults
from repro.service import (
    Deadline,
    ServiceApp,
    ServiceConfig,
    ServiceUnavailableError,
    SolveService,
    TenantLedger,
    parse_solve_request,
)
from repro.service.server import _make_handler


def _job(seed: int, *, num_nodes: int = 8) -> Job:
    return Job.broadcast(
        PlatformRecipe.of("random", num_nodes=num_nodes, density=0.3, seed=seed),
        source=0,
    )


def _batch_body(jobs, **extra) -> str:
    return json.dumps(
        {"jobs": [job.canonical_payload() for job in jobs], **extra}
    )


@pytest.fixture
def service():
    instance = SolveService(
        ServiceConfig(max_cache_bytes=32 * 1024 * 1024)
    ).start()
    yield instance
    instance.stop()


@pytest.fixture
def app(service):
    return ServiceApp(service)


# --------------------------------------------------------------------------- #
# Parsing and structured 4xx
# --------------------------------------------------------------------------- #
class TestParsing:
    def test_single_job_payload(self):
        jobs, deadline = parse_solve_request(_job(1).to_json())
        assert jobs == [_job(1)]
        assert deadline is None

    def test_batch_envelope_with_deadline(self):
        jobs, deadline = parse_solve_request(
            _batch_body([_job(1), _job(2)], deadline=4.5)
        )
        assert jobs == [_job(1), _job(2)]
        assert deadline == 4.5

    @pytest.mark.parametrize(
        "body",
        [
            "",
            "{not json",
            "[1, 2]",
            '{"jobs": []}',
            '{"jobs": "nope"}',
            '{"jobs": [42]}',
            '{"jobs": [{}], "deadline": "soon"}',
            '{"jobs": [{}], "deadline": -1}',
        ],
    )
    def test_malformed_bodies_are_config_errors(self, body, app):
        status, payload, _ = app.handle("POST", "/solve", body, {})
        assert status == 400
        assert payload["ok"] is False
        assert payload["error"]["kind"] == "invalid_request"

    def test_over_version_job_is_structured_400(self, app):
        payload = _job(1).canonical_payload()
        payload["format_version"] = 99
        status, body, _ = app.handle("POST", "/solve", json.dumps(payload), {})
        assert status == 400
        assert "format version" in body["error"]["message"]

    def test_unknown_route_is_structured_404(self, app):
        status, payload, _ = app.handle("GET", "/nope", "", {})
        assert status == 404
        assert payload["error"]["kind"] == "not_found"


# --------------------------------------------------------------------------- #
# Solving
# --------------------------------------------------------------------------- #
class TestSolve:
    def test_solve_returns_metrics(self, app):
        status, payload, _ = app.handle("POST", "/solve", _job(1).to_json(), {})
        assert status == 200
        assert payload["ok"] is True and payload["partial"] is False
        entry = payload["results"][0]
        assert entry["ok"] is True
        assert 0 < entry["metrics"]["relative_performance"] <= 1 + 1e-9

    def test_response_round_trips_through_result(self, app):
        status, payload, _ = app.handle("POST", "/solve", _job(2).to_json(), {})
        restored = Result.from_dict(payload["results"][0], session=Session())
        assert restored.ok
        assert restored.metrics()["lp_bound"] > 0

    def test_batch_dedupes_against_warm_caches(self, app, service):
        body = _batch_body([_job(3), _job(3), _job(4)])
        status, payload, _ = app.handle("POST", "/solve", body, {})
        assert status == 200 and len(payload["results"]) == 3
        assert payload["results"][0] == payload["results"][1]
        lp_misses = service.session.lp_cache.stats()["misses"]
        status, payload, _ = app.handle("POST", "/solve", body, {})
        assert status == 200
        # Warm repeat: every metric comes from the session memos — the LP
        # cache sees no new misses.
        assert service.session.lp_cache.stats()["misses"] == lp_misses

    def test_concurrent_requests_are_batched_and_answered(self, app, service):
        service.pause()
        responses: dict[int, tuple] = {}

        def post(i: int) -> None:
            responses[i] = app.handle("POST", "/solve", _job(20 + i).to_json(), {})

        threads = [threading.Thread(target=post, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        deadline = Deadline.after(5.0)
        while service.admission.queued_jobs < 3 and not deadline.expired:
            time.sleep(0.01)
        service.resume()
        for thread in threads:
            thread.join(timeout=30)
        assert sorted(responses) == [0, 1, 2]
        assert all(status == 200 for status, _, _ in responses.values())


# --------------------------------------------------------------------------- #
# Graceful degradation: per-job failures stay data
# --------------------------------------------------------------------------- #
def _mixed_fate_plan(jobs) -> FaultPlan:
    """A persistent plan failing at least one — but not all — of ``jobs``."""
    keys = [job.cache_key() for job in jobs]
    for seed in range(200):
        plan = FaultPlan(seed=seed, task_error_rate=0.4, persistent=True)
        fates = [classify_task(plan, key) for key in keys]
        if "error" in fates and "ok" in fates:
            return plan
    raise AssertionError("no seed produced a mixed-fate plan")


class TestPartialSuccess:
    def test_failed_jobs_come_back_as_failed_results_in_200(self):
        session = Session(retry_policy=RetryPolicy(retries=0, backoff=0.001))
        service = SolveService(ServiceConfig(), session=session).start()
        app = ServiceApp(service)
        jobs = [_job(seed) for seed in range(40, 44)]
        plan = _mixed_fate_plan(jobs)
        expected = {
            job.cache_key(): classify_task(plan, job.cache_key()) for job in jobs
        }
        try:
            with inject_faults(plan):
                status, payload, _ = app.handle(
                    "POST", "/solve", _batch_body(jobs), {}
                )
        finally:
            service.stop()
        assert status == 200
        assert payload["ok"] is True and payload["partial"] is True
        for job, entry in zip(jobs, payload["results"]):
            if expected[job.cache_key()] == "error":
                assert entry["ok"] is False
                assert entry["error"]["error_type"] == "InjectedWorkerError"
            else:
                assert entry["ok"] is True
                assert entry["metrics"]["lp_bound"] > 0
        assert payload["failed"] == sum(
            1 for fate in expected.values() if fate == "error"
        )

    def test_injected_request_fault_is_structured_500(self, app):
        with inject_faults(FaultPlan(seed=0, request_error_rate=1.0)):
            status, payload, _ = app.handle(
                "POST", "/solve", _job(1).to_json(), {}
            )
        assert status == 500
        assert payload["ok"] is False
        assert payload["error"]["kind"] == "injected_fault"


# --------------------------------------------------------------------------- #
# Admission control and deadlines
# --------------------------------------------------------------------------- #
class TestAdmission:
    def test_queue_full_is_429_with_retry_after(self):
        service = SolveService(
            ServiceConfig(max_queued_jobs=2, tenant_quota=None, retry_after=2.5)
        ).start()
        app = ServiceApp(service)
        try:
            service.pause()
            done = []
            threads = [
                threading.Thread(
                    target=lambda i=i: done.append(
                        app.handle("POST", "/solve", _job(50 + i).to_json(), {})
                    ),
                )
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            deadline = Deadline.after(5.0)
            while service.admission.queued_jobs < 2 and not deadline.expired:
                time.sleep(0.01)
            status, payload, headers = app.handle(
                "POST", "/solve", _job(99).to_json(), {}
            )
            assert status == 429
            assert payload["error"]["kind"] == "admission_rejected"
            assert float(headers["Retry-After"]) == pytest.approx(2.5)
            service.resume()
            for thread in threads:
                thread.join(timeout=30)
            assert all(status == 200 for status, _, _ in done)
        finally:
            service.stop()

    def test_tenant_quota_is_per_tenant(self):
        service = SolveService(
            ServiceConfig(max_queued_jobs=16, tenant_quota=1)
        ).start()
        app = ServiceApp(service)
        try:
            service.pause()
            background = threading.Thread(
                target=app.handle,
                args=("POST", "/solve", _job(60).to_json(), {"X-Tenant": "alice"}),
            )
            background.start()
            deadline = Deadline.after(5.0)
            while service.admission.queued_jobs < 1 and not deadline.expired:
                time.sleep(0.01)
            status, payload, _ = app.handle(
                "POST", "/solve", _job(61).to_json(), {"X-Tenant": "alice"}
            )
            assert status == 429
            assert "quota" in payload["error"]["message"]
            # A different tenant is admitted by the same capacity check.
            stats = service.stats()
            assert stats["tenants"] == {"alice": 1}
            service.resume()
            background.join(timeout=30)
        finally:
            service.stop()

    def test_ledger_releases_to_zero(self):
        ledger = TenantLedger(max_inflight=2)
        ledger.acquire("t", 2)
        with pytest.raises(AdmissionError):
            ledger.acquire("t", 1)
        ledger.release("t", 2)
        assert ledger.snapshot() == {}
        ledger.acquire("t", 1)

    def test_deadline_expiry_is_504(self):
        service = SolveService(ServiceConfig()).start()
        app = ServiceApp(service)
        try:
            service.pause()
            start = time.monotonic()
            status, payload, _ = app.handle(
                "POST", "/solve", _batch_body([_job(70)], deadline=0.2), {}
            )
            elapsed = time.monotonic() - start
            assert status == 504
            assert payload["error"]["kind"] == "deadline_exceeded"
            assert 0.1 < elapsed < 5.0
            service.resume()
            # The expired request is eventually released by the solve loop.
            deadline = Deadline.after(5.0)
            while service.admission.queued_jobs > 0 and not deadline.expired:
                time.sleep(0.01)
            assert service.admission.queued_jobs == 0
        finally:
            service.stop()

    def test_deadline_threads_into_task_timeouts(self, service):
        captured = {}
        original = service.session.solve_many

        def spy(jobs, **kwargs):
            captured["retry_policy"] = kwargs.get("retry_policy")
            return original(jobs, **kwargs)

        service.session.solve_many = spy
        app = ServiceApp(service)
        status, _, _ = app.handle(
            "POST", "/solve", _batch_body([_job(80)], deadline=7.0), {}
        )
        assert status == 200
        policy = captured["retry_policy"]
        assert policy is not None and policy.task_timeout is not None
        assert policy.task_timeout <= 7.0


# --------------------------------------------------------------------------- #
# Introspection and lifecycle
# --------------------------------------------------------------------------- #
class TestLifecycle:
    def test_health_endpoints(self, app, service):
        assert app.handle("GET", "/healthz", "", {})[0] == 200
        assert app.handle("GET", "/readyz", "", {})[0] == 200
        service.pause()  # paused is still ready (the loop is alive)
        assert app.handle("GET", "/readyz", "", {})[0] == 200
        service.resume()

    def test_statz_reports_bounded_caches(self):
        budget = 64 * 1024
        service = SolveService(
            ServiceConfig(max_cache_entries=64, max_cache_bytes=budget)
        ).start()
        app = ServiceApp(service)
        try:
            for seed in range(8):
                status, _, _ = app.handle(
                    "POST", "/solve", _job(seed, num_nodes=12).to_json(), {}
                )
                assert status == 200
            status, stats, _ = app.handle("GET", "/statz", "", {})
        finally:
            service.stop()
        assert status == 200
        total = stats["caches"]["total"]
        assert total["max_bytes"] == budget
        assert total["bytes"] <= budget
        assert total["evictions"] > 0
        assert stats["counters"]["requests_total"] == 8
        assert stats["queued_jobs"] == 0

    def test_draining_service_rejects_with_503(self, service, app):
        service.drain(timeout=0.1)
        assert app.handle("GET", "/readyz", "", {})[0] == 503
        status, payload, _ = app.handle("POST", "/solve", _job(1).to_json(), {})
        assert status == 503
        assert payload["error"]["kind"] == "unavailable"

    def test_stop_fails_queued_requests_with_503(self):
        service = SolveService(ServiceConfig()).start()
        service.pause()
        outcome: list = []
        thread = threading.Thread(
            target=lambda: outcome.append(
                ServiceApp(service).handle("POST", "/solve", _job(5).to_json(), {})
            )
        )
        thread.start()
        deadline = Deadline.after(5.0)
        while service.admission.queued_jobs < 1 and not deadline.expired:
            time.sleep(0.01)
        service.stop()
        thread.join(timeout=10)
        status, payload, _ = outcome[0]
        assert status == 503
        assert payload["error"]["kind"] == "unavailable"

    def test_submit_after_stop_raises_unavailable(self):
        service = SolveService(ServiceConfig()).start()
        service.stop()
        with pytest.raises(ServiceUnavailableError):
            service.submit([_job(1)])


# --------------------------------------------------------------------------- #
# Real HTTP
# --------------------------------------------------------------------------- #
class TestHTTP:
    @pytest.fixture
    def endpoint(self):
        service = SolveService(ServiceConfig()).start()
        httpd = ThreadingHTTPServer(
            ("127.0.0.1", 0), _make_handler(ServiceApp(service))
        )
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
        httpd.shutdown()
        httpd.server_close()
        service.stop()

    def _post(self, url: str, body: str):
        request = urllib.request.Request(
            url, data=body.encode("utf-8"), method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_solve_over_http(self, endpoint):
        status, payload = self._post(endpoint + "/solve", _job(7).to_json())
        assert status == 200
        assert payload["results"][0]["metrics"]["throughput"] > 0

    def test_malformed_over_http_is_json_400(self, endpoint):
        status, payload = self._post(endpoint + "/solve", "{broken")
        assert status == 400
        assert payload["error"]["kind"] == "invalid_request"

    def test_statz_over_http(self, endpoint):
        with urllib.request.urlopen(endpoint + "/statz", timeout=30) as response:
            assert response.status == 200
            stats = json.loads(response.read())
        assert "caches" in stats and "counters" in stats

    def test_keep_alive_replies_do_not_wait_for_delayed_ack(self, endpoint):
        # A reply written as two small sends with Nagle on makes the body
        # wait for the client's delayed ACK (~40 ms on Linux) on every
        # request after the first few of a keep-alive connection.
        host, port = endpoint.rsplit("/", 1)[1].split(":")
        body = _job(7).to_json()
        connection = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            elapsed = []
            for attempt in range(12):
                began = time.perf_counter()
                connection.request("POST", "/solve", body=body)
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                if attempt:  # the first request solves cold
                    elapsed.append(time.perf_counter() - began)
        finally:
            connection.close()
        assert max(elapsed) < 0.035, [round(e * 1000, 1) for e in elapsed]


# --------------------------------------------------------------------------- #
# SIGTERM drain (real process)
# --------------------------------------------------------------------------- #
class TestSigtermDrain:
    def test_serve_process_drains_cleanly_on_sigterm(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH", "")])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = process.stdout.readline()
            assert "listening on http://" in line, line
            port = int(line.rsplit(":", 1)[1])
            url = f"http://127.0.0.1:{port}"
            body = _job(1).to_json().encode("utf-8")
            request = urllib.request.Request(
                url + "/solve", data=body, method="POST"
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200
                assert json.loads(response.read())["ok"] is True
            process.send_signal(signal.SIGTERM)
            code = process.wait(timeout=30)
            assert code == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
