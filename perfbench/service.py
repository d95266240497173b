"""The ``service_open`` workload: ``repro serve`` under an open-loop load.

The server runs in its own process with its default configuration
(serial session, default cache budgets).  The generator sends requests on
a fixed schedule, whatever the server does, with at most
:data:`CONNECTIONS` requests in flight, each on a fresh connection; each
request is timed from the moment it was *due*, so a stall also charges
the requests queued behind it.  About nine requests in ten read a
pre-warmed hot set, the rest carry a new platform (a cold solve, and
cache inserts).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

#: Offered load, requests per second (open loop).
RATE = 50.0
#: Share of requests that carry a new platform (every tenth slot).
COLD_SHARE = 0.1
#: Latency limit of the goodput metric, milliseconds.
LIMIT_MS = 250.0
#: Generator connections (one request at a time each).
CONNECTIONS = 2
#: Servers started per run; the median start is the set-up figure and
#: the last one serves the measured phase.
STARTS = 3
#: Heuristics of the hot jobs, and of the jobs of each cold request (six
#: per cold request, so that the cold inserts overflow the server's
#: default 512-entry caches and evict).
HEURISTICS = ("grow-tree", "prune-degree", "prune-simple", "lp-prune", "lp-grow-tree", "binomial")
HOT_PLATFORMS = 6
NODES = 16
DENSITY = 0.15
IDLE_PROBES = 20


def _job(seed: int, heuristic: str) -> dict[str, Any]:
    from repro.api import Job, PlatformRecipe

    recipe = PlatformRecipe.of("random", num_nodes=NODES, density=DENSITY, seed=seed)
    return Job.broadcast(recipe, 0, heuristic=heuristic).canonical_payload()


class Server:
    """One ``repro serve --port 0`` process (optionally the traced wrapper)."""

    def __init__(self, root: Path, traced: bool) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        if traced:
            command = [sys.executable, str(Path(__file__).with_name("serve_traced.py"))]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command + ["--port", "0"],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.process.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host_port = line.rsplit("http://", 1)[1].strip()
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)
        self.start_s = time.perf_counter() - start
        self.tail = ""

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; keep what it printed."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.tail, _ = self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.tail, _ = self.process.communicate()


def request(conn: http.client.HTTPConnection, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
    conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
    reply = conn.getresponse()
    return reply.status, reply.read()


def statz(server: Server) -> dict[str, Any]:
    conn = server.connect()
    try:
        status, data = request(conn, "GET", "/statz")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"/statz answered {status}")
    return json.loads(data)


def build_schedule(seed: int, seconds: float) -> tuple[list[bytes], list[bytes], list[int]]:
    """Hot bodies, cold bodies (one per cold slot) and the slot order.

    ``order[i]`` is ``-1 - k`` for the ``k``-th cold body, else the index
    of the hot body sent in slot ``i``.  Cold slots are evenly spaced, so
    the latency tail measures cold solves rather than how often two cold
    requests happened to collide.
    """
    rng = random.Random(seed)
    base = seed * 10_000
    hot = [
        json.dumps({"jobs": [_job(base + p, h)]}).encode()
        for p in range(HOT_PLATFORMS)
        for h in HEURISTICS
    ]
    total = max(1, int(round(RATE * seconds)))
    stride = round(1 / COLD_SHARE)
    phase = rng.randrange(stride)
    order = []
    for slot in range(total):
        if slot % stride == phase:
            order.append(-1 - slot // stride)
        else:
            order.append(rng.randrange(len(hot)))
    cold = [
        json.dumps({"jobs": [_job(base + 1000 + k, h) for h in HEURISTICS]}).encode()
        for k in range(sum(1 for slot in order if slot < 0))
    ]
    return hot, cold, order


def check_reply(status: int, data: bytes) -> tuple[bool, list[float]]:
    """Whether a reply is a full success; its relative performances."""
    if status != 200:
        return False, []
    reply = json.loads(data)
    if not reply.get("ok") or reply.get("failed"):
        return False, []
    perfs = []
    for entry in reply["results"]:
        metrics = entry["metrics"]
        if metrics["throughput"] > metrics["lp_bound"] * (1 + 1e-9):
            return False, []
        perfs.append(metrics["relative_performance"])
    return True, perfs


def open_loop(server: Server, hot: list[bytes], cold: list[bytes], order: list[int]) -> dict[str, Any]:
    """Send ``order`` at :data:`RATE`; per-request latency from due time."""
    n = len(order)
    latency = [0.0] * n
    lag = [0.0] * n
    replies: list[tuple[int, bytes]] = [(0, b"")] * n
    counter = iter(range(n))
    lock = threading.Lock()
    errors: list[BaseException] = []
    start = time.perf_counter() + 0.05

    def worker() -> None:
        try:
            while True:
                with lock:
                    i = next(counter, None)
                if i is None:
                    return
                due = start + i / RATE
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                slot = order[i]
                body = cold[-1 - slot] if slot < 0 else hot[slot]
                conn = server.connect()
                try:
                    replies[i] = request(conn, "POST", "/solve", body)
                finally:
                    conn.close()
                latency[i] = time.perf_counter() - due
                lag[i] = sent - due
        except BaseException as error:  # noqa: BLE001 - re-raised by the caller
            errors.append(error)

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return {
        "latency": latency,
        "lag": lag,
        "replies": replies,
        "duration": max(start + i / RATE + latency[i] for i in range(n)) - start,
    }


def warm(server: Server, hot: list[bytes]) -> list[bytes]:
    conn = server.connect()
    try:
        replies = [request(conn, "POST", "/solve", body) for body in hot]
    finally:
        conn.close()
    if any(status != 200 for status, _ in replies):
        raise RuntimeError("hot-set warm-up failed")
    return [data for _, data in replies]


def idle_envelope_ms(server: Server, body: bytes) -> float:
    """Median latency of sequential hot requests on an idle server.

    They share one keep-alive connection, as a persistent client's would,
    so the figure includes how the reply reaches the socket.
    """
    conn = server.connect()
    try:
        samples = []
        for _ in range(IDLE_PROBES):
            start = time.perf_counter()
            request(conn, "POST", "/solve", body)
            samples.append(time.perf_counter() - start)
    finally:
        conn.close()
    return float(np.median(samples)) * 1e3


def run_phase(root: Path, seed: int, seconds: float, traced: bool, starts: int = STARTS) -> dict[str, Any]:
    """Start servers, warm the hot set, drive one open-loop phase."""
    hot, cold, order = build_schedule(seed, seconds)
    setups = []
    server = None
    for attempt in range(starts):
        start = time.perf_counter()
        server = Server(root, traced)
        try:
            warmed = warm(server, hot)
        except BaseException:
            server.stop()
            raise
        setups.append(time.perf_counter() - start)
        if attempt < starts - 1:
            server.stop()
    assert server is not None
    try:
        if traced:
            server.process.send_signal(signal.SIGUSR1)  # span totals before the load
        before = statz(server)
        load = open_loop(server, hot, cold, order)
        after = statz(server)
        envelope_ms = idle_envelope_ms(server, hot[0])
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    spans = None
    if traced:
        from tracer import Tracer

        lines = server.tail.strip().splitlines()
        spans = Tracer.since(json.loads(lines[-2]), json.loads(lines[-1]))
    ok, perfs, hot_mismatch = [], [], 0
    for slot, (status, data) in zip(order, load["replies"]):
        good, rel = check_reply(status, data)
        if good and slot >= 0 and data != warmed[slot]:
            hot_mismatch += 1
            good = False
        ok.append(good)
        perfs.extend(rel)
    return {
        "setups": setups,
        "load": load,
        "ok": ok,
        "perfs": perfs,
        "hot_mismatch": hot_mismatch,
        "before": before,
        "after": after,
        "envelope_ms": envelope_ms,
        "rss_mb": rss_mb,
        "spans": spans,
    }


def _delta(before: dict[str, Any], after: dict[str, Any], *path: str) -> float:
    a, b = after, before
    for key in path:
        a, b = a.get(key, {}), b.get(key, {})
    return float(a or 0) - float(b or 0)


def _hit_ratio(before: dict[str, Any], after: dict[str, Any], cache: str) -> float:
    hits = _delta(before, after, "caches", cache, "hits")
    misses = _delta(before, after, "caches", cache, "misses")
    return hits / (hits + misses) if hits + misses else 0.0


def service_layers(phase: dict[str, Any]) -> dict[str, float]:
    """The service-side per-layer figures of one phase (from /statz)."""
    before, after = phase["before"], phase["after"]
    batches = _delta(before, after, "counters", "batches_solved")
    jobs = _delta(before, after, "counters", "jobs_solved") + _delta(
        before, after, "counters", "jobs_failed"
    )
    return {
        "service.batch_jobs_mean": jobs / batches if batches else 0.0,
        "service.envelope_ms": phase["envelope_ms"],
        "service.rejections": _delta(before, after, "counters", "admission_rejections"),
        "service.evictions": _delta(before, after, "caches", "total", "evictions"),
        "service.cache_hit_ratio": _hit_ratio(before, after, "lp_solutions"),
        "api.cache_hit_ratio": _hit_ratio(before, after, "results"),
        "loadgen.lag_p99_ms": float(np.percentile(phase["load"]["lag"], 99)) * 1e3,
    }
