"""serve: the ``python -m repro serve`` daemon under open-loop load.

The daemon runs in its own process with a fresh decision store.  One
single-threaded load generator feeds it on a fixed schedule and times
each request from the moment it was due, so a stall shows on every
request queued behind it.  At most two connections are open at once:

* three requests in four travel one connection per request, as
  ``DaemonClient`` sends them;
* one in four travels a single HTTP/1.1 keep-alive connection, as a
  session client sends them.

A request whose connection is still busy waits for it; that wait is part
of its latency.  The generator runs the in-process reference probe only
while no request is in flight.

The run has a base phase at :data:`BASE_RATE` (``p50_ms``, ``tail_ms``)
and then a ladder of rising rates, two rounds each, which stops at the
first rate that misses the latency limit or lets a backlog grow
(``max_rate_per_s``).

``setup_s`` and ``p50_ms`` are normalised by host speed; ``tail_ms``
and ``max_rate_per_s`` are not, because today the keep-alive stall sets
them, a 40 ms delayed-ACK timer that does not scale with the host.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import signal
import socket
import statistics
import subprocess
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from checks import conventional_tile_cycles, close, expect_model, tile_count
from common import (
    INPROC_PROBE_NOMINAL_MS,
    PYTHON,
    SETUP_REPEATS,
    SPAWN_PROBE_NOMINAL_S,
    BenchmarkError,
    ProbeLog,
    Timing,
    WorkloadResult,
    inproc_probe_ms,
    spawn_probe_s,
    tail_value,
)
from inputs import (
    EXPECTED_INVALID_STATUS,
    SERVE_ROUND,
    ServeRequest,
    serve_inputs,
)

#: Offered rate of the base phase (requests/s): below what the keep-alive
#: connection can carry today, so p50/tail are latencies, not backlog.
BASE_RATE = 40.0
#: Share of the run's seconds spent in the base phase; the ladder and its
#: early stop take the rest.
BASE_SHARE = 0.6
#: Offered rates of the capacity ladder (requests/s), LADDER_ROUNDS each.
LADDER_ROUNDS = 2
LADDER = (60.0, 80.0, 100.0, 135.0, 180.0, 240.0, 320.0, 430.0, 570.0, 760.0, 1000.0)
#: A ladder step fails when its normalised tail exceeds this.
LATENCY_LIMIT_MS = 100.0
#: ... or when a connection style's latency grows by this much from the
#: first quarter of the step to the last (a backlog that does not drain).
BACKLOG_GROWTH_MS = 20.0
#: Share of the requests on the keep-alive connection (see inputs).
KEEPALIVE_SHARE = 0.25
#: The generator probes at most this often, and only in idle gaps at
#: least :data:`PROBE_GAP_S` long.
PROBE_EVERY_S = 0.1
PROBE_GAP_S = 0.008


# ---------------------------------------------------------------------- #
# The daemon process
# ---------------------------------------------------------------------- #
class Daemon:
    """One ``python -m repro serve`` child on an ephemeral port."""

    def __init__(self, env: dict, store: Path) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [PYTHON, "-m", "repro", "--cache-dir", str(store), "serve", "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.peak_rss_mb = 0.0
        self.reaped = False
        line = self.proc.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise BenchmarkError(f"daemon did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])
        deadline = self.started + 60.0
        while True:
            try:
                if self.get("/healthz").get("status") == "ok":
                    break
            except OSError:
                if time.perf_counter() > deadline:
                    self.stop()
                    raise BenchmarkError("daemon never became healthy") from None
                time.sleep(0.002)
        #: Seconds from spawning the process to its first healthy /healthz.
        self.setup_s = time.perf_counter() - self.started

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        """Drain with SIGTERM (kill after 30 s) and reap, keeping peak RSS."""
        if self.reaped:
            return
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + 30.0
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.reaped = True


# ---------------------------------------------------------------------- #
# The open-loop load generator
# ---------------------------------------------------------------------- #
@dataclass
class Sent:
    request: ServeRequest
    due: float
    sent: float = 0.0
    done: float = 0.0
    lateness: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


class _Conn:
    def __init__(self, keepalive: bool) -> None:
        self.keepalive = keepalive
        self.sock: socket.socket | None = None
        self.current: Sent | None = None
        self.out = b""
        self.buf = b""
        self.free_at = 0.0


def _request_bytes(port: int, body: bytes) -> bytes:
    head = (
        f"POST /v1/schedule HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
        f"Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def _parse(buf: bytes) -> tuple[int, bytes] | None:
    """(status, body) once ``buf`` holds a whole response, else None."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    lines = buf[:end].decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    if len(buf) < end + 4 + length:
        return None
    return status, buf[end + 4 : end + 4 + length]


def drive(port: int, schedule: list[Sent], probes: ProbeLog) -> None:
    """Send every request of ``schedule`` (sorted by due time) and wait
    for all responses, probing the host only in idle gaps."""
    selector = selectors.DefaultSelector()
    conns = {False: _Conn(False), True: _Conn(True)}
    queues: dict[bool, deque[Sent]] = {False: deque(), True: deque()}
    upcoming = 0
    remaining = len(schedule)
    last_probe = 0.0

    def start(conn: _Conn, item: Sent) -> None:
        now = time.perf_counter()
        item.sent = now
        item.lateness = now - max(item.due, conn.free_at)
        conn.current = item
        conn.out = _request_bytes(port, item.request.body)
        conn.buf = b""
        if conn.sock is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            sock.connect_ex(("127.0.0.1", port))
            conn.sock = sock
        selector.register(conn.sock, selectors.EVENT_WRITE, conn)

    def finish(conn: _Conn, error: str = "") -> None:
        item = conn.current
        item.done = time.perf_counter()
        item.error = error
        selector.unregister(conn.sock)
        if error or not conn.keepalive:
            conn.sock.close()
            conn.sock = None
        conn.current = None
        conn.free_at = item.done

    def service(conn: _Conn, mask: int) -> bool:
        try:
            if mask & selectors.EVENT_WRITE:
                err = conn.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                if err:
                    raise OSError(err, os.strerror(err))
                sent = conn.sock.send(conn.out)
                conn.out = conn.out[sent:]
                if not conn.out:
                    selector.modify(conn.sock, selectors.EVENT_READ, conn)
                return False
            data = conn.sock.recv(65536)
            if not data:
                raise OSError("connection closed before the response ended")
            conn.buf += data
            parsed = _parse(conn.buf)
            if parsed is None:
                return False
            conn.current.status, conn.current.body = parsed
            finish(conn)
            return True
        except OSError as exc:
            finish(conn, f"{type(exc).__name__}: {exc}")
            return True

    try:
        while remaining:
            now = time.perf_counter()
            while upcoming < len(schedule) and schedule[upcoming].due <= now:
                item = schedule[upcoming]
                queues[item.request.keepalive].append(item)
                upcoming += 1
            for keepalive, conn in conns.items():
                if conn.current is None and queues[keepalive]:
                    start(conn, queues[keepalive].popleft())
            next_due = schedule[upcoming].due if upcoming < len(schedule) else None
            idle = all(conn.current is None for conn in conns.values())
            if (
                idle
                and now - last_probe >= PROBE_EVERY_S
                and (next_due is None or next_due - now >= PROBE_GAP_S)
            ):
                probes.add(inproc_probe_ms())
                last_probe = time.perf_counter()
                continue
            timeout = 0.5 if next_due is None else max(next_due - now, 0.0)
            for key, mask in selector.select(min(timeout, 0.5)):
                if service(key.data, mask):
                    remaining -= 1
    finally:
        for conn in conns.values():
            if conn.sock is not None:
                conn.sock.close()
        selector.close()


def _phase(port: int, seed: int, first_round: int, rounds: int, rate: float,
           probes: ProbeLog) -> list[Sent]:
    requests = [
        request
        for index in range(first_round, first_round + rounds)
        for request in serve_inputs(seed, index)
    ]
    t0 = time.perf_counter() + 0.02
    schedule = []
    for i, request in enumerate(requests):
        due = schedule[-1].due if request.burst else t0 + i / rate
        schedule.append(Sent(request, due))
    probes.add(inproc_probe_ms())
    drive(port, schedule, probes)
    probes.add(inproc_probe_ms())
    return schedule


# ---------------------------------------------------------------------- #
# Checks
# ---------------------------------------------------------------------- #
def _failed(item: Sent) -> bool:
    """Wrong status or no response: the operation failed."""
    if item.error:
        return True
    if item.request.kind.startswith("invalid:"):
        return item.status != EXPECTED_INVALID_STATUS
    return item.status != 200


class _Reference:
    """Direct ``SchedulingService.submit`` payloads for each wire body,
    computed in this process after the load ends."""

    def __init__(self, layers) -> None:
        from repro.serve import SchedulingService

        self.service = SchedulingService(max_workers=1)
        self.layers = layers
        self._payloads: dict[bytes, dict] = {}

    def payload(self, body: bytes) -> dict:
        if body not in self._payloads:
            from repro.serve.protocol import request_from_wire, response_to_wire

            decoded = json.loads(body)
            t0 = time.perf_counter()
            request = request_from_wire(decoded)
            t1 = time.perf_counter()
            response = self.service.submit(request)
            t2 = time.perf_counter()
            wire = response_to_wire(response)
            t3 = time.perf_counter()
            if self.layers:
                self.layers.serve_inprocess(t1 - t0, t2 - t1, t3 - t2)
            self._payloads[body] = wire
        return self._payloads[body]

    def close(self) -> None:
        self.service.close()


def check_result(request: dict, result: dict) -> str | None:
    """The result against the closed forms: cycles, modes and time."""
    from repro.workloads import get_workload

    model = request["model"]
    if isinstance(model, str):
        gemms = [(g.m, g.n, g.t) for g in get_workload(model).gemms()]
    else:
        gemms = [tuple(gemm[:3]) for gemm in model]
    config = request["config"]
    rows, cols, depths = config["rows"], config["cols"], tuple(config["depths"])
    expected = expect_model(gemms, rows, cols, depths)
    if request.get("conventional"):
        time_ns = expected.conventional_time_ns
        cycles = sum(
            conventional_tile_cycles(rows, cols, t) * tile_count(n, m, rows, cols)
            for m, n, t in gemms
        )
        histogram = {"1": len(gemms)}
    else:
        time_ns = expected.time_ns
        cycles = expected.total_cycles
        histogram = {str(k): c for k, c in sorted(expected.histogram().items())}
    if not close(result["time_ns"], time_ns):
        return f"time_ns {result['time_ns']} != {time_ns}"
    if result["kind"] == "schedule":
        if result["total_cycles"] != cycles:
            return f"total_cycles {result['total_cycles']} != {cycles}"
        if result["depth_histogram"] != histogram:
            return f"modes {result['depth_histogram']} != {histogram}"
        if result["layers"] != len(gemms):
            return f"{result['layers']} layers != {len(gemms)}"
    return None


def check_all(sent: list[Sent], result: WorkloadResult, reference: _Reference) -> None:
    faults: dict[str, int] = {}
    for item in sent:
        result.attempted += 1
        kind = item.request.kind
        if _failed(item):
            result.failed += 1
            faults[f"{kind} -> {item.error or item.status}"] = (
                faults.get(f"{kind} -> {item.error or item.status}", 0) + 1
            )
            continue
        payload = json.loads(item.body)
        if kind.startswith("invalid:"):
            if payload.get("error", {}).get("code") != "invalid_request":
                result.mismatch(f"{kind}: error body {payload}")
            continue
        want = dict(reference.payload(item.request.body))
        got = dict(payload)
        got.pop("deduplicated", None)
        want.pop("deduplicated", None)
        if got != want:
            result.mismatch(f"{kind}: wire payload differs from a direct submit")
            continue
        problem = check_result(json.loads(item.request.body), payload["result"])
        if problem:
            result.mismatch(f"{kind}: {problem}")
    for fault, count in sorted(faults.items()):
        result.notes.append(f"FAILED x{count}: {fault}")


# ---------------------------------------------------------------------- #
# Capacity
# ---------------------------------------------------------------------- #
def _growing(items: list[Sent]) -> bool:
    if len(items) < 8:
        return False
    quarter = len(items) // 4
    first = statistics.fmean(i.latency_ms for i in items[:quarter])
    last = statistics.fmean(i.latency_ms for i in items[-quarter:])
    return last - first > BACKLOG_GROWTH_MS


def _step_capacity(items: list[Sent]) -> float:
    """Offered rate the connections of one step carried: each style
    completes one request per mean service time (send to response) and
    carries its share of the traffic; the busier style sets the rate.
    At an overloaded step the busier connection never idles, so this is
    the throughput it really sustains."""
    rates = []
    for keepalive, share in ((True, KEEPALIVE_SHARE), (False, 1.0 - KEEPALIVE_SHARE)):
        style = [i for i in items if i.request.keepalive == keepalive and not i.error]
        busy = sum(i.done - i.sent for i in style)
        rates.append(len(style) / busy / share)
    return min(rates)


def _step_passes(items: list[Sent], probes: ProbeLog) -> bool:
    ok = [i for i in items if not _failed(i)]
    norm = [i.latency_ms * probes.factor(i.due, i.done) for i in ok]
    if tail_value(norm) > LATENCY_LIMIT_MS:
        return False
    return not any(_growing([i for i in ok if i.request.keepalive == k]) for k in (True, False))


# ---------------------------------------------------------------------- #
def run(seed, result: WorkloadResult, scratch: Path, env: dict, *,
        seconds=None, rounds=None, layers=None):
    """Base phase (``rounds`` fixed, or sized from ``seconds``), then, in a
    timed run, the capacity ladder.  Fills setup/peak/rate metrics."""
    setup_raw = []
    spawn_probes = ProbeLog(nominal=SPAWN_PROBE_NOMINAL_S)
    spawn_probes.add(spawn_probe_s(env))
    daemon = None
    for _ in range(SETUP_REPEATS if rounds is None else 1):
        if daemon is not None:
            daemon.stop()
        daemon = Daemon(env, Path(tempfile.mkdtemp(prefix="serve-store-", dir=scratch)))
        setup_raw.append(daemon.setup_s)
        spawn_probes.add(spawn_probe_s(env))
    probes = ProbeLog(nominal=INPROC_PROBE_NOMINAL_MS)
    try:
        if rounds is None:
            rounds = max(1, round(seconds * BASE_SHARE * BASE_RATE / SERVE_ROUND))
        base = _phase(daemon.port, seed, 0, rounds, BASE_RATE, probes)
        sent = list(base)
        ladder_budget = seconds * (1.0 - BASE_SHARE) if seconds else 0.0
        if ladder_budget:
            rate = _ladder(daemon.port, seed, rounds, base, probes, sent, ladder_budget,
                           result.notes)
            # As measured: the stall that sets it is a kernel timer.
            result.metrics["max_rate_per_s"] = (rate, "1/s")
            result.raw["max_rate_per_s"] = rate
        if layers:
            layers.serve_http(base, daemon.get("/metrics"))
    finally:
        daemon.stop()
    reference = _Reference(layers)
    try:
        check_all(sent, result, reference)
    finally:
        reference.close()
    result.metrics["setup_s"] = (
        statistics.median(setup_raw) * spawn_probes.median_factor(), "s"
    )
    result.raw["setup_s"] = statistics.median(setup_raw)
    result.metrics["peak_rss_mb"] = (daemon.peak_rss_mb, "MB")
    timings = [Timing(i.latency_ms, i.due, i.done) for i in base if not _failed(i)]
    return timings, probes


def _ladder(port, seed, first_round, base, probes, sent, budget, notes):
    """The capacity the ladder finds (requests/s, as measured).

    Rates rise until a rung lets a backlog grow or misses the latency
    limit; the figure is the throughput the connections sustained at
    that rung (never more than it offered), so it does not jump between
    rungs from run to run.  With no failing rung, the highest rung
    that passed.
    """
    passing, failing, measured = 0.0, BASE_RATE, base
    if _step_passes(base, probes):
        passing, failing = BASE_RATE, None
        started = time.perf_counter()
        for index, rate in enumerate(LADDER):
            if time.perf_counter() - started > budget:
                break
            step = _phase(
                port, seed, first_round + index * LADDER_ROUNDS, LADDER_ROUNDS, rate, probes
            )
            sent.extend(step)
            if not _step_passes(step, probes):
                failing, measured = rate, step
                break
            passing = rate
    if failing is None:
        notes.append(f"ladder: every rung up to {passing:g}/s passed")
        return passing
    capacity = min(_step_capacity(measured), failing)
    notes.append(
        f"ladder: passes {passing:g}/s, fails {failing:g}/s, sustaining {capacity:.4g}/s there"
    )
    return capacity
