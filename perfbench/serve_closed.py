"""``serve_closed``: two closed-loop clients against ``repro serve``.

Set-up starts ``python -m repro serve`` with default settings on a unix
socket in its own process (its elaboration disk cache is the run's empty
``REPRO_ENGINE_CACHE``) and ends when the server answers ``GET /``.
Two client threads in this process then each run whole rounds, every
round a seeded shuffle of

* 12 ``measure``, 4 ``sim`` and 4 ``errors`` requests drawn from fixed
  pools of 6, 6 and 4 design points, so points repeat and warm state is
  used;
* 3 malformed requests: ``Content-Length: abc``, ``Content-Length: -5``
  and a body one byte over ``MAX_BODY_BYTES``.  A well-formed 4xx answer
  counts as success; no answer, or a broken one, as a failed operation.

A client sends its next request only when the previous one has been
answered, so throughput measures the server, not an arrival schedule.
``measure`` requests are 60 % of the well-formed ones, so the median is
a ``measure`` request.  Warm requests of all three kinds cost about the
same, so the tail is the slowest few percent of every kind.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import checks
from common import (
    ROOT,
    Checker,
    Context,
    Deadline,
    Outcome,
    class_report,
    cpu_stat,
    peak_rss_mib,
    percentile,
    pid_cpu_seconds,
    pid_peak_rss_mib,
)

MEASURE_POINTS = (
    ("vlcsa1", 16, 6), ("vlcsa2", 16, 6), ("scsa1", 32, 8),
    ("vlcsa1", 32, 8), ("kogge_stone", 32, None), ("designware", 16, None),
)
#: (architecture, width, vectors, seed) of the ``sim`` pool.
SIM_POINTS = (
    ("scsa1", 32, 64, 1), ("vlcsa1", 32, 16, 2), ("vlcsa1", 64, 64, 1),
    ("vlcsa2", 32, 64, 3), ("kogge_stone", 64, 16, 2), ("designware", 32, 64, 1),
)
ERRORS_COUNTERS = ["scsa1", "vlcsa2", "vlcsa2_stall"]
#: (width, distribution, seed) of the ``errors`` pool.  Gaussian operands
#: (sigma 2^32) need n >= 36: below that the server answers 500 on every
#: seed (see CHANGES.md), so those points stay out.
ERRORS_POINTS = ((32, "uniform", 1), (64, "uniform", 2), (64, "gaussian", 1), (64, "gaussian", 3))
ROUND = {"measure": 12, "sim": 4, "errors": 4}
MALFORMED = ("length-not-a-number", "length-negative", "body-too-large")
CONNECT_TIMEOUT_S = 60.0
IO_TIMEOUT_S = 30.0

#: Percentile behind ``tail_ms``: a 15 s run answers >= 500 well-formed
#: requests (900 to 2100 on the reference machine, fewer the more CPU
#: time the host takes), so at least ten lie beyond it.
TAIL_Q = 98.0


class Closed(Exception):
    """The server closed the connection without a complete answer."""


class Connection:
    """A minimal HTTP/1.1 client over the server's unix socket."""

    def __init__(self, path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(IO_TIMEOUT_S)
        self.sock.connect(path)
        self.buf = b""

    def close(self) -> None:
        self.sock.close()

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise Closed()
        self.buf += chunk

    def read_response(self) -> Tuple[int, bytes]:
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, self.buf = self.buf.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        while len(self.buf) < length:
            self._fill()
        body, self.buf = self.buf[:length], self.buf[length:]
        return status, body

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: repro\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.sock.sendall(head.encode("latin-1") + body)
        return self.read_response()


def _get_json(path: str, route: str) -> dict:
    conn = Connection(path)
    try:
        status, body = conn.request("GET", route)
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET {route} answered {status}")
    return json.loads(body)


def malformed_requests(max_body: int) -> Dict[str, bytes]:
    """The malformed slice, built once per run."""
    head = "POST /v1/eval HTTP/1.1\r\nHost: repro\r\nContent-Type: application/json\r\n"
    return {
        "length-not-a-number": (head + "Content-Length: abc\r\n\r\n{}").encode("latin-1"),
        "length-negative": (head + "Content-Length: -5\r\n\r\n{}").encode("latin-1"),
        "body-too-large": (head + f"Content-Length: {max_body + 1}\r\n\r\n").encode("latin-1")
        + b" " * (max_body + 1),
    }


def _malformed(path: str, data: bytes) -> bool:
    """Send one malformed request on a fresh connection; True when the
    server answers it with a well-formed 4xx."""
    conn = Connection(path)
    try:
        try:
            conn.sock.sendall(data)
        except OSError:
            pass  # the server may stop reading early; its answer still counts
        status, body = conn.read_response()
        return checks.well_formed_rejection(status, body)
    except (Closed, OSError, ValueError, IndexError):
        return False
    finally:
        conn.close()


def _pools() -> Dict[str, List[dict]]:
    """The fixed design points the clients draw their requests from."""
    measure = []
    for arch, width, window in MEASURE_POINTS:
        params = {"architecture": arch, "width": width}
        if window is not None:
            params["window"] = window
        measure.append({"kind": "measure", "params": params, "seed": 0})
    sim = [
        {"kind": "sim", "seed": seed,
         "params": {"architecture": arch, "width": width, "vectors": vectors, "backend": "auto"}}
        for arch, width, vectors, seed in SIM_POINTS
    ]
    errors = [
        {"kind": "errors", "seed": seed,
         "params": {"width": width, "window": 8, "samples": 4096, "distribution": dist,
                    "counters": ERRORS_COUNTERS}}
        for width, dist, seed in ERRORS_POINTS
    ]
    return {"measure": measure, "sim": sim, "errors": errors}


def _round(rng: random.Random, pools) -> List[object]:
    items: List[object] = []
    for kind, count in ROUND.items():
        items += [rng.choice(pools[kind]) for _ in range(count)]
    items += list(MALFORMED)
    rng.shuffle(items)
    return items


def _body(request: dict) -> bytes:
    return json.dumps({"proto": 1, **request}, sort_keys=True).encode()


def setup(ctx: Context):
    sock = os.path.relpath(ctx.path("serve.sock"), ROOT)
    stderr = open(ctx.path("serve.stderr"), "ab")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--uds", sock],
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=stderr,
    )
    state = {"proc": proc, "sock": sock, "stderr": stderr}
    deadline = time.monotonic() + CONNECT_TIMEOUT_S
    while True:
        try:
            _get_json(sock, "/")
            state["child_cpu_s"] = pid_cpu_seconds(proc.pid)
            state["coalesce_ms"] = _coalesce_ms(ctx.path("serve.stderr"))
            return state
        except (OSError, Closed, RuntimeError):
            if proc.poll() is not None or time.monotonic() > deadline:
                teardown(state)
                raise RuntimeError("repro serve did not come up")
            time.sleep(0.002)


def _coalesce_ms(stderr_path: str) -> float:
    """The coalescing window the running server announced at start-up."""
    with open(stderr_path, "rb") as handle:
        found = re.search(rb"coalesce ([0-9.]+) ms", handle.read())
    if found is None:
        from repro.serve.server import ServeConfig

        return ServeConfig().coalesce_ms
    return float(found.group(1))


def teardown(state) -> None:
    proc = state["proc"]
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    state["stderr"].close()


class _Client(threading.Thread):
    """One closed-loop client: whole rounds until the deadline.

    Each 200 body is validated as it arrives; of each distinct request
    only the first result is kept, and later answers to the same request
    must equal it (the main thread then checks the first one against the
    in-process engine), so memory does not grow with the run.
    """

    def __init__(self, index: int, ctx: Context, sock: str, pools, deadline: Deadline,
                 malformed: Dict[str, bytes], plant: Optional[str]):
        super().__init__(name=f"client-{index}")
        self.rng = random.Random(f"{ctx.seed}-client-{index}")
        self.sock, self.pools, self.deadline = sock, pools, deadline
        self.malformed, self.plant = malformed, plant
        self.checker = Checker()
        self.first: Dict[str, Tuple[dict, dict]] = {}
        self.latencies: List[Tuple[str, float]] = []
        self.attempted = self.failed = self.ok = self.rounds = 0
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            conn = Connection(self.sock)
            try:
                while not self.deadline.expired():
                    self.rounds += 1
                    for item in _round(self.rng, self.pools):
                        conn = self._one(conn, item)
            finally:
                conn.close()
        except Exception as exc:  # re-raised by the main thread
            self.error = exc

    def _one(self, conn: Connection, item) -> Connection:
        self.attempted += 1
        if isinstance(item, str):
            if not _malformed(self.sock, self.malformed[item]):
                self.failed += 1
            return conn
        start = time.perf_counter()
        try:
            status, body = conn.request("POST", "/v1/eval", _body(item))
        except (Closed, OSError):
            self.failed += 1
            conn.close()
            return Connection(self.sock)
        self.latencies.append((item["kind"], time.perf_counter() - start))
        if status == 200:
            self.ok += 1
        else:
            self.failed += 1
        if self.plant == "bad_body" and status == 200:
            body, self.plant = body[: len(body) // 2], None
        result = self.checker.run(
            "200 answers carry a well-formed result", checks.ok_body, status, body, item["kind"]
        )
        if result is not None:
            key = json.dumps(item, sort_keys=True)
            if key not in self.first:
                self.first[key] = (item, result)
            else:
                self.checker.run(
                    "repeated request gives the same result",
                    checks.result_matches, result, self.first[key][1], key,
                )
        return conn


def _reference(item: dict) -> dict:
    """The same computation run in-process through :mod:`repro.engine`."""
    params = item["params"]
    if item["kind"] == "errors":
        from repro.engine import MonteCarloErrorJob, run_jobs

        job = MonteCarloErrorJob(
            width=params["width"], window=params["window"], samples=params["samples"],
            distribution=params["distribution"], seed=item["seed"],
            counters=tuple(params["counters"]),
        )
        agg = run_jobs([job])[0].aggregate
        counts = {k: getattr(agg, k) for k in
                  ("samples", "scsa1_errors", "vlcsa1_nominal", "vlcsa2_errors", "vlcsa2_stalls")}
        counts["scsa1_error_rate"] = agg.rate("scsa1_errors")
        counts["vlcsa2_error_rate"] = agg.rate("vlcsa2_errors")
        counts["vlcsa2_stall_rate"] = agg.rate("vlcsa2_stalls")
        return counts
    if item["kind"] == "measure":
        from repro.engine import measure_design

        m = measure_design(params["architecture"], params["width"], params.get("window"))
        return {k: getattr(m, k) for k in
                ("delay", "area", "gates", "t_spec", "t_detect", "t_recover")}
    from repro.engine.elab import simulate_design

    out = simulate_design(
        params["architecture"], params["width"], params.get("window"),
        vectors=params["vectors"], seed=item["seed"], backend=params["backend"],
    )
    return {k: out[k] for k in ("digest", "err_count") if k in out}


def _server_cpu_s(pid: int) -> float:
    """CPU seconds of the server and its reaped children (``git`` etc.)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return sum(int(v) for v in fields[11:15]) / os.sysconf("SC_CLK_TCK")


def _metric_counters(sock: str) -> dict:
    obs = _get_json(sock, "/metrics")["obs"]
    counters = dict(obs.get("counters", {}))
    busy = sum(v for k, v in obs.get("timers_s", obs.get("timers", {})).items()
               if k.startswith("shard") and k.endswith(".busy"))
    return {"counters": counters, "busy_s": busy}


def run(ctx: Context, state) -> Outcome:
    from repro.serve.server import MAX_BODY_BYTES

    sock = state["sock"]
    pools = _pools()
    # Untimed warm-up: every pooled request once, so elaboration and
    # compilation happen before the timed rounds.
    conn = Connection(sock)
    try:
        for kind in ("measure", "sim", "errors"):
            for item in pools[kind]:
                conn.request("POST", "/v1/eval", _body(item))
    finally:
        conn.close()

    malformed = malformed_requests(MAX_BODY_BYTES)
    before = _metric_counters(sock)
    server_cpu = _server_cpu_s(state["proc"].pid)
    busy_before, steal_before = cpu_stat()
    deadline = Deadline(ctx.seconds)
    clients = [
        _Client(i, ctx, sock, pools, deadline, malformed, ctx.plant if i == 0 else None)
        for i in range(2)
    ]
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    wall = time.perf_counter() - deadline.start
    busy_after, steal_after = cpu_stat()
    for client in clients:
        if client.error is not None:
            raise client.error
    server_cpu = _server_cpu_s(state["proc"].pid) - server_cpu
    after = _metric_counters(sock)
    server_rss = pid_peak_rss_mib(state["proc"].pid)

    checker = Checker()
    for client in clients:
        checker.checks += client.checker.checks
        checker.failures += client.checker.failures
    expected: Dict[str, dict] = {}
    for client in clients:
        for key, (item, result) in sorted(client.first.items()):
            if key not in expected:
                expected[key] = _reference(item)
            checker.run(
                f"served {item['kind']} == in-process engine",
                checks.result_matches, result, expected[key], key,
            )

    latencies = [op for c in clients for op in c.latencies]
    times = [seconds for _, seconds in latencies]
    rounds = sum(c.rounds for c in clients)
    delta = {
        k: after["counters"].get(k, 0) - before["counters"].get(k, 0)
        for k in set(after["counters"]) | set(before["counters"])
    }
    busy_s = after["busy_s"] - before["busy_s"]
    with open(ctx.path("serve.stderr"), "rb") as handle:
        tracebacks = handle.read().count(b"Traceback")
    hits, misses = delta.get("cache_hits", 0), delta.get("cache_misses", 0)
    batches = delta.get("serve.batches", 0)
    # The host takes CPU time away from this machine (steal) at a rate
    # that changes from run to run.  A request's wall latency is the
    # server's coalescing wait plus work that steal stretches by
    # 1 / kept, where kept is the share of the CPU time the machine
    # asked for that it got.  Latencies are reported with the stretch
    # taken out, throughput per CPU second of the server.
    stolen = steal_after - steal_before
    kept = 1.0 - stolen / (stolen + busy_after - busy_before)
    wait = state["coalesce_ms"]

    def unstretched(ms: float) -> float:
        return wait + (ms - wait) * kept

    wall_p50 = percentile(times, 50) * 1e3
    wall_tail = percentile(times, TAIL_Q) * 1e3
    answered = sum(c.ok for c in clients)
    outcome = Outcome(
        attempted=sum(c.attempted for c in clients),
        failed=sum(c.failed for c in clients),
        e2e={
            "work_per_s": answered / server_cpu,
            "p50_ms": unstretched(wall_p50),
            "tail_ms": unstretched(wall_tail),
            "peak_rss_mib": peak_rss_mib() + server_rss,
        },
        layers={
            **{
                f"serve.client.{kind}_p50_ms": percentile(
                    [s for k, s in latencies if k == kind], 50) * 1e3
                for kind in ROUND
            },
            "serve.shard_busy_s": busy_s / rounds,
            "serve.overhead_ms": 1e3 * (sum(times) - busy_s) / len(times),
            "serve.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "serve.coalescing_factor": (
                delta.get("serve.batch_requests", 0) / batches if batches else 0.0
            ),
            "serve.rejected": (delta.get("serve.bad_requests", 0) + delta.get("serve.shed", 0))
            / rounds,
            "serve.stderr_tracebacks": tracebacks / rounds,
        },
        checker=checker,
        info={"rounds": rounds, "requests": len(times), "tail_q": TAIL_Q,
              "kept_cpu_share": round(kept, 4), "coalesce_ms": wait,
              "wall_requests_per_s": answered / wall, "wall_p50_ms": wall_p50,
              "wall_tail_ms": wall_tail,
              "malformed_failed": sum(c.failed for c in clients),
              "server_peak_rss_mib": server_rss,
              "server_cpu_ms_per_request": 1e3 * server_cpu / len(times),
              "mix": class_report(latencies, (50, TAIL_Q))},
    )
    return outcome
