"""The ``serve`` and ``serve-cold`` workloads: HTTP clients against the daemon.

``python -m repro serve --port 0 --quiet`` runs in its own process.  The
load comes from this process as a closed loop of :data:`CLIENTS` clients,
each on one persistent HTTP/1.1 connection (``http.client``'s default;
no socket option is set on the client side).  ``serve`` sends

- 80% ``/v1/evaluate`` on a warm working set of 32 model documents
  (fits the daemon's 64-entry model LRU);
- 5% ``/v1/evaluate`` on a document never sent before (cold path);
- 10% ``/v1/sweep``, symbolic, 64 points;
- 5% ``/v1/batch``, 16 entries;

``serve-cold`` sends only ``/v1/evaluate`` on documents never sent
before: every request parses, fingerprints, derives and compiles, and
inserts into (and evicts from) the daemon's caches.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from common import (
    ROOT,
    Ledger,
    Tracer,
    absorb_checks,
    child_env,
    close,
    median,
    overhead_share,
)
from inputs import Generator, Model
from oracle import Oracle

CLIENTS = 2
#: workload -> (one deck of request kinds, cold documents generated
#: before timing per second of load).  A deck holds the mix shares
#: exactly: ``serve`` is 80% warm evaluate, 5% cold evaluate, 10% sweep,
#: 5% batch.
MIXES = {
    "serve": (("evaluate",) * 16 + ("cold", "sweep", "sweep", "batch"), 10),
    "serve-cold": (("cold",) * 20, 60),
}
WARM_KINDS = ("local",) * 12 + ("remote",) * 12 + ("pipeline",) * 4 + ("booking",) * 4
POINTS_PER_MODEL = 4
SWEEP_POINTS = 64
BATCH_ENTRIES = 16
BATCH_BODIES = 32
SETUP_SPAWNS = 5
HEADERS = {"Content-Type": "application/json"}


@dataclass
class Request:
    """One pre-encoded request body and the oracle its response must meet."""

    path: str
    body: bytes
    points: int
    expected: np.ndarray
    model: Model | None = None  # set on single-model evaluate requests

    def verify(self, status: int, data: bytes) -> tuple[bool, str]:
        if status != 200:
            return False, f"{self.path}: HTTP {status}"
        try:
            document = json.loads(data)
            if self.path == "/v1/batch":
                got = [entry["pfail"] for entry in document["entries"]]
            else:
                got = document["pfail"]
        except (ValueError, KeyError, TypeError) as exc:
            return False, f"{self.path}: malformed response ({exc!r})"
        if not close(got, self.expected):
            return False, f"{self.path}: Pfail off its oracle"
        return True, ""


def _evaluate_request(model: Model, value: float, oracle: Oracle) -> Request:
    body = {"model": model.doc, "service": model.service, "actuals": model.point(value)}
    return Request("/v1/evaluate", json.dumps(body).encode(), 1,
                   oracle.expected(model, [value]), model)


class Inputs:
    """Every request body of one run, built and checked before timing."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.deck, cold_per_second = MIXES[workload]
        self.gen = Generator(seed)
        self.oracle = Oracle()
        self.models = [self.gen.model(kind) for kind in WARM_KINDS]
        self.values = {}
        for model in self.models:
            self.values[model.key] = self.gen.values(model, POINTS_PER_MODEL)
            self.oracle.prepare(model, self.values[model.key])
        self.evaluate = [
            _evaluate_request(model, value, self.oracle)
            for model in self.models
            for value in self.values[model.key]
        ]
        self.sweep = [
            self._sweep_request(model)
            for model in self.models
            if model.kind in ("local", "remote")
        ]
        self.batch = [self._batch_request() for _ in range(BATCH_BODIES)]
        self.cold = [
            self._cold_request() for _ in range(int(cold_per_second * seconds) + 64)
        ]
        self._cold_lock = threading.Lock()
        self.cold_generated_late = 0

    def _sweep_request(self, model: Model) -> Request:
        stop = self.gen.grid_stop(model)
        body = {
            "model": model.doc, "service": model.service,
            "parameter": model.parameter, "start": 1, "stop": stop,
            "points": SWEEP_POINTS, "fixed": model.fixed, "method": "symbolic",
        }
        grid = np.linspace(1, stop, SWEEP_POINTS)
        return Request("/v1/sweep", json.dumps(body).encode(), SWEEP_POINTS,
                       self.oracle.expected(model, grid))

    def _batch_request(self) -> Request:
        entries, expected = [], []
        for _ in range(BATCH_ENTRIES):
            model = self.gen.choice(self.models)
            value = self.gen.choice(self.values[model.key])
            entries.append({"model": model.doc, "service": model.service,
                            "actuals": model.point(value)})
            expected.append(self.oracle.expected(model, [value])[0])
        return Request("/v1/batch", json.dumps({"requests": entries}).encode(),
                       BATCH_ENTRIES, np.array(expected))

    def _cold_request(self) -> Request:
        model = self.gen.model(self.gen.choice(("local", "remote")))
        self.values[model.key] = self.gen.values(model, 1)
        return _evaluate_request(model, self.values[model.key][0], self.oracle)

    def take_cold(self) -> Request:
        """A request on a document never sent before."""
        with self._cold_lock:
            if self.cold:
                return self.cold.pop()
            self.cold_generated_late += 1
            return self._cold_request()

    def pick(self, kind: str, rng: random.Random) -> Request:
        if kind == "cold":
            return self.take_cold()
        return rng.choice(getattr(self, kind))

    def warmup(self) -> list[Request]:
        """One request of every warm body the deck draws from (the warm
        set's first point, every sweep, a few batches), or a few cold
        documents for an all-cold deck."""
        if "evaluate" not in self.deck:
            return [self.take_cold() for _ in range(8)]
        first = [self.evaluate[i * POINTS_PER_MODEL] for i in range(len(self.models))]
        return first + self.sweep + self.batch[:2]


# -- the daemon process ----------------------------------------------------------

PR_SET_PDEATHSIG = 1
_prctl = ctypes.CDLL(None, use_errno=True).prctl if sys.platform == "linux" else None


def _die_with_parent() -> None:
    """Runs in the daemon before exec: the kernel sends it SIGTERM if
    this process dies without stopping it (Linux only)."""
    _prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def spawn_server() -> tuple[subprocess.Popen, int]:
    """Start the daemon; return it and its port once it is listening."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet"],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        preexec_fn=_die_with_parent if _prctl is not None else None,
    )
    banner = proc.stderr.readline()
    match = re.search(r"listening on http://[\d.]+:(\d+)", banner)
    if match is None:
        stop_server(proc)
        raise RuntimeError(f"daemon did not start: {banner!r}")
    return proc, int(match.group(1))


def stop_server(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.communicate(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def peak_rss_mb(pid: int) -> float:
    """The process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


def get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


# -- the load ---------------------------------------------------------------------


def _send(conn: http.client.HTTPConnection, request: Request) -> tuple[int, bytes]:
    conn.request("POST", request.path, request.body, HEADERS)
    response = conn.getresponse()
    return response.status, response.read()


def _client(port, requests, ledger: Ledger, tracer: Tracer, client: int) -> None:
    """Send ``requests`` (an iterator) back to back on one connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for number, request in enumerate(requests):
            with tracer.span("client.request", request=f"{client}-{number}"):
                started = time.perf_counter()
                try:
                    with tracer.span("client.send"):
                        status, data = _send(conn, request)
                except (OSError, http.client.HTTPException) as exc:
                    # a lost connection fails the op; the client reconnects
                    ledger.record(False, 0.0, 0, f"{request.path}: {exc!r}")
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                    continue
                latency = time.perf_counter() - started
                with tracer.span("client.verify"):
                    ok, why = request.verify(status, data)
                ledger.record(ok, latency, request.points, why)
    finally:
        conn.close()


def _mixed(inputs: Inputs, rng: random.Random, deadline: float):
    """Requests in shuffled decks, so every run holds the mix shares
    exactly, whatever the seed."""
    while True:
        deck = list(inputs.deck)
        rng.shuffle(deck)
        for kind in deck:
            if time.perf_counter() >= deadline:
                return
            yield inputs.pick(kind, rng)


def run_clients(port: int, streams, tracer: Tracer) -> tuple[Ledger, float]:
    """Run one client thread per request stream; return the merged
    ledger and the wall time."""
    ledgers = [Ledger() for _ in streams]
    threads = [
        threading.Thread(target=_client, args=(port, stream, ledger, tracer, i),
                         daemon=True)
        for i, (stream, ledger) in enumerate(zip(streams, ledgers))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    total = Ledger()
    for ledger in ledgers:
        total.merge(ledger)
    return total, wall


def load(port: int, inputs: Inputs, seed: int, seconds: float, tracer: Tracer):
    deadline = time.perf_counter() + seconds
    streams = [
        _mixed(inputs, random.Random(seed * 1000 + client), deadline)
        for client in range(CLIENTS)
    ]
    return run_clients(port, streams, tracer)


def warm(port: int, inputs: Inputs) -> Ledger:
    requests = inputs.warmup()
    streams = [iter(requests[i::CLIENTS]) for i in range(CLIENTS)]
    return run_clients(port, streams, Tracer(enabled=False))[0]


# -- the workload entry points --------------------------------------------------


def measure_setup(first: Request, checks: Ledger) -> tuple[float, subprocess.Popen, int]:
    """Median spawn → first correct result over :data:`SETUP_SPAWNS`
    daemons; the last one stays up for the load."""
    samples = []
    for attempt in range(SETUP_SPAWNS):
        started = time.perf_counter()
        proc, port = spawn_server()
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            ok, why = first.verify(*_send(conn, first))
        except BaseException:
            stop_server(proc)
            raise
        finally:
            conn.close()
        samples.append(time.perf_counter() - started)
        checks.check(ok, f"setup: {why}")
        if attempt < SETUP_SPAWNS - 1:
            stop_server(proc)
    return median(samples), proc, port


def run(workload: str, seed: int, seconds: float) -> tuple[Ledger, dict, dict]:
    """The untraced run: end-to-end metrics."""
    inputs = Inputs(workload, seed, seconds)
    checks = Ledger()
    setup_s, proc, port = measure_setup(inputs.evaluate[0], checks)
    try:
        checks.merge(warm(port, inputs))
        ledger, wall = load(port, inputs, seed, seconds, Tracer(enabled=False))
        rss = peak_rss_mb(proc.pid)
    finally:
        stop_server(proc)
    absorb_checks(ledger, checks)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": ledger.p50_ms(),
        "requests_per_s": len(ledger.latencies) / wall,
        "points_per_s": ledger.points / wall,
        "peak_rss_mb": rss,
    }
    return ledger, metrics, {"cold_generated_late": inputs.cold_generated_late}


def run_traced(workload: str, seed: int, seconds: float,
               tracer: Tracer) -> tuple[Ledger, dict, dict]:
    """The traced run: per-layer metrics of the daemon path.

    The ``serve`` run also carries the probes of the robust-chain,
    solver, pool, shared-memory and campaign layers, which no listed
    workload reaches (the ``robust`` and ``parallel`` workloads are not
    steady enough to list; see the README).
    """
    import inproc
    import layers

    inputs = Inputs(workload, seed, seconds)
    checks = Ledger()
    proc, port = spawn_server()
    try:
        checks.merge(warm(port, inputs))
        untraced, _ = load(port, inputs, seed, seconds / 2, Tracer(enabled=False))
        before = get_json(port, "/v1/cache-stats")
        traced, _ = load(port, inputs, seed + 1, seconds / 2, tracer)
        after = get_json(port, "/v1/cache-stats")
        side = get_json(port, "/metrics")["histograms"]["server.request.seconds"]
    finally:
        stop_server(proc)
    ledger = Ledger()
    ledger.merge(untraced)
    ledger.merge(traced)
    absorb_checks(ledger, checks)

    requests = after["server"]["requests"] - before["server"]["requests"]
    side_p50_ms = side["p50"] * 1e3
    metrics = {
        "server.side_p50_ms": side_p50_ms,
        "server.wire_ms": untraced.p50_ms() - side_p50_ms,
        "server.coalesced_share": (
            after["server"]["coalesced"] - before["server"]["coalesced"]
        ) / requests,
        "server.shed": float(after["server"]["shed"] - before["server"]["shed"]),
        "model_cache.hit_ratio": layers.hit_ratio(before["model"], after["model"]),
        "plan_cache.hit_ratio": layers.hit_ratio(before["plan"], after["plan"]),
        "kernel_cache.hit_ratio": layers.hit_ratio(before["kernel"], after["kernel"]),
        "plan.compilations_per_op": (
            after["plan"]["misses"] - before["plan"]["misses"]
        ) / requests,
        "trace.overhead_share": overhead_share(traced, untraced),
    }
    cold = [inputs.take_cold() for _ in range(8)]
    if workload == "serve":
        sample = inputs.evaluate[::8] + inputs.sweep[::6] + inputs.batch[:2] + cold[:4]
        models = inputs.models[::4]
    else:
        sample = cold
        models = [request.model for request in cold]
    metrics.update(layers.probe_server(tracer, [(r.path, r.body) for r in sample]))
    metrics.update(layers.probe_documents(tracer, models))
    metrics.update(layers.probe_plans(tracer, models, inputs.values))
    if workload == "serve":
        metrics.update(_probe_batch_and_sweep(tracer, inputs))
        metrics.update(inproc.Robust(seed).path_probes(tracer))
    return ledger, metrics, {"cold_generated_late": inputs.cold_generated_late}


def _probe_batch_and_sweep(tracer: Tracer, inputs: Inputs) -> dict:
    """Batch and sweep overheads on one ``/v1/batch`` body and one sweep
    model of this run, through the in-process engine."""
    import layers
    from repro.dsl import assembly_from_dict
    from repro.engine import BatchEngine, BatchRequest

    entries = json.loads(inputs.batch[0].body)["requests"]
    assemblies = {}
    requests = []
    for entry in entries:
        key = json.dumps(entry["model"], sort_keys=True)
        if key not in assemblies:
            assemblies[key] = assembly_from_dict(entry["model"])
        requests.append(BatchRequest(assemblies[key], entry["service"], entry["actuals"]))
    stats = BatchEngine(jobs=1).run(requests).stats
    model = next(m for m in inputs.models if m.kind in ("local", "remote"))
    return {
        "batch.fused_share": stats.fused_entries / stats.entries,
        **layers.probe_batch_overhead(tracer, requests),
        **layers.probe_sweep_overhead(tracer, model, np.linspace(1, 1000, SWEEP_POINTS)),
    }
