"""serve-mix: load on ``repro``'s HTTP service, from this process.

The service runs in a child process (``launcher.py``).  Four datasets
are registered over the wire; then

* phase 1 sends a seeded Poisson schedule at :data:`RATE` requests per
  second from two sender threads, each with one keep-alive connection,
  and times every request from when it was due;
* phase 2 keeps both connections busy (closed loop) and counts
  completions per second — the capacity figure.

Every response is checked afterwards against the library's answer for
the same request on the same dataset version.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from measure import Sent, percentile, poisson_schedule, run_open_loop, tail
from workloads import error_rate, pairs, uniform_set, zipf_set

from repro import ParticleSet, SDHRequest, compute_sdh
from repro.physics.rdf import rdf_from_histogram

HERE = os.path.dirname(os.path.abspath(__file__))
#: Nominal phase-1 arrival rate, requests per second.
RATE = 6.0
#: Share of the run spent in phase 1; the rest is phase 2.
PHASE1_SHARE = 0.75
#: Latency limit for goodput (ms).  It lives here because the keys of
#: ``BENCHMARK.json`` are fixed by its schema.
GOODPUT_LIMIT_MS = 1000.0
#: Phase-2 requests in a traced run (fixed, so its counts repeat).
TRACE_PHASE2_REQUESTS = 40
SENDERS = 2
SETUPS = 3

DATASETS = (("u2", "uniform", 2), ("u3", "uniform", 3),
            ("z2", "zipf", 2), ("z3", "zipf", 3))
N = 1000
#: Request mix, as the classes of one block of 20 requests: 60 % repeat,
#: 25 % rebucket, 5 % each batch, rdf and write.  Each block is shuffled
#: by the seed, so every run sends the same shares and seeds differ only
#: in order and content.
BLOCK = ("repeat",) * 12 + ("rebucket",) * 5 + ("batch", "rdf", "write")
#: Repeats draw from this many most recent rebucket requests: the hot
#: set a cache exists for.
HOT = 16
#: Bucket-count ranges rebuckets cycle through.
STRATA = ((4, 16), (16, 48), (48, 96), (96, 129))
#: RDFs go to the 2D datasets only: the first 3D RDF on a box pays a
#: one-off quadrature of 10-18 s in the server, which would swamp a run.
RDF_DATASETS = ("u2", "z2")
RDF_BUCKETS = (25, 50, 100)
#: Alias of the copy registered in set-up to warm RDF normalization.
WARMUP = "warmup"


def datasets(seed: int) -> dict[str, ParticleSet]:
    out = {}
    for tag, (alias, kind, dim) in enumerate(DATASETS, start=10):
        make = uniform_set if kind == "uniform" else zipf_set
        out[alias] = make(seed, tag, N, dim)
    return out


def _register_body(alias: str, data: ParticleSet, build: bool) -> bytes:
    body = {
        "name": alias,
        "positions": data.positions.tolist(),
        "box": {"lo": list(data.box.lo), "hi": list(data.box.hi)},
    }
    if build:
        body["build"] = True
    return json.dumps(body).encode()


@dataclass
class Request:
    """One request of the mix, with what its check needs."""

    rid: str
    cls: str
    path: str
    body: bytes
    queries: list[dict] = field(default_factory=list)
    version: ParticleSet | None = None


class Mix:
    """The seeded request sequence: same seed, same requests."""

    def __init__(self, seed: int, data: dict[str, ParticleSet]):
        self._rng = np.random.default_rng([seed, 100])
        self.versions = {alias: [ps] for alias, ps in data.items()}
        self._history: list[tuple[str, dict]] = []
        self._used: dict[str, set] = {alias: set() for alias in data}
        self._count = 0
        self._rebuckets = 0
        self._block: list[str] = []

    def _new_spec(self, alias: str, index: int) -> dict:
        """A spec not asked before on ``alias``.  Bucket counts cycle
        through :data:`STRATA` and alternate with widths, so each block's
        computed work is alike whatever the seed."""
        rng = self._rng
        low, high = STRATA[index % len(STRATA)]
        for _ in range(1000):
            buckets = int(rng.integers(low, high))
            if index // len(STRATA) % 2:
                diagonal = self.versions[alias][0].dim ** 0.5
                spec = {"bucket_width": round(diagonal / buckets, 4)}
            else:
                spec = {"num_buckets": buckets}
            key = json.dumps(spec, sort_keys=True)
            if key not in self._used[alias]:
                self._used[alias].add(key)
                return spec
        raise RuntimeError("rebucket specs exhausted")

    def next(self) -> Request:
        rng = self._rng
        if not self._block:
            self._block = [BLOCK[i] for i in rng.permutation(len(BLOCK))]
        cls = self._block.pop()
        if cls == "repeat" and not self._history:
            cls = "rebucket"
        rid = f"{cls}-{self._count}"
        self._count += 1
        aliases = list(self.versions)
        if cls == "repeat":
            hot = self._history[-HOT:]
            alias, spec = hot[int(rng.integers(len(hot)))]
            return self._sdh(rid, cls, alias, spec)
        if cls == "rebucket":
            index = self._rebuckets
            self._rebuckets += 1
            alias = aliases[index % len(aliases)]
            spec = self._new_spec(alias, index // len(aliases))
            self._history.append((alias, spec))
            return self._sdh(rid, cls, alias, spec)
        if cls == "batch":
            alias = aliases[int(rng.integers(len(aliases)))]
            specs = [{"num_buckets": int(rng.integers(4, 129))}
                     for _ in range(4)]
            body = {"dataset": alias, "queries": specs}
            return Request(rid, cls, "/v1/sdh/batch",
                           json.dumps(body).encode(), specs)
        if cls == "rdf":
            alias = RDF_DATASETS[int(rng.integers(len(RDF_DATASETS)))]
            nb = RDF_BUCKETS[int(rng.integers(len(RDF_BUCKETS)))]
            body = {"dataset": alias, "num_buckets": nb}
            return Request(rid, cls, "/v1/rdf", json.dumps(body).encode(),
                           [{"num_buckets": nb}])
        # write: re-register a perturbed copy under the same alias.
        alias = aliases[int(rng.integers(len(aliases)))]
        last = self.versions[alias][-1]
        points = last.positions.copy()
        moved = rng.choice(len(points), size=len(points) // 100,
                           replace=False)
        points[moved] += rng.normal(0.0, 0.01, size=(len(moved), last.dim))
        points = np.clip(points, 0.0, np.nextafter(1.0, 0.0))
        version = ParticleSet(points, last.box)
        self.versions[alias].append(version)
        return Request(rid, cls, "/v1/datasets",
                       _register_body(alias, version, build=False),
                       version=version)

    def _sdh(self, rid: str, cls: str, alias: str, spec: dict) -> Request:
        body = dict(spec, dataset=alias)
        return Request(rid, cls, "/v1/sdh", json.dumps(body).encode(),
                       [spec])


class _NoDelayConnection(http.client.HTTPConnection):
    """``http.client`` writes a request's headers and body in two
    ``send`` calls; with Nagle's algorithm on, the body would wait for
    the server's delayed ACK of the headers (~40 ms) whenever requests
    run back to back.  The load generator turns Nagle off, so any such
    stall that remains is the server's."""

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class Connection:
    """One keep-alive HTTP connection to the server."""

    def __init__(self, port: int):
        self._conn = _NoDelayConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, body: bytes | None = None,
             rid: str | None = None) -> tuple[int, Any]:
        headers = {"Content-Type": "application/json"}
        if rid is not None:
            headers["X-Trace-Id"] = rid
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()  # the next request reconnects
            return 0, repr(exc)
        return response.status, json.loads(data)

    def close(self) -> None:
        self._conn.close()


class Server:
    """A launched service child process."""

    def __init__(self, env: dict, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py"),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError("service launcher exited before listening")
        ready = json.loads(line)
        self.port = ready["port"]
        self.env_info = ready["env"]

    def stop(self) -> dict:
        """Shut the server down; its final report."""
        out, _ = self.proc.communicate("stop\n", timeout=60)
        if self.proc.returncode != 0:
            raise RuntimeError(f"launcher exited {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def start(env: dict, data: dict[str, ParticleSet],
          trace: bool) -> tuple[Server, float]:
    """Launch the server and register (and index) every dataset."""
    started = time.perf_counter()
    server = Server(env, trace)
    try:
        conn = Connection(server.port)
        for alias, ps in data.items():
            _expect_ok(conn, "/v1/datasets",
                       _register_body(alias, ps, build=True))
        # The server memoizes each box's RDF normalization (a quadrature
        # over a fine grid) once per bucket edges.  Pay it here, on a
        # dataset the load never names, so no result is cached for the
        # datasets under load.
        _expect_ok(conn, "/v1/datasets",
                   _register_body(WARMUP, data[RDF_DATASETS[0]], False))
        for nb in RDF_BUCKETS:
            _expect_ok(conn, "/v1/rdf", json.dumps(
                {"dataset": WARMUP, "num_buckets": nb}).encode())
        conn.close()
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - started


def _expect_ok(conn: Connection, path: str, body: bytes) -> None:
    status, answer = conn.call("POST", path, body)
    if status != 200:
        raise RuntimeError(f"set-up request to {path} failed: {answer}")


@dataclass
class Phase:
    """Outcome of one load phase."""

    records: list[Sent]
    requests: list[Request]
    elapsed: float


def phase1(port: int, requests: list[Request],
           offsets: list[float]) -> Phase:
    conns = [Connection(port) for _ in range(SENDERS)]

    def send(i: int, sender: int) -> tuple[bool, Any]:
        req = requests[i]
        status, body = conns[sender].call("POST", req.path, req.body,
                                          req.rid)
        return status == 200, (status, body)

    began = time.perf_counter()
    records = run_open_loop(offsets, send, SENDERS)
    elapsed = time.perf_counter() - began
    for conn in conns:
        conn.close()
    return Phase(records, requests, elapsed)


def phase2(port: int, requests: list[Request], seconds: float | None,
           count: int | None) -> Phase:
    """Closed loop on two connections, for ``seconds`` or ``count``
    requests."""
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    records: list[Sent] = []
    began = time.perf_counter()

    def worker() -> None:
        conn = Connection(port)
        try:
            while True:
                with lock:
                    if seconds is not None and (
                        time.perf_counter() - began >= seconds
                    ):
                        return
                    i = next(cursor, None)
                if i is None or (count is not None and i >= count):
                    return
                req = requests[i]
                record = Sent(i, time.perf_counter())
                record.sent = record.due
                status, body = conn.call("POST", req.path, req.body, req.rid)
                record.done = time.perf_counter()
                record.ok, record.value = status == 200, (status, body)
                with lock:
                    records.append(record)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Phase(records, requests, time.perf_counter() - began)


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
class Oracle:
    """The library's answers, computed once per request and version."""

    def __init__(self, versions: dict[str, list[ParticleSet]]):
        self._by_fp = {
            ps.fingerprint(): ps for chain in versions.values()
            for ps in chain
        }
        self._memo: dict[tuple, Any] = {}

    def histogram(self, fp: str, spec: dict):
        key = (fp, json.dumps(spec, sort_keys=True))
        if key not in self._memo:
            # Every exact engine returns the same histogram bit for bit
            # (the library's own differential contract); brute is the
            # cheapest at these sizes.
            self._memo[key] = compute_sdh(
                self._by_fp[fp], SDHRequest(**spec, engine="brute")
            )
        return self._memo[key]

    def error(self, req: Request, status: int, body: Any) -> float | None:
        """Sec VI-B error of a response against the library's answer
        (0 when they agree; 1 for a wrong RDF or write), or None when
        the request failed or names a dataset version never sent."""
        if status != 200:
            return None
        if req.cls == "write":
            return float(body["dataset"] != req.version.fingerprint())
        fp = body["dataset"]
        if fp not in self._by_fp:
            return None
        if req.cls == "rdf":
            hist = self.histogram(fp, req.queries[0])
            rdf = rdf_from_histogram(hist, self._by_fp[fp], "corrected")
            return float(body["g"] != rdf.g.tolist())
        items = body["results"] if req.cls == "batch" else [body]
        errors = []
        for spec, item in zip(req.queries, items, strict=True):
            hist = self.histogram(fp, spec)
            if "counts" not in item or item["edges"] != hist.edges.tolist():
                return 1.0
            errors.append(error_rate(item["counts"], hist.counts))
        return sum(errors) / len(errors)


def response_pairs(req: Request, body: Any) -> int:
    if req.cls == "rdf":
        return pairs(body["num_particles"])
    if req.cls == "batch":
        return int(sum(item["total"] for item in body["results"]))
    if req.cls == "write":
        return 0
    return int(body["total"])


def run_pass(env: dict, seed: int, seconds: float, trace: bool,
             setups: int) -> dict:
    """Set up (``setups`` times, keeping the last server) and run both
    phases; returns raw measurements."""
    data = datasets(seed)
    setup_samples = []
    server = None
    for k in range(setups):
        server, took = start(env, data, trace)
        setup_samples.append(took)
        if k < setups - 1:
            server.stop()
    try:
        mix = Mix(seed, data)
        duration1 = seconds * PHASE1_SHARE
        offsets = poisson_schedule(RATE, duration1, seed)
        requests1 = [mix.next() for _ in offsets]
        # More than phase 2 can complete, so it never runs dry.
        requests2 = [mix.next() for _ in range(int(40 * seconds))]
        conn = Connection(server.port)
        _, stats_before = conn.call("GET", "/v1/stats")
        p1 = phase1(server.port, requests1, offsets)
        if trace:
            p2 = phase2(server.port, requests2, None, TRACE_PHASE2_REQUESTS)
        else:
            p2 = phase2(server.port, requests2, seconds - duration1, None)
        _, stats_after = conn.call("GET", "/v1/stats")
        conn.close()
        final = server.stop()
    except BaseException:
        server.kill()
        raise
    return {
        "setup_samples": setup_samples, "p1": p1, "p2": p2,
        "versions": mix.versions, "stats": (stats_before, stats_after),
        "final": final, "env": server.env_info,
    }


def summarize(raw: dict, oracle: Oracle) -> dict:
    """End-to-end metrics, workload details and check results."""
    p1, p2 = raw["p1"], raw["p2"]
    failed = 0
    errors = []
    for phase in (p1, p2):
        for rec in phase.records:
            status, body = rec.value
            err = oracle.error(phase.requests[rec.index], status, body)
            if err is not None:
                errors.append(err)
            if err != 0.0:
                failed += 1
                rec.ok = False
    lat = [r.latency * 1e3 for r in p1.records]
    by_cls: dict[str, list[float]] = {}
    for rec in p1.records:
        by_cls.setdefault(p1.requests[rec.index].cls, []).append(
            rec.latency * 1e3
        )
    done2 = [r for r in p2.records if r.ok]
    lat2 = [(r.done - r.sent) * 1e3 for r in p2.records]
    p95 = tail(lat)
    tail2 = tail(lat2)
    metrics = {
        "setup_s": float(np.median(raw["setup_samples"])),
        "peak_rss_mb": raw["final"]["rss_mb"],
        "ops_per_s": len(done2) / p2.elapsed,
        "pairs_per_s": sum(
            response_pairs(p2.requests[r.index], r.value[1]) for r in done2
        ) / p2.elapsed,
        # Gated latencies come from the closed loop.  In the open loop
        # the mix is bimodal (cache-served vs computed, split near one
        # half) and the queue on two connections comes and goes with the
        # arrivals, so its median and tail jump from seed to seed; they
        # are reported as serve_ms_p50 / serve_ms_p95.
        "latency_ms_p50": percentile(lat2, 50),
        "latency_ms_p95": tail2.value,
        "accuracy_pct": 100.0 * (1.0 - sum(errors) / len(errors)),
    }
    good = sum(1 for r in p1.records
               if r.ok and r.latency * 1e3 <= GOODPUT_LIMIT_MS)
    details = {
        "serve_ms_p50": (percentile(lat, 50), "ms"),
        "serve_ms_p95": (p95.value, "ms"),
        "serve_ms_p95.percentile": (p95.p, "%"),
        "serve_ms_p95.samples": (p95.n, "count"),
        "serve_repeat_ms_p50": (_p50(by_cls.get("repeat")), "ms"),
        "latency_ms_p95.percentile": (tail2.p, "%"),
        "latency_ms_p95.samples": (tail2.n, "count"),
        "serve_rebucket_ms_p50": (_p50(by_cls.get("rebucket")), "ms"),
        "serve_goodput": (good / len(p1.records), "fraction"),
        "serve_saturated_rps": (metrics["ops_per_s"], "req/s"),
        "serve_phase1_rps": (len(p1.records) / p1.elapsed, "req/s"),
        "loadgen.late_ms_p95": (
            tail([r.late * 1e3 for r in p1.records]).value, "ms"),
    }
    return {
        "metrics": metrics, "details": details, "failed": failed,
        "attempted": len(p1.records) + len(p2.records),
    }


def _p50(values: list[float] | None) -> float:
    return percentile(values, 50) if values else 0.0


def _delta(before: dict, after: dict, *path: str) -> float:
    for key in path:
        before, after = before[key], after[key]
    return after - before


def service_layers(raw: dict) -> dict[str, float]:
    """Per-layer metrics the service exposes itself, plus the ones that
    join client timing with server spans."""
    before, after = raw["stats"]
    hits = _delta(before, after, "results", "hits")
    coalesced = _delta(before, after, "results", "coalesced")
    lookups = hits + coalesced + _delta(before, after, "results", "misses")
    cache_hits = _delta(before, after, "cache", "hits")
    cache_lookups = cache_hits + _delta(before, after, "cache", "misses")
    p1 = raw["p1"]
    rebuckets = [r for r in p1.records
                 if p1.requests[r.index].cls == "rebucket" and r.ok]
    served = sum(
        1 for r in rebuckets
        if r.value[1].get("result_source") in ("hit", "coalesced")
    )
    server_s = raw["final"].get("server_s", {})
    frontend = [
        (r.done - r.sent - server_s[p1.requests[r.index].rid]) * 1e3
        for r in p1.records if p1.requests[r.index].rid in server_s
    ]
    return {
        "service.frontend_ms_p50": _p50(frontend),
        "service.rejected": _delta(before, after, "executor", "rejected"),
        "service.timeouts": _delta(before, after, "executor", "timeouts"),
        "results.hit_rate": (hits + coalesced) / lookups if lookups else 0.0,
        "results.rebucket_hit_rate": (
            served / len(rebuckets) if rebuckets else 0.0
        ),
        "results.coalesced": coalesced,
        "results.invalidations": _delta(before, after, "results",
                                        "invalidations"),
        "cache.hit_rate": cache_hits / cache_lookups if cache_lookups else 0.0,
        "cache.builds": _delta(before, after, "cache", "builds"),
    }
