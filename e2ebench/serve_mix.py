"""Workload ``serve_mix``: validate/profile/discover traffic through the server.

``python -m repro serve --executor process --workers 2 --registry-dir DIR``
runs as a child process.  Set-up boots it (worker processes warmed up) and
PUTs four hot relations of 1 500 rows; it does so several times, each on a
fresh registry directory, and keeps the last server.  In the timed window
two client threads each hold one keep-alive HTTP/1.1 connection and cycle
through validate, profile and discover jobs (closed loop: a client sends
its next job once the previous one is terminal).  Jobs reference a hot
relation by ``relation_ref``; every 10th job first PUTs a fresh relation,
so registry writes and shared-memory publishes run beside reads.  A client
polls ``GET /jobs/<id>`` every 5 ms until the job is terminal.

Every ``done`` result's artefacts must equal, byte for byte, a bare
``Session`` run of the same request on the same relation.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from hostcal import Clock, geomean, tail_percentile
from metrics import Outcome
from repro import Relation, Session
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".e2ebench_out"

CLIENTS = 2
HOT_RELATIONS = 4
ROWS = 1_500
FRESH_EVERY = 10
POLL_INTERVAL_S = 0.005
SETUP_REPS = 3
TERMINAL = ("done", "failed", "cancelled", "deadline_exceeded")

#: (attribute, key space) of every relation, as in benchmarks/bench_serve.py.
COLUMNS = (("flag", 2), ("grade", 5), ("city", 40), ("dept", ROWS // 100),
           ("account", ROWS // 20), ("region", 3))

#: The (kind, params) cycle each client runs, as in benchmarks/bench_serve.py.
JOB_MIX = (
    ("validate", {"fds": ["dept -> flag", "account -> grade", "city,region -> dept"]}),
    ("profile", {"threshold": 0.3, "max_lhs": 2}),
    ("discover", {"algorithm": "tane", "max_lhs_size": 3}),
)


def make_relation(name: str, seed: int) -> Relation:
    rng = random.Random(seed)
    rows = [tuple(f"{column}_{rng.randrange(space)}" for column, space in COLUMNS)
            for _ in range(ROWS)]
    return Relation(name, tuple(column for column, _ in COLUMNS), rows)


def relation_payload(relation: Relation) -> dict:
    return {"name": relation.name, "attributes": list(relation.attribute_names),
            "rows": [list(row) for row in relation.rows]}


def reference_artifacts(relation: Relation, kind: str, params: dict) -> str:
    """The artefacts of a bare session run, as canonical JSON."""
    session = Session()
    if kind == "discover":
        result = session.discover(relation, params["algorithm"],
                                  max_lhs_size=params["max_lhs_size"])
    elif kind == "validate":
        result = session.validate(relation, params["fds"])
    else:
        result = session.profile(relation, params["threshold"], params["max_lhs"])
    return json.dumps(result.artifacts, sort_keys=True)


class Client:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))

    def close(self) -> None:
        self.conn.close()


class ServerProcess:
    """``python -m repro serve`` as a child process on an ephemeral port."""

    def __init__(self, registry_dir: Path, log_path: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._log = log_path.open("w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--executor", "process",
             "--workers", str(CLIENTS), "--warmup", "--port", "0",
             "--registry-dir", str(registry_dir)],
            env=env, stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        banner = self.process.stdout.readline()
        match = re.search(r"serving on http://[^:]+:(\d+)", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(match.group(1))

    def peak_rss_mb(self, worker_pids: list[int]) -> float:
        """Sum of the server's and its workers' ``VmHWM``."""
        total_kb = 0
        for pid in [self.process.pid] + worker_pids:
            status = Path(f"/proc/{pid}/status").read_text()
            total_kb += int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return total_kb / 1024

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill if it does not exit in time."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.communicate()
        self._log.close()


def boot(seed: int, rep: int, hot: list[Relation]) -> tuple[ServerProcess, Path, list[str]]:
    """Start a server on a fresh registry, wait until healthy, PUT the hot set."""
    registry_dir = OUT_DIR / f"registry_{os.getpid()}_{rep}"
    shutil.rmtree(registry_dir, ignore_errors=True)
    server = ServerProcess(registry_dir, OUT_DIR / f"serve_{rep}.log")
    client = Client(server.port)
    try:
        for _ in range(600):
            status, _ = client.call("GET", "/healthz")
            if status == 200:
                break
            time.sleep(0.05)
        refs = [client.call("PUT", "/relations", relation_payload(relation))[1]["hash"]
                for relation in hot]
    finally:
        client.close()
    return server, registry_dir, refs


class JobRecord:
    __slots__ = ("kind", "relation", "status", "latency", "polls", "payload", "put_s", "traced")

    def __init__(self, kind: str, relation: str, traced: bool) -> None:
        self.kind = kind
        self.relation = relation
        self.traced = traced
        self.status = "error"
        self.latency = 0.0
        self.polls = 0
        self.payload: dict = {}
        self.put_s: float | None = None


def _client_loop(index, port, seed, refs, deadline, tracer, traced, records, fresh, errors):
    client = Client(port)
    tracer.job = index
    tenant = f"client{index}"
    n = 0
    try:
        while time.perf_counter() < deadline:
            kind, params = JOB_MIX[n % len(JOB_MIX)]
            job_traced = traced and n % 2 == 1
            span = tracer.span if job_traced else (lambda name: nullcontext())
            if n % FRESH_EVERY == FRESH_EVERY - 1:
                name = f"fresh_{index}_{n}"
                relation = make_relation(name, seed * 1_000_003 + index * 10_007 + n)
                body = relation_payload(relation)
                started = time.perf_counter()
                with span("serve.put"):
                    status, ack = client.call("PUT", "/relations", body)
                put_s = time.perf_counter() - started
                if status != 200:
                    raise RuntimeError(f"PUT /relations returned {status}: {ack}")
                ref = ack["hash"]
                fresh[name] = relation
            else:
                name = f"hot_{(index + n) % HOT_RELATIONS}"
                ref, put_s = refs[(index + n) % HOT_RELATIONS], None
            record = JobRecord(kind, name, job_traced)
            record.put_s = put_s
            records.append(record)
            request = {"schema": "repro/job-request-v1", "tenant": tenant, "kind": kind,
                       "relation_ref": ref, "params": params}
            started = time.perf_counter()
            with span("serve.post"):
                status, ticket = client.call("POST", "/jobs", request)
            if status != 202:
                raise RuntimeError(f"POST /jobs returned {status}: {ticket}")
            path = f"/jobs/{ticket['job_id']}"
            while True:
                time.sleep(POLL_INTERVAL_S)
                with span("serve.poll"):
                    status, payload = client.call("GET", path)
                record.polls += 1
                if status != 200:
                    raise RuntimeError(f"GET {path} returned {status}: {payload}")
                if payload["status"] in TERMINAL:
                    break
            record.latency = time.perf_counter() - started
            record.status = payload["status"]
            record.payload = payload
            n += 1
    except Exception as exc:  # the client stops; its failure is counted
        errors.append(f"client {index}: {type(exc).__name__}: {exc}")
    finally:
        client.close()


def run(seed: int, seconds: float, traced: bool, clock: Clock, tracer: Tracer) -> Outcome:
    out = Outcome()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    hot = [make_relation(f"hot_{i}", seed * 101 + i) for i in range(HOT_RELATIONS)]
    setup, server, registry_dir = [], None, None
    try:
        for rep in range(SETUP_REPS):
            if server is not None:
                server.stop()
                shutil.rmtree(registry_dir, ignore_errors=True)
            (server, registry_dir, refs), timing = clock.timed(lambda: boot(seed, rep, hot))
            setup.append(timing)
        expected = {(relation.name, kind): reference_artifacts(relation, kind, params)
                    for relation in hot for kind, params in JOB_MIX}

        records: list[JobRecord] = []
        fresh: dict[str, Relation] = {}
        errors: list[str] = []
        started = time.perf_counter()
        threads = [threading.Thread(
            target=_client_loop,
            args=(index, server.port, seed, refs, started + seconds, tracer, traced,
                  records, fresh, errors),
        ) for index in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window = time.perf_counter() - started
        clock.settle()

        client = Client(server.port)
        try:
            stats = client.call("GET", "/stats")[1]
        finally:
            client.close()
        workers = [slot["pid"] for slot in stats["executor"]["slots"] if slot.get("alive")]
        out.e2e["peak_rss_mb"] = server.peak_rss_mb(workers)
    finally:
        if server is not None:
            server.stop()
            shutil.rmtree(registry_dir, ignore_errors=True)

    for problem in errors:
        out.fail(problem, jobs=0)  # the job it interrupted fails in _check
    _check(records, fresh, expected, out)
    done = [record for record in records if record.status == "done"]
    _summarise(done, window, setup, out)
    if traced:
        _layers(done, records, stats, out)
    return out


def _check(records, fresh, expected, out: Outcome) -> None:
    """Each done job's artefacts equal a bare session run's, byte for byte."""
    params_of = dict(JOB_MIX)
    out.attempted += len(records)
    for record in records:
        if record.status != "done":
            out.fail(f"{record.kind} on {record.relation}: {record.status} "
                     f"{record.payload.get('error')}")
            continue
        key = (record.relation, record.kind)
        if key not in expected:
            expected[key] = reference_artifacts(fresh[record.relation], record.kind,
                                                params_of[record.kind])
        got = json.dumps(record.payload["result"]["artifacts"], sort_keys=True)
        if got != expected[key]:
            out.fail(f"{record.kind} on {record.relation}: artefacts differ from a bare Session")


def _summarise(done, window: float, setup, out: Outcome) -> None:
    latencies = [record.latency for record in done]
    by_kind = {kind: statistics.median(r.latency for r in done if r.kind == kind)
               for kind, _ in JOB_MIX}
    out.e2e.update(
        setup_s=statistics.median(t.calibrated for t in setup),
        job_p50_ms=statistics.median(latencies) * 1e3,
        job_geomean_ms=geomean(list(by_kind.values())) * 1e3,
        pass_s=sum(by_kind.values()),
        jobs_per_s=len(done) / window,
    )
    percentile, tail = tail_percentile(latencies)
    out.report.update(
        jobs=len(done),
        window_s=window,
        job_tail_ms=tail * 1e3,
        job_tail_pct=percentile,
        by_kind_p50_ms={kind: value * 1e3 for kind, value in by_kind.items()},
        raw_setup_s=statistics.median(t.raw for t in setup),
    )


def _layers(done, records, stats, out: Outcome) -> None:
    layers = out.layers
    latencies = [record.latency for record in done]
    percentile, tail = tail_percentile(latencies)
    layers["serve.job_tail_ms"] = tail * 1e3
    layers["serve.job_tail_pct"] = percentile
    layers["serve.jobs_sampled"] = len(done)

    def ms(values):
        return statistics.median(values) * 1e3

    payloads = [record.payload for record in done]
    execute = [p["finished_at"] - p["started_at"] for p in payloads]
    kernel = [p["result"]["stats"]["runtime_seconds"] for p in payloads]
    queue_wait = [p["started_at"] - p["submitted_at"] for p in payloads]
    layers["serve.client_overhead_ms"] = ms(
        [r.latency - (r.payload["finished_at"] - r.payload["submitted_at"]) for r in done])
    layers["serve.polls_per_job"] = statistics.mean(record.polls for record in done)
    layers["serve.queue_wait_ms"] = ms(queue_wait)
    layers["serve.queue_wait_tail_ms"] = tail_percentile(queue_wait)[1] * 1e3
    layers["serve.execute_ms"] = ms(execute)
    layers["serve.kernel_ms"] = ms(kernel)
    layers["serve.transport_ms"] = ms([e - k for e, k in zip(execute, kernel)])
    layers["serve.retries"] = stats["queue"]["retries"]
    layers["shm.shm_jobs"] = stats["executor"]["shm_jobs"]
    layers["shm.wire_jobs"] = stats["executor"]["wire_jobs"]
    puts = [record.put_s for record in records if record.put_s is not None]
    layers["registry.put_ms"] = ms(puts) if puts else 0.0
    traced = [record.latency for record in done if record.traced]
    plain = [record.latency for record in done if not record.traced]
    layers["trace.overhead_pct"] = (statistics.median(traced) / statistics.median(plain) - 1) * 100
