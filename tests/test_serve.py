"""Tests for the multi-tenant serving layer (``repro.serve``).

Covers the wire protocol round-trip, session pooling and eviction, the job
queue's states/backpressure/fairness/timeouts, tenant isolation under
concurrency (the acceptance criterion: ≥ 4 concurrent tenants with fully
isolated ``KernelCounters`` and results byte-identical to bare sessions),
and the stdlib HTTP endpoint including the ``python -m repro serve`` CLI.
"""

from __future__ import annotations

import http.client
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.config
from repro.relational.relation import Relation
from repro.serve import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    HttpFrontend,
    JobQueue,
    JobRequest,
    JobTicket,
    ProtocolError,
    QueueClosed,
    QueueFull,
    Server,
    SessionPool,
    execute_request,
    relation_from_payload,
    relation_to_payload,
)
from repro.serve.server import _ServeHandler
from repro.session import Session, engine_config

pytestmark = pytest.mark.slow

_SRC = Path(__file__).resolve().parent.parent / "src"

#: Generous bound for waits that should complete almost instantly; tests
#: fail fast instead of hanging when something deadlocks.
WAIT = 30.0


def make_relation(name: str = "t", n_rows: int = 60, salt: int = 0) -> Relation:
    """A small relation with planted FDs (a -> b via the modulus chain)."""
    rows = [(i % 6, (i % 6) * 2, (i + salt) % 4, f"v{(i + salt) % 3}") for i in range(n_rows)]
    return Relation(name, ("a", "b", "c", "d"), rows)


def discover_payload(tenant: str, relation: Relation, **params) -> dict:
    return {
        "schema": "repro/job-request-v1",
        "tenant": tenant,
        "kind": "discover",
        "relation": relation_to_payload(relation),
        "params": {"algorithm": "tane", **params},
        "overrides": {},
    }


class TestProtocol:
    def test_relation_payload_round_trip(self):
        relation = make_relation()
        payload = relation_to_payload(relation)
        decoded = relation_from_payload(json.loads(json.dumps(payload)))
        assert decoded.name == relation.name
        assert decoded.attribute_names == relation.attribute_names
        assert decoded.rows == relation.rows

    def test_request_payload_round_trip(self):
        request = JobRequest.from_payload(discover_payload("acme", make_relation()))
        again = JobRequest.from_payload(request.to_payload())
        assert again.tenant == "acme"
        assert again.kind == "discover"
        assert again.params == request.params
        assert again.relation.rows == request.relation.rows

    def test_ticket_payload_round_trip(self):
        ticket = JobTicket(job_id="job-1", tenant="acme", status=QUEUED)
        assert JobTicket.from_payload(ticket.to_payload()) == ticket

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda p: p.update(schema="nope"), "schema"),
            (lambda p: p.update(kind="explode"), "kind"),
            (lambda p: p.update(tenant=""), "tenant"),
            (lambda p: p.update(params={"bogus": 1}), "unknown params"),
            (lambda p: p.update(extra_field=1), "unknown job request fields"),
            (lambda p: p.update(overrides={"nope": 1}), "overrides"),
            (lambda p: p.update(relation={"name": "", "attributes": []}), "name"),
            (lambda p: p.update(relation="nope"), "mapping"),
            (lambda p: p.update(kind="validate", params={"fds": 42}), "must be a list"),
            (lambda p: p.update(kind="validate", params={"fds": [42]}), "fds items"),
            (lambda p: p.update(params={"algorithm": 7}), "algorithm"),
            (lambda p: p.update(params={"attributes": "a"}), "attributes"),
            (lambda p: p.update(params={"max_lhs_size": "x"}), "max_lhs_size"),
            (
                lambda p: p.update(kind="profile", params={"threshold": "hot"}),
                "threshold",
            ),
            (
                lambda p: p.update(kind="profile", params={"max_lhs": 1.5}),
                "max_lhs",
            ),
        ],
    )
    def test_malformed_requests_rejected(self, mutate, message):
        payload = discover_payload("acme", make_relation())
        mutate(payload)
        with pytest.raises(ProtocolError, match=message):
            JobRequest.from_payload(payload)

    def test_validate_requires_fds(self):
        payload = discover_payload("acme", make_relation())
        payload["kind"] = "validate"
        payload["params"] = {}
        with pytest.raises(ProtocolError, match="fds"):
            JobRequest.from_payload(payload)

    def test_execute_request_matches_session_verbs(self):
        relation = make_relation()
        session = Session()
        request = JobRequest(
            tenant="acme",
            kind="validate",
            relation=relation,
            params={"fds": ["a -> b", [["c"], "d"]]},
        )
        served = execute_request(session, request)
        direct = Session().validate(make_relation(), ["a -> b", (["c"], "d")])
        assert served.artifacts == direct.artifacts


class TestTenantConfigs:
    """Per-tenant engine configuration is retired: every form of it is refused."""

    def test_non_mapping_rejected(self):
        # No mapping (nor anything else) configures tenants any more.
        for configs in ({"acme": {"marks_cache_bytes": 0}}, [("acme", {})]):
            with pytest.raises(TypeError, match="tenant_configs"):
                Server(tenant_configs=configs)
        assert not hasattr(repro.config, "parse_tenant_configs")
        assert not hasattr(repro.config, "TENANT_DEFAULT_KEY")

    def test_load_from_file(self, tmp_path, capsys):
        # A well-formed tenant file is refused by the CLI before it is read.
        from repro.serve.cli import main_serve

        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({"acme": {"combined_codes_cache_entries": 4}}))
        with pytest.raises(SystemExit) as excinfo:
            main_serve(["--port", "0", "--tenant-config", str(path)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --tenant-config" in capsys.readouterr().err
        assert not hasattr(repro.config, "load_tenant_configs")

    def test_load_invalid_json(self, tmp_path, capsys):
        from repro.serve.cli import main_serve

        path = tmp_path / "tenants.json"
        path.write_text("{nope")
        with pytest.raises(SystemExit) as excinfo:
            main_serve(["--tenant-config", str(path)])
        assert excinfo.value.code == 2
        assert "invalid JSON" not in capsys.readouterr().err  # never parsed


class TestSessionPool:
    def test_lazy_creation_and_reuse(self):
        pool = SessionPool()
        first = pool.get("acme")
        assert pool.get("acme") is first
        assert pool.stats()["created"] == 1
        assert pool.stats()["hits"] == 1

    def test_per_tenant_config(self):
        # Tenants get their own sessions but no settings of their own: every
        # tenant's runs record the same engine configuration.
        with pytest.raises(TypeError):
            SessionPool({"acme": {"marks_cache_bytes": 0}})
        pool = SessionPool()
        acme, other = pool.get("acme"), pool.get("other")
        assert acme is not other
        configs = [session.discover(make_relation()).config for session in (acme, other)]
        assert configs == [engine_config(), engine_config()]

    def test_lru_eviction_caps_sessions(self):
        pool = SessionPool(max_sessions=2)
        a, b = pool.get("a"), pool.get("b")
        pool.get("a")  # refresh a: b is now least recently used
        pool.get("c")
        assert set(pool.tenants()) == {"a", "c"}
        assert pool.stats()["evicted"] == 1
        assert pool.get("b") is not b  # recreated on demand, evicting "a"
        assert set(pool.tenants()) == {"c", "b"}
        assert pool.get("a") is not a

    def test_evict_and_close(self):
        pool = SessionPool()
        pool.get("a")
        assert pool.evict("a") is True
        assert pool.evict("a") is False
        pool.get("a")
        pool.get("b")
        pool.close()
        assert len(pool) == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            SessionPool(max_sessions=0)
        with pytest.raises(ValueError):
            SessionPool().get("")

    def test_lru_eviction_races_concurrent_submissions_for_one_tenant(self):
        """Eviction is claimed always-safe: it only drops the pool's cache
        reference, so a session handed out before its eviction keeps
        working and every result stays byte-identical.  Pin that under
        threads: submitters hammer one hot tenant while a churn thread
        forces constant LRU turnover of a 2-slot pool."""
        pool = SessionPool(max_sessions=2)
        relation = make_relation(n_rows=24)
        expected = Session().discover(make_relation(n_rows=24), algorithm="tane").payload
        stop = threading.Event()
        errors: list[BaseException] = []
        payloads: list[dict] = []
        lock = threading.Lock()

        def submitter():
            try:
                while not stop.is_set():
                    result = pool.get("hot").discover(relation, algorithm="tane")
                    with lock:
                        payloads.append(result.payload)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def churner():
            try:
                i = 0
                while not stop.is_set():
                    # Two fresh tenants per lap: "hot" is always the LRU
                    # loser, so submitters constantly race its eviction.
                    pool.get(f"cold-{i % 8}")
                    i += 1
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        threads.append(threading.Thread(target=churner))
        for thread in threads:
            thread.start()
        time.sleep(1.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=WAIT)
            assert not thread.is_alive()
        assert errors == []
        assert len(payloads) > 0
        for payload in payloads:
            assert payload["artifacts"] == expected["artifacts"]
        stats = pool.stats()
        assert stats["evicted"] > 0, "the race never actually evicted"
        assert len(pool) <= 2


class TestJobQueue:
    def test_job_runs_to_done(self):
        with JobQueue(workers=2) as queue:
            job = queue.submit("acme", lambda: 42)
            assert job.wait(WAIT)
            assert job.status == DONE
            assert job.result == 42
            assert queue.get(job.job_id) is job

    def test_exception_becomes_failed(self):
        with JobQueue(workers=1) as queue:
            job = queue.submit("acme", lambda: 1 / 0)
            assert job.wait(WAIT)
            assert job.status == FAILED
            assert "ZeroDivisionError" in job.error

    def test_backpressure_raises_queue_full(self):
        gate = threading.Event()
        started = threading.Event()

        def blocked():
            started.set()
            gate.wait(WAIT)

        queue = JobQueue(workers=1, max_queue=2)
        try:
            queue.submit("acme", blocked)
            assert started.wait(WAIT)  # worker busy; queue now empty
            queue.submit("acme", lambda: None)
            queue.submit("acme", lambda: None)
            with pytest.raises(QueueFull) as excinfo:
                queue.submit("acme", lambda: None)
            assert queue.stats()["rejected"] == 1
            # The programmatic backpressure hint: seconds of backlog per
            # worker, never zero (clients must actually back off).
            assert excinfo.value.retry_after >= 1
        finally:
            gate.set()
            queue.close()

    def test_cancel_queued_job(self):
        gate = threading.Event()
        queue = JobQueue(workers=1)
        try:
            running = queue.submit("acme", lambda: gate.wait(WAIT))
            queued = queue.submit("acme", lambda: None)
            assert queue.cancel(queued.job_id) is True
            assert queued.status == CANCELLED
            assert queued.wait(WAIT)
            gate.set()
            assert running.wait(WAIT)
            assert queue.cancel(running.job_id) is False  # already finished
        finally:
            gate.set()
            queue.close()

    def test_queue_wait_timeout_expires_job(self):
        gate = threading.Event()
        queue = JobQueue(workers=1)
        try:
            queue.submit("acme", lambda: gate.wait(WAIT))
            doomed = queue.submit("acme", lambda: None, timeout=0.05)
            time.sleep(0.1)  # let the deadline lapse while the worker is busy
            gate.set()
            assert doomed.wait(WAIT)
            assert doomed.status == CANCELLED
            assert "timed out" in doomed.error
            assert queue.stats()["expired"] == 1
        finally:
            gate.set()
            queue.close()

    def test_per_tenant_fairness_prevents_starvation(self):
        """A flooding tenant cannot hold both workers; others still run."""
        gate = threading.Event()
        a_started = threading.Event()
        b_started = threading.Event()

        def work(event):
            event.set()
            gate.wait(WAIT)

        queue = JobQueue(workers=2, max_inflight_per_tenant=1)
        try:
            queue.submit("flooder", lambda: work(a_started))
            second = queue.submit("flooder", lambda: work(threading.Event()))
            victim = queue.submit("victim", lambda: work(b_started))
            assert a_started.wait(WAIT)
            # With both the flooder's jobs ahead of the victim in FIFO order,
            # fairness must skip the flooder's second job and run the victim.
            assert b_started.wait(WAIT)
            assert second.status == QUEUED
            gate.set()
            assert second.wait(WAIT) and victim.wait(WAIT)
            assert second.status == DONE and victim.status == DONE
        finally:
            gate.set()
            queue.close()

    def test_close_cancels_queued_and_rejects_submissions(self):
        gate = threading.Event()
        started = threading.Event()

        def blocked():
            started.set()
            gate.wait(WAIT)
            return "done"

        queue = JobQueue(workers=1)
        running = queue.submit("acme", blocked)
        assert started.wait(WAIT)  # the worker holds the running job
        queued = queue.submit("acme", lambda: None)
        closer = threading.Thread(target=queue.close)
        closer.start()
        assert queued.wait(WAIT)  # close() cancels it while `running` blocks
        assert queued.status == CANCELLED
        gate.set()
        closer.join(WAIT)
        assert running.wait(WAIT)
        assert running.status == DONE
        with pytest.raises(QueueClosed):
            queue.submit("acme", lambda: None)

    def test_finished_jobs_are_eventually_forgotten(self):
        with JobQueue(workers=1, max_finished_retained=2) as queue:
            jobs = [queue.submit("acme", lambda i=i: i) for i in range(4)]
            for job in jobs:
                assert job.wait(WAIT)
            with pytest.raises(KeyError):
                queue.get(jobs[0].job_id)
            assert queue.get(jobs[-1].job_id).result == 3

    def test_invalid_arguments(self):
        for kwargs in (
            {"workers": 0},
            {"max_queue": 0},
            {"max_inflight_per_tenant": 0},
        ):
            with pytest.raises(ValueError):
                JobQueue(**kwargs)


class TestServerIsolation:
    """The acceptance criterion: concurrent tenants share nothing."""

    N_TENANTS = 4
    JOBS_PER_TENANT = 3

    def _payloads(self, tenant: str, index: int) -> list[dict]:
        relation = make_relation(name=f"r{index}", salt=index)
        wire = relation_to_payload(relation)
        base = {"schema": "repro/job-request-v1", "tenant": tenant, "relation": wire}
        return [
            {**base, "kind": "discover", "params": {"algorithm": "tane"}},
            {
                **base,
                "kind": "validate",
                "params": {"fds": ["a -> b", "c -> d", [["a", "c"], "d"]]},
            },
            {**base, "kind": "profile", "params": {"threshold": 0.4, "max_lhs": 2}},
        ]

    def test_concurrent_tenants_isolated_counters_and_identical_bytes(self):
        # Pinned to the thread executor: the assertions replay the *parent*
        # pool's per-tenant counters, which only the in-process executor
        # uses (process-executor parity is pinned in test_serve_executor).
        tenants = [f"tenant-{i}" for i in range(self.N_TENANTS)]
        payload_sets = {
            tenant: self._payloads(tenant, index) for index, tenant in enumerate(tenants)
        }
        with Server(workers=self.N_TENANTS, max_queue=64, executor="thread") as server:
            tickets: dict[str, list] = {tenant: [] for tenant in tenants}
            # Interleave submissions so all four tenants contend for workers.
            for round_index in range(self.JOBS_PER_TENANT):
                for tenant in tenants:
                    ticket = server.submit(payload_sets[tenant][round_index])
                    tickets[tenant].append(ticket)
            results = {
                tenant: [server.result(t.job_id, timeout=WAIT) for t in tickets[tenant]]
                for tenant in tenants
            }
            served_counters = {
                tenant: server.pool.peek(tenant).kernel_stats() for tenant in tenants
            }
        # Replay each tenant's exact workload on a bare session: counters must
        # match (nothing leaked between tenants under contention) and every
        # artefact must be byte-identical.
        for tenant in tenants:
            bare_session = Session()
            for payload, served in zip(payload_sets[tenant], results[tenant]):
                request = JobRequest.from_payload(payload)
                bare = execute_request(bare_session, request)
                assert bare.artifact_fingerprint() == served.artifact_fingerprint()
                served_bytes = json.dumps(served.payload["artifacts"], sort_keys=True)
                bare_bytes = json.dumps(bare.payload["artifacts"], sort_keys=True)
                assert served_bytes == bare_bytes
            assert served_counters[tenant] == bare_session.kernel_stats()

    def test_counters_do_not_leak_between_tenants(self):
        with Server(workers=2, executor="thread") as server:
            busy, idle = "busy", "idle"
            server.result(server.submit(self._payloads(idle, 0)[0]).job_id, WAIT)
            idle_before = server.pool.peek(idle).kernel_stats()
            for payload in self._payloads(busy, 1) * 2:
                server.result(server.submit(payload).job_id, timeout=WAIT)
            assert server.pool.peek(idle).kernel_stats() == idle_before


class TestServer:
    def test_failed_job_reports_error(self):
        payload = discover_payload("acme", make_relation())
        payload["params"]["algorithm"] = "no-such-algorithm"
        with Server(workers=1) as server:
            ticket = server.submit(payload)
            job = server.queue.get(ticket.job_id)
            assert job.wait(WAIT)
            assert server.status(ticket.job_id)["status"] == FAILED
            with pytest.raises(RuntimeError, match="no-such-algorithm"):
                server.result(ticket.job_id, timeout=WAIT)

    def test_result_timeout(self, monkeypatch):
        gate = threading.Event()
        monkeypatch.setattr(
            "repro.serve.server.execute_request",
            lambda session, request: gate.wait(WAIT),
        )
        # Monkeypatched execution only exists in this process: pin thread.
        with Server(workers=1, executor="thread") as server:
            ticket = server.submit(discover_payload("acme", make_relation()))
            with pytest.raises(TimeoutError):
                server.result(ticket.job_id, timeout=0.05)
            gate.set()

    def test_status_payload_shape(self):
        with Server(workers=1) as server:
            ticket = server.submit(discover_payload("acme", make_relation()))
            result = server.result(ticket.job_id, timeout=WAIT)
            status = server.status(ticket.job_id)
            assert status["schema"] == "repro/job-status-v1"
            assert status["status"] == DONE
            assert status["kind"] == "discover"
            assert status["result"] == result.payload
            assert status["error"] is None

    def test_engine_overrides_are_retired(self):
        # The engine has no settings: an empty or absent ``overrides`` runs
        # the job, anything else is refused at submission.
        relation = make_relation()
        payload = discover_payload("acme", relation)
        absent = dict(payload)
        del absent["overrides"]
        with Server(workers=1) as server:
            for overrides in ({"marks_cache_bytes": 0}, {"bogus": 1}, [], None, 0):
                with pytest.raises(ProtocolError, match="overrides are retired"):
                    server.submit(dict(payload, overrides=overrides))
            results = [
                server.result(server.submit(request).job_id, timeout=WAIT)
                for request in (payload, absent)
            ]
        bare = Session().discover(relation)
        for result in results:
            assert result.artifacts == bare.artifacts
            assert result.config == bare.config
            assert result.config_fingerprint == bare.config_fingerprint


def _http(host, port, method, path, body=None):
    conn = http.client.HTTPConnection(host, port, timeout=WAIT)
    try:
        conn.request(
            method,
            path,
            None if body is None else json.dumps(body),
            {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestHttpFrontend:
    @pytest.fixture()
    def frontend(self):
        server = Server(workers=2, max_queue=8)
        frontend = HttpFrontend(server, port=0).start()
        yield frontend
        frontend.stop()
        server.close()

    def test_submit_poll_fetch_round_trip(self, frontend):
        host, port = frontend.address
        relation = make_relation()
        status, ticket = _http(host, port, "POST", "/jobs", discover_payload("acme", relation))
        assert status == 202
        assert ticket["schema"] == "repro/job-ticket-v1"
        deadline = time.monotonic() + WAIT
        while True:
            status, body = _http(host, port, "GET", f"/jobs/{ticket['job_id']}")
            assert status == 200
            if body["status"] in (DONE, FAILED):
                break
            assert time.monotonic() < deadline, "job did not finish in time"
            time.sleep(0.02)
        assert body["status"] == DONE
        bare = Session().discover(make_relation(), algorithm="tane")
        assert body["result"]["artifacts"] == bare.payload["artifacts"]

    def test_health_stats_and_errors(self, frontend):
        host, port = frontend.address
        status, health = _http(host, port, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok" and health["degraded"] is False
        assert health["executor"]["executor"] in ("thread", "process")
        status, stats = _http(host, port, "GET", "/stats")
        assert status == 200 and "queue" in stats and "pool" in stats
        assert _http(host, port, "GET", "/jobs/job-unknown")[0] == 404
        assert _http(host, port, "GET", "/bogus")[0] == 404
        assert _http(host, port, "POST", "/jobs", {"schema": "nope"})[0] == 400
        assert _http(host, port, "DELETE", "/jobs/job-unknown")[0] == 404

    def test_malformed_params_rejected_at_submit_not_in_worker(self, frontend):
        """The documented contract: shape/type errors are 400, never `failed`."""
        host, port = frontend.address
        payload = discover_payload("acme", make_relation(n_rows=4))
        payload["kind"] = "validate"
        payload["params"] = {"fds": 42}
        status, body = _http(host, port, "POST", "/jobs", payload)
        assert status == 400
        assert "fds" in body["error"]
        assert frontend.app.queue.stats()["submitted"] == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"partition_cache_max_positions": "x"},
            {"marks_cache_bytes": "abc"},
            {"marks_cache_bytes": 1.5},
            {"marks_cache_bytes": True},
        ],
    )
    def test_mistyped_override_is_a_400_and_serving_continues(self, frontend, overrides):
        host, port = frontend.address
        payload = discover_payload("acme", make_relation(n_rows=4))
        status, body = _http(host, port, "POST", "/jobs", dict(payload, overrides=overrides))
        assert status == 400
        assert "engine overrides are retired" in body["error"]
        assert frontend.app.queue.stats()["submitted"] == 0
        assert _http(host, port, "POST", "/jobs", payload)[0] == 202

    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch_validation", True),
            ("batch_min_candidates", 0),
            ("counting_sort_max_codes", 65536),
            ("shard_count", 0),
            ("shard_min_rows", 100_000),
            ("backend", "python"),
            ("backend_min_numpy_rows", 0),
        ],
    )
    def test_retired_engine_fields_are_rejected(self, frontend, field, value):
        host, port = frontend.address
        payload = discover_payload("acme", make_relation(n_rows=4))
        payload["overrides"] = {field: value}
        status, body = _http(host, port, "POST", "/jobs", payload)
        assert status == 400
        assert "engine overrides are retired" in body["error"]
        del payload["overrides"]
        assert _http(host, port, "POST", "/jobs", payload)[0] == 202  # serving continues

    def test_each_response_is_one_write_on_a_keep_alive_connection(self, frontend, monkeypatch):
        """Headers and body leave the server in one write.  A separate body
        write waits for the client's delayed ACK (Nagle, ~40 ms) on a
        keep-alive connection, so every request would pay that wait."""
        writes: list[int] = []
        connections: list[int] = []
        setup = _ServeHandler.setup

        class CountingWriter:
            def __init__(self, wfile):
                self._wfile = wfile

            def write(self, data):
                writes.append(len(data))
                return self._wfile.write(data)

            def __getattr__(self, name):
                return getattr(self._wfile, name)

        def counting_setup(handler):
            setup(handler)
            connections.append(1)
            handler.wfile = CountingWriter(handler.wfile)

        monkeypatch.setattr(_ServeHandler, "setup", counting_setup)
        host, port = frontend.address
        conn = http.client.HTTPConnection(host, port, timeout=WAIT)
        round_trips = []
        try:
            for count in range(1, 21):
                started = time.perf_counter()
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                body = json.loads(response.read())
                round_trips.append(time.perf_counter() - started)
                assert response.status == 200 and body["status"] == "ok"
                assert not response.will_close
                assert len(writes) == count
        finally:
            conn.close()
        assert len(connections) == 1
        # Loose: ~1 ms with one write, ~44 ms with the delayed-ACK stall.
        assert statistics.median(round_trips) < 0.020

    def test_unread_body_error_closes_the_connection(self, frontend):
        """Early-exit POST errors must not corrupt HTTP/1.1 keep-alive: the
        unread body would be parsed as the next request line otherwise."""
        host, port = frontend.address
        conn = http.client.HTTPConnection(host, port, timeout=WAIT)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            # Declared far beyond max_body_bytes; only a stub is ever sent.
            conn.putheader("Content-Length", str(1 << 30))
            conn.endheaders()
            conn.send(b'{"x": 1}')
            response = conn.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            assert response.will_close
            response.read()
        finally:
            conn.close()
        # A fresh connection keeps working.
        assert _http(host, port, "GET", "/healthz")[0] == 200

    def test_backpressure_maps_to_429(self, monkeypatch):
        gate = threading.Event()
        monkeypatch.setattr(
            "repro.serve.server.execute_request",
            lambda session, request: gate.wait(WAIT),
        )
        server = Server(workers=1, max_queue=1, executor="thread")
        frontend = HttpFrontend(server, port=0).start()
        try:
            host, port = frontend.address
            payload = discover_payload("acme", make_relation(n_rows=4))
            assert _http(host, port, "POST", "/jobs", payload)[0] == 202
            # Wait until the worker picked the first job up, then fill the
            # single queue slot; the next submission must bounce with 429.
            deadline = time.monotonic() + WAIT
            while server.queue.stats()["running"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert _http(host, port, "POST", "/jobs", payload)[0] == 202
            conn = http.client.HTTPConnection(host, port, timeout=WAIT)
            try:
                body = json.dumps(payload)
                conn.request(
                    "POST", "/jobs", body=body, headers={"Content-Type": "application/json"}
                )
                response = conn.getresponse()
                rejected = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 429
            assert "full" in rejected["error"]
            # The backpressure hint: depth-derived, in the header (for
            # standard HTTP clients) and the body (for programmatic ones).
            retry_after = response.getheader("Retry-After")
            assert retry_after is not None and int(retry_after) >= 1
            assert rejected["retry_after"] == int(retry_after)
        finally:
            gate.set()
            frontend.stop()
            server.close()

    def test_cancel_over_http(self, monkeypatch):
        gate = threading.Event()
        monkeypatch.setattr(
            "repro.serve.server.execute_request",
            lambda session, request: gate.wait(WAIT),
        )
        server = Server(workers=1, executor="thread")
        frontend = HttpFrontend(server, port=0).start()
        try:
            host, port = frontend.address
            payload = discover_payload("acme", make_relation(n_rows=4))
            _, first = _http(host, port, "POST", "/jobs", payload)
            _, second = _http(host, port, "POST", "/jobs", payload)
            status, body = _http(host, port, "DELETE", f"/jobs/{second['job_id']}")
            assert status == 200 and body["cancelled"] is True
            status, body = _http(host, port, "GET", f"/jobs/{second['job_id']}")
            assert body["status"] == CANCELLED
        finally:
            gate.set()
            frontend.stop()
            server.close()


class TestServeCLI:
    def test_parser_flags(self):
        from repro.serve.cli import build_serve_parser

        flags = [
            "--workers",
            "8",
            "--max-queue",
            "128",
            "--port",
            "0",
            "--timeout",
            "2.5",
            "--executor",
            "process",
            "--no-warmup",
            "--start-method",
            "spawn",
        ]
        args = build_serve_parser().parse_args(flags)
        assert args.workers == 8
        assert args.max_queue == 128
        assert args.timeout == 2.5
        assert args.executor == "process"
        assert args.warmup is False
        assert args.start_method == "spawn"

    def test_parser_defaults_come_from_env(self, monkeypatch):
        from repro.serve.cli import build_serve_parser

        monkeypatch.setenv("REPRO_SERVE_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "6")
        monkeypatch.setenv("REPRO_SERVE_WARMUP", "0")
        args = build_serve_parser().parse_args([])
        assert args.executor == "process"
        assert args.workers == 6
        assert args.warmup is False

    def test_graceful_shutdown_escapes_request_handling(self):
        """SIGTERM's exception is not swallowed by ``socketserver``'s ``except Exception``."""
        import socket
        import socketserver

        from repro.serve.cli import _GracefulShutdown

        class SignalledServer(socketserver.TCPServer):
            def process_request(self, request, client_address):
                raise _GracefulShutdown

        with SignalledServer(("127.0.0.1", 0), socketserver.BaseRequestHandler) as server:
            server.timeout = 10
            with socket.create_connection(server.server_address, timeout=10):
                with pytest.raises(_GracefulShutdown):
                    server.handle_request()

    def test_missing_tenant_config_fails_cleanly(self, capsys):
        # ``--tenant-config`` is retired (tenants have no engine settings):
        # it is a usage error, exit status 2, before anything is served.
        from repro.serve.cli import main_serve

        with pytest.raises(SystemExit) as excinfo:
            main_serve(["--tenant-config", "tenants.json"])
        assert excinfo.value.code == 2
        assert "--tenant-config" in capsys.readouterr().err

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_python_m_repro_serve_end_to_end(self, tmp_path, executor):
        """`python -m repro serve` boots, serves a job over HTTP, shuts down."""
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--workers",
            "2",
            "--executor",
            executor,
        ]
        process = subprocess.Popen(
            argv,
            cwd=str(_SRC.parent),
            env={"PYTHONPATH": str(_SRC), "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "serving on http://" in banner, banner
            address = banner.split("http://", 1)[1].split()[0]
            host, port = address.split(":")
            status, ticket = _http(
                host,
                int(port),
                "POST",
                "/jobs",
                discover_payload("acme", make_relation()),
            )
            assert status == 202
            deadline = time.monotonic() + WAIT
            while True:
                status, body = _http(host, int(port), "GET", f"/jobs/{ticket['job_id']}")
                if body["status"] in (DONE, FAILED):
                    break
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert body["status"] == DONE
            bare = Session().discover(make_relation(), algorithm="tane")
            assert body["result"]["artifacts"] == bare.payload["artifacts"]
        finally:
            process.terminate()
            process.wait(timeout=WAIT)
