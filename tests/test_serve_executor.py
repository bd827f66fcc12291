"""Tests for the pluggable serving executors (``repro.serve.executor``).

The headline guarantee: the thread and process executors serve
**byte-identical** ``repro/run-result-v1`` artefacts for the same job
stream (the process workers go through the same JSON wire format and the
same ``execute_request`` dispatch as a bare session).  Around it, every
queue semantic is re-pinned on the process executor — backpressure,
per-tenant in-flight cap, cancel of queued jobs, queue-wait timeouts,
graceful shutdown — plus the process-only behaviour: a killed worker
process fails only its own job (with a diagnostic) and is respawned.
"""

from __future__ import annotations

import json
import os
import random
import signal
import time
from functools import partial

import pytest

from repro.config import ConfigError, ServeConfig
from repro.relational.relation import Relation
from repro.serve import (
    CANCELLED,
    DONE,
    FAILED,
    JobQueue,
    ProcessExecutor,
    QueueFull,
    Server,
    SessionPool,
    ThreadExecutor,
    execute_payload,
    make_executor,
    relation_to_payload,
)
from repro.session import Session

pytestmark = pytest.mark.slow

#: Generous bound for waits that should complete almost instantly.
WAIT = 30.0

#: How long the blocking task of occupancy-based tests sleeps.  Long enough
#: that assertions about "still busy" states are safe, short enough that a
#: drain on close stays fast.
BUSY = 1.5


def make_relation(name: str = "t", n_rows: int = 60, salt: int = 0) -> Relation:
    rows = [(i % 6, (i % 6) * 2, (i + salt) % 4, f"v{(i + salt) % 3}") for i in range(n_rows)]
    return Relation(name, ("a", "b", "c", "d"), rows)


def job_payload(tenant: str, kind: str, relation: Relation, params: dict) -> dict:
    return {
        "schema": "repro/job-request-v1",
        "tenant": tenant,
        "kind": kind,
        "relation": relation_to_payload(relation),
        "params": params,
        "overrides": {},
    }


def wait_for_running(job, deadline: float = WAIT) -> None:
    """Poll until ``job`` left the queue (its worker claimed it)."""
    limit = time.monotonic() + deadline
    while job.status == "queued":
        assert time.monotonic() < limit, f"{job} never started"
        time.sleep(0.005)


def random_job_stream(seed: int, tenants: int = 3, jobs_per_tenant: int = 3) -> list[dict]:
    """A deterministic pseudo-random multi-tenant job stream."""
    rng = random.Random(seed)
    payloads = []
    for t in range(tenants):
        relation = make_relation(name=f"r{t}", n_rows=rng.randrange(30, 90), salt=t)
        for _ in range(jobs_per_tenant):
            kind = rng.choice(("discover", "validate", "profile"))
            if kind == "discover":
                params = {"algorithm": rng.choice(("tane", "fun")), "max_lhs_size": 2}
            elif kind == "validate":
                params = {"fds": ["a -> b", "c -> d", [["a", "c"], "d"]]}
            else:
                params = {"threshold": rng.choice((0.2, 0.5)), "max_lhs": 2}
            payloads.append(job_payload(f"tenant-{t}", kind, relation, params))
    rng.shuffle(payloads)
    return payloads


class TestServeConfig:
    def test_defaults(self):
        config = ServeConfig()
        assert config.executor == "thread"
        assert config.workers == 4
        assert config.warmup is True
        assert config.start_method == "spawn"

    def test_from_env(self):
        env = {
            "REPRO_SERVE_EXECUTOR": "process",
            "REPRO_SERVE_WORKERS": "7",
            "REPRO_SERVE_WARMUP": "0",
            "REPRO_SERVE_START_METHOD": "fork",
        }
        config = ServeConfig.from_env(env)
        assert config.executor == "process"
        assert config.workers == 7
        assert config.warmup is False
        assert config.start_method == "fork"

    def test_invalid_choices_rejected(self):
        with pytest.raises(ConfigError, match="executor"):
            ServeConfig(executor="fibers")
        with pytest.raises(ConfigError, match="workers"):
            ServeConfig(workers=0)
        with pytest.raises(ConfigError, match="start method"):
            ServeConfig(start_method="teleport")
        with pytest.raises(ConfigError, match="executor"):
            ServeConfig.from_env({"REPRO_SERVE_EXECUTOR": "fibers"})

    def test_fully_explicit_server_ignores_malformed_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_EXECUTOR", "fibers")
        monkeypatch.setenv("REPRO_SERVE_START_METHOD", "teleport")
        with Server(
            workers=1, executor="thread", warmup=False, start_method="spawn", max_queue=4
        ) as server:
            assert server.queue.stats()["executor"] == "thread"

    def test_make_executor_kinds(self):
        assert isinstance(make_executor("thread"), ThreadExecutor)
        executor = make_executor("process", warmup=False)
        assert isinstance(executor, ProcessExecutor)
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("fibers")


class TestExecutorParity:
    """Thread and process executors serve byte-identical artefacts."""

    @pytest.mark.parametrize("seed", [7, 21])
    def test_same_job_stream_byte_identical_results(self, seed):
        payloads = random_job_stream(seed)
        results = {}
        for executor in ("thread", "process"):
            with Server(workers=2, max_queue=len(payloads), executor=executor) as server:
                tickets = [server.submit(payload) for payload in payloads]
                results[executor] = [
                    server.result(ticket.job_id, timeout=WAIT) for ticket in tickets
                ]
        for threaded, processed in zip(results["thread"], results["process"]):
            assert threaded.artifact_fingerprint() == processed.artifact_fingerprint()
            # Byte-level identity of everything deterministic: the artifacts
            # and the engine provenance (stats carry wall-clock noise).
            for field in ("artifacts", "engine", "kind", "algorithm", "subject"):
                threaded_bytes = json.dumps(threaded.payload[field], sort_keys=True)
                processed_bytes = json.dumps(processed.payload[field], sort_keys=True)
                assert threaded_bytes == processed_bytes

    def test_process_results_match_bare_session(self):
        relation = make_relation()
        payload = job_payload("acme", "discover", relation, {"algorithm": "tane"})
        with Server(workers=1, executor="process") as server:
            served = server.result(server.submit(payload).job_id, timeout=WAIT)
        bare = Session().discover(make_relation(), algorithm="tane")
        assert json.dumps(served.payload["artifacts"], sort_keys=True) == json.dumps(
            bare.payload["artifacts"], sort_keys=True
        )

    def test_failure_diagnostics_identical_across_executors(self):
        # A semantic (run-time) failure whose message depends only on the
        # request: an FD over an attribute the relation does not have.
        # (Registry-listing errors would embed process-local registrations.)
        payload = job_payload("acme", "validate", make_relation(n_rows=6), {"fds": ["nope -> a"]})
        errors = {}
        for executor in ("thread", "process"):
            with Server(workers=1, executor=executor) as server:
                job = server.queue.get(server.submit(payload).job_id)
                assert job.wait(WAIT)
                assert job.status == FAILED
                errors[executor] = job.error
        assert errors["thread"] == errors["process"]


class TestProcessExecutorQueueSemantics:
    """Every queue guarantee holds when execution happens out of process."""

    def test_backpressure_raises_queue_full(self):
        queue = JobQueue(workers=1, max_queue=2, executor=ProcessExecutor())
        try:
            blocker = queue.submit("acme", partial(time.sleep, BUSY))
            wait_for_running(blocker)
            queue.submit("acme", partial(time.sleep, 0))
            queue.submit("acme", partial(time.sleep, 0))
            with pytest.raises(QueueFull):
                queue.submit("acme", partial(time.sleep, 0))
            assert queue.stats()["rejected"] == 1
            assert queue.stats()["executor"] == "process"
        finally:
            queue.close()

    def test_per_tenant_cap_prevents_starvation(self):
        queue = JobQueue(workers=2, max_inflight_per_tenant=1, executor=ProcessExecutor())
        try:
            first = queue.submit("flooder", partial(time.sleep, 0.4))
            second = queue.submit("flooder", partial(time.sleep, 0.05))
            victim = queue.submit("victim", partial(time.sleep, 0.05))
            for job in (first, second, victim):
                assert job.wait(WAIT)
                assert job.status == DONE
            # The flooder's second job had to wait for its first (cap 1);
            # the victim ran immediately on the second worker process.
            assert victim.started_at < second.started_at
            assert second.started_at >= first.finished_at
        finally:
            queue.close()

    def test_cancel_queued_job_never_reaches_a_worker(self):
        queue = JobQueue(workers=1, executor=ProcessExecutor())
        try:
            blocker = queue.submit("acme", partial(time.sleep, BUSY))
            wait_for_running(blocker)
            doomed = queue.submit("acme", partial(os.getpid))
            assert queue.cancel(doomed.job_id) is True
            assert doomed.status == CANCELLED
            assert doomed.started_at is None
        finally:
            queue.close()

    def test_queue_wait_timeout_expires_job(self):
        queue = JobQueue(workers=1, executor=ProcessExecutor())
        try:
            blocker = queue.submit("acme", partial(time.sleep, 0.5))
            wait_for_running(blocker)
            doomed = queue.submit("acme", partial(time.sleep, 0), timeout=0.05)
            assert doomed.wait(WAIT)
            assert doomed.status == CANCELLED
            assert "timed out" in doomed.error
            assert queue.stats()["expired"] == 1
        finally:
            queue.close()

    def test_graceful_shutdown_drains_and_reaps_workers(self):
        executor = ProcessExecutor()
        queue = JobQueue(workers=1, executor=executor)
        running = queue.submit("acme", partial(time.sleep, 0.3))
        wait_for_running(running)
        queued = queue.submit("acme", partial(time.sleep, 0))
        queue.close()
        assert running.status == DONE  # drained, not killed
        assert queued.status == CANCELLED  # flushed by shutdown
        assert executor.stats()["alive"] == 0  # no leaked worker processes
        assert executor.stats()["respawns"] == 0  # a clean drain is not a crash

    def test_shutdown_reclaims_a_job_overrunning_the_drain_deadline(self):
        executor = ProcessExecutor()
        queue = JobQueue(workers=1, executor=executor)
        overrunner = queue.submit("acme", partial(time.sleep, WAIT))
        wait_for_running(overrunner)
        started = time.monotonic()
        queue.close(timeout=0.5)
        assert time.monotonic() - started < 10.0  # bounded, not the job's 30 s
        assert overrunner.wait(WAIT)
        assert overrunner.status == FAILED
        assert "shutting down" in overrunner.error
        stats = executor.stats()
        assert stats["alive"] == 0  # the overrunning worker was terminated
        assert stats["respawns"] == 0  # shutdown termination is not a crash

    def test_killed_worker_fails_job_with_diagnostic_and_respawns(self):
        executor = ProcessExecutor()
        queue = JobQueue(workers=1, executor=executor)
        try:
            victim = queue.submit("acme", partial(time.sleep, WAIT))
            wait_for_running(victim)
            pid = executor.worker_pids()[0]
            os.kill(pid, signal.SIGKILL)
            assert victim.wait(WAIT)
            assert victim.status == FAILED
            assert "worker process" in victim.error and str(pid) in victim.error
            assert "fresh worker" in victim.error
            # The next job runs on a freshly spawned worker process.
            follow_up = queue.submit("acme", partial(os.getpid))
            assert follow_up.wait(WAIT)
            assert follow_up.status == DONE
            assert follow_up.result not in (pid, os.getpid())
            assert executor.stats()["respawns"] == 1
        finally:
            queue.close()

    def test_killed_worker_does_not_disturb_other_tenants(self):
        executor = ProcessExecutor()
        queue = JobQueue(workers=2, max_inflight_per_tenant=1, executor=executor)
        try:
            victim = queue.submit("doomed", partial(time.sleep, WAIT))
            wait_for_running(victim)
            survivor = queue.submit("fine", partial(time.sleep, 0.2))
            assert survivor.wait(WAIT)
            assert survivor.status == DONE  # ran next to the doomed job
            # With the survivor finished, the only busy slot is the victim's.
            busy = [index for index, slot in enumerate(executor._slots) if slot.busy]
            assert len(busy) == 1
            os.kill(executor.worker_pids()[busy[0]], signal.SIGKILL)
            assert victim.wait(WAIT)
            assert victim.status == FAILED
            # The other worker process is untouched and still serves jobs.
            follow_up = queue.submit("fine", partial(os.getpid))
            assert follow_up.wait(WAIT)
            assert follow_up.status == DONE
        finally:
            queue.close()


class TestProcessExecutorInternals:
    def test_lazy_spawn_without_warmup(self):
        executor = ProcessExecutor(warmup=False)
        queue = JobQueue(workers=2, executor=executor)
        try:
            assert executor.worker_pids() == [None, None]
            job = queue.submit("acme", partial(os.getpid))
            assert job.wait(WAIT) and job.status == DONE
            assert executor.stats()["spawned"] == 1  # only the used slot
        finally:
            queue.close()

    def test_rejects_unserialisable_tasks(self):
        executor = ProcessExecutor(warmup=False)
        queue = JobQueue(workers=1, executor=executor)
        try:
            job = queue.submit("acme", 42)  # neither payload nor callable
            assert job.wait(WAIT)
            assert job.status == FAILED
            assert "TypeError" in job.error
        finally:
            queue.close()

    def test_execute_payload_matches_session(self):
        payload = job_payload("acme", "validate", make_relation(), {"fds": ["a -> b"]})
        pool = SessionPool()
        via_payload = execute_payload(pool, payload)
        direct = Session().validate(make_relation(), ["a -> b"])
        assert via_payload.artifact_fingerprint() == direct.artifact_fingerprint()
