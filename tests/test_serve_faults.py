"""Chaos suite: the serving stack under deterministic fault injection.

``repro.serve.faults`` turns worker kills, execution delays, pipe drops and
transient errors into *replayable* inputs: every decision is a pure function
of ``(seed, rule, site, arrival)``.  On top of it this file pins the PR's
fault-tolerance contracts —

* infra failures (killed worker, broken pipe, injected transient fault)
  retry with capped exponential backoff + deterministic jitter up to
  ``max_attempts``; application failures never retry;
* ``deadline_ms`` bounds queue wait *and* execution, producing the distinct
  ``deadline_exceeded`` terminal state (the watchdog kills overrunning
  process workers; thread jobs finish cooperatively, result discarded);
* a crash-looping process executor exhausts its restart budget, turns
  *degraded* (503 on ``/healthz``) and can fall back to inline execution;
* under a seeded kill/delay/drop storm every job reaches a terminal state,
  no worker leaks, the server drains within its deadline, and every job
  that *did* finish — including retried ones — carries artefacts
  byte-identical to a fault-free run;
* SIGTERM drains the CLI server gracefully within the drain deadline.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from repro.config import ServeConfig
from repro.relational.relation import Relation
from repro.serve import (
    DEADLINE_EXCEEDED,
    DONE,
    FAILED,
    FAILURE_APPLICATION,
    FAILURE_INFRA,
    FaultPlan,
    FaultRule,
    FaultSpecError,
    HttpFrontend,
    InjectedFault,
    JobQueue,
    JobRequest,
    ProcessExecutor,
    RemoteJobError,
    RestartSupervisor,
    Server,
    ThreadExecutor,
    WorkerCrashed,
    classify_failure,
    execute_request,
    relation_to_payload,
    retry_backoff,
)
from repro.serve.faults import SITE_THREAD_RUN
from repro.session import Session

pytestmark = pytest.mark.slow

_SRC = Path(__file__).resolve().parent.parent / "src"

#: Generous bound for waits that should complete almost instantly.
WAIT = 30.0

#: The CI chaos matrix narrows the storm to one executor × one seed per leg
#: (REPRO_SERVE_EXECUTOR / REPRO_CHAOS_SEED); locally the full grid runs.
_ENV_EXECUTOR = os.environ.get("REPRO_SERVE_EXECUTOR", "")
STORM_EXECUTORS = (
    [_ENV_EXECUTOR] if _ENV_EXECUTOR in ("thread", "process") else ["thread", "process"]
)
_ENV_SEED = os.environ.get("REPRO_CHAOS_SEED", "")
STORM_SEEDS = [int(_ENV_SEED)] if _ENV_SEED.isdigit() else [3, 17, 29]


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


def storm_stream(tenants: int = 4, jobs_per_tenant: int = 13) -> list[dict]:
    """A deterministic multi-tenant job stream (≥ 50 jobs by default)."""
    payloads = []
    kinds = ("discover", "validate", "profile")
    for t in range(tenants):
        relation = make_relation(name=f"r{t}", n_rows=30 + 10 * t, salt=t)
        for j in range(jobs_per_tenant):
            kind = kinds[(t + j) % len(kinds)]
            if kind == "discover":
                params = {"algorithm": ("tane", "fun")[j % 2], "max_lhs_size": 2}
            elif kind == "validate":
                params = {"fds": ["a -> b", "c -> d", [["a", "c"], "d"]]}
            else:
                params = {"threshold": (0.2, 0.5)[j % 2], "max_lhs": 2}
            payloads.append(job_payload(f"tenant-{t}", kind, relation, params))
    return payloads


class TestFaultSpec:
    def test_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            "seed=42;process.kill:kill:p=0.1;queue.execute:delay:ms=20:p=0.3:times=5:after=2"
        )
        assert plan.seed == 42
        assert plan.rules == (
            FaultRule(site="process.kill", kind="kill", probability=0.1),
            FaultRule(
                site="queue.execute", kind="delay", probability=0.3, delay_ms=20, times=5, after=2
            ),
        )

    def test_empty_specs_disable_injection(self):
        assert FaultPlan.from_spec(None) is None
        assert FaultPlan.from_spec("") is None
        assert FaultPlan.from_spec("  ;  ") is None
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({"REPRO_FAULTS": "thread.run:error"}) is not None

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("seed=x;thread.run:error", "invalid fault seed"),
            ("thread.run", "site:kind"),
            ("thread.run:explode", "unknown fault kind"),
            ("warp.core:error", "matches no known site"),
            ("thread.run:error:p=2", "probability"),
            ("thread.run:delay:ms=-1", "delay_ms"),
            ("thread.run:error:times=0", "times"),
            ("thread.run:error:zzz=1", "unknown fault rule option"),
            ("thread.run:error:p", "key=value"),
        ],
    )
    def test_malformed_specs_rejected(self, spec, message):
        with pytest.raises(FaultSpecError, match=message):
            FaultPlan.from_spec(spec)

    def test_decisions_are_deterministic_and_thread_order_independent(self):
        """The n-th arrival fires identically however arrivals interleave."""

        def verdicts(plan: FaultPlan, n: int) -> list[bool]:
            out = []
            for _ in range(n):
                try:
                    plan.fire(SITE_THREAD_RUN)
                    out.append(False)
                except InjectedFault:
                    out.append(True)
            return out

        first = verdicts(FaultPlan.from_spec("seed=7;thread.run:error:p=0.4"), 64)
        second = verdicts(FaultPlan.from_spec("seed=7;thread.run:error:p=0.4"), 64)
        other_seed = verdicts(FaultPlan.from_spec("seed=8;thread.run:error:p=0.4"), 64)
        assert first == second
        assert first != other_seed
        assert 5 < sum(first) < 60  # p=0.4 over 64 arrivals: not degenerate

    def test_times_cap_and_after_skip(self):
        plan = FaultPlan.from_spec("thread.run:error:times=2:after=1")
        fired = 0
        for _ in range(10):
            try:
                plan.fire(SITE_THREAD_RUN)
            except InjectedFault:
                fired += 1
        assert fired == 2  # capped by times=2
        stats = plan.stats()
        assert stats["arrivals"][SITE_THREAD_RUN] == 10
        assert stats["fired"]["thread.run:error"] == 2

    def test_kill_rule_invokes_callback_and_glob_sites_match(self):
        plan = FaultPlan.from_spec("process.*:kill")
        killed = []
        plan.fire("process.kill", on_kill=lambda: killed.append(True))
        assert killed == [True]
        plan.fire("process.kill")  # no callback offered: silently skipped
        plan.fire(SITE_THREAD_RUN)  # unmatched site: no effect

    def test_drop_raises_connection_reset(self):
        plan = FaultPlan.from_spec("thread.run:drop")
        with pytest.raises(ConnectionResetError, match="injected pipe drop"):
            plan.fire(SITE_THREAD_RUN)

    def test_delay_sleeps(self):
        plan = FaultPlan.from_spec("thread.run:delay:ms=30")
        started = time.monotonic()
        plan.fire(SITE_THREAD_RUN)
        assert time.monotonic() - started >= 0.025


class TestFailureClassification:
    def test_infra_vs_application(self):
        assert classify_failure(WorkerCrashed("killed")) == FAILURE_INFRA
        assert classify_failure(InjectedFault("flaky")) == FAILURE_INFRA
        assert classify_failure(ConnectionResetError("drop")) == FAILURE_INFRA
        assert classify_failure(EOFError()) == FAILURE_INFRA
        assert classify_failure(RemoteJobError("ValueError: bad params")) == FAILURE_APPLICATION
        assert classify_failure(ValueError("bad params")) == FAILURE_APPLICATION

    def test_backoff_is_deterministic_capped_and_jittered(self):
        first = [retry_backoff("job-1", n, base=0.05, cap=2.0) for n in range(1, 12)]
        again = [retry_backoff("job-1", n, base=0.05, cap=2.0) for n in range(1, 12)]
        other = [retry_backoff("job-2", n, base=0.05, cap=2.0) for n in range(1, 12)]
        assert first == again  # pure in (job_id, attempt)
        assert first != other  # jitter decorrelates jobs
        for attempt, delay in enumerate(first, start=1):
            envelope = min(2.0, 0.05 * 2 ** (attempt - 1))
            assert envelope * 0.5 <= delay <= envelope
        assert max(first) <= 2.0


class TestRetries:
    def test_transient_infra_failures_retry_to_success(self):
        plan = FaultPlan.from_spec("seed=1;queue.execute:error:times=2")
        queue = JobQueue(
            workers=1,
            executor=ThreadExecutor(),
            max_attempts=3,
            retry_backoff_base=0.01,
            retry_backoff_cap=0.05,
            faults=plan,
        )
        try:
            job = queue.submit("acme", lambda: "ok")
            assert job.wait(WAIT)
            assert job.status == DONE
            assert job.result == "ok"
            assert job.attempts == 3  # two injected failures, then success
            assert job.failure_class is None
            assert queue.stats()["retries"] == 2
        finally:
            queue.close()

    def test_attempts_exhausted_fails_with_infra_class(self):
        plan = FaultPlan.from_spec("queue.execute:error")  # always fires
        queue = JobQueue(
            workers=1,
            executor=ThreadExecutor(),
            max_attempts=2,
            retry_backoff_base=0.01,
            retry_backoff_cap=0.05,
            faults=plan,
        )
        try:
            job = queue.submit("acme", lambda: "never")
            assert job.wait(WAIT)
            assert job.status == FAILED
            assert job.failure_class == FAILURE_INFRA
            assert job.attempts == 2
            assert "InjectedFault" in job.error
        finally:
            queue.close()

    def test_application_failures_never_retry(self):
        queue = JobQueue(workers=1, executor=ThreadExecutor(), max_attempts=5)
        try:

            def explode():
                raise ValueError("bad params")

            job = queue.submit("acme", explode)
            assert job.wait(WAIT)
            assert job.status == FAILED
            assert job.attempts == 1
            assert job.failure_class == FAILURE_APPLICATION
            assert queue.stats()["retries"] == 0
        finally:
            queue.close()

    def test_killed_process_worker_is_retried_transparently(self):
        """The whole point of infra retries: a SIGKILLed worker costs the
        client nothing — the job reruns on the respawned worker and its
        payload is byte-identical to an undisturbed run."""
        executor = ProcessExecutor()
        queue = JobQueue(workers=1, executor=executor, max_attempts=3, retry_backoff_base=0.01)
        try:
            payload = job_payload("acme", "discover", make_relation(), {"algorithm": "tane"})
            job = queue.submit("acme", partial(time.sleep, 2.0))
            deadline = time.monotonic() + WAIT
            while job.status == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.005)
            os.kill(executor.worker_pids()[0], signal.SIGKILL)
            # The sleeper was claimed before the kill: attempt 1 crashes,
            # attempt 2 runs on the respawned worker.
            assert job.wait(WAIT)
            assert job.status == DONE
            assert job.attempts == 2
            assert queue.stats()["retries"] == 1
            # And a real engine job retried the same way stays byte-identical.
            redo = queue.submit("acme", payload)
            assert redo.wait(WAIT)
            assert redo.status == DONE
            bare = Session().discover(make_relation(), algorithm="tane")
            assert redo.result.payload["artifacts"] == bare.payload["artifacts"]
        finally:
            queue.close()


class TestDeadlines:
    def test_deadline_exceeded_while_queued(self):
        queue = JobQueue(workers=1, executor=ThreadExecutor())
        try:
            import threading

            gate = threading.Event()
            blocker = queue.submit("acme", lambda: gate.wait(WAIT))
            doomed = queue.submit("other", lambda: "never", deadline_ms=50)
            assert doomed.wait(WAIT)
            assert doomed.status == DEADLINE_EXCEEDED
            assert "while queued" in doomed.error
            assert queue.stats()["deadline_exceeded"] == 1
            gate.set()
            assert blocker.wait(WAIT)
        finally:
            queue.close()

    def test_thread_executor_overrun_is_cooperative(self):
        """Thread slots cannot be preempted: the job turns terminal at its
        deadline (waiters release immediately) and the late result is
        discarded when the callable eventually returns."""
        queue = JobQueue(workers=1, executor=ThreadExecutor())
        try:
            started = time.monotonic()
            job = queue.submit("acme", partial(time.sleep, 1.0), deadline_ms=100)
            assert job.wait(WAIT)
            waited = time.monotonic() - started
            assert job.status == DEADLINE_EXCEEDED
            assert "during execution" in job.error
            assert waited < 0.9  # released at the deadline, not after the sleep
            assert job.result is None
        finally:
            queue.close()

    def test_process_executor_overrun_is_killed_and_slot_respawns(self):
        executor = ProcessExecutor()
        queue = JobQueue(workers=1, executor=executor)
        try:
            started = time.monotonic()
            job = queue.submit("acme", partial(time.sleep, WAIT), deadline_ms=150)
            assert job.wait(WAIT)
            assert job.status == DEADLINE_EXCEEDED
            assert time.monotonic() - started < 10.0  # not the sleeper's 30 s
            # The killed worker respawns and the slot keeps serving.
            follow_up = queue.submit("acme", partial(os.getpid))
            assert follow_up.wait(WAIT)
            assert follow_up.status == DONE
            assert executor.stats()["respawns"] >= 1
        finally:
            queue.close()

    def test_deadline_rejects_invalid_values(self):
        queue = JobQueue(workers=1, executor=ThreadExecutor())
        try:
            with pytest.raises(ValueError, match="deadline_ms"):
                queue.submit("acme", lambda: None, deadline_ms=0)
        finally:
            queue.close()

    def test_deadline_on_the_wire(self):
        """`deadline_ms` rides job-request-v1 end to end and the status
        payload reports the distinct terminal state plus attempts."""
        with Server(workers=1, executor="thread") as server:
            payload = job_payload("acme", "discover", make_relation(), {"algorithm": "tane"})
            payload["deadline_ms"] = 25_000
            ticket = server.submit(payload)
            result = server.result(ticket.job_id, timeout=WAIT)
            status = server.status(ticket.job_id)
            assert status["status"] == DONE
            assert status["deadline_ms"] == 25_000
            assert status["attempts"] == 1
            assert status["failure_class"] is None
            bare = Session().discover(make_relation(), algorithm="tane")
            assert result.payload["artifacts"] == bare.payload["artifacts"]


class TestSupervision:
    def test_rolling_window_budget(self):
        supervisor = RestartSupervisor(budget=2, window=60.0)
        assert not supervisor.degraded()
        for _ in range(3):
            supervisor.record()
        assert supervisor.degraded()
        snapshot = supervisor.snapshot()
        assert snapshot["degraded"] is True
        assert snapshot["respawns_in_window"] == 3
        assert snapshot["restart_budget"] == 2

    def test_window_expiry_self_heals(self):
        supervisor = RestartSupervisor(budget=1, window=0.05)
        supervisor.record()
        supervisor.record()
        assert supervisor.degraded()
        deadline = time.monotonic() + WAIT
        while supervisor.degraded():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert supervisor.snapshot()["respawns_in_window"] == 0
        assert supervisor.snapshot()["respawns_total"] == 2

    def test_crash_loop_degrades_healthz_to_503(self):
        """A kill storm beyond the restart budget flips /healthz to 503 with
        the live worker table in the payload."""
        plan = FaultPlan.from_spec("process.kill:kill")  # kill on every send
        server = Server(
            workers=1,
            executor="process",
            max_attempts=1,
            restart_budget=1,
            restart_window=300.0,
            faults=plan,
        )
        frontend = HttpFrontend(server, port=0).start()
        try:
            host, port = frontend.address
            for _ in range(3):  # three crashes > budget of 1
                job = server.submit(
                    job_payload("acme", "discover", make_relation(), {"algorithm": "tane"})
                )
                with pytest.raises(RuntimeError):
                    server.result(job.job_id, timeout=WAIT)
            import http.client

            conn = http.client.HTTPConnection(host, port, timeout=WAIT)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                body = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 503
            assert body["status"] == "degraded"
            assert body["degraded"] is True
            assert body["executor"]["respawns"] >= 2
            assert isinstance(body["executor"]["slots"], list)
            assert server.stats()["executor"]["degraded"] is True
        finally:
            frontend.stop()
            server.close()

    def test_degraded_fallback_runs_jobs_inline(self):
        """With the fallback armed, a degraded process executor keeps
        serving — inline, through the same dispatch, byte-identical."""
        plan = FaultPlan.from_spec("process.kill:kill:times=3")
        server = Server(
            workers=1,
            executor="process",
            max_attempts=1,
            restart_budget=1,
            restart_window=300.0,
            degraded_fallback=True,
            faults=plan,
        )
        try:
            payload = job_payload("acme", "discover", make_relation(), {"algorithm": "tane"})
            outcomes = []
            for _ in range(6):
                ticket = server.submit(payload)
                try:
                    result = server.result(ticket.job_id, timeout=WAIT)
                except RuntimeError:
                    outcomes.append(None)
                else:
                    outcomes.append(result)
            done = [result for result in outcomes if result is not None]
            assert done, "no job survived the kill storm"
            executor_stats = server.stats()["executor"]
            assert executor_stats["degraded"] is True
            assert executor_stats["fallback_jobs"] >= 1
            bare = Session().discover(make_relation(), algorithm="tane")
            for result in done:
                payload_out = json.loads(result) if isinstance(result, str) else result.payload
                assert payload_out["artifacts"] == bare.payload["artifacts"]
        finally:
            server.close()


class TestChaosStorm:
    """The acceptance storm: ≥ 50 jobs under seeded kills/delays/drops."""

    STORM_THREAD = (
        "seed={seed};"
        "queue.execute:error:p=0.12:times=8;"
        "queue.execute:delay:ms=5:p=0.3;"
        "thread.run:error:p=0.08:times=5"
    )
    STORM_PROCESS = (
        "seed={seed};"
        "process.kill:kill:p=0.05:times=3;"
        "queue.execute:error:p=0.1:times=6;"
        "queue.execute:delay:ms=5:p=0.3;"
        "process.recv:drop:p=0.04:times=3"
    )

    @pytest.mark.parametrize("executor", STORM_EXECUTORS)
    @pytest.mark.parametrize("seed", STORM_SEEDS)
    def test_storm_every_job_terminal_no_leaks_bytes_identical(self, executor, seed):
        payloads = storm_stream()
        assert len(payloads) >= 50
        spec = (self.STORM_THREAD if executor == "thread" else self.STORM_PROCESS).format(
            seed=seed
        )
        # Fault-free reference runs, one session per tenant (matching the
        # server's tenant isolation) — what every `done` job must equal.
        reference: dict[int, dict] = {}
        sessions: dict[str, Session] = {}
        for index, payload in enumerate(payloads):
            session = sessions.setdefault(payload["tenant"], Session())
            reference[index] = execute_request(session, JobRequest.from_payload(payload)).payload

        server = Server(
            workers=3,
            max_queue=len(payloads),
            executor=executor,
            max_attempts=3,
            restart_budget=1000,  # the storm tests retries, not degradation
            faults=spec,
        )
        tickets = []
        try:
            for payload in payloads:
                tickets.append(server.submit(payload))
            terminal = ("done", "failed", "cancelled", DEADLINE_EXCEEDED)
            deadline = time.monotonic() + 4 * WAIT
            statuses = {}
            while True:
                statuses = {t.job_id: server.status(t.job_id) for t in tickets}
                if all(s["status"] in terminal for s in statuses.values()):
                    break
                assert time.monotonic() < deadline, (
                    "storm did not settle: "
                    f"{[s['status'] for s in statuses.values()]}"
                )
                time.sleep(0.05)
            done = {
                index: statuses[ticket.job_id]
                for index, ticket in enumerate(tickets)
                if statuses[ticket.job_id]["status"] == "done"
            }
            # The storm is survivable by design (p·times caps): most jobs
            # finish, and every one that did is byte-for-byte the fault-free
            # artefact — retries never smear results.
            assert len(done) >= len(payloads) // 2
            for index, status in done.items():
                assert status["result"]["artifacts"] == reference[index]["artifacts"]
                assert status["attempts"] >= 1
            failed = [s for s in statuses.values() if s["status"] == "failed"]
            for status in failed:
                assert status["failure_class"] in (FAILURE_INFRA, FAILURE_APPLICATION)
            if executor == "process":
                assert server.stats()["executor"]["alive"] == 3  # fully healed
        finally:
            started = time.monotonic()
            server.close()
            drain = time.monotonic() - started
        assert drain < 2 * server.drain_deadline
        if executor == "process":
            # No leaked worker processes after close.
            leaked = [
                child
                for child in multiprocessing.active_children()
                if child.name.startswith("repro-serve")
            ]
            assert leaked == []

    def test_storm_replays_identically_under_one_seed(self):
        """Same seed → the fault plan fires the same rule counts."""

        def run_once() -> dict:
            plan = FaultPlan.from_spec("seed=11;queue.execute:error:p=0.2:times=4")
            queue = JobQueue(
                workers=1,
                executor=ThreadExecutor(),
                max_attempts=3,
                retry_backoff_base=0.005,
                retry_backoff_cap=0.01,
                faults=plan,
            )
            try:
                jobs = [queue.submit("acme", partial(int, "7")) for _ in range(20)]
                for job in jobs:
                    assert job.wait(WAIT)
                return {
                    "fired": plan.stats()["fired"],
                    "statuses": [job.status for job in jobs],
                    "attempts": [job.attempts for job in jobs],
                }
            finally:
                queue.close()

        assert run_once() == run_once()


class TestGracefulDrain:
    def test_sigterm_drains_within_deadline(self, tmp_path):
        """SIGTERM → the CLI stops accepting, drains and exits 0, bounded by
        --drain-deadline (not by any in-flight work)."""
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
            "thread",
            "--drain-deadline",
            "5",
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
            process.send_signal(signal.SIGTERM)
            started = time.monotonic()
            out, _ = process.communicate(timeout=WAIT)
            assert time.monotonic() - started < 15.0
            assert process.returncode == 0
            assert "draining" in out
            assert "drained" in out
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()
                process.wait(timeout=WAIT)

    def test_server_close_is_bounded_by_drain_deadline(self):
        server = Server(workers=1, executor="process", drain_deadline=0.5)
        job = server.queue.submit("acme", partial(time.sleep, WAIT))
        deadline = time.monotonic() + WAIT
        while job.status == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.005)
        started = time.monotonic()
        server.close()
        assert time.monotonic() - started < 10.0  # bounded, not the job's 30 s
        assert job.status == FAILED
        assert "shutting down" in job.error


class TestConfigSurface:
    def test_serve_config_fault_fields_from_env(self):
        config = ServeConfig.from_env(
            {
                "REPRO_SERVE_MAX_ATTEMPTS": "5",
                "REPRO_SERVE_RESTART_BUDGET": "9",
                "REPRO_SERVE_RESTART_WINDOW": "12.5",
                "REPRO_SERVE_DEGRADED_FALLBACK": "1",
                "REPRO_SERVE_DRAIN_DEADLINE": "3.5",
                "REPRO_FAULTS": "thread.run:error:p=0.5",
            }
        )
        assert config.max_attempts == 5
        assert config.restart_budget == 9
        assert config.restart_window == 12.5
        assert config.degraded_fallback is True
        assert config.drain_deadline == 3.5
        assert config.faults == "thread.run:error:p=0.5"

    def test_from_env_fields_reads_only_what_was_asked(self):
        """An explicit server never trips over unrelated malformed env."""
        env = {"REPRO_SERVE_EXECUTOR": "fibers", "REPRO_SERVE_MAX_ATTEMPTS": "4"}
        values = ServeConfig.from_env_fields(["max_attempts", "drain_deadline"], env)
        assert values == {"max_attempts": 4, "drain_deadline": 10.0}

    def test_fully_explicit_server_ignores_bogus_env(self, monkeypatch):
        """With all 13 ``ServeConfig`` fields given, no variable is read."""
        from repro import config
        from repro.config import ConfigError
        from repro.registry import RelationRegistry

        variables = [
            value
            for name, value in vars(config).items()
            if name.startswith("ENV_SERVE_") or name == "ENV_REGISTRY_DIR"
        ]
        assert len(variables) == 13
        for variable in variables:
            monkeypatch.setenv(variable, "bogus")
        explicit = dict(
            workers=2,
            executor="thread",
            warmup=False,
            start_method="fork",
            max_attempts=4,
            restart_budget=7,
            restart_window=12.5,
            degraded_fallback=True,
            drain_deadline=3.5,
            faults="",
            registry=RelationRegistry(),
            processes=1,
            max_jobs_per_worker=9,
        )
        server = Server(**explicit)
        try:
            assert server.queue.workers == 2
            assert server.queue.max_attempts == 4
            assert server.drain_deadline == 3.5
            assert server.registry is explicit["registry"]
            assert not server.registry.persistent
        finally:
            server.close()
        # Leaving one field to the environment reads its bogus variable.
        with pytest.raises(ConfigError, match="bogus"):
            Server(**{**explicit, "executor": None})

    def test_cli_parser_exposes_fault_tolerance_flags(self):
        from repro.serve.cli import build_serve_parser

        args = build_serve_parser().parse_args(
            [
                "--max-attempts",
                "4",
                "--restart-budget",
                "7",
                "--restart-window",
                "45",
                "--degraded-fallback",
                "--drain-deadline",
                "2.5",
                "--faults",
                "seed=3;thread.run:error:p=0.1",
            ]
        )
        assert args.max_attempts == 4
        assert args.restart_budget == 7
        assert args.restart_window == 45.0
        assert args.degraded_fallback is True
        assert args.drain_deadline == 2.5
        assert args.faults == "seed=3;thread.run:error:p=0.1"
