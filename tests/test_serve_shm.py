"""Integration tests: by-reference jobs and the M:N pool under the serving stack.

With a persistent registry a by-reference job carries only its hash, and
each worker process reads, verifies and caches the relation object itself
(the module keeps the name of the shared-memory plane it replaced).  The
headline pins:

* **byte parity** — a job served by reference through process workers
  produces the identical artefact fingerprint as the thread executor and a
  bare session, under the default engine config and with every cache at its
  minimum, and on the wire leg (an in-memory registry, whose relations the
  server ships inline);
* **serialise-once** — a retried job ships the exact payload bytes of its
  first attempt (``PreparedTask.serialisations == 1`` across attempts);
* **lifecycle hygiene** — kill storms and session eviction never disturb
  the stored objects, and ``Server.close()`` leaves zero ``/dev/shm``
  segments and zero worker processes.
"""

from __future__ import annotations

import glob
import json
import os
import time
from functools import partial

import pytest

from repro.config import ServeConfig
from repro.relational import backend as backend_module
from repro.serve import (
    DONE,
    FAILED,
    FAILURE_INFRA,
    FaultPlan,
    FaultSpecError,
    JobQueue,
    PreparedTask,
    ProcessExecutor,
    Server,
    SessionPool,
    execute_payload,
    relation_to_payload,
)
from tests.test_serve_executor import WAIT, make_relation

pytestmark = pytest.mark.slow


def leaked_segments() -> list[str]:
    return glob.glob("/dev/shm/repro_*") + glob.glob("/dev/shm/psm_*")


def ref_payload(tenant: str, ref: str) -> dict:
    return {
        "schema": "repro/job-request-v1",
        "tenant": tenant,
        "kind": "validate",
        "relation_ref": ref,
        "params": {"fds": ["a -> b", "c -> d"]},
        "overrides": {},
    }


class TestByteParity:
    # ``overrides`` are kernel cache sizes, set on the constants of
    # repro.relational.backend in this process: the thread and bare-session
    # legs run with them, spawned process workers with the defaults, so the
    # comparison also crosses cache sizes.  Job payloads carry no overrides.
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"marks_cache_bytes": 0}],
    )
    def test_shm_thread_and_bare_session_agree(self, tmp_path, overrides, monkeypatch):
        for name, value in overrides.items():
            monkeypatch.setattr(backend_module, name.upper(), value)
        relation = make_relation(n_rows=90)
        registry = str(tmp_path / "registry")
        fingerprints = {}
        shm_jobs = None
        for executor in ("process", "thread"):
            with Server(workers=2, executor=executor, registry=registry) as server:
                ref = server.put_relation(relation)["hash"]
                payload = ref_payload("acme", ref)
                ticket = server.submit(payload)
                result = server.result(ticket.job_id, timeout=WAIT)
                fingerprints[executor] = result.artifact_fingerprint()
                if executor == "process":
                    shm_jobs = server.stats()["executor"]["shm_jobs"]
        assert shm_jobs == 1  # the process leg really used the segment
        inline = dict(payload)
        inline.pop("relation_ref")
        inline["relation"] = relation_to_payload(relation)
        bare = execute_payload(SessionPool(), inline)
        assert fingerprints["process"] == fingerprints["thread"]
        assert fingerprints["process"] == bare.artifact_fingerprint()

    def test_wire_fallback_leg_agrees(self, tmp_path):
        # Workers cannot read an in-memory registry: the server ships the
        # relation inline instead, and the artefacts must not change.
        relation = make_relation(n_rows=90)
        with Server(workers=1, executor="process") as server:
            ref = server.put_relation(relation)["hash"]
            ticket = server.submit(ref_payload("acme", ref))
            result = server.result(ticket.job_id, timeout=WAIT)
            stats = server.stats()
            assert stats["executor"]["shm_jobs"] == 0
            assert stats["executor"]["wire_jobs"] == 1
            wired = result.artifact_fingerprint()
        with Server(workers=1, executor="thread", registry=str(tmp_path)) as server:
            ref = server.put_relation(relation)["hash"]
            ticket = server.submit(ref_payload("acme", ref))
            assert server.result(ticket.job_id, timeout=WAIT).artifact_fingerprint() == wired

    def test_shm_disabled_still_serves(self, tmp_path, monkeypatch):
        # REPRO_SHM_BYTES budgeted the retired shared-memory plane; it is
        # ignored now, and by-reference jobs read the registry as always.
        assert ServeConfig.from_env({"REPRO_SHM_BYTES": "0"}) == ServeConfig.from_env({})
        monkeypatch.setenv("REPRO_SHM_BYTES", "0")
        with Server(workers=1, executor="process", registry=str(tmp_path / "r")) as server:
            ref = server.put_relation(make_relation())["hash"]
            ticket = server.submit(ref_payload("acme", ref))
            server.result(ticket.job_id, timeout=WAIT)
            stats = server.stats()
            assert "shm" not in stats
            assert stats["executor"]["shm_jobs"] == 1
            assert stats["executor"]["wire_jobs"] == 0

    def test_retired_shm_options_are_gone(self):
        from repro.serve.cli import build_serve_parser

        with pytest.raises(SystemExit):
            build_serve_parser().parse_args(["--shm-bytes", "0"])
        with pytest.raises(TypeError):
            Server(workers=1, executor="thread", shm_bytes=0)
        assert "shm_bytes" not in ServeConfig().as_dict()
        for site in ("shm.attach", "shm.evict"):
            with pytest.raises(FaultSpecError):
                FaultPlan.from_spec(f"{site}:error")


class TestSerialiseOnce:
    def test_retries_reuse_the_submitted_bytes(self):
        # Two kills then success: three attempts, one serialisation.
        plan = FaultPlan.from_spec("seed=3;process.kill:kill:p=1.0:times=2")
        executor = ProcessExecutor(faults=plan, warmup=False)
        queue = JobQueue(workers=1, executor=executor, max_attempts=4, faults=plan)
        try:
            pool = SessionPool()
            inline = {
                "schema": "repro/job-request-v1",
                "tenant": "acme",
                "kind": "validate",
                "relation": relation_to_payload(make_relation()),
                "params": {"fds": ["a -> b"]},
                "overrides": {},
            }
            task = PreparedTask(inline)
            job = queue.submit("acme", task)
            assert job.wait(WAIT)
            assert job.status == DONE
            assert job.attempts == 3
            assert task.serialisations == 1  # attempt 2 and 3 reused the bytes
            assert job.result.artifact_fingerprint() == execute_payload(
                pool, inline
            ).artifact_fingerprint()
        finally:
            queue.close()


class TestPoolShape:
    def test_fewer_processes_than_workers_shares_the_pool(self):
        executor = ProcessExecutor(processes=1, warmup=False)
        queue = JobQueue(workers=2, executor=executor)
        try:
            jobs = [queue.submit("t", partial(os.getpid)) for _ in range(4)]
            for job in jobs:
                assert job.wait(WAIT) and job.status == DONE
            pids = {job.result for job in jobs}
            assert len(pids) == 1  # both queue threads fed the single worker
            stats = executor.stats()
            assert stats["workers"] == 1
            assert stats["queue_threads"] == 2
            assert stats["spawned"] == 1
        finally:
            queue.close()

    def test_worker_recycling_after_job_quota(self):
        executor = ProcessExecutor(max_jobs_per_worker=1, warmup=False)
        queue = JobQueue(workers=1, executor=executor)
        try:
            pids = []
            for _ in range(3):
                job = queue.submit("t", partial(os.getpid))
                assert job.wait(WAIT) and job.status == DONE
                pids.append(job.result)
            assert len(set(pids)) == 3  # a fresh worker process per job
            stats = executor.stats()
            assert stats["recycled"] == 3
            assert stats["respawns"] == 0  # recycling is not a crash
            assert stats["spawned"] == 3
        finally:
            queue.close()
        assert executor.stats()["alive"] == 0

    def test_recycling_disabled_by_default(self):
        executor = ProcessExecutor(warmup=False)
        queue = JobQueue(workers=1, executor=executor)
        try:
            pids = set()
            for _ in range(3):
                job = queue.submit("t", partial(os.getpid))
                assert job.wait(WAIT) and job.status == DONE
                pids.add(job.result)
            assert len(pids) == 1
            assert executor.stats()["recycled"] == 0
        finally:
            queue.close()


class TestLifecycleHygiene:
    def test_session_eviction_leaves_inflight_segment_alone(self, tmp_path):
        # A by-reference job is mid-flight while the parent's SessionPool
        # LRU-evicts; the stored object must survive and the job finish, and
        # close() must leave /dev/shm clean.
        relation = make_relation(n_rows=90)
        with Server(
            workers=1,
            executor="process",
            registry=str(tmp_path / "registry"),
            max_sessions=1,
            faults="seed=9;process.recv:delay:ms=400:times=1",
        ) as server:
            ref = server.put_relation(relation)["hash"]
            ticket = server.submit(ref_payload("acme", ref))
            job = server.queue.get(ticket.job_id)
            deadline = time.monotonic() + WAIT
            while job.status != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.005)
            # LRU-evict the tenant's parent-side session mid-flight.
            server.pool.get("other-tenant")
            assert server.pool.peek("acme") is None  # evicted (max_sessions=1)
            assert (tmp_path / "registry" / "objects" / f"{ref}.rel").exists()
            result = server.result(ticket.job_id, timeout=WAIT)
            assert result.payload["provenance"]["relation_hash"] == ref
        assert leaked_segments() == []

    def test_kill_storm_leaks_nothing(self, tmp_path):
        relation = make_relation(n_rows=60)
        registry = tmp_path / "registry"
        server = Server(
            workers=2,
            executor="process",
            registry=str(registry),
            max_attempts=4,
            restart_budget=100,
            faults="seed=11;process.kill:kill:p=0.4",
        )
        ref = server.put_relation(relation)["hash"]
        tickets = [server.submit(ref_payload(f"tenant-{i % 3}", ref)) for i in range(9)]
        for ticket in tickets:
            job = server.queue.get(ticket.job_id)
            assert job.wait(WAIT)
            if job.status == FAILED:  # retries exhausted under the storm
                assert job.failure_class == FAILURE_INFRA
            else:
                assert job.status == DONE
                assert job.result.payload["provenance"]["relation_hash"] == ref
        executor = server.executor
        server.close()
        assert executor.stats()["alive"] == 0  # no leaked worker processes
        assert leaked_segments() == []
        # Killed readers never touch the store: one object, nothing else.
        assert [path.name for path in (registry / "objects").iterdir()] == [f"{ref}.rel"]
        assert list((registry / "quarantine").iterdir()) == []


class TestStatsSurface:
    def test_stats_exposes_transport_and_pool_blocks(self, tmp_path):
        with Server(
            workers=2,
            executor="process",
            registry=str(tmp_path / "registry"),
            processes=1,
            max_jobs_per_worker=7,
        ) as server:
            ref = server.put_relation(make_relation())["hash"]
            ticket = server.submit(ref_payload("acme", ref))
            server.result(ticket.job_id, timeout=WAIT)
            inline = ref_payload("acme", ref)
            inline.pop("relation_ref")
            inline["relation"] = relation_to_payload(make_relation())
            ticket = server.submit(inline)
            server.result(ticket.job_id, timeout=WAIT)
            stats = server.stats()
            assert set(stats) == {"queue", "pool", "executor", "registry"}
            executor = stats["executor"]
            assert executor["workers"] == 1  # --processes sized the pool
            assert executor["queue_threads"] == 2
            assert executor["max_jobs_per_worker"] == 7
            assert executor["shm_jobs"] == 1  # resolved by reference
            assert executor["wire_jobs"] == 1  # carried inline
            assert json.dumps(stats, sort_keys=True)  # JSON-serialisable for /stats
