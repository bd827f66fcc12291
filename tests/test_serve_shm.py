"""Integration tests: the shm data plane + M:N pool under the serving stack.

The headline pins:

* **byte parity** — a job served through shm-attached process workers
  produces the identical artefact fingerprint as the thread executor and a
  bare session, under the default engine config and with every cache at its
  minimum, and on the wire-fallback leg (shm faulted off);
* **serialise-once** — a retried job ships the exact payload bytes of its
  first attempt (``PreparedTask.serialisations == 1`` across attempts);
* **lifecycle hygiene** — kill storms reconcile segment refcounts, session
  eviction never unlinks an in-flight segment, and ``Server.close()``
  leaves zero ``/dev/shm`` segments and zero worker processes.
"""

from __future__ import annotations

import glob
import json
import os
import time
from functools import partial

import pytest

from repro.serve import (
    DONE,
    FAILED,
    FAILURE_INFRA,
    FaultPlan,
    JobQueue,
    PreparedTask,
    ProcessExecutor,
    Server,
    SessionPool,
    execute_payload,
    relation_to_payload,
)
from repro.shm import plane_available
from tests.test_serve_executor import WAIT, make_relation

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(not plane_available(), reason="host lacks shared memory"),
]


def leaked_segments() -> list[str]:
    return glob.glob("/dev/shm/repro_*") + glob.glob("/dev/shm/psm_*")


def ref_payload(tenant: str, ref: str, overrides: dict | None = None) -> dict:
    return {
        "schema": "repro/job-request-v1",
        "tenant": tenant,
        "kind": "validate",
        "relation_ref": ref,
        "params": {"fds": ["a -> b", "c -> d"]},
        "overrides": overrides or {},
    }


class TestByteParity:
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"marks_cache_bytes": 0, "combined_codes_cache_entries": 2}],
    )
    def test_shm_thread_and_bare_session_agree(self, tmp_path, overrides):
        relation = make_relation(n_rows=90)
        registry = str(tmp_path / "registry")
        fingerprints = {}
        shm_jobs = None
        for executor in ("process", "thread"):
            with Server(workers=2, executor=executor, registry=registry) as server:
                ref = server.put_relation(relation)["hash"]
                payload = ref_payload("acme", ref, overrides)
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
        # Every shm.attach faulted: jobs fall back to the wire, artefacts
        # must not change.  (This is the leg CI exercises explicitly.)
        relation = make_relation(n_rows=90)
        registry = str(tmp_path / "registry")
        with Server(
            workers=1,
            executor="process",
            registry=registry,
            faults="seed=5;shm.attach:error:p=1.0",
        ) as server:
            ref = server.put_relation(relation)["hash"]
            ticket = server.submit(ref_payload("acme", ref))
            result = server.result(ticket.job_id, timeout=WAIT)
            stats = server.stats()
            assert stats["executor"]["shm_jobs"] == 0
            assert stats["executor"]["wire_jobs"] == 1
            assert stats["shm"]["attach_faults"] == 1
            faulted = result.artifact_fingerprint()
        with Server(workers=1, executor="thread", registry=registry) as server:
            ticket = server.submit(ref_payload("acme", ref))
            assert server.result(ticket.job_id, timeout=WAIT).artifact_fingerprint() == faulted

    def test_shm_disabled_still_serves(self, tmp_path):
        with Server(
            workers=1, executor="process", registry=str(tmp_path / "r"), shm_bytes=0
        ) as server:
            ref = server.put_relation(make_relation())["hash"]
            ticket = server.submit(ref_payload("acme", ref))
            server.result(ticket.job_id, timeout=WAIT)
            stats = server.stats()
            assert stats["shm"] == {"enabled": False}
            assert stats["executor"]["wire_jobs"] == 1


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
        # A shm-backed job is mid-flight (lease held, worker attached) while
        # the parent's SessionPool LRU-evicts; the segment must survive until
        # the job finishes, and close() must leave /dev/shm clean.
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
            plane = server.executor.plane
            deadline = time.monotonic() + WAIT
            while plane.refcounts().get(ref, 0) == 0:  # lease taken = in flight
                assert time.monotonic() < deadline, "job never leased the segment"
                time.sleep(0.005)
            segment = plane.segment_names()[0]
            # LRU-evict the tenant's parent-side session mid-flight.
            server.pool.get("other-tenant")
            assert server.pool.peek("acme") is None  # evicted (max_sessions=1)
            assert os.path.exists(f"/dev/shm/{segment}")  # segment unharmed
            result = server.result(ticket.job_id, timeout=WAIT)
            assert result.payload["provenance"]["relation_hash"] == ref
            assert plane.refcounts()[ref] == 0  # lease returned
        assert leaked_segments() == []  # close() unlinked everything

    def test_kill_storm_reconciles_refcounts_and_leaks_nothing(self, tmp_path):
        relation = make_relation(n_rows=60)
        server = Server(
            workers=2,
            executor="process",
            registry=str(tmp_path / "registry"),
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
        plane = server.executor.plane
        assert set(plane.refcounts().values()) <= {0}  # every lease reconciled
        executor = server.executor
        server.close()
        assert executor.stats()["alive"] == 0  # no leaked worker processes
        assert leaked_segments() == []  # no leaked segments

    def test_evicted_segment_mid_queue_falls_back_to_wire(self):
        # The segment is published at submit time but evicted before the job
        # executes: the lease misses and the job completes over the wire.
        from repro.shm import SharedRelationPlane, encode_segment

        a, b = make_relation("a", n_rows=90), make_relation("b", n_rows=90, salt=1)
        _, _, size = encode_segment(a)
        plane = SharedRelationPlane(budget_bytes=int(size * 1.5))
        executor = ProcessExecutor(warmup=False, plane=plane)
        queue = JobQueue(workers=1, executor=executor)
        try:
            hash_a = plane.publish(a)
            assert plane.publish(b) is not None  # evicts a before "its" job runs
            inline = {
                "schema": "repro/job-request-v1",
                "tenant": "acme",
                "kind": "validate",
                "relation": relation_to_payload(a),
                "params": {"fds": ["a -> b"]},
                "overrides": {},
            }
            job = queue.submit("acme", PreparedTask(inline, shm_hash=hash_a))
            assert job.wait(WAIT) and job.status == DONE
            stats = executor.stats()
            assert stats["wire_jobs"] == 1 and stats["shm_jobs"] == 0
            assert plane.stats()["lease_misses"] == 1
        finally:
            queue.close()
        assert leaked_segments() == []


class TestStatsSurface:
    def test_stats_exposes_shm_and_pool_blocks(self, tmp_path):
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
            stats = server.stats()
            shm = stats["shm"]
            assert shm["enabled"] is True
            assert shm["published"] == 1 and shm["leases"] == 1
            assert shm["segments"] == 1 and shm["bytes"] > 0
            executor = stats["executor"]
            assert executor["workers"] == 1  # --processes sized the pool
            assert executor["queue_threads"] == 2
            assert executor["max_jobs_per_worker"] == 7
            assert executor["shm_jobs"] == 1
            assert json.dumps(stats, sort_keys=True)  # JSON-serialisable for /stats
