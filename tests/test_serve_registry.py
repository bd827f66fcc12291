"""Tests for the registry-backed serving path (``relation_ref`` jobs).

Covers the ``PUT /relations`` / ``GET /relations/<hash>`` HTTP surface, the
additive ``relation_ref`` wire field (exactly-one-of validation, submission
membership gate), byte-parity of by-reference vs inline jobs on *both*
executors, executor-stamped provenance on served results, infra
classification of corrupt registry entries, cross-job relation-cache reuse
and the ``registry.read`` fault-injection site.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.registry import IntegrityError, RelationRegistry, verify_provenance
from repro.registry.objects import decode_object
from repro.relational.relation import Relation
from repro.session import Session
from repro.serve import (
    DONE,
    FAILED,
    FAILURE_INFRA,
    FaultPlan,
    RELATION_REF_SCHEMA,
    HttpFrontend,
    JobRequest,
    ProtocolError,
    Server,
    classify_failure,
    relation_to_payload,
)

pytestmark = pytest.mark.slow

WAIT = 30.0


def make_relation(name: str = "t", n_rows: int = 60, salt: int = 0) -> Relation:
    rows = [(i % 6, (i % 6) * 2, (i + salt) % 4, f"v{(i + salt) % 3}") for i in range(n_rows)]
    return Relation(name, ("a", "b", "c", "d"), rows)


def ref_payload(tenant: str, content_hash: str, **params) -> dict:
    return {
        "schema": "repro/job-request-v1",
        "tenant": tenant,
        "kind": "discover",
        "relation_ref": content_hash,
        "params": {"algorithm": "tane", **params},
        "overrides": {},
    }


def inline_payload(tenant: str, relation: Relation, **params) -> dict:
    return {
        "schema": "repro/job-request-v1",
        "tenant": tenant,
        "kind": "discover",
        "relation": relation_to_payload(relation),
        "params": {"algorithm": "tane", **params},
        "overrides": {},
    }


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


class TestWireField:
    def test_request_requires_exactly_one_relation_form(self):
        with pytest.raises(ProtocolError, match="relation or relation_ref"):
            JobRequest(tenant="t", kind="discover")
        with pytest.raises(ProtocolError, match="not both"):
            JobRequest(
                tenant="t",
                kind="discover",
                relation=make_relation(),
                relation_ref="0" * 64,
            )
        with pytest.raises(ProtocolError, match="64-char"):
            JobRequest(tenant="t", kind="discover", relation_ref="nope")

    def test_payload_round_trip_by_ref(self):
        request = JobRequest(tenant="t", kind="discover", relation_ref="ab" * 32)
        payload = request.to_payload()
        assert payload["relation_ref"] == "ab" * 32
        assert "relation" not in payload
        again = JobRequest.from_payload(json.loads(json.dumps(payload)))
        assert again.relation_ref == request.relation_ref
        assert again.relation is None

    def test_inline_payload_unchanged(self):
        # Additive v1: inline requests serialise exactly as before the
        # registry existed — no relation_ref key leaks in.
        payload = JobRequest(tenant="t", kind="discover", relation=make_relation()).to_payload()
        assert set(payload) == {"schema", "tenant", "kind", "relation", "params", "overrides"}

    def test_payload_with_both_forms_rejected(self):
        payload = inline_payload("t", make_relation())
        payload["relation_ref"] = "0" * 64
        with pytest.raises(ProtocolError, match="not both"):
            JobRequest.from_payload(payload)


class TestServerRegistry:
    def test_unknown_ref_rejected_at_submission(self):
        with Server(workers=1, executor="thread") as server:
            with pytest.raises(ProtocolError, match="unknown relation_ref"):
                server.submit(ref_payload("acme", "0" * 64))

    def test_put_is_idempotent(self):
        with Server(workers=1, executor="thread") as server:
            first = server.put_relation(make_relation())
            second = server.put_relation(make_relation())
            assert first["schema"] == RELATION_REF_SCHEMA
            assert first["hash"] == second["hash"]
            assert first["created"] is True
            assert second["created"] is False

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_ref_jobs_byte_identical_to_inline(self, executor, tmp_path):
        relation = make_relation()
        with Server(workers=2, executor=executor, registry=str(tmp_path)) as server:
            content_hash = server.put_relation(relation)["hash"]
            inline_ticket = server.submit(inline_payload("acme", relation))
            ref_ticket = server.submit(ref_payload("acme", content_hash))
            inline_result = server.result(inline_ticket.job_id, timeout=WAIT)
            ref_result = server.result(ref_ticket.job_id, timeout=WAIT)
            assert ref_result.artifact_fingerprint() == inline_result.artifact_fingerprint()
            assert ref_result.provenance["executor"] == executor
            assert ref_result.provenance["relation_hash"] == content_hash
            report = verify_provenance(ref_result, server.registry)
            assert report["relation_verified"] is True

    def test_thread_process_parity_for_ref_jobs(self, tmp_path):
        relation = make_relation()
        results = {}
        for executor in ("thread", "process"):
            with Server(workers=2, executor=executor, registry=str(tmp_path)) as server:
                content_hash = server.put_relation(relation)["hash"]
                ticket = server.submit(ref_payload("acme", content_hash))
                results[executor] = server.result(ticket.job_id, timeout=WAIT)
        thread_result, process_result = results["thread"], results["process"]
        assert (
            thread_result.artifact_fingerprint() == process_result.artifact_fingerprint()
        )
        # The full payloads differ only in the stats/engine/provenance
        # blocks that legitimately vary per run/executor.
        for key in ("artifacts", "kind", "algorithm", "subject"):
            assert thread_result.payload.get(key) == process_result.payload.get(key)

    def test_memory_registry_with_process_executor(self):
        # Worker processes cannot see an in-memory registry; the server
        # resolves the ref inline at submission and the job still works.
        relation = make_relation()
        with Server(workers=1, executor="process") as server:
            content_hash = server.put_relation(relation)["hash"]
            ticket = server.submit(ref_payload("acme", content_hash))
            result = server.result(ticket.job_id, timeout=WAIT)
            assert result.provenance["relation_hash"] == content_hash

    def test_ref_cache_survives_across_jobs_and_tenants(self, tmp_path):
        relation = make_relation()
        with Server(workers=1, executor="thread", registry=str(tmp_path)) as server:
            content_hash = server.put_relation(relation)["hash"]
            for tenant in ("acme", "globex", "acme"):
                ticket = server.submit(ref_payload(tenant, content_hash))
                server.result(ticket.job_id, timeout=WAIT)
            stats = server.stats()["registry"]
            # One disk entry, decoded at most once: every execution-side
            # lookup after the first is a same-object cache hit.
            assert stats["disk_reads"] == 0  # PUT populated the cache
            assert stats["cache_hits"] >= 3

    def test_corrupt_entry_fails_job_as_infra(self, tmp_path):
        relation = make_relation()
        with Server(
            workers=1, executor="thread", registry=str(tmp_path), max_attempts=1
        ) as server:
            content_hash = server.put_relation(relation)["hash"]
            # Corrupt the entry on disk and drop the warm cache so the next
            # resolution must read (and verify) the damaged bytes.
            path = tmp_path / "objects" / f"{content_hash}.rel"
            raw = bytearray(path.read_bytes())
            raw[len(raw) // 2] ^= 0x01
            path.write_bytes(bytes(raw))
            server.registry._cache.clear()
            ticket = server.submit(ref_payload("acme", content_hash))
            job = server.queue.get(ticket.job_id)
            assert job.wait(WAIT)
            assert job.status == FAILED
            assert job.failure_class == FAILURE_INFRA
            assert "IntegrityError" in job.error
            assert server.stats()["registry"]["quarantined"] == 1

    def test_corrupt_entry_fails_process_job_as_infra(self, tmp_path):
        # Process workers read objects themselves; a damaged one is an infra
        # failure there too, and the worker quarantines it.
        relation = make_relation()
        with Server(
            workers=1, executor="process", registry=str(tmp_path), max_attempts=2
        ) as server:
            content_hash = server.put_relation(relation)["hash"]
            path = tmp_path / "objects" / f"{content_hash}.rel"
            raw = bytearray(path.read_bytes())
            raw[-1] ^= 0x01  # the last code of the last column
            path.write_bytes(bytes(raw))
            ticket = server.submit(ref_payload("acme", content_hash))
            job = server.queue.get(ticket.job_id)
            assert job.wait(WAIT)
            assert job.status == FAILED
            assert job.failure_class == FAILURE_INFRA
            assert job.attempts == 2  # retried: the second read finds it gone
            assert "IntegrityError" in job.error
            assert not path.exists()
            assert len(list((tmp_path / "quarantine").iterdir())) == 1
            # The server still caches the relation, but the object is gone:
            # a re-PUT writes it again and says so, and by-ref jobs recover.
            ack = server.put_relation(relation)
            assert ack == {
                "schema": "repro/relation-ref-v1",
                "hash": content_hash,
                "created": True,
            }
            assert path.exists()
            assert server.put_relation(relation)["created"] is False
            ticket = server.submit(ref_payload("acme", content_hash))
            result = server.result(ticket.job_id, timeout=WAIT)
        assert result.artifacts == Session().discover(relation).artifacts

    def test_classify_failure_counts_integrity_as_infra(self):
        assert classify_failure(IntegrityError("corrupt")) == FAILURE_INFRA

    def test_registry_read_fault_exercises_infra_retry(self, tmp_path):
        relation = make_relation()
        with Server(
            workers=1,
            executor="thread",
            registry=str(tmp_path),
            max_attempts=3,
            faults="registry.read:error:times=1",
        ) as server:
            content_hash = server.put_relation(relation)["hash"]
            server.registry._cache.clear()
            ticket = server.submit(ref_payload("acme", content_hash))
            result = server.result(ticket.job_id, timeout=WAIT)
            job = server.queue.get(ticket.job_id)
            assert job.status == DONE
            assert job.attempts == 2  # first hit the injected read fault
            assert result.provenance["relation_hash"] == content_hash

    def test_stats_carry_registry_block(self):
        with Server(workers=1, executor="thread") as server:
            stats = server.stats()["registry"]
            assert stats["persistent"] is False
            assert stats["puts"] == 0


class TestHttpRegistrySurface:
    @pytest.fixture()
    def frontend(self, tmp_path):
        server = Server(workers=2, max_queue=8, registry=str(tmp_path))
        frontend = HttpFrontend(server, port=0).start()
        yield frontend
        frontend.stop()
        server.close()

    def test_put_then_ref_job_round_trip(self, frontend):
        host, port = frontend.address
        relation = make_relation()
        status, ack = _http(host, port, "PUT", "/relations", relation_to_payload(relation))
        assert status == 200
        assert ack["schema"] == RELATION_REF_SCHEMA
        assert ack["created"] is True
        status, again = _http(host, port, "PUT", "/relations", relation_to_payload(relation))
        assert status == 200 and again["created"] is False

        status, ticket = _http(host, port, "POST", "/jobs", ref_payload("acme", ack["hash"]))
        assert status == 202
        deadline = time.monotonic() + WAIT
        while time.monotonic() < deadline:
            status, job = _http(host, port, "GET", f"/jobs/{ticket['job_id']}")
            assert status == 200
            if job["status"] == DONE:
                break
            time.sleep(0.02)
        assert job["status"] == DONE
        assert job["result"]["provenance"]["relation_hash"] == ack["hash"]

    def test_get_relation_round_trip_and_404(self, frontend):
        host, port = frontend.address
        relation = make_relation()
        _, ack = _http(host, port, "PUT", "/relations", relation_to_payload(relation))
        status, entry = _http(host, port, "GET", f"/relations/{ack['hash']}")
        assert status == 200
        assert entry["schema"] == "repro/relation-v1"
        assert entry["relation"] == relation_to_payload(relation)
        status, body = _http(host, port, "GET", f"/relations/{'0' * 64}")
        assert status == 404

    def test_put_keeps_only_the_columnar_form(self, frontend, tmp_path):
        """An inline PUT is held as codes and dictionaries: no row tuples,
        the same content hash, and the same bytes on GET and on disk."""
        host, port = frontend.address
        rows = [(1, None, "x"), (2, "y", 2.5), (1, None, "x"), (None, "y", 3)]
        relation = Relation("mixed", ("a", "b", "c"), rows)
        payload = relation_to_payload(relation)
        status, ack = _http(host, port, "PUT", "/relations", payload)
        assert status == 200 and ack["hash"] == relation.content_hash()
        stored = frontend.app.registry.get(ack["hash"])
        assert stored._rows is None
        assert stored.content_hash() == relation.content_hash()
        status, entry = _http(host, port, "GET", f"/relations/{ack['hash']}")
        assert status == 200 and entry["relation"] == payload
        stored_bytes = (tmp_path / "objects" / f"{ack['hash']}.rel").read_bytes()
        on_disk = decode_object(stored_bytes, ack["hash"])
        assert relation_to_payload(on_disk) == payload
        # Neither the disk write nor the GET left decoded rows behind.
        assert stored._rows is None

    def test_put_store_failure_is_503_and_keeps_the_connection(self, tmp_path):
        server = Server(
            workers=1,
            executor="thread",
            registry=str(tmp_path),
            faults=FaultPlan.from_spec("registry.write:error:times=1"),
        )
        frontend = HttpFrontend(server, port=0).start()
        host, port = frontend.address
        conn = http.client.HTTPConnection(host, port, timeout=WAIT)
        body = json.dumps(relation_to_payload(make_relation()))
        try:
            conn.request("PUT", "/relations", body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            failed = json.loads(response.read())
            assert response.status == 503
            assert "InjectedFault" in failed["error"]
            assert list((tmp_path / "objects").iterdir()) == []
            # The same keep-alive connection serves the retry.
            conn.request("PUT", "/relations", body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            ack = json.loads(response.read())
            assert response.status == 200 and ack["created"] is True
        finally:
            conn.close()
            frontend.stop()
            server.close()

    def test_put_rejects_unstorable_values(self, frontend, tmp_path):
        host, port = frontend.address
        payload = {"name": "r", "attributes": ["a"], "rows": [[float("nan")]]}
        status, body = _http(host, port, "PUT", "/relations", payload)
        assert status == 400
        assert "JSON-native" in body["error"]
        assert list((tmp_path / "objects").iterdir()) == []

    def test_put_rejects_malformed_relations(self, frontend):
        host, port = frontend.address
        status, body = _http(host, port, "PUT", "/relations", {"name": "", "attributes": []})
        assert status == 400
        status, body = _http(host, port, "PUT", "/relations", [1, 2, 3])
        assert status == 400

    def test_submit_unknown_ref_is_400(self, frontend):
        host, port = frontend.address
        status, body = _http(host, port, "POST", "/jobs", ref_payload("acme", "0" * 64))
        assert status == 400
        assert "unknown relation_ref" in body["error"]

    def test_registry_survives_server_restart(self, tmp_path):
        relation = make_relation()
        with Server(workers=1, registry=str(tmp_path)) as server:
            content_hash = server.put_relation(relation)["hash"]
        # A brand-new server over the same directory already knows the hash.
        with Server(workers=1, registry=str(tmp_path)) as server:
            ticket = server.submit(ref_payload("acme", content_hash))
            result = server.result(ticket.job_id, timeout=WAIT)
            assert result.provenance["relation_hash"] == content_hash


class TestLegacyRegistry:
    def test_json_entries_convert_and_serve_the_same_body(self, tmp_path):
        """A directory of repro/relation-v1 JSON-row entries opens, converts
        to objects under the same hashes, and serves the same GET body."""
        from tests.test_registry import TestLegacyEntries

        relation = make_relation()
        content_hash = relation.content_hash()
        TestLegacyEntries.write_legacy(tmp_path, relation)
        expected = {
            "schema": "repro/relation-v1",
            "hash": content_hash,
            "relation": relation_to_payload(relation),
        }
        server = Server(workers=1, executor="process", registry=str(tmp_path))
        frontend = HttpFrontend(server, port=0).start()
        try:
            assert server.registry.last_recovery["converted"] == 1
            assert (tmp_path / "objects" / f"{content_hash}.rel").exists()
            host, port = frontend.address
            status, entry = _http(host, port, "GET", f"/relations/{content_hash}")
            assert status == 200 and entry == expected
            ticket = server.submit(ref_payload("acme", content_hash))
            result = server.result(ticket.job_id, timeout=WAIT)
            assert result.provenance["relation_hash"] == content_hash
        finally:
            frontend.stop()
            server.close()


class TestRegistryPassthrough:
    def test_ready_registry_instance_accepted(self, tmp_path):
        registry = RelationRegistry(tmp_path)
        content_hash = registry.put(make_relation())
        with Server(workers=1, executor="thread", registry=registry) as server:
            assert server.registry is registry
            ticket = server.submit(ref_payload("acme", content_hash))
            server.result(ticket.job_id, timeout=WAIT)

    def test_cli_exposes_registry_dir_flag(self):
        from repro.serve.cli import build_serve_parser

        args = build_serve_parser().parse_args(["--registry-dir", "/tmp/reg"])
        assert args.registry_dir == "/tmp/reg"
