#!/usr/bin/env python3
"""End-to-end provenance/integrity checker (the `integrity` CI job's gate).

Drives the real serving stack — no mocks — through the full
content-addressed lifecycle and asserts every robustness guarantee the
registry makes:

1. **Discovery by reference**: PUT a relation into a persistent registry,
   run the same discovery inline and by ``relation_ref``, and require
   byte-identical artefacts.
2. **Provenance chain**: every result must carry a complete provenance
   block; :func:`repro.verify_provenance` must accept it against the live
   registry (stored relation re-hashes to its address), and must still
   accept it after an atomic ``RunResult.save()``/``load()`` round-trip.
3. **Tamper detection**: a tampered config fingerprint must be rejected
   with a typed :class:`~repro.registry.ProvenanceError`.
4. **Fault-grammar retries**: with ``registry.read:error:times=1`` injected
   (the ``REPRO_FAULTS`` grammar), a by-reference job must classify the
   fault as *infra*, retry, and complete on attempt 2.
5. **Corruption quarantine**: after a bit-flip inside a code block of the
   stored object file (the header still parses, so only the re-hash can
   catch it), a by-reference job must fail as *infra* with
   ``IntegrityError`` in the error string, the entry must be quarantined
   (moved aside, then unknown), and a recovery scan over a dirtied registry
   must remove partial writes and quarantine foreign files.

Exit status is non-zero on the first violated guarantee, with one line per
check on stdout.  Network-free and self-contained (temp dirs only)::

    PYTHONPATH=src python tools/check_provenance.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.registry import (  # noqa: E402
    IntegrityError,
    ProvenanceError,
    RelationRegistry,
    verify_provenance,
)
from repro.relational.relation import Relation  # noqa: E402
from repro.serve import Server  # noqa: E402
from repro.session import RunResult  # noqa: E402

_checks = 0


def ok(message: str) -> None:
    global _checks
    _checks += 1
    print(f"  ok: {message}")


def fail(message: str) -> None:
    print(f"  FAIL: {message}")
    raise SystemExit(1)


def build_relation() -> Relation:
    rows = [(i % 12, (i % 12) * 3, i % 5, f"ward-{i % 4}") for i in range(240)]
    return Relation("patient", ("subject_id", "gender", "ward", "unit"), rows)


def run_job(server: Server, payload: dict) -> RunResult:
    ticket = server.submit(payload)
    job = server.queue.get(ticket.job_id)
    if not job.wait(120):
        fail(f"job {job.job_id} did not finish")
    if job.status != "done":
        fail(f"job {job.job_id} ended {job.status}: {job.error}")
    return job.result


def ref_payload(content_hash: str) -> dict:
    return {
        "schema": "repro/job-request-v1",
        "tenant": "ci",
        "kind": "discover",
        "relation_ref": content_hash,
        "params": {"algorithm": "tane"},
        "overrides": {},
    }


def check_discovery_and_chain(root: str) -> None:
    print("[1/5] discovery by reference + provenance chain")
    relation = build_relation()
    with Server(workers=1, executor="thread", registry=root) as server:
        ack = server.put_relation(relation)
        if not ack["created"]:
            fail("first PUT must report created=true")
        content_hash = ack["hash"]
        inline = run_job(
            server,
            {
                "schema": "repro/job-request-v1",
                "tenant": "ci",
                "kind": "discover",
                "relation": {
                    "name": relation.name,
                    "attributes": list(relation.attribute_names),
                    "rows": [list(row) for row in relation.rows],
                },
                "params": {"algorithm": "tane"},
                "overrides": {},
            },
        )
        by_ref = run_job(server, ref_payload(content_hash))
        if inline.artifact_fingerprint() != by_ref.artifact_fingerprint():
            fail("inline and by-reference artefacts differ")
        ok("inline and by-reference artefacts are byte-identical")

        for label, result in (("inline", inline), ("by-reference", by_ref)):
            block = result.provenance
            if not block:
                fail(f"{label} result carries no provenance block")
            report = verify_provenance(result, server.registry)
            if result is by_ref and not report["relation_verified"]:
                fail("by-reference provenance did not verify against the registry")
            ok(f"{label} provenance verifies (executor={block['executor']})")
        if by_ref.provenance["relation_hash"] != content_hash:
            fail("by-reference result is not stamped with the stored relation hash")
        ok("result is stamped with the stored relation's content hash")

        with tempfile.TemporaryDirectory(prefix="repro-ci-artefact-") as artefacts:
            path = by_ref.save(Path(artefacts) / "run.json")
            reloaded = RunResult.load(path)
            report = verify_provenance(reloaded, server.registry)
            if not report["relation_verified"]:
                fail("provenance chain broke across save/load")
        ok("provenance chain survives an atomic save/load round-trip")

        tampered = json.loads(json.dumps(by_ref.payload))
        tampered["provenance"]["config_fingerprint"] = "0" * 12
        try:
            verify_provenance(tampered, server.registry)
        except ProvenanceError:
            ok("tampered config fingerprint is rejected with ProvenanceError")
        else:
            fail("tampered config fingerprint was accepted")


def check_fault_retry(root: str) -> None:
    print("[2/5] registry.read fault is retried as an infra failure")
    relation = build_relation()
    with Server(
        workers=1,
        executor="thread",
        registry=root,
        max_attempts=3,
        faults="registry.read:error:times=1",
    ) as server:
        content_hash = server.put_relation(relation)["hash"]
        server.registry._cache.clear()  # force the next get to hit the disk
        ticket = server.submit(ref_payload(content_hash))
        job = server.queue.get(ticket.job_id)
        if not job.wait(120):
            fail("faulted job did not finish")
        if job.status != "done":
            fail(f"faulted job ended {job.status}: {job.error}")
        if job.attempts != 2:
            fail(f"expected recovery on attempt 2, took {job.attempts}")
    ok("injected registry.read error classified infra; job recovered on attempt 2")


def check_corruption_quarantine(root: str) -> None:
    print("[3/5] corruption is detected, typed and quarantined")
    relation = build_relation()
    with Server(workers=1, executor="thread", registry=root, max_attempts=1) as server:
        content_hash = server.put_relation(relation)["hash"]
        object_path = Path(root) / "objects" / f"{content_hash}.rel"
        raw = bytearray(object_path.read_bytes())
        # The code blocks start at the 8-aligned end of the header, whose
        # length is the little-endian uint64 at offset 8.
        header_end = 16 + int.from_bytes(raw[8:16], "little")
        index = ((header_end + 7) & ~7) + 20
        raw[index] ^= 0x01
        object_path.write_bytes(bytes(raw))
        server.registry._cache.clear()

        ticket = server.submit(ref_payload(content_hash))
        job = server.queue.get(ticket.job_id)
        if not job.wait(120):
            fail("corrupted job did not finish")
        if job.status != "failed":
            fail(f"job against a corrupt entry ended {job.status}, expected failed")
        if "IntegrityError" not in (job.error or ""):
            fail(f"corruption failure is not typed: {job.error!r}")
        ok("job against a corrupt entry fails with a typed IntegrityError")

        stats = server.stats()["registry"]
        if stats["quarantined"] != 1:
            fail(f"expected 1 quarantined entry, registry says {stats['quarantined']}")
        if object_path.exists():
            fail("corrupt object file was left in place")
        quarantine = list((Path(root) / "quarantine").iterdir())
        if len(quarantine) != 1:
            fail(f"expected 1 file in quarantine/, found {len(quarantine)}")
        ok("corrupt entry was moved to quarantine/")

        try:
            server.registry.get(content_hash)
        except KeyError:
            ok("quarantined hash is unknown afterwards (clients must re-PUT)")
        else:
            fail("quarantined hash still resolves")


def check_recovery_scan(root: str) -> None:
    print("[4/5] startup recovery scan cleans a dirtied registry")
    registry = RelationRegistry(root)
    registry.put(build_relation())
    objects = Path(root) / "objects"
    (objects / ".patient.123.deadbeef.tmp").write_text("partial write")
    (objects / "not-a-hash.json").write_text("{}")
    # Constructing a disk-backed registry runs the recovery scan itself.
    report = RelationRegistry(root).last_recovery
    expected = {
        "entries": 1,
        "converted": 0,
        "partial_writes_removed": 1,
        "foreign_files_quarantined": 1,
    }
    if report != expected:
        fail(f"recovery report {report} != {expected}")
    ok(f"recovery scan: {report}")


def check_registry_write_fault(root: str) -> None:
    print("[5/5] registry.write fault surfaces from PUT without a partial object")
    from repro.serve.faults import FaultPlan

    registry = RelationRegistry(root, faults=FaultPlan.from_spec("registry.write:error:times=1"))
    relation = build_relation()
    try:
        registry.put(relation)
    except ConnectionError:
        pass  # InjectedFault subclasses ConnectionError (infra-class)
    else:
        fail("injected registry.write error did not surface from put()")
    objects = Path(root) / "objects"
    if any(objects.glob("*.rel")):
        fail("faulted PUT left a committed object behind")
    content_hash = registry.put(relation)
    if registry.get(content_hash).rows != relation.rows:
        fail("retried PUT did not round-trip")
    ok("faulted PUT commits nothing; the retry round-trips")


def main() -> None:
    checks = (
        check_discovery_and_chain,
        check_fault_retry,
        check_corruption_quarantine,
        check_recovery_scan,
        check_registry_write_fault,
    )
    for check in checks:
        with tempfile.TemporaryDirectory(prefix="repro-ci-registry-") as root:
            check(root)
    print(f"[check_provenance] all {_checks} checks passed")


if __name__ == "__main__":
    main()
