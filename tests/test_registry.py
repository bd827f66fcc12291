"""Tests for the content-addressed relation registry (``repro.registry``).

Covers the canonical columnar hash (determinism, type sensitivity,
order/name sensitivity), the store's two backends, integrity verification
(bit flips and truncation are detected, typed and quarantined — never
silently wrong), crash safety (``kill -9`` mid-``PUT`` and mid-``save``
leave a consistent state, proven with real SIGKILLed subprocesses), the
concurrent duplicate-``PUT`` race, the startup recovery scan and the
provenance chain stamped onto every :class:`RunResult`.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.config import ServeConfig, config_fingerprint
from repro.registry import (
    HASH_HEX_LENGTH,
    IntegrityError,
    ProvenanceError,
    RelationRegistry,
    atomic_write_text,
    build_provenance,
    catalog_content_hash,
    is_relation_hash,
    relation_content_hash,
    verify_provenance,
)
from repro.relational.algebra import project
from repro.relational.relation import Relation
from repro.session import RunResult, Session, engine_config

_SRC = Path(__file__).resolve().parent.parent / "src"


def make_relation(name: str = "t", n_rows: int = 40, salt: int = 0) -> Relation:
    rows = [(i % 5, (i % 5) * 3, (i + salt) % 4, f"v{(i + salt) % 3}") for i in range(n_rows)]
    return Relation(name, ("a", "b", "c", "d"), rows)


def code_block_offset(data: bytes) -> int:
    """Where the code blocks of relation object ``data`` start."""
    header_end = 16 + int.from_bytes(data[8:16], "little")
    return (header_end + 7) & ~7


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC)
    return env


class TestHashing:
    def test_hash_shape_and_determinism(self):
        relation = make_relation()
        digest = relation.content_hash()
        assert is_relation_hash(digest)
        assert len(digest) == HASH_HEX_LENGTH
        # A fresh Relation built from the same data hashes identically.
        clone = Relation(relation.name, relation.attribute_names, [list(r) for r in relation.rows])
        assert clone.content_hash() == digest
        assert relation_content_hash(clone) == digest

    def test_hash_distinguishes_value_types(self):
        # Dictionary codes alone collide here ([1, 2] vs ["1", "2"]); the
        # hash must cover the dictionary values, not just the code stream.
        ints = Relation("r", ("a",), [(1,), (2,)])
        strs = Relation("r", ("a",), [("1",), ("2",)])
        assert ints.content_hash() != strs.content_hash()

    def test_hash_is_representation_level(self):
        base = Relation("r", ("a", "b"), [(1, 2), (3, 4)])
        reordered = Relation("r", ("a", "b"), [(3, 4), (1, 2)])
        renamed = Relation("other", ("a", "b"), [(1, 2), (3, 4)])
        reattributed = Relation("r", ("a", "c"), [(1, 2), (3, 4)])
        digests = {
            base.content_hash(),
            reordered.content_hash(),
            renamed.content_hash(),
            reattributed.content_hash(),
        }
        assert len(digests) == 4

    def test_hash_cached_on_relation(self):
        relation = make_relation()
        assert relation.content_hash() is relation.content_hash()

    def test_hash_is_pinned(self):
        # A literal digest: NULL, str, int and float values must keep hashing
        # byte-identically across refactors of the encoding and hashing code.
        rows = [(1, "a", 1.5), (None, "b", 2.0), (3, None, None), (1, "a", -0.25), (2, "ü", 1e20)]
        relation = Relation("pinned", ("k", "s", "x"), rows)
        expected = "e5994b8e4c3d57c5c342a7069684b6bacaee935ed7b5598605078eae822960ab"
        assert relation.content_hash() == expected
        # A derived relation hashes from its codes and dictionaries alone.
        derived = project(relation, ("k", "s", "x"), name="pinned")
        assert derived.content_hash() == expected
        assert derived._rows is None

    def test_catalog_hash_covers_members(self):
        r1, r2 = make_relation("x"), make_relation("y", salt=1)
        h = catalog_content_hash({"x": r1, "y": r2})
        assert is_relation_hash(h)
        assert h == catalog_content_hash({"y": r2, "x": r1})  # order-free
        assert h != catalog_content_hash({"x": r1})

    def test_is_relation_hash_rejects_junk(self):
        assert not is_relation_hash(None)
        assert not is_relation_hash("abc")
        assert not is_relation_hash("g" * 64)
        assert not is_relation_hash(("a" * 64).upper())
        assert is_relation_hash("0123456789abcdef" * 4)


class TestMemoryRegistry:
    def test_put_get_same_object(self):
        registry = RelationRegistry()
        relation = make_relation()
        digest = registry.put(relation)
        assert digest in registry
        assert registry.get(digest) is relation
        assert not registry.persistent

    def test_unknown_hash_is_key_error(self):
        registry = RelationRegistry()
        with pytest.raises(KeyError):
            registry.get("0" * 64)
        with pytest.raises(KeyError):
            registry.get("not-a-hash")
        assert "0" * 64 not in registry

    def test_lru_bound(self):
        registry = RelationRegistry(max_cached_relations=2)
        digests = [registry.put(make_relation(salt=i)) for i in range(3)]
        assert digests[0] not in registry
        assert digests[1] in registry and digests[2] in registry


class TestDiskRegistry:
    def test_round_trip_across_instances(self, tmp_path):
        relation = make_relation()
        digest = RelationRegistry(tmp_path).put(relation)
        reopened = RelationRegistry(tmp_path)
        fetched = reopened.get(digest)
        assert fetched.rows == relation.rows
        assert fetched.content_hash() == digest
        assert reopened.stats()["disk_reads"] == 1
        # The second get is a cache hit returning the same object.
        assert reopened.get(digest) is fetched

    def test_put_is_idempotent_and_skips_rewrites(self, tmp_path):
        registry = RelationRegistry(tmp_path)
        relation = make_relation()
        assert registry.put(relation) == registry.put(make_relation())
        stats = registry.stats()
        assert stats["writes"] == 1
        assert stats["write_skips"] == 1
        assert len(list((tmp_path / "objects").glob("*.rel"))) == 1

    def test_non_json_native_values_rejected(self, tmp_path):
        registry = RelationRegistry(tmp_path)
        with pytest.raises(ValueError, match="JSON-native"):
            registry.put(Relation("r", ("a",), [(b"raw-bytes",)]))

    def test_non_scalar_values_rejected_without_a_file(self, tmp_path):
        # Tuples would come back as lists and NaN is not JSON: neither can
        # be read back, so neither may be stored.
        registry = RelationRegistry(tmp_path)
        for rows in ([((1, 2),), ((3, 4),)], [(float("nan"),)]):
            with pytest.raises(ValueError, match="JSON-native"):
                registry.put(Relation("r", ("a",), rows))
        assert list((tmp_path / "objects").iterdir()) == []
        assert registry.stats()["writes"] == 0

    def test_bit_flip_detected_and_quarantined(self, tmp_path):
        registry = RelationRegistry(tmp_path)
        digest = registry.put(make_relation())
        path = tmp_path / "objects" / f"{digest}.rel"
        raw = bytearray(path.read_bytes())
        # Flip a bit inside a code block so the header stays well-formed:
        # the recomputed content hash is what must catch it.
        index = code_block_offset(bytes(raw)) + 20
        raw[index] ^= 0x01
        path.write_bytes(bytes(raw))
        fresh = RelationRegistry(tmp_path)
        with pytest.raises(IntegrityError) as excinfo:
            fresh.get(digest)
        assert excinfo.value.content_hash == digest
        assert excinfo.value.quarantined is not None
        assert not path.exists()
        assert len(list((tmp_path / "quarantine").iterdir())) == 1
        # After quarantine the hash is simply unknown — a clean state.
        with pytest.raises(KeyError):
            fresh.get(digest)

    def test_truncation_detected_and_quarantined(self, tmp_path):
        registry = RelationRegistry(tmp_path)
        digest = registry.put(make_relation())
        path = tmp_path / "objects" / f"{digest}.rel"
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        with pytest.raises(IntegrityError):
            RelationRegistry(tmp_path).get(digest)
        assert not path.exists()

    def test_non_utf8_garbage_detected(self, tmp_path):
        registry = RelationRegistry(tmp_path)
        digest = registry.put(make_relation())
        path = tmp_path / "objects" / f"{digest}.rel"
        path.write_bytes(b"\xde\xad\xbe\xef" * 32)
        with pytest.raises(IntegrityError):
            RelationRegistry(tmp_path).get(digest)
        assert not path.exists()

    def test_verify_bypasses_cache(self, tmp_path):
        registry = RelationRegistry(tmp_path)
        digest = registry.put(make_relation())
        assert registry.verify(digest)
        (tmp_path / "objects" / f"{digest}.rel").write_text("{}", encoding="utf-8")
        with pytest.raises(IntegrityError):
            registry.verify(digest)

    def test_recovery_scan_removes_partial_writes(self, tmp_path):
        registry = RelationRegistry(tmp_path)
        registry.put(make_relation())
        objects = tmp_path / "objects"
        (objects / ".deadbeef.json.123.abcd1234.tmp").write_text("partial", encoding="utf-8")
        (objects / "README").write_text("foreign", encoding="utf-8")
        reopened = RelationRegistry(tmp_path)
        assert reopened.last_recovery == {
            "entries": 1,
            "converted": 0,
            "partial_writes_removed": 1,
            "foreign_files_quarantined": 1,
        }
        assert not (objects / ".deadbeef.json.123.abcd1234.tmp").exists()
        assert not (objects / "README").exists()

    def test_concurrent_duplicate_put_race(self, tmp_path):
        relation = make_relation(n_rows=200)
        registries = [RelationRegistry(tmp_path) for _ in range(4)]
        digests: list[str] = []
        errors: list[BaseException] = []
        barrier = threading.Barrier(len(registries))

        def worker(registry: RelationRegistry) -> None:
            try:
                barrier.wait(timeout=10)
                digests.append(registry.put(make_relation(n_rows=200)))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(r,)) for r in registries]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(set(digests)) == 1
        files = list((tmp_path / "objects").iterdir())
        assert [f.name for f in files] == [f"{digests[0]}.rel"]
        assert RelationRegistry(tmp_path).get(digests[0]).rows == relation.rows

    def test_kill_nine_during_put_leaves_consistent_store(self, tmp_path):
        """SIGKILL between fsync and rename: no entry, a tmp leftover, and
        the recovery scan restores a clean store."""
        script = (
            "import sys\n"
            "from repro.registry import RelationRegistry\n"
            "from repro.serve.faults import FaultPlan\n"
            "from repro.relational.relation import Relation\n"
            "rows = [(i % 5, i % 3) for i in range(20)]\n"
            "relation = Relation('t', ('a', 'b'), rows)\n"
            "registry = RelationRegistry(sys.argv[1], "
            "faults=FaultPlan.from_spec('registry.write:kill'))\n"
            "registry.put(relation)\n"
            "print('UNREACHABLE')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert "UNREACHABLE" not in proc.stdout
        objects = tmp_path / "objects"
        assert list(objects.glob("*.rel")) == []
        leftovers = list(objects.glob("*.tmp"))
        assert len(leftovers) == 1
        recovered = RelationRegistry(tmp_path)
        assert recovered.last_recovery["partial_writes_removed"] == 1
        assert recovered.hashes() == []
        # The store still works: a re-PUT lands the entry.
        digest = recovered.put(Relation("t", ("a", "b"), [(i % 5, i % 3) for i in range(20)]))
        assert digest in RelationRegistry(tmp_path)


class TestConcurrentReaders:
    def test_worker_reader_leaves_a_write_in_flight_alone(self, tmp_path, monkeypatch):
        """A worker process opening the directory mid-PUT must not run the
        recovery scan: it would delete the writer's tmp file."""
        from repro.registry import store
        from repro.serve.executor import open_worker_registry

        owner = RelationRegistry(tmp_path)
        readers = []

        def open_reader(tmp: Path) -> None:
            readers.append(open_worker_registry(str(tmp_path)))
            assert tmp.exists()

        monkeypatch.setattr(store, "_TEST_BEFORE_REPLACE", open_reader)
        digest = owner.put(make_relation())
        assert len(readers) == 1 and readers[0].last_recovery is None
        assert readers[0].get(digest).content_hash() == digest

    def test_a_recovering_open_would_break_the_write(self, tmp_path, monkeypatch):
        # The hazard the reader avoids: the owner's scan removes tmp files.
        from repro.registry import store

        owner = RelationRegistry(tmp_path)
        monkeypatch.setattr(store, "_TEST_BEFORE_REPLACE", lambda tmp: RelationRegistry(tmp_path))
        with pytest.raises(FileNotFoundError):
            owner.put(make_relation())


class TestLegacyEntries:
    """Entries of the ``repro/relation-v1`` JSON-row layout convert at recovery."""

    @staticmethod
    def write_legacy(root: Path, relation: Relation, digest: "str | None" = None) -> Path:
        """Write ``relation`` exactly as the JSON-row store wrote its entries."""
        digest = digest or relation.content_hash()
        entry = {
            "schema": "repro/relation-v1",
            "hash": digest,
            "relation": {
                "name": relation.name,
                "attributes": list(relation.attribute_names),
                "rows": [list(row) for row in relation.rows],
            },
        }
        objects = root / "objects"
        objects.mkdir(parents=True, exist_ok=True)
        path = objects / f"{digest}.json"
        text = json.dumps(entry, sort_keys=True, ensure_ascii=False, allow_nan=False)
        path.write_text(text, encoding="utf-8")
        return path

    def test_recovery_converts_entries_with_the_same_hash(self, tmp_path):
        rows = [(1, "a", 1.5), (None, "b", 2.0), (3, None, None), (1, "a", -0.25), (2, "ü", 1e20)]
        relation = Relation("pinned", ("k", "s", "x"), rows)
        digest = relation.content_hash()
        legacy = self.write_legacy(tmp_path, relation)
        registry = RelationRegistry(tmp_path)
        assert registry.last_recovery == {
            "entries": 1,
            "converted": 1,
            "partial_writes_removed": 0,
            "foreign_files_quarantined": 0,
        }
        assert not legacy.exists()
        assert [path.name for path in (tmp_path / "objects").iterdir()] == [f"{digest}.rel"]
        fetched = RelationRegistry(tmp_path).get(digest)
        assert fetched.content_hash() == digest
        assert fetched.rows == relation.rows
        assert RelationRegistry(tmp_path).last_recovery["converted"] == 0

    def test_interrupted_conversion_is_finished(self, tmp_path):
        # A crash between the object write and the JSON unlink leaves both.
        relation = make_relation()
        digest = RelationRegistry(tmp_path).put(relation)
        legacy = self.write_legacy(tmp_path, relation)
        registry = RelationRegistry(tmp_path)
        assert registry.last_recovery["converted"] == 1
        assert registry.last_recovery["entries"] == 1
        assert not legacy.exists()
        assert registry.get(digest).rows == relation.rows

    @pytest.mark.parametrize("damage", ["row", "hash", "truncate", "unhashable"])
    def test_damaged_entries_are_quarantined(self, tmp_path, damage):
        relation = make_relation()
        digest = relation.content_hash()
        if damage == "unhashable":
            # The JSON-row store accepted tuple values; they come back as
            # unhashable lists, which no relation can hold.
            relation = Relation("r", ("a",), [((1, 2),), ((3, 4),)])
            digest = relation.content_hash()
        path = self.write_legacy(tmp_path, relation, digest)
        text = path.read_text(encoding="utf-8")
        if damage == "row":
            path.write_text(text.replace('"v1"', '"v2"', 1), encoding="utf-8")
        elif damage == "hash":
            path.write_text(text.replace(digest, "0" * 64), encoding="utf-8")
        elif damage == "truncate":
            path.write_text(text[: len(text) // 2], encoding="utf-8")
        registry = RelationRegistry(tmp_path)
        assert registry.last_recovery["converted"] == 0
        assert registry.last_recovery["entries"] == 0
        assert list((tmp_path / "objects").iterdir()) == []
        assert len(list((tmp_path / "quarantine").iterdir())) == 1
        assert registry.stats()["quarantined"] == 1
        assert digest not in registry


class TestQuarantineCap:
    @staticmethod
    def _stale_quarantine(tmp_path, count: int, size: int = 1024):
        """Pre-populate ``quarantine/`` with ``count`` aged files."""
        RelationRegistry(tmp_path)  # creates the layout
        quarantine = tmp_path / "quarantine"
        paths = []
        for index in range(count):
            path = quarantine / f"stale-{index}.json.1.{index:08d}"
            path.write_bytes(b"x" * size)
            os.utime(path, (1_000_000 + index, 1_000_000 + index))  # distinct mtimes
            paths.append(path)
        return paths

    def test_startup_prunes_stale_quarantine_oldest_first(self, tmp_path):
        paths = self._stale_quarantine(tmp_path, count=4, size=1024)
        registry = RelationRegistry(tmp_path, max_quarantine_bytes=2 * 1024)
        assert [p.exists() for p in paths] == [False, False, True, True]
        stats = registry.stats()
        assert stats["quarantine_pruned"] == 2
        assert stats["quarantine"] == {"files": 2, "bytes": 2 * 1024, "max_bytes": 2 * 1024}

    def test_fresh_quarantine_evicts_old_evidence_not_itself(self, tmp_path):
        old = self._stale_quarantine(tmp_path, count=1, size=4096)
        registry = RelationRegistry(tmp_path, max_quarantine_bytes=4096)
        digest = registry.put(make_relation())
        path = tmp_path / "objects" / f"{digest}.rel"
        path.write_bytes(b"\xde\xad" * 64)
        fresh = RelationRegistry(tmp_path, max_quarantine_bytes=4096)
        with pytest.raises(IntegrityError) as excinfo:
            fresh.get(digest)
        # The just-quarantined file survives its own pruning sweep; the
        # stale evidence goes first.
        assert Path(excinfo.value.quarantined).exists()
        assert not old[0].exists()

    def test_zero_cap_disables_pruning(self, tmp_path):
        paths = self._stale_quarantine(tmp_path, count=3)
        registry = RelationRegistry(tmp_path, max_quarantine_bytes=0)
        assert all(p.exists() for p in paths)
        assert registry.stats()["quarantine_pruned"] == 0

    def test_rejects_negative_cap(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            RelationRegistry(tmp_path, max_quarantine_bytes=-1)


class TestAtomicSave:
    def test_save_is_atomic_and_byte_identical(self, tmp_path):
        result = Session().discover(make_relation())
        target = tmp_path / "out.json"
        result.save(target)
        assert json.loads(target.read_text(encoding="utf-8")) == result.payload
        assert list(tmp_path.glob("*.tmp")) == []

    def test_kill_nine_during_save_never_truncates(self, tmp_path):
        """SIGKILL between fsync and rename of RunResult.save(): the old
        artefact survives untouched, never a truncated mix."""
        target = tmp_path / "out.json"
        target.write_text('{"old": true}', encoding="utf-8")
        script = (
            "import os, signal, sys\n"
            "from repro.registry import store\n"
            "from repro.relational.relation import Relation\n"
            "from repro.session import Session\n"
            "store._TEST_BEFORE_REPLACE = "
            "lambda tmp: os.kill(os.getpid(), signal.SIGKILL)\n"
            "rows = [(i % 5, i % 3) for i in range(20)]\n"
            "Session().discover(Relation('t', ('a', 'b'), rows)).save(sys.argv[1])\n"
            "print('UNREACHABLE')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(target)],
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert json.loads(target.read_text(encoding="utf-8")) == {"old": True}

    def test_atomic_write_cleans_tmp_on_error(self, tmp_path):
        def boom() -> None:
            raise RuntimeError("injected")

        with pytest.raises(RuntimeError, match="injected"):
            atomic_write_text(tmp_path / "x.json", "{}", before_replace=boom)
        assert list(tmp_path.iterdir()) == []


class TestProvenance:
    def test_every_verb_stamps_provenance(self):
        session = Session()
        relation = make_relation()
        results = [
            session.discover(relation),
            session.validate(relation, ["a -> b"]),
            session.profile(relation),
        ]
        for result in results:
            block = result.provenance
            assert block is not None
            assert block["relation_hash"] == relation.content_hash()
            assert block["executor"] == "inline"
            assert block["config_fingerprint"] == config_fingerprint(engine_config())

    def test_infine_stamps_catalog_hash(self):
        from repro.relational import base, join

        session = Session()
        left = Relation("l", ("k", "a"), [(i % 4, i % 2) for i in range(12)])
        right = Relation("r", ("k", "b"), [(i % 4, i % 3) for i in range(12)])
        catalog = {"l": left, "r": right}
        result = session.infine(join(base("l"), base("r"), on="k"), catalog)
        assert result.provenance["relation_hash"] == catalog_content_hash(catalog)

    def test_verify_provenance_accepts_fresh_results(self):
        registry = RelationRegistry()
        relation = make_relation()
        registry.put(relation)
        result = Session().discover(relation)
        report = verify_provenance(result, registry)
        assert report["relation_verified"] is True
        assert report["code_version_matches_current"] is True

    def test_verify_provenance_rejects_tampered_fingerprint(self):
        result = Session().discover(make_relation())
        payload = json.loads(result.to_json())
        payload["provenance"]["config_fingerprint"] = "0" * 16
        with pytest.raises(ProvenanceError, match="fingerprint"):
            verify_provenance(RunResult(payload))

    def test_verify_provenance_rejects_missing_block(self):
        result = Session().discover(make_relation())
        payload = json.loads(result.to_json())
        del payload["provenance"]
        with pytest.raises(ProvenanceError):
            verify_provenance(RunResult(payload))

    #: The default engine configuration mapping of earlier releases and the fingerprints
    #: results recorded for them: the 10-field config before the engine
    #: dropped its five unmeasured knobs, and the 5-field config before it
    #: dropped runtime backend selection.
    OLDER_DEFAULT_CONFIGS = (
        (
            {
                "backend": "auto",
                "backend_min_numpy_rows": 0,
                "marks_cache_bytes": 134217728,
                "combined_codes_cache_entries": 16,
                "partition_cache_max_positions": None,
                "batch_validation": True,
                "batch_min_candidates": 0,
                "counting_sort_max_codes": 65536,
                "shard_count": 0,
                "shard_min_rows": 100000,
            },
            "874b2dd5c6160388",
        ),
        (
            {
                "backend": "auto",
                "backend_min_numpy_rows": 0,
                "marks_cache_bytes": 134217728,
                "combined_codes_cache_entries": 16,
                "partition_cache_max_positions": None,
            },
            "ea092732b5fed7ad",
        ),
    )

    def _older_payload(self, config, fingerprint, backend="numpy"):
        payload = json.loads(Session().discover(make_relation()).to_json())
        payload["engine"]["backend"] = backend
        payload["engine"]["config"] = dict(config)
        payload["engine"]["config_fingerprint"] = fingerprint
        payload["provenance"]["config_fingerprint"] = fingerprint
        return payload

    def test_verify_provenance_accepts_older_config_fields(self):
        for config, fingerprint in self.OLDER_DEFAULT_CONFIGS:
            for backend in ("numpy", "python"):
                payload = self._older_payload(config, fingerprint, backend)
                report = verify_provenance(RunResult(payload))
                assert report["config_fingerprint"] == fingerprint

    def test_verify_provenance_rejects_tampered_older_config(self):
        for config, fingerprint in self.OLDER_DEFAULT_CONFIGS:
            payload = self._older_payload(config, fingerprint)
            payload["engine"]["config"]["backend_min_numpy_rows"] = 500
            with pytest.raises(ProvenanceError, match="fingerprint mismatch"):
                verify_provenance(RunResult(payload))

    @pytest.mark.parametrize("config", [None, "auto", ["backend", "auto"]])
    def test_verify_provenance_rejects_missing_engine_config(self, config):
        payload = json.loads(Session().discover(make_relation()).to_json())
        if config is None:
            del payload["engine"]["config"]
        else:
            payload["engine"]["config"] = config
        with pytest.raises(ProvenanceError, match="engine.config"):
            verify_provenance(RunResult(payload))

    def test_verify_provenance_requires_registry_membership(self):
        result = Session().discover(make_relation())
        with pytest.raises(ProvenanceError, match="not in the registry"):
            verify_provenance(result, RelationRegistry())

    def test_with_provenance_replaces_executor_only(self):
        result = Session().discover(make_relation())
        stamped = result.with_provenance(executor="thread")
        assert stamped.provenance["executor"] == "thread"
        assert result.provenance["executor"] == "inline"
        assert stamped.provenance["relation_hash"] == result.provenance["relation_hash"]
        assert stamped.artifact_fingerprint() == result.artifact_fingerprint()

    def test_build_provenance_key_order_is_canonical(self):
        block = build_provenance("0" * 64, "f" * 16, executor="process")
        assert list(block) == ["code_version", "config_fingerprint", "executor", "relation_hash"]

    def test_round_trip_preserves_provenance(self, tmp_path):
        result = Session().discover(make_relation())
        path = tmp_path / "r.json"
        result.save(path)
        loaded = RunResult.load(path)
        assert loaded.provenance == result.provenance
        verify_provenance(loaded)


class TestServeConfigRegistryDir:
    def test_env_resolution(self):
        config = ServeConfig.from_env({"REPRO_REGISTRY_DIR": "/tmp/reg"})
        assert config.registry_dir == "/tmp/reg"
        assert ServeConfig.from_env({}).registry_dir is None
        assert ServeConfig.from_env({"REPRO_REGISTRY_DIR": "  "}).registry_dir is None

    def test_engine_config_untouched(self):
        # The registry is serve-level state; the recorded engine configuration
        # must not change because a registry directory is configured.
        assert not any("registry" in key for key in engine_config())
