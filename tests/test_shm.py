"""Unit tests for the registry's columnar relation object.

The object is the layout the retired shared-memory segments used (a JSON
header with the dictionaries, then 8-aligned int64 code blocks), now the
one stored form of a relation; the module keeps its name.  Covers the
format (round trips, rejection of non-scalar dictionaries, corrupt-header
diagnostics), ``Relation.from_codes``, the worker-side reader (objects
are read and verified, never mapped, and kept in a bounded LRU) and
idempotent publishing into the store by content.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from repro.registry import RelationRegistry
from repro.registry.objects import ObjectFormatError, decode_object, encode_object
from repro.relational.relation import Relation
from repro.serve.executor import WORKER_CACHED_RELATIONS, open_worker_registry

pytestmark = pytest.mark.slow


def make_relation(name: str = "t", n_rows: int = 60, salt: int = 0) -> Relation:
    rows = [(i % 6, (i % 6) * 2, (i + salt) % 4, f"v{(i + salt) % 3}") for i in range(n_rows)]
    return Relation(name, ("a", "b", "c", "d"), rows)


def segment_bytes(relation: Relation) -> bytearray:
    return bytearray(encode_object(relation))


class TestSegmentFormat:
    def test_round_trip_is_bit_identical(self):
        original = make_relation(n_rows=90)
        restored = decode_object(segment_bytes(original), original.content_hash())
        assert restored._rows is None  # columnar: rows decode on demand
        assert restored.name == original.name
        assert restored.attribute_names == original.attribute_names
        assert len(restored) == len(original)
        assert restored.content_hash() == original.content_hash()
        for attribute in original.attribute_names:
            codes, n_codes, counts = original._encode_column(attribute)
            stored_codes, stored_n, stored_counts = restored._encode_column(attribute)
            assert list(stored_codes) == list(codes)
            assert stored_n == n_codes
            assert stored_counts == counts
            assert restored.column_dictionary(attribute) == original.column_dictionary(
                attribute
            )
        assert restored.rows == original.rows
        # Rebuilt from the rows, the relation hashes to the same address.
        assert Relation(restored.name, restored.schema, restored.rows).content_hash() == (
            original.content_hash()
        )

    def test_expected_hash_mismatch_is_rejected(self):
        buf = segment_bytes(make_relation())
        with pytest.raises(ObjectFormatError, match="expected"):
            decode_object(buf, expected_hash="0" * 64)

    def test_non_scalar_dictionary_values_are_rejected(self):
        relation = Relation("t", ("a",), [((1, 2),), ((3, 4),)])
        with pytest.raises(ObjectFormatError, match="JSON-native"):
            encode_object(relation)

    def test_bool_and_none_values_round_trip(self):
        relation = Relation("t", ("a", "b"), [(True, None), (False, 1), (True, None)])
        restored = decode_object(segment_bytes(relation), relation.content_hash())
        assert restored.rows == relation.rows
        assert restored.content_hash() == relation.content_hash()

    def test_empty_relation_round_trips(self):
        relation = Relation("t", ("a", "b"), [])
        restored = decode_object(segment_bytes(relation), relation.content_hash())
        assert len(restored) == 0
        assert restored.rows == ()
        assert restored.content_hash() == relation.content_hash()

    def test_bad_magic_is_rejected(self):
        buf = segment_bytes(make_relation())
        buf[0:8] = b"XXXXXXXX"
        with pytest.raises(ObjectFormatError, match="magic"):
            decode_object(buf, make_relation().content_hash())

    def test_truncated_segment_is_rejected(self):
        buf = segment_bytes(make_relation())
        with pytest.raises(ObjectFormatError, match="header describes"):
            decode_object(buf[: len(buf) - 8], make_relation().content_hash())
        with pytest.raises(ObjectFormatError, match="truncated"):
            decode_object(buf[:40], make_relation().content_hash())

    def test_corrupt_header_json_is_rejected(self):
        buf = segment_bytes(make_relation())
        buf[20] = 0xFF
        with pytest.raises(ObjectFormatError):
            decode_object(buf, make_relation().content_hash())

    def test_codes_are_little_endian_int64_blocks(self):
        relation = Relation("t", ("a", "b"), [("x", 1), ("y", 1), ("x", 2)])
        data = encode_object(relation)
        assert data[:8] == b"RPROREL1"
        header_end = 16 + int.from_bytes(data[8:16], "little")
        offset = (header_end + 7) & ~7
        assert data[header_end:offset] == b"\0" * (offset - header_end)
        blocks = np.frombuffer(data, dtype="<i8", offset=offset).reshape(2, 3)
        assert blocks.tolist() == [[0, 1, 0], [0, 0, 1]]


class TestFromCodes:
    def test_from_codes_round_trip_matches_content_hash(self):
        original = make_relation(n_rows=48)
        columns = []
        for attribute in original.attribute_names:
            codes, _n = original.column_codes(attribute)
            columns.append((array("q", codes), original.column_dictionary(attribute)))
        rebuilt = Relation.from_codes(original.name, original.attribute_names, columns)
        assert rebuilt.rows == original.rows
        assert rebuilt.content_hash() == original.content_hash()

    def test_from_codes_rejects_sparse_dictionaries(self):
        # Code 1 appears before code 0: not a first-appearance encoding.
        with pytest.raises(ValueError):
            Relation.from_codes("t", ("a",), [(array("q", [1, 0]), ["x", "y"])])


class TestWorkerReader:
    def test_stored_object_reads_bit_identical(self, tmp_path):
        relation = make_relation(n_rows=120)
        content_hash = RelationRegistry(tmp_path).put(relation)
        read = open_worker_registry(str(tmp_path)).get(content_hash)
        assert read is not relation
        assert read.content_hash() == content_hash
        assert read.rows == relation.rows
        for attribute in relation.attribute_names:
            assert list(read.column_codes(attribute)[0]) == list(
                relation.column_codes(attribute)[0]
            )

    def test_cache_hits_on_repeat(self, tmp_path):
        content_hash = RelationRegistry(tmp_path).put(make_relation())
        reader = open_worker_registry(str(tmp_path))
        first = reader.get(content_hash)
        second = reader.get(content_hash)
        assert first is second  # same object: engine caches stay warm
        stats = reader.stats()
        assert stats["disk_reads"] == 1 and stats["cache_hits"] == 1

    def test_cache_is_bounded(self, tmp_path):
        owner = RelationRegistry(tmp_path)
        hashes = [owner.put(make_relation(salt=i, n_rows=12 + i)) for i in range(10)]
        reader = open_worker_registry(str(tmp_path))
        for content_hash in hashes:
            reader.get(content_hash)
        assert reader.stats()["cached"] == WORKER_CACHED_RELATIONS

    def test_read_relation_survives_file_rewrite(self, tmp_path):
        # The object is read, not mapped: damaging or truncating the file in
        # place after the read cannot change a relation already verified.
        relation = make_relation(n_rows=80)
        content_hash = RelationRegistry(tmp_path).put(relation)
        read = open_worker_registry(str(tmp_path)).get(content_hash)
        path = tmp_path / "objects" / f"{content_hash}.rel"
        path.write_bytes(b"\0" * 16)
        assert read.rows == relation.rows
        assert list(read.column_codes("d")[0]) == list(relation.column_codes("d")[0])


class TestSharedRelationPlane:
    """The registry's object store is the plane relations are published to."""

    def test_publish_is_idempotent_by_content(self, tmp_path):
        # Publishing an equal relation again, from this or a later owner of
        # the same store, yields the same hash and leaves the one object.
        relation = make_relation()
        first = RelationRegistry(tmp_path).put(relation)
        owner = RelationRegistry(tmp_path)
        second = owner.put(make_relation())
        assert first == second == relation.content_hash()
        assert owner.stats()["writes"] == 0 and owner.stats()["write_skips"] == 1
        assert [p.name for p in (tmp_path / "objects").iterdir()] == [f"{first}.rel"]
