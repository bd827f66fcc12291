"""Unit tests for the shared-memory data plane (``repro.shm``).

Covers the segment binary format (round trips, rejection of non-scalar
dictionaries, corrupt-header diagnostics), the zero-copy
:class:`SharedRelation` reconstruction (bit-identical codes, counts,
dictionaries, rows and content hash), the parent-owned
:class:`SharedRelationPlane` (idempotent publish, LRU byte-budget eviction,
lease refcounts blocking eviction, orphan-segment cleanup) and the
``shm.attach``/``shm.evict`` fault-injection sites.
"""

from __future__ import annotations

import os
from array import array
from pathlib import Path

import pytest

from repro.relational.relation import Relation
from repro.serve.faults import FaultPlan
from repro.shm import (
    SegmentAttachCache,
    SegmentFormatError,
    SharedRelation,
    SharedRelationPlane,
    attach_segment,
    encode_segment,
    plane_available,
    read_header,
    relation_from_segment,
    write_segment,
)

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(not plane_available(), reason="host lacks shared memory"),
]


def make_relation(name: str = "t", n_rows: int = 60, salt: int = 0) -> Relation:
    rows = [(i % 6, (i % 6) * 2, (i + salt) % 4, f"v{(i + salt) % 3}") for i in range(n_rows)]
    return Relation(name, ("a", "b", "c", "d"), rows)


def segment_bytes(relation: Relation) -> bytearray:
    header, arrays, total = encode_segment(relation)
    buf = bytearray(total)
    write_segment(buf, header, arrays, len(relation))
    return buf


class TestSegmentFormat:
    def test_round_trip_is_bit_identical(self):
        original = make_relation(n_rows=90)
        restored = relation_from_segment(segment_bytes(original))
        assert isinstance(restored, SharedRelation)
        assert restored.name == original.name
        assert restored.attribute_names == original.attribute_names
        assert len(restored) == len(original)
        assert restored.content_hash() == original.content_hash()
        for attribute in original.attribute_names:
            codes, n_codes, counts = original._encode_column(attribute)
            shm_codes, shm_n, shm_counts = restored._encode_column(attribute)
            assert list(shm_codes) == list(codes)
            assert shm_n == n_codes
            assert shm_counts == counts
            assert restored.column_dictionary(attribute) == original.column_dictionary(
                attribute
            )
        assert restored.rows == original.rows

    def test_expected_hash_mismatch_is_rejected(self):
        buf = segment_bytes(make_relation())
        with pytest.raises(SegmentFormatError, match="expected"):
            relation_from_segment(buf, expected_hash="0" * 64)

    def test_non_scalar_dictionary_values_are_rejected(self):
        relation = Relation("t", ("a",), [((1, 2),), ((3, 4),)])
        with pytest.raises(SegmentFormatError, match="JSON scalars"):
            encode_segment(relation)

    def test_bool_and_none_values_round_trip(self):
        relation = Relation("t", ("a", "b"), [(True, None), (False, 1), (True, None)])
        restored = relation_from_segment(segment_bytes(relation))
        assert restored.rows == relation.rows
        assert restored.content_hash() == relation.content_hash()

    def test_empty_relation_round_trips(self):
        relation = Relation("t", ("a", "b"), [])
        restored = relation_from_segment(segment_bytes(relation))
        assert len(restored) == 0
        assert restored.rows == ()
        assert restored.content_hash() == relation.content_hash()

    def test_bad_magic_is_rejected(self):
        buf = segment_bytes(make_relation())
        buf[0:8] = b"XXXXXXXX"
        with pytest.raises(SegmentFormatError, match="magic"):
            read_header(buf)

    def test_truncated_segment_is_rejected(self):
        buf = segment_bytes(make_relation())
        with pytest.raises(SegmentFormatError, match="overrun"):
            read_header(buf[: len(buf) // 2])

    def test_corrupt_header_json_is_rejected(self):
        buf = segment_bytes(make_relation())
        buf[20] = 0xFF
        with pytest.raises(SegmentFormatError):
            read_header(buf)


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


class TestSharedRelationPlane:
    def test_publish_is_idempotent_by_content(self):
        relation = make_relation()
        plane = SharedRelationPlane(budget_bytes=1 << 20)
        try:
            first = plane.publish(relation)
            second = plane.publish(relation)
            assert first == second == relation.content_hash()
            assert plane.stats()["published"] == 1
            assert len(plane.segment_names()) == 1
        finally:
            plane.close()

    def test_published_segment_attaches_bit_identical(self):
        relation = make_relation(n_rows=120)
        plane = SharedRelationPlane(budget_bytes=1 << 20)
        cache = SegmentAttachCache()
        try:
            content_hash = plane.publish(relation)
            meta = plane.acquire(content_hash)
            assert meta is not None and meta["hash"] == content_hash
            attached = cache.get(meta["name"], meta["hash"])
            assert attached.content_hash() == relation.content_hash()
            assert attached.rows == relation.rows
            plane.release(content_hash)
        finally:
            cache.close()
            plane.close()

    def test_attach_cache_hits_on_repeat(self):
        relation = make_relation()
        plane = SharedRelationPlane(budget_bytes=1 << 20)
        cache = SegmentAttachCache()
        try:
            content_hash = plane.publish(relation)
            meta = plane.acquire(content_hash)
            first = cache.get(meta["name"], meta["hash"])
            second = cache.get(meta["name"], meta["hash"])
            assert first is second  # same object: engine caches stay warm
            assert cache.attaches == 1 and cache.hits == 1
            plane.release(content_hash)
        finally:
            cache.close()
            plane.close()

    def test_over_budget_relation_is_declined(self):
        relation = make_relation(n_rows=200)
        plane = SharedRelationPlane(budget_bytes=64)  # far below any segment
        try:
            assert plane.publish(relation) is None
            assert plane.stats()["publish_declined"] == 1
            assert plane.segment_names() == []
        finally:
            plane.close()

    def test_non_scalar_relation_is_declined(self):
        relation = Relation("t", ("a",), [((1, 2),)])
        plane = SharedRelationPlane(budget_bytes=1 << 20)
        try:
            assert plane.publish(relation) is None
            assert plane.stats()["publish_declined"] == 1
        finally:
            plane.close()

    def test_lru_eviction_frees_budget_for_new_publishes(self):
        a, b = make_relation("a", n_rows=100), make_relation("b", n_rows=100, salt=1)
        _, _, size = encode_segment(a)
        plane = SharedRelationPlane(budget_bytes=int(size * 1.5))
        try:
            hash_a = plane.publish(a)
            assert hash_a is not None
            hash_b = plane.publish(b)  # evicts a (LRU, refcount 0)
            assert hash_b is not None
            stats = plane.stats()
            assert stats["evictions"] == 1
            assert plane.acquire(hash_a) is None  # gone
            assert stats["segments"] == 1
        finally:
            plane.close()

    def test_leased_segments_are_never_evicted(self):
        a, b = make_relation("a", n_rows=100), make_relation("b", n_rows=100, salt=1)
        _, _, size = encode_segment(a)
        plane = SharedRelationPlane(budget_bytes=int(size * 1.5))
        try:
            hash_a = plane.publish(a)
            assert plane.acquire(hash_a) is not None  # leased: in flight
            assert plane.publish(b) is None  # cannot evict the leased segment
            assert plane.stats()["publish_declined"] == 1
            assert plane.refcounts()[hash_a] == 1
            plane.release(hash_a)
            assert plane.publish(b) is not None  # now evictable
        finally:
            plane.close()

    def test_acquire_unknown_hash_is_a_lease_miss(self):
        plane = SharedRelationPlane(budget_bytes=1 << 20)
        try:
            assert plane.acquire("0" * 64) is None
            assert plane.stats()["lease_misses"] == 1
        finally:
            plane.close()

    def test_release_is_idempotent_past_zero(self):
        relation = make_relation()
        plane = SharedRelationPlane(budget_bytes=1 << 20)
        try:
            content_hash = plane.publish(relation)
            plane.release(content_hash)  # never acquired: floor at zero
            assert plane.refcounts()[content_hash] == 0
        finally:
            plane.close()

    def test_close_unlinks_every_segment(self):
        plane = SharedRelationPlane(budget_bytes=1 << 20)
        plane.publish(make_relation("a"))
        plane.publish(make_relation("b", salt=1))
        names = plane.segment_names()
        assert len(names) == 2
        plane.close()
        for name in names:
            assert not Path("/dev/shm", name).exists()
        # Closed plane declines everything quietly.
        assert plane.publish(make_relation("c", salt=2)) is None
        assert plane.acquire("0" * 64) is None

    def test_mapped_views_survive_unlink(self):
        # POSIX: close() may unlink while a worker still holds views.
        relation = make_relation(n_rows=80)
        plane = SharedRelationPlane(budget_bytes=1 << 20)
        cache = SegmentAttachCache()
        content_hash = plane.publish(relation)
        meta = plane.acquire(content_hash)
        attached = cache.get(meta["name"], meta["hash"])
        plane.release(content_hash)
        plane.close()  # unlinks the segment under the attached relation
        assert attached.rows == relation.rows  # mapping still valid
        cache.close()


class TestOrphanCleanup:
    def test_dead_owner_segments_are_reclaimed(self):
        stale = Path("/dev/shm", "repro_999999999_deadbeefdeadbeef")
        stale.write_bytes(b"\0" * 64)
        try:
            removed = SharedRelationPlane.cleanup_orphans()
            assert stale.name in removed
            assert not stale.exists()
        finally:
            stale.unlink(missing_ok=True)

    def test_live_owner_segments_are_kept(self):
        mine = Path("/dev/shm", f"repro_{os.getpid()}_feedfacefeedface")
        mine.write_bytes(b"\0" * 64)
        try:
            removed = SharedRelationPlane.cleanup_orphans()
            assert mine.name not in removed
            assert mine.exists()
        finally:
            mine.unlink(missing_ok=True)

    def test_foreign_names_are_ignored(self):
        foreign = Path("/dev/shm", "repro_notanumber_x")
        foreign.write_bytes(b"\0" * 8)
        try:
            removed = SharedRelationPlane.cleanup_orphans()
            assert foreign.name not in removed
            assert foreign.exists()
        finally:
            foreign.unlink(missing_ok=True)


class TestFaultSites:
    def test_attach_fault_forces_wire_fallback(self):
        relation = make_relation()
        plan = FaultPlan.from_spec("seed=7;shm.attach:error:p=1.0:times=1")
        plane = SharedRelationPlane(budget_bytes=1 << 20, faults=plan)
        try:
            content_hash = plane.publish(relation)
            assert plane.acquire(content_hash) is None  # faulted: caller uses wire
            stats = plane.stats()
            assert stats["attach_faults"] == 1
            assert plane.refcounts()[content_hash] == 0  # no leaked lease
            assert plane.acquire(content_hash) is not None  # rule exhausted
            plane.release(content_hash)
        finally:
            plane.close()

    def test_evict_fault_aborts_the_sweep(self):
        a, b = make_relation("a", n_rows=100), make_relation("b", n_rows=100, salt=1)
        _, _, size = encode_segment(a)
        plan = FaultPlan.from_spec("seed=7;shm.evict:error:p=1.0:times=1")
        plane = SharedRelationPlane(budget_bytes=int(size * 1.5), faults=plan)
        try:
            hash_a = plane.publish(a)
            assert plane.publish(b) is None  # eviction fault aborted the sweep
            stats = plane.stats()
            assert stats["evict_faults"] == 1 and stats["evictions"] == 0
            assert plane.acquire(hash_a) is not None  # victim reinstated
            plane.release(hash_a)
            assert plane.publish(b) is not None  # next sweep succeeds
        finally:
            plane.close()


class TestAttachSegment:
    def test_attach_does_not_claim_ownership(self):
        relation = make_relation()
        plane = SharedRelationPlane(budget_bytes=1 << 20)
        try:
            content_hash = plane.publish(relation)
            name = plane.segment_names()[0]
            handle = attach_segment(name)
            try:
                assert relation_from_segment(handle.buf).content_hash() == content_hash
            finally:
                handle.close()
            # Closing the attach handle must not unlink the parent's segment.
            assert Path("/dev/shm", name).exists()
        finally:
            plane.close()
