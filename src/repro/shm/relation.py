"""Worker-side attach path: zero-copy relations over shared-memory segments.

:func:`attach_relation` maps a published segment and reconstructs a
:class:`SharedRelation` — a :class:`~repro.relational.relation.Relation`
whose column encodings are ``np.frombuffer`` views straight into the
segment (no copy of the code arrays, ever) and whose row tuples are decoded
lazily, only if something actually asks for raw rows.  The partition kernel
runs entirely on the cached encodings, so the common case never touches
rows at all.

Bit-compatibility: the codes in a segment *are* the parent's first-
appearance dense encodings, used as the relation's column encodings,
and the content hash is carried in the header — so a shm-attached relation
re-encodes, hashes and computes byte-for-byte like the pickled-path
instance it replaces (pinned by parity tests).

The resource-tracker caveat: before Python 3.13, attaching a segment by
name registers it with the process's ``resource_tracker``, which *unlinks*
it at interpreter exit — destroying a parent-owned segment other workers
still need.  :func:`attach_segment` passes ``track=False`` where supported
and unregisters manually elsewhere; ownership stays with the parent plane.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Any

import numpy as np

from ..relational.relation import Relation
from ..relational.schema import RelationSchema
from .segment import SegmentFormatError, read_header

#: Where POSIX shared memory appears as files (kept in sync with
#: ``repro.shm.plane``); hosts without it attach via ``SharedMemory``.
_SHM_DIR = "/dev/shm"


class SharedRelation(Relation):
    """A relation backed by a shared-memory segment (zero-copy codes).

    Each column entry is built on first use from the segment's int64 view,
    its header dictionary and a ``bincount`` of the codes; the content hash
    comes from the header.  Rows decode lazily, as for any derived
    :class:`~repro.relational.relation.Relation`.
    """

    __slots__ = ()

    def __init__(
        self,
        name: str,
        attributes: "list[str]",
        columns: "dict[str, tuple[Any, int, list[Any]]]",
        n_rows: int,
        content_hash: str,
    ) -> None:
        def column(attribute: str) -> "tuple[Any, int, list[int], list[Any]]":
            codes, n_codes, dictionary = columns[attribute]
            counts = np.bincount(codes, minlength=n_codes).tolist()
            return codes, n_codes, counts, list(dictionary)

        self._setup(name, RelationSchema(attributes), n_rows, None, column)
        self._content_hash_cache = content_hash


class _MappedSegment:
    """A minimal attach-side mapping of ``/dev/shm/<name>`` (Linux).

    Used instead of :class:`~multiprocessing.shared_memory.SharedMemory`
    because attaching through that class *registers* the segment with the
    process-tree-wide resource tracker on Python < 3.13 — and the tracker
    then either unlinks a parent-owned segment at exit or double-unregisters
    it (the ``KeyError`` noise of bpo-39959).  A plain ``open`` + ``mmap``
    of the tmpfs file is the same mapping with no ownership claim at all.
    """

    __slots__ = ("name", "_mmap", "_buf")

    def __init__(self, name: str) -> None:
        import mmap

        fd = os.open(os.path.join(_SHM_DIR, name), os.O_RDWR)
        try:
            size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, size)
        finally:
            os.close(fd)
        self._buf: "memoryview | None" = memoryview(self._mmap)
        self.name = name

    @property
    def buf(self) -> memoryview:
        assert self._buf is not None
        return self._buf

    def close(self) -> None:
        try:
            if self._buf is not None:
                self._buf.release()
            if self._mmap is not None:
                self._mmap.close()
        except BufferError:
            # Exported numpy views keep the mmap object (and the mapping)
            # alive until they die; dropping our references is enough.
            pass
        finally:
            self._buf = None
            self._mmap = None


def attach_segment(name: str):
    """Attach an existing segment by name without claiming ownership.

    Returns a handle with ``.buf`` and ``.close()``; the caller closes it
    (never unlinks — the parent plane owns segment lifetimes).  On Linux
    this maps the tmpfs file directly (see :class:`_MappedSegment`); other
    hosts go through :class:`~multiprocessing.shared_memory.SharedMemory`
    with tracking disabled where the interpreter supports it.
    """
    if os.path.isdir(_SHM_DIR):
        return _MappedSegment(name)
    from multiprocessing.shared_memory import SharedMemory  # pragma: no cover

    try:  # pragma: no cover - non-Linux host
        return SharedMemory(name=name, track=False)  # Python >= 3.13
    except TypeError:  # pragma: no cover - Python < 3.13
        shm = SharedMemory(name=name)
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
        return shm


def relation_from_segment(buf, expected_hash: "str | None" = None) -> SharedRelation:
    """Reconstruct the relation stored in segment buffer ``buf`` (zero-copy).

    Verifies the header's content hash against ``expected_hash`` when given
    — a mismatch means the name was recycled for different content, which
    must fall back to the wire rather than silently compute on wrong data.
    """
    header, data_offset = read_header(buf)
    if expected_hash is not None and header.get("hash") != expected_hash:
        raise SegmentFormatError(
            f"segment holds relation {header.get('hash')!r}, expected {expected_hash!r}"
        )
    n_rows = header["n_rows"]
    stride = 8 * n_rows
    columns: dict[str, tuple[Any, int, list[Any]]] = {}
    for index, column in enumerate(header["columns"]):
        codes = np.frombuffer(
            buf, dtype=np.int64, count=n_rows, offset=data_offset + index * stride
        )
        columns[column["attribute"]] = (codes, column["n_codes"], column["dictionary"])
    return SharedRelation(
        header["name"], list(header["attributes"]), columns, n_rows, header["hash"]
    )


class SegmentAttachCache:
    """A worker-process cache of attached segments (name -> relation).

    Re-attaching per job would re-parse the header and rebuild the encoding
    views every time; keeping the handle keeps the relation object — and
    with it every engine cache keyed on relation identity — warm across
    jobs.  Bounded LRU: evicting closes the mapping unless numpy views are
    still exported (then the handle is simply dropped and the mapping lives
    until process exit — safe, bounded by the cache size).
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be at least 1, got {max_entries}")
        self._max_entries = max_entries
        self._entries: "OrderedDict[str, tuple[Any, SharedRelation]]" = OrderedDict()
        self.attaches = 0
        self.hits = 0

    @staticmethod
    def _close_quietly(shm) -> None:
        try:
            shm.close()
        except BufferError:
            # Somebody still holds a numpy view into the mapping.  The
            # mapping must stay alive (the views keep the mmap object
            # referenced; it unmaps when the last view dies), but the
            # SharedMemory handle must not retry in __del__ — that prints
            # "Exception ignored" noise at interpreter exit.  Disarm it and
            # close the descriptor ourselves (mapped memory needs no fd).
            shm._buf = None
            shm._mmap = None
            fd = getattr(shm, "_fd", -1)
            if fd >= 0:
                try:
                    import os

                    os.close(fd)
                except OSError:
                    pass
                shm._fd = -1

    def get(self, name: str, expected_hash: "str | None" = None) -> SharedRelation:
        entry = self._entries.get(name)
        if entry is not None:
            self._entries.move_to_end(name)
            self.hits += 1
            return entry[1]
        shm = attach_segment(name)
        try:
            relation = relation_from_segment(shm.buf, expected_hash)
        except Exception:
            self._close_quietly(shm)
            raise
        self.attaches += 1
        self._entries[name] = (shm, relation)
        while len(self._entries) > self._max_entries:
            _, (old_shm, _old_relation) = self._entries.popitem(last=False)
            self._close_quietly(old_shm)
        return relation

    def close(self) -> None:
        while self._entries:
            _, (shm, _relation) = self._entries.popitem(last=False)
            self._close_quietly(shm)
