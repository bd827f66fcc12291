"""The content-addressed relation store: crash-safe, integrity-verified.

:class:`RelationRegistry` maps a relation's content hash (see
:mod:`repro.registry.hashing`) to the relation itself.  Two backends share
one class:

* **in-memory** (``root=None``) — a bounded LRU of materialised relations;
  what a registry-less server uses so ``relation_ref`` submissions still
  work within one process.
* **on-disk** (``root=<dir>``) — one JSON entry per relation under
  ``<root>/objects/<hash>.json``.  Writes are atomic (tmp file + fsync +
  rename into the hash-named path), so a concurrent duplicate ``PUT`` ends
  with one intact file and a crash mid-write leaves only a tmp leftover.
  Every disk read re-verifies the entry by recomputing its content hash;
  corrupt or truncated entries are moved to ``<root>/quarantine/`` and
  surface as a typed :class:`IntegrityError` — an *infra*-class failure in
  the serving layer's classification — never as silently wrong bytes.

A **recovery scan** runs at construction of a disk-backed registry: tmp
leftovers from a ``kill -9`` mid-``PUT`` are removed (and reported via
``stats()["recovery"]``), foreign files in ``objects/`` are quarantined,
and the surviving hash-named entries form the index.

The disk backend keeps the in-memory LRU in front of it, and a cache hit
returns the *same* :class:`Relation` object every time — which is what lets
the session layer's identity-keyed kernel caches (partitions, mark tables,
combined-code prefixes) stay warm across jobs and tenants that address the
same data by hash.

Fault injection: when a :class:`~repro.serve.faults.FaultPlan` (or anything
with a compatible ``fire(site, on_kill=...)``) is attached, disk reads pass
the ``registry.read`` site and the commit point of a write (between fsync
and rename — the torn-write window) passes ``registry.write``; a ``kill``
rule there SIGKILLs the *current process*, the deterministic power-loss
simulation.  The site-name literals are duplicated from
:mod:`repro.serve.faults` so this module never imports the serving package
(which imports the session layer, which imports this module).
"""

from __future__ import annotations

import json
import os
import signal
import threading
import uuid
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Optional

from ..relational.relation import Relation, RelationError
from .hashing import is_relation_hash

#: Schema tag of one on-disk registry entry.
RELATION_ENTRY_SCHEMA = "repro/relation-v1"

#: Fault-injection site names (must match ``repro.serve.faults.SITE_REGISTRY_*``;
#: duplicated so the registry never imports the serving package).
SITE_REGISTRY_READ = "registry.read"
SITE_REGISTRY_WRITE = "registry.write"

#: Test hook invoked with the tmp path between fsync and the atomic rename —
#: the window in which a crash must leave the destination untouched.  Kept
#: module-level (not a parameter) so kill-during-save subprocess tests can
#: arm it without threading it through ``RunResult.save``.
_TEST_BEFORE_REPLACE: Optional[Callable[[Path], None]] = None


class IntegrityError(RuntimeError):
    """A store entry failed verification (corrupt, truncated, unreadable).

    Classified as an *infrastructure* failure by the serving layer
    (:func:`repro.serve.jobs.classify_failure`): the bytes on disk are wrong,
    not the job — jobs that hit it are retried and, if the damage persists,
    fail as ``infra``.  The offending entry has already been moved to the
    registry's ``quarantine/`` directory when ``quarantined`` is set.
    """

    def __init__(
        self,
        message: str,
        content_hash: str | None = None,
        path: str | None = None,
        quarantined: str | None = None,
    ) -> None:
        super().__init__(message)
        self.content_hash = content_hash
        self.path = path
        self.quarantined = quarantined


def _kill_self() -> None:  # pragma: no cover - the caller does not survive
    os.kill(os.getpid(), signal.SIGKILL)


def _fsync_directory(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on the mount
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: "str | os.PathLike[str]",
    text: str,
    before_replace: Callable[[], None] | None = None,
) -> Path:
    """Write ``text`` to ``path`` atomically: tmp file + fsync + rename.

    A crash at any point leaves either the old content or the new content at
    ``path`` — never a truncated mix; at worst a ``.tmp`` leftover remains
    next to it (the registry's recovery scan removes those).
    ``before_replace`` runs after the data is durable but before the rename
    — the hook the registry uses to expose the torn-write window to fault
    injection.  Shared by :meth:`repro.session.RunResult.save`.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        hook = _TEST_BEFORE_REPLACE
        if hook is not None:
            hook(tmp)
        if before_replace is not None:
            before_replace()
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)
    return path


class RelationRegistry:
    """A content-addressed relation store (see the module docstring).

    Parameters
    ----------
    root:
        Directory of the on-disk backend (created if missing, with
        ``objects/`` and ``quarantine/`` beneath it); ``None`` keeps the
        registry purely in-memory.
    faults:
        Optional fault plan driving the ``registry.read``/``registry.write``
        injection sites (duck-typed: anything with
        ``fire(site, on_kill=...)``).  The serving layer wires its own
        shared :class:`~repro.serve.faults.FaultPlan` in here.
    max_cached_relations:
        Bound on the materialisation LRU (and on the whole store when
        in-memory).
    max_quarantine_bytes:
        Size cap on the ``quarantine/`` directory.  Quarantined entries are
        forensic evidence, not data the store needs — without a cap a
        corruption storm (or a restart loop over the same rotten entry)
        grows the directory without bound.  Oldest files are pruned first,
        at construction (stale quarantine from previous runs) and after
        every new quarantine; ``0`` disables pruning.
    """

    def __init__(
        self,
        root: "str | os.PathLike[str] | None" = None,
        faults: Any = None,
        max_cached_relations: int = 256,
        max_quarantine_bytes: int = 64 * 1024 * 1024,
    ) -> None:
        if max_cached_relations < 1:
            raise ValueError(
                f"max_cached_relations must be at least 1, got {max_cached_relations}"
            )
        if max_quarantine_bytes < 0:
            raise ValueError(
                f"max_quarantine_bytes must be non-negative, got {max_quarantine_bytes}"
            )
        self.faults = faults
        self._max_cached = max_cached_relations
        self._max_quarantine_bytes = max_quarantine_bytes
        self._lock = threading.RLock()
        self._cache: "OrderedDict[str, Relation]" = OrderedDict()
        self._counters = {
            "puts": 0,
            "gets": 0,
            "cache_hits": 0,
            "disk_reads": 0,
            "writes": 0,
            "write_skips": 0,
            "quarantined": 0,
            "quarantine_pruned": 0,
        }
        self.last_recovery: dict[str, int] | None = None
        self.root: Path | None = None if root is None else Path(root)
        if self.root is not None:
            self._objects_dir.mkdir(parents=True, exist_ok=True)
            self._quarantine_dir.mkdir(parents=True, exist_ok=True)
            self.last_recovery = self.recover()
            self._prune_quarantine()

    # -- layout ----------------------------------------------------------------
    @property
    def persistent(self) -> bool:
        """Whether this registry has an on-disk backend."""
        return self.root is not None

    @property
    def _objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def _quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _object_path(self, content_hash: str) -> Path:
        return self._objects_dir / f"{content_hash}.json"

    # -- the store verbs -------------------------------------------------------
    def put(self, relation: Relation) -> str:
        """Store ``relation``; returns its content hash (idempotent).

        Disk writes are atomic and skipped when the hash-named entry already
        exists (reads verify, so trusting an existing file is safe); two
        concurrent ``put``\\ s of the same relation both succeed and leave
        exactly one intact file.  Persisting requires JSON-native values.
        """
        content_hash = relation.content_hash()
        with self._lock:
            self._counters["puts"] += 1
        if self.persistent:
            path = self._object_path(content_hash)
            if path.exists():
                with self._lock:
                    self._counters["write_skips"] += 1
            else:
                entry = {
                    "schema": RELATION_ENTRY_SCHEMA,
                    "hash": content_hash,
                    "relation": {
                        "name": relation.name,
                        "attributes": list(relation.attribute_names),
                        "rows": [list(row) for row in relation.iter_rows()],
                    },
                }
                try:
                    text = json.dumps(entry, sort_keys=True, ensure_ascii=False, allow_nan=False)
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"relation {relation.name!r} holds values that are not "
                        f"JSON-native and cannot be persisted: {exc}"
                    ) from exc
                atomic_write_text(path, text, before_replace=self._fire_write)
                with self._lock:
                    self._counters["writes"] += 1
        self._remember(content_hash, relation)
        return content_hash

    def get(self, content_hash: str) -> Relation:
        """The relation addressed by ``content_hash``.

        Raises :class:`KeyError` for an unknown hash and
        :class:`IntegrityError` for an entry that fails verification (the
        entry is quarantined first).  Cache hits return the same
        :class:`Relation` object every time, keeping identity-keyed kernel
        caches warm across callers.
        """
        if not is_relation_hash(content_hash):
            raise KeyError(content_hash)
        with self._lock:
            self._counters["gets"] += 1
            relation = self._cache.get(content_hash)
            if relation is not None:
                self._cache.move_to_end(content_hash)
                self._counters["cache_hits"] += 1
                return relation
        if not self.persistent:
            raise KeyError(content_hash)
        if self.faults is not None:
            self.faults.fire(SITE_REGISTRY_READ)
        relation = self._read_verified(content_hash)
        return self._remember(content_hash, relation)

    def __contains__(self, content_hash: object) -> bool:
        if not is_relation_hash(content_hash):
            return False
        with self._lock:
            if content_hash in self._cache:
                return True
        return self.persistent and self._object_path(str(content_hash)).exists()

    def hashes(self) -> list[str]:
        """Every content hash currently addressable, sorted."""
        with self._lock:
            known = set(self._cache)
        if self.persistent:
            for path in self._objects_dir.glob("*.json"):
                stem = path.name[: -len(".json")]
                if is_relation_hash(stem):
                    known.add(stem)
        return sorted(known)

    def verify(self, content_hash: str) -> bool:
        """Re-verify an entry against the disk, bypassing the LRU.

        ``True`` when the stored bytes still hash to ``content_hash``;
        raises like :meth:`get` otherwise.  In-memory registries only check
        membership (their entries cannot rot).
        """
        if not self.persistent:
            with self._lock:
                if content_hash not in self._cache:
                    raise KeyError(content_hash)
            return True
        self._read_verified(content_hash)
        return True

    # -- internals -------------------------------------------------------------
    def _fire_write(self) -> None:
        # The commit point of an atomic write: a ``registry.write`` kill rule
        # here SIGKILLs the process with the tmp file durable but the rename
        # not yet performed — the deterministic torn-write simulation.
        if self.faults is not None:
            self.faults.fire(SITE_REGISTRY_WRITE, on_kill=_kill_self)

    def _read_verified(self, content_hash: str) -> Relation:
        path = self._object_path(content_hash)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise KeyError(content_hash) from None
        except UnicodeDecodeError as exc:
            quarantined = self._quarantine(path)
            raise IntegrityError(
                f"registry entry {content_hash} is corrupt (not UTF-8: {exc}); "
                f"moved to quarantine",
                content_hash=content_hash,
                path=str(path),
                quarantined=quarantined,
            ) from exc
        except OSError as exc:
            raise IntegrityError(
                f"registry entry {content_hash} is unreadable: {exc}",
                content_hash=content_hash,
                path=str(path),
            ) from exc
        with self._lock:
            self._counters["disk_reads"] += 1
        try:
            entry = json.loads(text)
            if not isinstance(entry, dict):
                raise ValueError("entry is not a JSON object")
            if entry.get("schema") != RELATION_ENTRY_SCHEMA:
                raise ValueError(f"unexpected entry schema {entry.get('schema')!r}")
            if entry.get("hash") != content_hash:
                raise ValueError("embedded hash does not match the entry's address")
            payload = entry["relation"]
            relation = Relation(payload["name"], tuple(payload["attributes"]), payload["rows"])
        except (ValueError, KeyError, TypeError, RelationError) as exc:
            # json.JSONDecodeError is a ValueError: truncated and bit-flipped
            # entries land here unless the flip kept the JSON well-formed —
            # then the hash check below catches it.
            quarantined = self._quarantine(path)
            raise IntegrityError(
                f"registry entry {content_hash} is corrupt ({exc}); "
                f"moved to quarantine",
                content_hash=content_hash,
                path=str(path),
                quarantined=quarantined,
            ) from exc
        actual = relation.content_hash()
        if actual != content_hash:
            quarantined = self._quarantine(path)
            raise IntegrityError(
                f"registry entry {content_hash} failed verification "
                f"(stored bytes hash to {actual}); moved to quarantine",
                content_hash=content_hash,
                path=str(path),
                quarantined=quarantined,
            )
        return relation

    def _quarantine(self, path: Path) -> str | None:
        target = self._quarantine_dir / f"{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}"
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - a concurrent reader already moved it
            return None
        with self._lock:
            self._counters["quarantined"] += 1
        self._prune_quarantine(keep=target)
        return str(target)

    def _prune_quarantine(self, keep: "Path | None" = None) -> int:
        """Trim ``quarantine/`` to the byte cap, oldest files first.

        ``keep`` protects the just-quarantined file — the evidence of the
        *current* failure must survive its own pruning sweep even when it
        alone exceeds the cap.  Returns how many files were removed.
        """
        if not self._max_quarantine_bytes:
            return 0
        entries = []
        for path in self._quarantine_dir.iterdir():
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - raced with another pruner
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _mtime, size, _path in entries)
        removed = 0
        for _mtime, size, path in sorted(entries):
            if total <= self._max_quarantine_bytes:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - raced with another pruner
                continue
            total -= size
            removed += 1
        if removed:
            with self._lock:
                self._counters["quarantine_pruned"] += removed
        return removed

    def _remember(self, content_hash: str, relation: Relation) -> Relation:
        with self._lock:
            existing = self._cache.get(content_hash)
            if existing is not None:
                self._cache.move_to_end(content_hash)
                return existing
            self._cache[content_hash] = relation
            while len(self._cache) > self._max_cached:
                self._cache.popitem(last=False)
        return relation

    # -- recovery and diagnostics ----------------------------------------------
    def recover(self) -> dict[str, int]:
        """Scan ``objects/`` and rebuild a consistent state after a crash.

        Removes tmp leftovers (partial writes killed before their rename),
        quarantines files that are neither entries nor tmp files, and counts
        the surviving hash-named entries.  Runs automatically when a
        disk-backed registry is constructed; the report is kept on
        ``last_recovery`` and surfaced through :meth:`stats`.
        """
        report = {"entries": 0, "partial_writes_removed": 0, "foreign_files_quarantined": 0}
        for path in sorted(self._objects_dir.iterdir()):
            name = path.name
            if name.endswith(".tmp"):
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - raced by a writer
                    continue
                report["partial_writes_removed"] += 1
            elif (
                name.endswith(".json")
                and is_relation_hash(name[: -len(".json")])
                and path.is_file()
            ):
                report["entries"] += 1
            elif self._quarantine(path) is not None:
                report["foreign_files_quarantined"] += 1
        return report

    def stats(self) -> dict[str, Any]:
        """Store counters, cache occupancy, backend and last recovery report."""
        with self._lock:
            payload: dict[str, Any] = {
                **self._counters,
                "cached": len(self._cache),
                "persistent": self.persistent,
            }
        if self.root is not None:
            payload["root"] = str(self.root)
            files = bytes_used = 0
            for path in self._quarantine_dir.iterdir():
                try:
                    bytes_used += path.stat().st_size
                except OSError:  # pragma: no cover - raced with a pruner
                    continue
                files += 1
            payload["quarantine"] = {
                "files": files,
                "bytes": bytes_used,
                "max_bytes": self._max_quarantine_bytes,
            }
        if self.last_recovery is not None:
            payload["recovery"] = dict(self.last_recovery)
        return payload

    def __repr__(self) -> str:
        backend = f"root={str(self.root)!r}" if self.persistent else "in-memory"
        return f"RelationRegistry({backend}, cached={len(self._cache)})"
