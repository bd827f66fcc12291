"""The parent-owned shared-memory segment manager.

A :class:`SharedRelationPlane` publishes registry-resident relations as
``/dev/shm`` segments (one per content hash) and leases them to in-flight
jobs.  Ownership is strictly parental:

* **publish** is idempotent by content hash — the first publish encodes and
  writes the segment, every later one just refreshes its LRU position;
* **acquire/release** bracket each job execution attempt that was told the
  segment name, so eviction never unlinks a segment a job is about to
  attach (POSIX keeps already-mapped segments valid after unlink, so the
  refcount protects the *attach-by-name* window, not the mapped memory);
* an **LRU byte budget** (``REPRO_SHM_BYTES``) evicts idle segments —
  refcount zero, least recently used first — before a new publish;
* **close** unlinks everything immediately (drain-time attaches simply fall
  back to the wire), and **cleanup_orphans** sweeps segments left behind by
  crashed parents at startup, identified by the dead owner pid embedded in
  the segment name (``repro_{pid}_{hash16}``).

Fault-injection sites (literals duplicated from :mod:`repro.serve.faults`
so this package never imports the serving layer): ``shm.attach`` fires on
every lease decision — a raising rule forces that job onto the wire path —
and ``shm.evict`` fires per eviction victim — a raising rule aborts the
sweep (the budget overrun is retried on the next publish).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .segment import SegmentFormatError, encode_segment, write_segment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..relational.relation import Relation
    from ..serve.faults import FaultPlan

#: Fault-injection site names (duplicated from ``repro.serve.faults``).
SITE_SHM_ATTACH = "shm.attach"
SITE_SHM_EVICT = "shm.evict"

#: Segment names look like ``repro_{owner_pid}_{hash16}`` — the prefix is
#: what the CI leak check greps for, the pid is what orphan cleanup parses.
SEGMENT_NAME_PREFIX = "repro"

#: Where POSIX shared memory appears as files (Linux); orphan cleanup is a
#: no-op on hosts without it.
_SHM_DIR = "/dev/shm"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign-user process
        return True
    except OSError:  # pragma: no cover - conservative: assume alive
        return True
    return True


def plane_available() -> bool:
    """Whether this host can run the shared-memory plane at all.

    Needs ``multiprocessing.shared_memory`` (absent on some minimal
    platforms); without it the wire path is used instead.
    """
    try:
        import multiprocessing.shared_memory  # noqa: F401
    except ImportError:
        return False
    return True


class _Segment:
    __slots__ = ("name", "content_hash", "size", "shm", "refcount")

    def __init__(self, name: str, content_hash: str, size: int, shm) -> None:
        self.name = name
        self.content_hash = content_hash
        self.size = size
        self.shm = shm
        self.refcount = 0


class SharedRelationPlane:
    """Parent-side segment manager: publish, lease, evict, unlink.

    Thread-safe (the job queue's worker threads acquire/release
    concurrently); fault hooks fire outside the lock so ``delay`` rules
    never serialise the plane.
    """

    def __init__(self, budget_bytes: int, faults: "FaultPlan | None" = None) -> None:
        if budget_bytes < 1:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        self._budget = budget_bytes
        self._faults = faults
        self._lock = threading.Lock()
        self._segments: "OrderedDict[str, _Segment]" = OrderedDict()
        self._bytes = 0
        self._closed = False
        self._counters = {
            "published": 0,
            "publish_declined": 0,
            "leases": 0,
            "lease_misses": 0,
            "attach_faults": 0,
            "evictions": 0,
            "evict_faults": 0,
            "orphans_removed": 0,
        }
        # Startup sweep: a crashed previous run (SIGKILL, OOM) cannot have
        # unlinked its segments; reclaim them before publishing new ones.
        self._counters["orphans_removed"] = len(self.cleanup_orphans())

    # -- lifecycle -------------------------------------------------------------
    @classmethod
    def cleanup_orphans(cls) -> "list[str]":
        """Unlink segments whose owner process is gone; returns their names.

        POSIX shared memory survives process death — a SIGKILLed server
        leaks its segments until *something* removes them.  Every plane
        sweeps at construction: ``repro_{pid}_{hash16}`` entries under
        ``/dev/shm`` whose pid no longer runs are unlinked directly (on
        tmpfs, ``shm_unlink`` is a plain file unlink — no attach needed).
        """
        removed: list[str] = []
        base = Path(_SHM_DIR)
        if not base.is_dir():  # pragma: no cover - non-Linux host
            return removed
        for path in base.glob(SEGMENT_NAME_PREFIX + "_*"):
            parts = path.name.split("_")
            if len(parts) != 3 or not parts[1].isdigit():
                continue
            pid = int(parts[1])
            if pid == os.getpid() or _pid_alive(pid):
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - raced with another sweeper
                continue
            removed.append(path.name)
        return removed

    def close(self) -> None:
        """Unlink every segment now.

        Safe while jobs are draining: workers that already mapped a segment
        keep valid views (POSIX), and a worker that loses the attach-by-name
        race falls back to the wire path of its payload.
        """
        with self._lock:
            self._closed = True
            segments = list(self._segments.values())
            self._segments.clear()
            self._bytes = 0
        for segment in segments:
            self._destroy(segment)

    @staticmethod
    def _destroy(segment: _Segment) -> None:
        try:
            segment.shm.close()
        except BufferError:  # pragma: no cover - parent holds no views
            pass
        try:
            segment.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - raced with cleanup
            pass

    # -- publish ---------------------------------------------------------------
    def publish(self, relation: "Relation") -> "str | None":
        """Materialise ``relation`` as a segment; returns its content hash.

        Idempotent per content hash.  Returns ``None`` when the plane
        declines: closed, the relation is not segment-representable
        (non-scalar values), it exceeds the whole budget, or eviction could
        not free enough bytes (everything resident is leased or an
        ``shm.evict`` fault aborted the sweep).  Declining is never an
        error — the job travels the wire instead.
        """
        content_hash = relation.content_hash()
        with self._lock:
            if self._closed:
                return None
            existing = self._segments.get(content_hash)
            if existing is not None:
                self._segments.move_to_end(content_hash)
                return content_hash
        try:
            header_bytes, arrays, total = encode_segment(relation)
        except SegmentFormatError:
            with self._lock:
                self._counters["publish_declined"] += 1
            return None
        if total > self._budget:
            with self._lock:
                self._counters["publish_declined"] += 1
            return None
        if not self._evict_to(self._budget - total):
            with self._lock:
                self._counters["publish_declined"] += 1
            return None
        from multiprocessing.shared_memory import SharedMemory

        name = f"{SEGMENT_NAME_PREFIX}_{os.getpid()}_{content_hash[:16]}"
        with self._lock:
            if self._closed:
                return None
            existing = self._segments.get(content_hash)
            if existing is not None:  # pragma: no cover - publish race
                self._segments.move_to_end(content_hash)
                return content_hash
            try:
                shm = SharedMemory(name=name, create=True, size=total)
            except FileExistsError:
                # A previous plane of this very process published the same
                # content and was closed without unlinking (crash-restart in
                # one interpreter, e.g. tests): reclaim the stale name.
                Path(_SHM_DIR, name).unlink(missing_ok=True)
                try:
                    shm = SharedMemory(name=name, create=True, size=total)
                except OSError:
                    self._counters["publish_declined"] += 1
                    return None
            except OSError:
                self._counters["publish_declined"] += 1
                return None
            write_segment(shm.buf, header_bytes, arrays, len(relation))
            self._segments[content_hash] = _Segment(name, content_hash, total, shm)
            self._bytes += total
            self._counters["published"] += 1
        return content_hash

    def _evict_to(self, target_bytes: int) -> bool:
        """Evict idle segments (LRU first) until at most ``target_bytes`` used.

        Returns whether the target was met.  The ``shm.evict`` fault fires
        per victim *outside* the lock; a raising rule re-inserts the victim
        and aborts the sweep.
        """
        while True:
            with self._lock:
                if self._bytes <= target_bytes:
                    return True
                victim = None
                for segment in self._segments.values():
                    if segment.refcount == 0:
                        victim = segment
                        break
                if victim is None:
                    return False
                del self._segments[victim.content_hash]
                self._bytes -= victim.size
            if self._faults is not None:
                try:
                    self._faults.fire(SITE_SHM_EVICT)
                except Exception:
                    with self._lock:
                        self._counters["evict_faults"] += 1
                        if not self._closed:
                            self._segments[victim.content_hash] = victim
                            self._segments.move_to_end(victim.content_hash, last=False)
                            self._bytes += victim.size
                            return False
                    self._destroy(victim)
                    return False
            self._destroy(victim)
            with self._lock:
                self._counters["evictions"] += 1

    # -- leases ----------------------------------------------------------------
    def acquire(self, content_hash: str) -> "dict[str, Any] | None":
        """Lease the segment of ``content_hash`` for one execution attempt.

        Returns the attach metadata shipped to the worker (``{"name",
        "hash"}``), or ``None`` when the segment is not resident (evicted
        since submit, or the plane closed) — the caller then uses the wire.
        The ``shm.attach`` fault fires first; a raising rule counts as an
        attach fault and the caller falls back.  Every successful acquire
        MUST be paired with exactly one :meth:`release` (the executor does
        so in a ``finally``, which is what reconciles refcounts when a
        worker dies mid-job).
        """
        if self._faults is not None:
            try:
                self._faults.fire(SITE_SHM_ATTACH)
            except Exception:
                with self._lock:
                    self._counters["attach_faults"] += 1
                return None
        with self._lock:
            segment = self._segments.get(content_hash)
            if segment is None or self._closed:
                self._counters["lease_misses"] += 1
                return None
            segment.refcount += 1
            self._segments.move_to_end(content_hash)
            self._counters["leases"] += 1
            return {"name": segment.name, "hash": content_hash}

    def release(self, content_hash: str) -> None:
        """Return a lease taken by :meth:`acquire` (idempotent past zero)."""
        with self._lock:
            segment = self._segments.get(content_hash)
            if segment is not None and segment.refcount > 0:
                segment.refcount -= 1

    # -- diagnostics -------------------------------------------------------------
    def segment_names(self) -> "list[str]":
        """The names of resident segments (test/diagnostic hook)."""
        with self._lock:
            return [segment.name for segment in self._segments.values()]

    def refcounts(self) -> "dict[str, int]":
        """Content hash -> live lease count (test/diagnostic hook)."""
        with self._lock:
            return {h: segment.refcount for h, segment in self._segments.items()}

    def stats(self) -> "dict[str, Any]":
        """The ``/stats`` block of the plane."""
        with self._lock:
            leased = sum(1 for segment in self._segments.values() if segment.refcount > 0)
            return {
                "enabled": True,
                "budget_bytes": self._budget,
                "bytes": self._bytes,
                "segments": len(self._segments),
                "leased_segments": leased,
                **self._counters,
            }
