"""Tenant-keyed session pooling.

One :class:`~repro.session.Session` per tenant, created lazily on first use
and capped LRU-style.  Sessions are exactly the isolation primitive the
engine API built: each owns its relation-scoped kernel caches and
:class:`~repro.relational.backend.KernelCounters`, so two tenants sharing
one pool still share *nothing* of the engine state.

Eviction is always safe: :meth:`Session.close` only drops caches (every
cache is semantics-preserving and rebuilt on demand), and partitions hold
no session state, so an evicted tenant's in-flight work finishes
correctly — it merely recomputes what the dropped caches held.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable

from ..session import Session


class SessionPool:
    """Lazily creates and LRU-caps one :class:`Session` per tenant key.

    Parameters
    ----------
    max_sessions:
        Cap on concurrently pooled sessions.  Beyond it the least recently
        *used* tenant's session is closed and dropped; the tenant transparently
        receives a fresh session (with fresh counters) on its next job.
    """

    def __init__(self, max_sessions: int = 64) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be at least 1, got {max_sessions}")
        self.max_sessions = max_sessions
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        self._lock = threading.Lock()
        self._created = 0
        self._evicted = 0
        self._hits = 0

    def get(self, tenant: str) -> Session:
        """The tenant's pooled session (created on first use, LRU-refreshed)."""
        if not isinstance(tenant, str) or not tenant:
            raise ValueError(f"tenant must be a non-empty string, got {tenant!r}")
        with self._lock:
            session = self._sessions.get(tenant)
            if session is not None:
                self._hits += 1
                self._sessions.move_to_end(tenant)
                return session
            session = Session()
            self._sessions[tenant] = session
            self._created += 1
            while len(self._sessions) > self.max_sessions:
                _, evicted = self._sessions.popitem(last=False)
                evicted.close()
                self._evicted += 1
            return session

    def peek(self, tenant: str) -> Session | None:
        """The tenant's pooled session without creating or LRU-refreshing it."""
        with self._lock:
            return self._sessions.get(tenant)

    def evict(self, tenant: str) -> bool:
        """Close and drop the tenant's session; ``False`` if none was pooled."""
        with self._lock:
            session = self._sessions.pop(tenant, None)
        if session is None:
            return False
        session.close()
        self._evicted += 1
        return True

    def close(self) -> None:
        """Close every pooled session and empty the pool (pool stays usable)."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()

    def tenants(self) -> Iterable[str]:
        """The currently pooled tenant keys, least recently used first."""
        with self._lock:
            return tuple(self._sessions)

    def stats(self) -> dict[str, int]:
        """Creation/eviction/hit counters plus the current pool size."""
        with self._lock:
            return {
                "sessions": len(self._sessions),
                "max_sessions": self.max_sessions,
                "created": self._created,
                "evicted": self._evicted,
                "hits": self._hits,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __repr__(self) -> str:
        return f"SessionPool(sessions={len(self)}, max_sessions={self.max_sessions})"
