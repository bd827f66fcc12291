"""Pluggable job execution: the worker side of the serving layer.

:class:`~repro.serve.jobs.JobQueue` owns the *queueing* semantics —
backpressure, per-tenant fairness, cancel/timeout of waiting jobs, drain on
shutdown — but delegates the actual *execution* of a claimed job to a
:class:`WorkerExecutor`.  Two executors ship:

* :class:`ThreadExecutor` (default) — runs the job's callable on the queue's
  worker thread, in-process.  This is the original behaviour: cheap, shares
  the server's :class:`~repro.serve.pool.SessionPool`, but CPU-bound jobs
  serialise on the GIL.
* :class:`ProcessExecutor` — an M:N ``multiprocessing`` worker pool: M
  queue worker threads submit to N worker processes through a shared idle
  list (any free worker serves any thread — work stealing), with optional
  recycling after ``REPRO_SERVE_MAX_JOBS_PER_WORKER`` jobs.  Each worker
  process owns its own lazily built :class:`~repro.serve.pool.SessionPool`
  (sessions are share-nothing by design), receives jobs as the existing
  ``repro/job-request-v1`` JSON payloads and replies with the canonical
  ``repro/run-result-v1`` JSON — the exact bytes a bare session would have
  produced, so served artefacts are byte-identical across executors (pinned
  by tests).  CPU-bound jobs run truly in parallel, one core per worker.

Crash recovery: a worker process that dies mid-job (OOM-kill, segfault,
``SIGKILL``) fails *that job only* — the queue thread observes the broken
pipe, marks the job ``failed`` with a diagnostic naming the dead pid and
exit code, and the executor spawns a fresh worker process for the next job.

The wire across the pipe is deliberately thin: ``("job", payload_bytes,
shm_meta)`` in — the payload JSON is encoded **once per submission** by
:class:`PreparedTask` and reused across retries, and ``shm_meta`` (when the
shared-memory plane holds the job's relation) names the segment to attach
zero-copy instead of re-parsing rows — and ``("result", json_text,
shm_status)`` out (``("error", message)`` for job-level failures).  Plain
zero-argument picklables are also accepted (``("call", fn)``), which keeps
:class:`ProcessExecutor` drivable by the queue's generic tests without
going through the session machinery.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Mapping

from .faults import (
    SITE_PROCESS_KILL,
    SITE_PROCESS_RECV,
    SITE_PROCESS_SEND,
    SITE_THREAD_RUN,
    FaultPlan,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

    from ..shm.plane import SharedRelationPlane
    from .pool import SessionPool

#: Executor kinds selectable by name (CLI ``--executor``, ``ServeConfig``).
EXECUTOR_KINDS = ("thread", "process")


class PreparedTask:
    """A job payload serialised once at submit time, reused across retries.

    The pre-pool executor re-encoded the identical ``repro/job-request-v1``
    dict on *every* retry attempt; :meth:`encoded` memoises the canonical
    JSON bytes so attempt N ships the exact buffer attempt 1 built
    (``serialisations`` counts encodes and is pinned to 1 by tests).
    ``shm_hash`` carries the content hash of the job's relation when the
    shared-memory plane holds it — each execution attempt then leases the
    segment and ships attach metadata instead of relying on the payload's
    rows.
    """

    __slots__ = ("payload", "shm_hash", "serialisations", "_encoded")

    def __init__(self, payload: Mapping[str, Any], shm_hash: "str | None" = None) -> None:
        self.payload = dict(payload)
        self.shm_hash = shm_hash
        self.serialisations = 0
        self._encoded: "bytes | None" = None

    def encoded(self) -> bytes:
        """The canonical JSON bytes of the payload (encoded at most once)."""
        if self._encoded is None:
            self.serialisations += 1
            self._encoded = json.dumps(self.payload, sort_keys=True).encode("utf-8")
        return self._encoded


class WorkerCrashed(RuntimeError):
    """A worker process died while running a job (the job is failed)."""


class RemoteJobError(RuntimeError):
    """A job raised inside a worker process.

    The message is the child-side ``"ExcType: message"`` rendering, so the
    queue records exactly the error string the thread executor would have —
    failure diagnostics are executor-independent.
    """


class RestartSupervisor:
    """Restart-budget accounting over a rolling time window.

    Every worker-process respawn is :meth:`record`\\ ed; the executor is
    **degraded** while more than ``budget`` respawns happened within the
    last ``window`` seconds.  Degradation is therefore self-healing: once
    the crash storm stops and the events age out of the window, the
    executor reports healthy again — no manual reset.
    """

    def __init__(self, budget: int = 5, window: float = 30.0) -> None:
        if budget < 0:
            raise ValueError(f"restart budget must be non-negative, got {budget}")
        if window <= 0:
            raise ValueError(f"restart window must be positive, got {window}")
        self.budget = budget
        self.window = window
        self._lock = threading.Lock()
        self._events: deque[float] = deque()
        self._total = 0

    def _prune_locked(self, now: float) -> None:
        while self._events and self._events[0] <= now - self.window:
            self._events.popleft()

    def record(self) -> None:
        """Count one respawn at the current time."""
        now = time.monotonic()
        with self._lock:
            self._events.append(now)
            self._total += 1
            self._prune_locked(now)

    def respawns_in_window(self) -> int:
        """Respawns still inside the rolling window."""
        with self._lock:
            self._prune_locked(time.monotonic())
            return len(self._events)

    def degraded(self) -> bool:
        """Whether the respawn budget is currently exceeded."""
        return self.respawns_in_window() > self.budget

    def snapshot(self) -> dict[str, Any]:
        """The supervisor's state for health/stats payloads."""
        in_window = self.respawns_in_window()
        with self._lock:
            total = self._total
        return {
            "restart_budget": self.budget,
            "restart_window_s": self.window,
            "respawns_in_window": in_window,
            "respawns_total": total,
            "degraded": in_window > self.budget,
        }


class WorkerExecutor:
    """Interface between the job queue's worker threads and job execution.

    ``execute(slot, task)`` is called by queue worker thread ``slot`` (one
    slot per thread, so per-slot state needs no locking against other
    ``execute`` calls).  ``remote`` tells the :class:`~repro.serve.server.Server`
    what task to enqueue: inline executors receive a prepared zero-argument
    callable closing over the server's session pool; remote executors
    receive the job's ``repro/job-request-v1`` payload instead.
    """

    #: Executor kind name (reported in queue/server stats).
    name = "abstract"

    #: Whether jobs must be handed over as JSON payloads (``True``) or as
    #: in-process callables (``False``).
    remote = False

    #: Optional :class:`~repro.serve.faults.FaultPlan` driving the
    #: executor's injection sites (``None`` = disabled, zero overhead).
    faults: "FaultPlan | None" = None

    def start(self, workers: int) -> None:
        """Allocate ``workers`` execution slots (called once by the queue)."""
        raise NotImplementedError

    def execute(self, slot: int, task: Any) -> Any:
        """Run ``task`` on slot ``slot`` and return its result (may raise)."""
        raise NotImplementedError

    def kill_slot(self, slot: int) -> bool:
        """Forcibly reclaim the worker behind ``slot`` (deadline watchdog).

        Returns ``True`` when a worker was actually killed.  The default is
        a no-op: thread-backed slots cannot be preempted — the queue's
        watchdog then relies on cooperative completion (the overrunning
        job's result is discarded once it returns).
        """
        return False

    def close(self, timeout: float | None = 10.0) -> None:
        """Release execution resources; idempotent."""
        raise NotImplementedError

    def stats(self) -> dict[str, Any]:
        """Executor kind plus whatever bookkeeping the executor keeps."""
        return {"executor": self.name}


class ThreadExecutor(WorkerExecutor):
    """The in-process executor: jobs are callables run on the queue thread.

    This is exactly the pre-executor behaviour of the serving layer — the
    job's closure runs under the GIL against the server's shared
    :class:`~repro.serve.pool.SessionPool`.
    """

    name = "thread"
    remote = False

    def __init__(self, faults: "FaultPlan | None" = None) -> None:
        self.faults = faults

    def start(self, workers: int) -> None:
        self._workers = workers

    def execute(self, slot: int, task: Any) -> Any:
        if not callable(task):
            raise TypeError(f"the thread executor runs callables, got {type(task).__name__}")
        faults = self.faults
        if faults is not None:
            faults.fire(SITE_THREAD_RUN)
        return task()

    def close(self, timeout: float | None = 10.0) -> None:
        pass

    def stats(self) -> dict[str, Any]:
        return {"executor": self.name, "workers": getattr(self, "_workers", 0), "degraded": False}


# ---------------------------------------------------------------------------
# The process executor and its worker-process main loop.
# ---------------------------------------------------------------------------


def _process_worker_main(
    conn: "Connection",
    tenant_configs_payload: dict | None,
    registry_root: str | None = None,
) -> None:
    """Main loop of one worker process.

    Owns a lazily built :class:`SessionPool` configured exactly like the
    parent's (the per-tenant ``EngineConfig`` mapping travels as its JSON
    form), executes ``("job", payload, shm_meta)`` messages through the
    same :func:`~repro.serve.protocol.execute_payload` path a bare session
    uses, and replies with the canonical ``repro/run-result-v1`` JSON text
    plus how the relation arrived (``"shm"``/``"fallback"``/``"wire"``).
    The payload travels as pre-encoded JSON bytes; ``shm_meta`` (when
    present) names a shared-memory segment to attach zero-copy — *any*
    attach failure (segment evicted, corrupt header) falls back
    to resolving the payload itself, so shm is purely an optimisation.
    ``registry_root`` (the server's persistent relation registry directory)
    lets workers resolve ``relation_ref`` jobs themselves — each worker's
    registry keeps its own verified-relation cache, so a tenant hammering
    one relation decodes it once per worker, not once per job.
    Job-level exceptions become ``("error", "ExcType: message")`` replies;
    only a dead pipe (parent gone) or ``("exit",)`` ends the loop.
    """
    # Imports happen here (not at module import) so the parent can ship this
    # function to a spawn-context child before the repro package is touched.
    from ..config import EngineConfig
    from ..registry.store import RelationRegistry
    from .pool import SessionPool
    from .protocol import execute_payload

    pool: SessionPool | None = None
    registry: RelationRegistry | None = None
    attach_cache = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op = message[0]
        if op == "exit":
            break
        try:
            if op == "ping":
                conn.send(("value", "pong"))
                continue
            if op == "job":
                payload = message[1]
                if isinstance(payload, (bytes, bytearray)):
                    payload = json.loads(payload)
                shm_meta = message[2] if len(message) > 2 else None
                relation = None
                shm_status = "wire"
                if shm_meta is not None:
                    try:
                        if attach_cache is None:
                            from ..shm.relation import SegmentAttachCache

                            attach_cache = SegmentAttachCache()
                        relation = attach_cache.get(shm_meta["name"], shm_meta["hash"])
                        shm_status = "shm"
                    except Exception:  # noqa: BLE001 - any miss means wire
                        relation = None
                        shm_status = "fallback"
                if pool is None:
                    configs = None
                    if tenant_configs_payload is not None:
                        configs = {
                            tenant: EngineConfig.from_dict(fields)
                            for tenant, fields in tenant_configs_payload.items()
                        }
                    pool = SessionPool(configs)
                if registry is None and registry_root is not None:
                    registry = RelationRegistry(registry_root)
                result = execute_payload(pool, payload, registry=registry, relation=relation)
                conn.send(("result", json.dumps(result.payload, sort_keys=True), shm_status))
            elif op == "call":
                conn.send(("value", message[1]()))
            else:
                conn.send(("error", f"ProtocolError: unknown worker op {op!r}"))
        except Exception as exc:  # noqa: BLE001 - job errors become replies
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except (OSError, ValueError):  # parent gone / unpicklable detail
                break
    if attach_cache is not None:
        attach_cache.close()


class _ProcessSlot:
    """One worker process, its pipe, and the lock serialising access to it.

    A slot is driven by at most one queue worker thread at a time (the
    dispatch idle-list hands each slot out exclusively); the lock exists so
    :meth:`ProcessExecutor.close` can safely interleave with a thread that
    is still mid-``execute`` past the drain deadline.  ``jobs_done`` counts
    completed jobs since the current worker process spawned — the recycling
    trigger.
    """

    __slots__ = ("process", "conn", "lock", "busy", "jobs_done")

    def __init__(self) -> None:
        self.process = None
        self.conn = None
        self.lock = threading.Lock()
        self.busy = False
        self.jobs_done = 0


class ProcessExecutor(WorkerExecutor):
    """An M:N ``multiprocessing`` worker pool behind the queue's threads.

    M queue worker threads submit through a shared idle list to N worker
    processes — any free worker serves any thread, so a slow job never
    idles the other workers of "its" thread (work stealing).  With
    ``processes`` unset, N matches the queue's worker count (the pre-pool
    1:1 shape); smaller N queues submissions, larger N gives crash storms
    spare capacity.

    Parameters
    ----------
    tenant_configs_payload:
        Per-tenant engine configuration in its JSON form
        (:meth:`repro.serve.pool.SessionPool.configs_payload`); each worker
        process rebuilds its own :class:`SessionPool` from it.
    start_method:
        ``multiprocessing`` start method (``spawn``/``fork``/``forkserver``).
        ``spawn`` is the safe default — worker processes are started from a
        fresh interpreter, never from a parent mid-flight with running
        threads; ``fork`` starts faster but inherits the parent's threads'
        lock state.
    warmup:
        Start (and ping) every worker process eagerly in :meth:`start`, so
        the interpreter/import cost is paid at server boot instead of on the
        first job of each slot.  ``False`` spawns each worker lazily.
    restart_budget / restart_window:
        Crash-loop supervision: more than ``restart_budget`` respawns within
        the rolling ``restart_window`` seconds marks the executor *degraded*
        (reported by :meth:`stats`; ``/healthz`` maps it to 503).
    fallback:
        Degradation path: while degraded, run jobs **inline** in the server
        process (the same :func:`~repro.serve.protocol.execute_payload`
        dispatch a thread executor uses, so artefacts stay byte-identical)
        instead of feeding a crash-looping worker fleet.
    faults:
        Optional :class:`~repro.serve.faults.FaultPlan` wired to the
        ``process.send``/``process.recv``/``process.kill`` injection sites.
    registry_root:
        Root directory of the server's **persistent** relation registry;
        each worker process opens its own handle on it to resolve
        ``relation_ref`` jobs (``None`` = no registry, by-reference jobs
        are resolved inline by the server before dispatch).
    processes:
        Worker-process pool size N (``0`` = match the queue worker count
        handed to :meth:`start`).
    max_jobs_per_worker:
        Recycle a worker process after this many completed jobs: it is
        asked to exit and a fresh worker spawns lazily on the slot's next
        job.  Bounds per-worker memory growth (session caches, attached
        segments); a recycle is *not* a crash — it never touches the
        supervision budget or the ``respawns`` counter.  ``0`` disables.
    plane:
        The parent-owned :class:`~repro.shm.plane.SharedRelationPlane`, or
        ``None`` to disable the shared-memory path.  The executor leases a
        segment per execution attempt of every :class:`PreparedTask` that
        carries a ``shm_hash`` (releasing in ``finally`` — that is how
        refcounts reconcile when a worker dies mid-job) and closes the
        plane with itself.
    """

    name = "process"
    remote = True

    def __init__(
        self,
        tenant_configs_payload: Mapping[str, Mapping[str, Any]] | None = None,
        start_method: str = "spawn",
        warmup: bool = True,
        restart_budget: int = 5,
        restart_window: float = 30.0,
        fallback: bool = False,
        faults: "FaultPlan | None" = None,
        registry_root: str | None = None,
        processes: int = 0,
        max_jobs_per_worker: int = 0,
        plane: "SharedRelationPlane | None" = None,
    ) -> None:
        if processes < 0:
            raise ValueError(f"processes must be non-negative, got {processes}")
        if max_jobs_per_worker < 0:
            raise ValueError(
                f"max_jobs_per_worker must be non-negative, got {max_jobs_per_worker}"
            )
        self._tenant_configs_payload = (
            None
            if tenant_configs_payload is None
            else {tenant: dict(fields) for tenant, fields in tenant_configs_payload.items()}
        )
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self.registry_root = registry_root
        self.warmup = warmup
        self.faults = faults
        self.supervisor = RestartSupervisor(budget=restart_budget, window=restart_window)
        self.fallback = fallback
        self.processes = processes
        self.max_jobs_per_worker = max_jobs_per_worker
        self.plane = plane
        self._fallback_lock = threading.Lock()
        self._fallback_pool: "SessionPool | None" = None
        self._fallback_registry = None
        self._fallback_jobs = 0
        self._slots: list[_ProcessSlot] = []
        self._lifecycle = threading.Lock()
        self._closed = False
        self._spawned = 0
        self._respawns = 0
        self._recycled = 0
        self._shm_jobs = 0
        self._wire_jobs = 0
        # M:N dispatch state: the idle list holds slot indices any queue
        # thread may claim; _active maps queue slot -> worker slot while a
        # job is in flight (the watchdog's kill_slot lookup).
        self._dispatch = threading.Condition()
        self._idle: list[int] = []
        self._active: dict[int, int] = {}
        self._queue_threads = 0

    # -- lifecycle -------------------------------------------------------------
    def start(self, workers: int) -> None:
        self._queue_threads = workers
        count = self.processes or workers
        self._slots = [_ProcessSlot() for _ in range(count)]
        # LIFO free list, initialised so slot 0 is claimed first and a
        # just-released (warm) worker is reused before a cold one.
        self._idle = list(range(count - 1, -1, -1))
        if self.warmup:
            for slot in self._slots:
                self._spawn(slot)
            for slot in self._slots:
                slot.conn.send(("ping",))
                slot.conn.recv()

    def _spawn(self, slot: _ProcessSlot) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_process_worker_main,
            args=(child_conn, self._tenant_configs_payload, self.registry_root),
            name="repro-serve-process-worker",
            daemon=True,
        )
        process.start()
        child_conn.close()
        slot.process, slot.conn = process, parent_conn
        slot.jobs_done = 0
        with self._lifecycle:
            self._spawned += 1

    def _reap_and_respawn(self, slot: _ProcessSlot) -> tuple[int | None, int | None, bool]:
        """Reap a worker whose pipe failed, record its identity, start a replacement.

        The worker is usually already dead (SIGKILL, OOM, crash) and joins
        immediately.  When the *pipe* failed but the process survived (a
        dropped/truncated message), the stream is unusable either way — the
        worker is terminated so a replacement never coexists with it (no
        worker leak).  No replacement is started once the executor is
        closing (the death was most likely the shutdown ``terminate``
        itself)."""
        process = slot.process
        pid = exitcode = None
        if process is not None:
            process.join(timeout=0.25)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - terminate-resistant child
                process.kill()
                process.join(timeout=5.0)
            pid, exitcode = process.pid, process.exitcode
        if slot.conn is not None:
            slot.conn.close()
        slot.process = slot.conn = None
        with self._lifecycle:
            closed = self._closed
            if not closed:
                self._respawns += 1
        if not closed:
            self.supervisor.record()
            self._spawn(slot)
        return pid, exitcode, not closed

    # -- execution -------------------------------------------------------------
    def _acquire_worker(self, queue_slot: int) -> int:
        """Claim an idle worker slot for ``queue_slot`` (blocks while all busy).

        Raises :class:`WorkerCrashed` once the executor is closing — the
        queue classifies that like any other infra failure of a drained job.
        """
        with self._dispatch:
            while True:
                if self._closed:
                    raise WorkerCrashed(
                        "no worker available; the executor is shutting down"
                    )
                if self._idle:
                    index = self._idle.pop()
                    self._active[queue_slot] = index
                    return index
                self._dispatch.wait()

    def _release_worker(self, queue_slot: int, index: int) -> None:
        with self._dispatch:
            self._active.pop(queue_slot, None)
            self._idle.append(index)
            self._dispatch.notify()

    def _retire(self, slot: _ProcessSlot) -> None:
        """Recycle a worker that served its job quota (not a crash).

        The worker is asked to exit on its (currently exclusive) pipe and
        reaped; the slot spawns a fresh process lazily on its next job.
        Neither the supervision budget nor ``respawns`` is touched.
        """
        with slot.lock:
            process = slot.process
            if process is None:
                return
            try:
                slot.conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - exit-resistant child
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - kill-resistant child
                process.kill()
                process.join(timeout=5.0)
            if slot.conn is not None:
                slot.conn.close()
            slot.process = slot.conn = None
            slot.jobs_done = 0
        with self._lifecycle:
            self._recycled += 1

    def execute(self, slot_index: int, task: Any) -> Any:
        shm_hash = None
        if isinstance(task, PreparedTask):
            payload_bytes = task.encoded()
            shm_hash = task.shm_hash
            message: Any = ("job", payload_bytes, None)
        elif isinstance(task, Mapping):
            message = ("job", json.dumps(dict(task), sort_keys=True).encode("utf-8"), None)
        elif callable(task):
            message = ("call", task)
        else:
            raise TypeError(
                "the process executor runs job payloads or picklable "
                f"callables, got {type(task).__name__}"
            )
        if self.fallback and self.supervisor.degraded():
            return self._execute_inline(task)
        faults = self.faults
        plane = self.plane
        worker_index = self._acquire_worker(slot_index)
        slot = self._slots[worker_index]
        shm_meta = None
        try:
            # Lease the relation's segment per attempt: acquire absorbs its
            # own shm.attach faults (returning None), and the finally below
            # releases even when the worker dies mid-job — that pairing is
            # what keeps refcounts reconciled under kill storms.
            if shm_hash is not None and plane is not None:
                shm_meta = plane.acquire(shm_hash)
                if shm_meta is not None:
                    message = (message[0], message[1], shm_meta)
            with slot.lock:
                slot.busy = True
                try:
                    if slot.process is None or not slot.process.is_alive():
                        self._spawn(slot)
                    try:
                        if faults is not None:
                            # The OOM-kill simulation: SIGKILL the slot's worker
                            # right before the job is handed to it.
                            process = slot.process
                            faults.fire(
                                SITE_PROCESS_KILL,
                                on_kill=process.kill if process is not None else None,
                            )
                            faults.fire(SITE_PROCESS_SEND)
                        slot.conn.send(message)
                        if faults is not None:
                            faults.fire(SITE_PROCESS_RECV)
                        reply = slot.conn.recv()
                        kind, value = reply[0], reply[1]
                        shm_status = reply[2] if len(reply) > 2 else None
                        slot.jobs_done += 1
                    except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
                        pid, exitcode, respawned = self._reap_and_respawn(slot)
                        detail = (
                            "a fresh worker was started"
                            if respawned
                            else "the executor is shutting down"
                        )
                        raise WorkerCrashed(
                            f"worker process (pid {pid}) died while running the job "
                            f"(exit code {exitcode}); {detail}"
                        ) from exc
                finally:
                    slot.busy = False
            if (
                self.max_jobs_per_worker
                and slot.jobs_done >= self.max_jobs_per_worker
                and not self._closed
            ):
                self._retire(slot)
        finally:
            if shm_meta is not None:
                plane.release(shm_hash)
            self._release_worker(slot_index, worker_index)
        if kind == "result":
            with self._lifecycle:
                if shm_status == "shm":
                    self._shm_jobs += 1
                else:
                    self._wire_jobs += 1
            from ..session import RunResult

            return RunResult(json.loads(value))
        if kind == "value":
            return value
        raise RemoteJobError(value)

    def _execute_inline(self, task: Any) -> Any:
        """Run ``task`` in the server process — the degraded-mode fallback.

        Job payloads go through the exact :func:`execute_payload` dispatch
        the worker processes use (against a lazily built local pool with the
        same per-tenant configuration), so fallback artefacts stay
        byte-identical; callables are simply called, like a thread executor.
        """
        with self._fallback_lock:
            self._fallback_jobs += 1
            if self._fallback_pool is None:
                from ..config import EngineConfig
                from .pool import SessionPool

                configs = None
                if self._tenant_configs_payload is not None:
                    configs = {
                        tenant: EngineConfig.from_dict(fields)
                        for tenant, fields in self._tenant_configs_payload.items()
                    }
                self._fallback_pool = SessionPool(configs)
            if self._fallback_registry is None and self.registry_root is not None:
                from ..registry.store import RelationRegistry

                self._fallback_registry = RelationRegistry(self.registry_root)
            pool = self._fallback_pool
            registry = self._fallback_registry
        if isinstance(task, PreparedTask):
            from .protocol import execute_payload

            return execute_payload(pool, task.payload, registry=registry)
        if isinstance(task, Mapping):
            from .protocol import execute_payload

            return execute_payload(pool, task, registry=registry)
        return task()

    def kill_slot(self, slot_index: int) -> bool:
        """SIGKILL the worker running queue slot ``slot_index``'s job.

        The deadline watchdog's lever.  The queue thread's slot is mapped to
        its current worker through the dispatch table (M:N: any worker may
        be serving this thread); the kill itself is lock-free — the worker
        slot's lock is held by the queue thread blocked on the reply, and
        the kill is what unblocks it (its ``recv`` fails, the slot reaps and
        respawns).  The unavoidable race with a concurrent respawn at worst
        kills a fresh worker, which the infra-retry path absorbs.
        """
        with self._dispatch:
            worker_index = self._active.get(slot_index)
        if worker_index is None:
            return False
        process = self._slots[worker_index].process
        if process is None or not process.is_alive():
            return False
        process.kill()
        return True

    # -- shutdown --------------------------------------------------------------
    def close(self, timeout: float | None = 10.0) -> None:
        """Stop every worker process, waiting up to ``timeout`` in total.

        Idle workers exit on request; a worker still busy past the deadline
        is terminated (and, failing that, killed) — unlike threads, worker
        processes *can* be reclaimed, so shutdown never leaks them.
        """
        with self._lifecycle:
            self._closed = True
        with self._dispatch:
            # Wake queue threads parked on the idle list; they observe
            # _closed and fail their job as an infra error.
            self._dispatch.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            # Only ask an idle worker to exit: a busy slot's pipe belongs to
            # the queue thread mid-execute, so interleaving a message would
            # corrupt the stream — busy workers get joined, then terminated.
            if slot.lock.acquire(timeout=-1 if remaining is None else remaining):
                try:
                    if slot.process is not None and slot.process.is_alive():
                        try:
                            slot.conn.send(("exit",))
                        except (BrokenPipeError, OSError):
                            pass
                finally:
                    slot.lock.release()
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            process.join(remaining)
            if process.is_alive():
                process.terminate()
                process.join(1.0)
            if process.is_alive():  # pragma: no cover - kill-resistant child
                process.kill()
                process.join(1.0)
            # Field cleanup only under the slot lock: a busy queue thread's
            # _reap_and_respawn races us on slot.conn/slot.process (its recv
            # fails once the worker is terminated).  If the thread is still
            # wedged past the bound, it performs the cleanup itself.
            if slot.lock.acquire(timeout=1.0):
                try:
                    if slot.conn is not None:
                        slot.conn.close()
                    slot.process = slot.conn = None
                finally:
                    slot.lock.release()
        # The plane unlinks last: every worker that could attach by name is
        # gone, so nothing keeps segment names alive past close.
        if self.plane is not None:
            self.plane.close()

    # -- diagnostics -----------------------------------------------------------
    def worker_pids(self) -> list[int | None]:
        """Current pid of each slot's worker process (``None`` = not spawned)."""
        # Snapshot each slot.process once: crash recovery and close() null
        # the attribute concurrently with readers.
        processes = [slot.process for slot in self._slots]
        return [process.pid if process is not None else None for process in processes]

    def stats(self) -> dict[str, Any]:
        processes = [slot.process for slot in self._slots]
        slots = [
            {
                "pid": process.pid if process is not None else None,
                "alive": process is not None and process.is_alive(),
            }
            for process in processes
        ]
        alive = sum(1 for entry in slots if entry["alive"])
        with self._lifecycle:
            spawned, respawns = self._spawned, self._respawns
            recycled = self._recycled
            shm_jobs, wire_jobs = self._shm_jobs, self._wire_jobs
        with self._fallback_lock:
            fallback_jobs = self._fallback_jobs
        supervision = self.supervisor.snapshot()
        plane = self.plane
        return {
            "executor": self.name,
            "workers": len(self._slots),
            "queue_threads": self._queue_threads,
            "alive": alive,
            "slots": slots,
            "spawned": spawned,
            "respawns": respawns,
            "recycled": recycled,
            "max_jobs_per_worker": self.max_jobs_per_worker,
            "shm_jobs": shm_jobs,
            "wire_jobs": wire_jobs,
            "start_method": self.start_method,
            "host_cpu_count": os.cpu_count(),
            "fallback": self.fallback,
            "fallback_jobs": fallback_jobs,
            "shm": plane.stats() if plane is not None else {"enabled": False},
            **supervision,
        }


def make_executor(
    kind: str,
    tenant_configs_payload: Mapping[str, Mapping[str, Any]] | None = None,
    start_method: str = "spawn",
    warmup: bool = True,
    restart_budget: int = 5,
    restart_window: float = 30.0,
    fallback: bool = False,
    faults: "FaultPlan | None" = None,
    registry_root: str | None = None,
    processes: int = 0,
    max_jobs_per_worker: int = 0,
    shm_bytes: int = 0,
) -> WorkerExecutor:
    """Build a :class:`WorkerExecutor` from its CLI/config name.

    ``shm_bytes`` > 0 attaches a :class:`~repro.shm.plane.SharedRelationPlane`
    to the process executor when the host supports it (``/dev/shm``); on
    other hosts — and always for the thread executor, which shares the
    server's memory anyway — the flag is silently inert and jobs use the
    wire.
    """
    if kind == "thread":
        return ThreadExecutor(faults=faults)
    if kind == "process":
        plane = None
        if shm_bytes > 0:
            from ..shm.plane import SharedRelationPlane, plane_available

            if plane_available():
                plane = SharedRelationPlane(shm_bytes, faults=faults)
        return ProcessExecutor(
            tenant_configs_payload=tenant_configs_payload,
            start_method=start_method,
            warmup=warmup,
            restart_budget=restart_budget,
            restart_window=restart_window,
            fallback=fallback,
            faults=faults,
            registry_root=registry_root,
            processes=processes,
            max_jobs_per_worker=max_jobs_per_worker,
            plane=plane,
        )
    raise ValueError(f"unknown executor kind {kind!r}: expected one of {EXECUTOR_KINDS}")
