"""Multi-tenant serving layer over :class:`repro.Session`.

Sessions are isolation primitives — relation-scoped caches, private
counters, byte-identical JSON artefacts — but single-process and synchronous.  This package puts the
engine behind a concurrent front door:

* :class:`~repro.serve.pool.SessionPool` — one lazily created
  :class:`~repro.session.Session` per tenant key (each with its own
  caches and counters), LRU-capped;
  eviction only drops caches, so it is always safe.
* :class:`~repro.serve.jobs.JobQueue` — a bounded thread-pool queue with
  explicit job states (``queued``/``running``/``done``/``failed``/
  ``cancelled``), backpressure (:class:`~repro.serve.jobs.QueueFull` once
  ``max_queue`` jobs wait), per-tenant fairness (a cap on in-flight jobs per
  tenant) and queue-wait timeouts.
* :mod:`~repro.serve.protocol` — the JSON wire format:
  :class:`~repro.serve.protocol.JobRequest` in,
  :class:`~repro.serve.protocol.JobTicket` out, results as the existing
  :class:`~repro.session.RunResult` payloads (already canonical JSON).
* :mod:`~repro.serve.executor` — pluggable job execution behind the queue:
  :class:`~repro.serve.executor.ThreadExecutor` (in-process, the default)
  and :class:`~repro.serve.executor.ProcessExecutor` (a ``multiprocessing``
  worker pool — one worker process per worker, each with its own lazily
  built :class:`SessionPool`; CPU-bound jobs scale with cores and served
  artefacts stay byte-identical across executors).
* :class:`~repro.serve.server.Server` — the programmatic API tying pool,
  queue, executor and the content-addressed relation registry
  (:class:`~repro.registry.RelationRegistry`) together — and
  :class:`~repro.serve.server.HttpFrontend`, a blocking stdlib
  ``http.server`` endpoint (``POST /jobs``, ``GET /jobs/<id>``,
  ``DELETE /jobs/<id>``, ``PUT /relations``, ``GET /relations/<hash>``,
  ``GET /healthz``, ``GET /stats``).  Jobs may reference a stored relation
  by content hash (``relation_ref``) instead of shipping rows inline —
  byte-identical results, a fraction of the payload.  With a persistent
  registry a by-reference job carries only the hash: each process worker
  reads the relation object from the registry directory, verifies its
  content hash and keeps it in a small LRU.
* :mod:`~repro.serve.faults` — deterministic fault injection
  (:class:`~repro.serve.faults.FaultPlan`): seeded worker kills, delays,
  pipe drops and transient errors at named sites, the substrate of the
  chaos test suite and zero-overhead when disabled.

The stack is fault tolerant: infra failures (killed workers, broken pipes)
retry with capped exponential backoff + deterministic jitter up to
``max_attempts``; an optional per-job ``deadline_ms`` covers queue wait and
execution (overruns become ``deadline_exceeded``); a restart-budget
supervisor marks a crash-looping process executor *degraded* (503 on
``/healthz``, optional inline fallback); ``close()`` drains within a
configurable deadline.

``python -m repro serve`` starts the HTTP endpoint from the command line
(see :mod:`repro.serve.cli`).
"""

from .executor import (
    EXECUTOR_KINDS,
    PreparedTask,
    ProcessExecutor,
    RemoteJobError,
    RestartSupervisor,
    ThreadExecutor,
    WorkerCrashed,
    WorkerExecutor,
    make_executor,
)
from .faults import FaultPlan, FaultRule, FaultSpecError, InjectedFault
from .jobs import (
    CANCELLED,
    DEADLINE_EXCEEDED,
    DONE,
    FAILED,
    FAILURE_APPLICATION,
    FAILURE_INFRA,
    JOB_STATES,
    QUEUED,
    RUNNING,
    Job,
    JobQueue,
    QueueClosed,
    QueueFull,
    classify_failure,
    retry_backoff,
)
from .pool import SessionPool
from .protocol import (
    JOB_REQUEST_SCHEMA,
    JOB_STATUS_SCHEMA,
    JOB_TICKET_SCHEMA,
    RELATION_REF_SCHEMA,
    REQUEST_KINDS,
    JobRequest,
    JobTicket,
    ProtocolError,
    execute_payload,
    execute_request,
    relation_from_payload,
    relation_to_payload,
)
from .server import HttpFrontend, Server

__all__ = [
    "CANCELLED",
    "DEADLINE_EXCEEDED",
    "DONE",
    "EXECUTOR_KINDS",
    "FAILED",
    "FAILURE_APPLICATION",
    "FAILURE_INFRA",
    "JOB_REQUEST_SCHEMA",
    "JOB_STATES",
    "JOB_STATUS_SCHEMA",
    "JOB_TICKET_SCHEMA",
    "QUEUED",
    "RELATION_REF_SCHEMA",
    "REQUEST_KINDS",
    "RUNNING",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "HttpFrontend",
    "InjectedFault",
    "Job",
    "JobQueue",
    "JobRequest",
    "JobTicket",
    "PreparedTask",
    "ProcessExecutor",
    "ProtocolError",
    "QueueClosed",
    "QueueFull",
    "RemoteJobError",
    "RestartSupervisor",
    "Server",
    "SessionPool",
    "ThreadExecutor",
    "WorkerCrashed",
    "WorkerExecutor",
    "classify_failure",
    "execute_payload",
    "execute_request",
    "make_executor",
    "relation_to_payload",
    "relation_from_payload",
    "retry_backoff",
]
