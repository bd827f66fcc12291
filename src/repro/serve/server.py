"""The serving front door: programmatic :class:`Server` + HTTP endpoint.

:class:`Server` ties a :class:`~repro.serve.pool.SessionPool` to a
:class:`~repro.serve.jobs.JobQueue`: submissions are validated eagerly
(malformed payloads never enter the queue), executed on the tenant's pooled
session by a worker thread, and polled as ``repro/job-status-v1`` payloads
whose ``result`` field is the untouched ``repro/run-result-v1`` JSON.

:class:`HttpFrontend` exposes the same four operations over a blocking
stdlib ``http.server`` endpoint (one thread per connection; the real
concurrency bound is the job queue's worker pool):

====== =================== ==========================================
POST   ``/jobs``           submit a job request → 202 ticket, 429 full
                           (with a ``Retry-After`` hint)
GET    ``/jobs/<id>``      poll → 200 status payload, 404 unknown
DELETE ``/jobs/<id>``      cancel a queued job → 200 ``{"cancelled": ...}``
PUT    ``/relations``      store a relation by content → 200 ref payload
GET    ``/relations/<h>``  fetch a stored relation → 200 entry, 404 unknown
GET    ``/healthz``        executor liveness → 200 healthy, 503 degraded
GET    ``/stats``          queue + pool + executor + registry counters
====== =================== ==========================================
"""

from __future__ import annotations

import dataclasses
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping

from ..config import ConfigError, ServeConfig
from ..registry.store import RELATION_ENTRY_SCHEMA, IntegrityError, RelationRegistry
from ..relational.relation import Relation
from ..session import RunResult
from .executor import PreparedTask, WorkerExecutor, make_executor
from .faults import FaultPlan
from .jobs import DONE, Job, JobQueue, QueueClosed, QueueFull
from .pool import SessionPool
from .protocol import (
    JOB_STATUS_SCHEMA,
    RELATION_REF_SCHEMA,
    JobRequest,
    JobTicket,
    ProtocolError,
    execute_request,
    relation_from_payload,
    relation_to_payload,
)

#: The :class:`~repro.config.ServeConfig` fields: a :class:`Server` takes each
#: as a parameter of the same name (``registry`` for ``registry_dir``) and
#: resolves the ones left as ``None`` from the environment.
_SERVE_FIELDS = tuple(field.name for field in dataclasses.fields(ServeConfig))


class Server:
    """The programmatic multi-tenant serving API.

    Parameters mirror the ``python -m repro serve`` flags: ``workers`` and
    ``max_queue`` size the :class:`JobQueue`, ``max_sessions`` sizes the
    :class:`SessionPool`, ``max_inflight_per_tenant`` caps per-tenant
    concurrency and ``default_timeout`` bounds queue waits.

    ``executor`` selects where jobs run: ``"thread"`` (in-process worker
    threads on the shared pool), ``"process"`` (one worker process per
    worker, each with its own pool — CPU-bound jobs scale with cores), a
    ready-made :class:`~repro.serve.executor.WorkerExecutor`, or ``None``
    to resolve the :class:`~repro.config.ServeConfig` environment defaults
    (``REPRO_SERVE_EXECUTOR`` etc.).  Served artefacts are byte-identical
    across executors (pinned by tests).  ``workers``/``warmup``/
    ``start_method`` and the fault-tolerance knobs left as ``None`` resolve
    from the environment likewise.

    Fault tolerance: ``max_attempts`` retries *infra* failures (killed
    workers, broken pipes) with capped exponential backoff — application
    failures never retry; ``restart_budget``/``restart_window`` bound
    process-worker respawns before the executor reports itself degraded
    (``degraded_fallback=True`` then runs jobs inline instead);
    ``drain_deadline`` bounds :meth:`close`; ``faults`` (a spec string or a
    ready :class:`~repro.serve.faults.FaultPlan`) arms deterministic fault
    injection for chaos testing.

    Process-pool shape: ``processes`` sizes the worker-process pool
    independently of the queue's thread count (``0``/``None`` = match it)
    and ``max_jobs_per_worker`` recycles each worker process after that many
    jobs.  Both resolve from ``REPRO_SERVE_PROCESSES``/
    ``REPRO_SERVE_MAX_JOBS_PER_WORKER`` when ``None`` and are inert for
    thread executors.

    ``registry`` wires the content-addressed relation store behind
    ``PUT /relations`` and ``relation_ref`` jobs: a directory path (or a
    ready :class:`~repro.registry.RelationRegistry`) makes it persistent —
    process workers then read, verify and cache the relation objects
    themselves, and a by-reference job carries only its hash — while
    ``None`` resolves ``REPRO_REGISTRY_DIR`` and falls back to an in-memory
    store (refs still work; the server resolves them inline before
    dispatching to remote executors).

    Usable as a context manager; :meth:`close` cancels queued jobs, waits
    for running ones (terminating process workers that overrun the drain
    deadline) and closes every pooled session.
    """

    def __init__(
        self,
        workers: int | None = None,
        max_queue: int = 64,
        max_inflight_per_tenant: int = 1,
        default_timeout: float | None = None,
        max_sessions: int = 64,
        executor: "str | WorkerExecutor | None" = None,
        warmup: bool | None = None,
        start_method: str | None = None,
        max_attempts: int | None = None,
        restart_budget: int | None = None,
        restart_window: float | None = None,
        degraded_fallback: bool | None = None,
        drain_deadline: float | None = None,
        faults: "str | FaultPlan | None" = None,
        registry: "str | RelationRegistry | None" = None,
        processes: int | None = None,
        max_jobs_per_worker: int | None = None,
    ) -> None:
        arguments = locals()
        settings = {name: arguments.get(name) for name in _SERVE_FIELDS}
        # ``registry`` is the one parameter not named after its field; a
        # ready registry object is explicit and stands for no directory.
        settings["registry_dir"] = registry if isinstance(registry, (str, type(None))) else ""
        missing = [name for name, value in settings.items() if value is None]
        if missing:
            # Only consult the environment for parameters actually left to
            # default: a fully explicit Server must not fail on (or vary
            # with) unrelated REPRO_SERVE_* values.
            settings.update(ServeConfig.from_env_fields(missing))
        if registry is None:
            registry = settings["registry_dir"]
        faults = settings["faults"]
        # One shared plan: executor sites, queue sites and registry sites
        # count arrivals on the same seeded counters, so a storm spec
        # replays identically.
        plan = faults if isinstance(faults, FaultPlan) else FaultPlan.from_spec(faults)
        if not isinstance(registry, RelationRegistry):
            # A path string opens (or creates) the persistent store there;
            # None keeps an in-memory registry so PUT /relations and
            # relation_ref jobs work on any server, just without restart
            # survival or cross-process sharing.
            registry = RelationRegistry(registry or None, faults=plan)
        elif registry.faults is None:
            registry.faults = plan
        self.registry = registry
        self.drain_deadline = settings["drain_deadline"]
        self.pool = SessionPool(max_sessions=max_sessions)
        executor = settings["executor"]
        if isinstance(executor, str):
            executor = make_executor(
                executor,
                start_method=settings["start_method"],
                warmup=settings["warmup"],
                restart_budget=settings["restart_budget"],
                restart_window=settings["restart_window"],
                fallback=bool(settings["degraded_fallback"]),
                faults=plan,
                registry=registry,
                processes=settings["processes"] or 0,
                max_jobs_per_worker=settings["max_jobs_per_worker"] or 0,
            )
        self.executor = executor
        self.queue = JobQueue(
            workers=settings["workers"],
            max_queue=max_queue,
            max_inflight_per_tenant=max_inflight_per_tenant,
            default_timeout=default_timeout,
            executor=executor,
            max_attempts=settings["max_attempts"],
            faults=plan,
        )

    # -- the four verbs --------------------------------------------------------
    def submit(self, request: "JobRequest | Mapping[str, Any]") -> JobTicket:
        """Validate and enqueue a job; returns its ticket.

        Raises :class:`ProtocolError` on malformed payloads,
        :class:`QueueFull` under backpressure and :class:`QueueClosed`
        after :meth:`close`.  The task handed to the queue depends on the
        executor: remote executors receive the canonical
        ``repro/job-request-v1`` payload (what their worker processes
        parse), inline executors a closure over the shared session pool —
        both end in :func:`execute_request`, so artefacts are identical.
        """
        if not isinstance(request, JobRequest):
            request = JobRequest.from_payload(request)

        if request.relation_ref is not None and request.relation_ref not in self.registry:
            # Submission-time membership gate (HTTP 400): an unknown ref is
            # the client's mistake, not a job worth queueing.  A ref that
            # later turns out corrupt/vanished still fails as *infra*.
            raise ProtocolError(
                f"unknown relation_ref {request.relation_ref!r}: "
                f"PUT the relation to /relations first"
            )

        if self.executor.remote:
            payload: dict[str, Any] = request.to_payload()
            if request.relation_ref is not None and not self.registry.persistent:
                # Worker processes cannot see an in-memory registry; ship the
                # resolved relation inline instead (refs stay a pure
                # client-side optimisation either way).
                relation = self.registry.get(payload.pop("relation_ref"))
                payload["relation"] = relation_to_payload(relation)
            # Serialised once here; every retry attempt reuses the bytes.
            task: Any = PreparedTask(payload)
        else:

            def run(request: JobRequest = request) -> RunResult:
                session = self.pool.get(request.tenant)
                if request.relation_ref is None:
                    # Keep the historical 2-arg call for inline requests —
                    # it needs no registry and stays patchable in tests.
                    return execute_request(session, request)
                return execute_request(session, request, registry=self.registry)

            task = run

        job = self.queue.submit(
            request.tenant, task, kind=request.kind, deadline_ms=request.deadline_ms
        )
        return JobTicket(job_id=job.job_id, tenant=job.tenant, status=job.status)

    def status(self, job_id: str) -> dict[str, Any]:
        """The ``repro/job-status-v1`` payload of a job (KeyError when unknown)."""
        return _job_payload(self.queue.get(job_id))

    def result(self, job_id: str, timeout: float | None = None) -> RunResult:
        """Block until the job is terminal and return its :class:`RunResult`.

        Raises :class:`TimeoutError` if the wait times out and
        :class:`RuntimeError` for ``failed``/``cancelled`` jobs.
        """
        job = self.queue.get(job_id)
        if not job.wait(timeout):
            raise TimeoutError(f"job {job_id} still {job.status} after {timeout:.3f}s")
        if job.status != DONE:
            raise RuntimeError(f"job {job_id} {job.status}: {job.error}")
        return job.result

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; ``False`` when it already started or finished."""
        return self.queue.cancel(job_id)

    # -- the relation registry -------------------------------------------------
    def put_relation(self, relation: "Mapping[str, Any] | Any") -> dict[str, Any]:
        """Store a relation by content; returns the ``repro/relation-ref-v1`` ack.

        Accepts a :class:`~repro.relational.relation.Relation` or its inline
        wire form.  Idempotent: re-PUTting the same content returns the same
        hash with ``"created": false``.  ``created`` comes from the store
        write itself, so a relation whose stored object was quarantined (by
        this process or by a worker process) is written again and answers
        ``"created": true``.  An inline relation is stored in its columnar
        form (codes and dictionaries, no row tuples): the registry keeps up
        to its LRU bound of them for the server's lifetime.
        """
        if not isinstance(relation, Relation):
            relation = relation_from_payload(relation).columnar()
        content_hash, created = self.registry.store(relation)
        return {"schema": RELATION_REF_SCHEMA, "hash": content_hash, "created": created}

    def get_relation(self, content_hash: str) -> dict[str, Any]:
        """The verified ``repro/relation-v1`` entry for ``content_hash``.

        Raises :class:`KeyError` when unknown (HTTP 404) and
        :class:`~repro.registry.IntegrityError` when the stored entry failed
        verification and was quarantined (HTTP 500).
        """
        relation = self.registry.get(content_hash)
        return {
            "schema": RELATION_ENTRY_SCHEMA,
            "hash": content_hash,
            "relation": relation_to_payload(relation),
        }

    # -- bookkeeping -----------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Queue, pool, executor and registry counters (what ``GET /stats`` returns)."""
        return {
            "queue": self.queue.stats(),
            "pool": self.pool.stats(),
            "executor": self.executor.stats(),
            "registry": self.registry.stats(),
        }

    def health(self) -> dict[str, Any]:
        """The ``GET /healthz`` payload: real executor liveness.

        ``status`` is ``"ok"`` or ``"degraded"`` (the respawn budget was
        exhausted inside its rolling window — the HTTP surface maps this to
        503); ``executor`` carries the live worker table (pids/alive flags
        for process workers), respawn counts and the supervisor snapshot.
        """
        executor = self.executor.stats()
        degraded = bool(executor.get("degraded", False))
        return {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "executor": executor,
        }

    def close(self) -> None:
        """Drain the queue (bounded by ``drain_deadline``) and close every
        pooled session."""
        self.queue.close(timeout=self.drain_deadline)
        self.pool.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _job_payload(job: Job) -> dict[str, Any]:
    """The wire form of one job's current state."""
    payload: dict[str, Any] = {
        "schema": JOB_STATUS_SCHEMA,
        "job_id": job.job_id,
        "tenant": job.tenant,
        "kind": job.kind,
        "status": job.status,
        "submitted_at": job.submitted_at,
        "started_at": job.started_at,
        "finished_at": job.finished_at,
        "error": job.error,
        "attempts": job.attempts,
        "failure_class": job.failure_class,
        "deadline_ms": job.deadline_ms,
        "result": None,
    }
    if job.status == DONE and isinstance(job.result, RunResult):
        payload["result"] = job.result.payload
    return payload


#: Sentinel distinguishing "body already rejected" from a legal JSON ``null``.
_BODY_ERROR = object()


class _ServeHandler(BaseHTTPRequestHandler):
    """Routes the HTTP surface onto the owning :class:`Server`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    #: Upper bound on accepted request bodies (inline relations are rows of
    #: JSON scalars; 64 MiB is far beyond any benchmark relation).
    max_body_bytes = 64 * 1024 * 1024

    @property
    def app(self) -> Server:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover - CLI only
            super().log_message(format, *args)

    def _send_json(
        self,
        code: int,
        payload: Mapping[str, Any],
        close: bool = False,
        retry_after: int | None = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        if close:
            # Early-exit errors that leave the request body unread must drop
            # the connection: on HTTP/1.1 keep-alive the unread bytes would
            # otherwise be parsed as the next request line.  (The header also
            # flips self.close_connection inside http.server.)
            self.send_header("Connection", "close")
        # One write for the whole response.  ``end_headers`` would flush the
        # headers on their own, and on a keep-alive connection the body's
        # second small segment then waits for the client's delayed ACK
        # (Nagle), ~40 ms per request.  HTTP/0.9 responses carry no headers.
        if self.request_version != "HTTP/0.9":
            self._headers_buffer.append(b"\r\n")
            body = b"".join(self._headers_buffer) + body
            self._headers_buffer = []
        self.wfile.write(body)

    def _error(
        self, code: int, message: str, close: bool = False, retry_after: int | None = None
    ) -> None:
        payload: dict[str, Any] = {"error": message}
        if retry_after is not None:
            payload["retry_after"] = retry_after
        self._send_json(code, payload, close=close, retry_after=retry_after)

    def _job_id(self) -> str | None:
        parts = self.path.rstrip("/").split("/")
        if len(parts) == 3 and parts[0] == "" and parts[1] == "jobs" and parts[2]:
            return parts[2]
        return None

    def _relation_hash(self) -> str | None:
        parts = self.path.rstrip("/").split("/")
        if len(parts) == 3 and parts[0] == "" and parts[1] == "relations" and parts[2]:
            return parts[2]
        return None

    def _read_json_body(self) -> Any:
        """The request's JSON body, or :data:`_BODY_ERROR` after an error response."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._error(400, "invalid Content-Length", close=True)
            return _BODY_ERROR
        if length <= 0 or length > self.max_body_bytes:
            self._error(400, f"request body must be 1..{self.max_body_bytes} bytes", close=True)
            return _BODY_ERROR
        try:
            return json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return _BODY_ERROR

    # -- verbs ----------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path.rstrip("/") != "/jobs":
            self._error(404, f"unknown path {self.path!r}", close=True)
            return
        payload = self._read_json_body()
        if payload is _BODY_ERROR:
            return
        try:
            ticket = self.app.submit(payload)
        except (ProtocolError, ConfigError) as exc:
            self._error(400, str(exc))
        except QueueFull as exc:
            # Retry-After is the queue's own depth-derived hint: how many
            # seconds of backlog each worker would need to clear a slot.
            self._error(429, str(exc), retry_after=exc.retry_after)
        except QueueClosed as exc:
            self._error(503, str(exc))
        else:
            self._send_json(202, ticket.to_payload())

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        if self.path.rstrip("/") != "/relations":
            self._error(404, f"unknown path {self.path!r}", close=True)
            return
        payload = self._read_json_body()
        if payload is _BODY_ERROR:
            return
        try:
            ack = self.app.put_relation(payload)
        except ValueError as exc:
            # A malformed relation (ProtocolError is a ValueError), or values
            # that are not JSON-native scalars and cannot be stored.
            self._error(400, str(exc))
        except OSError as exc:
            # The store write failed: a disk error, or an injected
            # registry.write fault (InjectedFault is a ConnectionError).  The
            # body was read, so the connection stays usable.
            self._error(503, f"relation store write failed: {type(exc).__name__}: {exc}")
        else:
            self._send_json(200, ack)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.rstrip("/") or "/"
        if path == "/healthz":
            payload = self.app.health()
            self._send_json(503 if payload["degraded"] else 200, payload)
            return
        if path == "/stats":
            self._send_json(200, self.app.stats())
            return
        content_hash = self._relation_hash()
        if content_hash is not None:
            try:
                payload = self.app.get_relation(content_hash)
            except KeyError:
                self._error(404, f"unknown relation {content_hash!r}")
            except IntegrityError as exc:
                # The stored entry failed verification: it is quarantined
                # and gone; the client must re-PUT the relation.
                self._error(500, str(exc))
            else:
                self._send_json(200, payload)
            return
        job_id = self._job_id()
        if job_id is None:
            self._error(404, f"unknown path {self.path!r}")
            return
        try:
            payload = self.app.status(job_id)
        except KeyError:
            self._error(404, f"unknown job {job_id!r}")
        else:
            self._send_json(200, payload)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        job_id = self._job_id()
        if job_id is None:
            self._error(404, f"unknown path {self.path!r}")
            return
        try:
            cancelled = self.app.cancel(job_id)
        except KeyError:
            self._error(404, f"unknown job {job_id!r}")
        else:
            self._send_json(200, {"job_id": job_id, "cancelled": cancelled})


class HttpFrontend:
    """A blocking stdlib HTTP endpoint over a :class:`Server`.

    ``port=0`` binds an ephemeral port (see :attr:`address`).  Use
    :meth:`serve_forever` to block (the CLI), or :meth:`start`/:meth:`stop`
    to run on a background thread (tests, embedding).  Stopping the frontend
    does **not** close the underlying :class:`Server`.
    """

    def __init__(
        self,
        app: Server,
        host: str = "127.0.0.1",
        port: int = 8750,
        verbose: bool = False,
    ) -> None:
        self.app = app
        self._httpd = ThreadingHTTPServer((host, port), _ServeHandler)
        self._httpd.app = app  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (the resolved port when 0 was requested)."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def serve_forever(self) -> None:
        """Serve until :meth:`stop` (or ``shutdown()``) is called — blocking."""
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "HttpFrontend":
        """Serve on a daemon background thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("frontend already started")
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent).

        ``shutdown()`` blocks until ``serve_forever`` acknowledges, so it is
        only issued when the background thread is live; a frontend whose
        ``serve_forever`` already returned (e.g. the CLI after Ctrl-C) just
        closes the socket.
        """
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=10.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "HttpFrontend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
