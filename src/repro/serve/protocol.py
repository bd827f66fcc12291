"""The JSON wire protocol of the serving layer.

One request format in, one ticket format out, and results ride on the
:class:`~repro.session.RunResult` payload that already round-trips
byte-identically — the serving layer adds no serialisation of its own for
artefacts, so a result fetched over the wire is the exact canonical JSON a
bare session would have saved.

Schemas
-------
``repro/job-request-v1``
    ``{"schema", "tenant", "kind", "relation", "params", "overrides"}`` —
    ``kind`` is one of :data:`REQUEST_KINDS`; ``relation`` is the inline
    relation payload (``{"name", "attributes", "rows"}``); ``params`` are
    the verb's keyword arguments; ``overrides`` is retired: it may be
    absent or ``{}``, and anything else is refused (the engine has no
    settings to override).  An optional ``deadline_ms`` (positive
    integer) bounds the job end-to-end — queue wait plus execution — and
    an overrun yields the ``deadline_exceeded`` terminal status.  Instead
    of the inline ``relation``, a request may carry ``relation_ref`` — the
    content hash of a relation previously stored via ``PUT /relations``
    (exactly one of the two; both additive-v1 semantics are normative in
    ``docs/PROTOCOL.md``).
``repro/relation-ref-v1``
    The ``PUT /relations`` acknowledgement: ``{"schema", "hash",
    "created"}``.
``repro/job-ticket-v1``
    The submission acknowledgement: ``{"schema", "job_id", "tenant",
    "status"}``.
``repro/job-status-v1``
    The poll response: ticket fields plus ``kind``, timestamps, ``error``
    (``failed``/``cancelled`` jobs) and ``result`` (the full
    ``repro/run-result-v1`` payload once the job is ``done``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from ..registry.hashing import is_relation_hash
from ..registry.store import IntegrityError
from ..relational.relation import Relation, RelationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..registry.store import RelationRegistry
    from ..session import RunResult, Session
    from .pool import SessionPool

#: Schema tag of a job submission.
JOB_REQUEST_SCHEMA = "repro/job-request-v1"

#: Schema tag of a submission acknowledgement.
JOB_TICKET_SCHEMA = "repro/job-ticket-v1"

#: Schema tag of a job poll response.
JOB_STATUS_SCHEMA = "repro/job-status-v1"

#: Schema tag of a ``PUT /relations`` acknowledgement.
RELATION_REF_SCHEMA = "repro/relation-ref-v1"

#: The session verbs exposed over the wire.  (``infine`` needs a catalog and
#: a view specification on the wire and is not served yet.)
REQUEST_KINDS = ("discover", "validate", "profile")

#: Allowed ``params`` keys per request kind (mirroring the session verbs).
_PARAM_KEYS = {
    "discover": frozenset({"algorithm", "attributes", "max_lhs_size"}),
    "validate": frozenset({"fds", "with_errors"}),
    "profile": frozenset({"threshold", "max_lhs", "attributes"}),
}


class ProtocolError(ValueError):
    """Raised for malformed wire payloads (maps to HTTP 400)."""


def relation_to_payload(relation: Relation) -> dict[str, Any]:
    """The inline wire form of ``relation`` (values must be JSON-native)."""
    return {
        "name": relation.name,
        "attributes": list(relation.attribute_names),
        "rows": [list(row) for row in relation.iter_rows()],
    }


def relation_from_payload(payload: Mapping[str, Any]) -> Relation:
    """Build a :class:`Relation` from its inline wire form."""
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"relation must be a mapping, got {type(payload).__name__}")
    name = payload.get("name")
    attributes = payload.get("attributes")
    rows = payload.get("rows", [])
    if not isinstance(name, str) or not name:
        raise ProtocolError("relation.name must be a non-empty string")
    if not isinstance(attributes, (list, tuple)):
        raise ProtocolError("relation.attributes must be a list of strings")
    if not all(isinstance(a, str) for a in attributes):
        raise ProtocolError("relation.attributes must be a list of strings")
    if not isinstance(rows, (list, tuple)):
        raise ProtocolError("relation.rows must be a list of rows")
    try:
        return Relation(name, tuple(attributes), rows)
    except (RelationError, TypeError) as exc:
        raise ProtocolError(f"invalid relation payload: {exc}") from exc


def _require_mapping(value: Any, what: str) -> dict[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ProtocolError(f"{what} must be a mapping, got {type(value).__name__}")
    return dict(value)


def _check_attribute_list(value: Any, what: str) -> None:
    if value is None:
        return
    if not isinstance(value, (list, tuple)):
        raise ProtocolError(f"{what} must be a list of attribute names or null")
    if not all(isinstance(a, str) for a in value):
        raise ProtocolError(f"{what} must contain only strings")


def _check_fd_item(item: Any) -> None:
    if isinstance(item, str):
        return
    if isinstance(item, (list, tuple)) and len(item) == 2:
        lhs, rhs = item
        if isinstance(rhs, str) and isinstance(lhs, (list, tuple, str)):
            return
    raise ProtocolError(
        f'params.fds items must be "a,b -> c" strings or [lhs_list, rhs] pairs, got {item!r}'
    )


def _check_params(kind: str, params: Mapping[str, Any]) -> None:
    """Shape/type validation of ``params`` — the submit-time (HTTP 400) gate.

    Value *types* are checked here so malformed requests never reach a
    worker; *semantic* errors (an unknown algorithm name, attributes missing
    from the relation) still surface as ``failed`` jobs.
    """
    if kind == "validate":
        fds = params.get("fds")
        if not isinstance(fds, (list, tuple)):
            raise ProtocolError("params.fds must be a list of FDs")
        for item in fds:
            _check_fd_item(item)
    if kind in ("discover", "profile"):
        _check_attribute_list(params.get("attributes"), "params.attributes")
    if kind == "discover":
        algorithm = params.get("algorithm", "tane")
        if not isinstance(algorithm, str):
            raise ProtocolError("params.algorithm must be a string")
        max_lhs_size = params.get("max_lhs_size")
        if max_lhs_size is not None and not isinstance(max_lhs_size, int):
            raise ProtocolError("params.max_lhs_size must be an integer or null")
    if kind == "profile":
        threshold = params.get("threshold", 0.05)
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
            raise ProtocolError("params.threshold must be a number")
        max_lhs = params.get("max_lhs", 2)
        if isinstance(max_lhs, bool) or not isinstance(max_lhs, int):
            raise ProtocolError("params.max_lhs must be an integer")


@dataclass(frozen=True)
class JobRequest:
    """One unit of work a tenant submits to the serving layer."""

    tenant: str
    kind: str
    relation: Relation | None = None
    params: dict[str, Any] = field(default_factory=dict)
    deadline_ms: int | None = None
    relation_ref: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.tenant, str) or not self.tenant:
            raise ProtocolError("tenant must be a non-empty string")
        if self.relation is None and self.relation_ref is None:
            raise ProtocolError("job request must carry relation or relation_ref")
        if self.relation is not None and self.relation_ref is not None:
            raise ProtocolError("job request must carry relation or relation_ref, not both")
        if self.relation_ref is not None and not is_relation_hash(self.relation_ref):
            raise ProtocolError(
                f"relation_ref must be a 64-char lowercase hex content hash, "
                f"got {self.relation_ref!r}"
            )
        if self.deadline_ms is not None:
            if isinstance(self.deadline_ms, bool) or not isinstance(self.deadline_ms, int):
                raise ProtocolError("deadline_ms must be a positive integer or null")
            if self.deadline_ms < 1:
                raise ProtocolError(f"deadline_ms must be at least 1, got {self.deadline_ms}")
        if self.kind not in REQUEST_KINDS:
            raise ProtocolError(
                f"unknown request kind {self.kind!r}: expected one of {REQUEST_KINDS}"
            )
        allowed = _PARAM_KEYS[self.kind]
        unknown = set(self.params) - allowed
        if unknown:
            raise ProtocolError(
                f"unknown params for kind {self.kind!r}: {sorted(unknown)} "
                f"(allowed: {sorted(allowed)})"
            )
        if self.kind == "validate" and "fds" not in self.params:
            raise ProtocolError("validate requests must carry params.fds")
        _check_params(self.kind, self.params)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "JobRequest":
        """Parse and validate a ``repro/job-request-v1`` payload."""
        if not isinstance(payload, Mapping):
            raise ProtocolError(f"job request must be a mapping, got {type(payload).__name__}")
        schema = payload.get("schema")
        if schema != JOB_REQUEST_SCHEMA:
            raise ProtocolError(
                f"not a job request payload (schema={schema!r}, expected {JOB_REQUEST_SCHEMA!r})"
            )
        known = {
            "schema",
            "tenant",
            "kind",
            "relation",
            "relation_ref",
            "params",
            "overrides",
            "deadline_ms",
        }
        unknown = set(payload) - known
        if unknown:
            raise ProtocolError(f"unknown job request fields: {sorted(unknown)}")
        if payload.get("overrides", {}) != {}:
            raise ProtocolError(
                "engine overrides are retired: the engine has no settings, "
                "so overrides must be absent or {}"
            )
        relation_payload = payload.get("relation")
        relation_ref = payload.get("relation_ref")
        if relation_payload is not None and relation_ref is not None:
            raise ProtocolError("job request must carry relation or relation_ref, not both")
        if relation_ref is not None and not isinstance(relation_ref, str):
            raise ProtocolError("relation_ref must be a string content hash")
        relation = None if relation_payload is None else relation_from_payload(relation_payload)
        return cls(
            tenant=payload.get("tenant", ""),
            kind=payload.get("kind", ""),
            relation=relation,
            params=_require_mapping(payload.get("params"), "params"),
            deadline_ms=payload.get("deadline_ms"),
            relation_ref=relation_ref,
        )

    def to_payload(self) -> dict[str, Any]:
        """The canonical ``repro/job-request-v1`` payload of this request."""
        payload: dict[str, Any] = {
            "schema": JOB_REQUEST_SCHEMA,
            "tenant": self.tenant,
            "kind": self.kind,
        }
        if self.relation is not None:
            payload["relation"] = relation_to_payload(self.relation)
        else:
            # Additive v1 field (see deadline_ms below): a by-reference
            # request ships the 64-char content hash instead of the rows.
            payload["relation_ref"] = self.relation_ref
        payload["params"] = dict(self.params)
        # Retired, but still emitted empty so request payloads keep their bytes.
        payload["overrides"] = {}
        if self.deadline_ms is not None:
            # Additive v1 field: omitted when unset so payloads from callers
            # that never set a deadline are byte-identical to pre-deadline ones.
            payload["deadline_ms"] = self.deadline_ms
        return payload


@dataclass(frozen=True)
class JobTicket:
    """The acknowledgement returned by :meth:`repro.serve.Server.submit`."""

    job_id: str
    tenant: str
    status: str

    def to_payload(self) -> dict[str, Any]:
        """The canonical ``repro/job-ticket-v1`` payload of this ticket."""
        return {
            "schema": JOB_TICKET_SCHEMA,
            "job_id": self.job_id,
            "tenant": self.tenant,
            "status": self.status,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "JobTicket":
        """Parse a ``repro/job-ticket-v1`` payload."""
        if not isinstance(payload, Mapping) or payload.get("schema") != JOB_TICKET_SCHEMA:
            raise ProtocolError("not a job ticket payload")
        return cls(
            job_id=payload["job_id"],
            tenant=payload["tenant"],
            status=payload["status"],
        )


def resolve_relation(request: JobRequest, registry: "RelationRegistry | None") -> Relation:
    """The concrete relation of ``request`` — inline, or fetched by hash.

    A ``relation_ref`` with no registry is a deployment/protocol error; a
    ref the registry no longer holds is a store inconsistency (submission
    verified membership), surfaced as :class:`~repro.registry.IntegrityError`
    so the queue classifies it as an *infra* failure and retries.
    """
    if request.relation is not None:
        return request.relation
    ref = request.relation_ref
    assert ref is not None  # enforced by JobRequest.__post_init__
    if registry is None:
        raise ProtocolError("job request carries relation_ref but no relation registry is wired")
    try:
        return registry.get(ref)
    except KeyError as exc:
        raise IntegrityError(
            f"relation {ref} vanished from the registry between submission and execution",
            content_hash=ref,
        ) from exc


def execute_request(
    session: "Session",
    request: JobRequest,
    registry: "RelationRegistry | None" = None,
) -> "RunResult":
    """Run ``request`` on ``session`` — the worker-side dispatch.

    This is *exactly* what a bare session call would do: the serving layer
    adds queuing and tenancy around it but never touches the artefacts, so
    results are byte-identical to a direct :meth:`Session.discover`/
    :meth:`~repro.session.Session.validate`/
    :meth:`~repro.session.Session.profile` call with the same inputs.
    By-reference requests resolve through ``registry`` first (a cache hit
    returns the *same* :class:`Relation` object, so engine caches keyed on
    relation identity stay warm across jobs).
    """
    relation = resolve_relation(request, registry)
    params = request.params
    if request.kind == "discover":
        return session.discover(
            relation,
            algorithm=params.get("algorithm", "tane"),
            attributes=params.get("attributes"),
            max_lhs_size=params.get("max_lhs_size"),
        )
    if request.kind == "validate":
        fds = [item if isinstance(item, str) else tuple(item) for item in params["fds"]]
        return session.validate(
            relation,
            fds,
            with_errors=bool(params.get("with_errors", True)),
        )
    if request.kind == "profile":
        return session.profile(
            relation,
            threshold=params.get("threshold", 0.05),
            max_lhs=params.get("max_lhs", 2),
            attributes=params.get("attributes"),
        )
    raise ProtocolError(f"unknown request kind {request.kind!r}")  # pragma: no cover


def execute_payload(
    pool: "SessionPool",
    payload: Mapping[str, Any],
    registry: "RelationRegistry | None" = None,
) -> "RunResult":
    """Parse a ``repro/job-request-v1`` payload and run it on the tenant's session.

    The single worker-side entry point shared by every executor that
    receives jobs in wire form (the process executor's worker processes):
    parse → pooled session → :func:`execute_request`.  Going through the
    identical dispatch as the in-process path is what keeps served
    artefacts byte-identical no matter where the job ran.
    """
    request = JobRequest.from_payload(payload)
    return execute_request(pool.get(request.tenant), request, registry=registry)
