"""``repro.registry`` — content-addressed relation storage and provenance.

The data-plane counterpart of the serving layer's fault tolerance: relations
are addressed by a canonical columnar content hash
(:func:`relation_content_hash`, exposed as
:meth:`~repro.relational.relation.Relation.content_hash`), stored in a
crash-safe :class:`RelationRegistry` as columnar objects
(:mod:`repro.registry.objects`: dictionaries plus int64 code blocks — the
one stored form of a relation) with atomic writes, read-time integrity
verification with quarantine and a startup recovery scan, and every
:class:`~repro.session.RunResult` is stamped with a provenance block that
:func:`verify_provenance` can re-check end-to-end::

    from repro import Relation, RelationRegistry, Session, verify_provenance

    registry = RelationRegistry("./relations")      # or None for in-memory
    relation = Relation("r", ("a", "b"), [(1, 2), (1, 3)])
    content_hash = registry.put(relation)

    result = Session().discover(registry.get(content_hash))
    verify_provenance(result, registry)             # raises if the chain broke

Over the wire, ``PUT /relations`` stores a relation once and ``job-request-v1``
payloads may then reference it via the additive ``relation_ref`` field (see
``docs/PROTOCOL.md``); the server resolves references through its registry
and each process worker through its own reader of the same directory, so
kernel caches stay warm across jobs and tenants.
"""

from .hashing import (
    HASH_HEX_LENGTH,
    catalog_content_hash,
    is_relation_hash,
    relation_content_hash,
)
from .provenance import (
    PROVENANCE_EXECUTORS,
    PROVENANCE_KEYS,
    ProvenanceError,
    build_provenance,
    verify_provenance,
)
from .store import (
    RELATION_ENTRY_SCHEMA,
    SITE_REGISTRY_READ,
    SITE_REGISTRY_WRITE,
    IntegrityError,
    RelationRegistry,
    atomic_write_text,
)

__all__ = [
    "HASH_HEX_LENGTH",
    "IntegrityError",
    "PROVENANCE_EXECUTORS",
    "PROVENANCE_KEYS",
    "ProvenanceError",
    "RELATION_ENTRY_SCHEMA",
    "RelationRegistry",
    "SITE_REGISTRY_READ",
    "SITE_REGISTRY_WRITE",
    "atomic_write_text",
    "build_provenance",
    "catalog_content_hash",
    "is_relation_hash",
    "relation_content_hash",
    "verify_provenance",
]
