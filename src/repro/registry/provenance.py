"""Provenance stamping and verification of run results.

Every :class:`~repro.session.RunResult` carries a ``provenance`` block —
``{relation_hash, config_fingerprint, code_version, executor}`` — naming
exactly which data (by content hash), which engine configuration (by
fingerprint), which code version and which execution path produced the
artefacts.  :func:`verify_provenance` re-checks that chain after the fact:
the block's internal consistency always, and, given a registry, that the
named relation still exists and still verifies against its hash.

The block lives next to ``engine`` in the payload and, like ``engine``, is
excluded from :meth:`~repro.session.RunResult.artifact_fingerprint` — two
byte-identical artefact sets produced on different executors share a
fingerprint while their provenance records the difference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from .._version import __version__
from ..config import config_fingerprint
from .hashing import is_relation_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import RelationRegistry

#: The required keys of a provenance block.
PROVENANCE_KEYS = ("code_version", "config_fingerprint", "executor", "relation_hash")

#: Execution paths a result can be stamped with: ``inline`` (a bare session
#: call, and the build-time default), ``thread``/``process`` (stamped by the
#: serving layer's job queue with its executor's name).
PROVENANCE_EXECUTORS = ("inline", "thread", "process")


class ProvenanceError(ValueError):
    """Raised when a result's provenance chain fails verification."""


def build_provenance(
    relation_hash: str | None,
    config_fingerprint: str,
    executor: str = "inline",
) -> dict[str, Any]:
    """A fresh provenance block (``relation_hash=None`` = subject unhashed)."""
    if relation_hash is not None and not is_relation_hash(relation_hash):
        raise ProvenanceError(f"not a relation content hash: {relation_hash!r}")
    if executor not in PROVENANCE_EXECUTORS:
        raise ProvenanceError(
            f"unknown executor {executor!r}: expected one of {PROVENANCE_EXECUTORS}"
        )
    return {
        "code_version": __version__,
        "config_fingerprint": config_fingerprint,
        "executor": executor,
        "relation_hash": relation_hash,
    }


def verify_provenance(
    result: "Any", registry: "RelationRegistry | None" = None
) -> dict[str, Any]:
    """Re-check a result's provenance chain; returns a verification report.

    ``result`` is a :class:`~repro.session.RunResult` or a raw
    ``repro/run-result-v1`` payload.  Always verified: the block is present
    and complete, the executor is known, and the configuration fingerprint
    agrees with **both** the recorded ``engine.config_fingerprint`` and a
    re-hash of the recorded ``engine.config`` mapping (a tampered config
    cannot keep its fingerprint).  With a ``registry``, additionally: the
    stamped ``relation_hash`` resolves (an unknown hash raises
    :class:`ProvenanceError`; a corrupt entry propagates the store's
    :class:`~repro.registry.store.IntegrityError`), the stored relation
    re-hashes to its address, and its name matches the result's subject for
    single-relation kinds.

    The report carries the verified fields plus
    ``code_version_matches_current`` (informational — replaying an artefact
    from an older code version is legitimate) and ``relation_verified``.
    """
    payload = getattr(result, "payload", result)
    if not isinstance(payload, Mapping):
        raise ProvenanceError(
            f"expected a RunResult or result payload, got {type(result).__name__}"
        )
    block = payload.get("provenance")
    if not isinstance(block, Mapping):
        raise ProvenanceError("result carries no provenance block")
    missing = [key for key in PROVENANCE_KEYS if key not in block]
    if missing:
        raise ProvenanceError(f"provenance block is missing {missing}")
    executor = block["executor"]
    if executor not in PROVENANCE_EXECUTORS:
        raise ProvenanceError(
            f"unknown executor {executor!r}: expected one of {PROVENANCE_EXECUTORS}"
        )
    code_version = block["code_version"]
    if not isinstance(code_version, str) or not code_version:
        raise ProvenanceError(f"invalid code_version {code_version!r}")

    engine = payload.get("engine")
    if not isinstance(engine, Mapping):
        raise ProvenanceError("result carries no engine block to verify against")
    fingerprint = block["config_fingerprint"]
    recorded = engine.get("config_fingerprint")
    config = engine.get("config")
    if not isinstance(config, Mapping):
        raise ProvenanceError("result carries no engine.config mapping to re-hash")
    # Re-hash the recorded mapping as-is rather than re-parsing it: a result
    # saved under an older set of engine-configuration fields must still verify.
    recomputed = config_fingerprint(config)
    if fingerprint != recorded or fingerprint != recomputed:
        raise ProvenanceError(
            f"config fingerprint mismatch: provenance says {fingerprint!r}, "
            f"engine block says {recorded!r}, recomputed {recomputed!r}"
        )

    relation_hash = block["relation_hash"]
    if relation_hash is not None and not is_relation_hash(relation_hash):
        raise ProvenanceError(f"not a relation content hash: {relation_hash!r}")
    relation_verified = False
    if registry is not None:
        if relation_hash is None:
            raise ProvenanceError(
                "result carries no relation hash to check against the registry"
            )
        try:
            relation = registry.get(relation_hash)
        except KeyError:
            raise ProvenanceError(
                f"relation {relation_hash} is not in the registry"
            ) from None
        if relation.content_hash() != relation_hash:  # pragma: no cover - get() verifies
            raise ProvenanceError(f"registry returned wrong bytes for {relation_hash}")
        if payload.get("kind") in ("discover", "validate", "profile"):
            subject = payload.get("subject")
            if relation.name != subject:
                raise ProvenanceError(
                    f"relation {relation_hash} is named {relation.name!r} but the "
                    f"result's subject is {subject!r}"
                )
        relation_verified = True
    return {
        "code_version": code_version,
        "code_version_matches_current": code_version == __version__,
        "config_fingerprint": fingerprint,
        "executor": executor,
        "relation_hash": relation_hash,
        "relation_verified": relation_verified,
    }
