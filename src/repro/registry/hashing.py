"""Canonical content hashing of relations — the registry's addressing scheme.

A relation's **content hash** is a sha256 computed column by column from the
same dense dictionary encoding every partition primitive already runs on
(:meth:`repro.relational.relation.Relation.column_codes`):

* one **leaf digest per column** over a canonical header (attribute name,
  code count), the raw ``array('q')`` code stream rendered little-endian,
  and the column's dictionary — its distinct values in first-appearance
  order, length-prefixed canonical JSON each.  The codes alone would make
  ``[1, 2]`` and ``["a", "b"]`` collide; folding the dictionary in makes the
  leaf a function of the actual values.
* the **relation hash** folds the leaves merkle-style: sha256 over a
  canonical relation header (name, attribute order, row count) followed by
  the column digests in schema order.

The encoding is pure Python — code assignment in first-appearance order is
part of the kernel's contract — so the same relation hashes identically
across executors and across processes.  Hashing is representation-level:
row order and duplicate rows are part of the identity (two bag-equal
relations with different row orders address different registry entries,
matching how results depend on the instance actually submitted).
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..relational.relation import Relation

#: Length of a relation content hash (sha256 hexdigest).
HASH_HEX_LENGTH = 64

#: Version tag folded into every digest so a future scheme change can never
#: alias an old address.
_HASH_VERSION = 1

_HEX_DIGITS = frozenset("0123456789abcdef")


def is_relation_hash(value: Any) -> bool:
    """Whether ``value`` is syntactically a relation content hash."""
    return (
        isinstance(value, str)
        and len(value) == HASH_HEX_LENGTH
        and set(value) <= _HEX_DIGITS
    )


#: One shared encoder: ``json.dumps`` with non-default arguments would build
#: a new one per call.  ``default=repr`` keeps hashing total over exotic
#: in-memory values (persistence separately requires JSON-native values; see
#: the store).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False, default=repr)


def _canonical_json_bytes(value: Any) -> bytes:
    return _ENCODER.encode(value).encode("utf-8")


def _code_bytes(codes: array) -> bytes:
    if sys.byteorder == "big":  # pragma: no cover - no big-endian CI host
        swapped = array("q", codes)
        swapped.byteswap()
        return swapped.tobytes()
    return codes.tobytes()


def column_digest(relation: "Relation", attribute: str) -> bytes:
    """The sha256 leaf of one column: header + code stream + dictionary."""
    codes, n_codes = relation.column_codes(attribute)
    digest = hashlib.sha256()
    digest.update(
        _canonical_json_bytes(
            {"attribute": attribute, "n_codes": n_codes, "version": _HASH_VERSION}
        )
    )
    digest.update(_code_bytes(codes))
    for value in relation.column_dictionary(attribute):
        encoded = _canonical_json_bytes(value)
        digest.update(len(encoded).to_bytes(8, "little"))
        digest.update(encoded)
    return digest.digest()


def relation_content_hash(relation: "Relation") -> str:
    """The content address of ``relation`` (64-char sha256 hexdigest).

    Prefer :meth:`Relation.content_hash`, which memoises this per instance.
    """
    digest = hashlib.sha256()
    digest.update(
        _canonical_json_bytes(
            {
                "attributes": list(relation.attribute_names),
                "n_rows": len(relation),
                "name": relation.name,
                "version": _HASH_VERSION,
            }
        )
    )
    for attribute in relation.attribute_names:
        digest.update(column_digest(relation, attribute))
    return digest.hexdigest()


def catalog_content_hash(catalog: Mapping[str, "Relation"]) -> str:
    """One address for a whole catalog: sha256 over its per-relation hashes.

    Used to stamp :meth:`~repro.session.Session.infine` results, whose input
    is a mapping of base relations rather than a single instance.
    """
    leaves = {name: relation.content_hash() for name, relation in catalog.items()}
    return hashlib.sha256(
        _canonical_json_bytes({"catalog": leaves, "version": _HASH_VERSION})
    ).hexdigest()
