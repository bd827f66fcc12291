"""The registry's on-disk relation object: one relation in columnar form.

An object holds a relation as the dense dictionary encoding every
partition primitive already runs on (:meth:`Relation.column_codes
<repro.relational.relation.Relation.column_codes>`): a JSON header with
the dictionaries, then one code block per column.

.. code-block:: text

    offset 0    magic            b"RPROREL1"
    offset 8    header length H  uint64 little-endian
    offset 16   header JSON      H bytes of canonical UTF-8 JSON (OBJECT_SCHEMA)
    align 8     code blocks      one little-endian int64[n_rows] block per
                                 attribute, in schema order; padding is zero

The header carries the name, the attributes, the row count, the content
hash and, per column, ``{"attribute", "n_codes", "dictionary"}``.
Dictionaries are JSON, so only relations whose distinct values are JSON
scalars (``str``, ``int``, finite ``float``, ``bool``, ``None``) can be
stored; :func:`encode_object` raises :class:`ObjectFormatError` (a
``ValueError``) for anything else, before a byte is written.

:func:`decode_object` verifies before it builds.  It checks the layout and
the header's canonical form, then re-hashes the header fields, the code
bytes and the dictionaries (the leaves of :mod:`repro.registry.hashing`)
and compares the result with the address.  Only then does it build the
relation's columns over ``np.frombuffer`` views of the bytes read, so a
damaged code can never reach ``np.bincount`` or the partition kernel.  The
content hash is the portable identity: the decoded relation's
:meth:`~repro.relational.relation.Relation.content_hash` equals the
address it was read under.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from ..relational.relation import Relation
from ..relational.schema import RelationSchema
from .hashing import code_bytes, column_leaf, fold_relation_hash

#: First eight bytes of every object.
OBJECT_MAGIC = b"RPROREL1"

#: Schema tag of the object header (versioned like the wire schemas).
OBJECT_SCHEMA = "repro/relation-object-v1"

#: File suffix of an object under ``<root>/objects/``.
OBJECT_SUFFIX = ".rel"

#: Bytes before the header JSON: magic + header length.
_PREFIX_LENGTH = 16

#: The keys of the header and of each of its column entries.
_HEADER_KEYS = {"schema", "name", "attributes", "n_rows", "hash", "columns"}
_COLUMN_KEYS = {"attribute", "n_codes", "dictionary"}

#: The JSON value types a dictionary may hold.  ``bool`` is an ``int``
#: subclass and round-trips; containers are rejected because JSON turns
#: tuples into lists, which would change the decoded values.
_SCALAR_TYPES = (str, int, float, type(None))


class ObjectFormatError(ValueError):
    """A relation an object cannot represent, or bytes that are not a valid object."""


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _header_bytes(header: "dict[str, Any]") -> bytes:
    # Canonical: sorted keys, no whitespace, no NaN/Infinity.  The reader
    # re-encodes the parsed header and requires the same bytes.
    text = json.dumps(header, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return text.encode("utf-8")


def encode_object(relation: Relation) -> bytes:
    """The object bytes of ``relation``.

    Raises :class:`ObjectFormatError` when a dictionary holds a value that
    is not a JSON-native scalar.
    """
    columns: list[dict[str, Any]] = []
    blocks: list[bytes] = []
    for attribute in relation.attribute_names:
        codes, n_codes = relation.column_codes(attribute)
        dictionary = relation.column_dictionary(attribute)
        for value in dictionary:
            if not isinstance(value, _SCALAR_TYPES):
                raise ObjectFormatError(
                    f"column {attribute!r} of relation {relation.name!r} holds a "
                    f"{type(value).__name__} value; only JSON-native scalars can be stored"
                )
        columns.append({"attribute": attribute, "n_codes": n_codes, "dictionary": dictionary})
        blocks.append(code_bytes(codes))
    header = {
        "schema": OBJECT_SCHEMA,
        "name": relation.name,
        "attributes": list(relation.attribute_names),
        "n_rows": len(relation),
        "hash": relation.content_hash(),
        "columns": columns,
    }
    try:
        header_bytes = _header_bytes(header)
    except ValueError as exc:
        raise ObjectFormatError(
            f"relation {relation.name!r} holds values that are not JSON-native: {exc}"
        ) from exc
    padding = _align8(_PREFIX_LENGTH + len(header_bytes)) - _PREFIX_LENGTH - len(header_bytes)
    prefix = OBJECT_MAGIC + len(header_bytes).to_bytes(8, "little")
    return b"".join([prefix, header_bytes, b"\0" * padding, *blocks])


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _read_header(data: bytes) -> "tuple[dict[str, Any], int]":
    """The validated header of object ``data`` and the offset of its code blocks."""
    if len(data) < _PREFIX_LENGTH or data[:8] != OBJECT_MAGIC:
        raise ObjectFormatError("not a relation object (bad magic)")
    header_length = int.from_bytes(data[8:_PREFIX_LENGTH], "little")
    header_end = _PREFIX_LENGTH + header_length
    if header_end > len(data):
        raise ObjectFormatError(f"object truncated inside its {header_length}-byte header")
    raw = data[_PREFIX_LENGTH:header_end]
    try:
        header = json.loads(raw)
        canonical = _header_bytes(header)
    except ValueError as exc:
        raise ObjectFormatError(f"corrupt object header: {exc}") from exc
    if canonical != raw:
        raise ObjectFormatError("object header is not in canonical form")
    if not isinstance(header, dict) or header.get("schema") != OBJECT_SCHEMA:
        raise ObjectFormatError("unknown object schema")
    attributes, columns = header.get("attributes"), header.get("columns")
    if (
        header.keys() != _HEADER_KEYS
        or not isinstance(header["name"], str)
        or not isinstance(header["hash"], str)
        or not _is_count(header["n_rows"])
        or not isinstance(attributes, list)
        or not isinstance(columns, list)
        or len(columns) != len(attributes)
    ):
        raise ObjectFormatError("object header fields are missing or inconsistent")
    for attribute, column in zip(attributes, columns):
        if (
            not isinstance(column, dict)
            or column.keys() != _COLUMN_KEYS
            or column["attribute"] != attribute
            or not isinstance(attribute, str)
            or not _is_count(column["n_codes"])
            or not isinstance(column["dictionary"], list)
            or len(column["dictionary"]) != column["n_codes"]
        ):
            raise ObjectFormatError(f"object header describes column {attribute!r} inconsistently")
    data_offset = _align8(header_end)
    expected = data_offset + 8 * len(columns) * header["n_rows"]
    if len(data) != expected:
        raise ObjectFormatError(f"object holds {len(data)} bytes, its header describes {expected}")
    if data[header_end:data_offset].strip(b"\0"):
        raise ObjectFormatError("object padding is not zero")
    return header, data_offset


def decode_object(data: bytes, expected_hash: str) -> Relation:
    """The relation stored in object ``data`` under address ``expected_hash``.

    Raises :class:`ObjectFormatError` for any damage: a bad layout, a
    non-canonical or inconsistent header, or stored content that does not
    hash to ``expected_hash``.  Columns are built on first use, over
    zero-copy views of ``data``.
    """
    header, data_offset = _read_header(data)
    if header["hash"] != expected_hash:
        raise ObjectFormatError(
            f"object header names relation {header['hash']!r}, expected {expected_hash!r}"
        )
    n_rows = header["n_rows"]
    stride = 8 * n_rows
    leaves = []
    for index, column in enumerate(header["columns"]):
        start = data_offset + index * stride
        leaves.append(
            column_leaf(
                column["attribute"],
                column["n_codes"],
                data[start : start + stride],
                column["dictionary"],
            )
        )
    actual = fold_relation_hash(header["name"], header["attributes"], n_rows, leaves)
    if actual != expected_hash:
        raise ObjectFormatError(f"stored content hashes to {actual}, expected {expected_hash}")
    try:
        schema = RelationSchema(header["attributes"])
    except ValueError as exc:  # pragma: no cover - a verified header came from a schema
        raise ObjectFormatError(f"object attributes are not a schema: {exc}") from exc
    columns = {
        column["attribute"]: (data_offset + index * stride, column)
        for index, column in enumerate(header["columns"])
    }

    def source(attribute: str) -> "tuple[Any, int, list[int], list[Any]]":
        offset, column = columns[attribute]
        codes = np.frombuffer(data, dtype="<i8", count=n_rows, offset=offset)
        codes = codes.astype(np.int64, copy=False)
        n_codes = column["n_codes"]
        counts = np.bincount(codes, minlength=n_codes).tolist()
        return codes, n_codes, counts, column["dictionary"]

    relation = Relation._derived(header["name"], schema, n_rows, source)
    relation._content_hash_cache = expected_hash
    return relation
