"""Fuzz the registry's relation objects: damage must end in quarantine.

Every damaged object — truncated at any offset, one bit flipped in the
magic, the header, a dictionary or a code block, or a header rewritten
canonically with inconsistent fields (``n_rows``, ``n_codes``, the column
count) — must make :meth:`RelationRegistry.get` raise
:class:`~repro.registry.IntegrityError` with the object quarantined:
never another exception type, and never a relation whose
``content_hash()`` differs from its address.

Tier-1 runs a fixed seed.  The CI ``fuzz`` job runs a longer sweep with
``--hypothesis-profile=object-sweep`` (registered in ``conftest.py``).
"""

from __future__ import annotations

import json

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.registry import IntegrityError, RelationRegistry
from repro.relational.relation import Relation

VALUES = st.sampled_from([None, True, False, 0, 1, -7, 2**40, 2.5, -0.0, 1e20, "", "a", "ü"])


@st.composite
def relations(draw) -> Relation:
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[VALUES] * width), max_size=12))
    return Relation("r", tuple(f"c{i}" for i in range(width)), rows)


def layout(data: bytes) -> "tuple[int, int, dict]":
    """``(header_end, data_offset, header)`` of a well-formed object."""
    header_end = 16 + int.from_bytes(data[8:16], "little")
    return header_end, (header_end + 7) & ~7, json.loads(data[16:header_end])


def reheader(data: bytes, header: dict) -> bytes:
    """``data`` with its header replaced, canonically encoded and re-aligned."""
    _, data_offset, _ = layout(data)
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    padding = b"\0" * (((16 + len(raw) + 7) & ~7) - 16 - len(raw))
    return data[:8] + len(raw).to_bytes(8, "little") + raw + padding + data[data_offset:]


def flip(data: bytes, start: int, end: int, draw) -> bytes:
    index = draw(st.integers(start, end - 1))
    bit = draw(st.integers(0, 7))
    damaged = bytearray(data)
    damaged[index] ^= 1 << bit
    return bytes(damaged)


def damage(data: bytes, draw) -> bytes:
    header_end, data_offset, header = layout(data)
    kinds = ["truncate", "magic", "header", "n_rows", "n_codes", "columns"]
    dictionary = data.find(b'"dictionary":[', 16, header_end)
    if header["columns"][0]["dictionary"]:
        kinds.append("dictionary")
    if data_offset < len(data):
        kinds.append("codes")
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "magic":
        return flip(data, 0, 8, draw)
    if kind == "header":
        return flip(data, 8, header_end, draw)
    if kind == "dictionary":
        start = dictionary + len(b'"dictionary":[')
        return flip(data, start, data.index(b"]", start), draw)
    if kind == "codes":
        return flip(data, data_offset, len(data), draw)
    if kind == "n_rows":
        header["n_rows"] += draw(st.sampled_from([-1, 1])) if header["n_rows"] else 1
    elif kind == "n_codes":
        column = draw(st.sampled_from(header["columns"]))
        column["n_codes"] += 1
        column["dictionary"].append("extra")
    else:
        header["columns"].pop()
        header["attributes"].pop()
    return reheader(data, header)


@seed(20261018)
@settings(deadline=None)
@given(relation=relations(), data=st.data())
def test_damaged_object_is_quarantined(tmp_path_factory, relation, data):
    root = tmp_path_factory.mktemp("registry")
    content_hash = RelationRegistry(root).put(relation)
    path = root / "objects" / f"{content_hash}.rel"
    damaged = damage(path.read_bytes(), data.draw)
    path.write_bytes(damaged)
    registry = RelationRegistry(root, recover=False)
    try:
        read = registry.get(content_hash)
    except IntegrityError as exc:
        assert exc.content_hash == content_hash
        assert exc.quarantined is not None
        assert not path.exists()
        assert len(list((root / "quarantine").iterdir())) == 1
    else:  # pragma: no cover - the failure this test exists to catch
        raise AssertionError(
            f"damaged object decoded (content_hash {read.content_hash()}, "
            f"address {content_hash})"
        )
