"""Relational algebra operators over :class:`~repro.relational.relation.Relation`.

The operator set covers exactly the SPJ fragment of the paper
(Definition 2): projection, selection, the four outer/inner joins and the two
semi-joins.  All joins are hash joins; the equi-join follows USING/natural
semantics, i.e. the join columns appear once in the output (under the left
side's names) and, for right-only rows of an outer join, are filled from the
right side's values.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import Any, Sequence

from .predicates import Predicate
from .relation import NULL, Relation, RelationError
from .schema import RelationSchema, SchemaError


class JoinKind(str, Enum):
    """The join operators supported by the SPJ view fragment."""

    INNER = "inner"
    LEFT_OUTER = "left_outer"
    RIGHT_OUTER = "right_outer"
    FULL_OUTER = "full_outer"
    LEFT_SEMI = "left_semi"
    RIGHT_SEMI = "right_semi"

    @property
    def symbol(self) -> str:
        """The algebraic symbol, used in provenance sub-query strings."""
        return {
            JoinKind.INNER: "JOIN",
            JoinKind.LEFT_OUTER: "LEFT OUTER JOIN",
            JoinKind.RIGHT_OUTER: "RIGHT OUTER JOIN",
            JoinKind.FULL_OUTER: "FULL OUTER JOIN",
            JoinKind.LEFT_SEMI: "LEFT SEMI JOIN",
            JoinKind.RIGHT_SEMI: "RIGHT SEMI JOIN",
        }[self]

    @property
    def is_semi(self) -> bool:
        """Whether the operator is one of the semi-joins."""
        return self in (JoinKind.LEFT_SEMI, JoinKind.RIGHT_SEMI)


def project(relation: Relation, attributes: Sequence[str], name: str | None = None) -> Relation:
    """Project ``relation`` on ``attributes`` (bag semantics, duplicates kept)."""
    schema = relation.schema.project(attributes)
    idxs = relation.schema.indexes_of(attributes)
    rows = [tuple(row[i] for i in idxs) for row in relation.rows]
    return Relation(name or f"project({relation.name})", schema, rows)


def select(relation: Relation, predicate: Predicate, name: str | None = None) -> Relation:
    """Select the rows of ``relation`` satisfying ``predicate``."""
    missing = predicate.attributes() - set(relation.attribute_names)
    if missing:
        raise SchemaError(
            f"selection predicate refers to unknown attributes {sorted(missing)} "
            f"of relation {relation.name!r}"
        )
    names = relation.attribute_names
    rows = [row for row in relation.rows if predicate.evaluate(dict(zip(names, row)))]
    return Relation(name or f"select({relation.name})", relation.schema, rows)


def rename(relation: Relation, mapping: dict[str, str], name: str | None = None) -> Relation:
    """Rename attributes of ``relation`` according to ``mapping``."""
    return Relation(name or relation.name, relation.schema.renamed(mapping), relation.rows)


def _validate_join_keys(
    left: Relation, right: Relation, left_on: Sequence[str], right_on: Sequence[str]
) -> None:
    if len(left_on) != len(right_on):
        raise SchemaError(
            f"join key arity mismatch: {list(left_on)} vs {list(right_on)}"
        )
    if not left_on:
        raise SchemaError("join requires at least one join attribute per side")
    for attribute in left_on:
        if not left.schema.has(attribute):
            raise SchemaError(f"left relation {left.name!r} has no join attribute {attribute!r}")
    for attribute in right_on:
        if not right.schema.has(attribute):
            raise SchemaError(f"right relation {right.name!r} has no join attribute {attribute!r}")


def _joined_schema(
    left: Relation, right: Relation, left_on: Sequence[str], right_on: Sequence[str]
) -> tuple[RelationSchema, tuple[int, ...]]:
    """Schema of the equi-join output and the kept right-column indexes.

    The output keeps every left attribute plus every right attribute except
    the join attributes whose name is identical on both sides (natural-join
    style: the shared column appears once).  Join attributes with *different*
    names are both kept, so FDs of either input keep referring to existing
    columns.  Any remaining name collision is an error: the dataset
    definitions in this repository use globally unique attribute names except
    for shared join attributes, mirroring the paper's examples.
    """
    dropped = {rgt for lft, rgt in zip(left_on, right_on) if lft == rgt}
    kept_right = [a for a in right.attribute_names if a not in dropped]
    collisions = set(kept_right) & set(left.attribute_names)
    if collisions:
        raise SchemaError(
            f"non-join attribute name collision between {left.name!r} and {right.name!r}: "
            f"{sorted(collisions)}; rename before joining"
        )
    schema = left.schema.concat(right.schema.project(kept_right))
    kept_idx = right.schema.indexes_of(kept_right)
    return schema, kept_idx


def equi_join(
    left: Relation,
    right: Relation,
    left_on: Sequence[str],
    right_on: Sequence[str] | None = None,
    kind: JoinKind = JoinKind.INNER,
    name: str | None = None,
) -> Relation:
    """Hash equi-join of two relations.

    Parameters
    ----------
    left, right:
        The relations to join.
    left_on, right_on:
        Parallel lists of join attributes.  ``right_on`` defaults to
        ``left_on`` (natural-join style on identically named attributes).
    kind:
        One of :class:`JoinKind`.
    name:
        Optional name of the output relation.

    Notes
    -----
    NULL join keys never match (SQL semantics): a row whose join attributes
    contain NULL is treated as dangling.
    """
    right_on = list(right_on) if right_on is not None else list(left_on)
    left_on = list(left_on)
    _validate_join_keys(left, right, left_on, right_on)

    if kind is JoinKind.LEFT_SEMI:
        return _semi_join(left, right, left_on, right_on, name, keep="left")
    if kind is JoinKind.RIGHT_SEMI:
        return _semi_join(left, right, left_on, right_on, name, keep="right")

    schema, kept_right_idx = _joined_schema(left, right, left_on, right_on)
    left_key_idx = left.schema.indexes_of(left_on)
    right_key_idx = right.schema.indexes_of(right_on)
    # Positions of left join columns whose right counterpart was dropped
    # (same name); only those are back-filled for unmatched right rows.
    left_on_positions = {
        left.schema.index_of(lft): i
        for i, (lft, rgt) in enumerate(zip(left_on, right_on))
        if lft == rgt
    }

    right_index: dict[tuple[Any, ...], list[int]] = defaultdict(list)
    for position, row in enumerate(right.rows):
        key = tuple(row[i] for i in right_key_idx)
        if any(value is NULL for value in key):
            continue
        right_index[key].append(position)

    rows: list[tuple[Any, ...]] = []
    matched_right: set[int] = set()
    right_pad = (NULL,) * len(kept_right_idx)

    for left_row in left.rows:
        key = tuple(left_row[i] for i in left_key_idx)
        matches = [] if any(value is NULL for value in key) else right_index.get(key, [])
        if matches:
            for position in matches:
                right_row = right.rows[position]
                rows.append(left_row + tuple(right_row[i] for i in kept_right_idx))
                matched_right.add(position)
        elif kind in (JoinKind.LEFT_OUTER, JoinKind.FULL_OUTER):
            rows.append(left_row + right_pad)

    if kind in (JoinKind.RIGHT_OUTER, JoinKind.FULL_OUTER):
        left_width = left.arity
        for position, right_row in enumerate(right.rows):
            if position in matched_right:
                continue
            # Unmatched right rows: left attributes are NULL, except the join
            # columns which take the right side's key values (USING semantics).
            padded = [NULL] * left_width
            for left_pos, key_slot in left_on_positions.items():
                padded[left_pos] = right_row[right_key_idx[key_slot]]
            rows.append(tuple(padded) + tuple(right_row[i] for i in kept_right_idx))

    if kind in (JoinKind.INNER, JoinKind.LEFT_OUTER, JoinKind.RIGHT_OUTER, JoinKind.FULL_OUTER):
        return Relation(name or f"{left.name}_{kind.value}_{right.name}", schema, rows)
    raise RelationError(f"unsupported join kind {kind!r}")  # pragma: no cover - defensive


def _semi_join(
    left: Relation,
    right: Relation,
    left_on: Sequence[str],
    right_on: Sequence[str],
    name: str | None,
    keep: str,
) -> Relation:
    """Left (``keep='left'``) or right (``keep='right'``) semi-join."""
    if keep == "left":
        probe, build, probe_on, build_on = left, right, left_on, right_on
    else:
        probe, build, probe_on, build_on = right, left, right_on, left_on
    build_idx = build.schema.indexes_of(build_on)
    build_keys = {
        key
        for key in (tuple(row[i] for i in build_idx) for row in build.rows)
        if not any(value is NULL for value in key)
    }
    probe_idx = probe.schema.indexes_of(probe_on)
    rows = [
        row
        for row in probe.rows
        if not any(row[i] is NULL for i in probe_idx)
        and tuple(row[i] for i in probe_idx) in build_keys
    ]
    return Relation(name or f"semi({probe.name})", probe.schema, rows)


def union(left: Relation, right: Relation, name: str | None = None) -> Relation:
    """Bag union of two relations over the same attribute names."""
    if left.attribute_names != right.attribute_names:
        raise SchemaError(
            f"union requires identical schemas: {left.attribute_names} vs {right.attribute_names}"
        )
    return Relation(name or f"union({left.name},{right.name})", left.schema, left.rows + right.rows)


def cartesian_product(left: Relation, right: Relation, name: str | None = None) -> Relation:
    """Cartesian product (used only in tests and as a reference semantics)."""
    overlap = set(left.attribute_names) & set(right.attribute_names)
    if overlap:
        raise SchemaError(f"cartesian product requires disjoint schemas, shared: {sorted(overlap)}")
    schema = left.schema.concat(right.schema)
    rows = [lrow + rrow for lrow in left.rows for rrow in right.rows]
    return Relation(name or f"product({left.name},{right.name})", schema, rows)
