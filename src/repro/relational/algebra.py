"""Relational algebra operators over :class:`~repro.relational.relation.Relation`.

The operator set covers exactly the SPJ fragment of the paper
(Definition 2): projection, selection, the four outer/inner joins and the two
semi-joins.  Every operator works on the relations' dense column codes and
never builds row tuples:

* projection and renaming share the input's columns, uncopied;
* selection evaluates the predicate once per distinct combination of the
  predicate's columns and keeps the passing rows as a row mask;
* an equi-join maps each join column's dictionary values (not its rows)
  into one code space shared by both sides, then computes its match once,
  as a pair of row-index arrays (:class:`JoinMatch`).  Output columns,
  semi-joins and partial joins are gathers of the inputs' codes by those
  indexes, computed per column and only when a column is read.

Every gathered column is re-densified in first-appearance order, so its
codes equal a fresh encoding of the values it holds.  The equi-join follows
USING/natural semantics, i.e. the join columns appear once in the output
(under the left side's names) and, for right-only rows of an outer join, are
filled from the right side's values.
"""

from __future__ import annotations

from array import array
from enum import Enum
from typing import Sequence

from .backend import KERNEL
from .predicates import Predicate
from .relation import ColumnEntry, Relation, gather_column
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
    return relation._share(name or f"project({relation.name})", schema)


def select(relation: Relation, predicate: Predicate, name: str | None = None) -> Relation:
    """Select the rows of ``relation`` satisfying ``predicate``."""
    attributes = sorted(predicate.attributes())
    missing = set(attributes) - set(relation.attribute_names)
    if missing:
        raise SchemaError(
            f"selection predicate refers to unknown attributes {sorted(missing)} "
            f"of relation {relation.name!r}"
        )
    name = name or f"select({relation.name})"
    if not attributes:
        if predicate.evaluate({}):
            return relation._share(name, relation.schema, same_rows=True)
        return relation._gathered(array("q"), name)
    entries = [relation._column_entry(a) for a in attributes]
    verdicts: dict[tuple[int, ...], bool] = {}
    positions = array("q")
    keep = positions.append
    for position, key in enumerate(zip(*(entry[0].tolist() for entry in entries))):
        verdict = verdicts.get(key)
        if verdict is None:
            values = {a: entry[3][code] for a, entry, code in zip(attributes, entries, key)}
            verdict = verdicts[key] = bool(predicate.evaluate(values))
        if verdict:
            keep(position)
    return relation._gathered(positions, name)


def rename(relation: Relation, mapping: dict[str, str], name: str | None = None) -> Relation:
    """Rename attributes of ``relation`` according to ``mapping``."""
    schema = relation.schema.renamed(mapping)
    original = {new: old for old, new in mapping.items()}
    return relation._share(name or relation.name, schema, original, same_rows=True)


def _validate_join_keys(
    left: Relation, right: Relation, left_on: Sequence[str], right_on: Sequence[str]
) -> None:
    if len(left_on) != len(right_on):
        raise SchemaError(f"join key arity mismatch: {list(left_on)} vs {list(right_on)}")
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
) -> RelationSchema:
    """Schema of the equi-join output.

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
    return left.schema.concat(right.schema.project(kept_right))


def _merge_columns(left: ColumnEntry, left_idx, right: ColumnEntry, right_idx) -> ColumnEntry:
    """Rows ``left_idx`` of one column followed by rows ``right_idx`` of another.

    Values equal under ``==`` on the two sides share one code, and each code
    decodes to the value at its first appearance.
    """
    left_codes, n_left, _counts, left_values = left
    right_codes, n_right, _counts, right_values = right
    shared: dict = {}
    classes = [shared.setdefault(value, len(shared)) for value in left_values]
    classes += [shared.setdefault(value, len(shared)) for value in right_values]
    segments = ((left_codes, left_idx, 0), (right_codes, right_idx, n_left))
    out, counts, firsts = KERNEL.gather_densify(segments, n_left + n_right, None, classes)
    values = left_values + right_values
    return out, len(counts), counts, [values[v] for v in firsts]


class JoinMatch:
    """The row match of one equi-join, computed once and shared by its consumers.

    Each join column's dictionary values are mapped into one code space
    shared by both sides (under ``hash``/``==``, with NULL never matching),
    and the kernel matches the rows on those codes.  For the four joins,
    output row ``j`` pairs left row ``left_idx[j]`` with right row
    ``right_idx[j]`` (``-1`` for outer-join padding): left rows in order,
    each followed by its matches in ascending right position, then the
    unmatched right rows of a right or full outer join.  The first
    ``n_head`` rows have a left row.  For a semi-join, the kept side's index
    array lists its matching rows in order and the other one is ``None``.

    :meth:`relation` builds the join output, or any projection of it, as a
    relation whose columns are gathered on first use and shared by every
    relation built from this match; :meth:`semi` gives either input's
    semi-join.
    """

    def __init__(
        self,
        left: Relation,
        right: Relation,
        left_on: Sequence[str],
        right_on: Sequence[str] | None = None,
        kind: JoinKind = JoinKind.INNER,
    ) -> None:
        right_on = list(right_on) if right_on is not None else list(left_on)
        left_on = list(left_on)
        _validate_join_keys(left, right, left_on, right_on)
        if kind is JoinKind.LEFT_SEMI:
            schema = left.schema
        elif kind is JoinKind.RIGHT_SEMI:
            schema = right.schema
        else:
            schema = _joined_schema(left, right, left_on, right_on)
        self.left = left
        self.right = right
        self.left_on = tuple(left_on)
        self.right_on = tuple(right_on)
        self.kind = kind
        self.schema = schema
        left_keys = []
        right_keys = []
        for lft, rgt in zip(left_on, right_on):
            left_codes, _n, _counts, left_values = left._column_entry(lft)
            right_codes, _n, _counts, right_values = right._column_entry(rgt)
            shared: dict = {}
            left_table = [
                -1 if v is None else shared.setdefault(v, len(shared)) for v in left_values
            ]
            right_table = [
                -1 if v is None else shared.setdefault(v, len(shared)) for v in right_values
            ]
            left_keys.append((left_codes, left_table, len(shared)))
            right_keys.append((right_codes, right_table, len(shared)))
        self.left_idx, self.right_idx, self.n_head = KERNEL.match(left_keys, right_keys, kind.value)
        # Same-named join columns: the output keeps the left one, back-filled
        # from the right side on right-only rows (USING semantics).
        self._using = {lft: rgt for lft, rgt in zip(left_on, right_on) if lft == rgt}
        self._columns: dict[str, ColumnEntry] = {}

    def __len__(self) -> int:
        """Number of output rows."""
        return len(self.right_idx if self.kind is JoinKind.RIGHT_SEMI else self.left_idx)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names of the join output."""
        return self.schema.names

    def _default_name(self) -> str:
        """The output name :func:`equi_join` uses when none is given."""
        if self.kind is JoinKind.LEFT_SEMI:
            return f"semi({self.left.name})"
        if self.kind is JoinKind.RIGHT_SEMI:
            return f"semi({self.right.name})"
        return f"{self.left.name}_{self.kind.value}_{self.right.name}"

    def relation(
        self, attributes: Sequence[str] | None = None, name: str | None = None
    ) -> Relation:
        """The join output, or its projection on ``attributes``."""
        schema = self.schema if attributes is None else self.schema.project(attributes)
        return Relation._derived(name or self._default_name(), schema, len(self), self._column)

    def semi(self, side: str, name: str | None = None) -> Relation:
        """The rows of the ``"left"`` or ``"right"`` input that have a match, in order."""
        kind = self.kind
        if side == "left":
            relation, idx, kept_by = self.left, self.left_idx, JoinKind.LEFT_SEMI
            unpadded = kind in (JoinKind.INNER, JoinKind.RIGHT_OUTER)
        else:
            relation, idx, kept_by = self.right, self.right_idx, JoinKind.RIGHT_SEMI
            unpadded = kind in (JoinKind.INNER, JoinKind.LEFT_OUTER)
        name = name or f"semi({relation.name})"
        if kind is kept_by:
            return relation._gathered(idx, name)
        if not unpadded:
            semi = JoinMatch(self.left, self.right, self.left_on, self.right_on, kept_by)
            return semi.semi(side, name)
        # Every non-negative entry of ``idx`` is a matched row.
        positions = KERNEL.matched_positions(idx, len(relation))
        return relation._gathered(positions, name)

    def _column(self, attribute: str) -> ColumnEntry:
        entry = self._columns.get(attribute)
        if entry is None:
            entry = self._columns[attribute] = self._gather(attribute)
        return entry

    def _gather(self, attribute: str) -> ColumnEntry:
        kind = self.kind
        if kind is JoinKind.LEFT_SEMI:
            return gather_column(self.left._column_entry(attribute), self.left_idx)
        if kind is JoinKind.RIGHT_SEMI:
            return gather_column(self.right._column_entry(attribute), self.right_idx)
        if not self.left.schema.has(attribute):
            entry = self.right._column_entry(attribute)
            padded = kind in (JoinKind.LEFT_OUTER, JoinKind.FULL_OUTER)
            return gather_column(entry, self.right_idx, padded)
        entry = self.left._column_entry(attribute)
        head = self.n_head
        partner = self._using.get(attribute)
        if partner is not None and head < len(self.left_idx):
            right_entry = self.right._column_entry(partner)
            return _merge_columns(entry, self.left_idx[:head], right_entry, self.right_idx[head:])
        padded = kind in (JoinKind.RIGHT_OUTER, JoinKind.FULL_OUTER)
        return gather_column(entry, self.left_idx, padded)


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
    return JoinMatch(left, right, left_on, right_on, kind).relation(name=name)


def union(left: Relation, right: Relation, name: str | None = None) -> Relation:
    """Bag union of two relations over the same attribute names."""
    if left.attribute_names != right.attribute_names:
        raise SchemaError(
            f"union requires identical schemas: {left.attribute_names} vs {right.attribute_names}"
        )
    left_rows = range(len(left))
    right_rows = range(len(right))

    def column(attribute: str) -> ColumnEntry:
        return _merge_columns(
            left._column_entry(attribute),
            left_rows,
            right._column_entry(attribute),
            right_rows,
        )

    name = name or f"union({left.name},{right.name})"
    return Relation._derived(name, left.schema, len(left) + len(right), column)


def cartesian_product(left: Relation, right: Relation, name: str | None = None) -> Relation:
    """Cartesian product (used only in tests and as a reference semantics)."""
    overlap = set(left.attribute_names) & set(right.attribute_names)
    if overlap:
        raise SchemaError(f"cartesian product requires disjoint schemas, shared: {sorted(overlap)}")
    schema = left.schema.concat(right.schema)
    n_left, n_right = len(left), len(right)
    left_idx = array("q", [i for i in range(n_left) for _ in range(n_right)])
    right_idx = array("q", list(range(n_right)) * n_left)

    def column(attribute: str) -> ColumnEntry:
        if left.schema.has(attribute):
            return gather_column(left._column_entry(attribute), left_idx)
        return gather_column(right._column_entry(attribute), right_idx)

    name = name or f"product({left.name},{right.name})"
    return Relation._derived(name, schema, len(left_idx), column)
