"""In-memory relational instances.

A :class:`Relation` is an immutable, named bag of rows over a
:class:`~repro.relational.schema.RelationSchema`.  It is the substrate on
which both the baseline FD-discovery algorithms and InFine operate.

The storage is columnar.  Each column is a dense integer encoding: one code
per row, codes assigned in first-appearance order, the dictionary that
decodes them (the column's distinct values in the same order) and per-code
counts.  Every partition primitive and every SPJ operator of
:mod:`~repro.relational.algebra` runs on these codes.  ``NULL`` is
represented by :data:`NULL` (``None``) and participates as an ordinary
value, and duplicate rows are allowed (bag semantics) because SPJ views can
produce them.

A relation built from rows keeps them and encodes each column on first use.
A derived relation (a projection, selection, semi-join or join) never
builds rows: it shares or gathers its parents' codes, column by column and
only when a column is asked for.  Row tuples are decoded lazily, when
something reads :attr:`Relation.rows`, iterates the relation or compares it.
:meth:`Relation.columnar` copies a relation without its rows, for holders
that keep many relations for long.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from operator import itemgetter
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .backend import KERNEL, MarkTableCache, active_state
from .schema import Attribute, RelationSchema, SchemaError

#: The NULL marker used throughout the substrate.
NULL = None

#: One encoded column: ``(codes, n_codes, counts, dictionary)``.  ``codes``
#: is an ``array('q')`` or an int64 ``np.ndarray`` with one code per row;
#: ``dictionary[code]`` is the value the code stands for.
ColumnEntry = tuple


class RelationError(ValueError):
    """Raised for malformed relations or invalid row shapes."""


def _encode_values(values: Iterable[Any]) -> ColumnEntry:
    """First-appearance dense encoding of a column's values."""
    code_of: dict[Hashable, int] = {}
    lookup = code_of.get
    counts: list[int] = []
    raw: list[int] = []
    append = raw.append
    for value in values:
        code = lookup(value)
        if code is None:
            code = len(code_of)
            code_of[value] = code
            counts.append(1)
        else:
            counts[code] += 1
        append(code)
    return array("q", raw), len(code_of), counts, list(code_of)


def gather_column(entry: ColumnEntry, idx, padded: bool = False) -> ColumnEntry:
    """The column of rows ``idx`` of ``entry``, re-densified.

    With ``padded``, an index of ``-1`` stands for a NULL row (outer-join
    padding); it shares the code of an existing NULL.  The new codes are
    assigned in first-appearance order, so they equal a fresh encoding of
    the gathered values.
    """
    codes, n_codes, _counts, dictionary = entry
    pad = None
    if padded:
        pad = next((code for code, value in enumerate(dictionary) if value is None), n_codes)
    out, counts, firsts = KERNEL.gather_densify(((codes, idx, 0),), n_codes + 1, pad)
    return out, len(counts), counts, [dictionary[v] if v < n_codes else NULL for v in firsts]


class Relation:
    """An immutable relational instance (bag of tuples).

    Parameters
    ----------
    name:
        A human-readable relation name, used in provenance sub-query strings.
    schema:
        The relation schema, or an iterable of attribute names.
    rows:
        An iterable of row tuples/sequences; each must have exactly one value
        per schema attribute.

    Notes
    -----
    Rows given to the constructor are kept as given.  The rows of a derived
    relation are decoded from its column dictionaries, so each value is its
    column's first-seen representative under ``==``: if a column holds
    ``1`` and later ``1.0``, both rows decode to ``1``.  Equal values stay
    equal, so joins, FDs and partitions are unaffected.
    """

    __slots__ = (
        "_name",
        "_schema",
        "_n_rows",
        "_rows",
        "_columns",
        "_source",
        "_column_index_cache",
        "_content_hash_cache",
        "__weakref__",
    )

    def __init__(
        self,
        name: str,
        schema: RelationSchema | Sequence[Attribute | str],
        rows: Iterable[Sequence[Any]] = (),
    ) -> None:
        if not isinstance(schema, RelationSchema):
            schema = RelationSchema(schema)
        width = len(schema)
        materialised: list[tuple[Any, ...]] = []
        for i, row in enumerate(rows):
            row = tuple(row)
            if len(row) != width:
                raise RelationError(
                    f"row {i} of relation {name!r} has {len(row)} values, "
                    f"schema expects {width}"
                )
            materialised.append(row)
        self._setup(name, schema, len(materialised), tuple(materialised), None)

    def _setup(
        self,
        name: str,
        schema: RelationSchema,
        n_rows: int,
        rows: tuple[tuple[Any, ...], ...] | None,
        source: Callable[[str], ColumnEntry] | None,
    ) -> None:
        """Initialise every slot.

        ``rows`` is ``None`` for a relation whose rows are decoded on demand.
        ``source`` computes the entry of a column not yet cached; without
        one, columns are encoded from ``rows``.
        """
        self._name = name
        self._schema = schema
        self._n_rows = n_rows
        self._rows = rows
        self._columns: dict[str, ColumnEntry] = {}
        self._source = source
        self._column_index_cache: dict[str, dict[Hashable, list[int]]] = {}
        self._content_hash_cache: str | None = None

    @staticmethod
    def _derived(
        name: str,
        schema: RelationSchema,
        n_rows: int,
        source: Callable[[str], ColumnEntry] | None,
        rows: tuple[tuple[Any, ...], ...] | None = None,
    ) -> "Relation":
        """A relation whose columns come from ``source``, one at a time."""
        relation = Relation.__new__(Relation)
        relation._setup(name, schema, n_rows, rows, source)
        return relation

    # -- basic protocol -------------------------------------------------------
    def __len__(self) -> int:
        return self._n_rows

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        """Bag equality: same schema names and same multiset of rows."""
        if not isinstance(other, Relation):
            return NotImplemented
        same_names = self.schema.names == other.schema.names
        return same_names and Counter(self.rows) == Counter(other.rows)

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash((self._schema.names, frozenset(Counter(self.rows).items())))

    def __repr__(self) -> str:
        return f"Relation({self._name!r}, attrs={list(self.attribute_names)}, rows={len(self)})"

    def __reduce__(self):
        """Pickle as the rows: a derived relation's column sources stay behind."""
        return Relation, (self._name, self._schema, self.rows)

    # -- accessors ------------------------------------------------------------
    @property
    def name(self) -> str:
        """The relation name."""
        return self._name

    @property
    def schema(self) -> RelationSchema:
        """The relation schema."""
        return self._schema

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names in schema order."""
        return self._schema.names

    @property
    def rows(self) -> tuple[tuple[Any, ...], ...]:
        """The row tuples (decoded from the columns on first access if needed)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = tuple(self.iter_rows())
        return rows

    def iter_rows(self) -> Iterator[tuple[Any, ...]]:
        """Iterate over the row tuples without keeping them on the relation.

        :attr:`rows` decodes a columnar relation's rows once and caches
        them; this decodes them for one pass only, so a long-lived columnar
        relation stays small when its rows are merely serialised.
        """
        if self._rows is not None:
            return iter(self._rows)
        if not self._schema.names:
            return iter(((),) * self._n_rows)
        return zip(*[self._decoded_column(a) for a in self._schema.names])

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self._schema)

    def is_empty(self) -> bool:
        """Whether the relation holds no rows."""
        return not self._n_rows

    def column(self, attribute: str) -> list[Any]:
        """Return the values of ``attribute`` for every row, in row order."""
        rows = self._rows
        if rows is None:
            return self._decoded_column(attribute)
        idx = self._schema.index_of(attribute)
        return [row[idx] for row in rows]

    def _decoded_column(self, attribute: str) -> list[Any]:
        codes, _n_codes, _counts, dictionary = self._column_entry(attribute)
        return list(map(dictionary.__getitem__, codes.tolist()))

    def columns(self, attributes: Sequence[str]) -> list[tuple[Any, ...]]:
        """Return, per row, the tuple of values for ``attributes``."""
        idxs = self._schema.indexes_of(attributes)
        return [tuple(row[i] for i in idxs) for row in self.rows]

    def row_dicts(self) -> Iterator[dict[str, Any]]:
        """Iterate over rows as ``{attribute: value}`` dictionaries."""
        names = self.attribute_names
        for row in self.rows:
            yield dict(zip(names, row))

    def distinct_count(self, attributes: Sequence[str] | str) -> int:
        """Number of distinct value combinations over ``attributes``.

        NULLs participate as ordinary values, which matches the paper's
        null-semantics-agnostic FD definition (Definition 1).
        """
        if isinstance(attributes, str):
            attributes = (attributes,)
        if not attributes:
            return 1 if self._n_rows else 0
        return len(set(self.columns(attributes)))

    def value_index(self, attribute: str) -> Mapping[Hashable, list[int]]:
        """Return (and cache) a value -> row-position index for ``attribute``."""
        cached = self._column_index_cache.get(attribute)
        if cached is not None:
            return cached
        index: dict[Hashable, list[int]] = defaultdict(list)
        for position, value in enumerate(self.column(attribute)):
            index[value].append(position)
        index = dict(index)
        self._column_index_cache[attribute] = index
        return index

    def multi_value_index(self, attributes: Sequence[str]) -> dict[tuple[Any, ...], list[int]]:
        """Return a (value tuple) -> row-position index over several attributes."""
        index: dict[tuple[Any, ...], list[int]] = defaultdict(list)
        for position, key in enumerate(self.columns(attributes)):
            index[key].append(position)
        return dict(index)

    # -- columnar integer encoding --------------------------------------------
    def _column_entry(self, attribute: str) -> ColumnEntry:
        """The cached ``(codes, n_codes, counts, dictionary)`` of a column."""
        entry = self._columns.get(attribute)
        if entry is None:
            index = self._schema.index_of(attribute)
            if self._source is not None:
                entry = self._source(attribute)
            else:
                entry = _encode_values(map(itemgetter(index), self._rows))
            self._columns[attribute] = entry
        return entry

    def column_codes(self, attribute: str) -> tuple[Sequence[int], int]:
        """Return ``(codes, n_codes)``: the dense integer encoding of a column.

        ``codes`` is an ``array('q')`` (or an int64 ``np.ndarray``) with one
        entry per row; equal raw values receive equal codes, codes are dense
        in ``0..n_codes-1`` and assigned in first-appearance order.  The
        encoding is computed lazily, cached for the lifetime of the
        (immutable) relation, and shared by every partition/FD primitive so
        that the hot paths compare machine integers instead of hashing
        arbitrary Python objects.  ``NULL`` participates as an ordinary
        value (the paper's null-agnostic FD semantics).
        """
        entry = self._column_entry(attribute)
        return entry[0], entry[1]

    def _encode_column(self, attribute: str) -> tuple[Sequence[int], int, Sequence[int]]:
        """``(codes, n_codes, counts)`` with per-code occurrence counts.

        Internal variant of :meth:`column_codes` whose counts let the
        partition kernel skip its counting pass; both share one cache entry.
        """
        entry = self._column_entry(attribute)
        return entry[0], entry[1], entry[2]

    def column_dictionary(self, attribute: str) -> list[Any]:
        """The distinct raw values of ``attribute`` in first-appearance order.

        The decode table of :meth:`column_codes`: ``dictionary[code]`` is the
        raw value that ``code`` stands for, so ``(codes, dictionary)`` round-
        trips the column exactly (``NULL`` included).  Together with
        :meth:`column_codes` this is what the registry stores as a
        relation object (:mod:`repro.registry.objects`).
        """
        return list(self._column_entry(attribute)[3])

    def content_hash(self) -> str:
        """The canonical content address of this relation (sha256 hexdigest).

        A merkle fold of per-column sha256 leaves over the dictionary
        encoding of :meth:`column_codes` plus the schema — process-independent
        (see :mod:`repro.registry.hashing`).  Computed lazily and cached for
        the lifetime of the (immutable) relation.
        """
        cached = self._content_hash_cache
        if cached is None:
            # Imported lazily: the registry package depends on this module.
            from ..registry.hashing import relation_content_hash

            cached = self._content_hash_cache = relation_content_hash(self)
        return cached

    def column_code_count(self, attribute: str) -> int:
        """Number of distinct values of ``attribute`` (via the cached encoding)."""
        return self._column_entry(attribute)[1]

    @property
    def mark_cache(self) -> MarkTableCache:
        """The relation-scoped byte-budgeted mark-table cache.

        Owned by the active engine state: each session has its own budgeted
        instance per relation.
        """
        return active_state().caches_for(self).marks

    # -- derivations ----------------------------------------------------------
    def _share(
        self,
        name: str,
        schema: RelationSchema,
        renamed: Mapping[str, str] | None = None,
        same_rows: bool = False,
    ) -> "Relation":
        """A relation over ``schema`` whose columns are this relation's, uncopied.

        ``renamed`` maps a new attribute name to this relation's name for it.
        ``same_rows`` says that ``schema`` keeps every column in place, so
        decoded rows can be passed on as well.
        """
        entry = self._column_entry
        original = renamed or {}

        def source(attribute: str) -> ColumnEntry:
            return entry(original.get(attribute, attribute))

        rows = self._rows if same_rows else None
        return Relation._derived(name, schema, self._n_rows, source, rows)

    def _gathered(self, idx, name: str) -> "Relation":
        """The rows at positions ``idx`` (trusted in range), columns gathered lazily."""
        entry = self._column_entry
        return Relation._derived(
            name, self._schema, len(idx), lambda attribute: gather_column(entry(attribute), idx)
        )

    def with_name(self, name: str) -> "Relation":
        """Return the same instance under a different relation name."""
        return self._share(name, self._schema, same_rows=True)

    def with_rows(self, rows: Iterable[Sequence[Any]], name: str | None = None) -> "Relation":
        """Return a relation with the same schema but different rows."""
        return Relation(name or self._name, self._schema, rows)

    def take(self, positions: Sequence[int], name: str | None = None) -> "Relation":
        """Return a relation containing the rows at the given positions."""
        n_rows = self._n_rows
        idx = array("q")
        for position in positions:
            if not -n_rows <= position < n_rows:
                raise IndexError(f"row position {position} out of range for {n_rows} rows")
            idx.append(position + n_rows if position < 0 else position)
        return self._gathered(idx, name or self._name)

    def head(self, n: int) -> "Relation":
        """Return the first ``n`` rows (useful for debugging and examples)."""
        return self._gathered(array("q", range(self._n_rows)[:n]), self._name)

    def distinct(self, name: str | None = None) -> "Relation":
        """Return the relation with duplicate rows removed (set semantics)."""
        codes = [self._column_entry(a)[0].tolist() for a in self._schema.names]
        keys = zip(*codes) if codes else [()] * self._n_rows
        seen: set[tuple[int, ...]] = set()
        positions = array("q")
        for position, key in enumerate(keys):
            if key not in seen:
                seen.add(key)
                positions.append(position)
        return self._gathered(positions, name or self._name)

    def sorted_rows(self) -> list[tuple[Any, ...]]:
        """Rows sorted with a NULL-safe key, for deterministic display."""
        return sorted(self.rows, key=lambda row: tuple((v is None, str(v)) for v in row))

    def map_column(self, attribute: str, fn: Callable[[Any], Any]) -> "Relation":
        """Return a relation with ``fn`` applied to every value of ``attribute``."""
        mapped = _encode_values(map(fn, self.column(attribute)))
        entry = self._column_entry

        def source(name: str) -> ColumnEntry:
            return mapped if name == attribute else entry(name)

        return Relation._derived(self._name, self._schema, self._n_rows, source)

    def columnar(self) -> "Relation":
        """The same relation holding only its column encodings.

        The copy shares every encoded column and the content hash, and
        decodes rows on demand.  Rows cost one tuple per row plus a pointer
        per value; the codes cost 8 bytes per value, so a long-lived holder
        of many relations (the server's registry) keeps this form.
        """
        columns = {attribute: self._column_entry(attribute) for attribute in self._schema.names}
        relation = Relation._derived(self._name, self._schema, self._n_rows, None)
        relation._columns.update(columns)
        relation._content_hash_cache = self.content_hash()
        return relation

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_dicts(
        cls,
        name: str,
        records: Sequence[Mapping[str, Any]],
        schema: RelationSchema | Sequence[str] | None = None,
    ) -> "Relation":
        """Build a relation from a list of dictionaries.

        If ``schema`` is omitted the attribute order of the first record is
        used; every record must then provide exactly the same keys.
        """
        if schema is None:
            if not records:
                raise RelationError("cannot infer a schema from an empty record list")
            schema = RelationSchema(list(records[0].keys()))
        elif not isinstance(schema, RelationSchema):
            schema = RelationSchema(schema)
        names = schema.names
        rows = []
        for i, record in enumerate(records):
            missing = set(names) - set(record)
            if missing:
                raise RelationError(f"record {i} is missing attributes {sorted(missing)}")
            rows.append(tuple(record[n] for n in names))
        return cls(name, schema, rows)

    @classmethod
    def from_columns(cls, name: str, columns: Mapping[str, Sequence[Any]]) -> "Relation":
        """Build a relation from a column-name -> values mapping."""
        if not columns:
            raise RelationError("cannot build a relation from an empty column mapping")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) != 1:
            raise RelationError(f"columns have inconsistent lengths: {sorted(lengths)}")
        schema = RelationSchema(list(columns.keys()))
        rows = list(zip(*columns.values()))
        return cls(name, schema, rows)

    @classmethod
    def from_codes(
        cls,
        name: str,
        schema: RelationSchema | Sequence[Attribute | str],
        columns: Sequence[tuple[Sequence[int], Sequence[Any]]],
    ) -> "Relation":
        """Build a relation from per-column ``(codes, dictionary)`` pairs.

        The inverse of (:meth:`column_codes`, :meth:`column_dictionary`):
        ``columns`` holds one pair per schema attribute, where ``codes`` are
        dense integers assigned in first-appearance order and ``dictionary``
        decodes them.  Codes are validated to *be* first-appearance dense —
        that invariant is what lets them be stored as the relation's
        encoding, so a round-tripped relation hashes bit-identically (same
        :meth:`content_hash`) without a second encoding pass.  Rows are
        decoded only on demand.
        """
        if not isinstance(schema, RelationSchema):
            schema = RelationSchema(schema)
        if len(columns) != len(schema):
            raise RelationError(
                f"relation {name!r} got {len(columns)} code columns, "
                f"schema expects {len(schema)}"
            )
        lengths = {len(codes) for codes, _ in columns}
        if len(lengths) > 1:
            raise RelationError(f"code columns have inconsistent lengths: {sorted(lengths)}")
        entries: dict[str, ColumnEntry] = {}
        for attribute, (codes, dictionary) in zip(schema.names, columns):
            codes = array("q", codes)
            counts: list[int] = []
            for code in codes:
                if code == len(counts):
                    counts.append(1)
                elif 0 <= code < len(counts):
                    counts[code] += 1
                else:
                    raise RelationError(
                        f"column {attribute!r} of relation {name!r} is not a "
                        f"first-appearance dense encoding (code {code} after "
                        f"{len(counts)} distinct values)"
                    )
            if len(counts) != len(dictionary):
                raise RelationError(
                    f"column {attribute!r} of relation {name!r} uses {len(counts)} "
                    f"codes but its dictionary holds {len(dictionary)} values"
                )
            entries[attribute] = (codes, len(counts), counts, list(dictionary))
        relation = Relation._derived(name, schema, lengths.pop() if lengths else 0, None)
        relation._columns.update(entries)
        return relation

    @classmethod
    def empty(cls, name: str, schema: RelationSchema | Sequence[str]) -> "Relation":
        """An empty relation over ``schema``."""
        return cls(name, schema, [])

    # -- pretty printing ------------------------------------------------------
    def to_text(self, limit: int = 20) -> str:
        """Render the relation as an ASCII table (truncated to ``limit`` rows)."""
        names = self.attribute_names
        rows = self.rows
        shown = [tuple("NULL" if v is None else str(v) for v in row) for row in rows[:limit]]
        widths = [len(n) for n in names]
        for row in shown:
            for i, value in enumerate(row):
                widths[i] = max(widths[i], len(value))
        header = " | ".join(n.ljust(widths[i]) for i, n in enumerate(names))
        separator = "-+-".join("-" * w for w in widths)
        lines = [header, separator]
        for row in shown:
            lines.append(" | ".join(v.ljust(widths[i]) for i, v in enumerate(row)))
        if len(rows) > limit:
            lines.append(f"... ({len(rows) - limit} more rows)")
        return "\n".join(lines)


def validate_same_schema(left: Relation, right: Relation) -> None:
    """Raise :class:`SchemaError` unless both relations share attribute names."""
    if left.schema.names != right.schema.names:
        raise SchemaError(
            f"relations {left.name!r} and {right.name!r} have different schemas: "
            f"{left.schema.names} vs {right.schema.names}"
        )
