"""Stripped partitions (position list indexes) over a flat-array kernel.

A *partition* of a relation with respect to an attribute set ``X`` groups the
row positions that agree on ``X``.  The *stripped* partition drops singleton
groups; it is the central data structure of partition-based FD discovery
(TANE [Huhtala et al. 1999], FUN [Novelli & Cicchetti 2001]) and of the
validation steps used by InFine.

Key facts used by the algorithms:

* an FD ``X -> a`` holds iff the error of ``X`` equals the error of
  ``X ∪ {a}`` (equivalently, refining the partition of ``X`` by ``a`` does not
  split any group);
* partitions compose: ``partition(XY) = partition(X) * partition(Y)`` where
  ``*`` is the product implemented by :meth:`StrippedPartition.intersect`.

Kernel layout
-------------
Internally a partition is two flat arrays instead of tuples-of-tuples:

* ``positions`` — the row positions of all non-singleton groups, concatenated;
* ``offsets`` — group boundaries, so group ``i`` is
  ``positions[offsets[i]:offsets[i + 1]]``.

Construction goes through the relation's cached per-column integer encodings
(:meth:`~repro.relational.relation.Relation.column_codes`) and a counting
sort, so building, intersecting and refining partitions never hash raw row
values — only dense machine integers.  All probe loops run on the
vectorized kernel of :mod:`~repro.relational.backend`; ``intersect`` and
``refines`` are single-pass probes of one partition's groups against a
row -> class map of the other, TANE's linear partition product.  A
single-column partition's map is its column's cached codes, so no map is
ever built for it; any other partition's map is built for the one call.

FD checks on stripped partitions come in two forms.  Where both partitions
are at hand, ``X -> a`` holds iff ``e(X) == e(X ∪ {a})`` (:func:`fd_holds`;
TANE's walk decides this way).  Otherwise the kernel's two level passes
decide from the LHS partition and the RHS column's codes:
:func:`validate_level` (exact) and :func:`validate_level_errors` (g3) hand a
whole lattice level's candidates to the kernel in one call, stacked across
LHS partitions; :func:`fd_violation_fraction` grades one candidate through
the g3 pass.  The tuple-of-tuples view remains available through the
backward-compatible :attr:`StrippedPartition.groups` property.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .backend import KERNEL, kernel_counters
from .relation import Relation


class StrippedPartition:
    """A stripped partition over the row positions of a relation.

    Parameters
    ----------
    groups:
        Equivalence classes (lists of row positions) of size at least two.
    n_rows:
        Total number of rows of the underlying relation (needed to recover
        the number of singleton classes and compute errors).
    """

    __slots__ = ("positions", "offsets", "n_rows", "_groups_cache", "_column")

    def __init__(self, groups: Iterable[Sequence[int]], n_rows: int) -> None:
        positions: list[int] = []
        offsets: list[int] = [0]
        for group in groups:
            group = list(group)
            if len(group) > 1:
                positions.extend(group)
                offsets.append(len(positions))
        self.positions, self.offsets = KERNEL.adopt_flat(positions, offsets)
        self.n_rows = n_rows
        self._groups_cache: tuple[tuple[int, ...], ...] | None = None
        self._column: tuple[Sequence[int], int] | None = None

    @classmethod
    def _from_flat(
        cls,
        positions: Sequence[int],
        offsets: Sequence[int],
        n_rows: int,
        column: tuple[Sequence[int], int] | None = None,
    ) -> "StrippedPartition":
        """Internal fast path: adopt already-built flat arrays (no copying).

        ``column`` is the ``(codes, n_codes)`` encoding of the single column
        the partition groups, when it groups one.
        """
        partition = object.__new__(cls)
        partition.positions = positions
        partition.offsets = offsets
        partition.n_rows = n_rows
        partition._groups_cache = None
        partition._column = column
        return partition

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_column(cls, relation: Relation, attribute: str) -> "StrippedPartition":
        """Build the stripped partition of a single attribute."""
        codes, n_codes, counts = relation._encode_column(attribute)
        positions, offsets = KERNEL.group_by_codes(codes, n_codes, counts)
        # The relation's cached encoding, not a copy: it is the partition's
        # row -> class map in products and refinement checks.
        return cls._from_flat(positions, offsets, len(relation), (codes, n_codes))

    @classmethod
    def from_columns(cls, relation: Relation, attributes: Sequence[str]) -> "StrippedPartition":
        """Build the stripped partition of an attribute combination directly.

        Two or more attributes fold their column codes into dense row labels
        with :meth:`~repro.relational.backend.NumpyBackend.product_labels`;
        the groups come in ascending order of the code tuples.
        """
        if not attributes:
            # The empty attribute set puts every row in one class.
            return cls([range(len(relation))], len(relation))
        if len(attributes) == 1:
            return cls.from_column(relation, attributes[0])
        labels, n_labels = relation.column_codes(attributes[0])
        for attribute in attributes[1:]:
            labels, n_labels = KERNEL.product_labels(
                labels, n_labels, *relation.column_codes(attribute)
            )
        positions, offsets = KERNEL.group_by_codes(labels, n_labels)
        return cls._from_flat(positions, offsets, len(relation))

    # -- views ----------------------------------------------------------------
    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """The non-singleton classes as tuples (materialised lazily)."""
        cached = self._groups_cache
        if cached is None:
            positions, offsets = self.flat_lists()
            cached = tuple(
                tuple(positions[offsets[i] : offsets[i + 1]])
                for i in range(len(offsets) - 1)
            )
            self._groups_cache = cached
        return cached

    def flat_lists(self) -> tuple[list[int], list[int]]:
        """The flat ``(positions, offsets)`` arrays as plain python lists.

        One bulk ``tolist()`` per array.  This is the accessor pure-python
        consumers (FastFDs' pair enumeration, HyFD's focused sampling)
        iterate instead of materialising per-group lists: group ``i`` spans
        ``positions[offsets[i]:offsets[i + 1]]``.
        """
        return self.positions.tolist(), self.offsets.tolist()

    def iter_groups(self) -> Iterator[list[int]]:
        """Iterate over the classes as fresh lists, without caching tuples."""
        positions, offsets = self.flat_lists()
        start = offsets[0]
        for i in range(1, len(offsets)):
            end = offsets[i]
            yield positions[start:end]
            start = end

    # -- measures -------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        """Number of non-singleton equivalence classes."""
        return len(self.offsets) - 1

    @property
    def stripped_size(self) -> int:
        """Total number of positions kept in non-singleton classes (``||π||``)."""
        return len(self.positions)

    @property
    def error(self) -> int:
        """The TANE error ``e(X) = ||π|| - |π|``.

        ``X -> a`` holds exactly iff ``error(X) == error(X ∪ {a})``.
        """
        return len(self.positions) - (len(self.offsets) - 1)

    @property
    def distinct_count(self) -> int:
        """Number of distinct values (classes including singletons)."""
        return self.n_rows - len(self.positions) + (len(self.offsets) - 1)

    def is_key(self) -> bool:
        """Whether the attribute set is a (super)key: every class is a singleton."""
        return len(self.positions) == 0

    # -- operations -----------------------------------------------------------
    def _class_map(self) -> tuple[Sequence[int], int]:
        """Row -> class map of the partition and the bound of its values.

        A single-column partition's map is its column's codes.  A value that
        occurs once in the column is a class of one row, and products and
        refinement checks never keep such a class, so the codes serve as they
        are.  Any other partition's map is built for the call: group ids,
        ``-1`` for the stripped singletons.
        """
        if self._column is not None:
            return self._column
        return KERNEL.build_marks(self.positions, self.offsets, self.n_rows), self.n_groups

    def intersect(self, other: "StrippedPartition") -> "StrippedPartition":
        """Partition product ``π(X) * π(Y) = π(XY)`` (linear-time algorithm).

        One side is probed, group by group, against the row -> class map of
        the other (the build side) — TANE's linear product.  A single-column
        side is the build side, so its map is its column's codes; otherwise
        the side with the larger ``||π||`` is.
        """
        if self.n_rows != other.n_rows:
            raise ValueError("cannot intersect partitions over different relations")
        if len(self.positions) == 0 or len(other.positions) == 0:
            # A key on either side leaves only singletons in the product.
            empty_positions, empty_offsets = KERNEL.adopt_flat([], [0])
            return StrippedPartition._from_flat(empty_positions, empty_offsets, self.n_rows)
        if (self._column is None) != (other._column is None):
            build_self = self._column is not None
        else:
            build_self = len(self.positions) > len(other.positions)
        probe, build = (other, self) if build_self else (self, other)
        positions, offsets = KERNEL.intersect_marks(
            probe.positions, probe.offsets, *build._class_map()
        )
        return StrippedPartition._from_flat(positions, offsets, self.n_rows)

    def refines(self, other: "StrippedPartition") -> bool:
        """Whether every class of ``self`` is contained in a class of ``other``.

        ``π(X) refines π(A)`` is exactly the condition for ``X -> A``.
        """
        if self.n_rows != other.n_rows:
            raise ValueError("cannot compare partitions over different relations")
        if len(self.positions) == 0:
            return True
        marks, _ = other._class_map()
        return KERNEL.refines_marks(self.positions, self.offsets, marks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StrippedPartition):
            return NotImplemented
        mine = {frozenset(group) for group in self.iter_groups()}
        theirs = {frozenset(group) for group in other.iter_groups()}
        return self.n_rows == other.n_rows and mine == theirs

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.n_rows, frozenset(frozenset(g) for g in self.iter_groups())))

    def __repr__(self) -> str:
        return f"StrippedPartition(groups={self.n_groups}, rows={self.n_rows}, error={self.error})"


@dataclass
class PartitionCacheStats:
    """Hit/miss counters of one :class:`PartitionCache`."""

    hits: int = 0
    misses: int = 0

    @property
    def requests(self) -> int:
        """Total number of :meth:`PartitionCache.get` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests answered from the cache (0.0 when unused)."""
        requests = self.hits + self.misses
        return self.hits / requests if requests else 0.0

    def as_dict(self) -> dict[str, int | float]:
        """Plain-dict view for ``DiscoveryStats.extra`` reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }


class PartitionCache:
    """Memoising cache of stripped partitions for one relation.

    Attribute combinations are cached by frozenset of attribute names and
    kept for the cache's lifetime.  Single attributes (and the empty set)
    are built directly from the column encodings; a larger combination is
    the product of a cached one-smaller subset and one single attribute.
    When several one-smaller subsets are cached, the one with the fewest
    groups is chosen as the composition base (fewest groups ⇒ cheapest
    product).  :attr:`stats` reports hits and misses (also mirrored into
    the active engine state's kernel counters).

    The cache holds its relation weakly.  A session keeps one cache per
    relation for as long as the relation lives, so a strong reference would
    keep every relation the session ever saw alive.  Callers keep the
    relation referenced while they use the cache.
    """

    def __init__(self, relation: Relation) -> None:
        self._relation_ref = weakref.ref(relation)
        self.stats = PartitionCacheStats()
        self._partitions: dict[frozenset[str], StrippedPartition] = {}

    @property
    def relation(self) -> Relation:
        """The relation whose partitions are cached."""
        relation = self._relation_ref()
        if relation is None:
            raise ReferenceError("the relation of this PartitionCache was garbage collected")
        return relation

    def get(self, attributes: Iterable[str]) -> StrippedPartition:
        """Return (computing and caching if needed) the partition of ``attributes``."""
        counters = kernel_counters()
        key = frozenset(attributes)
        cached = self._partitions.get(key)
        if cached is not None:
            self.stats.hits += 1
            counters.partition_hits += 1
            return cached
        self.stats.misses += 1
        counters.partition_misses += 1
        partition = self._partitions[key] = self._compute(key)
        return partition

    def _compute(self, key: frozenset[str]) -> StrippedPartition:
        if len(key) <= 1:
            return StrippedPartition.from_columns(self.relation, sorted(key))
        # Compose from the cached one-smaller subset with the fewest groups
        # (typical for level-wise exploration, where all subsets were
        # requested earlier).
        best_subset: frozenset[str] | None = None
        best: StrippedPartition | None = None
        for attribute in sorted(key):
            subset = key - {attribute}
            partition = self._partitions.get(subset)
            if partition is None:
                continue
            if best is None or (partition.n_groups, partition.stripped_size) < (
                best.n_groups,
                best.stripped_size,
            ):
                best_subset, best = subset, partition
        if best is not None and best_subset is not None:
            missing = next(iter(key - best_subset))
            return best.intersect(self.get([missing]))
        # Otherwise build recursively so every prefix ends up cached and can
        # be reused by sibling candidates.
        first = sorted(key)[0]
        return self.get(key - {first}).intersect(self.get([first]))

    def __len__(self) -> int:
        return len(self._partitions)


def fd_holds(
    relation: Relation, lhs: Iterable[str], rhs: str, cache: PartitionCache | None = None
) -> bool:
    """Check whether the FD ``lhs -> rhs`` holds on ``relation``.

    Uses partition errors; a :class:`PartitionCache` can be supplied to share
    work across many checks on the same relation.
    """
    lhs = sorted(set(lhs))
    if rhs in lhs:
        return True
    if cache is None:
        cache = PartitionCache(relation)
    lhs_partition = cache.get(lhs)
    full_partition = cache.get(list(lhs) + [rhs])
    return lhs_partition.error == full_partition.error


def fd_violation_fraction(
    relation: Relation, lhs: Iterable[str], rhs: str, cache: PartitionCache | None = None
) -> float:
    """The g3 error of ``lhs -> rhs``: fraction of rows to drop for it to hold.

    For every class of the LHS partition, all rows except those carrying the
    class's most frequent RHS code must go.  The one candidate is graded as
    a level of one by :func:`validate_level_errors`.
    """
    lhs = sorted(set(lhs))
    if not len(relation) or rhs in lhs:
        return 0.0
    if cache is None:
        cache = PartitionCache(relation)
    return validate_level_errors(relation, [(cache.get(lhs), rhs)])[0]


# ---------------------------------------------------------------------------
# Batched candidate validation (one lattice level at a time).
# ---------------------------------------------------------------------------


def validate_level(
    relation: Relation,
    candidates: Sequence[tuple[StrippedPartition, str]],
) -> list[bool]:
    """Exact validity of a batch of ``(lhs_partition, rhs)`` candidates.

    ``X -> a`` holds iff the codes of ``a`` are constant within every
    non-singleton class of ``π(X)``.  The whole level is handed to the
    kernel as **one call** (``validate_level_groups``): candidates are
    grouped by identical LHS partition, and candidates of *different* LHS
    partitions that check the same RHS column share stacked gathers, so
    FUN, ApproximateTANE and the session's ``validate`` pay dispatch
    overhead per level rather than per candidate or per LHS.  Verdicts come
    back in input order; each equals :func:`fd_holds`' error equality.
    """
    if not candidates:
        return []
    results = [True] * len(candidates)
    if not len(relation):
        # Every FD holds vacuously on an empty instance.
        return results
    _count_batch(len(candidates))
    level_groups, slots = _level_groups(relation, candidates)
    for indices, verdicts in zip(slots, KERNEL.validate_level_groups(level_groups)):
        for index, verdict in zip(indices, verdicts):
            results[index] = verdict
    return results


def validate_level_errors(
    relation: Relation,
    candidates: Sequence[tuple[StrippedPartition, str]],
) -> list[float]:
    """Batched g3 errors of ``(lhs_partition, rhs)`` candidates (input order).

    Approximate discovery grades a whole lattice level in one kernel call
    (``validate_level_error_groups``); :func:`fd_violation_fraction` grades
    one candidate the same way.
    """
    if not candidates:
        return []
    n_rows = len(relation)
    errors = [0.0] * len(candidates)
    if not n_rows:
        return errors
    _count_batch(len(candidates))
    level_groups, slots = _level_groups(relation, candidates)
    for indices, removals in zip(slots, KERNEL.validate_level_error_groups(level_groups)):
        for index, removed in zip(indices, removals):
            errors[index] = removed / n_rows
    return errors


def _count_batch(n_candidates: int) -> None:
    """Account one batched lattice level in the active kernel counters."""
    counters = kernel_counters()
    counters.batched_levels += 1
    counters.batched_candidates += n_candidates


def _group_by_partition(
    candidates: Sequence[tuple[StrippedPartition, str]],
) -> Iterator[tuple[StrippedPartition, list[int]]]:
    """Group candidate indices by (identical) LHS partition, input order kept."""
    grouped: "OrderedDict[int, tuple[StrippedPartition, list[int]]]" = OrderedDict()
    for index, (partition, _) in enumerate(candidates):
        entry = grouped.get(id(partition))
        if entry is None:
            grouped[id(partition)] = (partition, [index])
        else:
            entry[1].append(index)
    return iter(grouped.values())


def _level_groups(
    relation: Relation,
    candidates: Sequence[tuple[StrippedPartition, str]],
) -> tuple[list[tuple], list[list[int]]]:
    """The level's ``(positions, offsets, codes_list)`` triples + index slots.

    One triple per distinct non-superkey LHS partition (superkey LHSs are
    dropped — they validate every RHS with zero violations, matching the
    defaults of the callers' result arrays); ``slots[i]`` holds the original
    candidate indices answered by the kernel's ``i``-th verdict list.  RHS
    code columns come from the relation's per-attribute cache, so candidates
    sharing an attribute hand the kernel the *same* object — the hook the
    kernel keys its cross-LHS column stacking on.
    """
    level_groups: list[tuple] = []
    slots: list[list[int]] = []
    for partition, indices in _group_by_partition(candidates):
        if len(partition.positions) == 0:
            continue
        codes_list = [relation.column_codes(candidates[i][1])[0] for i in indices]
        level_groups.append((partition.positions, partition.offsets, codes_list))
        slots.append(indices)
    return level_groups, slots
