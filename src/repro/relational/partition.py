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
``refines`` are single-pass probe-table algorithms over reusable
``n_rows``-sized scratch tables (row -> group-id mark arrays, held in the
relation-scoped byte-budgeted
:class:`~repro.relational.backend.MarkTableCache`); the side with the smaller
``||π||`` is probed into the marks of the larger one, as in TANE's linear
partition product.  :func:`validate_level` hands a whole lattice level's
candidates to the kernel in one call, stacked across LHS partitions.  The
tuple-of-tuples view remains available through the backward-compatible
:attr:`StrippedPartition.groups` property.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .backend import (
    DEFAULT_MARK_CACHE,
    KERNEL,
    MarkTableCache,
    kernel_counters,
)
from .relation import Relation


def _marks_of(partition: "StrippedPartition") -> Sequence[int]:
    """Row position -> group id (or -1 for stripped singletons) of ``partition``.

    Served from the partition's relation-scoped mark cache (falling back to
    the process-wide default for partitions built without a relation, or
    whose weakly-bound cache died with its session).
    """
    cache = partition._mark_cache
    if cache is None:
        cache = DEFAULT_MARK_CACHE
    return cache.get(partition)


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

    __slots__ = (
        "positions",
        "offsets",
        "n_rows",
        "_groups_cache",
        "_mark_cache_ref",
        "__weakref__",
    )

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
        self._mark_cache_ref: "weakref.ref[MarkTableCache] | None" = None

    @property
    def _mark_cache(self) -> MarkTableCache | None:
        """The weakly-bound mark cache this partition was built under.

        The bound cache belongs to an engine state (one session's caches for
        one relation); holding it weakly means a partition that outlives its
        session never pins the dead session's tables in memory — once the
        owning state is collected, probes fall back to
        :data:`~repro.relational.backend.DEFAULT_MARK_CACHE`.
        """
        ref = self._mark_cache_ref
        if ref is None:
            return None
        return ref()

    @_mark_cache.setter
    def _mark_cache(self, cache: MarkTableCache | None) -> None:
        self._mark_cache_ref = None if cache is None else weakref.ref(cache)

    @classmethod
    def _from_flat(
        cls,
        positions: Sequence[int],
        offsets: Sequence[int],
        n_rows: int,
        mark_cache: MarkTableCache | None = None,
    ) -> "StrippedPartition":
        """Internal fast path: adopt already-built flat arrays (no copying)."""
        partition = object.__new__(cls)
        partition.positions = positions
        partition.offsets = offsets
        partition.n_rows = n_rows
        partition._groups_cache = None
        partition._mark_cache = mark_cache  # weakly bound (see the property)
        return partition

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_column(cls, relation: Relation, attribute: str) -> "StrippedPartition":
        """Build the stripped partition of a single attribute."""
        codes, n_codes, counts = relation._encode_column(attribute)
        positions, offsets = KERNEL.group_by_codes(codes, n_codes, counts)
        return cls._from_flat(positions, offsets, len(relation), relation.mark_cache)

    @classmethod
    def from_columns(cls, relation: Relation, attributes: Sequence[str]) -> "StrippedPartition":
        """Build the stripped partition of an attribute combination directly.

        Two or more attributes fold their column codes into dense row labels
        with :meth:`~repro.relational.backend.NumpyBackend.product_labels`;
        the groups come in ascending order of the code tuples.
        """
        if not attributes:
            # The empty attribute set puts every row in one class.
            partition = cls([range(len(relation))], len(relation))
            partition._mark_cache = relation.mark_cache
            return partition
        if len(attributes) == 1:
            return cls.from_column(relation, attributes[0])
        labels, n_labels = relation.column_codes(attributes[0])
        for attribute in attributes[1:]:
            labels, n_labels = KERNEL.product_labels(
                labels, n_labels, *relation.column_codes(attribute)
            )
        positions, offsets = KERNEL.group_by_codes(labels, n_labels)
        return cls._from_flat(positions, offsets, len(relation), relation.mark_cache)

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

    def g3_error(self) -> float:
        """The g3 measure used for approximate FDs when this partition refines RHS.

        Here this returns the *fraction of rows that must be removed* for the
        partition to become a key, which is the standard normalisation of the
        TANE error used for AFD thresholds.
        """
        if self.n_rows == 0:
            return 0.0
        return self.error / self.n_rows

    # -- operations -----------------------------------------------------------
    def intersect(self, other: "StrippedPartition") -> "StrippedPartition":
        """Partition product ``π(X) * π(Y) = π(XY)`` (linear-time algorithm).

        The side with the smaller ``||π||`` is probed, group by group, against
        the row -> group-id mark table of the larger side — TANE's linear
        product, with the mark tables amortised across calls by the
        relation-scoped byte-budgeted cache.
        """
        if self.n_rows != other.n_rows:
            raise ValueError("cannot intersect partitions over different relations")
        mark_cache = self._mark_cache if self._mark_cache is not None else other._mark_cache
        if len(self.positions) == 0 or len(other.positions) == 0:
            # A key on either side leaves only singletons in the product.
            empty_positions, empty_offsets = KERNEL.adopt_flat([], [0])
            return StrippedPartition._from_flat(
                empty_positions, empty_offsets, self.n_rows, mark_cache
            )
        if len(self.positions) <= len(other.positions):
            probe, build = self, other
        else:
            probe, build = other, self
        marks = _marks_of(build)
        positions, offsets = KERNEL.intersect_marks(
            probe.positions, probe.offsets, marks, build.n_groups
        )
        return StrippedPartition._from_flat(positions, offsets, self.n_rows, mark_cache)

    def refines(self, other: "StrippedPartition") -> bool:
        """Whether every class of ``self`` is contained in a class of ``other``.

        ``π(X) refines π(A)`` is exactly the condition for ``X -> A``.
        """
        if self.n_rows != other.n_rows:
            raise ValueError("cannot compare partitions over different relations")
        if len(self.positions) == 0:
            return True
        marks = _marks_of(other)
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


def fd_holds_fast(
    relation: Relation,
    lhs_partition: StrippedPartition,
    rhs: str,
) -> bool:
    """Check ``lhs -> rhs`` given the LHS partition, without building ``lhs ∪ {rhs}``.

    Verifies that the RHS *code* (from the relation's cached column encoding)
    is constant within every non-singleton LHS equivalence class; a cheap
    first-two-members prescreen makes the (frequent) *failing* checks of
    selective mining almost free.
    """
    codes, _ = relation.column_codes(rhs)
    return KERNEL.constant_within_groups(lhs_partition.positions, lhs_partition.offsets, codes)


def fd_violation_fraction_from_partition(
    relation: Relation,
    lhs_partition: StrippedPartition,
    rhs: str,
) -> float:
    """The g3 error of ``lhs -> rhs`` given an already-built LHS partition.

    For every equivalence class of the LHS partition, all rows except those
    carrying the most frequent RHS value must be removed; g3 is the total
    number of such removals divided by the relation size.  RHS values are
    compared through the relation's cached integer codes.
    """
    n_rows = len(relation)
    if not n_rows:
        return 0.0
    codes, _ = relation.column_codes(rhs)
    removals = KERNEL.g3_removals(lhs_partition.positions, lhs_partition.offsets, codes)
    return removals / n_rows


def fd_violation_fraction(
    relation: Relation, lhs: Iterable[str], rhs: str, cache: PartitionCache | None = None
) -> float:
    """The g3 error of ``lhs -> rhs``: fraction of rows to drop for it to hold."""
    lhs = sorted(set(lhs))
    if not len(relation):
        return 0.0
    if rhs in lhs:
        return 0.0
    if cache is None:
        cache = PartitionCache(relation)
    return fd_violation_fraction_from_partition(relation, cache.get(lhs), rhs)


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
    TANE/FUN/ApproximateTANE pay dispatch overhead per level rather than per
    candidate or per LHS.  Verdicts come back in input order, identical to
    the per-candidate :func:`fd_holds_fast` checks.
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

    The batched counterpart of :func:`fd_violation_fraction_from_partition`,
    used by approximate discovery to grade a whole lattice level in one
    kernel call (``validate_level_error_groups``).
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
