"""FUN: FD discovery driven by free sets and cardinalities.

Port of the algorithm of Novelli and Cicchetti ("FUN: An Efficient Algorithm
for Mining Functional and Embedded Dependencies", ICDT 2001).  FUN explores
the lattice of *free sets* — attribute sets whose cardinality (number of
distinct value combinations) is strictly greater than the cardinality of each
of their proper subsets — and decides FD validity by cardinality equality:

    ``X -> a`` holds  iff  ``|π_X(r)| = |π_{X ∪ {a}}(r)|``.

Only free sets can be minimal left-hand sides, so non-free candidates are
pruned from the level-wise exploration, which is the distinguishing feature
of FUN compared to TANE's C+ machinery.
"""

from __future__ import annotations

from ..fd.fd import FD
from ..relational.partition import PartitionCache, make_partition_cache, validate_level
from ..relational.relation import Relation
from .base import DiscoveryStats, FDDiscoveryAlgorithm

AttributeSet = frozenset[str]


class FUN(FDDiscoveryAlgorithm):
    """Cardinality-based, free-set-driven FD discovery (FUN)."""

    name = "fun"

    def _run(self, relation: Relation, attributes: tuple[str, ...]):
        stats = DiscoveryStats()
        results: list[FD] = []
        if not attributes:
            return results, stats
        if not len(relation):
            # Every FD holds vacuously on an empty instance.
            return [FD((), attribute) for attribute in attributes], stats

        cache = make_partition_cache(relation)
        n_rows = len(relation)
        cardinality: dict[AttributeSet, int] = {frozenset(): 1}
        minimal_lhs: dict[str, list[AttributeSet]] = {a: [] for a in attributes}

        # Level 0: constant attributes.  Cardinalities of single attributes
        # come straight from the relation's cached integer encodings — no
        # partition needs to be materialised for attributes that the free-set
        # walk never revisits.
        for attribute in attributes:
            stats.validations += 1
            card = relation.column_code_count(attribute)
            cardinality[frozenset({attribute})] = card
            if card <= 1:
                results.append(FD((), attribute))
                minimal_lhs[attribute].append(frozenset())

        # Level 1 candidates: singletons are free sets unless constant
        # (a constant attribute has the same cardinality as the empty set).
        level: list[AttributeSet] = [
            frozenset({a}) for a in sorted(attributes) if cardinality[frozenset({a})] > 1
        ]
        max_lhs = self._effective_max_lhs(len(attributes))
        size = 1

        while level and size <= max_lhs:
            stats.levels = size
            free_sets: list[AttributeSet] = []
            # FD tests of one level are mutually independent (two distinct
            # same-size LHSs can never dominate each other), so the whole
            # level is validated as one batch: every surviving RHS candidate
            # of a free set becomes one (LHS partition, RHS) pair and the
            # kernel answers all pairs sharing an LHS in a single pass.
            pending: list[tuple[AttributeSet, str]] = []
            for candidate in level:
                candidate_card = self._cardinality(candidate, cardinality, cache)
                # Free-set test: strictly larger cardinality than all subsets.
                is_free = all(
                    self._cardinality(candidate - {attribute}, cardinality, cache)
                    < candidate_card
                    for attribute in candidate
                )
                if not is_free:
                    continue
                free_sets.append(candidate)
                # FD test against every attribute outside the candidate.
                for rhs in attributes:
                    if rhs in candidate:
                        continue
                    if any(previous <= candidate for previous in minimal_lhs[rhs]):
                        continue
                    stats.candidates_checked += 1
                    stats.validations += 1
                    pending.append((candidate, rhs))
                # Keys need no expansion: any superset FD would be non-minimal.
                if candidate_card == n_rows:
                    free_sets.pop()
            if pending:
                # One kernel call grades the entire level: candidates are
                # grouped by LHS partition and stacked across LHS groups, so
                # FUN pays per-level (not per-candidate) dispatch overhead.
                batch = [(cache.get(candidate), rhs) for candidate, rhs in pending]
                for (candidate, rhs), valid in zip(
                    pending, validate_level(relation, batch)
                ):
                    if valid:
                        results.append(FD(candidate, rhs))
                        minimal_lhs[rhs].append(candidate)
            level = self._next_level(free_sets)
            size += 1
        stats.extra["partition_cache"] = cache.stats.as_dict()
        return results, stats

    def _cardinality(
        self, attribute_set: AttributeSet, cardinality: dict[AttributeSet, int],
        cache: PartitionCache,
    ) -> int:
        cached = cardinality.get(attribute_set)
        if cached is not None:
            return cached
        value = cache.get(attribute_set).distinct_count
        cardinality[attribute_set] = value
        return value

    @staticmethod
    def _next_level(free_sets: list[AttributeSet]) -> list[AttributeSet]:
        """Prefix-join candidate generation restricted to surviving free sets."""
        next_level: set[AttributeSet] = set()
        current = set(free_sets)
        ordered = sorted(free_sets, key=lambda s: tuple(sorted(s)))
        for i, first in enumerate(ordered):
            first_sorted = tuple(sorted(first))
            for second in ordered[i + 1 :]:
                second_sorted = tuple(sorted(second))
                if first_sorted[:-1] != second_sorted[:-1]:
                    continue
                union = first | second
                if all(union - {attribute} in current for attribute in union):
                    next_level.add(union)
        return sorted(next_level, key=lambda s: tuple(sorted(s)))
