"""TANE: level-wise FD discovery with stripped partitions.

Port of the algorithm of Huhtala, Kärkkäinen, Porkka and Toivonen
("TANE: An Efficient Algorithm for Discovering Functional and Approximate
Dependencies", The Computer Journal 42(2), 1999).  The implementation follows
the published pseudo-code: candidate attribute sets are explored level by
level through the containment lattice, right-hand-side candidate sets
``C+(X)`` prune the search, superkeys terminate branches early, and validity
is decided by comparing stripped-partition errors.
"""

from __future__ import annotations

from ..fd.fd import FD
from ..relational.partition import StrippedPartition, validate_level, validate_level_errors
from ..relational.relation import Relation
from .base import DiscoveryStats, FDDiscoveryAlgorithm

AttributeSet = frozenset[str]

#: One candidate dependency of a lattice level: (candidate set, RHS, LHS).
LevelCheck = tuple[AttributeSet, str, AttributeSet]


class TANE(FDDiscoveryAlgorithm):
    """Level-wise FD discovery using partition refinement (TANE)."""

    name = "tane"

    def _run(self, relation: Relation, attributes: tuple[str, ...]):
        stats = DiscoveryStats()
        results: list[FD] = []
        if not attributes:
            return results, stats
        if not len(relation):
            # Every FD holds vacuously on an empty instance; the minimal ones
            # have an empty left-hand side.
            return [FD((), attribute) for attribute in attributes], stats

        universe: AttributeSet = frozenset(attributes)
        n_rows = len(relation)

        # Partitions per candidate set; level 0 and 1 computed directly.
        partitions: dict[AttributeSet, StrippedPartition] = {
            frozenset(): StrippedPartition([list(range(n_rows))], n_rows)
        }
        for attribute in attributes:
            partitions[frozenset({attribute})] = StrippedPartition.from_column(
                relation, attribute
            )

        # Right-hand-side candidate sets C+.
        cplus: dict[AttributeSet, AttributeSet] = {frozenset(): universe}

        level: list[AttributeSet] = [frozenset({a}) for a in sorted(attributes)]
        max_level = self._effective_max_lhs(len(attributes)) + 1
        current_size = 1

        while level and current_size <= max_level:
            stats.levels = current_size
            self._compute_dependencies(
                relation, level, cplus, partitions, universe, results, stats
            )
            level = self._prune(level, cplus, partitions, universe, results, stats)
            if current_size == max_level:
                break
            level = self._generate_next_level(level, partitions, stats)
            current_size += 1

        # The key-pruning rule can emit a dependency whose minimality check
        # referred to a candidate set pruned in an earlier level; a final
        # minimality pass removes any such redundant specialisation.
        minimal: list[FD] = []
        for dependency in results:
            dominated = any(
                other.rhs == dependency.rhs and other.lhs < dependency.lhs
                for other in results
            )
            if not dominated:
                minimal.append(dependency)
        return minimal, stats

    # -- TANE procedures ------------------------------------------------------
    def _compute_dependencies(
        self,
        relation: Relation,
        level: list[AttributeSet],
        cplus: dict[AttributeSet, AttributeSet],
        partitions: dict[AttributeSet, StrippedPartition],
        universe: AttributeSet,
        results: list[FD],
        stats: DiscoveryStats,
    ) -> None:
        # C+(X) = ∩_{A ∈ X} C+(X \ {A})
        for candidate in level:
            rhs_candidates = universe
            for attribute in candidate:
                rhs_candidates = rhs_candidates & cplus.get(candidate - {attribute}, universe)
            cplus[candidate] = rhs_candidates

        # The RHS iteration sets are snapshotted per candidate before any
        # validation, and a validation verdict only ever updates the C+ set
        # of its *own* candidate — so the whole level can be validated as one
        # batch (ApproximateTANE grades it in one kernel pass) and the
        # verdicts applied afterwards in the original order.
        checks: list[LevelCheck] = []
        for candidate in level:
            for attribute in sorted(candidate & cplus[candidate]):
                checks.append((candidate, attribute, candidate - {attribute}))
        verdicts = self._validate_level(relation, checks, partitions)
        for (candidate, attribute, lhs), valid in zip(checks, verdicts):
            stats.candidates_checked += 1
            stats.validations += 1
            if valid:
                results.append(FD(lhs, attribute))
                new_rhs = set(cplus[candidate])
                new_rhs.discard(attribute)
                new_rhs -= universe - candidate
                cplus[candidate] = frozenset(new_rhs)

    def _validate_level(
        self,
        relation: Relation,
        checks: list[LevelCheck],
        partitions: dict[AttributeSet, StrippedPartition],
    ) -> list[bool]:
        """Validity verdicts for one lattice level's candidates (input order).

        ``relation`` is the instance the partitions were built from; the
        walk holds ``π(candidate)`` for every level member (level 1 comes
        from the columns, and each later member's product is stored when the
        level is generated), so ``lhs -> attribute`` holds exactly when the
        two partitions have equal errors.
        """
        return [
            partitions[lhs].error == partitions[candidate].error
            for candidate, _, lhs in checks
        ]

    def _prune(
        self,
        level: list[AttributeSet],
        cplus: dict[AttributeSet, AttributeSet],
        partitions: dict[AttributeSet, StrippedPartition],
        universe: AttributeSet,
        results: list[FD],
        stats: DiscoveryStats,
    ) -> list[AttributeSet]:
        kept: list[AttributeSet] = []
        max_lhs = self._effective_max_lhs(len(universe))
        for candidate in level:
            if not cplus[candidate]:
                continue
            if partitions[candidate].is_key():
                # The key rule emits ``candidate`` itself as a LHS; past the
                # LHS cap (the level ``max_lhs + 1`` walked to validate
                # size-``max_lhs`` LHSs) it would exceed the cap.
                emit = cplus[candidate] - candidate if len(candidate) <= max_lhs else ()
                for attribute in sorted(emit):
                    # The key-pruning rule: X -> A is output only if A remains
                    # a RHS candidate of every X ∪ {A} \ {B}.
                    in_all = True
                    for other in candidate:
                        superset = (candidate | {attribute}) - {other}
                        if attribute not in cplus.get(superset, universe):
                            in_all = False
                            break
                    if in_all:
                        stats.candidates_checked += 1
                        results.append(FD(candidate, attribute))
                continue  # superkeys are not expanded further
            kept.append(candidate)
        return kept

    def _generate_next_level(
        self,
        level: list[AttributeSet],
        partitions: dict[AttributeSet, StrippedPartition],
        stats: DiscoveryStats,
    ) -> list[AttributeSet]:
        next_level: list[AttributeSet] = []
        current = set(level)
        ordered = sorted(level, key=lambda s: tuple(sorted(s)))
        for i, first in enumerate(ordered):
            first_sorted = tuple(sorted(first))
            for second in ordered[i + 1 :]:
                second_sorted = tuple(sorted(second))
                # Prefix join: the two sets must share all but their last attribute.
                if first_sorted[:-1] != second_sorted[:-1]:
                    continue
                union = first | second
                # Keep the candidate only if every |union|-1 subset survived pruning.
                if all(
                    union - {attribute} in current for attribute in union
                ):
                    partitions[union] = partitions[first].intersect(
                        partitions[frozenset({second_sorted[-1]})]
                    )
                    next_level.append(union)
        return next_level


class ApproximateTANE(TANE):
    """TANE variant that accepts FDs with g3 error at most ``threshold``.

    Used to mirror the paper's mention of approximate FDs on the base tables
    (e.g. ``expire_flag ⇁ dod`` in PATIENT) when profiling candidate
    upstaged dependencies.
    """

    name = "tane-approximate"

    def __init__(self, threshold: float = 0.01, max_lhs_size: int | None = None) -> None:
        super().__init__(max_lhs_size=max_lhs_size)
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = threshold

    def _validate_level(self, relation, checks, partitions):
        """Batched g3 validation: exact pass first, then grade the failures.

        The whole level's exact checks run as one batched pass; only the
        failing candidates pay the (heavier) batched g3 counting.
        """
        batch = [(partitions[lhs], attribute) for _, attribute, lhs in checks]
        verdicts = validate_level(relation, batch)
        failing = [index for index, exact in enumerate(verdicts) if not exact]
        errors = validate_level_errors(relation, [batch[index] for index in failing])
        for index, error in zip(failing, errors):
            verdicts[index] = error <= self.threshold
        return verdicts
