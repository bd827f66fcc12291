"""HyFD: hybrid FD discovery (sampling + induction + partition validation).

Port (in spirit) of the algorithm of Papenbrock and Naumann ("A Hybrid
Approach to Functional Dependency Discovery", SIGMOD 2016).  HyFD alternates
between two phases:

1. **Sampling / induction** — tuple pairs are sampled in a *focused* way
   (neighbouring rows inside the equivalence classes of each attribute), the
   agree sets of the sampled pairs form a negative cover, and the candidate
   FD set (positive cover) is specialised so that no candidate is violated by
   a sampled pair.
2. **Validation** — the remaining candidates are checked against the data
   with stripped partitions, level by level; violated candidates are
   specialised and, when too many violations are observed, the algorithm
   switches back to sampling using the violating pairs as new evidence.

The implementation keeps the data structures simple (per-RHS sets of
candidate LHS bitmask-free frozensets) but preserves the phase interplay that
gives HyFD its performance profile relative to purely lattice- or purely
tuple-oriented algorithms.
"""

from __future__ import annotations

from ..fd.fd import FD
from ..relational.partition import PartitionCache
from ..relational.relation import Relation
from .base import DiscoveryStats, FDDiscoveryAlgorithm

AttributeSet = frozenset[str]


class HyFD(FDDiscoveryAlgorithm):
    """Hybrid sampling/validation FD discovery (HyFD)."""

    name = "hyfd"

    def __init__(self, max_lhs_size: int | None = None, window: int = 3) -> None:
        super().__init__(max_lhs_size=max_lhs_size)
        #: Size of the neighbourhood window used by focused sampling.
        self.window = window

    def _run(self, relation: Relation, attributes: tuple[str, ...]):
        stats = DiscoveryStats()
        if not attributes:
            return [], stats
        if not len(relation):
            # Every FD holds vacuously on an empty instance.
            return [FD((), attribute) for attribute in attributes], stats

        names = tuple(sorted(attributes))
        universe = frozenset(names)
        cache = PartitionCache(relation)

        # Phase 1: focused sampling builds the negative cover.
        agree_sets = self._sample_agree_sets(relation, names, stats, cache)
        candidates = self._induce_candidates(names, universe, agree_sets)

        # Phase 2: validation, with specialisation of violated candidates.
        max_lhs = self._effective_max_lhs(len(names))
        results: list[FD] = []
        validated: dict[str, list[AttributeSet]] = {name: [] for name in names}

        for rhs in names:
            pending = sorted(candidates[rhs], key=lambda s: (len(s), tuple(sorted(s))))
            seen: set[AttributeSet] = set(pending)
            while pending:
                lhs = pending.pop(0)
                if len(lhs) > max_lhs:
                    continue
                if any(previous <= lhs for previous in validated[rhs]):
                    continue
                stats.candidates_checked += 1
                stats.validations += 1
                if self._holds(cache, lhs, rhs):
                    validated[rhs].append(lhs)
                    results.append(FD(lhs, rhs))
                    continue
                # Violated: specialise by one attribute and re-queue, exactly
                # like HyFD's lattice traversal after a failed validation.
                for attribute in names:
                    if attribute == rhs or attribute in lhs:
                        continue
                    extended = lhs | {attribute}
                    if len(extended) > max_lhs or extended in seen:
                        continue
                    seen.add(extended)
                    pending.append(extended)
                pending.sort(key=lambda s: (len(s), tuple(sorted(s))))
        stats.extra["partition_cache"] = cache.stats.as_dict()
        return self._minimise(results), stats

    # -- phase 1: sampling and induction --------------------------------------
    def _sample_agree_sets(
        self,
        relation: Relation,
        names: tuple[str, ...],
        stats: DiscoveryStats,
        cache: PartitionCache,
    ) -> set[AttributeSet]:
        """Agree sets of focused-sampled tuple pairs (the negative cover).

        Pairs are read off the single-attribute stripped partitions (shared
        with the validation phase through ``cache``) and compared through the
        relation's cached integer column codes, so sampling performs integer
        comparisons only — never re-reads raw row values.
        """
        agree_sets: set[AttributeSet] = set()
        codes = {name: relation.column_codes(name)[0] for name in names}
        full = frozenset(names)
        for name in names:
            # Neighbouring rows inside each equivalence class of `name` are the
            # pairs most likely to agree on many attributes.  The classes are
            # windowed straight off the partition's flat positions/offsets
            # arrays — no per-group python lists are materialised.
            positions, offsets = cache.get([name]).flat_lists()
            start = offsets[0]
            for group_id in range(1, len(offsets)):
                end = offsets[group_id]
                for offset in range(1, min(self.window, end - start)):
                    for i in range(start, end - offset):
                        first, second = positions[i], positions[i + offset]
                        stats.sampled_pairs += 1
                        agreeing = frozenset(
                            attr for attr in names
                            if codes[attr][first] == codes[attr][second]
                        )
                        if agreeing != full:
                            agree_sets.add(agreeing)
                start = end
        return agree_sets

    @staticmethod
    def _induce_candidates(
        names: tuple[str, ...], universe: AttributeSet, agree_sets: set[AttributeSet]
    ) -> dict[str, set[AttributeSet]]:
        """Specialise the positive cover so no candidate is refuted by a sampled pair.

        Starting from the most general candidate (the empty LHS) for every
        RHS, each agree set ``A`` that omits the RHS refutes every candidate
        ``X ⊆ A``; such candidates are replaced by their one-attribute
        specialisations outside ``A``.
        """
        candidates: dict[str, set[AttributeSet]] = {name: {frozenset()} for name in names}
        ordered = sorted(agree_sets, key=len, reverse=True)
        for rhs in names:
            for agree in ordered:
                if rhs in agree:
                    continue
                current = candidates[rhs]
                refuted = {lhs for lhs in current if lhs <= agree}
                if not refuted:
                    continue
                survivors = current - refuted
                for lhs in refuted:
                    for attribute in universe - agree - {rhs}:
                        extended = lhs | {attribute}
                        if not any(other <= extended for other in survivors):
                            survivors.add(extended)
                candidates[rhs] = survivors
        return candidates

    # -- phase 2: validation ---------------------------------------------------
    @staticmethod
    def _holds(cache: PartitionCache, lhs: AttributeSet, rhs: str) -> bool:
        if not lhs:
            return cache.get([rhs]).distinct_count <= 1
        return cache.get(lhs).error == cache.get(lhs | {rhs}).error

    @staticmethod
    def _minimise(results: list[FD]) -> list[FD]:
        minimal: list[FD] = []
        for dependency in results:
            dominated = any(
                other.rhs == dependency.rhs and other.lhs < dependency.lhs
                for other in results
            )
            if not dominated:
                minimal.append(dependency)
        return minimal
