"""Naive (brute-force) FD discovery.

Enumerates the candidate lattice breadth-first and validates every candidate
against the data with stripped partitions.  It is exponential and makes no
attempt at cleverness beyond minimality pruning; its role in this repository
is to act as the *test oracle* against which TANE, FUN, FastFDs, HyFD and
InFine are verified on small instances.
"""

from __future__ import annotations

from itertools import combinations

from ..fd.fd import FD
from ..relational.partition import PartitionCache
from ..relational.relation import Relation
from .base import DiscoveryStats, FDDiscoveryAlgorithm


class NaiveFDDiscovery(FDDiscoveryAlgorithm):
    """Breadth-first brute-force discovery of all minimal canonical FDs."""

    name = "naive"

    def _run(self, relation: Relation, attributes: tuple[str, ...]):
        stats = DiscoveryStats()
        cache = PartitionCache(relation)
        results: list[FD] = []
        # minimal LHSs discovered so far, per RHS attribute.
        minimal_lhs: dict[str, list[frozenset[str]]] = {a: [] for a in attributes}

        if not len(relation):
            # Every FD holds vacuously on an empty instance.
            return [FD((), attribute) for attribute in attributes], stats

        # Level 0: constant attributes yield empty-LHS FDs.
        for attribute in attributes:
            stats.candidates_checked += 1
            stats.validations += 1
            if cache.get([attribute]).distinct_count <= 1:
                results.append(FD((), attribute))
                minimal_lhs[attribute].append(frozenset())

        max_lhs = self._effective_max_lhs(len(attributes))
        for size in range(1, max_lhs + 1):
            stats.levels = size
            for lhs in combinations(sorted(attributes), size):
                lhs_set = frozenset(lhs)
                lhs_partition = cache.get(lhs_set)
                for rhs in attributes:
                    if rhs in lhs_set:
                        continue
                    if any(previous <= lhs_set for previous in minimal_lhs[rhs]):
                        continue  # a smaller LHS already determines rhs
                    stats.candidates_checked += 1
                    stats.validations += 1
                    if lhs_partition.error == cache.get(lhs_set | {rhs}).error:
                        results.append(FD(lhs_set, rhs))
                        minimal_lhs[rhs].append(lhs_set)
        return results, stats
