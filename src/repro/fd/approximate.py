"""Approximate functional dependencies (AFDs).

The paper's *upstaged* FDs are exactly the approximate FDs of a base table
that become exact once a selection or a join filters their violating tuples
(Section II, Definition 5 and Lemma 2).  This module provides the g3 error
measure and an AFD container used by the dataset generators and by tests to
verify the upstaging behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from ..relational.partition import (
    PartitionCache,
    fd_violation_fraction,
    validate_level_errors,
)
from ..relational.relation import Relation
from .fd import FD


@dataclass(frozen=True)
class ApproximateFD:
    """An FD together with its g3 error on a given instance."""

    dependency: FD
    error: float

    def is_exact(self, tolerance: float = 0.0) -> bool:
        """Whether the FD holds exactly (up to ``tolerance``)."""
        return self.error <= tolerance

    def __str__(self) -> str:
        return f"{self.dependency}  (g3={self.error:.4f})"


def g3_error(relation: Relation, dependency: FD, cache: PartitionCache | None = None) -> float:
    """The g3 error of ``dependency`` on ``relation``.

    g3 is the minimum fraction of rows that must be removed from the
    relation for the FD to hold exactly.
    """
    return fd_violation_fraction(relation, dependency.lhs, dependency.rhs, cache)


def holds_approximately(
    relation: Relation, dependency: FD, threshold: float, cache: PartitionCache | None = None
) -> bool:
    """Whether ``dependency`` holds on ``relation`` with g3 error at most ``threshold``."""
    return g3_error(relation, dependency, cache) <= threshold


def approximate_fds(
    relation: Relation,
    threshold: float,
    max_lhs: int = 2,
    attributes: Iterable[str] | None = None,
) -> list[ApproximateFD]:
    """Enumerate minimal approximate FDs with g3 error in ``(0, threshold]``.

    Exact FDs (error 0) are excluded — those are returned by the discovery
    algorithms; this function targets the "almost holds" dependencies that
    selections and joins can upstage into exact FDs.

    Parameters
    ----------
    relation:
        The instance to profile.
    threshold:
        Maximum admissible g3 error (e.g. ``0.05`` for "at most 5 % violating
        rows").
    max_lhs:
        Maximum LHS size to explore (AFDs of interest in the paper have small
        LHSs; the search is exponential in this bound).
    attributes:
        Optional attribute subset to restrict the search to.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive; use a discovery algorithm for exact FDs")
    names = tuple(attributes) if attributes is not None else relation.attribute_names
    cache = PartitionCache(relation)
    results: list[ApproximateFD] = []
    exact_or_afd: dict[str, list[frozenset[str]]] = {name: [] for name in names}

    for size in range(1, max_lhs + 1):
        for lhs in combinations(sorted(names), size):
            lhs_set = frozenset(lhs)
            # Skip non-minimal candidates: a subset already is exact or
            # within threshold for this RHS.  Minimality knowledge only ever
            # comes from strictly smaller LHSs, so the surviving RHSs of one
            # LHS can be graded as a single batch — one LHS partition (built
            # on first use), one kernel-level g3 call covering every RHS.
            rhs_batch = [
                rhs
                for rhs in names
                if rhs not in lhs_set
                and not any(previous <= lhs_set for previous in exact_or_afd[rhs])
            ]
            if not rhs_batch:
                continue
            if len(relation):
                lhs_partition = cache.get(lhs)
                errors = validate_level_errors(
                    relation, [(lhs_partition, rhs) for rhs in rhs_batch]
                )
            else:
                errors = [0.0] * len(rhs_batch)
            for rhs, error in zip(rhs_batch, errors):
                if error == 0.0:
                    exact_or_afd[rhs].append(lhs_set)
                    continue
                if error <= threshold:
                    exact_or_afd[rhs].append(lhs_set)
                    results.append(ApproximateFD(FD(lhs_set, rhs), error))
    return sorted(results, key=lambda afd: afd.dependency.sort_key())


def upstageable_fds(
    base: Relation,
    reduced: Relation,
    threshold: float = 1.0,
    max_lhs: int = 2,
) -> Iterator[ApproximateFD]:
    """AFDs of ``base`` that hold exactly on ``reduced``.

    ``reduced`` is typically a selection of ``base`` or the semi-join of
    ``base`` with the join-attribute values of another table; the yielded
    dependencies are precisely the candidates for *upstaged* provenance.
    """
    cache = PartitionCache(reduced)
    for approximate in approximate_fds(base, threshold, max_lhs):
        dependency = approximate.dependency
        if fd_violation_fraction(reduced, dependency.lhs, dependency.rhs, cache) == 0.0:
            yield approximate
