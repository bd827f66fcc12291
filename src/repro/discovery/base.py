"""Common interface of the single-table FD discovery algorithms.

Every baseline (TANE, FUN, FastFDs, HyFD, and the naive oracle) implements
:class:`FDDiscoveryAlgorithm.discover` and returns a :class:`DiscoveryResult`
containing the complete set of minimal canonical FDs of the input relation,
optionally restricted to a subset of attributes (the projected-attribute
optimisation of InFine Step 1).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..fd.fd import FD
from ..fd.fdset import FDSet
from ..relational.backend import KERNEL, active_state
from ..relational.relation import Relation


@dataclass
class DiscoveryStats:
    """Bookkeeping counters reported by the discovery algorithms.

    ``extra`` carries kernel-level diagnostics: every run records the
    ``partition_backend`` name of the kernel and a ``kernel`` delta of
    the active engine state's counters (partition cache, batched
    validation, sort paths) bracketing the run —
    session-scoped, so concurrent sessions never pollute each other's
    deltas; algorithms owning a ``PartitionCache`` add their per-run
    ``partition_cache`` breakdown.
    """

    candidates_checked: int = 0
    validations: int = 0
    levels: int = 0
    sampled_pairs: int = 0
    runtime_seconds: float = 0.0
    extra: dict = field(default_factory=dict)


@dataclass
class DiscoveryResult:
    """The output of one FD discovery run."""

    algorithm: str
    relation_name: str
    fds: FDSet
    attributes: tuple[str, ...]
    stats: DiscoveryStats = field(default_factory=DiscoveryStats)

    def __iter__(self):
        return iter(self.fds)

    def __len__(self) -> int:
        return len(self.fds)

    def as_list(self) -> list[FD]:
        """The discovered FDs as a deterministically sorted list."""
        return self.fds.as_list()


class FDDiscoveryAlgorithm(ABC):
    """Base class of all single-table FD discovery algorithms."""

    #: Human-readable algorithm name (used in reports and benchmark labels).
    name: str = "abstract"

    def __init__(self, max_lhs_size: int | None = None) -> None:
        #: Optional cap on the LHS size explored; ``None`` means unbounded.
        self.max_lhs_size = max_lhs_size

    def discover(
        self, relation: Relation, attributes: Sequence[str] | None = None
    ) -> DiscoveryResult:
        """Discover all minimal canonical FDs of ``relation``.

        Parameters
        ----------
        relation:
            The instance to profile.
        attributes:
            Optional restriction of the search to these attributes (InFine's
            projection pruning).  Defaults to all attributes of the relation.
        """
        names = self._resolve_attributes(relation, attributes)
        counters = active_state().counters
        counters_before = counters.snapshot()
        started = time.perf_counter()
        fds, stats = self._run(relation, names)
        stats.runtime_seconds = time.perf_counter() - started
        stats.extra.setdefault("partition_backend", KERNEL.name)
        stats.extra.setdefault("kernel", counters.delta(counters_before))
        return DiscoveryResult(
            algorithm=self.name,
            relation_name=relation.name,
            fds=FDSet(fds),
            attributes=names,
            stats=stats,
        )

    @abstractmethod
    def _run(
        self, relation: Relation, attributes: tuple[str, ...]
    ) -> tuple[Iterable[FD], DiscoveryStats]:
        """Algorithm-specific implementation."""

    def _resolve_attributes(
        self, relation: Relation, attributes: Sequence[str] | None
    ) -> tuple[str, ...]:
        if attributes is None:
            return relation.attribute_names
        known = set(relation.attribute_names)
        resolved = tuple(a for a in attributes if a in known)
        unknown = [a for a in attributes if a not in known]
        if unknown:
            raise ValueError(
                f"attributes {unknown} are not part of relation {relation.name!r}"
            )
        return resolved

    def _effective_max_lhs(self, n_attributes: int) -> int:
        if self.max_lhs_size is None:
            return max(n_attributes - 1, 0)
        return min(self.max_lhs_size, max(n_attributes - 1, 0))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_lhs_size={self.max_lhs_size})"
