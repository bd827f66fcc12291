"""The straightforward (baseline) pipeline the paper compares InFine against.

Classical FD discovery methods operate on a single relation: to obtain the
FDs of an integrated view *and* know where each FD comes from, a user must

1. discover the FDs of every base table (this cost is identical for InFine
   and the baselines and is therefore excluded from the comparison, exactly
   as in Section V of the paper);
2. compute the full SPJ view;
3. run the discovery algorithm on the view result; and
4. compare the view FDs against the base-table FDs to recover a provenance
   classification.

:class:`StraightforwardPipeline` implements that workflow for any registered
discovery algorithm and reports the same timing breakdown used by Fig. 3
(view computation + discovery) so the two approaches can be compared
directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from ..discovery.base import DiscoveryResult, FDDiscoveryAlgorithm
from ..discovery.registry import make_algorithm
from ..fd.closure import attribute_closure
from ..fd.fdset import FDSet
from ..relational.relation import Relation
from ..relational.view import ViewSpec, validate_view
from .provenance import FDType, ProvenanceSet, ProvenanceTriple


@dataclass
class StraightforwardResult:
    """Output of the straightforward pipeline on one view."""

    algorithm: str
    view: ViewSpec
    #: FDs discovered on the fully computed view.
    fds: FDSet
    #: Number of rows of the computed view.
    view_rows: int
    #: Seconds spent computing the full SPJ view.
    spj_seconds: float
    #: Seconds spent running the discovery algorithm on the view.
    discovery_seconds: float
    #: Seconds spent recovering provenance by comparing against base FDs.
    comparison_seconds: float
    #: Provenance recovered a posteriori (``base`` vs. everything else).
    provenance: ProvenanceSet = field(default_factory=ProvenanceSet)
    #: Raw per-base-table discovery results (not counted in the comparison).
    base_results: dict[str, DiscoveryResult] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """View computation + discovery time (the quantity plotted in Fig. 3)."""
        return self.spj_seconds + self.discovery_seconds

    def __len__(self) -> int:
        return len(self.fds)


class StraightforwardPipeline:
    """Full-view recomputation pipeline using a classical discovery algorithm."""

    def __init__(self, algorithm: str | FDDiscoveryAlgorithm = "hyfd") -> None:
        if isinstance(algorithm, str):
            algorithm = make_algorithm(algorithm)
        self.algorithm = algorithm

    def run(
        self,
        view: ViewSpec,
        catalog: Mapping[str, Relation],
        with_provenance: bool = True,
        base_results: Mapping[str, DiscoveryResult] | None = None,
    ) -> StraightforwardResult:
        """Compute the view, discover its FDs, and (optionally) recover provenance.

        Parameters
        ----------
        view:
            The SPJ view specification.
        catalog:
            Base relation instances.
        with_provenance:
            Whether to run the a-posteriori provenance comparison (step 4).
        base_results:
            Pre-computed base-table discovery results to reuse (so that the
            shared base-mining cost is not measured twice in benchmarks).
        """
        attributes = validate_view(view, catalog)

        started = time.perf_counter()
        instance = view.evaluate(catalog)
        # Derived columns are gathered on first use: gather them all here, so
        # the SPJ time covers materialising the whole view.
        for attribute in instance.attribute_names:
            instance.column_codes(attribute)
        spj_seconds = time.perf_counter() - started

        started = time.perf_counter()
        discovered = self.algorithm.discover(instance, attributes)
        discovery_seconds = time.perf_counter() - started

        comparison_seconds = 0.0
        provenance = ProvenanceSet()
        resolved_base: dict[str, DiscoveryResult] = dict(base_results or {})
        if with_provenance:
            for name in set(view.base_relation_names()):
                if name not in resolved_base:
                    resolved_base[name] = self.algorithm.discover(catalog[name])
            started = time.perf_counter()
            provenance = self._recover_provenance(view, discovered.fds, resolved_base)
            comparison_seconds = time.perf_counter() - started

        return StraightforwardResult(
            algorithm=self.algorithm.name,
            view=view,
            fds=discovered.fds,
            view_rows=len(instance),
            spj_seconds=spj_seconds,
            discovery_seconds=discovery_seconds,
            comparison_seconds=comparison_seconds,
            provenance=provenance,
            base_results=resolved_base,
        )

    @staticmethod
    def _recover_provenance(
        view: ViewSpec,
        view_fds: FDSet,
        base_results: Mapping[str, DiscoveryResult],
    ) -> ProvenanceSet:
        """A-posteriori provenance: the manual comparison a data steward would run.

        Without InFine's pipeline the only distinctions that can be recovered
        from the discovery outputs are *base* (the FD already holds on some
        base table), *inferred* (it follows logically from the union of the
        base FDs) and *new* (everything else, which the comparison cannot
        attribute to a selection, a join reduction or genuine join mining
        without recomputing partial views).
        """
        base_union = [
            dependency
            for result in base_results.values()
            for dependency in result.fds
        ]
        base_sets = {name: result.fds for name, result in base_results.items()}
        provenance = ProvenanceSet()
        for dependency in view_fds:
            origin = None
            for name, fds in base_sets.items():
                if dependency in fds:
                    origin = ProvenanceTriple(dependency, FDType.BASE, name)
                    break
            if origin is None:
                if dependency.rhs in attribute_closure(dependency.lhs, base_union):
                    origin = ProvenanceTriple(dependency, FDType.INFERRED, view.describe())
                else:
                    origin = ProvenanceTriple(dependency, FDType.JOIN, view.describe())
            provenance.add(origin)
        return provenance
