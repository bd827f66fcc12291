"""Algorithm 1 — the InFine engine.

:class:`InFine` orchestrates the whole pipeline of the paper on an SPJ view
specification:

1. mine the FDs of every base relation, restricted to the attributes the
   view actually needs (projection pruning, Section IV-A);
2. recursively traverse the view-specification tree; selections trigger
   ``selectionFDs`` (Algorithm 2) and joins trigger ``joinUpFDs``
   (Algorithm 3), ``inferFDs`` (Algorithm 4) and ``mineFDs`` (Algorithm 5);
3. return every minimal FD of the view annotated with its provenance triple,
   together with a per-step timing breakdown.

The engine never materialises the full view with all of its attributes: base
instances are projected onto the needed attributes up front (sharing the base
columns), and each join node computes its row match once
(:class:`~repro.relational.algebra.JoinMatch`).  The semi-joins of
``joinUpFDs``, the partial joins of ``inferFDs``, the join validated by
``mineFDs`` and the node instance are all gathers over that match, and each
of their columns is gathered only when a step actually reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..discovery.base import FDDiscoveryAlgorithm
from ..discovery.registry import make_algorithm
from ..fd.fdset import FDSet
from ..relational.algebra import JoinMatch, project
from ..relational.relation import Relation
from ..relational.view import (
    BaseRelationSpec,
    JoinSpec,
    ProjectSpec,
    SelectSpec,
    ViewSpec,
    validate_view,
)
from .inference import infer_join_fds
from .joinfd import mine_join_fds
from .provenance import FDType, ProvenanceSet, ProvenanceTriple
from .selection import selection_fds
from .timing import StepTimings
from .upstaged import join_upstaged_fds


@dataclass
class InFineStats:
    """Counters describing one InFine run."""

    base_fd_counts: dict[str, int] = field(default_factory=dict)
    upstage_candidates_checked: int = 0
    upstage_border_checks: int = 0
    upstage_fallbacks: int = 0
    infer_candidates_checked: int = 0
    mine_candidates_validated: int = 0
    mine_candidates_pruned_logically: int = 0
    mine_candidates_non_free: int = 0
    partial_join_rows: int = 0
    partial_joins_materialised: int = 0
    raw_inferred: int = 0


@dataclass
class _NodeResult:
    """Result of the recursive traversal for one view-specification node."""

    instance: Relation
    provenance: ProvenanceSet


@dataclass
class InFineResult:
    """The output of one InFine run."""

    #: The view specification the run was performed on.
    view: ViewSpec
    #: The projected attributes of the view.
    attributes: tuple[str, ...]
    #: Provenance triples of every minimal FD of the view.
    provenance: ProvenanceSet
    #: Per-step wall-clock breakdown.
    timings: StepTimings
    #: Counters describing the run.
    stats: InFineStats

    @property
    def triples(self) -> list[ProvenanceTriple]:
        """The provenance triples, in discovery order."""
        return list(self.provenance)

    @property
    def fds(self) -> FDSet:
        """The discovered minimal FDs of the view."""
        return self.provenance.fds()

    def count_by_type(self) -> dict[FDType, int]:
        """Number of FDs per provenance type."""
        return self.provenance.count_by_type()

    def count_by_step(self) -> dict[str, int]:
        """Number of FDs per InFine step (``base``/``upstageFDs``/``inferFDs``/``mineFDs``)."""
        counts: dict[str, int] = {"base": 0, "upstageFDs": 0, "inferFDs": 0, "mineFDs": 0}
        for triple in self.provenance:
            counts[triple.step] += 1
        return counts

    def __len__(self) -> int:
        return len(self.provenance)


class InFine:
    """The InFine pipeline (Algorithm 1 of the paper).

    Parameters
    ----------
    base_algorithm:
        Name or instance of the single-table discovery algorithm used for the
        base relations (default: TANE).
    max_lhs_size:
        Optional cap on the LHS size explored by every step.
    use_theorem4:
        Whether ``mineFDs`` applies the Theorem 4 pruning (ablation knob).
    refine_inferred:
        Whether ``inferFDs`` runs the data-dependent ``refine`` subroutine.
    session:
        Optional :class:`repro.session.Session` whose engine state
        (configuration, caches, counters) every :meth:`run` executes under.  Without
        one, runs inherit the ambient state — the enclosing session's
        activation, or the module-level default.  Prefer
        :meth:`repro.session.Session.infine`, which also wraps the outcome
        in a :class:`~repro.session.RunResult`.
    """

    def __init__(
        self,
        base_algorithm: str | FDDiscoveryAlgorithm = "tane",
        max_lhs_size: int | None = None,
        use_theorem4: bool = True,
        refine_inferred: bool = True,
        session=None,
    ) -> None:
        if isinstance(base_algorithm, str):
            base_algorithm = make_algorithm(base_algorithm, max_lhs_size=max_lhs_size)
        self.base_algorithm = base_algorithm
        self.max_lhs_size = max_lhs_size
        self.use_theorem4 = use_theorem4
        self.refine_inferred = refine_inferred
        self.session = session

    # -- public API -----------------------------------------------------------
    def run(self, view: ViewSpec, catalog: Mapping[str, Relation]) -> InFineResult:
        """Discover the FDs of ``view`` with their provenance triples."""
        if self.session is not None:
            with self.session.activate():
                return self._run(view, catalog)
        return self._run(view, catalog)

    def _run(self, view: ViewSpec, catalog: Mapping[str, Relation]) -> InFineResult:
        timings = StepTimings()
        stats = InFineStats()

        with timings.measure("io"):
            projected = validate_view(view, catalog)
            needed = self._needed_attributes(view, projected)

        node = self._prov_fds(view, catalog, needed, timings, stats)

        final = node.provenance.restrict_to(projected)
        return InFineResult(
            view=view,
            attributes=projected,
            provenance=final,
            timings=timings,
            stats=stats,
        )

    # -- recursion ------------------------------------------------------------
    def _prov_fds(
        self,
        spec: ViewSpec,
        catalog: Mapping[str, Relation],
        needed: frozenset[str],
        timings: StepTimings,
        stats: InFineStats,
    ) -> _NodeResult:
        if isinstance(spec, BaseRelationSpec):
            return self._base_node(spec, catalog, needed, timings, stats)
        if isinstance(spec, ProjectSpec):
            # Projection never creates FDs (Theorem 1); the attribute
            # restriction was applied once, up front (Section IV-A).
            return self._prov_fds(spec.child, catalog, needed, timings, stats)
        if isinstance(spec, SelectSpec):
            return self._selection_node(spec, catalog, needed, timings, stats)
        if isinstance(spec, JoinSpec):
            return self._join_node(spec, catalog, needed, timings, stats)
        raise TypeError(f"unsupported view node {type(spec).__name__}")

    def _base_node(
        self,
        spec: BaseRelationSpec,
        catalog: Mapping[str, Relation],
        needed: frozenset[str],
        timings: StepTimings,
        stats: InFineStats,
    ) -> _NodeResult:
        relation = catalog[spec.relation_name]
        keep = [a for a in relation.attribute_names if a in needed]
        with timings.measure("io"):
            restricted = project(relation, keep, name=relation.name) if keep else relation
        with timings.measure("base"):
            discovered = self.base_algorithm.discover(restricted, keep or None)
        stats.base_fd_counts[spec.relation_name] = len(discovered.fds)
        provenance = ProvenanceSet(
            ProvenanceTriple(dependency, FDType.BASE, spec.describe())
            for dependency in discovered.fds
        )
        return _NodeResult(instance=restricted, provenance=provenance)

    def _selection_node(
        self,
        spec: SelectSpec,
        catalog: Mapping[str, Relation],
        needed: frozenset[str],
        timings: StepTimings,
        stats: InFineStats,
    ) -> _NodeResult:
        child = self._prov_fds(spec.child, catalog, needed, timings, stats)
        child_fds = child.provenance.fds().as_list()
        with timings.measure("upstageFDs"):
            outcome = selection_fds(
                child.instance,
                spec.predicate,
                child_fds,
                sorted(needed),
                spec.describe(),
                self.max_lhs_size,
            )
        stats.upstage_candidates_checked += outcome.candidates_checked
        stats.upstage_border_checks += outcome.border_checks
        stats.upstage_fallbacks += outcome.fallbacks
        provenance = self._combine(child.provenance, outcome.triples)
        return _NodeResult(instance=outcome.instance, provenance=provenance)

    def _join_node(
        self,
        spec: JoinSpec,
        catalog: Mapping[str, Relation],
        needed: frozenset[str],
        timings: StepTimings,
        stats: InFineStats,
    ) -> _NodeResult:
        left = self._prov_fds(spec.left, catalog, needed, timings, stats)
        right = self._prov_fds(spec.right, catalog, needed, timings, stats)
        subquery = spec.describe()
        left_fds = left.provenance.fds().as_list()
        right_fds = right.provenance.fds().as_list()

        # Step: joinUpFDs (Algorithm 3).  The join's row match is computed
        # once here and shared by the semi-joins, the refinement's partial
        # joins, the mining join and the node instance.
        with timings.measure("upstageFDs"):
            match = JoinMatch(left.instance, right.instance, spec.left_on, spec.right_on, spec.kind)
            upstaged = join_upstaged_fds(
                left.instance,
                right.instance,
                spec.left_on,
                spec.right_on,
                spec.kind,
                left_fds,
                right_fds,
                sorted(needed),
                subquery,
                self.max_lhs_size,
                match=match,
            )
        stats.upstage_candidates_checked += upstaged.candidates_checked
        stats.upstage_border_checks += upstaged.border_checks
        stats.upstage_fallbacks += upstaged.fallbacks

        left_full = left_fds + upstaged.left_fds
        right_full = right_fds + upstaged.right_fds
        carried = left_fds + right_fds + upstaged.left_fds + upstaged.right_fds

        # Step: inferFDs (Algorithm 4).
        with timings.measure("inferFDs"):
            inferred = infer_join_fds(
                left.instance,
                right.instance,
                spec.left_on,
                spec.right_on,
                spec.kind,
                left_full,
                right_full,
                carried,
                subquery,
                refine_with_data=self.refine_inferred,
                match=match,
            )
        stats.infer_candidates_checked += inferred.candidates_checked
        stats.raw_inferred += inferred.raw_inferred

        # Step: mineFDs (Algorithm 5), including the lazy partial join.
        known = carried + inferred.fds
        with timings.measure("mineFDs"):
            mined = mine_join_fds(
                left.instance,
                right.instance,
                spec.left_on,
                spec.right_on,
                spec.kind,
                left_full,
                right_full,
                known,
                sorted(needed),
                subquery,
                self.max_lhs_size,
                use_theorem4=self.use_theorem4,
                match=match,
            )
        stats.mine_candidates_validated += mined.candidates_validated
        stats.mine_candidates_pruned_logically += mined.candidates_pruned_logically
        stats.mine_candidates_non_free += mined.candidates_non_free
        if mined.join_materialised:
            stats.partial_joins_materialised += 1
            stats.partial_join_rows += mined.partial_join_rows

        provenance = self._combine(
            left.provenance.merge(right.provenance),
            list(upstaged.triples) + list(inferred.triples) + list(mined.triples),
        )

        # The node instance for enclosing operators: a view of the match
        # whose columns (shared with the mining join) are gathered on use.
        keep = [a for a in match.attribute_names if a in needed]
        instance = match.relation(keep or None, name=subquery)
        return _NodeResult(instance=instance, provenance=provenance)

    # -- helpers --------------------------------------------------------------
    @staticmethod
    def _needed_attributes(view: ViewSpec, projected: Sequence[str]) -> frozenset[str]:
        """Attributes the pipeline must keep: AV plus join and selection attributes."""
        needed = set(projected)
        for node in view.walk():
            if isinstance(node, JoinSpec):
                needed.update(node.left_on)
                needed.update(node.right_on)
            elif isinstance(node, SelectSpec):
                needed.update(node.predicate.attributes())
        return frozenset(needed)

    @staticmethod
    def _combine(
        inherited: ProvenanceSet, new_triples: list[ProvenanceTriple]
    ) -> ProvenanceSet:
        """Merge inherited and new triples, keeping only FDs that stay minimal.

        An FD carried over from an input can lose minimality when a smaller
        FD with the same RHS becomes valid on the current node (e.g. the base
        FD ``admission_location, diagnosis -> subject_id`` is superseded by
        the join FD ``diagnosis -> subject_id`` in the paper's running
        example); such dominated FDs are dropped from the node's set.
        """
        combined = ProvenanceSet(inherited)
        combined.extend(new_triples)
        # Only an FD with the same RHS can dominate: compare within groups.
        lhs_by_rhs: dict[str, list[frozenset[str]]] = {}
        for triple in combined:
            lhs_by_rhs.setdefault(triple.dependency.rhs, []).append(triple.dependency.lhs)
        return ProvenanceSet(
            triple
            for triple in combined
            if not any(
                other < triple.dependency.lhs for other in lhs_by_rhs[triple.dependency.rhs]
            )
        )
