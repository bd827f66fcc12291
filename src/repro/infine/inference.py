"""Algorithm 4 — ``inferFDs``: FDs obtained by logical inference through a join.

Theorem 2 of the paper states that, on a join result, Armstrong transitivity
across the two inputs is only possible *through the join attributes*: if the
left side satisfies ``A -> X`` (with ``X`` the left join attributes) and the
right side satisfies ``Y -> b`` (with ``Y`` the right join attributes), then
the join satisfies ``A -> b`` because the join enforces ``X = Y``.

The ``infer`` subroutine enumerates exactly those transitive FDs from the
FD covers of the two inputs — a pure logical step with negligible cost.  The
``refine`` subroutine then minimises the left-hand sides: a subset of the
determinant may already determine ``b`` on the join even though this cannot
be proved logically; such refinements are checked against a *partial join*
restricted to the join attributes, the determinant and ``b``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from ..fd.closure import transitive_fds_through
from ..fd.fd import FD
from ..relational.algebra import JoinKind, JoinMatch, project
from ..relational.partition import PartitionCache, fd_holds_fast
from ..relational.relation import Relation
from .provenance import FDType, ProvenanceTriple


@dataclass
class InferenceOutcome:
    """Result of ``inferFDs`` for one join node."""

    #: Provenance triples of the inferred FDs (after refinement).
    triples: list[ProvenanceTriple] = field(default_factory=list)
    #: The inferred FDs (also contained in ``triples``).
    fds: list[FD] = field(default_factory=list)
    #: Number of candidate refinements validated against partial joins.
    candidates_checked: int = 0
    #: Number of raw FDs obtained by pure logical inference (before refinement).
    raw_inferred: int = 0


def infer_join_fds(
    left_instance: Relation,
    right_instance: Relation,
    left_on: Sequence[str],
    right_on: Sequence[str],
    kind: JoinKind,
    left_fds: Iterable[FD],
    right_fds: Iterable[FD],
    known_fds: Iterable[FD],
    subquery: str,
    refine_with_data: bool = True,
    max_refine_lhs: int = 6,
    match: JoinMatch | None = None,
) -> InferenceOutcome:
    """Infer (and refine) the cross-side FDs of a join node (Algorithm 4).

    Parameters
    ----------
    left_instance, right_instance:
        The materialised join inputs, used only to build the *partial joins*
        of the refinement step.
    left_on, right_on:
        The join attributes of each side.
    kind:
        The join operator (the refinement partial joins use the same operator).
    left_fds, right_fds:
        Complete FD covers of the (reduced) join inputs.
    known_fds:
        FDs already known to hold on the join (base FDs of both sides plus
        upstaged FDs); inferred FDs implied by them are redundant and dropped.
    subquery:
        The sub-query string recorded in the provenance triples.
    refine_with_data:
        Whether to run the data-dependent ``refine`` subroutine.  Disabling it
        keeps the step purely logical (used by the ablation benchmarks).
    max_refine_lhs:
        Refinement explores subsets of determinants up to this size.
    match:
        The join's row match, when the caller already computed it; each
        partial join is then a gather of the columns it needs.
    """
    left_fds = list(left_fds)
    right_fds = list(right_fds)
    known = list(known_fds)
    outcome = InferenceOutcome()

    raw: list[FD] = []
    raw.extend(transitive_fds_through(left_fds, right_fds, left_on, right_on))
    raw.extend(transitive_fds_through(right_fds, left_fds, right_on, left_on))
    raw.extend(_join_attribute_equalities(left_on, right_on))
    outcome.raw_inferred = len(raw)

    # Partial joins project the join match or, for a semi-join, the one
    # input the output carries (refinement then happens on that side).
    join_attrs = set(left_on) | set(right_on)
    source: JoinMatch | Relation | None = match
    if kind is JoinKind.LEFT_SEMI:
        source = left_instance
    elif kind is JoinKind.RIGHT_SEMI:
        source = right_instance

    kept: list[FD] = []
    seen: set[FD] = set()
    for dependency in sorted(set(raw), key=FD.sort_key):
        if _dominated_by(dependency, known):
            continue  # identical to or less general than an FD carried from the inputs
        refinements = [dependency]
        # Refinement only matters for determinants with at least two
        # attributes (a singleton LHS has no proper non-empty subset).
        if refine_with_data and 1 < len(dependency.lhs) <= max_refine_lhs:
            if source is None:
                source = JoinMatch(left_instance, right_instance, left_on, right_on, kind)
            partial = _partial_join(dependency, join_attrs, source)
            refinements = _refine(dependency, partial, outcome)
        for refined in refinements:
            if refined in seen:
                continue
            if _dominated_by(refined, known):
                continue
            seen.add(refined)
            kept.append(refined)

    # Keep only the minimal inferred FDs (a refinement can dominate a raw FD).
    minimal = [
        dependency
        for dependency in kept
        if not any(other.rhs == dependency.rhs and other.lhs < dependency.lhs for other in kept)
    ]
    outcome.fds = sorted(minimal, key=FD.sort_key)
    outcome.triples = [
        ProvenanceTriple(dependency, FDType.INFERRED, subquery) for dependency in outcome.fds
    ]
    return outcome


def _dominated_by(dependency: FD, known: list[FD]) -> bool:
    """Whether a known FD with the same dependent has a (non-strictly) smaller LHS.

    Such an inferred candidate is either a duplicate of a carried FD or not
    minimal on the join; in both cases it must not be reported as *inferred*.
    Candidates that are merely *implied* by the carried FDs (by transitivity)
    are kept: they are exactly the inferred FDs of Definition 6 and belong to
    the view's minimal FD set unless a smaller determinant exists.
    """
    return any(
        other.rhs == dependency.rhs and other.lhs <= dependency.lhs for other in known
    )


def _join_attribute_equalities(
    left_on: Sequence[str], right_on: Sequence[str]
) -> list[FD]:
    """FDs expressing the equality of differently named join attributes.

    An equi-join on ``x = y`` makes ``x -> y`` and ``y -> x`` hold on the
    matched rows.  When both sides use the same attribute name (natural-join
    style), the duplicate column is dropped by the join and no FD is needed.
    The returned FDs are still subject to refinement/validation, which
    matters for outer joins where padded rows can break one direction.
    """
    equalities: list[FD] = []
    for left_attribute, right_attribute in zip(left_on, right_on):
        if left_attribute == right_attribute:
            continue
        equalities.append(FD((left_attribute,), right_attribute))
        equalities.append(FD((right_attribute,), left_attribute))
    return equalities


def _refine(dependency: FD, partial: Relation | None, outcome: InferenceOutcome) -> list[FD]:
    """The ``refine`` subroutine: minimise a determinant using a partial join.

    Only the join attributes, the determinant and the dependent attribute are
    materialised (line #19 of Algorithm 4), so the partial join stays narrow
    even when the view is wide.
    """
    if partial is None:
        return [dependency]

    cache = PartitionCache(partial)
    available = set(partial.attribute_names)
    lhs_attributes = sorted(dependency.lhs & available)
    if dependency.rhs not in available or len(lhs_attributes) != len(dependency.lhs):
        return [dependency]

    minimal: list[FD] = []
    for size in range(1, len(lhs_attributes)):
        for subset in combinations(lhs_attributes, size):
            if any(found.lhs <= frozenset(subset) for found in minimal):
                continue
            outcome.candidates_checked += 1
            # Probe the subset partition against the cached RHS column codes
            # instead of materialising the subset ∪ {rhs} partition.
            if fd_holds_fast(partial, cache.get(subset), dependency.rhs):
                minimal.append(FD(subset, dependency.rhs))
    return minimal if minimal else [dependency]


def _partial_join(
    dependency: FD, join_attrs: set[str], source: JoinMatch | Relation
) -> Relation | None:
    """The partial join refining one inferred FD, as a projection of ``source``.

    It keeps the join attributes, the determinant and the dependent; a join
    match gathers just those columns.
    """
    needed = set(dependency.lhs) | {dependency.rhs}
    keep = [a for a in source.attribute_names if a in needed or a in join_attrs]
    if isinstance(source, JoinMatch):
        return source.relation(keep, name="partial_join")
    return project(source, keep) if keep else None
