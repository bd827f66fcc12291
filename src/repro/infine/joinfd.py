"""Algorithm 5 — ``mineFDs``: selective mining of the remaining join FDs.

Join FDs (Definition 7) mix attributes of both join inputs and cannot be
obtained by logical inference (Theorem 3); they must be validated against
join data.  The selective mining implemented here avoids the full-view FD
discovery of the straightforward approach by combining four prunings:

* **domination** — candidates whose LHS contains the LHS of an already known
  FD with the same RHS cannot be minimal and are neither validated nor
  expanded;
* **free sets** — TANE's C+ rule: an LHS ``X`` with some ``b ∈ X`` in the
  closure of ``X - {b}`` (under the known FDs plus those mined so far) has
  the partition of ``X - {b}``, so neither ``X`` nor any superset can be a
  minimal LHS of any dependent; it is neither validated nor expanded.  A
  constant column (``∅ -> c`` known) makes ``{c}`` non-free at level 1;
* **Armstrong shortcut** — candidates implied by the FDs already known to
  hold on the join are valid by construction and need no data access (they
  are classified as *inferred*, per Definition 6);
* **Theorem 4** — a candidate ``A A' -> b`` with ``b`` from the side whose
  join attributes are ``Y`` can only hold if ``Y A' -> b`` holds on that
  side, which is decided from the side's FD cover without touching the join.

The candidate lattice is walked once for all dependents, level by level as
in TANE (Huhtala et al., 1999).  At level ``k`` every dependent first runs
the four prunings over its candidates; the LHSs left over are then
validated against the (partial) join, materialised lazily and once.  Each
distinct LHS gets one stripped partition per level, shared by every
dependent that needs it and built by one product of its fewest-groups
parent from level ``k - 1`` with a single-attribute partition, so only two
levels of partitions are ever alive.  ``fd_holds_fast`` then probes the RHS
column codes within the LHS groups (one boolean-mask pass).

Deferring a level's validations until all of its prunings ran cannot change
the result: a candidate the combined closure would have accepted after a
sibling's data verdict is validated by data instead, and is a ``JOIN`` FD
either way; ``INFERRED`` reads only the fixed closure of the known FDs.
The same level synchronisation makes the free-set rule sound: when level
``k`` starts, every FD the combined closure uses holds on the join, so a
non-free ``X`` and each of its supersets share the partition of a strictly
smaller set, and none of them is the LHS of a minimal FD.
Each dependent keeps its triples in lattice order (per level, by sorted
LHS), and the per-dependent lists are concatenated in attribute order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..fd.closure import FDIndex
from ..fd.fd import FD
from ..relational.algebra import JoinKind, JoinMatch
from ..relational.partition import PartitionCache, StrippedPartition, fd_holds_fast
from ..relational.relation import Relation
from .provenance import FDType, ProvenanceTriple


@dataclass
class JoinMiningOutcome:
    """Result of ``mineFDs`` for one join node."""

    #: Provenance triples of the FDs discovered by the selective mining
    #: (``joinFD`` for data-validated ones, ``inferred`` for Armstrong shortcuts).
    triples: list[ProvenanceTriple] = field(default_factory=list)
    #: The discovered FDs (also contained in ``triples``).
    fds: list[FD] = field(default_factory=list)
    #: Number of candidates validated against the (partial) join data.
    candidates_validated: int = 0
    #: Number of candidates handled purely logically (Armstrong or Theorem 4).
    candidates_pruned_logically: int = 0
    #: Number of (dependent, LHS) candidates skipped because the LHS is not free.
    candidates_non_free: int = 0
    #: Whether the partial join had to be materialised at all.
    join_materialised: bool = False
    #: Number of rows of the materialised partial join (0 if not materialised).
    partial_join_rows: int = 0


class _ClosureMemo:
    """Closures under a growing FD list, memoised per attribute set."""

    __slots__ = ("fds", "index", "memo")

    def __init__(self, fds: Iterable[FD]) -> None:
        self.fds = list(fds)
        self.index: FDIndex | None = None
        self.memo: dict[frozenset[str], frozenset[str]] = {}

    def add(self, dependency: FD) -> None:
        """Extend the FD list; the index and the memo are rebuilt lazily."""
        self.fds.append(dependency)
        self.index = None
        self.memo.clear()

    def __call__(self, attributes: frozenset[str]) -> frozenset[str]:
        closure = self.memo.get(attributes)
        if closure is None:
            if self.index is None:
                self.index = FDIndex(self.fds)
            closure = self.memo[attributes] = self.index.closure(attributes)
        return closure


@dataclass
class _RhsWalk:
    """The lattice walk state of one dependent attribute."""

    rhs: str
    in_left: bool
    in_right: bool
    #: LHSs of the known and found FDs with this dependent.
    dominating: list[frozenset[str]]
    #: The current level's candidates, sorted by their sorted attribute names.
    alive: list[frozenset[str]]
    triples: list[ProvenanceTriple] = field(default_factory=list)


def mine_join_fds(
    left_instance: Relation,
    right_instance: Relation,
    left_on: Sequence[str],
    right_on: Sequence[str],
    kind: JoinKind,
    left_fds: Iterable[FD],
    right_fds: Iterable[FD],
    known_fds: Iterable[FD],
    attributes: Sequence[str],
    subquery: str,
    max_lhs_size: int | None = None,
    use_theorem4: bool = True,
    match: JoinMatch | None = None,
) -> JoinMiningOutcome:
    """Selective mining of the join FDs of one join node (Algorithm 5).

    Parameters
    ----------
    left_instance, right_instance:
        The materialised join inputs (restricted to needed attributes).
    left_on, right_on:
        The join attributes of each side.
    kind:
        The join operator.
    left_fds, right_fds:
        Complete minimal FD sets of the (reduced) join inputs, used by the
        Theorem 4 pruning.
    known_fds:
        All FDs already known to hold on the join (carried base FDs, upstaged
        FDs and inferred FDs).
    attributes:
        The projected attribute set ``AV`` restricting the candidate space.
    subquery:
        The sub-query string recorded in the provenance triples.
    max_lhs_size:
        Optional cap on the explored LHS size.
    use_theorem4:
        Disable to measure the impact of the Theorem 4 pruning (ablation).
    match:
        The join's row match, when the caller already computed it; the
        partial join then gathers only the columns the validations read.
    """
    outcome = JoinMiningOutcome()
    if kind.is_semi:
        # A semi-join keeps the attributes of a single side: by Definition 7
        # there is no room for join FDs.
        return outcome

    left_side = set(left_instance.attribute_names)
    right_side = set(right_instance.attribute_names)
    # The equi-join output keeps a shared join attribute once, on the left.
    dropped_right = {rgt for lft, rgt in zip(left_on, right_on) if lft == rgt}
    right_kept = [a for a in right_instance.attribute_names if a not in dropped_right]
    allowed = set(attributes)
    view_attrs = [a for a in (*left_instance.attribute_names, *right_kept) if a in allowed]
    if len(view_attrs) < 2:
        return outcome

    known = list(known_fds)
    left_cover = list(left_fds)
    right_cover = list(right_fds)
    left_join_attrs = frozenset(left_on)
    right_join_attrs = frozenset(right_on)
    left_closure = _ClosureMemo(left_cover)
    right_closure = _ClosureMemo(right_cover)
    known_closure = _ClosureMemo(known)
    # Closures over `known` plus the data-validated FDs.  FDs accepted by a
    # closure are implied by the FDs already indexed and cannot change any
    # closure, so only a data verdict extends the index.
    combined_closure = _ClosureMemo(known)
    max_size = max_lhs_size if max_lhs_size is not None else len(view_attrs) - 1

    walks: list[_RhsWalk] = []
    for rhs in view_attrs:
        in_left = rhs in left_side
        in_right = rhs in right_side
        if use_theorem4 and not _rhs_is_plausible(
            rhs, in_left, in_right, left_join_attrs, right_join_attrs, left_cover, right_cover
        ):
            # No minimal FD of the side owning ``rhs`` involves that side's
            # join attributes in its determinant, so by Theorem 4 no
            # cross-side FD with this dependent can hold: skip the whole
            # right-hand side without generating any candidate.
            outcome.candidates_pruned_logically += 1
            continue
        walks.append(
            _RhsWalk(
                rhs=rhs,
                in_left=in_left,
                in_right=in_right,
                dominating=[f.lhs for f in known if f.rhs == rhs],
                alive=[frozenset({a}) for a in sorted(view_attrs) if a != rhs],
            )
        )

    joined: Relation | None = None
    cache: PartitionCache | None = None
    # Partitions of the LHSs validated at the previous and the current level.
    previous: dict[frozenset[str], StrippedPartition] = {}
    current: dict[frozenset[str], StrippedPartition] = {}

    def level_partition(lhs: frozenset[str]) -> StrippedPartition:
        partition = current.get(lhs)
        if partition is not None:
            return partition
        assert cache is not None
        best: StrippedPartition | None = None
        best_rank = best_missing = None
        for attribute in sorted(lhs):
            parent = previous.get(lhs - {attribute})
            if parent is None:
                continue
            rank = (parent.n_groups, parent.stripped_size)
            if best is None or rank < best_rank:
                best, best_rank, best_missing = parent, rank, attribute
        if best is None:
            # A single attribute, or an LHS none of whose parents needed
            # validation: the join's cache builds it from the singletons.
            partition = cache.get(lhs)
        else:
            partition = best.intersect(cache.get((best_missing,)))
        current[lhs] = partition
        return partition

    size = 1
    while size <= max_size and any(walk.alive for walk in walks):
        # Pass 1: the logical prunings, dependent by dependent.  Each entry
        # is a triple found without data access or an LHS left to validate.
        level: list[tuple[_RhsWalk, list[ProvenanceTriple | frozenset[str]], list]] = []
        # Whether each distinct LHS of the level is free; the combined
        # closure is fixed until Pass 2, so one verdict serves every walk.
        free: dict[frozenset[str], bool] = {}
        for walk in walks:
            if not walk.alive:
                continue
            rhs = walk.rhs
            entries: list[ProvenanceTriple | frozenset[str]] = []
            expandable: list[frozenset[str]] = []
            for lhs in walk.alive:
                if any(d <= lhs for d in walk.dominating):
                    continue  # dominated: neither minimal nor worth expanding
                is_free = free.get(lhs)
                if is_free is None:
                    is_free = free[lhs] = not any(b in combined_closure(lhs - {b}) for b in lhs)
                if not is_free:
                    # Same partition as a smaller set: no minimal LHS here or
                    # in any superset, so neither validated nor expanded.
                    outcome.candidates_non_free += 1
                    continue
                attrs = lhs | {rhs}
                if attrs <= left_side or attrs <= right_side:
                    # Entirely single-sided and not dominated by that side's
                    # complete FD set: it cannot hold, but supersets that add
                    # attributes from the other side still can.
                    expandable.append(lhs)
                    continue
                if rhs in known_closure(lhs):
                    # Valid by Armstrong reasoning over FDs carried from the
                    # inputs: an inferred FD (Definition 6), no data access.
                    fd_type = FDType.INFERRED
                elif rhs in combined_closure(lhs):
                    # Valid, but only thanks to previously mined join FDs: it
                    # is a join FD itself (Definition 7), still no data access.
                    fd_type = FDType.JOIN
                elif use_theorem4 and not _theorem4_admits(
                    lhs,
                    rhs,
                    walk.in_left,
                    walk.in_right,
                    left_side,
                    right_side,
                    left_join_attrs,
                    right_join_attrs,
                    left_closure,
                    right_closure,
                ):
                    # The candidate cannot hold on the join (Theorem 4);
                    # supersets adding same-side attributes may still hold.
                    outcome.candidates_pruned_logically += 1
                    expandable.append(lhs)
                    continue
                else:
                    entries.append(lhs)
                    continue
                outcome.candidates_pruned_logically += 1
                dependency = FD(lhs, rhs)
                walk.dominating.append(lhs)
                entries.append(ProvenanceTriple(dependency, fd_type, subquery))
            level.append((walk, entries, expandable))

        # Pass 2: validate the survivors on the level's shared partitions.
        previous, current = current, {}
        for walk, entries, expandable in level:
            rhs = walk.rhs
            for entry in entries:
                if isinstance(entry, ProvenanceTriple):
                    walk.triples.append(entry)
                    continue
                if joined is None:
                    if match is None:
                        match = JoinMatch(left_instance, right_instance, left_on, right_on, kind)
                    joined = match.relation(name=f"partial({subquery})")
                    # Pins the single-attribute partitions; larger LHSs live
                    # in the two level maps.
                    cache = PartitionCache(joined)
                    outcome.join_materialised = True
                    outcome.partial_join_rows = len(joined)
                outcome.candidates_validated += 1
                if fd_holds_fast(joined, level_partition(entry), rhs):
                    dependency = FD(entry, rhs)
                    combined_closure.add(dependency)
                    walk.dominating.append(entry)
                    walk.triples.append(ProvenanceTriple(dependency, FDType.JOIN, subquery))
                else:
                    expandable.append(entry)
            walk.alive = _next_level(expandable)
        size += 1

    outcome.triples = [triple for walk in walks for triple in walk.triples]
    outcome.fds = sorted((triple.dependency for triple in outcome.triples), key=FD.sort_key)
    return outcome


def _rhs_is_plausible(
    rhs: str,
    in_left: bool,
    in_right: bool,
    left_join_attrs: frozenset[str],
    right_join_attrs: frozenset[str],
    left_cover: list[FD],
    right_cover: list[FD],
) -> bool:
    """Whether any cross-side FD with dependent ``rhs`` can exist at all.

    A minimal join FD ``A A' -> rhs`` (with ``rhs`` owned by side ``J`` whose
    join attributes are ``Y``) requires ``Y A' -> rhs`` to hold on the
    reduced ``J`` (Theorem 4) while no ``A'' ⊆ A'`` alone determines ``rhs``
    (otherwise the candidate is dominated).  Both conditions together imply
    that some *minimal* FD of ``J`` with dependent ``rhs`` uses at least one
    join attribute in its determinant.  If no such FD exists, every candidate
    with this dependent is either impossible or dominated, and the dependent
    can be skipped outright.
    """
    if rhs in left_join_attrs or rhs in right_join_attrs:
        return True
    if in_right and any(
        dependency.rhs == rhs and dependency.lhs & right_join_attrs for dependency in right_cover
    ):
        return True
    if in_left and any(
        dependency.rhs == rhs and dependency.lhs & left_join_attrs for dependency in left_cover
    ):
        return True
    return False


def _theorem4_admits(
    lhs: frozenset[str],
    rhs: str,
    in_left: bool,
    in_right: bool,
    left_side: set[str],
    right_side: set[str],
    left_join_attrs: frozenset[str],
    right_join_attrs: frozenset[str],
    left_closure: _ClosureMemo,
    right_closure: _ClosureMemo,
) -> bool:
    """Whether Theorem 4 allows the candidate ``lhs -> rhs`` to hold at all.

    For a dependent attribute from side ``J`` with join attributes ``Y``, the
    candidate can hold only if ``Y ∪ (lhs ∩ atts(J)) -> rhs`` holds on the
    (reduced) instance of ``J``, which is decided against that side's
    complete FD cover (closures memoised once per join node).  A dependent
    shared by both sides (a join attribute) admits the candidate whenever
    either side does.
    """
    if in_right:
        closure = right_closure(right_join_attrs | (lhs & right_side))
        if rhs in closure or rhs in right_join_attrs:
            return True
    if in_left:
        closure = left_closure(left_join_attrs | (lhs & left_side))
        return rhs in closure or rhs in left_join_attrs
    return False


def _next_level(expandable: list[frozenset[str]]) -> list[frozenset[str]]:
    """TANE's apriori generation: the next level, in sorted order.

    A set one larger is generated only when all of its subsets on this level
    are expandable.  Any other superset contains a subset that was dominated,
    found to hold or non-free, so it is dominated or non-free itself and
    would be skipped.
    """
    survivors = set(expandable)
    ordered = sorted(tuple(sorted(lhs)) for lhs in expandable)
    next_level: list[frozenset[str]] = []
    start = 0
    while start < len(ordered):
        # One block of sets sharing all but their last attribute.
        prefix = ordered[start][:-1]
        end = start + 1
        while end < len(ordered) and ordered[end][:-1] == prefix:
            end += 1
        for i in range(start, end):
            for j in range(i + 1, end):
                candidate = frozenset(ordered[i] + ordered[j][-1:])
                if all(candidate - {a} in survivors for a in prefix):
                    next_level.append(candidate)
        start = end
    return next_level
