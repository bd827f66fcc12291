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
  Under an LHS cap the cover holds only minimal FDs up to the cap, so a
  ``Y A'`` larger than the cap (a join on two or more attributes) is not
  pruned.

The candidate lattice is walked once for all dependents, level by level as
in TANE (Huhtala et al., 1999).  At level ``k`` every dependent first runs
the four prunings over its candidates; the LHSs left over are then
validated against the (partial) join, materialised lazily and once.

Attribute sets are int bitmasks over the join node's attribute universe.
The attribute at sorted position ``i`` of ``N`` gets bit ``N-1-i``, so a
level's masks sorted as plain ints in descending order are in the sorted
order of their attribute names.  Closures under the known FDs, the known
plus mined FDs and each side's cover are memoised bitmask fixpoints, and
apriori generation works on ints.  Domination is a set lookup: apriori
generation never produces a superset of a smaller dominating LHS, so only
an equal LHS is left to dominate.  An ``FD`` (with its ``frozenset`` LHS)
is built only for an emitted triple.

An LHS's partition of the partial join is a dense class label per row plus
the class count, held by one :class:`RowLabels` memo over the same bitmask
universe, built when the partial join is first needed.  An LHS gets its
labels once, shared by every dependent that needs it: the product
(:meth:`~repro.relational.backend.NumpyBackend.product_labels`) of its
memoised one-smaller subset with the smallest key space and the codes of the
one missing column.  ``fd_holds_fast`` then rejects an LHS with fewer
classes than the RHS has values, and otherwise checks the RHS codes against
the labels in one O(rows) pass
(:meth:`~repro.relational.backend.NumpyBackend.labels_determine`).
``upstageFDs`` and the ``refine`` step of ``inferFDs`` check their FDs with
a memo of their own relation, by attribute name.

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

from ..fd.fd import FD
from ..relational.algebra import JoinKind, JoinMatch
from ..relational.backend import KERNEL
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


def fd_holds_fast(labels, n_classes: int, codes, n_codes: int) -> bool:
    """Whether ``X -> a`` holds, given ``X``'s row labels and ``a``'s codes.

    ``X -> a`` maps ``X``'s classes onto ``a``'s values, so it cannot hold
    with fewer classes than values.
    """
    return n_classes >= n_codes and KERNEL.labels_determine(labels, n_classes, codes)


def bit_numbering(names: Sequence[str]) -> dict[str, int]:
    """The bit of each name of an attribute universe, for int bitmask sets.

    The name at position ``i`` of ``N`` gets bit ``N - 1 - i``, so on sorted
    names a larger mask of one size is an earlier set in name order.
    """
    return {name: 1 << (len(names) - 1 - i) for i, name in enumerate(names)}


def mask_of(bit_of: dict[str, int], names: Iterable[str]) -> int:
    """The bitmask of ``names`` under the numbering ``bit_of``."""
    mask = 0
    for name in names:
        mask |= bit_of[name]
    return mask


class RowLabels:
    """Memoised dense row labels of attribute sets of one relation.

    Attribute sets are int bitmasks over ``names`` (the relation's own
    attributes by default; mining passes its wider attribute universe): the
    name at position ``i`` gets bit ``len(names) - 1 - i``.  :meth:`get`
    returns ``(labels, n_classes)``: one label in ``0..n_classes-1`` per
    row, equal on exactly the rows that agree on the set.  The empty set is
    one class (none on an empty relation) and a single attribute is its
    column codes.  A larger set is the product
    (:meth:`~repro.relational.backend.NumpyBackend.product_labels`) of its
    memoised one-smaller subset with the smallest key space (its class count
    times the missing column's code count) and the missing column; when
    none is memoised, of the set without its lowest bit (built the same way,
    so every prefix is memoised for its siblings) and that bit's column.
    :meth:`holds` checks an FD on these labels with :func:`fd_holds_fast`.
    """

    __slots__ = ("relation", "_bit_of", "_names", "_labels")

    def __init__(self, relation: Relation, names: Sequence[str] | None = None) -> None:
        self.relation = relation
        self._names = list(relation.attribute_names if names is None else names)
        self._bit_of = bit_numbering(self._names)
        self._labels: dict[int, tuple] = {}

    def mask(self, names: Iterable[str]) -> int:
        """The bitmask of ``names``."""
        return mask_of(self._bit_of, names)

    def get(self, mask: int) -> tuple:
        """The ``(labels, n_classes)`` of the set ``mask``, computed once."""
        entry = self._labels.get(mask)
        if entry is None:
            entry = self._labels[mask] = self._compute(mask)
        return entry

    def holds(self, lhs: Iterable[str], rhs: str) -> bool:
        """Whether ``lhs -> rhs`` holds on the relation (:func:`fd_holds_fast`)."""
        return fd_holds_fast(*self.get(self.mask(lhs)), *self.get(self._bit_of[rhs]))

    def _compute(self, mask: int) -> tuple:
        if not mask:
            n_rows = len(self.relation)
            return KERNEL.as_codes([0] * n_rows), min(n_rows, 1)
        lowest = mask & -mask
        if mask == lowest:
            name = self._names[len(self._names) - mask.bit_length()]
            codes, n_codes = self.relation.column_codes(name)
            return KERNEL.as_codes(codes), n_codes
        base = None
        space = missing = 0
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            subset = self._labels.get(mask ^ bit)
            if subset is not None:
                subset_space = subset[1] * self.get(bit)[1]
                if base is None or subset_space < space:
                    base, space, missing = subset, subset_space, bit
        if base is None:
            base, missing = self.get(mask ^ lowest), lowest
        return KERNEL.product_labels(*base, *self.get(missing))


class _Closure(dict):
    """Closures of attribute bitmasks under a growing FD list.

    ``closure[mask]`` is the closure of ``mask``, computed as a fixpoint on
    first lookup and memoised until the next :meth:`add`.
    """

    __slots__ = ("rules",)

    def __init__(self, fds: Iterable[tuple[int, int]]) -> None:
        super().__init__()
        #: LHS mask -> the union of its RHS bits.
        self.rules: dict[int, int] = {}
        for lhs, rhs in fds:
            self.rules[lhs] = self.rules.get(lhs, 0) | rhs

    def add(self, lhs: int, rhs: int) -> None:
        """Extend the FD list; the memoised closures are dropped."""
        self.rules[lhs] = self.rules.get(lhs, 0) | rhs
        self.clear()

    def __missing__(self, attributes: int) -> int:
        closure = attributes
        while True:
            grown = closure
            for lhs, rhs in self.rules.items():
                if lhs & grown == lhs:
                    grown |= rhs
            if grown == closure:
                break
            closure = grown
        self[attributes] = closure
        return closure


@dataclass
class _RhsWalk:
    """The lattice walk state of one dependent attribute."""

    rhs: str
    bit: int
    in_left: bool
    in_right: bool
    #: LHS masks of the known and found FDs with this dependent.
    dominating: set[int]
    #: The current level's candidates, in descending mask order.
    alive: list[int]
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

    left_names = left_instance.attribute_names
    right_names = right_instance.attribute_names
    # The equi-join output keeps a shared join attribute once, on the left.
    dropped_right = {rgt for lft, rgt in zip(left_on, right_on) if lft == rgt}
    right_kept = [a for a in right_names if a not in dropped_right]
    allowed = set(attributes)
    view_attrs = [a for a in (*left_names, *right_kept) if a in allowed]
    if len(view_attrs) < 2:
        return outcome

    known = list(known_fds)
    left_cover = list(left_fds)
    right_cover = list(right_fds)
    universe = set(left_names) | set(right_names)
    for dependency in (*known, *left_cover, *right_cover):
        universe |= dependency.lhs
        universe.add(dependency.rhs)
    names = sorted(universe)
    bit_of = bit_numbering(names)

    def pairs(fds: list[FD]) -> list[tuple[int, int]]:
        return [(mask_of(bit_of, dependency.lhs), bit_of[dependency.rhs]) for dependency in fds]

    def fd_of(lhs: int, rhs: str) -> FD:
        return FD((name for name in names if bit_of[name] & lhs), rhs)

    known_pairs = pairs(known)
    left_pairs = pairs(left_cover)
    right_pairs = pairs(right_cover)
    left_side = mask_of(bit_of, left_names)
    right_side = mask_of(bit_of, right_names)
    left_join = mask_of(bit_of, left_on)
    right_join = mask_of(bit_of, right_on)
    left_closure = _Closure(left_pairs)
    right_closure = _Closure(right_pairs)
    known_closure = _Closure(known_pairs)
    # Closures over `known` plus the data-validated FDs.  FDs accepted by a
    # closure are implied by the FDs already indexed and cannot change any
    # closure, so only a data verdict extends the rules.
    combined_closure = _Closure(known_pairs)
    max_size = max_lhs_size if max_lhs_size is not None else len(view_attrs) - 1

    singletons = sorted((bit_of[a] for a in view_attrs), reverse=True)
    walks: list[_RhsWalk] = []
    for rhs in view_attrs:
        bit = bit_of[rhs]
        in_left = bool(bit & left_side)
        in_right = bool(bit & right_side)
        if use_theorem4 and not _rhs_is_plausible(
            bit, in_left, in_right, left_join, right_join, left_pairs, right_pairs, max_lhs_size
        ):
            # No minimal FD of the side owning ``rhs`` involves that side's
            # join attributes in its determinant, so by Theorem 4 no
            # cross-side FD with this dependent can hold: skip the whole
            # right-hand side without generating any candidate.
            outcome.candidates_pruned_logically += 1
            continue
        dominating = {lhs for lhs, dependent in known_pairs if dependent == bit}
        walks.append(
            _RhsWalk(
                rhs=rhs,
                bit=bit,
                in_left=in_left,
                in_right=in_right,
                dominating=dominating,
                # A known constant (``∅ -> rhs``) dominates every candidate.
                alive=[] if 0 in dominating else [s for s in singletons if s != bit],
            )
        )

    # The partial join's labels, materialised for the first validation.
    labels: RowLabels | None = None

    size = 1
    while size <= max_size and any(walk.alive for walk in walks):
        # Pass 1: the logical prunings, dependent by dependent.  Each entry
        # is a triple found without data access or an LHS left to validate.
        level: list[tuple[_RhsWalk, list[ProvenanceTriple | int], list[int]]] = []
        # Whether each distinct LHS of the level is free; the combined
        # closure is fixed until Pass 2, so one verdict serves every walk.
        free: dict[int, bool] = {}
        for walk in walks:
            if not walk.alive:
                continue
            bit = walk.bit
            dominating = walk.dominating
            entries: list[ProvenanceTriple | int] = []
            expandable: list[int] = []
            for lhs in walk.alive:
                if lhs in dominating:
                    # Dominated: neither minimal nor worth expanding.  A
                    # dominating LHS smaller than ``lhs`` lies in one of its
                    # subsets on the previous level, which was then dominated
                    # or found to hold and not expanded, so apriori generation
                    # never produced ``lhs``: only an equal LHS can dominate.
                    continue
                is_free = free.get(lhs)
                if is_free is None:
                    is_free = True
                    rest = lhs
                    while rest:
                        member = rest & -rest
                        rest ^= member
                        if combined_closure[lhs ^ member] & member:
                            is_free = False
                            break
                    free[lhs] = is_free
                if not is_free:
                    # Same partition as a smaller set: no minimal LHS here or
                    # in any superset, so neither validated nor expanded.
                    outcome.candidates_non_free += 1
                    continue
                attrs = lhs | bit
                if not attrs & ~left_side or not attrs & ~right_side:
                    # Entirely single-sided and not dominated by that side's
                    # complete FD set: it cannot hold, but supersets that add
                    # attributes from the other side still can.
                    expandable.append(lhs)
                    continue
                if known_closure[lhs] & bit:
                    # Valid by Armstrong reasoning over FDs carried from the
                    # inputs: an inferred FD (Definition 6), no data access.
                    fd_type = FDType.INFERRED
                elif combined_closure[lhs] & bit:
                    # Valid, but only thanks to previously mined join FDs: it
                    # is a join FD itself (Definition 7), still no data access.
                    fd_type = FDType.JOIN
                elif use_theorem4 and not _theorem4_admits(
                    lhs,
                    bit,
                    walk.in_left,
                    walk.in_right,
                    left_side,
                    right_side,
                    left_join,
                    right_join,
                    left_closure,
                    right_closure,
                    max_lhs_size,
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
                dominating.add(lhs)
                entries.append(ProvenanceTriple(fd_of(lhs, walk.rhs), fd_type, subquery))
            level.append((walk, entries, expandable))

        # Pass 2: validate the survivors on the partial join's labels.
        for walk, entries, expandable in level:
            for entry in entries:
                if isinstance(entry, ProvenanceTriple):
                    walk.triples.append(entry)
                    continue
                if labels is None:
                    if match is None:
                        match = JoinMatch(left_instance, right_instance, left_on, right_on, kind)
                    joined = match.relation(name=f"partial({subquery})")
                    outcome.join_materialised = True
                    outcome.partial_join_rows = len(joined)
                    labels = RowLabels(joined, names)
                outcome.candidates_validated += 1
                if fd_holds_fast(*labels.get(entry), *labels.get(walk.bit)):
                    combined_closure.add(entry, walk.bit)
                    walk.dominating.add(entry)
                    walk.triples.append(
                        ProvenanceTriple(fd_of(entry, walk.rhs), FDType.JOIN, subquery)
                    )
                else:
                    expandable.append(entry)
            walk.alive = _next_level(expandable)
        size += 1

    outcome.triples = [triple for walk in walks for triple in walk.triples]
    outcome.fds = sorted((triple.dependency for triple in outcome.triples), key=FD.sort_key)
    return outcome


def _rhs_is_plausible(
    rhs: int,
    in_left: bool,
    in_right: bool,
    left_join: int,
    right_join: int,
    left_pairs: list[tuple[int, int]],
    right_pairs: list[tuple[int, int]],
    cover_bound: int | None,
) -> bool:
    """Whether any cross-side FD with dependent ``rhs`` can exist at all.

    A minimal join FD ``A A' -> rhs`` (with ``rhs`` owned by side ``J`` whose
    join attributes are ``Y``) requires ``Y A' -> rhs`` to hold on the
    reduced ``J`` (Theorem 4) while no ``A'' ⊆ A'`` alone determines ``rhs``
    (otherwise the candidate is dominated).  Both conditions together imply
    that some *minimal* FD of ``J`` with dependent ``rhs`` uses at least one
    join attribute in its determinant.  If no such FD exists, every candidate
    with this dependent is either impossible or dominated, and the dependent
    can be skipped outright.  Attribute sets are masks and ``rhs`` a bit;
    the covers are ``(lhs mask, rhs bit)`` pairs.

    That FD has at most ``|Y| + |A'|`` attributes, and ``|A'|`` is at most
    one less than the LHS cap.  With a cap (``cover_bound``) and a join on
    two or more attributes it may lie past the covers' bound, so the
    dependent is kept.
    """
    if rhs & (left_join | right_join):
        return True
    if cover_bound is not None and (
        (in_right and _size(right_join) > 1) or (in_left and _size(left_join) > 1)
    ):
        return True
    if in_right and any(dependent == rhs and lhs & right_join for lhs, dependent in right_pairs):
        return True
    if in_left and any(dependent == rhs and lhs & left_join for lhs, dependent in left_pairs):
        return True
    return False


def _theorem4_admits(
    lhs: int,
    rhs: int,
    in_left: bool,
    in_right: bool,
    left_side: int,
    right_side: int,
    left_join: int,
    right_join: int,
    left_closure: _Closure,
    right_closure: _Closure,
    cover_bound: int | None,
) -> bool:
    """Whether Theorem 4 allows the candidate ``lhs -> rhs`` to hold at all.

    For a dependent attribute from side ``J`` with join attributes ``Y``, the
    candidate can hold only if ``Y ∪ (lhs ∩ atts(J)) -> rhs`` holds on the
    (reduced) instance of ``J``, which is decided against that side's
    complete FD cover (closures memoised once per join node).  A cover
    capped at ``cover_bound`` attributes decides only sets that small; a
    larger set admits the candidate.  A dependent shared by both sides (a
    join attribute) admits the candidate whenever either side does.
    Attribute sets are masks and ``rhs`` a bit.
    """
    if in_right and _side_admits(right_closure, right_join | (lhs & right_side), rhs, cover_bound):
        return True
    if in_left:
        return _side_admits(left_closure, left_join | (lhs & left_side), rhs, cover_bound)
    return False


def _side_admits(closure: _Closure, attrs: int, rhs: int, cover_bound: int | None) -> bool:
    """Whether ``attrs -> rhs`` may hold on a side with the cover of ``closure``."""
    if cover_bound is not None and _size(attrs) > cover_bound:
        return True
    return bool((closure[attrs] | attrs) & rhs)


def _size(mask: int) -> int:
    """The number of attributes in ``mask``."""
    return bin(mask).count("1")


def _next_level(expandable: list[int]) -> list[int]:
    """TANE's apriori generation on masks: the next level, in descending order.

    A set one larger is generated only when all of its subsets on this level
    are expandable.  Any other superset contains a subset that was dominated,
    found to hold or non-free, so it is dominated or non-free itself and
    would be skipped.  In descending order, the sets sharing all but their
    lowest bit (their last attribute by name) are contiguous.
    """
    survivors = set(expandable)
    ordered = sorted(expandable, reverse=True)
    next_level: list[int] = []
    start = 0
    while start < len(ordered):
        # One block of sets sharing all but their last attribute.
        first = ordered[start]
        prefix = first & (first - 1)
        end = start + 1
        while end < len(ordered) and ordered[end] & (ordered[end] - 1) == prefix:
            end += 1
        for i in range(start, end):
            for j in range(i + 1, end):
                candidate = ordered[i] | ordered[j]
                rest = prefix
                while rest:
                    member = rest & -rest
                    if candidate ^ member not in survivors:
                        break
                    rest ^= member
                else:
                    next_level.append(candidate)
        start = end
    return next_level
