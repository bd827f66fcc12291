"""Algorithm 3 — ``joinUpFDs``: upstaged FDs created by a join.

When a join drops the dangling tuples of one of its inputs (tuples whose
join-attribute values have no counterpart on the other side), approximate FDs
of that input can become exact.  Following Lemma 2, the candidate instance
for each side is the semi-join of the side with the other side's
join-attribute values; if the semi-join is smaller than the side itself, the
newly holding FDs are mined by :func:`~repro.infine.levelwise.mine_new_fds`
and labelled ``upstaged left`` or ``upstaged right``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..fd.fd import FD
from ..relational.algebra import JoinKind, JoinMatch
from ..relational.relation import Relation
from .levelwise import NewFDs, mine_new_fds
from .provenance import FDType, ProvenanceTriple

#: For every join kind, which inputs have their dangling tuples removed by
#: the join (and can therefore contribute upstaged FDs).
REDUCED_SIDES: dict[JoinKind, frozenset[str]] = {
    JoinKind.INNER: frozenset({"left", "right"}),
    JoinKind.LEFT_OUTER: frozenset({"right"}),
    JoinKind.RIGHT_OUTER: frozenset({"left"}),
    JoinKind.FULL_OUTER: frozenset(),
    JoinKind.LEFT_SEMI: frozenset({"left"}),
    JoinKind.RIGHT_SEMI: frozenset({"right"}),
}


@dataclass
class JoinUpstageOutcome:
    """Result of ``joinUpFDs`` for one join node."""

    #: Provenance triples of the upstaged FDs (left and right).
    triples: list[ProvenanceTriple] = field(default_factory=list)
    #: Semi-joined left instance when the join actually dropped left tuples, else ``None``.
    reduced_left: Relation | None = None
    #: Semi-joined right instance when the join actually dropped right tuples, else ``None``.
    reduced_right: Relation | None = None
    #: Upstaged FDs per side (also contained in ``triples``).
    left_fds: list[FD] = field(default_factory=list)
    right_fds: list[FD] = field(default_factory=list)
    #: Number of candidate FDs validated against the data.
    candidates_checked: int = 0
    #: Negative-border dependencies validated to certify "nothing new".
    border_checks: int = 0
    #: Number of sides whose certificate failed, so TANE ran on them.
    fallbacks: int = 0

    def add(self, mined: NewFDs) -> None:
        """Count one side's :func:`mine_new_fds` call."""
        self.candidates_checked += mined.candidates_checked
        self.border_checks += mined.border_checks
        self.fallbacks += mined.fallbacks

    @property
    def left_was_reduced(self) -> bool:
        """Whether the join dropped dangling tuples of the left input."""
        return self.reduced_left is not None

    @property
    def right_was_reduced(self) -> bool:
        """Whether the join dropped dangling tuples of the right input."""
        return self.reduced_right is not None


def join_upstaged_fds(
    left_instance: Relation,
    right_instance: Relation,
    left_on: Sequence[str],
    right_on: Sequence[str],
    kind: JoinKind,
    left_known_fds: Iterable[FD],
    right_known_fds: Iterable[FD],
    attributes: Sequence[str],
    subquery: str,
    max_lhs_size: int | None = None,
    match: JoinMatch | None = None,
) -> JoinUpstageOutcome:
    """Mine the upstaged FDs of a join node (Algorithm 3).

    Parameters
    ----------
    left_instance, right_instance:
        The materialised join inputs (already restricted to needed attributes).
    left_on, right_on:
        The join attributes of each side.
    kind:
        The join operator; it determines which sides can be reduced.
    left_known_fds, right_known_fds:
        FDs known to hold on each input (their negative border certifies
        "nothing new"; FDs they imply are excluded).
    attributes:
        The projected attribute set ``AV``.
    subquery:
        The sub-query string recorded in the provenance triples.
    max_lhs_size:
        Optional cap on the explored LHS size.
    match:
        The join's row match, when the caller already computed it; the
        semi-joins are then row masks over it.
    """
    outcome = JoinUpstageOutcome()
    reduced_sides = REDUCED_SIDES[kind]
    if reduced_sides and match is None:
        match = JoinMatch(left_instance, right_instance, left_on, right_on, kind)

    if "left" in reduced_sides:
        reduced = match.semi("left")
        if len(reduced) < len(left_instance):
            outcome.reduced_left = reduced
            mined = mine_new_fds(reduced, attributes, left_known_fds, max_lhs_size)
            outcome.add(mined)
            outcome.left_fds = sorted(mined.fds, key=FD.sort_key)
            outcome.triples.extend(
                ProvenanceTriple(dependency, FDType.UPSTAGED_LEFT, subquery)
                for dependency in outcome.left_fds
            )

    if "right" in reduced_sides:
        reduced = match.semi("right")
        if len(reduced) < len(right_instance):
            outcome.reduced_right = reduced
            mined = mine_new_fds(reduced, attributes, right_known_fds, max_lhs_size)
            outcome.add(mined)
            outcome.right_fds = sorted(mined.fds, key=FD.sort_key)
            outcome.triples.extend(
                ProvenanceTriple(dependency, FDType.UPSTAGED_RIGHT, subquery)
                for dependency in outcome.right_fds
            )
    return outcome
