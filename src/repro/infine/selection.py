"""Algorithm 2 — ``selectionFDs``: upstaged FDs created by a selection.

A selection can only make *more* FDs hold (Theorem 1): when the filter
removes tuples that violated an FD of the input, that FD becomes exact on
the selection result.  This module mines exactly those newly holding FDs and
labels them with the ``upstaged selection`` provenance type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..fd.fd import FD
from ..relational.algebra import select
from ..relational.predicates import Predicate
from ..relational.relation import Relation
from .levelwise import mine_new_fds
from .provenance import FDType, ProvenanceTriple


@dataclass
class SelectionOutcome:
    """Result of applying ``selectionFDs`` to one selection node."""

    #: The selected (filtered) instance, reused by the enclosing view node.
    instance: Relation
    #: Provenance triples of the newly holding (upstaged) FDs.
    triples: list[ProvenanceTriple]
    #: Number of candidate FDs validated against the data.
    candidates_checked: int
    #: Whether the selection actually removed tuples (otherwise mining is skipped).
    filtered: bool
    #: Negative-border dependencies validated to certify "nothing new".
    border_checks: int = 0
    #: Whether the certificate failed and TANE ran on the selection (0 or 1).
    fallbacks: int = 0


def selection_fds(
    child_instance: Relation,
    predicate: Predicate,
    known_fds: Iterable[FD],
    attributes: Sequence[str],
    subquery: str,
    max_lhs_size: int | None = None,
) -> SelectionOutcome:
    """Apply a selection and mine its upstaged FDs (Algorithm 2).

    Parameters
    ----------
    child_instance:
        The materialised input of the selection (already restricted to the
        attributes needed by the view).
    predicate:
        The selection condition ``ρ``.
    known_fds:
        FDs known to hold on the input; they keep holding on the selection
        (Theorem 1), span the negative border that certifies "nothing new",
        and are excluded from the reported upstaged FDs.
    attributes:
        The projected attribute set ``AV`` to restrict the mining to.
    subquery:
        The sub-query string recorded in the provenance triples.
    max_lhs_size:
        Optional cap on the explored LHS size.
    """
    selected = select(child_instance, predicate, name=subquery)
    # Line #4 of Algorithm 2: skip the mining entirely when nothing was filtered.
    if len(selected) >= len(child_instance):
        return SelectionOutcome(selected, [], 0, filtered=False)

    mined = mine_new_fds(selected, attributes, known_fds, max_lhs_size)
    triples = [
        ProvenanceTriple(dependency, FDType.UPSTAGED_SELECTION, subquery)
        for dependency in sorted(mined.fds, key=FD.sort_key)
    ]
    return SelectionOutcome(
        selected,
        triples,
        mined.candidates_checked,
        filtered=True,
        border_checks=mined.border_checks,
        fallbacks=mined.fallbacks,
    )
