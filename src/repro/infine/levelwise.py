"""Mining the *new* FDs of a reduced instance (Algorithms 2 and 3).

Algorithms 2 (``selectionFDs``) and 3 (``joinUpFDs``) of the paper ask the
same question: once a selection or a semi-join with the other input's
join-attribute values has reduced an input, which minimal FDs hold on the
reduced instance that the FDs known on the *unreduced* input do not imply?
A reduction only deletes tuples, so every known FD keeps holding
(Theorem 1) and only non-FDs can start to hold.  Following the deletion
case of DynFD (Schirmer et al., EDBT 2019), :func:`mine_new_fds` first tries
to certify from the unreduced input's negative border that none did:

* **border** — for each dependent ``a``, the known LHSs of ``a`` inside the
  usable attributes form a hypergraph.  The complements of its minimal
  transversals (a Berge dualisation over bitsets) are the maximal sets
  ``M`` containing no known LHS of ``a``: the maximal non-FDs ``M -> a``;
* **check** — every ``M -> a`` is validated on the reduced instance's dense
  row labels (:class:`~repro.infine.joinfd.RowLabels`, one memo per call);
* **certificate** — if none holds, there is no new FD.  The LHS ``Y`` of a
  new FD ``Y -> a`` contains no known LHS of ``a`` (the known FDs would
  imply it otherwise), so ``Y ⊆ M`` for some border set, and ``M -> a``
  would hold by augmentation.  A known set that is incomplete (an LHS cap,
  FDs over attributes outside the usable ones) only adds border sets, so
  the certificate never relies on completeness.

Otherwise — some ``M -> a`` holds, the reduced instance is empty, or the
border outgrows the candidates TANE would check — the fallback runs TANE
(Huhtala et al., 1999) on the reduced instance and keeps the minimal FDs the
known set does not imply.  Only this fallback needs that post-filter.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, NamedTuple, Sequence

from ..discovery.tane import TANE
from ..fd.closure import FDIndex
from ..fd.fd import FD
from ..relational.relation import Relation
from .joinfd import RowLabels

#: Maximal non-FDs ``(M, a)``: no known LHS of ``a`` lies inside ``M``.
Border = list[tuple[frozenset[str], str]]


class NewFDs(NamedTuple):
    """The outcome of :func:`mine_new_fds`."""

    #: Minimal FDs of the reduced instance not implied by the known FDs.
    fds: list[FD]
    #: Candidate validations: the border checks, plus TANE's on a fallback.
    candidates_checked: int
    #: Border dependencies ``M -> a`` validated on the reduced instance.
    border_checks: int
    #: 1 when TANE had to run on the reduced instance, else 0.
    fallbacks: int


def mine_new_fds(
    reduced: Relation,
    attributes: Sequence[str],
    known_fds: Iterable[FD],
    max_lhs_size: int | None = None,
) -> NewFDs:
    """Minimal FDs of ``reduced`` (over ``attributes``) not implied by ``known_fds``.

    Parameters
    ----------
    reduced:
        The reduced instance (selection result or semi-joined input).
    attributes:
        Attributes to restrict the mining to (the projected attribute set
        ``AV`` intersected with the instance schema).
    known_fds:
        FDs known to hold on the unreduced input.  By Theorem 1 they keep
        holding on the reduced instance; their LHSs span the negative border
        that certifies "nothing new", and no FD they imply is reported.
    max_lhs_size:
        Optional cap on the LHS size of the reported FDs.
    """
    known = list(known_fds)
    usable = [a for a in attributes if reduced.schema.has(a)]
    if not usable:
        return NewFDs([], 0, 0, 0)

    border_checks = 0
    if len(reduced):
        border = _negative_border(usable, known, _tane_checks(len(usable), max_lhs_size))
        if border is not None:
            labels = RowLabels(reduced)
            for lhs, rhs in border:
                border_checks += 1
                if labels.holds(lhs, rhs):
                    break
            else:
                # No maximal non-FD started to hold: certified, nothing new.
                return NewFDs([], border_checks, border_checks, 0)

    result = TANE(max_lhs_size=max_lhs_size).discover(reduced, usable)
    known_index = FDIndex(known)
    new_fds = [d for d in result.fds if d.rhs not in known_index.closure(d.lhs)]
    return NewFDs(new_fds, border_checks + result.stats.candidates_checked, border_checks, 1)


def _tane_checks(n_attributes: int, max_lhs_size: int | None) -> int:
    """Candidates TANE checks on ``n_attributes`` at most: ``s`` per size-``s`` set.

    Its lattice walks the sets of ``1 .. cap + 1`` attributes, where ``cap``
    is the effective LHS cap, and checks each member as a dependent.
    """
    cap = n_attributes - 1 if max_lhs_size is None else min(max_lhs_size, n_attributes - 1)
    return sum(size * comb(n_attributes, size) for size in range(1, cap + 2))


def _negative_border(usable: Sequence[str], known: list[FD], budget: int) -> Border | None:
    """The maximal non-FDs ``(M, a)`` of the unreduced input, per dependent ``a``.

    ``None`` when more than ``budget`` of them would have to be checked.
    """
    bits = {attribute: 1 << i for i, attribute in enumerate(usable)}
    everything = (1 << len(usable)) - 1
    border: Border = []
    for rhs in usable:
        others = everything & ~bits[rhs]
        edges = {
            sum(bits[b] for b in dependency.lhs)
            for dependency in known
            if dependency.rhs == rhs and all(bits.get(b, 0) & others for b in dependency.lhs)
        }
        transversals = _minimal_transversals(edges, budget - len(border))
        if transversals is None:
            return None
        for transversal in transversals:
            complement = others & ~transversal
            border.append((frozenset(a for a in usable if bits[a] & complement), rhs))
    return border


def _minimal_transversals(edges: set[int], limit: int) -> list[int] | None:
    """Berge's algorithm: the minimal hitting sets of ``edges`` (bitsets).

    Edges are added smallest first.  A transversal that misses the new edge
    is extended by each of its attributes; an extension is minimal unless it
    contains a transversal that already hit the edge.  ``None`` once more
    than ``limit`` transversals are alive.
    """
    transversals = [0]
    for edge in sorted(edges, key=lambda mask: (bin(mask).count("1"), mask)):
        hit = [t for t in transversals if t & edge]
        missed = [t for t in transversals if not t & edge]
        if not missed:
            continue
        singles = [1 << i for i in range(edge.bit_length()) if edge >> i & 1]
        grown = [t | single for t in missed for single in singles]
        transversals = hit + [t for t in grown if not any(h & t == h for h in hit)]
        if len(transversals) > limit:
            return None
    return transversals
