"""``mine_new_fds``: the negative-border certificate against TANE plus a post-filter.

A reduction only deletes tuples, so ``mine_new_fds`` first validates the
maximal non-FDs of the unreduced input on the reduced instance and runs TANE
only when one of them starts to hold.  Its output must equal the plain
oracle: TANE on the reduced instance, minus the FDs the known set implies.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.discovery.tane import TANE
from repro.fd import FD, fd
from repro.fd.closure import FDIndex
from repro.infine.levelwise import _minimal_transversals, mine_new_fds
from repro.relational.relation import Relation

CAPS = (None, 1, 2, 3)


def tane_plus_filter(reduced, attributes, known, max_lhs_size):
    """The reference: minimal FDs of ``reduced`` not implied by ``known``."""
    usable = [a for a in attributes if reduced.schema.has(a)]
    if not usable:
        return []
    result = TANE(max_lhs_size=max_lhs_size).discover(reduced, usable)
    index = FDIndex(known)
    return [d for d in result.fds if d.rhs not in index.closure(d.lhs)]


def random_case(rng: random.Random):
    """A relation, a reduction of it, usable attributes, known FDs and a cap."""
    names = [f"a{i}" for i in range(rng.randint(1, 6))]
    rows = []
    for _ in range(rng.randint(0, 25)):
        row = [rng.randrange(rng.choice((1, 2, 4, 8))) for _ in names]
        if len(names) > 2 and rng.random() < 0.7:
            # A planted FD a0 a1 -> a2 that deletions cannot break.
            row[2] = (row[0] + row[1]) % 3
        rows.append(tuple(row))
    relation = Relation("r", names, rows)
    keep = rng.choice((0.0, 0.3, 0.7, 0.9))
    reduced = Relation("reduced", names, [row for row in rows if rng.random() < keep])
    usable = [a for a in names if rng.random() < 0.8] + (["zz"] if rng.random() < 0.2 else [])
    max_lhs_size = rng.choice(CAPS)
    known = list(TANE(max_lhs_size=max_lhs_size).discover(relation).fds)
    if rng.random() < 0.2:
        # An incomplete known set only enlarges the border.
        known = [d for d in known if rng.random() < 0.5]
    return reduced, usable, known, max_lhs_size


def test_matches_tane_plus_filter_on_random_deletions():
    rng = random.Random(2019)
    certified = fallbacks = 0
    for _ in range(600):
        reduced, usable, known, max_lhs_size = random_case(rng)
        mined = mine_new_fds(reduced, usable, known, max_lhs_size)
        expected = tane_plus_filter(reduced, usable, known, max_lhs_size)
        assert mined.fds == expected, (reduced.rows, usable, known, max_lhs_size)
        assert mined.candidates_checked >= mined.border_checks
        if mined.border_checks and not mined.fallbacks:
            certified += 1
        fallbacks += mined.fallbacks
    # Both paths are exercised.
    assert certified > 100
    assert fallbacks > 100


def test_certificate_skips_tane():
    # a -> b holds on the input; the deletion does not make b -> a hold.
    reduced = Relation("r", ("a", "b"), [(1, "x"), (2, "x"), (3, "y")])
    mined = mine_new_fds(reduced, ("a", "b"), [fd("a", "b")])
    assert mined == ([], 2, 2, 0)


def test_upstaged_fd_falls_back_to_tane():
    # The deletion removed the tuples violating b -> a.
    reduced = Relation("r", ("a", "b"), [(1, "x"), (2, "y")])
    mined = mine_new_fds(reduced, ("a", "b"), [fd("a", "b")])
    assert mined.fds == [fd("b", "a")]
    assert mined.fallbacks == 1


def test_empty_reduction_falls_back_to_tane():
    reduced = Relation("r", ("a", "b"), [])
    mined = mine_new_fds(reduced, ("a", "b"), [fd("a", "b")])
    assert mined.fds == [FD((), "a"), FD((), "b")]
    assert (mined.border_checks, mined.fallbacks) == (0, 1)


def test_border_larger_than_tane_falls_back():
    # With LHSs capped at 0 TANE checks one candidate per attribute (7), but
    # {b1, b2}, {c1, c2} and {d1, d2} -> a leave 8 maximal non-FDs for a.
    names = ("a", "b1", "b2", "c1", "c2", "d1", "d2")
    reduced = Relation("r", names, [tuple(range(7)), tuple(range(1, 8))])
    known = [fd(("b1", "b2"), "a"), fd(("c1", "c2"), "a"), fd(("d1", "d2"), "a")]
    mined = mine_new_fds(reduced, names, known, max_lhs_size=0)
    assert (mined.border_checks, mined.fallbacks) == (0, 1)
    assert mined.fds == tane_plus_filter(reduced, names, known, 0)


@pytest.mark.parametrize("seed", range(5))
def test_minimal_transversals_match_brute_force(seed):
    rng = random.Random(seed)
    n = 6
    for _ in range(40):
        edges = {rng.randrange(1 << n) for _ in range(rng.randint(0, 5))}
        hitting = [
            sum(1 << i for i in subset)
            for size in range(n + 1)
            for subset in combinations(range(n), size)
            if all(sum(1 << i for i in subset) & edge for edge in edges)
        ]
        minimal = {t for t in hitting if not any(o != t and o & t == o for o in hitting)}
        assert sorted(_minimal_transversals(edges, 1 << n)) == sorted(minimal)
