"""``RowLabels`` — InFine's label FD check — against stripped partitions.

``mineFDs``, ``upstageFDs`` and the ``refine`` step of ``inferFDs`` validate
FDs on a memo of dense row labels keyed by attribute bitmask.  For every
``(lhs, rhs)`` of a relation, the memo's verdict must equal
``relational.partition.fd_holds``, the partition-error equality over a
``PartitionCache``.  Random small relations (NULLs included) cover the
general case.  The edge cases are the empty LHS, a one-row and a zero-row
relation, constant columns, a key column, semi-join and selection reduced
instances, whose gathered columns are re-densified subsets of their
parent's codes, and a bit universe wider than the relation, as ``mineFDs``
passes.  Each relation is walked twice: level by level (every set folds a
memoised subset) and in shuffled order (sets fold their prefixes
recursively).
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.infine.joinfd import RowLabels
from repro.infine.joinfd import fd_holds_fast as labels_hold
from repro.relational.algebra import JoinKind, JoinMatch, select
from repro.relational.partition import PartitionCache, fd_holds
from repro.relational.predicates import Comparison
from repro.relational.relation import Relation

SEEDS = range(40)


def random_relation(rng: random.Random, n_rows: int, name: str = "r") -> Relation:
    """``n_rows`` rows over five columns of varied domains, NULLs included."""
    domains = [
        [None, 1, 2],
        [0, 1, 2, 3, 4, 5],
        ["x"],
        ["a", "b", None],
        list(range(50)),
    ]
    rows = [tuple(rng.choice(domain) for domain in domains) for _ in range(n_rows)]
    return Relation(name, ("a", "b", "c", "d", "e"), rows)


def every_lhs(relation: Relation) -> list[tuple[str, ...]]:
    """Every attribute subset, by size, the empty set first."""
    names = relation.attribute_names
    return [lhs for size in range(len(names) + 1) for lhs in combinations(names, size)]


def assert_labels_agree(
    relation: Relation,
    order_seed: int = 0,
    names: list[str] | None = None,
) -> int:
    """Compare every ``(lhs, rhs)`` verdict; returns the number of checks.

    ``names`` is the memo's bit universe (the relation's attributes when
    ``None``); both the name and the mask entry points are compared.
    """
    cache = PartitionCache(relation)
    expected = {
        (lhs, rhs): fd_holds(relation, lhs, rhs, cache)
        for lhs in every_lhs(relation)
        for rhs in relation.attribute_names
    }
    shuffled = list(expected)
    random.Random(order_seed).shuffle(shuffled)
    for order in (list(expected), shuffled):
        labels = RowLabels(relation, names)
        for lhs, rhs in order:
            assert labels.holds(lhs, rhs) == expected[lhs, rhs], (lhs, rhs)
            codes, n_classes = labels.get(labels.mask(lhs))
            verdict = labels_hold(codes, n_classes, *labels.get(labels.mask((rhs,))))
            assert verdict == expected[lhs, rhs], (lhs, rhs)
            assert len(codes) == len(relation)
            # Dense labels: as many classes as distinct LHS combinations.
            assert n_classes == relation.distinct_count(lhs)
            assert set(codes.tolist()) == set(range(n_classes))
    return len(expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_relations_agree(seed):
    rng = random.Random(seed)
    assert_labels_agree(random_relation(rng, rng.randint(2, 40)), seed)


@pytest.mark.parametrize("n_rows", [0, 1])
def test_tiny_relations_agree(n_rows):
    relation = random_relation(random.Random(n_rows), n_rows)
    assert assert_labels_agree(relation) == 32 * 5
    labels = RowLabels(relation)
    # Every FD holds on at most one row, the empty LHS included.
    assert all(labels.holds(lhs, rhs) for lhs in every_lhs(relation) for rhs in "abcde")


def test_empty_lhs_is_one_class():
    relation = Relation("r", ("k", "c"), [(1, "x"), (2, "x"), (3, "x")])
    labels = RowLabels(relation)
    assert labels.mask(()) == 0
    assert labels.get(0)[1] == 1
    assert labels.holds((), "c")
    assert not labels.holds((), "k")
    assert RowLabels(relation.take([])).get(0)[1] == 0


def test_constant_and_key_columns_agree():
    rows = [(i, "const", i % 3) for i in range(12)]
    relation = Relation("r", ("key", "const", "m"), rows)
    assert_labels_agree(relation)
    labels = RowLabels(relation)
    assert labels.holds((), "const")
    assert labels.holds(("key",), "m")
    assert not labels.holds(("m",), "key")


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("side", ["left", "right"])
def test_semi_join_reduced_instances_agree(seed, side):
    rng = random.Random(seed)
    left = random_relation(rng, rng.randint(5, 40), "l")
    # The right side keeps a few of b's values, so the reduced instances
    # gather a strict subset of their parent's codes.
    right = Relation(
        "s",
        ("b", "f"),
        [(rng.choice([1, 3, 5, 7]), rng.choice("uvw")) for _ in range(rng.randint(1, 8))],
    )
    reduced = JoinMatch(left, right, ["b"], ["b"], JoinKind.INNER).semi(side)
    parent = left if side == "left" else right
    assert len(reduced) <= len(parent)
    assert_labels_agree(reduced, seed)


@pytest.mark.parametrize("seed", range(6))
def test_selection_reduced_instances_agree(seed):
    rng = random.Random(seed)
    relation = random_relation(rng, rng.randint(5, 40))
    assert_labels_agree(select(relation, Comparison("e", ">=", 25)), seed)


def test_bits_follow_the_order_of_names():
    relation = Relation("r", ("a", "b", "c"), [(1, 2, 3)])
    assert [RowLabels(relation).mask((name,)) for name in "abc"] == [4, 2, 1]
    labels = RowLabels(relation, ["z", "c", "b", "a"])
    assert [labels.mask((name,)) for name in "abc"] == [1, 2, 4]
    assert labels.mask(("a", "c")) == 5


@pytest.mark.parametrize("seed", range(12))
def test_a_universe_wider_than_the_relation_agrees(seed):
    # ``mineFDs`` numbers the bits over every attribute of the join node and
    # its FDs, in sorted order; the partial join holds only some of them.
    rng = random.Random(seed)
    relation = random_relation(rng, rng.randint(2, 40))
    universe = sorted({*relation.attribute_names, "aa", "bb", "f", "zz"})
    assert assert_labels_agree(relation, seed, universe) == 32 * 5
