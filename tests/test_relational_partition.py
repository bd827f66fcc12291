"""Tests for stripped partitions and FD validity checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.partition import (
    PartitionCache,
    StrippedPartition,
    fd_holds,
    fd_violation_fraction,
    validate_level,
)
from repro.relational.relation import Relation
from repro.session import Session


@pytest.fixture()
def relation() -> Relation:
    return Relation(
        "r",
        ("a", "b", "c"),
        [(1, "x", 10), (1, "x", 10), (2, "y", 10), (2, "y", 20), (3, "x", 30)],
    )


class TestStrippedPartition:
    def test_singletons_are_stripped(self, relation):
        partition = StrippedPartition.from_column(relation, "a")
        assert partition.n_groups == 2
        assert partition.stripped_size == 4

    def test_error_formula(self, relation):
        partition = StrippedPartition.from_column(relation, "a")
        assert partition.error == partition.stripped_size - partition.n_groups

    def test_distinct_count(self, relation):
        assert StrippedPartition.from_column(relation, "a").distinct_count == 3
        assert StrippedPartition.from_column(relation, "c").distinct_count == 3

    def test_empty_attribute_set_partition(self, relation):
        partition = StrippedPartition.from_columns(relation, [])
        assert partition.n_groups == 1
        assert partition.stripped_size == len(relation)

    def test_is_key(self):
        relation = Relation("r", ("a",), [(1,), (2,), (3,)])
        assert StrippedPartition.from_column(relation, "a").is_key()

    def test_intersect_equals_direct_computation(self, relation):
        direct = StrippedPartition.from_columns(relation, ["a", "b"])
        composed = StrippedPartition.from_column(relation, "a").intersect(
            StrippedPartition.from_column(relation, "b")
        )
        assert composed == direct

    def test_intersect_rejects_different_sizes(self, relation):
        other = StrippedPartition([[0, 1]], 2)
        with pytest.raises(ValueError):
            StrippedPartition.from_column(relation, "a").intersect(other)

    def test_refines_detects_fd(self, relation):
        pa = StrippedPartition.from_column(relation, "a")
        pb = StrippedPartition.from_column(relation, "b")
        assert pa.refines(pb)   # a -> b holds
        assert not StrippedPartition.from_column(relation, "c").refines(pa)

    def test_g3_error_bounds(self, relation):
        for lhs in ([], ["a"], ["c"]):
            for rhs in ("a", "b", "c"):
                assert 0.0 <= fd_violation_fraction(relation, lhs, rhs) <= 1.0

    def test_equality_is_structural(self, relation):
        first = StrippedPartition.from_column(relation, "a")
        second = StrippedPartition.from_column(relation, "a")
        assert first == second


class TestPartitionCache:
    def test_cache_reuses_objects(self, relation):
        cache = PartitionCache(relation)
        assert cache.get(["a", "b"]) is cache.get(["b", "a"])
        assert len(cache) >= 1

    def test_cache_matches_direct(self, relation):
        cache = PartitionCache(relation)
        for attrs in (["a"], ["a", "b"], ["a", "b", "c"]):
            assert cache.get(attrs) == StrippedPartition.from_columns(relation, attrs)


class TestFDChecks:
    def test_fd_holds_true(self, relation):
        assert fd_holds(relation, ["a"], "b")

    def test_fd_holds_false(self, relation):
        assert not fd_holds(relation, ["a"], "c")

    def test_trivial_fd_holds(self, relation):
        assert fd_holds(relation, ["a", "b"], "a")

    def test_validate_level_matches_fd_holds(self, relation):
        cache = PartitionCache(relation)
        for lhs in (["a"], ["b"], ["a", "b"], ["c"]):
            for rhs in ("a", "b", "c"):
                if rhs in lhs:
                    continue
                assert validate_level(relation, [(cache.get(lhs), rhs)]) == [
                    fd_holds(relation, lhs, rhs, cache)
                ]

    def test_violation_fraction_zero_for_valid(self, relation):
        assert fd_violation_fraction(relation, ["a"], "b") == 0.0

    def test_violation_fraction_counts_minimal_removals(self, relation):
        # a -> c is violated only inside the a=2 group (one row must go).
        assert fd_violation_fraction(relation, ["a"], "c") == pytest.approx(1 / 5)

    def test_violation_fraction_empty_relation(self):
        empty = Relation("e", ("a", "b"), [])
        assert fd_violation_fraction(empty, ["a"], "b") == 0.0

    def test_violation_fraction_edges_are_zero(self, relation):
        # An empty relation and ``rhs in lhs`` answer before any kernel work;
        # a superkey LHS is graded as a level of one whose partition keeps
        # no group.
        with Session() as session:
            assert fd_violation_fraction(Relation("e", ("a", "b"), []), ["a"], "b") == 0.0
            assert fd_violation_fraction(relation, ["a", "c"], "c") == 0.0
            assert session.counters.batched_levels == 0
            keyed = Relation("k", ("a", "b"), [(1, "x"), (2, "x"), (3, "y")])
            assert fd_violation_fraction(keyed, ["a"], "b") == 0.0
            assert session.counters.batched_levels == 1


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
        min_size=1,
        max_size=30,
    )
)
def test_partition_product_is_commutative_and_matches_direct(rows):
    relation = Relation("r", ("a", "b", "c"), rows)
    pa = StrippedPartition.from_column(relation, "a")
    pb = StrippedPartition.from_column(relation, "b")
    assert pa.intersect(pb) == pb.intersect(pa)
    assert pa.intersect(pb) == StrippedPartition.from_columns(relation, ["a", "b"])


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        min_size=1,
        max_size=25,
    )
)
def test_fd_holds_agrees_with_bruteforce(rows):
    relation = Relation("r", ("a", "b"), rows)
    mapping = {}
    expected = True
    for a, b in rows:
        if a in mapping and mapping[a] != b:
            expected = False
            break
        mapping[a] = b
    assert fd_holds(relation, ["a"], "b") == expected
