"""Equivalence and subsystem tests for the columnar partition kernel.

The flat-array :class:`StrippedPartition` must behave exactly like the
reference tuple-of-tuples implementation it replaced.  The reference
algorithms (dict-based grouping and the dict-probing partition product) are
re-implemented here as oracles and compared against the kernel on randomised
relations; the :class:`PartitionCache` subsystem (stats, LRU eviction,
best-subset composition) is exercised separately.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discovery import FUN, TANE, FastFDs, HyFD, NaiveFDDiscovery
from repro.relational.partition import (
    PartitionCache,
    StrippedPartition,
    fd_holds,
    fd_holds_fast,
    fd_violation_fraction,
    fd_violation_fraction_from_partition,
)
from repro.relational.relation import NULL, Relation

# ---------------------------------------------------------------------------
# Reference (pre-columnar) implementations, kept as behavioural oracles.
# ---------------------------------------------------------------------------


def reference_groups(relation, attributes):
    """Stripped groups via dict-of-lists over raw row values."""
    if not attributes:
        groups = [list(range(len(relation)))]
    else:
        idxs = relation.schema.indexes_of(attributes)
        index = defaultdict(list)
        for position, row in enumerate(relation.rows):
            index[tuple(row[i] for i in idxs)].append(position)
        groups = list(index.values())
    return {frozenset(g) for g in groups if len(g) > 1}


def reference_intersect(first, second):
    """The seed's dict-probing partition product, on group views."""
    group_of = {}
    for group_id, group in enumerate(first.groups):
        for position in group:
            group_of[position] = group_id
    buckets = defaultdict(list)
    for other_id, group in enumerate(second.groups):
        for position in group:
            own_id = group_of.get(position)
            if own_id is not None:
                buckets[(own_id, other_id)].append(position)
    return {frozenset(g) for g in buckets.values() if len(g) > 1}


def reference_refines(first, second):
    class_of = {}
    for group_id, group in enumerate(second.groups):
        for position in group:
            class_of[position] = group_id
    for group in first.groups:
        head = class_of.get(group[0], -1 - group[0])
        for position in group[1:]:
            if class_of.get(position, -1 - position) != head:
                return False
    return True


def reference_violation_fraction(relation, lhs, rhs):
    if not len(relation):
        return 0.0
    rhs_idx = relation.schema.index_of(rhs)
    removals = 0
    for group in reference_groups(relation, sorted(lhs)):
        counts = defaultdict(int)
        for position in group:
            counts[relation.rows[position][rhs_idx]] += 1
        removals += len(group) - max(counts.values())
    return removals / len(relation)


def group_view(partition):
    return {frozenset(group) for group in partition.groups}


rows_strategy = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 2), st.integers(0, 5)),
    min_size=0,
    max_size=40,
)

ATTRS = ("a", "b", "c", "d")


def make_relation(rows):
    return Relation("r", ATTRS, rows)


# ---------------------------------------------------------------------------
# Old-vs-new equivalence on randomised relations.
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy)
def test_from_columns_matches_reference(rows):
    relation = make_relation(rows)
    for attributes in ((), ("a",), ("a", "b"), ("b", "c", "d"), ATTRS):
        partition = StrippedPartition.from_columns(relation, attributes)
        assert group_view(partition) == reference_groups(relation, attributes)
        assert partition.n_rows == len(relation)


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy)
def test_intersect_matches_reference(rows):
    relation = make_relation(rows)
    partitions = [StrippedPartition.from_column(relation, a) for a in ATTRS]
    for i in range(len(ATTRS)):
        for j in range(len(ATTRS)):
            if i == j:
                continue
            product = partitions[i].intersect(partitions[j])
            assert group_view(product) == reference_intersect(partitions[i], partitions[j])
            assert product == StrippedPartition.from_columns(relation, (ATTRS[i], ATTRS[j]))


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy)
def test_refines_and_error_match_reference(rows):
    relation = make_relation(rows)
    partitions = {a: StrippedPartition.from_column(relation, a) for a in ATTRS}
    pair = StrippedPartition.from_columns(relation, ("a", "b"))
    for first in ATTRS:
        groups = reference_groups(relation, (first,))
        stripped_size = sum(len(g) for g in groups)
        assert partitions[first].error == stripped_size - len(groups)
        for second in ATTRS:
            assert partitions[first].refines(partitions[second]) == reference_refines(
                partitions[first], partitions[second]
            )
        assert pair.refines(partitions[first]) == reference_refines(pair, partitions[first])


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy)
def test_g3_and_fd_checks_match_reference(rows):
    relation = make_relation(rows)
    cache = PartitionCache(relation)
    for lhs, rhs in ((("a",), "b"), (("b",), "c"), (("a", "c"), "d"), (("d",), "a")):
        expected = reference_violation_fraction(relation, lhs, rhs)
        assert fd_violation_fraction(relation, lhs, rhs, cache) == pytest.approx(expected)
        if len(relation):
            assert fd_violation_fraction_from_partition(
                relation, cache.get(lhs), rhs
            ) == pytest.approx(expected)
            assert fd_holds_fast(relation, cache.get(lhs), rhs) == (expected == 0.0)
        assert fd_holds(relation, lhs, rhs, cache) == (expected == 0.0)


@settings(max_examples=15, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
        min_size=0,
        max_size=16,
    )
)
def test_discovery_algorithms_agree_on_new_kernel(rows):
    relation = Relation("r", ("a", "b", "c"), rows)
    oracle = set(NaiveFDDiscovery().discover(relation).as_list())
    for algorithm in (TANE(), FUN(), FastFDs(), HyFD()):
        assert set(algorithm.discover(relation).as_list()) == oracle


# ---------------------------------------------------------------------------
# Columnar encodings.
# ---------------------------------------------------------------------------


class TestColumnCodes:
    def test_codes_are_dense_and_order_preserving(self):
        relation = Relation("r", ("a",), [("x",), ("y",), ("x",), ("z",)])
        codes, n_codes = relation.column_codes("a")
        assert list(codes) == [0, 1, 0, 2]
        assert n_codes == 3
        assert relation.column_code_count("a") == 3

    def test_codes_are_cached(self):
        relation = Relation("r", ("a",), [(1,), (2,)])
        assert relation.column_codes("a")[0] is relation.column_codes("a")[0]

    def test_null_is_an_ordinary_value(self):
        relation = Relation("r", ("a",), [(NULL,), (1,), (NULL,)])
        codes, n_codes = relation.column_codes("a")
        assert list(codes) == [0, 1, 0]
        assert n_codes == 2

    def test_combined_codes_match_tuple_grouping(self):
        relation = Relation(
            "r", ("a", "b"), [(1, "x"), (1, "y"), (2, "x"), (1, "x"), (2, "x")]
        )
        codes, n_codes = relation.combined_column_codes(("a", "b"))
        assert n_codes == 3
        assert codes[0] == codes[3]
        assert codes[2] == codes[4]
        assert len({codes[0], codes[1], codes[2]}) == 3


# ---------------------------------------------------------------------------
# PartitionCache subsystem: stats, LRU eviction, composition.
# ---------------------------------------------------------------------------


@pytest.fixture()
def relation():
    return Relation(
        "r",
        ("a", "b", "c"),
        [(1, "x", 10), (1, "x", 10), (2, "y", 10), (2, "y", 20), (3, "x", 30)],
    )


class TestPartitionCacheSubsystem:
    def test_hit_and_miss_counters(self, relation):
        cache = PartitionCache(relation)
        cache.get(["a"])
        cache.get(["a"])
        cache.get(["a", "b"])
        cache.get(["b", "a"])
        stats = cache.stats
        assert stats.hits == 2
        assert stats.requests == stats.hits + stats.misses
        assert 0.0 < stats.hit_rate < 1.0

    def test_unbounded_cache_never_evicts(self, relation):
        # A cache keeps every partition for its lifetime: repeated requests
        # return the very object built first, singletons included.
        cache = PartitionCache(relation)
        keys = (["a"], ["a", "b"], ["b", "c"], ["a", "c"], ["a", "b", "c"])
        first = {frozenset(attrs): cache.get(attrs) for attrs in keys}
        size, misses = len(cache), cache.stats.misses
        for attrs in keys:
            assert cache.get(attrs) is first[frozenset(attrs)]
        assert (len(cache), cache.stats.misses) == (size, misses)

    def test_eviction_keeps_pinned_singletons(self, relation):
        cache = PartitionCache(relation)
        single = cache.get(["a"])
        for attrs in (["a", "b"], ["b", "c"], ["a", "c"]):
            cache.get(attrs)
        # The singleton basis is kept: repeated get returns the same object.
        assert cache.get(["a"]) is single

    def test_composition_prefers_fewest_groups_subset(self, relation):
        cache = PartitionCache(relation)
        cache.get(["a", "b"])
        cache.get(["b", "c"])
        misses_before = cache.stats.misses
        result = cache.get(["a", "b", "c"])
        assert result == StrippedPartition.from_columns(relation, ["a", "b", "c"])
        # Composed from a cached 2-subset plus one pinned/cached singleton:
        # exactly one new miss for the requested key itself (the singleton
        # lookup may hit or miss depending on prior requests).
        assert cache.stats.misses - misses_before <= 2

    def test_cached_partitions_equal_direct_builds(self, relation):
        cache = PartitionCache(relation)
        for attrs in (["a"], ["a", "b"], ["b", "c"], ["a", "b", "c"], ["a", "c"]):
            assert cache.get(attrs) == StrippedPartition.from_columns(relation, attrs)
