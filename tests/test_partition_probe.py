"""A single-column partition probes against its column's codes.

``StrippedPartition.intersect`` and ``refines`` take the row -> class map of
a single-column partition from the relation's cached column codes instead of
building a mark table (group ids, ``-1`` for stripped singletons).  A value
that occurs once in the column is a class of one row, and the probes never
keep such a class, so both maps must give the same flat bytes.  These tests
check that on the kernel and on the pure-python oracle of
``tests/kernel_oracle.py``, over relations with NULLs, a constant column, a
key column, and 0 and 1 rows.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import ORACLE, cross_checked, plain

from repro.relational.backend import KERNEL
from repro.relational.partition import StrippedPartition
from repro.relational.relation import Relation

NAMES = ("const", "key", "low", "mid")


def make_relation(low: list, mid: list) -> Relation:
    """A relation of ``len(low)`` rows: constant, key and two drawn columns."""
    n_rows = len(low)
    columns = (["k"] * n_rows, list(range(n_rows)), low, mid)
    return Relation("r", NAMES, list(zip(*columns)))


@st.composite
def relations(draw) -> Relation:
    n_rows = draw(st.integers(0, 30))
    cells = st.one_of(st.none(), st.integers(0, 2))
    low = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
    mid = draw(st.lists(st.integers(0, 6), min_size=n_rows, max_size=n_rows))
    return make_relation(low, mid)


def flat(partition: StrippedPartition) -> list:
    return plain((partition.positions, partition.offsets))


def probed(relation: Relation) -> list[StrippedPartition]:
    """Partitions to probe: every column, every pair, pair products, all rows."""
    columns = [StrippedPartition.from_column(relation, name) for name in NAMES]
    pairs = [
        StrippedPartition.from_columns(relation, (first, second))
        for i, first in enumerate(NAMES)
        for second in NAMES[i + 1 :]
    ]
    products = [columns[2].intersect(columns[3]), columns[3].intersect(columns[0])]
    everything = StrippedPartition([range(len(relation))], len(relation))
    return columns + pairs + products + [everything]


def check_probes(relation: Relation) -> None:
    n_rows = len(relation)
    for name in NAMES:
        column = StrippedPartition.from_column(relation, name)
        codes, n_codes = relation.column_codes(name)
        marks = KERNEL.build_marks(column.positions, column.offsets, n_rows)
        oracle_marks = ORACLE.build_marks(*plain((column.positions, column.offsets)), n_rows)
        for probe in probed(relation):
            args = (probe.positions, probe.offsets)
            by_marks = plain(KERNEL.intersect_marks(*args, marks, column.n_groups))
            on_oracle = plain(ORACLE.intersect_marks(*plain(args), oracle_marks, column.n_groups))
            assert plain(KERNEL.intersect_marks(*args, codes, n_codes)) == by_marks
            assert plain(ORACLE.intersect_marks(*plain(args), list(codes), n_codes)) == on_oracle
            assert by_marks == on_oracle
            if probe._column is None or len(probe.positions) <= len(column.positions):
                # The column is the build side of the product.
                assert flat(probe.intersect(column)) == by_marks
            if probe._column is None:
                assert flat(column.intersect(probe)) == by_marks
            verdict = KERNEL.refines_marks(*args, marks)
            assert KERNEL.refines_marks(*args, codes) == verdict
            assert ORACLE.refines_marks(*plain(args), list(codes)) == verdict
            assert ORACLE.refines_marks(*plain(args), oracle_marks) == verdict
            assert probe.refines(column) == verdict


@settings(max_examples=60, deadline=None)
@given(relation=relations())
def test_column_codes_probe_like_mark_tables(relation):
    check_probes(relation)


@pytest.mark.parametrize("n_rows", [0, 1, 2])
def test_tiny_relations_probe_like_mark_tables(n_rows):
    check_probes(make_relation([None] * n_rows, list(range(n_rows))))


@settings(max_examples=30, deadline=None)
@given(relation=relations())
def test_probes_on_codes_agree_with_the_oracle(relation):
    # Every kernel call of the products and checks, the probes against
    # column codes included, is replayed on the oracle.
    with cross_checked() as calls:
        partitions = probed(relation)
        for probe in partitions:
            for column in partitions[: len(NAMES)]:
                probe.intersect(column)
                probe.refines(column)
    # Every product and check here has a column side: no mark table is built.
    assert calls["build_marks"] == 0
    if len(relation) > 1:
        assert calls["intersect_marks"] > 0
