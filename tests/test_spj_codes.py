"""The SPJ operators in code space, against a row-tuple oracle.

``repro.relational.algebra`` joins, selects and projects on dense column
codes and decodes rows only on demand.  The oracle below is the row-tuple
implementation those operators replaced: it builds every output row as a
Python tuple and lets the output re-encode itself.  Seeded random relations
(NULL and duplicate keys, ``1``/``1.0``/``True`` in one column, empty and
one-row sides) run through both and must give the same rows in the same
order, the same per-column codes and dictionaries and the same
``content_hash()``.  Each test runs on two legs: ``numpy`` (the kernel
alone) and ``python`` (every kernel primitive call also replayed on the
pure-python oracle of ``kernel_oracle.py`` and compared).

A derived relation decodes each value to its column's first-seen
representative under ``==``, so the oracle runs on that canonical form of
its inputs (``canonical``); the raw inputs must still give ``==``-equal rows.
"""

from __future__ import annotations

import pickle
import random
from collections import defaultdict

import pytest
from kernel_oracle import LEGS, ORACLE, kernel_leg

from repro import Session
from repro.datasets import load_all, paper_views
from repro.relational.algebra import (
    JoinKind,
    JoinMatch,
    cartesian_product,
    equi_join,
    project,
    select,
    union,
)
from repro.relational.backend import KERNEL
from repro.relational.predicates import AttributeComparison, InSet, IsNull, Not, eq, ne
from repro.relational.relation import NULL, Relation

SEEDS = range(40)

#: Values of the key columns: NULL, duplicates, and three ``==``-equal
#: values of different types.
KEY_VALUES = (NULL, 1, 1.0, True, 2, 3, "x", "y")
OTHER_VALUES = (NULL, 0, 1, 1.0, "a", "b", 2.5)


# -- the row-tuple oracle ------------------------------------------------------
def oracle_project(relation, attributes):
    idxs = relation.schema.indexes_of(attributes)
    rows = [tuple(row[i] for i in idxs) for row in relation.rows]
    return Relation("oracle", relation.schema.project(attributes), rows)


def oracle_select(relation, predicate):
    names = relation.attribute_names
    rows = [row for row in relation.rows if predicate.evaluate(dict(zip(names, row)))]
    return Relation("oracle", relation.schema, rows)


def oracle_take(relation, positions):
    return Relation("oracle", relation.schema, [relation.rows[p] for p in positions])


def oracle_join(left, right, left_on, right_on, kind):
    left_key = left.schema.indexes_of(left_on)
    right_key = right.schema.indexes_of(right_on)
    if kind.is_semi:
        probe, build = (left, right) if kind is JoinKind.LEFT_SEMI else (right, left)
        probe_key, build_key = (
            (left_key, right_key) if kind is JoinKind.LEFT_SEMI else (right_key, left_key)
        )
        keys = {tuple(row[i] for i in build_key) for row in build.rows}
        rows = [
            row
            for row in probe.rows
            if not any(row[i] is NULL for i in probe_key)
            and tuple(row[i] for i in probe_key) in keys
        ]
        return Relation("oracle", probe.schema, rows)
    dropped = {rgt for lft, rgt in zip(left_on, right_on) if lft == rgt}
    kept = [a for a in right.attribute_names if a not in dropped]
    kept_idx = right.schema.indexes_of(kept)
    schema = left.schema.concat(right.schema.project(kept))
    backfill = {
        left.schema.index_of(lft): i
        for i, (lft, rgt) in enumerate(zip(left_on, right_on))
        if lft == rgt
    }
    index = defaultdict(list)
    for position, row in enumerate(right.rows):
        key = tuple(row[i] for i in right_key)
        if not any(value is NULL for value in key):
            index[key].append(position)
    rows = []
    matched = set()
    for row in left.rows:
        key = tuple(row[i] for i in left_key)
        matches = [] if any(value is NULL for value in key) else index.get(key, [])
        for position in matches:
            rows.append(row + tuple(right.rows[position][i] for i in kept_idx))
            matched.add(position)
        if not matches and kind in (JoinKind.LEFT_OUTER, JoinKind.FULL_OUTER):
            rows.append(row + (NULL,) * len(kept_idx))
    if kind in (JoinKind.RIGHT_OUTER, JoinKind.FULL_OUTER):
        for position, row in enumerate(right.rows):
            if position not in matched:
                padded = [NULL] * left.arity
                for left_pos, slot in backfill.items():
                    padded[left_pos] = row[right_key[slot]]
                rows.append(tuple(padded) + tuple(row[i] for i in kept_idx))
    return Relation("oracle", schema, rows)


# -- inputs ----------------------------------------------------------------------
def random_relation(rng, name, key_attrs, other_attrs):
    n_rows = rng.choice((0, 1, rng.randint(2, 12), rng.randint(2, 12)))
    attrs = list(key_attrs) + list(other_attrs)
    rows = [
        tuple(rng.choice(KEY_VALUES if a in key_attrs else OTHER_VALUES) for a in attrs)
        for _ in range(n_rows)
    ]
    return Relation(name, attrs, rows)


def canonical(relation):
    """The relation with every value replaced by its column's representative."""
    columns = [
        (relation.column_codes(a)[0], relation.column_dictionary(a))
        for a in relation.attribute_names
    ]
    return Relation.from_codes(relation.name, relation.schema, columns)


def assert_same(actual, expected, raw_expected=None):
    assert actual.attribute_names == expected.attribute_names
    assert len(actual) == len(expected)
    for attribute in actual.attribute_names:
        codes, n_codes = actual.column_codes(attribute)
        expected_codes, expected_n = expected.column_codes(attribute)
        assert list(codes) == list(expected_codes), attribute
        assert n_codes == expected_n, attribute
        assert actual.column_dictionary(attribute) == expected.column_dictionary(attribute)
    assert actual.rows == expected.rows
    same_name = Relation(actual.name, expected.schema, expected.rows)
    assert actual.content_hash() == same_name.content_hash()
    if raw_expected is not None:
        assert actual.rows == raw_expected.rows


def join_inputs(rng):
    """Two relations and join keys: shared names, different names, or two columns."""
    shape = rng.choice(("shared", "renamed", "pair"))
    if shape == "shared":
        left = random_relation(rng, "L", ["k"], ["a"])
        right = random_relation(rng, "R", ["k"], ["b"])
        return left, right, ["k"], ["k"]
    if shape == "renamed":
        left = random_relation(rng, "L", ["k"], ["a"])
        right = random_relation(rng, "R", ["j"], ["b", "c"])
        return left, right, ["k"], ["j"]
    left = random_relation(rng, "L", ["k", "m"], ["a"])
    right = random_relation(rng, "R", ["k", "n"], ["b"])
    return left, right, ["k", "m"], ["k", "n"]


# -- operator properties -----------------------------------------------------------
@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("kind", list(JoinKind))
@pytest.mark.parametrize("seed", SEEDS)
def test_join_matches_oracle(leg, kind, seed):
    rng = random.Random(seed)
    left, right, left_on, right_on = join_inputs(rng)
    expected = oracle_join(canonical(left), canonical(right), left_on, right_on, kind)
    raw = oracle_join(left, right, left_on, right_on, kind)
    with kernel_leg(leg) as checked:
        joined = equi_join(left, right, left_on, right_on, kind=kind)
        assert_same(joined, expected, raw)
    if leg == "python":
        assert checked["match"] == 1 and checked["gather_densify"] > 0


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_select_project_take_match_oracle(leg, seed):
    rng = random.Random(seed)
    relation = random_relation(rng, "T", ["k", "m"], ["a", "b"])
    predicates = [
        eq("k", 1),
        ne("a", "a"),
        IsNull("m"),
        Not(IsNull("k")) & InSet("a", [0, "b"]),
        AttributeComparison("k", "==", "m") | eq("b", 2.5),
    ]
    predicate = rng.choice(predicates)
    attributes = rng.sample(relation.attribute_names, rng.randint(1, relation.arity))
    n_taken = rng.randint(0, 8) if len(relation) else 0
    positions = [rng.randrange(len(relation)) for _ in range(n_taken)]
    base = canonical(relation)
    with kernel_leg(leg):
        assert_same(select(relation, predicate), oracle_select(base, predicate))
        assert_same(project(relation, attributes), oracle_project(base, attributes))
        assert_same(relation.take(positions), oracle_take(base, positions))
        firsts = list({row: None for row in base.rows})
        assert_same(relation.distinct(), Relation("oracle", base.schema, firsts))
        assert_same(relation.head(3), oracle_take(base, range(min(3, len(base)))))
        # A chain of derived relations, joined again.
        chained = project(select(relation, predicate), ["k", "a"])
        expected = oracle_project(oracle_select(base, predicate), ["k", "a"])
        assert_same(chained, expected)
        other = random_relation(rng, "U", ["k"], ["c"])
        kind = rng.choice(list(JoinKind))
        assert_same(
            equi_join(chained, other, ["k"], kind=kind),
            oracle_join(expected, canonical(other), ["k"], ["k"], kind),
        )


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("seed", range(20))
def test_union_and_product_match_oracle(leg, seed):
    rng = random.Random(seed)
    first = random_relation(rng, "A", ["k"], ["a"])
    second = random_relation(rng, "B", ["k"], ["a"])
    third = random_relation(rng, "C", ["j"], [])
    with kernel_leg(leg):
        rows = canonical(first).rows + canonical(second).rows
        assert_same(union(first, second), Relation("oracle", first.schema, rows))
        product = [row + other for row in canonical(first).rows for other in canonical(third).rows]
        schema = first.schema.concat(third.schema)
        assert_same(cartesian_product(first, third), Relation("oracle", schema, product))


SEMI_KINDS = (("left", JoinKind.LEFT_SEMI), ("right", JoinKind.RIGHT_SEMI))


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("seed", range(30))
def test_match_semi_joins_are_the_semi_join_operators(leg, seed):
    rng = random.Random(seed)
    left, right, left_on, right_on = join_inputs(rng)
    with kernel_leg(leg):
        for kind in JoinKind:
            match = JoinMatch(left, right, left_on, right_on, kind)
            for side, semi_kind in SEMI_KINDS:
                expected = equi_join(left, right, left_on, right_on, kind=semi_kind)
                assert_same(match.semi(side), expected)


@pytest.mark.parametrize("leg", LEGS)
def test_wide_composite_keys_are_redensified(leg):
    # Key widths whose product overflows int64 force the joint re-densify.
    # The oracle needs no re-densify (python ints): it pins the expected match.
    active = {"python": ORACLE, "numpy": KERNEL}[leg]
    width = 2**40
    left_keys = [([0, 1, 1], [5, width - 1], width)] * 3
    right_keys = [([1, 0], [5, width - 1], width)] * 3
    left_idx, right_idx, n_head = active.match(left_keys, right_keys, "inner")
    assert list(left_idx) == [0, 1, 2]
    assert list(right_idx) == [1, 0, 0]
    assert n_head == 3


# -- InFine never decodes derived rows ---------------------------------------------
def test_infine_never_decodes_derived_rows(monkeypatch):
    decoded = []
    rows_property = Relation.rows
    decode_column = Relation._decoded_column

    def rows(self):
        if self._rows is None:
            decoded.append(self.name)
        return rows_property.fget(self)

    def column(self, attribute):
        decoded.append(f"{self.name}.{attribute}")
        return decode_column(self, attribute)

    monkeypatch.setattr(Relation, "rows", property(rows))
    monkeypatch.setattr(Relation, "_decoded_column", column)
    catalogs = load_all("tiny", 3)
    cases = paper_views()
    assert len(cases) == 16
    for case in cases:
        result = Session().infine(case.spec, catalogs[case.database])
        assert result.fds is not None
    assert decoded == []


def test_derived_relations_pickle_as_their_rows():
    left = Relation("L", ("k", "a"), [(1, "x"), (2, "y"), (1, "z")])
    right = Relation("R", ("k", "b"), [(1, 10), (3, 30)])
    joined = equi_join(left, right, ["k"], kind=JoinKind.FULL_OUTER)
    restored = pickle.loads(pickle.dumps(joined))
    assert restored.name == joined.name
    assert restored.rows == joined.rows
    assert restored.content_hash() == joined.content_hash()
