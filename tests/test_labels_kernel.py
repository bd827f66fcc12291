"""The dense-label primitives of ``mineFDs`` against their pure-python oracle.

``product_labels`` numbers the distinct ``(x, y)`` row pairs in ascending
order, by scatter while the key space ``nx * ny`` is small and by
``np.unique`` above ``PRODUCT_LABELS_SPACE``; both paths must return the
oracle's labels.  ``labels_determine`` is the FD check ``X -> a`` over ``X``'s
labels and ``a``'s codes.  Edge cases: empty and one-row inputs, a key
column (every row its own class) and a constant column.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import ORACLE, cross_checked, plain

from repro import Session
from repro.datasets import load_database, view_by_key
from repro.relational.backend import KERNEL, NumpyBackend


def dense(values):
    """``values`` relabelled ``0..n-1`` in ascending order, and ``n``."""
    rank = {value: label for label, value in enumerate(sorted(set(values)))}
    return [rank[value] for value in values], len(rank)


def unique_path_kernel():
    """A kernel whose ``product_labels`` always takes the ``np.unique`` path."""
    kernel = NumpyBackend()
    kernel.PRODUCT_LABELS_SPACE = 0
    return kernel


def products(x, nx, y, ny):
    """``product_labels`` of the scatter path, the unique path and the oracle."""
    return (
        plain(KERNEL.product_labels(x, nx, y, ny)),
        plain(unique_path_kernel().product_labels(x, nx, y, ny)),
        plain(ORACLE.product_labels(x, nx, y, ny)),
    )


column = st.lists(st.integers(0, 5), min_size=0, max_size=60)


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=60))
def test_product_labels_paths_match_the_oracle(pairs):
    x, nx = dense([a for a, _ in pairs])
    y, ny = dense([b for _, b in pairs])
    scatter, unique, expected = products(x, nx, y, ny)
    assert scatter == unique == expected


@settings(max_examples=60, deadline=None)
@given(labels=column, codes=column)
def test_labels_determine_matches_the_oracle(labels, codes):
    size = min(len(labels), len(codes))
    labels, n = dense(labels[:size])
    codes = codes[:size]
    assert KERNEL.labels_determine(labels, n, codes) == ORACLE.labels_determine(labels, n, codes)


def test_product_labels_above_the_bound_matches_the_oracle():
    rng = random.Random(5)
    x, nx = dense([rng.randrange(400) for _ in range(600)])
    y, ny = dense([rng.randrange(300) for _ in range(600)])
    assert nx * ny > KERNEL.PRODUCT_LABELS_SPACE
    scatter, unique, expected = products(x, nx, y, ny)
    assert scatter == unique == expected
    # The same rows times a constant, below the bound.
    scatter, unique, expected = products(x, nx, [0] * 600, 1)
    assert scatter == unique == expected


@pytest.mark.parametrize("rows", [0, 1])
def test_empty_and_single_row_inputs(rows):
    x, y = [0] * rows, [0] * rows
    scatter, unique, expected = products(x, rows, y, rows)
    assert scatter == unique == expected == [[0] * rows, rows]
    assert KERNEL.labels_determine(x, rows, y) is True
    assert ORACLE.labels_determine(x, rows, y) is True


def test_key_column():
    x, nx = dense([3, 1, 3, 2, 1, 2])
    key = [4, 0, 5, 1, 3, 2]
    # A key on the right: every row becomes its own class, ranked by (x, y).
    scatter, unique, expected = products(x, nx, key, len(key))
    assert scatter == unique == expected == [[4, 0, 5, 2, 1, 3], 6]
    # A key on the left: its labels come back unchanged.
    scatter, unique, expected = products(key, len(key), x, nx)
    assert scatter == unique == expected == [key, 6]
    # A key LHS determines every column; a key RHS only under a key LHS.
    assert KERNEL.labels_determine(key, 6, x) is True
    assert KERNEL.labels_determine(x, nx, key) is False
    assert ORACLE.labels_determine(x, nx, key) is False


def test_constant_column():
    x, nx = dense([2, 0, 1, 0, 2])
    constant = [0] * 5
    scatter, unique, expected = products(x, nx, constant, 1)
    assert scatter == unique == expected == [x, nx]
    scatter, unique, expected = products(constant, 1, x, nx)
    assert scatter == unique == expected == [x, nx]
    # Every LHS determines a constant; a constant LHS determines only constants.
    assert KERNEL.labels_determine(x, nx, constant) is True
    assert KERNEL.labels_determine(constant, 1, x) is False
    assert KERNEL.labels_determine(constant, 1, constant) is True


def test_mining_calls_are_checked_against_the_oracle():
    case = view_by_key("pte/atm_bond_atm_drug")
    catalog = load_database(case.database, "tiny", 7)
    with cross_checked() as calls:
        checked = Session().infine(case.spec, catalog).artifact_fingerprint()
    assert calls["product_labels"] > 0
    assert calls["labels_determine"] > 0
    assert checked == Session().infine(case.spec, catalog).artifact_fingerprint()
