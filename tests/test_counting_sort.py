"""Counting-sort grouping path: bit-compatibility and batching.

The numpy backend picks between a counting-sort (``uint16`` radix) and the
composite introsort per call: key spaces up to the module constant
``COUNTING_SORT_SPACE`` take the counting sort.  Both are *stable* sorts,
and a stable sort's permutation is unique — so the two paths must produce
byte-identical ``StrippedPartition``s (same group order, same positions,
same dense codes) on every input.  These tests pin that across adversarial
key-space shapes (forcing the introsort by zeroing the constant), confirm
the switch point has no environment or keyword plumbing, and check the
cross-LHS stacked level validation against the scalar oracle on both of its
internal paths.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigError, EngineConfig
from repro.relational import backend as backend_module
from repro.relational.backend import numpy_available
from repro.relational.partition import (
    StrippedPartition,
    fd_holds_fast,
    validate_level,
)
from repro.relational.relation import Relation
from repro.session import Session

requires_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy fast path not importable")

ATTRS = ("a", "b", "c")


def flat(partition):
    positions, offsets = partition.positions, partition.offsets
    if not isinstance(positions, list):
        positions = positions.tolist()
    if not isinstance(offsets, list):
        offsets = offsets.tolist()
    return positions, offsets


# Adversarial key-space shapes: constant (k=1), all-distinct (k=n, the
# all-singleton stripped partition), heavily skewed, and free random mixes.
def _shaped_column(draw, n, shape):
    if shape == "constant":
        return [0] * n
    if shape == "distinct":
        return list(range(n))
    if shape == "skewed":
        return [0 if draw(st.integers(0, 9)) else draw(st.integers(1, 3)) for _ in range(n)]
    return [draw(st.integers(0, max(1, n))) for _ in range(n)]


@st.composite
def shaped_rows(draw):
    n = draw(st.integers(0, 50))
    columns = [
        _shaped_column(draw, n, draw(st.sampled_from(("constant", "distinct", "skewed", "random"))))
        for _ in ATTRS
    ]
    return [tuple(column[i] for column in columns) for i in range(n)]


def _partitions(rows, counting_space, backend="numpy"):
    # A context-manager patch rather than the monkeypatch fixture: the
    # hypothesis test below cannot take function-scoped fixtures.
    with mock.patch.object(backend_module, "COUNTING_SORT_SPACE", counting_space):
        with Session(backend=backend):
            relation = Relation("r", ATTRS, rows)
            singles = [flat(StrippedPartition.from_column(relation, a)) for a in ATTRS]
            combined = flat(StrippedPartition.from_columns(relation, ATTRS))
            pair = StrippedPartition.from_column(relation, "a").intersect(
                StrippedPartition.from_column(relation, "b")
            )
    return singles, combined, flat(pair)


@requires_numpy
@settings(max_examples=60, deadline=None)
@given(rows=shaped_rows())
def test_counting_and_introsort_paths_are_byte_identical(rows):
    # A zero space disables the counting path (introsort only); the stock
    # space enables it for every key space the kernel re-densifies into uint16.
    counting = _partitions(rows, backend_module.COUNTING_SORT_SPACE)
    introsort = _partitions(rows, 0)
    assert counting == introsort


@requires_numpy
def test_threshold_forces_the_expected_sort_path(monkeypatch):
    rows = [(i % 7, i % 3, i % 5) for i in range(200)]
    with Session(backend="numpy") as on:
        relation = Relation("r", ATTRS, rows)
        StrippedPartition.from_columns(relation, ATTRS)
        stats_on = on.kernel_stats()
    monkeypatch.setattr(backend_module, "COUNTING_SORT_SPACE", 0)
    with Session(backend="numpy") as off:
        relation = Relation("r", ATTRS, rows)
        StrippedPartition.from_columns(relation, ATTRS)
        stats_off = off.kernel_stats()
    assert stats_on["counting_sorts"] > 0
    assert stats_on["introsorts"] == 0
    assert stats_off["counting_sorts"] == 0
    assert stats_off["introsorts"] > 0


def test_knob_is_inert_on_the_python_backend():
    # The sort-path switch only steers numpy code: the pure-python leg (and
    # therefore the no-numpy leg) produces identical partitions either way.
    rows = [(i % 4, i % 2, i) for i in range(40)]
    results = [
        _partitions(rows, space, backend="python")
        for space in (0, backend_module.COUNTING_SORT_SPACE)
    ]
    assert results[0] == results[1]


def test_env_and_kwarg_plumbing():
    # The sort path is fixed by COUNTING_SORT_SPACE: no environment variable
    # reaches it, and naming the retired knob is a configuration error.
    assert EngineConfig.from_env({"REPRO_COUNTING_SORT_MAX_CODES": "0"}) == EngineConfig()
    with pytest.raises(ConfigError, match="unknown EngineConfig fields"):
        Session(counting_sort_max_codes=0)


# ---------------------------------------------------------------------------
# Cross-LHS batched level validation.
# ---------------------------------------------------------------------------


def _level_case():
    rows = [(i % 6, i % 4, (i * 7) % 6) for i in range(96)]
    relation = Relation("r", ATTRS, rows)
    partitions = {a: StrippedPartition.from_column(relation, a) for a in ATTRS}
    batch = [(partitions[lhs], rhs) for lhs in ATTRS for rhs in ATTRS if lhs != rhs]
    return relation, batch


@pytest.mark.parametrize("backend", ["python", pytest.param("numpy", marks=requires_numpy)])
def test_validate_level_matches_scalar_oracle_across_partitions(backend):
    with Session(backend=backend):
        relation, batch = _level_case()
        expected = [fd_holds_fast(relation, p, rhs) for p, rhs in batch]
        assert validate_level(relation, batch) == expected


@requires_numpy
@pytest.mark.parametrize("budget", [0, 1 << 30])
def test_stacked_and_loop_level_paths_agree(budget, monkeypatch):
    # budget=0 forces the per-LHS loop; a huge budget forces the stacked
    # prescreen.  Both must match the scalar oracle.
    from repro.relational.backend import NumpyBackend

    monkeypatch.setattr(NumpyBackend, "LEVEL_STACK_MAX_ELEMENTS_PER_CANDIDATE", budget)
    with Session(backend="numpy"):
        relation, batch = _level_case()
        expected = [fd_holds_fast(relation, p, rhs) for p, rhs in batch]
        assert validate_level(relation, batch) == expected
