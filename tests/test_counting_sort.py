"""Counting-sort grouping path: bit-compatibility and batching.

The numpy backend picks between a counting-sort (``uint16`` radix) and the
composite introsort per call: key spaces up to the module constant
``COUNTING_SORT_SPACE`` take the counting sort.  Both are *stable* sorts,
and a stable sort's permutation is unique — so the two paths must produce
byte-identical ``StrippedPartition``s (same group order, same positions,
same dense codes) on every input, equal to the pure-python oracle's.  These
tests pin that across adversarial key-space shapes (forcing the introsort by
zeroing the constant), confirm that neither the switch point nor the cache
sizes have environment or keyword plumbing, and check the cross-LHS stacked
level validation against partition-error equality on both of its internal
paths.
"""

from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from kernel_oracle import LEGS, kernel_leg, plain

from repro.discovery import TANE
from repro.relational import backend as backend_module
from repro.relational.backend import NumpyBackend
from repro.relational.partition import (
    PartitionCache,
    StrippedPartition,
    fd_holds,
    validate_level,
)
from repro.relational.relation import Relation
from repro.session import Session, engine_config

ATTRS = ("a", "b", "c")


def flat(partition):
    return plain((partition.positions, partition.offsets))


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


def _partitions(rows, counting_space, leg="numpy"):
    # A context-manager patch rather than the monkeypatch fixture: the
    # hypothesis test below cannot take function-scoped fixtures.
    with mock.patch.object(backend_module, "COUNTING_SORT_SPACE", counting_space):
        with Session(), kernel_leg(leg):
            relation = Relation("r", ATTRS, rows)
            singles = [flat(StrippedPartition.from_column(relation, a)) for a in ATTRS]
            combined = flat(StrippedPartition.from_columns(relation, ATTRS))
            pair = StrippedPartition.from_column(relation, "a").intersect(
                StrippedPartition.from_column(relation, "b")
            )
    return singles, combined, flat(pair)


@settings(max_examples=60, deadline=None)
@given(rows=shaped_rows())
def test_counting_and_introsort_paths_are_byte_identical(rows):
    # A zero space disables the counting path (introsort only); the stock
    # space enables it for every key space the kernel re-densifies into uint16.
    # Both runs check every kernel call against the oracle.
    counting = _partitions(rows, backend_module.COUNTING_SORT_SPACE, leg="python")
    introsort = _partitions(rows, 0, leg="python")
    assert counting == introsort


def test_threshold_forces_the_expected_sort_path(monkeypatch):
    rows = [(i % 7, i % 3, i % 5) for i in range(200)]
    with Session() as on:
        relation = Relation("r", ATTRS, rows)
        StrippedPartition.from_columns(relation, ATTRS)
        stats_on = on.kernel_stats()
    monkeypatch.setattr(backend_module, "COUNTING_SORT_SPACE", 0)
    with Session() as off:
        relation = Relation("r", ATTRS, rows)
        StrippedPartition.from_columns(relation, ATTRS)
        stats_off = off.kernel_stats()
    assert stats_on["counting_sorts"] > 0
    assert stats_on["introsorts"] == 0
    assert stats_off["counting_sorts"] == 0
    assert stats_off["introsorts"] > 0


def test_knob_is_inert_on_the_python_backend():
    # The sort-path switch only steers numpy code: on either path every
    # primitive call equals the pure-python oracle, which has no sort path.
    rows = [(i % 4, i % 2, i) for i in range(40)]
    results = [
        _partitions(rows, space, leg="python") for space in (0, backend_module.COUNTING_SORT_SPACE)
    ]
    assert results[0] == results[1]


def test_env_and_kwarg_plumbing(monkeypatch):
    # The sort path is fixed by COUNTING_SORT_SPACE, there is one kernel and
    # the cache sizes are constants: the variables of retired knobs are
    # ignored (same recorded engine.config, same artefacts), and naming a
    # retired knob or passing a configuration is a TypeError.
    relation = Relation("r", ATTRS, [(i % 6, i % 4, (i * 7) % 6) for i in range(96)])
    baseline = Session().discover(relation)
    retired = {
        "REPRO_COUNTING_SORT_MAX_CODES": "0",
        "REPRO_PARTITION_BACKEND": "python",
        "REPRO_BACKEND_MIN_NUMPY_ROWS": "500",
        "REPRO_MARKS_CACHE_BYTES": "0",
    }
    for name, value in retired.items():
        monkeypatch.setenv(name, value)
    run = Session().discover(relation)
    assert run.config == engine_config() == baseline.config
    assert run.config["marks_cache_bytes"] == 128 * 1024 * 1024
    assert run.config_fingerprint == baseline.config_fingerprint
    assert run.provenance == baseline.provenance
    assert run.artifact_fingerprint() == baseline.artifact_fingerprint()
    for field, value in (
        ("counting_sort_max_codes", 0),
        ("backend", "python"),
        ("backend_min_numpy_rows", 0),
        ("marks_cache_bytes", 0),
        ("combined_codes_cache_entries", 2),
        ("partition_cache_max_positions", 0),
        ("config", None),
    ):
        with pytest.raises(TypeError, match=field):
            Session(**{field: value})


# ---------------------------------------------------------------------------
# Cross-LHS batched level validation.
# ---------------------------------------------------------------------------


def _level_case():
    rows = [(i % 6, i % 4, (i * 7) % 6) for i in range(96)]
    relation = Relation("r", ATTRS, rows)
    partitions = {a: StrippedPartition.from_column(relation, a) for a in ATTRS}
    pairs = [(lhs, rhs) for lhs in ATTRS for rhs in ATTRS if lhs != rhs]
    batch = [(partitions[lhs], rhs) for lhs, rhs in pairs]
    expected = [fd_holds(relation, [lhs], rhs) for lhs, rhs in pairs]
    return relation, batch, expected


@pytest.mark.parametrize("leg", LEGS)
def test_validate_level_matches_scalar_oracle_across_partitions(leg):
    with Session(), kernel_leg(leg):
        relation, batch, expected = _level_case()
        assert validate_level(relation, batch) == expected


@pytest.mark.parametrize("budget", [0, 1 << 30])
def test_stacked_and_loop_level_paths_agree(budget, monkeypatch):
    # budget=0 forces the per-LHS loop; a huge budget forces the stacked
    # prescreen.  Both must match error equality and the oracle.
    monkeypatch.setattr(NumpyBackend, "LEVEL_STACK_MAX_ELEMENTS_PER_CANDIDATE", budget)
    with Session(), kernel_leg("python"):
        relation, batch, expected = _level_case()
        assert validate_level(relation, batch) == expected


@pytest.mark.parametrize("leg", LEGS)
@settings(max_examples=40, deadline=None)
@example(rows=[])
@example(rows=[(0, 0, 0)])
@example(rows=[(0, i, i % 2) for i in range(12)])
@given(rows=shaped_rows())
def test_tane_error_equality_matches_validate_level(leg, rows):
    # TANE decides ``lhs -> a`` by e(lhs) == e(candidate).  For every check
    # of every level, that verdict must equal the kernel's level pass on
    # both of its paths (budget 0: per-LHS loop; huge: stacked prescreen).
    relation = Relation("r", ATTRS, rows)
    cache = PartitionCache(relation)
    for size in range(1, len(ATTRS) + 1):
        checks = [
            (frozenset(candidate), attribute, frozenset(candidate) - {attribute})
            for candidate in combinations(ATTRS, size)
            for attribute in candidate
        ]
        partitions = {key: cache.get(key) for check in checks for key in (check[0], check[2])}
        expected = TANE()._validate_level(relation, checks, partitions)
        batch = [(partitions[lhs], attribute) for _, attribute, lhs in checks]
        for budget in (0, 1 << 30):
            with mock.patch.object(
                NumpyBackend, "LEVEL_STACK_MAX_ELEMENTS_PER_CANDIDATE", budget
            ), Session(), kernel_leg(leg):
                assert validate_level(relation, batch) == expected
