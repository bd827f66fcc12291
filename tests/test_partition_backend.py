"""The partition kernel against its pure-python oracle.

Every numpy primitive must be *bit-compatible* with the reference loops of
``tests/kernel_oracle.py``: identical flat arrays (group order, positions
order), identical dense code assignment, identical verdicts from the batched
validation entry points.  Property-style tests call each primitive and the
oracle directly on the same inputs, built from randomised relations (with
NULLs and duplicated rows).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import ORACLE, cross_checked, plain

from repro import Session
from repro.discovery import FUN, TANE, HyFD
from repro.discovery.tane import ApproximateTANE
from repro.relational.backend import KERNEL
from repro.relational.partition import (
    PartitionCache,
    StrippedPartition,
    fd_holds_fast,
    fd_violation_fraction_from_partition,
    validate_level,
    validate_level_errors,
)
from repro.relational.relation import Relation

ATTRS = ("a", "b", "c", "d")

# Low-cardinality domains with NULL so that randomised relations exhibit
# duplicate rows, singleton groups and NULL-carrying groups all at once.
value = st.one_of(st.none(), st.integers(0, 3))
rows_strategy = st.lists(st.tuples(value, value, st.integers(0, 2), value),
                         min_size=0, max_size=40)


def flat(partition):
    """The flat arrays as plain lists."""
    return plain((partition.positions, partition.offsets))


def both(primitive, *args):
    """``(kernel result, oracle result)`` of one primitive on the same inputs."""
    return plain(getattr(KERNEL, primitive)(*args)), plain(getattr(ORACLE, primitive)(*args))


# ---------------------------------------------------------------------------
# Bit-compatibility of the kernel and the oracle on randomised relations.
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy)
def test_grouping_is_bit_identical(rows):
    relation = Relation("r", ATTRS, rows)
    for attribute in ATTRS:
        codes, n_codes, counts = relation._encode_column(attribute)
        kernel, oracle = both("group_by_codes", codes, n_codes, counts)
        assert kernel == oracle
        assert both("group_by_codes", codes, n_codes) == (oracle, oracle)
    for attributes in (("a", "b"), ("d", "b", "c"), ATTRS):
        # The oracle's fold of the column codes into row labels, step by step.
        labels, n_labels = relation.column_codes(attributes[0])
        for attribute in attributes[1:]:
            codes, n_codes = relation.column_codes(attribute)
            kernel, oracle = both("product_labels", labels, n_labels, codes, n_codes)
            assert kernel == oracle
            labels, n_labels = oracle
        kernel, oracle = both("group_by_codes", labels, n_labels)
        assert kernel == oracle
        assert flat(StrippedPartition.from_columns(relation, attributes)) == oracle


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy)
def test_intersect_and_refines_are_bit_identical(rows):
    relation = Relation("r", ATTRS, rows)
    partitions = {a: StrippedPartition.from_column(relation, a) for a in ATTRS}
    for first in ATTRS:
        build = partitions[first]
        args = (build.positions, build.offsets, len(relation))
        kernel_marks, oracle_marks = both("build_marks", *args)
        assert kernel_marks == oracle_marks
        for second in ATTRS:
            if first == second:
                continue
            probe = partitions[second]
            kernel, oracle = both(
                "intersect_marks", probe.positions, probe.offsets, oracle_marks, build.n_groups
            )
            assert kernel == oracle
            if 0 < len(probe.positions) <= len(build.positions):
                # ``intersect`` probes the smaller side into the larger one.
                assert flat(probe.intersect(build)) == oracle
            kernel, oracle = both("refines_marks", probe.positions, probe.offsets, oracle_marks)
            assert kernel == oracle == probe.refines(build)


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy)
def test_g3_fd_checks_and_batched_validation_agree(rows):
    checks = ((("a",), "b"), (("b", "c"), "d"), (("d",), "a"), (("a", "c"), "b"))
    relation = Relation("r", ATTRS, rows)
    cache = PartitionCache(relation)
    scalar = []
    batch = []
    groups = []
    if len(relation):
        for lhs, rhs in checks:
            partition = cache.get(lhs)
            codes, _ = relation.column_codes(rhs)
            args = (partition.positions, partition.offsets, codes)
            holds = both("constant_within_groups", *args)
            removals = both("g3_removals", *args)
            assert holds[0] == holds[1] and removals[0] == removals[1]
            scalar.append(
                (
                    fd_holds_fast(relation, partition, rhs),
                    fd_violation_fraction_from_partition(relation, partition, rhs),
                )
            )
            assert scalar[-1] == (holds[1], removals[1] / len(relation))
            batch.append((partition, rhs))
            groups.append((partition.positions, partition.offsets, [codes, codes]))
    kernel, oracle = both("validate_level_groups", groups)
    assert kernel == oracle
    kernel, oracle = both("validate_level_error_groups", groups)
    assert kernel == oracle
    verdicts = validate_level(relation, batch)
    errors = validate_level_errors(relation, batch)
    # Batched answers must equal the scalar primitives point-wise.
    for (holds, g3), verdict, error in zip(scalar, verdicts, errors):
        assert verdict == holds
        assert error == pytest.approx(g3)
        assert (error == 0.0) == holds


@settings(max_examples=12, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 2), st.one_of(st.none(), st.integers(0, 2)),
                               st.integers(0, 1)), min_size=0, max_size=16))
def test_discovery_results_identical_across_backends(rows):
    # Every primitive call of the four algorithms is replayed on the oracle.
    algorithms = (TANE(), FUN(), HyFD(), ApproximateTANE(0.2))
    relation = Relation("r", ("a", "b", "c"), rows)
    with cross_checked() as calls:
        checked = [tuple(algorithm.discover(relation).as_list()) for algorithm in algorithms]
    relation = Relation("r", ("a", "b", "c"), rows)
    plain_run = [tuple(algorithm.discover(relation).as_list()) for algorithm in algorithms]
    assert checked == plain_run
    assert not rows or calls["group_by_codes"] > 0


def test_validate_level_on_empty_relation_and_empty_batch():
    relation = Relation("r", ATTRS, [])
    partition = StrippedPartition([], 0)
    assert validate_level(relation, [(partition, "a")]) == [True]
    assert validate_level_errors(relation, [(partition, "a")]) == [0.0]
    assert validate_level(relation, []) == []
    assert validate_level_errors(relation, []) == []


class TestBackendSelection:
    def test_unknown_choice_rejected(self):
        # One kernel, nothing to select: naming any backend, on a session or
        # per call, is a TypeError (neither takes engine settings).
        for choice in ("fortran", "python", "numpy", "auto"):
            with pytest.raises(TypeError, match="backend"):
                Session(backend=choice)
            with pytest.raises(TypeError, match="backend"):
                Session().discover(Relation("r", ATTRS, []), backend=choice)

    def test_env_variable_forces_python(self, monkeypatch):
        # REPRO_PARTITION_BACKEND is retired: setting it neither changes the
        # configuration nor the kernel a run records or the artefacts.
        relation_rows = [(i % 3, i % 2, i % 5, None) for i in range(12)]
        baseline = Session().discover(Relation("r", ATTRS, relation_rows))
        monkeypatch.setenv("REPRO_PARTITION_BACKEND", "python")
        result = Session().discover(Relation("r", ATTRS, relation_rows))
        assert result.config == baseline.config
        assert result.backend == KERNEL.name == "numpy"
        assert result.artifact_fingerprint() == baseline.artifact_fingerprint()


# ---------------------------------------------------------------------------
# Stats surfacing.
# ---------------------------------------------------------------------------


def test_discovery_stats_extra_reports_backend_and_kernel_counters():
    relation = Relation("r", ("a", "b"), [(1, 2), (1, 2), (2, 3), (2, 4)])
    result = TANE().discover(relation)
    extra = result.stats.extra
    assert extra["partition_backend"] == KERNEL.name == "numpy"
    assert "kernel" in extra and "mark_hits" in extra["kernel"]
    fun_result = FUN().discover(relation)
    assert "partition_cache" in fun_result.stats.extra
    assert fun_result.stats.extra["partition_cache"]["misses"] >= 1
