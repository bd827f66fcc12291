"""Tests for the single-table FD discovery algorithms (TANE, FUN, FastFDs, HyFD)."""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discovery import (
    FUN,
    TANE,
    ApproximateTANE,
    FastFDs,
    HyFD,
    NaiveFDDiscovery,
    available_algorithms,
    make_algorithm,
    make_algorithms,
    register_algorithm,
)
from repro.fd import FD, fd
from repro.relational.relation import Relation

ALL_ALGORITHMS = [TANE, FUN, FastFDs, HyFD, NaiveFDDiscovery]


@pytest.fixture()
def employees(employees_relation):
    return employees_relation


@pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
class TestOnPlantedFDs:
    def test_key_fds_found(self, algorithm_cls, employees):
        result = algorithm_cls().discover(employees)
        fds = set(result.fds.as_set())
        for rhs in ("name", "department", "manager", "city"):
            assert fd("emp_id", rhs) in fds

    def test_planted_department_manager_fd(self, algorithm_cls, employees):
        fds = set(algorithm_cls().discover(employees).fds.as_set())
        assert fd("department", "manager") in fds
        assert fd("manager", "department") in fds

    def test_no_trivial_or_dominated_fds(self, algorithm_cls, employees):
        fds = algorithm_cls().discover(employees).fds.as_list()
        for dependency in fds:
            assert dependency.rhs not in dependency.lhs
            assert not any(
                other.rhs == dependency.rhs and other.lhs < dependency.lhs for other in fds
            )

    def test_fds_actually_hold(self, algorithm_cls, employees):
        from repro.relational.partition import fd_holds

        for dependency in algorithm_cls().discover(employees).fds:
            assert fd_holds(employees, dependency.lhs, dependency.rhs)

    def test_attribute_restriction(self, algorithm_cls, employees):
        result = algorithm_cls().discover(employees, attributes=("department", "manager"))
        assert set(result.fds.as_set()) == {
            fd("department", "manager"), fd("manager", "department")}

    def test_empty_relation_yields_constant_fds(self, algorithm_cls):
        empty = Relation("e", ("a", "b"), [])
        fds = set(algorithm_cls().discover(empty).fds.as_set())
        assert fds == {FD((), "a"), FD((), "b")}

    def test_single_row_relation(self, algorithm_cls):
        one = Relation("one", ("a", "b"), [(1, 2)])
        fds = set(algorithm_cls().discover(one).fds.as_set())
        assert fds == {FD((), "a"), FD((), "b")}

    def test_constant_column(self, algorithm_cls):
        relation = Relation("r", ("a", "b"), [(1, 7), (2, 7), (3, 7)])
        fds = set(algorithm_cls().discover(relation).fds.as_set())
        assert FD((), "b") in fds
        assert fd("a", "b") not in fds  # dominated by the constant FD

    def test_unknown_attribute_rejected(self, algorithm_cls, employees):
        with pytest.raises(ValueError):
            algorithm_cls().discover(employees, attributes=("nope",))

    def test_stats_are_populated(self, algorithm_cls, employees):
        result = algorithm_cls().discover(employees)
        assert result.stats.runtime_seconds >= 0
        assert result.algorithm == algorithm_cls.name
        assert len(result) == len(result.fds)


@pytest.mark.parametrize("algorithm_cls", [TANE, FUN, FastFDs, HyFD])
class TestAgainstNaiveOracle:
    def test_random_relations_match_oracle(self, algorithm_cls):
        rng = random.Random(11)
        for _ in range(12):
            n_attrs = rng.randint(2, 5)
            n_rows = rng.randint(0, 18)
            names = [f"a{i}" for i in range(n_attrs)]
            rows = [tuple(rng.randint(0, 3) for _ in names) for _ in range(n_rows)]
            relation = Relation("r", names, rows)
            expected = set(NaiveFDDiscovery().discover(relation).fds.as_set())
            got = set(algorithm_cls().discover(relation).fds.as_set())
            assert got == expected, f"{algorithm_cls.name} disagrees on {rows}"

    def test_max_lhs_cap_returns_subset(self, algorithm_cls, employees):
        capped = set(algorithm_cls(max_lhs_size=1).discover(employees).fds.as_set())
        full = set(algorithm_cls().discover(employees).fds.as_set())
        assert capped <= full
        assert all(len(dependency.lhs) <= 1 for dependency in capped)

    def test_capped_run_is_the_oracle_below_the_cap(self, algorithm_cls):
        # TANE's key rule used to emit LHSs one attribute past the cap.
        rng = random.Random(5)
        for _ in range(12):
            names = [f"a{i}" for i in range(rng.randint(3, 6))]
            rows = [tuple(rng.randint(0, 3) for _ in names) for _ in range(rng.randint(0, 18))]
            relation = Relation("r", names, rows)
            full = NaiveFDDiscovery().discover(relation).fds.as_set()
            for cap in (1, 2, 3):
                expected = {dependency for dependency in full if len(dependency.lhs) <= cap}
                got = set(algorithm_cls(max_lhs_size=cap).discover(relation).fds.as_set())
                assert got == expected, f"{algorithm_cls.name} at cap {cap} on {rows}"


class TestApproximateTane:
    def test_accepts_almost_holding_fd(self):
        # grp almost determines val: a single row (rid=0) deviates from its group.
        rows = [(i, i % 3, f"x{i % 3}" if i != 0 else "y") for i in range(30)]
        relation = Relation("r", ("rid", "grp", "val"), rows)
        exact = set(TANE().discover(relation).fds.as_set())
        approx = set(ApproximateTANE(threshold=0.1).discover(relation).fds.as_set())
        assert fd("grp", "val") not in exact
        assert fd("grp", "val") in approx

    def test_zero_threshold_equals_exact(self, employees):
        assert set(ApproximateTANE(threshold=0.0).discover(employees).fds.as_set()) == set(
            TANE().discover(employees).fds.as_set()
        )

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            ApproximateTANE(threshold=-0.1)

    @pytest.mark.parametrize("algorithm", [TANE(), ApproximateTANE(threshold=0.1)])
    def test_a_run_keeps_no_reference_to_its_relation(self, algorithm):
        relation = Relation("r", ("a", "b"), [(i % 3, i % 5) for i in range(60)])
        collected = weakref.ref(relation)
        algorithm.discover(relation)
        del relation
        gc.collect()
        assert collected() is None


class TestRegistry:
    def test_available_algorithms_contains_baselines(self):
        names = available_algorithms()
        for expected in ("tane", "fun", "fastfds", "hyfd", "naive"):
            assert expected in names

    def test_make_algorithm(self):
        assert isinstance(make_algorithm("tane"), TANE)
        assert make_algorithm("hyfd", max_lhs_size=2).max_lhs_size == 2

    def test_make_algorithm_unknown(self):
        with pytest.raises(KeyError):
            make_algorithm("does-not-exist")

    def test_make_algorithms_default_baselines(self):
        assert [a.name for a in make_algorithms()] == ["tane", "fun", "fastfds", "hyfd"]

    def test_register_custom_algorithm(self):
        register_algorithm("naive-again", NaiveFDDiscovery)
        assert isinstance(make_algorithm("naive-again"), NaiveFDDiscovery)

    def test_register_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_algorithm("", NaiveFDDiscovery)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
        max_size=20,
    )
)
def test_property_all_algorithms_agree(rows):
    relation = Relation("r", ("a", "b", "c"), rows)
    expected = set(NaiveFDDiscovery().discover(relation).fds.as_set())
    for algorithm in (TANE(), FUN(), FastFDs(), HyFD()):
        assert set(algorithm.discover(relation).fds.as_set()) == expected
