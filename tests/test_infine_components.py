"""Tests for the individual InFine steps (Algorithms 2-5) and provenance containers."""

import random

import pytest

from repro.discovery import TANE
from repro.fd import fd
from repro.infine import (
    FDType,
    ProvenanceSet,
    ProvenanceTriple,
    StepTimings,
    infer_join_fds,
    join_upstaged_fds,
    mine_join_fds,
    mine_new_fds,
    selection_fds,
)
from repro.relational.algebra import JoinKind
from repro.relational.predicates import eq, ne
from repro.relational.relation import Relation


class TestProvenance:
    def test_triple_step_mapping(self):
        assert ProvenanceTriple(fd("a", "b"), FDType.BASE, "R").step == "base"
        assert ProvenanceTriple(fd("a", "b"), FDType.UPSTAGED_LEFT, "V").step == "upstageFDs"
        assert ProvenanceTriple(fd("a", "b"), FDType.INFERRED, "V").step == "inferFDs"
        assert ProvenanceTriple(fd("a", "b"), FDType.JOIN, "V").step == "mineFDs"

    def test_requires_data_access_flag(self):
        assert not FDType.BASE.requires_data_access
        assert not FDType.INFERRED.requires_data_access
        assert FDType.JOIN.requires_data_access
        assert FDType.UPSTAGED_SELECTION.requires_data_access

    def test_first_provenance_wins(self):
        collection = ProvenanceSet()
        assert collection.add(ProvenanceTriple(fd("a", "b"), FDType.BASE, "R"))
        assert not collection.add(ProvenanceTriple(fd("a", "b"), FDType.JOIN, "V"))
        assert collection.triple_for(fd("a", "b")).fd_type is FDType.BASE

    def test_merge_and_counts(self):
        first = ProvenanceSet([ProvenanceTriple(fd("a", "b"), FDType.BASE, "R")])
        second = ProvenanceSet([ProvenanceTriple(fd("c", "d"), FDType.JOIN, "V")])
        merged = first.merge(second)
        assert len(merged) == 2
        counts = merged.count_by_type()
        assert counts[FDType.BASE] == 1 and counts[FDType.JOIN] == 1

    def test_by_type_by_step_restrict(self):
        collection = ProvenanceSet([
            ProvenanceTriple(fd("a", "b"), FDType.BASE, "R"),
            ProvenanceTriple(fd("x", "y"), FDType.INFERRED, "V"),
        ])
        assert len(collection.by_type(FDType.BASE)) == 1
        assert len(collection.by_step("inferFDs")) == 1
        assert collection.restrict_to(["a", "b"]).fds().as_list() == [fd("a", "b")]

    def test_to_records(self):
        collection = ProvenanceSet([ProvenanceTriple(fd("a", "b"), FDType.BASE, "R")])
        record = collection.to_records()[0]
        assert record["fd"] == "a -> b"
        assert record["type"] == "base"
        assert record["subquery"] == "R"

    def test_str_rendering(self):
        triple = ProvenanceTriple(fd("a", "b"), FDType.UPSTAGED_LEFT, "L JOIN R")
        assert "upstaged left" in str(triple)


class TestStepTimings:
    def test_accumulation_and_total(self):
        timings = StepTimings()
        timings.add("io", 1.0)
        timings.add("upstageFDs", 0.5)
        timings.add("selectionFDs", 0.5)
        timings.add("mineFDs", 2.0)
        assert timings.total == pytest.approx(4.0)
        assert timings.view_pipeline == pytest.approx(4.0)
        assert timings.upstage == pytest.approx(1.0)

    def test_base_excluded_from_pipeline(self):
        timings = StepTimings()
        timings.add("base", 5.0)
        timings.add("mine", 1.0)
        assert timings.view_pipeline == pytest.approx(1.0)
        assert timings.total == pytest.approx(6.0)

    def test_measure_context_manager(self):
        timings = StepTimings()
        with timings.measure("inferFDs"):
            pass
        assert timings.infer >= 0.0

    def test_unknown_step_goes_to_extra(self):
        timings = StepTimings()
        timings.add("custom", 1.0)
        assert timings.extra["custom"] == 1.0
        assert "custom" in timings.as_dict()

    def test_merged_with(self):
        first, second = StepTimings(io=1.0), StepTimings(io=2.0, mine=1.0)
        merged = first.merged_with(second)
        assert merged.io == 3.0 and merged.mine == 1.0


class TestMineNewFDs:
    def test_new_fds_exclude_known(self):
        reduced = Relation("r", ("a", "b"), [(1, "x"), (2, "y")])
        new, checked, _, _ = mine_new_fds(reduced, ("a", "b"), [fd("a", "b")])
        assert fd("a", "b") not in new
        assert fd("b", "a") in new
        assert checked > 0

    def test_unknown_attributes_are_ignored(self):
        reduced = Relation("r", ("a", "b"), [(1, "x")])
        new = mine_new_fds(reduced, ("a", "b", "zz"), []).fds
        assert all(d.attributes <= {"a", "b"} for d in new)

    def test_no_usable_attributes(self):
        reduced = Relation("r", ("a",), [(1,)])
        assert mine_new_fds(reduced, ("zz",), []) == ([], 0, 0, 0)


class TestSelectionFDs:
    def test_upstages_fd_when_violators_filtered(self):
        instance = Relation("r", ("rid", "flag", "code"),
                            [(1, 0, "a"), (2, 0, "a"), (3, 1, "b"), (4, 1, "c")])
        known = [fd("rid", "flag"), fd("rid", "code")]
        outcome = selection_fds(instance, ne("code", "c"), known, ("rid", "flag", "code"), "sel")
        assert outcome.filtered
        assert fd("flag", "code") in {t.dependency for t in outcome.triples}
        assert all(t.fd_type is FDType.UPSTAGED_SELECTION for t in outcome.triples)
        assert all(t.subquery == "sel" for t in outcome.triples)

    def test_no_mining_when_nothing_filtered(self):
        instance = Relation("r", ("a", "b"), [(1, 2), (3, 4)])
        outcome = selection_fds(instance, ne("a", 99), [], ("a", "b"), "sel")
        assert not outcome.filtered
        assert outcome.triples == []
        assert outcome.candidates_checked == 0

    def test_selected_instance_returned(self):
        instance = Relation("r", ("a", "b"), [(1, 2), (3, 4)])
        outcome = selection_fds(instance, eq("a", 1), [], ("a", "b"), "sel")
        assert len(outcome.instance) == 1


class TestJoinUpstagedFDs:
    @pytest.fixture()
    def left(self):
        # flag -> code violated only by the dangling row k=5.
        return Relation("L", ("k", "flag", "code"),
                        [(1, 0, "a"), (2, 0, "a"), (3, 1, "b"), (4, 1, "b"), (5, 1, "z")])

    @pytest.fixture()
    def right(self):
        return Relation("R", ("k", "extra"), [(1, "p"), (2, "q"), (3, "p"), (4, "q")])

    def test_inner_join_upstages_left_afd(self, left, right):
        outcome = join_upstaged_fds(left, right, ["k"], ["k"], JoinKind.INNER,
                                    [fd("k", "flag"), fd("k", "code")], [fd("k", "extra")],
                                    ("k", "flag", "code", "extra"), "J")
        upstaged = {t.dependency for t in outcome.triples if t.fd_type is FDType.UPSTAGED_LEFT}
        assert fd("flag", "code") in upstaged
        assert outcome.left_was_reduced
        assert not outcome.right_was_reduced  # every right key joins

    def test_left_outer_join_does_not_upstage_left(self, left, right):
        outcome = join_upstaged_fds(left, right, ["k"], ["k"], JoinKind.LEFT_OUTER,
                                    [], [], ("k", "flag", "code", "extra"), "J")
        assert not outcome.left_was_reduced

    def test_full_outer_join_upstages_nothing(self, left, right):
        outcome = join_upstaged_fds(left, right, ["k"], ["k"], JoinKind.FULL_OUTER,
                                    [], [], ("k", "flag", "code", "extra"), "J")
        assert outcome.triples == []

    def test_no_upstage_when_no_tuples_dropped(self, right):
        complete = Relation("L", ("k", "v"), [(1, "a"), (2, "b"), (3, "c"), (4, "d")])
        outcome = join_upstaged_fds(complete, right, ["k"], ["k"], JoinKind.INNER,
                                    [], [], ("k", "v", "extra"), "J")
        assert [t for t in outcome.triples if t.fd_type is FDType.UPSTAGED_LEFT] == []


class TestInferFDs:
    def test_transitive_inference_through_join(self):
        left = Relation("L", ("k", "city"), [(1, "lyon"), (2, "paris")])
        right = Relation("R", ("k", "country"), [(1, "fr"), (2, "fr")])
        outcome = infer_join_fds(left, right, ["k"], ["k"], JoinKind.INNER,
                                 [fd("city", "k")], [fd("k", "country")],
                                 [fd("city", "k"), fd("k", "country")], "J")
        assert fd("city", "country") in outcome.fds
        assert all(t.fd_type is FDType.INFERRED for t in outcome.triples)

    def test_refinement_minimises_lhs(self):
        # (a, b) -> k logically, but on the data `a` alone determines k.
        left = Relation("L", ("k", "a", "b"), [(1, "x", 1), (2, "y", 1), (3, "z", 2)])
        right = Relation("R", ("k", "c"), [(1, "p"), (2, "q"), (3, "r")])
        outcome = infer_join_fds(left, right, ["k"], ["k"], JoinKind.INNER,
                                 [fd(("a", "b"), "k")], [fd("k", "c")],
                                 [fd(("a", "b"), "k"), fd("k", "c")], "J")
        assert fd("a", "c") in outcome.fds
        assert fd(("a", "b"), "c") not in outcome.fds

    def test_refinement_can_be_disabled(self):
        left = Relation("L", ("k", "a", "b"), [(1, "x", 1), (2, "y", 1), (3, "z", 2)])
        right = Relation("R", ("k", "c"), [(1, "p"), (2, "q"), (3, "r")])
        outcome = infer_join_fds(left, right, ["k"], ["k"], JoinKind.INNER,
                                 [fd(("a", "b"), "k")], [fd("k", "c")],
                                 [fd(("a", "b"), "k"), fd("k", "c")], "J",
                                 refine_with_data=False)
        assert fd(("a", "b"), "c") in outcome.fds

    def test_inferred_fds_implied_by_known_are_dropped(self):
        left = Relation("L", ("k", "a"), [(1, "x")])
        right = Relation("R", ("k", "b"), [(1, "y")])
        known = [fd("a", "k"), fd("k", "b"), fd("a", "b")]
        outcome = infer_join_fds(left, right, ["k"], ["k"], JoinKind.INNER,
                                 [fd("a", "k")], [fd("k", "b")], known, "J")
        assert fd("a", "b") not in outcome.fds

    def test_join_attribute_equality_fds_for_different_names(self):
        left = Relation("L", ("lk", "a"), [(1, "x"), (2, "y")])
        right = Relation("R", ("rk", "b"), [(1, "p"), (2, "q")])
        outcome = infer_join_fds(left, right, ["lk"], ["rk"], JoinKind.INNER,
                                 [], [], [], "J")
        assert fd("lk", "rk") in outcome.fds
        assert fd("rk", "lk") in outcome.fds


class TestMineJoinFDs:
    def test_discovers_cross_side_join_fd(self):
        # gender+plan -> insurance only holds on the joined data.
        left = Relation("L", ("k", "gender"), [(1, "F"), (2, "F"), (3, "M"), (4, "M")])
        right = Relation("R", ("k", "plan", "insurance"),
                         [(1, "a", "medicare"), (2, "b", "private"),
                          (3, "a", "private"), (4, "b", "selfpay")])
        left_fds = [fd("k", "gender")]
        right_fds = [fd("k", "plan"), fd("k", "insurance"), fd(("k", "plan"), "insurance")]
        outcome = mine_join_fds(left, right, ["k"], ["k"], JoinKind.INNER,
                                left_fds, right_fds, left_fds + right_fds,
                                ("k", "gender", "plan", "insurance"), "J")
        assert fd(("gender", "plan"), "insurance") in outcome.fds
        assert outcome.join_materialised
        assert outcome.candidates_validated > 0

    def test_semi_join_produces_nothing(self):
        left = Relation("L", ("k", "a"), [(1, "x")])
        right = Relation("R", ("k", "b"), [(1, "y")])
        outcome = mine_join_fds(left, right, ["k"], ["k"], JoinKind.LEFT_SEMI,
                                [], [], [], ("k", "a"), "J")
        assert outcome.fds == []
        assert not outcome.join_materialised

    def test_no_candidates_means_no_join_materialisation(self):
        # Right side has only the join attribute: no cross FDs are possible.
        left = Relation("L", ("k", "a"), [(1, "x"), (2, "y")])
        right = Relation("R", ("k",), [(1,), (2,)])
        outcome = mine_join_fds(left, right, ["k"], ["k"], JoinKind.INNER,
                                [fd("a", "k"), fd("k", "a")], [], [fd("a", "k"), fd("k", "a")],
                                ("k", "a"), "J")
        assert not outcome.join_materialised
        assert outcome.fds == []

    def test_dominated_candidates_are_not_reported(self):
        left = Relation("L", ("k", "a"), [(1, "x"), (2, "y")])
        right = Relation("R", ("k", "b"), [(1, "p"), (2, "q")])
        known = [fd("k", "a"), fd("a", "k"), fd("k", "b"), fd("b", "k")]
        outcome = mine_join_fds(left, right, ["k"], ["k"], JoinKind.INNER,
                                [fd("k", "a"), fd("a", "k")], [fd("k", "b"), fd("b", "k")],
                                known, ("k", "a", "b"), "J")
        for dependency in outcome.fds:
            assert not any(
                other.rhs == dependency.rhs and other.lhs < dependency.lhs
                for other in known
            )

    def test_theorem4_toggle_gives_same_fds(self):
        left = Relation("L", ("k", "g"), [(1, "F"), (2, "M"), (3, "F"), (4, "M")])
        right = Relation("R", ("k", "p", "i"),
                         [(1, "a", "x"), (2, "b", "y"), (3, "a", "y"), (4, "b", "x")])
        args = (left, right, ["k"], ["k"], JoinKind.INNER,
                [fd("k", "g")], [fd("k", "p"), fd("k", "i")],
                [fd("k", "g"), fd("k", "p"), fd("k", "i")], ("k", "g", "p", "i"), "J")
        with_pruning = mine_join_fds(*args, use_theorem4=True)
        without_pruning = mine_join_fds(*args, use_theorem4=False)
        assert set(with_pruning.fds) == set(without_pruning.fds)
        assert with_pruning.candidates_validated <= without_pruning.candidates_validated

    @staticmethod
    def _mine_with_optional_constant(with_constant):
        # 40 random rows per side, 40 join keys, ``k -> r1`` planted on the right.
        rng = random.Random(1)
        left_rows = [(rng.randrange(40), rng.randrange(10), rng.randrange(3)) for _ in range(40)]
        right_rows = []
        for _ in range(40):
            key = rng.randrange(40)
            right_rows.append((key, rng.randrange(3), key % 3))
        left_attrs = ("k", "l0", "l1")
        if with_constant:
            left_attrs += ("c",)
            left_rows = [row + ("const",) for row in left_rows]
        left = Relation("L", left_attrs, left_rows)
        right = Relation("R", ("k", "r0", "r1"), right_rows)
        left_fds = list(TANE().discover(left).fds)
        right_fds = list(TANE().discover(right).fds)
        return mine_join_fds(left, right, ["k"], ["k"], JoinKind.INNER,
                             left_fds, right_fds, left_fds + right_fds,
                             (*left_attrs, "r0", "r1"), "J")

    def test_constant_column_is_non_free_at_level_one(self):
        # ``∅ -> c`` is known, so ``{c}`` and all its supersets share the
        # partition of a smaller set: no candidate containing ``c`` is
        # validated, and the constant changes nothing else.
        with_constant = self._mine_with_optional_constant(True)
        without_constant = self._mine_with_optional_constant(False)
        assert with_constant.candidates_validated == without_constant.candidates_validated
        assert with_constant.candidates_non_free > 0
        assert without_constant.triples
        assert [t for t in with_constant.triples if t.dependency.rhs != "c"] == (
            without_constant.triples
        )
        assert not any("c" in t.dependency.lhs for t in with_constant.triples)
