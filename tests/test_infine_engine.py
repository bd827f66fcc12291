"""End-to-end tests of the InFine engine (Algorithm 1) and the straightforward baseline."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session
from repro.discovery import TANE
from repro.fd import FD, fd
from repro.infine import FDType, InFine, StraightforwardPipeline
from repro.relational.algebra import JoinKind
from repro.relational.predicates import eq, gt, ne
from repro.relational.relation import Relation
from repro.relational.view import base, join, proj, sel


class TestRunningExample:
    """The PATIENT ⋈ ADMISSION example of Fig. 1 / Section II."""

    def test_patient_base_fds_match_paper(self, patient_relation):
        fds = set(TANE().discover(patient_relation).fds.as_set())
        expected = {
            fd("dob", "dod"), fd("dob", "expire_flag"), fd("dob", "gender"),
            fd("dob", "subject_id"), fd("dod", "expire_flag"), fd("subject_id", "dob"),
            fd("subject_id", "dod"), fd("subject_id", "expire_flag"), fd("subject_id", "gender"),
        }
        # The paper lists exactly these 9 FDs for the PATIENT excerpt.
        assert expected <= fds

    def test_join_upstages_expire_flag_dod(self, clinical_catalog):
        view = join(base("patient"), base("admission"), on="subject_id")
        result = InFine().run(view, clinical_catalog)
        triple = result.provenance.triple_for(fd("expire_flag", "dod"))
        assert triple is not None
        assert triple.fd_type is FDType.UPSTAGED_LEFT

    def test_inferred_fd_diagnosis_to_dob_style(self, clinical_catalog):
        view = join(base("patient"), base("admission"), on="subject_id")
        result = InFine().run(view, clinical_catalog)
        # admittime is a key of ADMISSION, so admittime -> dob is inferable
        # through subject_id (the join attribute).
        triple = result.provenance.triple_for(fd("admittime", "dob"))
        assert triple is not None
        assert triple.fd_type is FDType.INFERRED

    def test_equivalence_with_full_view_discovery(self, clinical_catalog):
        view = join(base("patient"), base("admission"), on="subject_id")
        infine = InFine().run(view, clinical_catalog)
        reference = StraightforwardPipeline("tane").run(view, clinical_catalog)
        assert set(infine.fds.as_set()) == set(reference.fds.as_set())

    def test_every_reported_fd_holds_on_the_view(self, clinical_catalog):
        from repro.relational.partition import fd_holds

        view = join(base("patient"), base("admission"), on="subject_id")
        instance = view.evaluate(clinical_catalog)
        result = InFine().run(view, clinical_catalog)
        for triple in result.triples:
            assert fd_holds(instance, triple.dependency.lhs, triple.dependency.rhs)

    def test_provenance_types_are_consistent_with_sources(self, clinical_catalog):
        view = join(base("patient"), base("admission"), on="subject_id")
        result = InFine().run(view, clinical_catalog)
        patient_fds = set(TANE().discover(clinical_catalog["patient"]).fds.as_set())
        admission_fds = set(TANE().discover(clinical_catalog["admission"]).fds.as_set())
        for triple in result.triples:
            if triple.fd_type is FDType.BASE:
                assert triple.dependency in patient_fds | admission_fds

    def test_counts_by_step_sum_to_total(self, clinical_catalog):
        view = join(base("patient"), base("admission"), on="subject_id")
        result = InFine().run(view, clinical_catalog)
        assert sum(result.count_by_step().values()) == len(result)
        assert sum(result.count_by_type().values()) == len(result)


class TestEngineOnViewShapes:
    def test_single_base_relation_view(self, clinical_catalog):
        result = InFine().run(base("patient"), clinical_catalog)
        assert all(triple.fd_type is FDType.BASE for triple in result.triples)
        assert set(result.fds.as_set()) == set(
            TANE().discover(clinical_catalog["patient"]).fds.as_set()
        )

    def test_projection_restricts_output_attributes(self, clinical_catalog):
        view = proj(base("patient"), ["subject_id", "gender"])
        result = InFine().run(view, clinical_catalog)
        assert result.attributes == ("subject_id", "gender")
        assert all(t.dependency.attributes <= {"subject_id", "gender"} for t in result.triples)

    def test_selection_upstages_fds(self):
        catalog = {
            "r": Relation("r", ("rid", "flag", "code"),
                          [(1, 0, "a"), (2, 0, "a"), (3, 1, "b"), (4, 1, "c")]),
        }
        view = sel(base("r"), ne("code", "c"))
        result = InFine().run(view, catalog)
        triple = result.provenance.triple_for(fd("flag", "code"))
        assert triple is not None and triple.fd_type is FDType.UPSTAGED_SELECTION
        reference = StraightforwardPipeline("tane").run(view, catalog)
        assert set(result.fds.as_set()) == set(reference.fds.as_set())

    def test_selection_that_filters_nothing_keeps_base_provenance(self, clinical_catalog):
        view = sel(base("patient"), ne("gender", "X"))
        result = InFine().run(view, clinical_catalog)
        assert all(t.fd_type is FDType.BASE for t in result.triples)

    def test_empty_selection_yields_constant_fds(self, clinical_catalog):
        view = sel(base("patient"), eq("gender", "NOPE"))
        result = InFine().run(view, clinical_catalog)
        assert set(result.fds.as_set()) == {
            FD((), a) for a in clinical_catalog["patient"].attribute_names
        }

    def test_semi_join_view(self, clinical_catalog):
        view = join(base("patient"), base("admission"), on="subject_id", kind=JoinKind.LEFT_SEMI)
        result = InFine().run(view, clinical_catalog)
        reference = StraightforwardPipeline("tane").run(view, clinical_catalog)
        assert set(result.fds.as_set()) == set(reference.fds.as_set())
        assert set(result.attributes) == set(clinical_catalog["patient"].attribute_names)

    def test_dominated_base_fd_is_dropped_from_view_set(self):
        # In the base right table, (c1, c2) -> d is minimal; after the join the
        # smaller determinant c1 -> d becomes valid, so the base FD must
        # disappear from the view's minimal FD set (paper Section II).
        left = Relation("L", ("k", "c1"), [(1, "a"), (2, "b"), (3, "a")])
        right = Relation("R", ("k", "c2", "d"),
                         [(1, "x", 10), (2, "y", 20), (3, "y", 10), (4, "x", 30), (5, "y", 30)])
        catalog = {"L": left, "R": right}
        view = join(base("L"), base("R"), on="k")
        result = InFine().run(view, catalog)
        reference = StraightforwardPipeline("tane").run(view, catalog)
        assert set(result.fds.as_set()) == set(reference.fds.as_set())
        for dependency in result.fds:
            assert not any(
                other.rhs == dependency.rhs and other.lhs < dependency.lhs
                for other in result.fds
            )

    def test_max_lhs_cap_is_respected(self, clinical_catalog):
        view = join(base("patient"), base("admission"), on="subject_id")
        result = InFine(max_lhs_size=1).run(view, clinical_catalog)
        assert all(len(t.dependency.lhs) <= 1 for t in result.triples)

    def test_theorem4_ablation_changes_nothing_functionally(self, clinical_catalog):
        view = join(base("patient"), base("admission"), on="subject_id")
        with_pruning = InFine(use_theorem4=True).run(view, clinical_catalog)
        without_pruning = InFine(use_theorem4=False).run(view, clinical_catalog)
        assert set(with_pruning.fds.as_set()) == set(without_pruning.fds.as_set())

    @pytest.mark.parametrize("use_theorem4", [True, False])
    def test_cap_with_a_two_attribute_join_key(self, use_theorem4):
        # ``(k, k2) -> b0`` holds on the reduced B but lies past the cap of 1,
        # so B's capped cover cannot tell Theorem 4 that ``a1 -> b0`` may
        # hold on the join; it must be validated on the data instead.
        catalog = {
            "A": Relation("A", ("k", "k2", "a1"), [(1, 1, "x"), (1, 2, "y"), (2, 1, "z")]),
            "B": Relation(
                "B", ("k", "k2", "b0"), [(1, 1, "p"), (1, 2, "q"), (2, 1, "q"), (3, 3, "p")]
            ),
        }
        view = join(base("A"), base("B"), on=("k", "k2"))
        result = InFine(max_lhs_size=1, use_theorem4=use_theorem4).run(view, catalog)
        reference = StraightforwardPipeline(TANE(max_lhs_size=1)).run(
            view, catalog, with_provenance=False
        )
        assert FD(("a1",), "b0") in set(result.fds.as_set())
        assert set(result.fds.as_set()) == set(reference.fds.as_set())

    def test_timings_and_stats_populated(self, clinical_catalog):
        view = join(base("patient"), base("admission"), on="subject_id")
        result = InFine().run(view, clinical_catalog)
        assert result.timings.total > 0
        assert result.stats.base_fd_counts["patient"] >= 9
        assert result.timings.view_pipeline <= result.timings.total


class TestStraightforwardPipeline:
    def test_provenance_recovery_classifies_base_fds(self, clinical_catalog):
        view = join(base("patient"), base("admission"), on="subject_id")
        run = StraightforwardPipeline("tane").run(view, clinical_catalog, with_provenance=True)
        base_fds = {t.dependency for t in run.provenance.by_type(FDType.BASE)}
        assert fd("subject_id", "dob") in base_fds
        assert run.comparison_seconds >= 0.0

    def test_total_seconds_is_spj_plus_discovery(self, clinical_catalog):
        view = join(base("patient"), base("admission"), on="subject_id")
        run = StraightforwardPipeline("hyfd").run(view, clinical_catalog, with_provenance=False)
        assert run.total_seconds == pytest.approx(run.spj_seconds + run.discovery_seconds)
        assert run.view_rows == 7
        assert len(run.provenance) == 0

    def test_accepts_algorithm_instance(self, clinical_catalog):
        view = base("patient")
        run = StraightforwardPipeline(TANE()).run(view, clinical_catalog, with_provenance=False)
        assert run.algorithm == "tane"

    def test_reuses_precomputed_base_results(self, clinical_catalog):
        view = join(base("patient"), base("admission"), on="subject_id")
        pipeline = StraightforwardPipeline("tane")
        first = pipeline.run(view, clinical_catalog, with_provenance=True)
        second = pipeline.run(view, clinical_catalog, with_provenance=True,
                              base_results=first.base_results)
        assert set(second.fds.as_set()) == set(first.fds.as_set())


def _random_catalog(rng: random.Random):
    n_left, n_right = rng.randint(2, 15), rng.randint(2, 15)
    dom = rng.randint(1, 4)
    left_attrs = ["k"] + [f"l{i}" for i in range(rng.randint(1, 2))]
    right_attrs = ["k"] + [f"r{i}" for i in range(rng.randint(1, 2))]
    left = Relation("L", left_attrs,
                    [tuple(rng.randint(0, dom) for _ in left_attrs) for _ in range(n_left)])
    right = Relation("R", right_attrs,
                     [tuple(rng.randint(0, dom) for _ in right_attrs) for _ in range(n_right)])
    return {"L": left, "R": right}


@pytest.mark.parametrize("seed", range(8))
def test_randomised_equivalence_inner_join(seed):
    rng = random.Random(seed)
    catalog = _random_catalog(rng)
    view = join(base("L"), base("R"), on="k")
    infine = InFine().run(view, catalog)
    reference = StraightforwardPipeline("tane").run(view, catalog, with_provenance=False)
    assert set(infine.fds.as_set()) == set(reference.fds.as_set())


@pytest.mark.parametrize("kind", [JoinKind.INNER, JoinKind.LEFT_SEMI, JoinKind.RIGHT_SEMI])
def test_randomised_equivalence_other_join_kinds(kind):
    rng = random.Random(hash(kind.value) % 1000)
    catalog = _random_catalog(rng)
    view = join(base("L"), base("R"), on="k", kind=kind)
    infine = InFine().run(view, catalog)
    reference = StraightforwardPipeline("tane").run(view, catalog, with_provenance=False)
    assert set(infine.fds.as_set()) == set(reference.fds.as_set())



def _wide_random_catalog(rng: random.Random):
    """2-4 attributes and 0-25 rows per side: deep enough for mineFDs' level 3+."""
    dom = rng.randint(1, 4)
    relations = {}
    for name, prefix in (("L", "l"), ("R", "r")):
        n_rows = rng.randint(0, 25)
        attrs = ["k"] + [f"{prefix}{i}" for i in range(rng.randint(1, 3))]
        relations[name] = Relation(
            name, attrs, [tuple(rng.randint(0, dom) for _ in attrs) for _ in range(n_rows)]
        )
    return relations


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("kind", [JoinKind.INNER, JoinKind.LEFT_SEMI, JoinKind.RIGHT_SEMI])
def test_randomised_equivalence_wide_views(kind, seed):
    catalog = _wide_random_catalog(random.Random(seed))
    view = join(base("L"), base("R"), on="k", kind=kind)
    infine = InFine().run(view, catalog)
    reference = StraightforwardPipeline("tane").run(view, catalog, with_provenance=False)
    assert set(infine.fds.as_set()) == set(reference.fds.as_set())



def _wider_random_catalog(rng: random.Random):
    """3-5 attributes and 0-30 rows per side, ``l0 -> l1`` planted on the left.

    Each non-key column is constant with ~15% probability, so some level-1
    LHSs are non-free and must be skipped without losing an FD.
    """
    dom = rng.randint(1, 4)
    relations = {}
    for name, prefix in (("L", "l"), ("R", "r")):
        n_rows = rng.randint(0, 30)
        attrs = ["k"] + [f"{prefix}{i}" for i in range(rng.randint(2, 4))]
        constant = {a for a in attrs[1:] if rng.random() < 0.15}
        rows = []
        for _ in range(n_rows):
            row = {a: 0 if a in constant else rng.randint(0, dom) for a in attrs}
            if name == "L" and "l1" not in constant:
                row["l1"] = row["l0"] % 2
            rows.append(tuple(row[a] for a in attrs))
        relations[name] = Relation(name, attrs, rows)
    return relations


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("kind", [JoinKind.INNER, JoinKind.LEFT_SEMI, JoinKind.RIGHT_SEMI])
def test_randomised_equivalence_wider_views(kind, seed):
    catalog = _wider_random_catalog(random.Random(1000 + seed))
    view = join(base("L"), base("R"), on="k", kind=kind)
    with_theorem4 = Session().infine(view, catalog)
    without_theorem4 = Session().infine(view, catalog, use_theorem4=False)
    reference = StraightforwardPipeline("tane").run(view, catalog, with_provenance=False)
    assert set(with_theorem4.fds.as_set()) == set(reference.fds.as_set())
    assert with_theorem4.artifact_fingerprint() == without_theorem4.artifact_fingerprint()


@pytest.mark.xfail(
    strict=True,
    reason="outer joins: the preserved side is semi-join-reduced before mining and "
    "carried FDs ignore NULL padding, so InFine reports constant FDs TANE rejects",
)
@pytest.mark.parametrize("kind", [JoinKind.LEFT_OUTER, JoinKind.RIGHT_OUTER, JoinKind.FULL_OUTER])
def test_outer_join_equivalence_known_defect(kind):
    catalog = {
        "L": Relation("L", ("k", "a"), [(1, "x"), (2, "x")]),
        "R": Relation("R", ("k", "b"), [(1, "p"), (3, "q")]),
    }
    view = join(base("L"), base("R"), on="k", kind=kind)
    infine = InFine().run(view, catalog)
    reference = StraightforwardPipeline("tane").run(view, catalog, with_provenance=False)
    assert set(infine.fds.as_set()) == set(reference.fds.as_set())

@settings(max_examples=20, deadline=None)
@given(
    left_rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=12),
    right_rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=12),
    selection_threshold=st.integers(0, 2),
)
def test_property_infine_equals_full_view_discovery(left_rows, right_rows, selection_threshold):
    catalog = {
        "L": Relation("L", ("k", "a"), left_rows),
        "R": Relation("R", ("k", "b"), right_rows),
    }
    view = sel(join(base("L"), base("R"), on="k"), gt("a", selection_threshold))
    infine = InFine().run(view, catalog)
    reference = StraightforwardPipeline("tane").run(view, catalog, with_provenance=False)
    assert set(infine.fds.as_set()) == set(reference.fds.as_set())
