"""Standalone invariants of InFine's provenance output.

Each invariant is a small class whose ``check`` takes one recorded InFine
run and returns an :class:`InvariantResult` that lists every violation, so
a failure names the view and the offending FD.  They hold for any view and
any lattice walk, and are checked on the paper's 16 views at scale
``tiny`` and on fixed seeds of ``tools/fuzz_infine.py``:

* every triple that ``mineFDs`` emits crosses the join: its
  ``lhs ∪ {rhs}`` lies within neither join input alone;
* the artefact's ``count_by_type`` sums to the number of FDs;
* every ``BASE`` triple holds on the base table it names.

Each invariant is also run on a hand-made run that breaks it.

Three more compare a view's default run with a variant of it, on the 16
views at ``tiny``: the artefact bytes stay equal with both kernel cache
sizes at their minimum and with ``use_theorem4=False``, and the FD set stays
equal with ``refine_inferred=False``.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from unittest import mock

import pytest

from repro import Session
from repro.datasets import load_all, paper_views
from repro.fd.fd import FD
from repro.infine.provenance import FDType, ProvenanceTriple
from repro.relational import backend
from repro.relational.partition import fd_holds
from repro.relational.relation import Relation

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import fuzz_infine  # noqa: E402

ENGINE = importlib.import_module("repro.infine.engine")
DATA_SEED = 7
FUZZ_SEEDS = range(20)


@dataclass(frozen=True)
class InvariantResult:
    """The outcome of one invariant on one run."""

    name: str
    violations: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class MiningRecord:
    """One ``mineFDs`` call: the attributes of its join inputs and its triples."""

    left: frozenset[str]
    right: frozenset[str]
    triples: list[ProvenanceTriple]


@dataclass
class InFineRun:
    """A run's catalogue, its ``RunResult`` artefacts and its ``mineFDs`` calls."""

    label: str
    catalog: dict[str, Relation]
    artifacts: dict
    minings: list[MiningRecord] = field(default_factory=list)

    def fd_of(self, text: str) -> FD | None:
        """The artefact FD whose string form is ``text``."""
        for record in self.artifacts["fds"]:
            dependency = FD(record["lhs"], record["rhs"])
            if str(dependency) == text:
                return dependency
        return None


def record_run(label: str, view, catalog, **options) -> InFineRun:
    """Run ``Session().infine`` and record every ``mineFDs`` call it makes."""
    minings: list[MiningRecord] = []
    mine = ENGINE.mine_join_fds

    def recording(left_instance, right_instance, *args, **kwargs):
        outcome = mine(left_instance, right_instance, *args, **kwargs)
        minings.append(
            MiningRecord(
                frozenset(left_instance.attribute_names),
                frozenset(right_instance.attribute_names),
                list(outcome.triples),
            )
        )
        return outcome

    with mock.patch.object(ENGINE, "mine_join_fds", recording):
        result = Session().infine(view, catalog, **options)
    return InFineRun(label, dict(catalog), result.artifacts, minings)


class MinedTriplesCrossSides:
    """Every ``mineFDs`` triple's ``lhs ∪ {rhs}`` lies on neither join side alone."""

    name = "mined-triples-cross-sides"

    def check(self, run: InFineRun) -> InvariantResult:
        violations = []
        for mining in run.minings:
            for triple in mining.triples:
                attributes = triple.dependency.attributes
                if attributes <= mining.left or attributes <= mining.right:
                    violations.append(f"{run.label}: {triple} lies on one join side")
        return InvariantResult(self.name, tuple(violations))


class CountByTypeSumsToFDs:
    """The artefact's ``count_by_type`` sums to its number of FDs."""

    name = "count-by-type-sums-to-fds"

    def check(self, run: InFineRun) -> InvariantResult:
        counted = sum(run.artifacts["count_by_type"].values())
        n_fds = len(run.artifacts["fds"])
        if counted == n_fds:
            return InvariantResult(self.name)
        return InvariantResult(self.name, (f"{run.label}: {counted} typed, {n_fds} FDs",))


class BaseTriplesHold:
    """Every ``BASE`` triple holds on the base table it names."""

    name = "base-triples-hold"

    def check(self, run: InFineRun) -> InvariantResult:
        violations = []
        for record in run.artifacts["provenance"]:
            if record["type"] != FDType.BASE.value:
                continue
            dependency = run.fd_of(record["fd"])
            table = run.catalog.get(record["subquery"])
            if dependency is None or table is None:
                violations.append(f"{run.label}: {record} names no FD or no table")
            elif not fd_holds(table, dependency.lhs, dependency.rhs):
                violations.append(f"{run.label}: {dependency} fails on {record['subquery']}")
        return InvariantResult(self.name, tuple(violations))


INVARIANTS = (MinedTriplesCrossSides(), CountByTypeSumsToFDs(), BaseTriplesHold())


@pytest.fixture(scope="module")
def runs() -> list[InFineRun]:
    catalogs = load_all("tiny", DATA_SEED)
    recorded = [record_run(case.key, case.spec, catalogs[case.database]) for case in paper_views()]
    for seed in FUZZ_SEEDS:
        view, catalog, cap = fuzz_infine.generate_case(seed)
        recorded.append(record_run(f"fuzz seed {seed}", view, catalog, max_lhs_size=cap))
    return recorded


@pytest.mark.parametrize("invariant", INVARIANTS, ids=lambda invariant: invariant.name)
def test_invariant_holds_on_every_run(invariant, runs):
    violations = [v for run in runs for v in invariant.check(run).violations]
    assert violations == []


def test_runs_exercise_every_invariant(runs):
    # Mining emits triples, and base triples are checked, on some run.
    assert sum(len(mining.triples) for run in runs for mining in run.minings) > 0
    assert any(
        record["type"] == FDType.BASE.value
        for run in runs
        for record in run.artifacts["provenance"]
    )


def broken_run() -> InFineRun:
    """A hand-made run that breaks every invariant once."""
    table = Relation("r", ("a", "b"), [(1, 1), (1, 2)])
    false_fd = FD(["a"], "b")
    return InFineRun(
        label="broken",
        catalog={"r": table},
        artifacts={
            "fds": [{"lhs": ["a"], "rhs": "b"}],
            "provenance": [{"fd": str(false_fd), "type": "base", "subquery": "r"}],
            "count_by_type": {"base": 2},
        },
        minings=[
            MiningRecord(
                frozenset({"a", "b"}),
                frozenset({"b", "c"}),
                [ProvenanceTriple(false_fd, FDType.JOIN, "r JOIN s")],
            )
        ],
    )


@pytest.mark.parametrize("invariant", INVARIANTS, ids=lambda invariant: invariant.name)
def test_invariant_catches_a_broken_run(invariant):
    result = invariant.check(broken_run())
    assert not result.passed
    assert len(result.violations) == 1
    assert result.violations[0].startswith("broken: ")


# ---------------------------------------------------------------------------
# Invariants across run variants of the 16 paper views.
# ---------------------------------------------------------------------------

VIEWS = paper_views()


@pytest.fixture(scope="module")
def catalogs():
    return load_all("tiny", DATA_SEED)


@pytest.fixture(scope="module")
def default_runs(catalogs):
    return {case.key: Session().infine(case.spec, catalogs[case.database]) for case in VIEWS}


def artefact_bytes(result) -> str:
    return json.dumps(result.artifacts, sort_keys=True)


@pytest.mark.parametrize("case", VIEWS, ids=lambda case: case.key)
def test_minimum_cache_sizes_keep_infine_bytes(case, catalogs, default_runs, monkeypatch):
    monkeypatch.setattr(backend, "MARKS_CACHE_BYTES", 0)
    monkeypatch.setattr(backend, "COMBINED_CODES_CACHE_ENTRIES", 2)
    run = Session().infine(case.spec, catalogs[case.database])
    assert artefact_bytes(run) == artefact_bytes(default_runs[case.key])


@pytest.mark.parametrize("case", VIEWS, ids=lambda case: case.key)
def test_theorem4_off_keeps_infine_bytes(case, catalogs, default_runs):
    run = Session().infine(case.spec, catalogs[case.database], use_theorem4=False)
    assert artefact_bytes(run) == artefact_bytes(default_runs[case.key])


@pytest.mark.parametrize("case", VIEWS, ids=lambda case: case.key)
def test_refine_inferred_off_keeps_the_fd_set(case, catalogs, default_runs):
    # Only the FD set is invariant here, not the bytes: without refinement an
    # FD that inferFDs derived can be reported by mineFDs instead, which is
    # what the ablation is for.  On tpch/q11 one FD moves from ``inferred``
    # to ``joinFD`` (72/6 -> 71/7); the provenance types differ, the FDs do not.
    run = Session().infine(case.spec, catalogs[case.database], refine_inferred=False)
    default = default_runs[case.key]
    assert run.fds == default.fds
    assert sum(run.artifacts["count_by_type"].values()) == len(run.fds)


def test_minimum_cache_sizes_drive_the_eviction_paths(catalogs, monkeypatch):
    # The byte-equality above means something only if the minimum sizes
    # really evict.  Mark tables do; InFine folds no combined-code prefixes
    # on these views, so the prefix LRU's size cannot reach its artefacts
    # (its eviction path is driven in tests/test_partition_backend.py).
    monkeypatch.setattr(backend, "MARKS_CACHE_BYTES", 0)
    monkeypatch.setattr(backend, "COMBINED_CODES_CACHE_ENTRIES", 2)
    session = Session()
    for case in VIEWS:
        session.infine(case.spec, catalogs[case.database])
    assert session.kernel_stats()["mark_evictions"] > 0
