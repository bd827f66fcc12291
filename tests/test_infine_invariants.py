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
views at ``tiny``: the artefact bytes stay equal with the row-label memo at
its minimum size (it keeps nothing) and with ``use_theorem4=False``, and
the FD set stays equal with ``refine_inferred=False``.

InFine's own data checks (the ``upstageFDs`` border, the ``refine`` step of
``inferFDs`` and ``mineFDs``) run on dense row labels: over the 16 views it
makes no partition-cache request, and its per-view check counters are pinned.
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
from repro.infine.joinfd import RowLabels
from repro.relational.backend import NumpyBackend
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


def keep_no_labels(monkeypatch) -> None:
    """Set the row-label memo to its minimum size: it keeps nothing.

    Every lookup then recomputes its set from the single columns up, through
    the prefix products, instead of from a memoised subset.
    """
    monkeypatch.setattr(RowLabels, "get", lambda labels, mask: labels._compute(mask))


@pytest.mark.parametrize("case", VIEWS, ids=lambda case: case.key)
def test_minimum_cache_sizes_keep_infine_bytes(case, catalogs, default_runs, monkeypatch):
    keep_no_labels(monkeypatch)
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
    # The byte-equality above means something only if the memo at its
    # minimum size really recomputes label products it would have reused.
    products = [0]
    real = NumpyBackend.product_labels

    def counted(kernel, *args):
        products[0] += 1
        return real(kernel, *args)

    def count_products() -> int:
        products[0] = 0
        session = Session()
        for case in VIEWS:
            session.infine(case.spec, catalogs[case.database])
        return products[0]

    monkeypatch.setattr(NumpyBackend, "product_labels", counted)
    memoised = count_products()
    keep_no_labels(monkeypatch)
    assert count_products() > memoised > 0


#: ``(upstage_border_checks, upstage_fallbacks, infer_candidates_checked)`` per
#: view at ``tiny``: the label checks make the same walk, verdict for verdict,
#: as the partition checks they replaced.
CHECK_COUNTS = {
    "pte/atm_drug": (6, 0, 0),
    "pte/active_drug": (1, 0, 0),
    "pte/bond_drug_active": (14, 0, 0),
    "pte/atm_bond_atm_drug": (16, 0, 96),
    "ptc/atom_molecule": (6, 0, 0),
    "ptc/connected_bond": (7, 0, 0),
    "ptc/connected_bond_molecule": (16, 0, 0),
    "ptc/connected_atom_molecule": (14, 0, 0),
    "mimic3/patients_admissions": (11, 1, 0),
    "mimic3/diagnoses_patients": (8, 1, 0),
    "mimic3/dicd_diagnoses": (6, 0, 4),
    "mimic3/diagnoses_patients_dicd": (18, 1, 8),
    "tpch/q2": (6, 0, 0),
    "tpch/q3": (13, 0, 0),
    "tpch/q9": (8, 0, 82),
    "tpch/q11": (8, 0, 118),
}


def test_infine_checks_make_no_partition_cache_requests(catalogs):
    session = Session()
    counts = {}
    for case in VIEWS:
        stats = session.infine(case.spec, catalogs[case.database]).stats
        counts[case.key] = (
            stats["upstage_border_checks"],
            stats["upstage_fallbacks"],
            stats["infer_candidates_checked"],
        )
    kernel = session.kernel_stats()
    assert (kernel["partition_hits"], kernel["partition_misses"]) == (0, 0)
    assert counts == CHECK_COUNTS
