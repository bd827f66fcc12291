"""Golden artefacts of InFine's ``mineFDs`` over the paper's 16 views.

The fingerprints below are ``RunResult.artifact_fingerprint()`` values
recorded with the one-lattice-per-dependent walk that preceded the shared
level-synchronous walk of :mod:`repro.infine.joinfd`; that rewrite and the
free-set pruning added to it must keep every artefact byte for byte.  The
one exception is the capped (``max_lhs_size=2``) entry of ``tpch/q9``,
re-pinned when TANE's key rule stopped emitting LHSs one attribute past the
cap.  The views run at scale ``tiny`` (data seed 7) under the three
configurations of :data:`CONFIGS`, and the hot view ``pte/atm_bond_atm_drug``
also at scale ``small``.
"""

import pytest

from repro import Session, StraightforwardPipeline
from repro.datasets import load_all, load_database, paper_views, view_by_key

DATA_SEED = 7
HOT_VIEW = "pte/atm_bond_atm_drug"

#: ``Session.infine`` options, in the order of each fingerprint tuple.
CONFIGS = (
    {},
    {"use_theorem4": False},
    {"max_lhs_size": 2},
)

TINY_FINGERPRINTS = {
    "pte/atm_drug": (
        "b3881f50b899cea7b6dc2d05a9e591b320fcd697341edb13fc4aa79a667751be",
        "b3881f50b899cea7b6dc2d05a9e591b320fcd697341edb13fc4aa79a667751be",
        "b3881f50b899cea7b6dc2d05a9e591b320fcd697341edb13fc4aa79a667751be",
    ),
    "pte/active_drug": (
        "4e414f51dda2d31e9c1314da30485808d9eb6d168d134ff7fad7970e656037ca",
        "4e414f51dda2d31e9c1314da30485808d9eb6d168d134ff7fad7970e656037ca",
        "4e414f51dda2d31e9c1314da30485808d9eb6d168d134ff7fad7970e656037ca",
    ),
    "pte/bond_drug_active": (
        "15655448ac43d841cd810511fc023770fb02bf4f7fa5c7706f6a8126e95343c4",
        "15655448ac43d841cd810511fc023770fb02bf4f7fa5c7706f6a8126e95343c4",
        "15655448ac43d841cd810511fc023770fb02bf4f7fa5c7706f6a8126e95343c4",
    ),
    "pte/atm_bond_atm_drug": (
        "02f09d1d07abc782fe4929ed53065ec9d21a69c0248b1ed5c405866d3510ef87",
        "02f09d1d07abc782fe4929ed53065ec9d21a69c0248b1ed5c405866d3510ef87",
        "c7490b594ed7509f661dd48115e0eef737b6df631d2b957b8dd2cdc175579f47",
    ),
    "ptc/atom_molecule": (
        "02c4cec8abb630600757aa19287c206b93bc8a7484a6169c9d3926c91db99e14",
        "02c4cec8abb630600757aa19287c206b93bc8a7484a6169c9d3926c91db99e14",
        "02c4cec8abb630600757aa19287c206b93bc8a7484a6169c9d3926c91db99e14",
    ),
    "ptc/connected_bond": (
        "2b756424d06ed793fa6b44a1f5dbe81230799f900760e79b7773cbcdcfe3900b",
        "2b756424d06ed793fa6b44a1f5dbe81230799f900760e79b7773cbcdcfe3900b",
        "2b756424d06ed793fa6b44a1f5dbe81230799f900760e79b7773cbcdcfe3900b",
    ),
    "ptc/connected_bond_molecule": (
        "eeda25329b7f5dc334e2feb1c7e6bb08c20aa7b02ec79322f0513dc216bbab7b",
        "eeda25329b7f5dc334e2feb1c7e6bb08c20aa7b02ec79322f0513dc216bbab7b",
        "eeda25329b7f5dc334e2feb1c7e6bb08c20aa7b02ec79322f0513dc216bbab7b",
    ),
    "ptc/connected_atom_molecule": (
        "13061b3dae7f7cd6f266dcbfaa9f6d9c6a9cb3b0ebf312f5ecc145042332c7b3",
        "13061b3dae7f7cd6f266dcbfaa9f6d9c6a9cb3b0ebf312f5ecc145042332c7b3",
        "13061b3dae7f7cd6f266dcbfaa9f6d9c6a9cb3b0ebf312f5ecc145042332c7b3",
    ),
    "mimic3/patients_admissions": (
        "e7ce865b61c4b608e62bf16be807a5f469672bba66de66e8a21fc1f70f073ba7",
        "e7ce865b61c4b608e62bf16be807a5f469672bba66de66e8a21fc1f70f073ba7",
        "6aa89d46d6fe76230638b02e189047afe7fcba52a29e00bb5fc2cbb2c3e638fe",
    ),
    "mimic3/diagnoses_patients": (
        "c87ce65330d411ae81c5a15b957cf2d822fa9745b8eb81ee0b40d29c79c6f120",
        "c87ce65330d411ae81c5a15b957cf2d822fa9745b8eb81ee0b40d29c79c6f120",
        "c87ce65330d411ae81c5a15b957cf2d822fa9745b8eb81ee0b40d29c79c6f120",
    ),
    "mimic3/dicd_diagnoses": (
        "bb54d16d3a35e8582a76e3f354e9c15d5f571657a528e407ae0d660e02db70f8",
        "bb54d16d3a35e8582a76e3f354e9c15d5f571657a528e407ae0d660e02db70f8",
        "bb54d16d3a35e8582a76e3f354e9c15d5f571657a528e407ae0d660e02db70f8",
    ),
    "mimic3/diagnoses_patients_dicd": (
        "94edb4f716360ee0f25ac00e6753723bb9c3941ca233f6fcd5c5f70258784bfa",
        "94edb4f716360ee0f25ac00e6753723bb9c3941ca233f6fcd5c5f70258784bfa",
        "94edb4f716360ee0f25ac00e6753723bb9c3941ca233f6fcd5c5f70258784bfa",
    ),
    "tpch/q2": (
        "a97265eb0e88a953e7d15bf2283386fb5d83f2af29aacb1664b526429447b0b8",
        "a97265eb0e88a953e7d15bf2283386fb5d83f2af29aacb1664b526429447b0b8",
        "a97265eb0e88a953e7d15bf2283386fb5d83f2af29aacb1664b526429447b0b8",
    ),
    "tpch/q3": (
        "8151885b2c4cdd7110ac37123d6a01e9562f5ed47cf245850bb18a969b617606",
        "8151885b2c4cdd7110ac37123d6a01e9562f5ed47cf245850bb18a969b617606",
        "8151885b2c4cdd7110ac37123d6a01e9562f5ed47cf245850bb18a969b617606",
    ),
    "tpch/q9": (
        "139b151223916eadaab6f0fb3fbef242d15915f61d5353d85c58728a92ed5c92",
        "139b151223916eadaab6f0fb3fbef242d15915f61d5353d85c58728a92ed5c92",
        "6d553e1fdf65e7fb7d8be3408fede92e5686d6ccba04de5aed487ca498afc1ad",
    ),
    "tpch/q11": (
        "681b3d72938e47e630cab03852d4edb4adac874f9d72d9e784a23ba661b40ca1",
        "681b3d72938e47e630cab03852d4edb4adac874f9d72d9e784a23ba661b40ca1",
        "681b3d72938e47e630cab03852d4edb4adac874f9d72d9e784a23ba661b40ca1",
    ),
}

HOT_VIEW_SMALL_FINGERPRINT = "c7490b594ed7509f661dd48115e0eef737b6df631d2b957b8dd2cdc175579f47"


@pytest.fixture(scope="module")
def tiny_catalogs():
    return load_all("tiny", DATA_SEED)


@pytest.mark.parametrize("case", paper_views(), ids=lambda case: case.key)
def test_tiny_view_artifacts_are_pinned(case, tiny_catalogs):
    catalog = tiny_catalogs[case.database]
    fingerprints = tuple(
        Session().infine(case.spec, catalog, **config).artifact_fingerprint() for config in CONFIGS
    )
    assert fingerprints == TINY_FINGERPRINTS[case.key]


@pytest.mark.parametrize("case", paper_views(), ids=lambda case: case.key)
def test_tiny_view_matches_full_view_tane(case, tiny_catalogs):
    catalog = tiny_catalogs[case.database]
    infine = Session().infine(case.spec, catalog)
    reference = StraightforwardPipeline("tane").run(case.spec, catalog, with_provenance=False)
    assert set(infine.fds.as_set()) == set(reference.fds.as_set())


def test_tiny_upstage_is_certified_by_the_negative_border(tiny_catalogs):
    fallbacks = 0
    for case in paper_views():
        result = Session().infine(case.spec, tiny_catalogs[case.database])
        stats = result.stats
        # TANE runs on a reduced input only when a new FD appears there.
        upstaged = result.artifacts["count_by_step"]["upstageFDs"]
        assert (stats["upstage_fallbacks"] > 0) == (upstaged > 0), case.key
        fallbacks += stats["upstage_fallbacks"]
        if case.key == HOT_VIEW:
            # Certified calls count their border validations as candidates.
            assert stats["upstage_fallbacks"] == 0
            assert stats["upstage_border_checks"] == 16
            assert stats["upstage_candidates_checked"] == 16
    # The three mimic3 views whose upstaged FD is real.
    assert fallbacks == 3


def test_hot_view_small_is_pinned_and_never_evicts():
    case = view_by_key(HOT_VIEW)
    session = Session()
    result = session.infine(case.spec, load_database(case.database, "small", DATA_SEED))
    assert result.artifact_fingerprint() == HOT_VIEW_SMALL_FINGERPRINT
    # The level maps own the multi-attribute partitions: the join's cache
    # only pins singletons, so nothing is ever evicted.
    assert session.kernel_stats()["partition_evictions"] == 0
    # Free-set pruning: LHSs sharing a smaller set's partition are neither
    # validated nor expanded (20 249 validations without it).
    assert result.stats["mine_candidates_validated"] <= 800
    assert result.stats["mine_candidates_non_free"] > 0
