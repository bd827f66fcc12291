"""Shared fixtures for the test suite.

The fixtures recreate, in miniature, the artefacts the paper reasons about:
the PATIENT/ADMISSION running example of Fig. 1, small synthetic relations
with planted FDs, and tiny-scale versions of the four benchmark catalogues.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Allow running the tests without installing the package (e.g. in an offline
# environment where `pip install -e .` cannot resolve build dependencies).
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.datasets import load_database  # noqa: E402
from repro.relational import NULL, Relation  # noqa: E402

# The longer sweep of ``tests/test_object_fuzz.py`` that the CI fuzz job
# selects with ``--hypothesis-profile=object-sweep``.
settings.register_profile("object-sweep", max_examples=2000)


@pytest.fixture(scope="session")
def patient_relation() -> Relation:
    """The PATIENT excerpt of Fig. 1 of the paper."""
    return Relation(
        "patient",
        ("subject_id", "gender", "dob", "dod", "expire_flag"),
        [
            (249, "F", "13/03/75", NULL, 0),
            (250, "F", "27/12/64", "22/11/88", 1),
            (251, "M", "15/03/90", NULL, 0),
            (252, "M", "06/03/78", NULL, 0),
            (257, "F", "03/04/31", "08/07/21", 1),
        ],
    )


@pytest.fixture(scope="session")
def admission_relation() -> Relation:
    """The ADMISSION excerpt of Fig. 1 of the paper."""
    return Relation(
        "admission",
        ("subject_id", "admittime", "admission_location", "insurance", "diagnosis",
         "h_expire_flag"),
        [
            (247, "03/08/56 20:35", "CLINIC REFERRAL/PREMATURE", "UNOBTAINABLE", "CHEST PAIN", 0),
            (248, "19/10/42 16:30", "EMERGENCY ROOM ADMIT", "Private", "S/P MOTOR ROLLOR", 0),
            (249, "17/12/49 20:41", "EMERGENCY ROOM ADMIT", "Medicare", "UNSTABLE ANGINA", 0),
            (249, "03/02/55 20:16", "EMERGENCY ROOM ADMIT", "Medicare", "CHEST PAIN", 0),
            (249, "27/04/56 15:33", "PHYS REFERRAL/NORMAL DELI", "Medicare", "GI BLEEDING", 0),
            (250, "12/11/88 09:22", "EMERGENCY ROOM ADMIT", "Self Pay", "PNEUMONIA R/O TB", 1),
            (251, "27/07/10 06:46", "EMERGENCY ROOM ADMIT", "Private",
             "INTRACRANIAL HEAD BLEED", 0),
            (252, "31/03/33 04:24", "EMERGENCY ROOM ADMIT", "Private", "GASTROINTESTINAL BLEED", 0),
            (252, "15/08/33 04:23", "EMERGENCY ROOM ADMIT", "Private", "GASTROINTESTINAL BLEED", 0),
            (253, "21/01/74 20:58", "TRANSFER FROM HOSP/EXTRAM", "Medicare",
             "COMPLETE HEART BLOCK", 0),
        ],
    )


@pytest.fixture(scope="session")
def clinical_catalog(patient_relation, admission_relation) -> dict[str, Relation]:
    """Catalogue holding the two relations of the running example."""
    return {"patient": patient_relation, "admission": admission_relation}


@pytest.fixture(scope="session")
def employees_relation() -> Relation:
    """A small relation with planted FDs (department -> manager, id is a key)."""
    return Relation(
        "employees",
        ("emp_id", "name", "department", "manager", "city"),
        [
            (1, "ada", "research", "turing", "london"),
            (2, "grace", "research", "turing", "boston"),
            (3, "edsger", "systems", "dijkstra", "austin"),
            (4, "barbara", "systems", "dijkstra", "boston"),
            (5, "donald", "systems", "dijkstra", "stanford"),
            (6, "alan", "research", "turing", "london"),
        ],
    )


@pytest.fixture(scope="session")
def tiny_catalogs():
    """Tiny-scale versions of the four benchmark databases (session cached)."""
    return {db: load_database(db, "tiny") for db in ("pte", "ptc", "mimic3", "tpch")}


@pytest.fixture(scope="session")
def tiny_mimic(tiny_catalogs):
    """Tiny-scale MIMIC-like catalogue."""
    return tiny_catalogs["mimic3"]
