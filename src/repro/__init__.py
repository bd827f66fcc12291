"""InFine reproduction: provenance-aware FD discovery on integrated views.

This package reproduces the system described in *"Provenance-aware Discovery
of Functional Dependencies on Integrated Views"* (ICDE 2022).  The public API
is re-exported here; the recommended entry point is the session API::

    from repro import Relation, Session, base, join

    session = Session()                      # owns its kernel caches and counters
    catalog = {...}
    result = session.discover(catalog["patient"], algorithm="tane")
    view = join(base("patient"), base("admission"), on="subject_id")
    run = session.infine(view, catalog)      # unified, JSON-serialisable RunResult
    run.save("view_fds.json")

The classic entry points (``TANE().discover``, ``InFine().run``,
``approximate_fds``) keep working; they run on the module-level default
session (see :func:`repro.session.default_session`).
"""

from ._version import __version__
from .discovery import (
    FUN,
    TANE,
    FastFDs,
    HyFD,
    NaiveFDDiscovery,
    make_algorithm,
    make_algorithms,
)
from .fd import FD, FDSet, fd
from .infine import FDType, InFine, InFineResult, ProvenanceTriple, StraightforwardPipeline
from .registry import (
    IntegrityError,
    ProvenanceError,
    RelationRegistry,
    relation_content_hash,
    verify_provenance,
)
from .relational import (
    NULL,
    JoinKind,
    Relation,
    RelationSchema,
    base,
    equi_join,
    join,
    load_csv,
    proj,
    project,
    save_csv,
    sel,
    select,
)
from .session import (
    RunResult,
    Session,
    default_session,
    discover,
    infine,
    profile,
    validate,
)

__all__ = [
    "__version__",
    "Session",
    "RunResult",
    "default_session",
    "discover",
    "validate",
    "profile",
    "infine",
    "RelationRegistry",
    "IntegrityError",
    "ProvenanceError",
    "relation_content_hash",
    "verify_provenance",
    "Relation",
    "RelationSchema",
    "NULL",
    "JoinKind",
    "project",
    "select",
    "equi_join",
    "base",
    "proj",
    "sel",
    "join",
    "load_csv",
    "save_csv",
    "FD",
    "fd",
    "FDSet",
    "TANE",
    "FUN",
    "FastFDs",
    "HyFD",
    "NaiveFDDiscovery",
    "make_algorithm",
    "make_algorithms",
    "InFine",
    "InFineResult",
    "FDType",
    "ProvenanceTriple",
    "StraightforwardPipeline",
]
