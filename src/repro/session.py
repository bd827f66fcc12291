"""`repro.Session` — the first-class engine/configuration API.

Historically every algorithm of the reproduction had its own ad-hoc entry
point (``TANE().discover(...)``, ``approximate_fds(...)``,
``InFine().run(...)``) and every tuning knob was a process-wide environment
variable.  :class:`Session` replaces that with one explicit, embeddable
context object:

* a session owns the relation-scoped kernel caches and its own kernel
  counters — two concurrent sessions share nothing;
* every workload goes through one verb — :meth:`Session.discover` (exact
  FDs), :meth:`Session.validate` (check specific FDs),
  :meth:`Session.profile` (approximate FDs) and :meth:`Session.infine`
  (provenance-aware view discovery) — and returns a unified, JSON-native
  :class:`RunResult` that records the artefacts, run statistics, kernel
  provenance and the configuration fingerprint, and round-trips through
  :meth:`RunResult.save`/:meth:`RunResult.load` byte-identically.

A session has no settings: every result records the fixed values of
retired settings, :func:`engine_config`.

A lazy module-level :func:`default_session` preserves the old one-liner
ergonomics: the classic entry points keep working unchanged (they now run
against the default session's engine state), and the module-level
:func:`discover`/:func:`validate`/:func:`profile`/:func:`infine` shims
delegate to it.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .config import config_fingerprint
from .registry.hashing import catalog_content_hash
from .registry.provenance import PROVENANCE_KEYS, build_provenance
from .registry.store import atomic_write_text
from .discovery.base import DiscoveryResult, FDDiscoveryAlgorithm
from .discovery.registry import make_algorithm
from .fd.approximate import approximate_fds
from .fd.fd import FD
from .fd.fdset import FDSet
from .infine.engine import InFine, InFineResult
from .relational.backend import (
    KERNEL,
    EngineState,
    activate_state,
    get_default_state,
    kernel_stats_summary,
    render_kernel_stats,
)
from .relational.partition import (
    PartitionCache,
    validate_level,
    validate_level_errors,
)
from .relational.relation import Relation
from .relational.view import ViewSpec

#: Schema tag of the :class:`RunResult` serialisation format.
RUN_RESULT_SCHEMA = "repro/run-result-v1"


def engine_config() -> dict[str, Any]:
    """The ``engine.config`` mapping every :class:`RunResult` records.

    Three fixed values of retired settings.  The keys and values are those
    of the configuration object of earlier versions, so a default run's
    ``config_fingerprint`` is unchanged.
    """
    return {
        # The byte budget of the retired mark-table cache.
        "marks_cache_bytes": 134217728,
        # The size of the retired combined-codes prefix cache, recorded so
        # that the default config_fingerprint and every saved result keep
        # their bytes.
        "combined_codes_cache_entries": 16,
        # The retired partition-cache budget: the cache is unbounded.
        "partition_cache_max_positions": None,
    }


def _fd_records(fds: Iterable[FD]) -> list[dict[str, Any]]:
    """FDs as JSON-native records, deterministically sorted."""
    return [
        {"lhs": sorted(dependency.lhs), "rhs": dependency.rhs}
        for dependency in sorted(fds, key=FD.sort_key)
    ]


def _parse_fd(item: "FD | str | tuple") -> FD:
    """Coerce an FD given as an :class:`FD`, ``"a,b -> c"`` or ``(lhs, rhs)``."""
    if isinstance(item, FD):
        return item
    if isinstance(item, str):
        return FD.parse(item)
    lhs, rhs = item
    return FD(lhs, rhs)


class RunResult:
    """The unified, JSON-serialisable outcome of one session run.

    A thin wrapper around a canonical JSON-native payload with typed
    accessors.  The payload always carries:

    ``kind``
        ``discover`` / ``validate`` / ``profile`` / ``infine``.
    ``artifacts``
        The deterministic outputs (always including ``fds``); byte-identical
        across equivalent configurations.
    ``stats``
        Volatile run bookkeeping (runtimes, cache counters).
    ``engine``
        The kernel name (``numpy``), the :func:`engine_config` mapping and
        its fingerprint.
    ``provenance``
        The provenance chain: ``{relation_hash, config_fingerprint,
        code_version, executor}`` — which data (by content hash), engine
        settings, code version and execution path produced the artefacts.
        Verified end-to-end by :func:`repro.registry.verify_provenance`.

    ``save``/``load`` round-trip byte-identically: the canonical rendering
    (sorted keys, fixed indentation) is decided at serialisation time, so a
    loaded result re-saves to the exact same bytes.
    """

    __slots__ = ("payload",)

    def __init__(self, payload: Mapping[str, Any]) -> None:
        if payload.get("schema") != RUN_RESULT_SCHEMA:
            raise ValueError(
                f"not a RunResult payload (schema={payload.get('schema')!r}, "
                f"expected {RUN_RESULT_SCHEMA!r})"
            )
        # Normalising through JSON makes the in-memory payload identical to
        # its serialised form (tuples become lists, keys become strings), so
        # save() -> load() -> save() is byte-stable by construction.
        self.payload: dict[str, Any] = json.loads(json.dumps(payload, sort_keys=True))

    # -- typed accessors ------------------------------------------------------
    @property
    def kind(self) -> str:
        """The session verb that produced this result."""
        return self.payload["kind"]

    @property
    def algorithm(self) -> str:
        """Name of the algorithm (or base algorithm, for InFine) used."""
        return self.payload["algorithm"]

    @property
    def subject(self) -> str:
        """Name of the relation (or description of the view) profiled."""
        return self.payload["subject"]

    @property
    def attributes(self) -> tuple[str, ...]:
        """The attributes the run was restricted to."""
        return tuple(self.payload["attributes"])

    @property
    def artifacts(self) -> dict[str, Any]:
        """The deterministic outputs of the run."""
        return self.payload["artifacts"]

    @property
    def stats(self) -> dict[str, Any]:
        """Volatile run statistics (runtimes, counters)."""
        return self.payload["stats"]

    @property
    def backend(self) -> str:
        """The partition kernel the run recorded (``numpy`` since numpy is required)."""
        return self.payload["engine"]["backend"]

    @property
    def config(self) -> dict[str, Any]:
        """The recorded engine configuration mapping (``engine.config``)."""
        return dict(self.payload["engine"]["config"])

    @property
    def config_fingerprint(self) -> str:
        """Short content hash of the engine configuration."""
        return self.payload["engine"]["config_fingerprint"]

    @property
    def provenance(self) -> dict[str, Any] | None:
        """The provenance block (``None`` on pre-provenance payloads)."""
        return self.payload.get("provenance")

    @property
    def fds(self) -> FDSet:
        """The FDs of the run (holding/discovered), as an :class:`FDSet`."""
        return FDSet(
            FD(record["lhs"], record["rhs"]) for record in self.artifacts["fds"]
        )

    def __len__(self) -> int:
        return len(self.artifacts["fds"])

    def __repr__(self) -> str:
        return (
            f"RunResult(kind={self.kind!r}, subject={self.subject!r}, "
            f"fds={len(self)}, backend={self.backend!r})"
        )

    # -- serialisation --------------------------------------------------------
    def to_json(self) -> str:
        """The canonical JSON rendering (stable key order, trailing newline)."""
        return json.dumps(self.payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        """Parse a result from its canonical JSON rendering."""
        return cls(json.loads(text))

    def save(self, path: "str | Path") -> Path:
        """Write the canonical JSON rendering to ``path``; returns the path.

        Atomic (tmp file + fsync + rename): a crash mid-save leaves either
        the previous artefact or the complete new one, never truncated bytes
        (at worst a ``.tmp`` leftover next to it).
        """
        return atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: "str | Path") -> "RunResult":
        """Load a result previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def artifact_fingerprint(self) -> str:
        """Content hash of the deterministic outputs only.

        Excludes ``stats`` and ``engine``, so two runs of the same workload
        under different cache sizes produce the **same** fingerprint.
        """
        core = {
            "kind": self.kind,
            "algorithm": self.algorithm,
            "subject": self.subject,
            "attributes": list(self.attributes),
            "artifacts": self.artifacts,
        }
        canonical = json.dumps(core, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def with_provenance(self, **fields: Any) -> "RunResult":
        """A copy with ``fields`` merged into the provenance block.

        Used by the serving layer to stamp the executor a job actually ran
        on; returns ``self`` unchanged when nothing would change.  Artefacts
        and the artifact fingerprint are untouched by construction.
        """
        unknown = set(fields) - set(PROVENANCE_KEYS)
        if unknown:
            raise ValueError(f"unknown provenance fields: {sorted(unknown)}")
        current = self.payload.get("provenance") or {}
        if all(current.get(key) == value for key, value in fields.items()):
            return self
        payload = dict(self.payload)
        payload["provenance"] = {**current, **fields}
        # The payload is already JSON-normalised and the merge only replaces
        # scalar values, so the __init__ round-trip can be skipped.
        result = object.__new__(RunResult)
        result.payload = payload
        return result

    # -- builders -------------------------------------------------------------
    @classmethod
    def _build(
        cls,
        kind: str,
        algorithm: str,
        subject: str,
        attributes: Sequence[str],
        artifacts: dict[str, Any],
        stats: dict[str, Any],
        relation_hash: str | None = None,
    ) -> "RunResult":
        config = engine_config()
        fingerprint = config_fingerprint(config)
        return cls(
            {
                "schema": RUN_RESULT_SCHEMA,
                "kind": kind,
                "algorithm": algorithm,
                "subject": subject,
                "attributes": list(attributes),
                "artifacts": artifacts,
                "stats": stats,
                "engine": {
                    "backend": KERNEL.name,
                    "config": config,
                    "config_fingerprint": fingerprint,
                },
                # "inline" = a bare session call; the serving layer re-stamps
                # the executor a job actually ran on via with_provenance().
                "provenance": build_provenance(relation_hash, fingerprint),
            }
        )

    @classmethod
    def from_discovery(
        cls,
        result: DiscoveryResult,
        relation_hash: str | None = None,
    ) -> "RunResult":
        """Wrap a classic :class:`DiscoveryResult`."""
        stats = result.stats
        return cls._build(
            kind="discover",
            algorithm=result.algorithm,
            subject=result.relation_name,
            attributes=result.attributes,
            artifacts={"fds": _fd_records(result.fds)},
            stats={
                "candidates_checked": stats.candidates_checked,
                "validations": stats.validations,
                "levels": stats.levels,
                "sampled_pairs": stats.sampled_pairs,
                "runtime_seconds": stats.runtime_seconds,
                "extra": stats.extra,
            },
            relation_hash=relation_hash,
        )

    @classmethod
    def from_infine(
        cls,
        result: InFineResult,
        algorithm: str,
        relation_hash: str | None = None,
    ) -> "RunResult":
        """Wrap an :class:`InFineResult` (provenance triples and breakdowns)."""
        stats = result.stats
        return cls._build(
            kind="infine",
            algorithm=algorithm,
            subject=result.view.describe(),
            attributes=result.attributes,
            artifacts={
                "fds": _fd_records(result.fds),
                "provenance": result.provenance.to_records(),
                "count_by_step": result.count_by_step(),
                "count_by_type": {
                    fd_type.value: count
                    for fd_type, count in result.count_by_type().items()
                },
            },
            stats={
                "timings": result.timings.as_dict(),
                "base_fd_counts": stats.base_fd_counts,
                "upstage_candidates_checked": stats.upstage_candidates_checked,
                "upstage_border_checks": stats.upstage_border_checks,
                "upstage_fallbacks": stats.upstage_fallbacks,
                "infer_candidates_checked": stats.infer_candidates_checked,
                "mine_candidates_validated": stats.mine_candidates_validated,
                "mine_candidates_pruned_logically": stats.mine_candidates_pruned_logically,
                "mine_candidates_non_free": stats.mine_candidates_non_free,
                "partial_join_rows": stats.partial_join_rows,
                "partial_joins_materialised": stats.partial_joins_materialised,
                "raw_inferred": stats.raw_inferred,
            },
            relation_hash=relation_hash,
        )


class Session:
    """An explicit engine context: kernel caches and counters.

    A session can be used as a context manager (``with Session() as s: ...``)
    or activated explicitly around arbitrary legacy code::

        with session.activate():
            TANE().discover(relation)   # runs on the session's engine state

    Two sessions never share kernel caches or counters; relation-scoped
    caches die with the session (or with the relation, whichever first).
    """

    def __init__(self) -> None:
        self._state = EngineState()
        self._local = threading.local()

    @classmethod
    def _from_state(cls, state: EngineState) -> "Session":
        session = object.__new__(cls)
        session._state = state
        session._local = threading.local()
        return session

    # -- state plumbing -------------------------------------------------------
    @property
    def state(self) -> EngineState:
        """The session's engine state (caches and counters)."""
        return self._state

    @property
    def counters(self):
        """The session-scoped kernel counters."""
        return self._state.counters

    def activate(self):
        """Context manager installing this session's engine state."""
        return activate_state(self._state)

    def __enter__(self) -> "Session":
        activation = self.activate()
        activation.__enter__()
        # A thread-local stack: nested ``with session:`` blocks unwind
        # correctly and two threads sharing one session never pop each
        # other's contextvar tokens.
        stack = getattr(self._local, "activations", None)
        if stack is None:
            stack = self._local.activations = []
        stack.append(activation)
        return self

    def __exit__(self, *exc_info) -> None:
        activation = self._local.activations.pop()
        activation.__exit__(*exc_info)

    def partition_cache(self, relation: Relation) -> PartitionCache:
        """The session-owned :class:`PartitionCache` of ``relation``.

        Reused across :meth:`validate` calls on the same relation, so
        repeated validations amortise their partition builds.  The cache
        lives on the engine state's relation-cache entry, sharing its
        lifecycle (dropped with the session or the relation, whichever goes
        first).
        """
        entry = self._state.caches_for(relation)
        if entry.partitions is None:
            entry.partitions = PartitionCache(relation)
        return entry.partitions

    # -- diagnostics ----------------------------------------------------------
    def kernel_stats(self) -> dict[str, object]:
        """The kernel name plus the session's kernel cache counters."""
        return kernel_stats_summary(self._state)

    def render_kernel_stats(self) -> str:
        """Human-readable block of :meth:`kernel_stats` (CLI ``--kernel-stats``)."""
        return render_kernel_stats(self._state)

    def reset_counters(self) -> None:
        """Zero the session's kernel counters."""
        self._state.reset_counters()

    def close(self) -> None:
        """Drop every cache held by the session (the session stays usable)."""
        self._state.drop_caches()

    def __repr__(self) -> str:
        return f"Session(fingerprint={config_fingerprint(engine_config())})"

    # -- verbs ----------------------------------------------------------------
    def discover(
        self,
        relation: Relation,
        algorithm: "str | FDDiscoveryAlgorithm" = "tane",
        attributes: Sequence[str] | None = None,
        *,
        max_lhs_size: int | None = None,
    ) -> RunResult:
        """Discover all minimal exact FDs of ``relation``.

        ``algorithm`` is a registry name (``tane``/``fun``/``fastfds``/
        ``hyfd``/``naive``/``tane-approximate``) or an algorithm instance.
        """
        if isinstance(algorithm, str):
            kwargs = {"max_lhs_size": max_lhs_size} if max_lhs_size is not None else {}
            algorithm = make_algorithm(algorithm, **kwargs)
        elif max_lhs_size is not None:
            raise ValueError(
                "max_lhs_size only applies when `algorithm` is a registry name; "
                "configure the algorithm instance directly instead"
            )
        with self.activate():
            result = algorithm.discover(relation, attributes)
        return RunResult.from_discovery(result, relation_hash=relation.content_hash())

    def validate(
        self,
        relation: Relation,
        fds: Iterable["FD | str | tuple"],
        *,
        with_errors: bool = True,
    ) -> RunResult:
        """Check whether specific FDs hold on ``relation``.

        ``fds`` accepts :class:`FD` objects, ``"a,b -> c"`` strings or
        ``(lhs, rhs)`` tuples.  The result's ``artifacts`` carry one record
        per input FD (``holds`` plus, with ``with_errors``, its ``g3``
        violation fraction) and ``fds`` lists the holding subset.  Checks
        are validated as one batched lattice pass per shared LHS partition,
        served from the session-owned partition cache of the relation.
        """
        parsed = [_parse_fd(item) for item in fds]
        cache = self.partition_cache(relation)
        started = time.perf_counter()
        with self.activate():
            batch = [(cache.get(dependency.lhs), dependency.rhs) for dependency in parsed]
            if with_errors:
                # One g3 pass answers both questions: an FD holds exactly
                # when its violation fraction is zero (the kernel's batched
                # entry points are pinned to agree on this).
                errors = validate_level_errors(relation, batch)
                verdicts = [error == 0.0 for error in errors]
            else:
                verdicts = validate_level(relation, batch)
                errors = [None] * len(parsed)
        runtime = time.perf_counter() - started
        checks = []
        for dependency, holds, error in zip(parsed, verdicts, errors):
            record: dict[str, Any] = {
                "lhs": sorted(dependency.lhs),
                "rhs": dependency.rhs,
                "holds": bool(holds),
            }
            if error is not None:
                record["g3"] = error
            checks.append(record)
        return RunResult._build(
            kind="validate",
            algorithm="partition-kernel",
            subject=relation.name,
            attributes=relation.attribute_names,
            artifacts={
                "checks": checks,
                "fds": _fd_records(
                    dependency for dependency, holds in zip(parsed, verdicts) if holds
                ),
            },
            stats={
                "candidates_checked": len(parsed),
                "runtime_seconds": runtime,
                "partition_cache": cache.stats.as_dict(),
            },
            relation_hash=relation.content_hash(),
        )

    def profile(
        self,
        relation: Relation,
        threshold: float = 0.05,
        max_lhs: int = 2,
        attributes: Iterable[str] | None = None,
    ) -> RunResult:
        """Enumerate minimal approximate FDs with g3 error in ``(0, threshold]``.

        The session-verb form of :func:`repro.fd.approximate.approximate_fds`;
        the result's ``artifacts`` carry each AFD with its g3 error, and
        ``fds`` lists the dependencies themselves.
        """
        started = time.perf_counter()
        with self.activate():
            afds = approximate_fds(relation, threshold, max_lhs, attributes)
        runtime = time.perf_counter() - started
        return RunResult._build(
            kind="profile",
            algorithm="afd-g3",
            subject=relation.name,
            attributes=(
                tuple(attributes) if attributes is not None else relation.attribute_names
            ),
            artifacts={
                "threshold": threshold,
                "max_lhs": max_lhs,
                "afds": [
                    {
                        "lhs": sorted(afd.dependency.lhs),
                        "rhs": afd.dependency.rhs,
                        "g3": afd.error,
                    }
                    for afd in afds
                ],
                "fds": _fd_records(afd.dependency for afd in afds),
            },
            stats={"runtime_seconds": runtime},
            relation_hash=relation.content_hash(),
        )

    def infine(
        self,
        view: ViewSpec,
        catalog: Mapping[str, Relation],
        algorithm: "str | FDDiscoveryAlgorithm" = "tane",
        *,
        max_lhs_size: int | None = None,
        use_theorem4: bool = True,
        refine_inferred: bool = True,
    ) -> RunResult:
        """Run the InFine pipeline on an SPJ view under this session.

        Returns the provenance triples, per-step timings and run counters as
        a :class:`RunResult`; ``fds`` are the minimal FDs of the view.
        """
        engine = InFine(
            base_algorithm=algorithm,
            max_lhs_size=max_lhs_size,
            use_theorem4=use_theorem4,
            refine_inferred=refine_inferred,
        )
        with self.activate():
            result = engine.run(view, catalog)
        return RunResult.from_infine(
            result,
            algorithm=engine.base_algorithm.name,
            relation_hash=catalog_content_hash(catalog),
        )


# ---------------------------------------------------------------------------
# The module-level default session (one-liner ergonomics + legacy shims).
# ---------------------------------------------------------------------------

_DEFAULT_SESSION: Session | None = None

#: Guards the lazy construction of the default session: concurrent first
#: calls from multiple threads (serving workers, test parallelism) must all
#: receive the same instance.
_DEFAULT_SESSION_LOCK = threading.Lock()


def default_session() -> Session:
    """The lazy module-level session wrapping the default engine state.

    This is the state every classic entry point (``TANE().discover``,
    ``InFine().run``, ``approximate_fds``) runs on when no explicit session
    is active, so its counters/caches and theirs are one and the same.
    Thread-safe: concurrent callers observe a single shared instance.
    """
    global _DEFAULT_SESSION
    session = _DEFAULT_SESSION
    if session is None:
        with _DEFAULT_SESSION_LOCK:
            session = _DEFAULT_SESSION
            if session is None:
                session = _DEFAULT_SESSION = Session._from_state(get_default_state())
    return session


def discover(
    relation: Relation,
    algorithm: "str | FDDiscoveryAlgorithm" = "tane",
    attributes: Sequence[str] | None = None,
    **opts,
) -> RunResult:
    """:meth:`Session.discover` on the default session."""
    return default_session().discover(relation, algorithm, attributes, **opts)


def validate(relation: Relation, fds: Iterable["FD | str | tuple"], **opts) -> RunResult:
    """:meth:`Session.validate` on the default session."""
    return default_session().validate(relation, fds, **opts)


def profile(relation: Relation, threshold: float = 0.05, **opts) -> RunResult:
    """:meth:`Session.profile` on the default session."""
    return default_session().profile(relation, threshold, **opts)


def infine(view: ViewSpec, catalog: Mapping[str, Relation], **opts) -> RunResult:
    """:meth:`Session.infine` on the default session."""
    return default_session().infine(view, catalog, **opts)
