"""Engine configuration: every tuning knob of the partition kernel in one place.

Before the :class:`~repro.session.Session` API, the kernel was configured
through scattered process-wide environment variables (cache budgets) read
lazily at first use.  :class:`EngineConfig` turns those
into an explicit, immutable value object:

* environment variables become *defaults*, parsed once by
  :meth:`EngineConfig.from_env`;
* an explicit ``EngineConfig(...)`` (or keyword overrides on
  ``Session(...)``/per-call overrides on ``Session.discover(...)``) always
  wins over the environment;
* the whole configuration is JSON-serialisable (:meth:`as_dict`) and
  content-addressed (:meth:`fingerprint`), so every
  :class:`~repro.session.RunResult` can record exactly which engine settings
  produced it.

The configuration only affects *how fast* results are computed, never *what*
is computed: every cache is semantics-preserving, so artefacts stay
byte-identical across any two configurations (this is pinned by tests).
There is one partition kernel (numpy), so nothing here selects one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

#: Environment variable overriding the mark-table cache budget in bytes.
ENV_MARKS_CACHE_BYTES = "REPRO_MARKS_CACHE_BYTES"

#: Environment variable overriding the combined-codes prefix cache size.
ENV_COMBINED_CACHE_ENTRIES = "REPRO_COMBINED_CODES_CACHE_ENTRIES"

#: Default mark-table budget: sixteen ~1M-row tables at 8 bytes per row.
DEFAULT_MARKS_CACHE_BYTES = 128 * 1024 * 1024

#: Default number of combined-code prefixes cached per relation.
DEFAULT_COMBINED_CACHE_ENTRIES = 16

#: The integer fields of :class:`EngineConfig` and their smallest legal value.
_INT_FIELD_MINIMUMS = {
    "marks_cache_bytes": 0,
    "combined_codes_cache_entries": 2,
    "partition_cache_max_positions": 0,
}


def _env_int(env: Mapping[str, str], name: str, default: int, minimum: int = 0) -> int:
    raw = env.get(name)
    if raw:
        try:
            return max(minimum, int(raw))
        except ValueError:
            pass
    return default


def _env_bool(env: Mapping[str, str], name: str, default: bool) -> bool:
    raw = env.get(name)
    if raw is None or raw == "":
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off")


def _env_float(env: Mapping[str, str], name: str, default: float, minimum: float = 0.0) -> float:
    raw = env.get(name)
    if raw:
        try:
            return max(minimum, float(raw))
        except ValueError:
            pass
    return default


class ConfigError(ValueError):
    """Raised for invalid engine configurations."""


@dataclass(frozen=True)
class EngineConfig:
    """Immutable configuration of the partition-kernel engine.

    Parameters
    ----------
    marks_cache_bytes:
        Byte budget of each relation-scoped row -> group-id mark-table cache.
    combined_codes_cache_entries:
        Entries of each relation-scoped combined-codes prefix LRU.
    partition_cache_max_positions:
        Default ``stripped_size`` budget for algorithm-owned
        :class:`~repro.relational.partition.PartitionCache` instances
        (``None`` = unbounded; call sites may still pass an explicit budget).
    """

    marks_cache_bytes: int = DEFAULT_MARKS_CACHE_BYTES
    combined_codes_cache_entries: int = DEFAULT_COMBINED_CACHE_ENTRIES
    partition_cache_max_positions: int | None = None

    def __post_init__(self) -> None:
        for name, minimum in _INT_FIELD_MINIMUMS.items():
            value = getattr(self, name)
            if value is None and name == "partition_cache_max_positions":
                continue  # None = unbounded
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < minimum:
                raise ConfigError(f"{name} must be at least {minimum}, got {value}")

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "EngineConfig":
        """Parse the environment-variable defaults into a configuration.

        Unset or malformed variables fall back to the built-in defaults, so
        a pristine environment yields ``EngineConfig()``; variables of
        retired fields are ignored.
        """
        if env is None:
            env = os.environ
        return cls(
            marks_cache_bytes=_env_int(
                env, ENV_MARKS_CACHE_BYTES, DEFAULT_MARKS_CACHE_BYTES
            ),
            combined_codes_cache_entries=_env_int(
                env, ENV_COMBINED_CACHE_ENTRIES, DEFAULT_COMBINED_CACHE_ENTRIES, minimum=2
            ),
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "EngineConfig":
        """Build a configuration from a JSON-native mapping of field values.

        The inverse of :meth:`as_dict` (and the parser of per-tenant config
        files for the serving layer): unknown keys raise :class:`ConfigError`,
        missing keys keep their built-in defaults, ``None`` values mean
        "default" (mirroring :meth:`replace`).
        """
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"engine configuration must be a mapping, got {type(data).__name__}"
            )
        return cls().replace(**dict(data))

    def replace(self, **overrides) -> "EngineConfig":
        """A copy with ``overrides`` applied; ``None`` values mean "keep".

        This is the per-call override mechanism of the session API:
        ``session.discover(relation, marks_cache_bytes=0)`` derives a one-call
        configuration from the session's without mutating it.
        """
        cleaned = {key: value for key, value in overrides.items() if value is not None}
        unknown = set(cleaned) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ConfigError(f"unknown EngineConfig fields: {sorted(unknown)}")
        return dataclasses.replace(self, **cleaned) if cleaned else self

    # -- serialisation --------------------------------------------------------
    def as_dict(self) -> dict[str, object]:
        """The configuration as a JSON-native dictionary."""
        return dataclasses.asdict(self)

    def fingerprint(self) -> str:
        """A short, stable content hash of the configuration.

        Recorded in every :class:`~repro.session.RunResult` so artefacts can
        be traced back to the exact engine settings that produced them.
        """
        return config_fingerprint(self.as_dict())


def config_fingerprint(config: Mapping[str, object]) -> str:
    """The short SHA-256 of a configuration mapping's canonical JSON.

    Hashes the mapping exactly as given, so a result recorded under an older
    set of :class:`EngineConfig` fields still re-hashes to its fingerprint.
    """
    canonical = json.dumps(dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Serving-executor configuration (the serving layer's worker model).
# ---------------------------------------------------------------------------

#: Environment variable selecting the serving executor (``thread``/``process``).
ENV_SERVE_EXECUTOR = "REPRO_SERVE_EXECUTOR"

#: Environment variable overriding the serving worker count.
ENV_SERVE_WORKERS = "REPRO_SERVE_WORKERS"

#: Environment variable toggling eager worker-process warmup (``1``/``0``).
ENV_SERVE_WARMUP = "REPRO_SERVE_WARMUP"

#: Environment variable selecting the ``multiprocessing`` start method of the
#: process executor (``spawn``/``fork``/``forkserver``).
ENV_SERVE_START_METHOD = "REPRO_SERVE_START_METHOD"

#: Environment variable holding a fault-injection plan spec (see
#: :mod:`repro.serve.faults`; the literal is duplicated here so ``config``
#: never imports the serving package).  Empty/unset disables injection.
ENV_SERVE_FAULTS = "REPRO_FAULTS"

#: Environment variable capping execution attempts per job (infra retries).
ENV_SERVE_MAX_ATTEMPTS = "REPRO_SERVE_MAX_ATTEMPTS"

#: Environment variable setting the worker-respawn budget per rolling window.
ENV_SERVE_RESTART_BUDGET = "REPRO_SERVE_RESTART_BUDGET"

#: Environment variable setting the rolling respawn-budget window (seconds).
ENV_SERVE_RESTART_WINDOW = "REPRO_SERVE_RESTART_WINDOW"

#: Environment variable toggling the degraded-mode inline fallback (``1``/``0``).
ENV_SERVE_DEGRADED_FALLBACK = "REPRO_SERVE_DEGRADED_FALLBACK"

#: Environment variable setting the graceful-drain deadline (seconds).
ENV_SERVE_DRAIN_DEADLINE = "REPRO_SERVE_DRAIN_DEADLINE"

#: Environment variable pointing the serving layer at an on-disk relation
#: registry root (see :class:`repro.registry.RelationRegistry`); empty/unset
#: keeps the registry in-memory (``relation_ref`` still works, nothing
#: survives a restart).
ENV_REGISTRY_DIR = "REPRO_REGISTRY_DIR"

#: Environment variable sizing the process-executor worker pool independently
#: of the queue-thread count (``0`` = one worker process per queue thread).
ENV_SERVE_PROCESSES = "REPRO_SERVE_PROCESSES"

#: Environment variable recycling each worker process after N jobs (``0`` =
#: never recycle).
ENV_SERVE_MAX_JOBS_PER_WORKER = "REPRO_SERVE_MAX_JOBS_PER_WORKER"

#: Environment variable budgeting the shared-memory data plane in bytes
#: (``0`` disables it; jobs then always travel the pickled wire path).
ENV_SHM_BYTES = "REPRO_SHM_BYTES"

#: Default serving worker count (threads or worker processes).
DEFAULT_SERVE_WORKERS = 4

#: Default execution attempts per job: one retry-capable serving stack, but
#: conservative (the first infra failure is retried twice at most).
DEFAULT_SERVE_MAX_ATTEMPTS = 3

#: Default worker-respawn budget within the rolling window.
DEFAULT_SERVE_RESTART_BUDGET = 5

#: Default rolling window of the respawn budget, in seconds.
DEFAULT_SERVE_RESTART_WINDOW = 30.0

#: Default graceful-drain deadline, in seconds.
DEFAULT_SERVE_DRAIN_DEADLINE = 10.0

#: Default shared-memory plane budget: sixteen ~1M-row, 8-column relations of
#: 8-byte codes.  ``0`` disables the plane.
DEFAULT_SHM_BYTES = 256 * 1024 * 1024

_EXECUTOR_CHOICES = ("thread", "process")

_START_METHOD_CHOICES = ("spawn", "fork", "forkserver")


@dataclass(frozen=True)
class ServeConfig:
    """Immutable executor configuration of the serving layer.

    Parameters
    ----------
    executor:
        ``thread`` (in-process worker threads sharing one session pool — the
        GIL bounds CPU-bound throughput) or ``process`` (one worker process
        per worker, each with its own session pool — CPU-bound jobs scale
        with cores).  Served artefacts are byte-identical either way.
    workers:
        Worker count of the job queue (threads, and under ``process`` also
        the paired worker processes).
    warmup:
        Under ``process``, start and ping every worker process at server
        boot (paying interpreter/import cost once, upfront) instead of
        lazily on each slot's first job.
    start_method:
        ``multiprocessing`` start method of the process executor.  ``spawn``
        is the safe default (fresh interpreter per worker); ``fork`` starts
        faster but inherits parent threads' lock state.
    max_attempts:
        Execution attempts per job: *infra* failures (worker killed, broken
        pipe, injected transient faults) are retried with capped exponential
        backoff up to this many attempts total; *application* failures never
        retry.  Safe because runs are pure — a retried job's artefacts are
        byte-identical to a first-try run.  ``1`` disables retries.
    restart_budget / restart_window:
        Supervision of process workers: more than ``restart_budget`` worker
        respawns within the rolling ``restart_window`` seconds marks the
        executor *degraded* (``/healthz`` turns 503).
    degraded_fallback:
        When the process executor is degraded, run jobs inline in the server
        process (the thread-executor path — same dispatch, byte-identical
        artefacts) instead of feeding a crash-looping worker fleet.
    drain_deadline:
        Graceful-shutdown bound in seconds: running jobs get this long to
        drain before overrunning process workers are terminated.
    faults:
        Fault-injection plan spec (see :mod:`repro.serve.faults`), parsed by
        the serving layer; ``None``/empty disables injection (zero overhead).
    registry_dir:
        Root directory of the on-disk relation registry
        (:class:`repro.registry.RelationRegistry`); ``None`` keeps the
        server's registry in-memory — ``PUT /relations``/``relation_ref``
        still work, but entries do not survive a restart.
    processes:
        Size of the process executor's worker-process pool, decoupled from
        ``workers`` (the queue-thread count): any idle worker serves any
        queue thread.  ``0`` sizes the pool to match ``workers`` — the
        pre-pool 1:1 behaviour.
    max_jobs_per_worker:
        Recycle each worker process after this many completed jobs (bounds
        per-worker memory growth; the replacement spawn is *not* counted
        against the supervision restart budget).  ``0`` never recycles.
    shm_bytes:
        Byte budget of the shared-memory data plane
        (:class:`repro.shm.SharedRelationPlane`): registry-resident
        relations are published once as ``/dev/shm`` segments and attached
        zero-copy by worker processes instead of being re-pickled per job.
        ``0`` disables the plane (jobs travel the wire path, artefacts are
        byte-identical either way).
    """

    executor: str = "thread"
    workers: int = DEFAULT_SERVE_WORKERS
    warmup: bool = True
    start_method: str = "spawn"
    max_attempts: int = DEFAULT_SERVE_MAX_ATTEMPTS
    restart_budget: int = DEFAULT_SERVE_RESTART_BUDGET
    restart_window: float = DEFAULT_SERVE_RESTART_WINDOW
    degraded_fallback: bool = False
    drain_deadline: float = DEFAULT_SERVE_DRAIN_DEADLINE
    faults: str | None = None
    registry_dir: str | None = None
    processes: int = 0
    max_jobs_per_worker: int = 0
    shm_bytes: int = DEFAULT_SHM_BYTES

    def __post_init__(self) -> None:
        if self.executor not in _EXECUTOR_CHOICES:
            raise ConfigError(
                f"unknown serving executor {self.executor!r}: "
                f"expected one of {_EXECUTOR_CHOICES}"
            )
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")
        if self.start_method not in _START_METHOD_CHOICES:
            raise ConfigError(
                f"unknown start method {self.start_method!r}: "
                f"expected one of {_START_METHOD_CHOICES}"
            )
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be at least 1, got {self.max_attempts}")
        if self.restart_budget < 0:
            raise ConfigError(
                f"restart_budget must be non-negative, got {self.restart_budget}"
            )
        if self.restart_window <= 0:
            raise ConfigError(f"restart_window must be positive, got {self.restart_window}")
        if self.drain_deadline <= 0:
            raise ConfigError(f"drain_deadline must be positive, got {self.drain_deadline}")
        for name in ("processes", "max_jobs_per_worker", "shm_bytes"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "ServeConfig":
        """Parse the environment-variable defaults into a serving configuration.

        Unset variables fall back to the built-in defaults (thread executor,
        4 workers, warmup on, ``spawn``, 3 attempts, no fault plan);
        malformed choices raise :class:`ConfigError` rather than silently
        degrading.
        """
        if env is None:
            env = os.environ
        executor = (env.get(ENV_SERVE_EXECUTOR) or "thread").strip().lower() or "thread"
        start_method = (env.get(ENV_SERVE_START_METHOD) or "spawn").strip().lower() or "spawn"
        return cls(
            executor=executor,
            workers=_env_int(env, ENV_SERVE_WORKERS, DEFAULT_SERVE_WORKERS, minimum=1),
            warmup=_env_bool(env, ENV_SERVE_WARMUP, True),
            start_method=start_method,
            max_attempts=_env_int(
                env, ENV_SERVE_MAX_ATTEMPTS, DEFAULT_SERVE_MAX_ATTEMPTS, minimum=1
            ),
            restart_budget=_env_int(
                env, ENV_SERVE_RESTART_BUDGET, DEFAULT_SERVE_RESTART_BUDGET
            ),
            restart_window=_env_float(
                env, ENV_SERVE_RESTART_WINDOW, DEFAULT_SERVE_RESTART_WINDOW, minimum=0.001
            ),
            degraded_fallback=_env_bool(env, ENV_SERVE_DEGRADED_FALLBACK, False),
            drain_deadline=_env_float(
                env, ENV_SERVE_DRAIN_DEADLINE, DEFAULT_SERVE_DRAIN_DEADLINE, minimum=0.001
            ),
            faults=(env.get(ENV_SERVE_FAULTS) or "").strip() or None,
            registry_dir=(env.get(ENV_REGISTRY_DIR) or "").strip() or None,
            processes=_env_int(env, ENV_SERVE_PROCESSES, 0),
            max_jobs_per_worker=_env_int(env, ENV_SERVE_MAX_JOBS_PER_WORKER, 0),
            shm_bytes=_env_int(env, ENV_SHM_BYTES, DEFAULT_SHM_BYTES),
        )

    @classmethod
    def from_env_fields(
        cls, names: "Iterable[str]", env: Mapping[str, str] | None = None
    ) -> dict[str, object]:
        """Parse just ``names`` from the environment (see :meth:`from_env`).

        Lets a caller resolve only the fields it actually left defaulted: a
        server constructed with an explicit executor must not fail on (or
        vary with) a malformed ``REPRO_SERVE_*`` variable it never reads.
        The returned values are validated (malformed requested variables
        still raise :class:`ConfigError`).
        """
        if env is None:
            env = os.environ
        parsers: dict[str, Callable[[], object]] = {
            "executor": lambda: (env.get(ENV_SERVE_EXECUTOR) or "thread").strip().lower()
            or "thread",
            "workers": lambda: _env_int(env, ENV_SERVE_WORKERS, DEFAULT_SERVE_WORKERS, minimum=1),
            "warmup": lambda: _env_bool(env, ENV_SERVE_WARMUP, True),
            "start_method": lambda: (env.get(ENV_SERVE_START_METHOD) or "spawn").strip().lower()
            or "spawn",
            "max_attempts": lambda: _env_int(
                env, ENV_SERVE_MAX_ATTEMPTS, DEFAULT_SERVE_MAX_ATTEMPTS, minimum=1
            ),
            "restart_budget": lambda: _env_int(
                env, ENV_SERVE_RESTART_BUDGET, DEFAULT_SERVE_RESTART_BUDGET
            ),
            "restart_window": lambda: _env_float(
                env, ENV_SERVE_RESTART_WINDOW, DEFAULT_SERVE_RESTART_WINDOW, minimum=0.001
            ),
            "degraded_fallback": lambda: _env_bool(env, ENV_SERVE_DEGRADED_FALLBACK, False),
            "drain_deadline": lambda: _env_float(
                env, ENV_SERVE_DRAIN_DEADLINE, DEFAULT_SERVE_DRAIN_DEADLINE, minimum=0.001
            ),
            "faults": lambda: (env.get(ENV_SERVE_FAULTS) or "").strip() or None,
            "registry_dir": lambda: (env.get(ENV_REGISTRY_DIR) or "").strip() or None,
            "processes": lambda: _env_int(env, ENV_SERVE_PROCESSES, 0),
            "max_jobs_per_worker": lambda: _env_int(env, ENV_SERVE_MAX_JOBS_PER_WORKER, 0),
            "shm_bytes": lambda: _env_int(env, ENV_SHM_BYTES, DEFAULT_SHM_BYTES),
        }
        unknown = set(names) - set(parsers)
        if unknown:
            raise ConfigError(f"unknown ServeConfig fields: {sorted(unknown)}")
        values = {name: parsers[name]() for name in names}
        # Validate only the requested fields: everything else stays at its
        # (always valid) built-in default.
        cls(**values)  # type: ignore[arg-type]
        return values

    def as_dict(self) -> dict[str, object]:
        """The configuration as a JSON-native dictionary."""
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# Per-tenant configuration (the serving layer's tenant model).
# ---------------------------------------------------------------------------

#: Tenant-config key holding the defaults applied to tenants with no entry.
TENANT_DEFAULT_KEY = "*"


def parse_tenant_configs(
    data: Mapping[str, Mapping[str, object]],
) -> dict[str, EngineConfig]:
    """Parse a ``{tenant: {field: value}}`` mapping into per-tenant configs.

    The wire/file format of ``python -m repro serve --tenant-config``: each
    key is a tenant name, each value a partial :class:`EngineConfig` mapping
    (unknown fields raise :class:`ConfigError`, naming the offending tenant).
    The special key ``"*"`` configures the *default* applied to tenants
    without an explicit entry; explicit entries are layered on top of it, so

    .. code-block:: json

        {"*": {"combined_codes_cache_entries": 4},
         "acme": {"marks_cache_bytes": 1048576}}

    gives ``acme`` the 4-entry prefix cache *and* the 1 MiB budget.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"tenant configuration must be a mapping, got {type(data).__name__}"
        )
    base = EngineConfig()
    default_fields = data.get(TENANT_DEFAULT_KEY)
    if default_fields is not None:
        try:
            base = base.replace(**dict(default_fields))
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"tenant {TENANT_DEFAULT_KEY!r}: {exc}") from exc
    configs: dict[str, EngineConfig] = {TENANT_DEFAULT_KEY: base}
    for tenant, fields in data.items():
        if tenant == TENANT_DEFAULT_KEY:
            continue
        if not isinstance(tenant, str) or not tenant:
            raise ConfigError(f"tenant names must be non-empty strings, got {tenant!r}")
        try:
            configs[tenant] = base.replace(**dict(fields))
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"tenant {tenant!r}: {exc}") from exc
    return configs


def load_tenant_configs(path: "os.PathLike[str] | str") -> dict[str, EngineConfig]:
    """Load :func:`parse_tenant_configs` input from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"tenant config {path}: invalid JSON ({exc})") from exc
    return parse_tenant_configs(data)
