"""Serving configuration and the engine-configuration fingerprint.

:class:`ServeConfig` holds the serving layer's executor settings, with
``REPRO_SERVE_*`` environment variables as defaults.  The partition kernel
has no settings: its two cache sizes are constants of
:mod:`repro.relational.backend`.  Every :class:`~repro.session.RunResult`
still records the mapping of those sizes under ``engine.config``, hashed by
:func:`config_fingerprint`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping


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
    """Raised for invalid serving configurations."""


def config_fingerprint(config: Mapping[str, object]) -> str:
    """The short SHA-256 of a configuration mapping's canonical JSON.

    Hashes the mapping exactly as given, so a result recorded under an older
    set of engine-configuration fields still re-hashes to its fingerprint.
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
        for name in ("processes", "max_jobs_per_worker"):
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
        fields = [field.name for field in dataclasses.fields(cls)]
        return cls(**cls.from_env_fields(fields, env))  # type: ignore[arg-type]

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
