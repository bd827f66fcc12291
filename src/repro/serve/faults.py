"""Deterministic fault injection for the serving stack.

Production serving treats worker death, slow jobs and flaky transports as
routine inputs, not exceptional ones — but those behaviours are exactly the
ones sleep-based tests cannot pin reliably.  This module provides the
substrate for a *deterministic* chaos suite: a :class:`FaultPlan` is a
seeded list of rules, each binding a named **site** in the serving code to a
fault **kind**, and the decision whether the *n*-th arrival at a site fires
is a pure function of ``(seed, rule, site, n)`` — independent of wall clock
and of which thread got there, so a seeded storm is replayable.

Sites (the hooks live in ``jobs.py``/``executor.py``, and for the registry
sites in ``repro/registry/store.py``):

============================ ==================================================
``queue.execute``            a queue worker is about to run a claimed job
                             (both executors; one hit per retry attempt)
``thread.run``               the thread executor is about to call the task
``process.send``             the process executor is about to send a job down
                             a worker pipe
``process.recv``             the process executor is about to block on the
                             worker's reply
``process.kill``             checked right before ``process.send`` — a ``kill``
                             rule here SIGKILLs the slot's worker process
                             mid-job (the OOM-kill simulation)
``registry.read``            the relation registry is about to read an entry
                             from disk (``error``/``drop`` exercise the
                             infra-retry path of ``relation_ref`` jobs)
``registry.write``           the commit point of an atomic registry write —
                             after the tmp file is durable, before the rename;
                             a ``kill`` rule here SIGKILLs the *current
                             process* (the power-loss-mid-PUT simulation)
============================ ==================================================

Kinds:

=========== ===================================================================
``delay``   sleep ``delay_ms`` milliseconds at the site
``error``   raise :class:`InjectedFault` (classified as an *infra* failure by
            the queue, so it exercises the retry path)
``drop``    raise :class:`ConnectionResetError` — a dropped/truncated pipe
            message; at process sites this triggers worker reap + respawn
``kill``    invoke the site's kill callback (SIGKILL the worker process);
            ignored at sites that offer no callback
=========== ===================================================================

The plan is **zero-overhead when absent**: every hook is written as
``if faults is not None: faults.fire(site)``, so the disabled serving path
pays one attribute test per job, nothing else.  A plan parses from a compact
spec string (env ``REPRO_FAULTS``, ``ServeConfig.faults``, CLI ``--faults``)::

    seed=42;process.kill:kill:p=0.1;queue.execute:delay:ms=20:p=0.3:times=5

i.e. ``;``-separated rules of ``site:kind[:key=value...]`` after an optional
leading ``seed=N``, where ``p`` is the fire probability, ``ms`` the delay,
``times`` caps total fires and ``after`` skips the first N arrivals.  Sites
may be shell-style globs (``process.*``) as long as they match at least one
known site.
"""

from __future__ import annotations

import fnmatch
import hashlib
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

#: Environment variable carrying the fault-plan spec (empty/unset = disabled).
ENV_FAULTS = "REPRO_FAULTS"

#: Named injection sites, in the order a job meets them.
SITE_QUEUE_EXECUTE = "queue.execute"
SITE_THREAD_RUN = "thread.run"
SITE_PROCESS_SEND = "process.send"
SITE_PROCESS_RECV = "process.recv"
SITE_PROCESS_KILL = "process.kill"
SITE_REGISTRY_READ = "registry.read"
SITE_REGISTRY_WRITE = "registry.write"

#: Every site a rule may bind to.  The ``registry.*`` literals are duplicated
#: in :mod:`repro.registry.store` (whose hooks fire them) so the registry
#: never imports the serving package.
KNOWN_SITES = (
    SITE_QUEUE_EXECUTE,
    SITE_THREAD_RUN,
    SITE_PROCESS_SEND,
    SITE_PROCESS_RECV,
    SITE_PROCESS_KILL,
    SITE_REGISTRY_READ,
    SITE_REGISTRY_WRITE,
)

#: Every fault kind a rule may inject.
FAULT_KINDS = ("delay", "error", "drop", "kill")


class FaultSpecError(ValueError):
    """Raised for malformed fault-plan specs."""


class InjectedFault(ConnectionError):
    """A transient infrastructure fault injected by a :class:`FaultPlan`.

    Subclasses :class:`ConnectionError` so generic infra-failure
    classification catches it even without importing this module.
    """


@dataclass(frozen=True)
class FaultRule:
    """One ``site:kind`` binding of a fault plan.

    ``probability`` is evaluated deterministically per arrival (see
    :meth:`FaultPlan.fire`); ``times`` caps how often the rule fires in
    total; ``after`` skips the first N arrivals entirely (useful to let a
    system warm up before the storm starts).
    """

    site: str
    kind: str
    probability: float = 1.0
    delay_ms: int = 10
    times: int | None = None
    after: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(f"unknown fault kind {self.kind!r}: expected one of {FAULT_KINDS}")
        if not any(fnmatch.fnmatchcase(site, self.site) for site in KNOWN_SITES):
            raise FaultSpecError(
                f"fault site {self.site!r} matches no known site (known: {KNOWN_SITES})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultSpecError(f"fault probability must be in [0, 1], got {self.probability}")
        if self.delay_ms < 0:
            raise FaultSpecError(f"delay_ms must be non-negative, got {self.delay_ms}")
        if self.times is not None and self.times < 1:
            raise FaultSpecError(f"times must be at least 1, got {self.times}")
        if self.after < 0:
            raise FaultSpecError(f"after must be non-negative, got {self.after}")

    def matches(self, site: str) -> bool:
        return fnmatch.fnmatchcase(site, self.site)


def _decision(seed: int, rule_index: int, site: str, arrival: int) -> float:
    """A uniform [0, 1) value, pure in its arguments.

    Hash-derived instead of ``random.Random`` streams so the verdict for the
    *n*-th arrival at a site does not depend on how many arrivals other
    threads interleaved before it — the same (seed, site, n) always fires
    the same way, which is what makes seeded chaos storms replayable.
    """
    digest = hashlib.sha256(f"{seed}:{rule_index}:{site}:{arrival}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s with per-site arrival counters.

    Thread-safe: the counters are guarded by one lock; the injected effects
    (sleep/raise/kill) happen outside it.
    """

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0) -> None:
        self.rules = tuple(rules)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._arrivals: dict[str, int] = {}
        self._fired = [0] * len(self.rules)

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str | None) -> "FaultPlan | None":
        """Parse a compact spec string; ``None``/empty specs mean *no plan*.

        Grammar: ``[seed=N;]site:kind[:key=value...][;...]`` with keys
        ``p`` (probability), ``ms`` (delay), ``times``, ``after``.
        """
        if spec is None or not spec.strip():
            return None
        seed = 0
        rules: list[FaultRule] = []
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            if part.startswith("seed="):
                try:
                    seed = int(part[len("seed=") :])
                except ValueError as exc:
                    raise FaultSpecError(f"invalid fault seed {part!r}") from exc
                continue
            fields = part.split(":")
            if len(fields) < 2:
                raise FaultSpecError(
                    f"fault rule {part!r} must be 'site:kind[:key=value...]'"
                )
            site, kind = fields[0].strip(), fields[1].strip()
            kwargs: dict[str, object] = {}
            for option in fields[2:]:
                key, sep, value = option.partition("=")
                key = key.strip()
                if not sep:
                    raise FaultSpecError(f"fault rule option {option!r} must be key=value")
                if key not in ("p", "ms", "times", "after"):
                    raise FaultSpecError(
                        f"unknown fault rule option {key!r} (expected p/ms/times/after)"
                    )
                try:
                    if key == "p":
                        kwargs["probability"] = float(value)
                    elif key == "ms":
                        kwargs["delay_ms"] = int(value)
                    elif key == "times":
                        kwargs["times"] = int(value)
                    else:
                        kwargs[key] = int(value)
                except ValueError as exc:
                    raise FaultSpecError(f"invalid fault rule option {option!r}") from exc
            rules.append(FaultRule(site=site, kind=kind, **kwargs))  # type: ignore[arg-type]
        if not rules:
            return None
        return cls(rules, seed=seed)

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "FaultPlan | None":
        """The plan described by ``REPRO_FAULTS`` (``None`` when unset/empty)."""
        if env is None:
            env = os.environ
        return cls.from_spec(env.get(ENV_FAULTS))

    # -- injection ---------------------------------------------------------------
    def fire(self, site: str, on_kill: "Callable[[], None] | None" = None) -> None:
        """Evaluate every rule matching ``site`` for this arrival.

        May sleep (``delay``), raise (``error``/``drop``) or invoke
        ``on_kill`` (``kill``; silently skipped when the site passes no
        callback).  At most one raising fault fires per arrival — the first
        matching rule wins — but a ``delay``/``kill`` ahead of it still
        takes effect.
        """
        with self._lock:
            arrival = self._arrivals.get(site, 0)
            self._arrivals[site] = arrival + 1
            actions: list[tuple[int, FaultRule]] = []
            for index, rule in enumerate(self.rules):
                if not rule.matches(site):
                    continue
                if arrival < rule.after:
                    continue
                if rule.times is not None and self._fired[index] >= rule.times:
                    continue
                if _decision(self.seed, index, site, arrival) >= rule.probability:
                    continue
                self._fired[index] += 1
                actions.append((index, rule))
        raising: FaultRule | None = None
        for _, rule in actions:
            if rule.kind == "delay":
                time.sleep(rule.delay_ms / 1000.0)
            elif rule.kind == "kill":
                if on_kill is not None:
                    on_kill()
            elif raising is None:
                raising = rule
        if raising is not None:
            if raising.kind == "error":
                raise InjectedFault(f"injected transient fault at {site}")
            raise ConnectionResetError(f"injected pipe drop at {site}")

    # -- diagnostics -------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """Seed, per-site arrival counts and per-rule fire counts."""
        with self._lock:
            return {
                "seed": self.seed,
                "arrivals": dict(self._arrivals),
                "fired": {
                    f"{rule.site}:{rule.kind}": self._fired[index]
                    for index, rule in enumerate(self.rules)
                },
            }

    def __repr__(self) -> str:
        rules = ", ".join(f"{rule.site}:{rule.kind}" for rule in self.rules)
        return f"FaultPlan(seed={self.seed}, rules=[{rules}])"
