"""Spans recorded from the benchmark's own code, around calls into the program.

A :class:`Tracer` patches public entry points *where they are looked up*
(a module attribute such as ``repro.infine.joinfd.fd_holds_fast``, or a
method on its class) with a wrapper that records a span: name, start,
end, parent span and job id.  Spans stay in memory and are written out
once, when the run ends.  A span's self time is its duration minus the
durations of its children.  ``uninstall`` restores every original, so a
run can alternate traced and untraced passes and report the overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "children_s")

    def __init__(self, name: str, start: float, parent: "Span | None", job: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """In-memory span recorder with install/uninstall of entry-point wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def job(self) -> int:
        return getattr(self._local, "job", -1)

    @job.setter
    def job(self, job_id: int) -> None:
        self._local.job = job_id

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        record = Span(name, time.perf_counter(), stack[-1] if stack else None, self.job)
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if record.parent is not None:
                record.parent.children_s += record.duration

    # -- patching ---------------------------------------------------------------
    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self, targets: "list[tuple[str, str, str]]") -> None:
        """Wrap each ``(module, attribute path, span name)`` target.

        The attribute path is ``"function"`` or ``"Class.method"``; class and
        static methods keep their kind.
        """
        for module_name, path, name in targets:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, (classmethod, staticmethod)):
                patched = type(original)(self._wrap(original.__func__, name))
            else:
                patched = self._wrap(original, name)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched entry point, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------------
    def by_job(self) -> dict[int, dict[str, list[float]]]:
        """``{job: {span name: [self seconds, calls]}}``."""
        table: dict[int, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0])
        )
        for record in self.spans:
            cell = table[record.job][record.name]
            cell[0] += record.self_s
            cell[1] += 1
        return table

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line (ids are list positions)."""
        ids = {id(record): index for index, record in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("id\tparent\tjob\tname\tstart\tend\tself_s\n")
            for index, record in enumerate(self.spans):
                parent = ids[id(record.parent)] if record.parent is not None else -1
                out.write(
                    f"{index}\t{parent}\t{record.job}\t{record.name}\t"
                    f"{record.start:.6f}\t{record.end:.6f}\t{record.self_s:.6f}\n"
                )


#: Kernel entry points traced on the CPU-bound workloads.
KERNEL_TARGETS = [
    ("repro.relational.partition", "StrippedPartition.from_columns", "relational.from_columns"),
    ("repro.relational.partition", "StrippedPartition.intersect", "relational.intersect"),
    ("repro.relational.partition", "StrippedPartition.refines", "relational.refines"),
    ("repro.discovery.tane", "validate_level", "relational.validate_level"),
    ("repro.discovery.fun", "validate_level", "relational.validate_level"),
    ("repro.infine.joinfd", "fd_holds_fast", "relational.fd_holds"),
    ("repro.relational.relation", "Relation.content_hash", "relational.content_hash"),
]

#: InFine step entry points, as the engine looks them up.
INFINE_TARGETS = [
    ("repro.infine.engine", "join_upstaged_fds", "infine.upstage"),
    ("repro.infine.engine", "infer_join_fds", "infine.infer"),
    ("repro.infine.engine", "mine_join_fds", "infine.mine"),
]

#: The ``relational.*`` spans reported as per-layer seconds (and calls).
KERNEL_SPANS = (
    "encode", "from_columns", "intersect", "refines", "validate_level", "fd_holds",
    "content_hash",
)


def kernel_layers(
    layers: dict[str, float], tracer: Tracer, jobs: Iterable[tuple[int, int, float]]
) -> None:
    """Fill ``relational.<span>_s``/``_calls`` from traced jobs.

    ``jobs`` are ``(job id, group, calibration factor)``: self seconds are
    calibrated with their job's factor, summed per group (a pass or a job)
    and averaged over groups.
    """
    table = tracer.by_job()
    jobs = list(jobs)
    for name in KERNEL_SPANS:
        seconds: dict[int, float] = {}
        calls: dict[int, int] = {}
        for job_id, group, factor in jobs:
            self_s, count = table[job_id].get(f"relational.{name}", (0.0, 0))
            seconds[group] = seconds.get(group, 0.0) + self_s * factor
            calls[group] = calls.get(group, 0) + count
        layers[f"relational.{name}_s"] = statistics.mean(seconds.values())
        if f"relational.{name}_calls" in layers:
            layers[f"relational.{name}_calls"] = statistics.mean(calls.values())
