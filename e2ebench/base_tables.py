"""Workload ``base_tables``: single-table FD discovery at volume.

Set-up generates, from the workload seed, a relation of 200 000 rows and
8 columns: seven independent uniform columns with key spaces 2, 5, 40,
300, 1 000, 20 000 and 100 000, and one column derived from the 40- and
300-key columns, which plants the FD ``k40,k300 -> derived``.  Each job
builds a fresh ``Relation`` from the generated rows and encodes its
columns, so dictionary encoding is part of the job, then runs
``Session().discover(relation, "tane", max_lhs_size=3)``.

Once per run, outside the timed window, a plain-Python check confirms that
every discovered FD holds on the rows and is minimal, and that the planted
FD was found; every job must return the same artefact fingerprint.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from contextlib import nullcontext

from checks import FDChecker, fd_problems
from hostcal import Clock, geomean
from metrics import Outcome, session_layers
from repro import Relation, Session
from spans import KERNEL_TARGETS, Tracer, kernel_layers

N_ROWS = 200_000
KEY_SPACES = (2, 5, 40, 300, 1_000, 20_000, 100_000)
ATTRIBUTES = tuple(f"k{space}" for space in KEY_SPACES) + ("derived",)
PLANTED = {"lhs": ["k300", "k40"], "rhs": "derived"}
MAX_LHS = 3
SETUP_REPS = 3


def generate(seed: int, n_rows: int = N_ROWS) -> list[tuple[int, ...]]:
    """The seeded rows: independent uniform columns plus the derived one."""
    rng = random.Random(seed)
    columns = [rng.choices(range(space), k=n_rows) for space in KEY_SPACES]
    derived = [(a * 31 + b) % 997 for a, b in zip(columns[2], columns[3])]
    return list(zip(*columns, derived))


class Job:
    __slots__ = ("job_id", "traced", "timing", "result", "kernel")

    def __init__(self, job_id, traced, timing, result, kernel) -> None:
        self.job_id = job_id  # the span job id
        self.traced = traced
        self.timing = timing
        self.result = result
        self.kernel = kernel


def _job(rows, tracer: Tracer, traced: bool):
    span = tracer.span if traced else (lambda name: nullcontext())
    with span("relational.encode"):
        relation = Relation("base_table", ATTRIBUTES, rows)
        for name in ATTRIBUTES:
            relation.column_codes(name)
    session = Session()
    result = session.discover(relation, "tane", max_lhs_size=MAX_LHS)
    return result, session.kernel_stats()


def run(seed: int, seconds: float, traced: bool, clock: Clock, tracer: Tracer) -> Outcome:
    out = Outcome()
    setup = []
    for _ in range(SETUP_REPS):
        rows, timing = clock.timed(lambda: generate(seed))
        setup.append(timing)

    _job(rows, tracer, False)  # warm-up
    jobs: list[Job] = []
    started = time.perf_counter()
    longest = 0.0
    # A job starts only if it should end within the measuring time (judged
    # by the longest job so far).  The traced run alternates untraced and
    # traced jobs to report the tracing overhead.
    while (not out.attempted or time.perf_counter() + longest <= started + seconds
           or (traced and out.attempted < 4)):
        job_id = tracer.job = out.attempted
        job_traced = traced and job_id % 2 == 1
        out.attempted += 1
        if job_traced:
            tracer.install(KERNEL_TARGETS)
        gc.collect()  # every job starts from the same collector state
        try:
            (result, kernel), timing = clock.timed(lambda: _job(rows, tracer, job_traced))
        except Exception as exc:  # a failed job is counted, the run goes on
            out.fail(f"discover: {type(exc).__name__}: {exc}")
            continue
        finally:
            tracer.uninstall()
        jobs.append(Job(job_id, job_traced, timing, result, kernel))
        longest = max(longest, timing.raw)
    clock.settle()
    out.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if not jobs:
        out.fail("no discover job completed", jobs=0)
        return out
    fds = jobs[0].result.artifacts["fds"]
    for problem in fd_problems(FDChecker(ATTRIBUTES, rows), fds):
        out.fail(problem, jobs=0)
    if PLANTED not in fds:
        out.fail("the planted FD k40,k300 -> derived was not found", jobs=0)
    prints = {job.result.artifact_fingerprint() for job in jobs}
    if len(prints) > 1:
        out.fail(f"artefacts differ across jobs ({len(prints)} fingerprints)", jobs=0)

    times = [job.timing.calibrated for job in jobs]
    p50 = statistics.median(times)
    out.e2e.update(
        setup_s=statistics.median(t.calibrated for t in setup),
        job_p50_ms=p50 * 1e3,
        job_geomean_ms=geomean([p50]) * 1e3,  # one job kind
        pass_s=p50,
        jobs_per_s=1.0 / p50,  # one client in a closed loop
    )
    out.report.update(
        jobs=len(jobs),
        fds=len(fds),
        raw_job_p50_ms=statistics.median(job.timing.raw for job in jobs) * 1e3,
        raw_setup_s=statistics.median(t.raw for t in setup),
    )
    if traced:
        _layers(jobs, tracer, out)
    return out


def _layers(jobs: list[Job], tracer: Tracer, out: Outcome) -> None:
    layers = out.layers
    session_layers(layers, jobs[-1].kernel)
    layers["discovery.tane_s"] = statistics.median(
        job.result.stats["runtime_seconds"] * job.timing.factor for job in jobs)
    kernel_layers(layers, tracer, [
        (job.job_id, job.job_id, job.timing.factor) for job in jobs if job.traced
    ])
    traced_p50 = statistics.median(job.timing.calibrated for job in jobs if job.traced)
    plain_p50 = statistics.median(job.timing.calibrated for job in jobs if not job.traced)
    layers["trace.overhead_pct"] = (traced_p50 / plain_p50 - 1.0) * 100.0
