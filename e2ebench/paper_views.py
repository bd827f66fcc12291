"""Workload ``paper_views``: the 16 SPJ views of the paper's Table II.

Set-up builds the four catalogues at scale ``small``, data seed 7 (the
paper fixture every pinned count refers to).  After one untimed warm-up
pass, timed passes run while they fit in the measuring time.  Each pass
rebuilds the catalogues untimed, so no relation-scoped cache survives
from one pass to the next, and visits the views in an order drawn from
the workload seed.  Per view it times a fresh ``Session().infine`` and the
straightforward TANE pipeline on the materialised view, and checks that
both find the same FD set.  The traced run also times the FUN, FastFDs
and HyFD pipelines, for the Fig. 3 comparison.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

from checks import fd_keys, fingerprint
from hostcal import Clock, Timed, geomean
from metrics import Outcome, session_layers
from repro import Session, StraightforwardPipeline
from repro.datasets import load_all, paper_views
from spans import INFINE_TARGETS, KERNEL_TARGETS, Tracer, kernel_layers

SCALE = "small"
DATA_SEED = 7
SETUP_REPS = 5
EXTRA_BASELINES = ("fun", "fastfds", "hyfd")
STEPS = (("io", "io"), ("base", "base"), ("upstageFDs", "upstage"),
         ("inferFDs", "infer"), ("mineFDs", "mine"))


def build_catalogs():
    return load_all(SCALE, DATA_SEED)


class Job:
    """One timed pipeline run on one view, and what its checks need."""

    __slots__ = ("job_id", "key", "kind", "pass_index", "traced", "timing", "fds", "printed",
                 "stats", "kernel")

    def __init__(self, job_id: int, key: str, kind: str, pass_index: int, traced: bool) -> None:
        self.job_id = job_id  # the span job id
        self.key = key
        self.kind = kind  # "infine" or the baseline algorithm
        self.pass_index = pass_index
        self.traced = traced
        self.timing: Timed | None = None
        self.fds: list | None = None  # sorted (lhs, rhs) keys
        self.printed = ""  # artefact fingerprint
        self.stats: dict = {}
        self.kernel: dict | None = None

    def record(self, result) -> None:
        """Keep the FDs, fingerprint and stats of ``result``, not the result.

        Holding every result would grow the heap pass after pass, and with
        it the cost of the collector's full passes inside later jobs.
        """
        if self.kind == "infine":
            self.fds = fd_keys(result.artifacts["fds"])
            self.printed = result.artifact_fingerprint()
            self.stats = result.stats
        else:
            self.fds = fd_keys(result.fds)
            self.printed = fingerprint(self.fds)
            self.stats = {"spj_seconds": result.spj_seconds,
                          "discovery_seconds": result.discovery_seconds}


def _run_pass(pass_index, views, catalogs, rng, clock, tracer, traced, kinds, out, jobs):
    order = list(views)
    rng.shuffle(order)
    for case in order:
        catalog = catalogs[case.database]
        for kind in kinds:
            job = Job(len(jobs), case.key, kind, pass_index, traced)
            tracer.job = job.job_id
            jobs.append(job)
            out.attempted += 1
            # Every job starts from the same collector state.
            gc.collect()
            try:
                if kind == "infine":
                    session = Session()
                    result, job.timing = clock.timed(lambda: session.infine(case.spec, catalog))
                    job.kernel = session.kernel_stats()
                else:
                    pipeline = StraightforwardPipeline(kind)
                    result, job.timing = clock.timed(
                        lambda: pipeline.run(case.spec, catalog, with_provenance=False)
                    )
                job.record(result)
            except Exception as exc:  # a failed job is counted, the run goes on
                out.fail(f"{case.key} {kind}: {type(exc).__name__}: {exc}")


def run(seed: int, seconds: float, traced: bool, clock: Clock, tracer: Tracer) -> Outcome:
    out = Outcome()
    setup = [clock.timed(build_catalogs)[1] for _ in range(SETUP_REPS)]
    views = paper_views()
    rng = random.Random(seed)
    kinds = ("infine", "tane") + (EXTRA_BASELINES if traced else ())

    warmup: list[Job] = []
    _run_pass(-1, views, build_catalogs(), rng, clock, tracer, False, kinds, Outcome(), warmup)

    jobs: list[Job] = []
    started = time.perf_counter()
    longest = 0.0
    pass_index = 0
    # A pass starts only if it should end within the measuring time (judged
    # by the longest pass so far), so a run does not overshoot by a pass.
    # The traced run alternates untraced and traced passes, at least one of
    # each, so it can report the tracing overhead.
    while (pass_index == 0 or time.perf_counter() + longest <= started + seconds
           or (traced and pass_index < 2)):
        pass_traced = traced and pass_index % 2 == 1
        if pass_traced:
            tracer.install(KERNEL_TARGETS + INFINE_TARGETS)
        pass_started = time.perf_counter()
        try:
            _run_pass(pass_index, views, build_catalogs(), rng, clock, tracer,
                      pass_traced, kinds, out, jobs)
        finally:
            tracer.uninstall()
        longest = max(longest, time.perf_counter() - pass_started)
        pass_index += 1
    clock.settle()

    _check(jobs, out)
    done = [job for job in jobs if job.timing is not None]
    _summarise(done, pass_index, setup, out)
    if traced:
        _layers(done, tracer, out)
    return out


def _check(jobs: list[Job], out: Outcome) -> None:
    """InFine's FDs equal TANE's on every view; artefacts repeat across passes."""
    prints: dict[tuple[str, str], set[str]] = {}
    infine_fds = {(job.key, job.pass_index): job.fds for job in jobs if job.kind == "infine"}
    for job in jobs:
        if job.fds is None:
            continue
        prints.setdefault((job.key, job.kind), set()).add(job.printed)
        expected = infine_fds.get((job.key, job.pass_index))
        if job.kind != "infine" and expected is not None and job.fds != expected:
            out.fail(f"{job.key}: {job.kind} pipeline and InFine found different FDs")
    for (key, kind), seen in sorted(prints.items()):
        if len(seen) > 1:
            out.fail(f"{key}: {kind} artefacts differ across passes", jobs=0)


def _medians(jobs: list[Job], kind: str, value=lambda job: job.timing.calibrated):
    per_view: dict[str, list[float]] = {}
    for job in jobs:
        if job.kind == kind:
            per_view.setdefault(job.key, []).append(value(job))
    return {key: statistics.median(values) for key, values in per_view.items()}


def _summarise(jobs: list[Job], passes: int, setup: list[Timed], out: Outcome) -> None:
    medians = _medians(jobs, "infine")
    out.e2e.update(
        setup_s=statistics.median(t.calibrated for t in setup),
        job_p50_ms=statistics.median(medians.values()) * 1e3,
        job_geomean_ms=geomean(list(medians.values())) * 1e3,
        pass_s=sum(medians.values()),
        jobs_per_s=statistics.median(
            len(medians) / seconds for seconds in _pass_sums(jobs, ("infine",))),
    )
    raw_medians = _medians(jobs, "infine", lambda job: job.timing.raw)
    out.report.update(
        passes=passes,
        views=len(medians),
        raw_pass_s=sum(raw_medians.values()),
        raw_job_geomean_ms=geomean(list(raw_medians.values())) * 1e3,
        raw_setup_s=statistics.median(t.raw for t in setup),
        baseline_tane_geomean_ms=geomean(list(_medians(jobs, "tane").values())) * 1e3,
        slowest_view=max(medians, key=medians.get),
    )


def _layers(jobs: list[Job], tracer: Tracer, out: Outcome) -> None:
    layers = out.layers
    infine = [job for job in jobs if job.kind == "infine"]
    for stat_key, name in STEPS:
        medians = _medians(
            infine, "infine",
            lambda job: job.stats["timings"][stat_key] * job.timing.factor,
        )
        layers[f"infine.{name}_s"] = sum(medians.values())
    last = max(job.pass_index for job in infine)
    last_pass = [job for job in infine if job.pass_index == last]
    layers["infine.mine_validations"] = sum(
        job.stats["mine_candidates_validated"] for job in last_pass)
    layers["infine.partial_join_rows"] = sum(
        job.stats["partial_join_rows"] for job in last_pass)
    session_layers(layers, {
        key: sum(job.kernel[key] for job in last_pass)
        for key, value in last_pass[0].kernel.items() if isinstance(value, int)
    })
    out.report["counts_repeat"] = len({
        tuple(sorted((job.key, job.stats["mine_candidates_validated"])
                     for job in infine if job.pass_index == index))
        for index in {job.pass_index for job in infine}
    }) == 1

    tane = [job for job in jobs if job.kind == "tane"]
    layers["relational.spj_s"] = sum(_medians(
        tane, "tane", lambda job: job.stats["spj_seconds"] * job.timing.factor).values())
    layers["discovery.tane_s"] = sum(_medians(
        tane, "tane", lambda job: job.stats["discovery_seconds"] * job.timing.factor).values())
    best: dict[str, float] = {}
    for kind in ("tane",) + EXTRA_BASELINES:
        medians = _medians(jobs, kind)
        layers[f"baseline.{kind}_ms"] = geomean(list(medians.values())) * 1e3
        for key, value in medians.items():
            best[key] = min(best.get(key, value), value)
    infine_medians = _medians(jobs, "infine")
    layers["infine.views_won"] = sum(
        1 for key, value in infine_medians.items() if value < best[key])

    kernel_layers(layers, tracer, [
        (job.job_id, job.pass_index, job.timing.factor)
        for job in jobs if job.traced and job.kind in ("infine", "tane")
    ])

    traced_s = statistics.median(_pass_sums([j for j in jobs if j.traced], ("infine", "tane")))
    plain_s = statistics.median(_pass_sums([j for j in jobs if not j.traced], ("infine", "tane")))
    layers["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0


def _pass_sums(jobs: list[Job], kinds: tuple[str, ...]) -> list[float]:
    """Calibrated seconds of each pass, over the jobs of the given kinds."""
    sums: dict[int, float] = {}
    for job in jobs:
        if job.kind in kinds:
            sums[job.pass_index] = sums.get(job.pass_index, 0.0) + job.timing.calibrated
    return list(sums.values())
