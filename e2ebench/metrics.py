"""Names and units of every metric the benchmark prints.

``BENCHMARK.json`` at the repository root lists the same names; the
self-tests check that the two agree.  Every workload prints every metric:
an end-to-end metric means the same thing on each workload (its
per-workload reading is in README.md), and a per-layer metric reads 0 on a
workload that does not exercise that layer.
"""

from __future__ import annotations

#: (name, unit, better) of the end-to-end metrics (``--trace 0``).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("job_p50_ms", "ms", "lower"),
    ("job_geomean_ms", "ms", "lower"),
    ("pass_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
]

#: (name, unit) of the per-layer metrics (``--trace 1``).
PER_LAYER = [
    # InFine steps, from RunResult.stats (paper_views).
    ("infine.io_s", "s"),
    ("infine.base_s", "s"),
    ("infine.upstage_s", "s"),
    ("infine.infer_s", "s"),
    ("infine.mine_s", "s"),
    ("infine.mine_validations", "count"),
    ("infine.partial_join_rows", "count"),
    ("infine.views_won", "count"),
    # Session kernel counters, from Session.kernel_stats().
    ("session.partition_evictions", "count"),
    ("session.partition_hit_ratio", "ratio"),
    ("session.mark_hit_ratio", "ratio"),
    ("session.batched_levels", "count"),
    ("session.counting_sorts", "count"),
    ("session.introsorts", "count"),
    ("session.sharded_groupings", "count"),
    # Kernel spans (self time per pass or job, and calls).
    ("relational.encode_s", "s"),
    ("relational.from_columns_s", "s"),
    ("relational.from_columns_calls", "count"),
    ("relational.intersect_s", "s"),
    ("relational.intersect_calls", "count"),
    ("relational.refines_s", "s"),
    ("relational.validate_level_s", "s"),
    ("relational.fd_holds_s", "s"),
    ("relational.fd_holds_calls", "count"),
    ("relational.content_hash_s", "s"),
    # The straightforward pipelines (paper_views).
    ("relational.spj_s", "s"),
    ("discovery.tane_s", "s"),
    ("baseline.tane_ms", "ms"),
    ("baseline.fun_ms", "ms"),
    ("baseline.fastfds_ms", "ms"),
    ("baseline.hyfd_ms", "ms"),
    # Serving (serve_mix).
    ("serve.job_tail_ms", "ms"),
    ("serve.job_tail_pct", "%"),
    ("serve.jobs_sampled", "count"),
    ("serve.client_overhead_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.queue_wait_tail_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.kernel_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.retries", "count"),
    ("registry.put_ms", "ms"),
    ("shm.shm_jobs", "count"),
    ("shm.wire_jobs", "count"),
    # The measurement itself.
    ("trace.overhead_pct", "%"),
    ("host.probe_us", "us"),
    ("host.probe_spread", "ratio"),
]



def session_layers(layers: dict[str, float], kernel: dict) -> None:
    """Fill the ``session.*`` metrics from summed ``Session.kernel_stats()``."""
    layers["session.partition_evictions"] = kernel["partition_evictions"]
    for prefix in ("partition", "mark"):
        hits, misses = kernel[f"{prefix}_hits"], kernel[f"{prefix}_misses"]
        layers[f"session.{prefix}_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for name in ("batched_levels", "counting_sorts", "introsorts", "sharded_groupings"):
        layers[f"session.{name}"] = kernel[name]


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # wrong answers and failed jobs
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
        self.report: dict[str, object] = {}  # ungated: raw times, samples, host probe

    def fail(self, problem: str, jobs: int = 1) -> None:
        self.failed += jobs
        self.problems.append(problem)
