"""Experiment harness: run InFine and the baselines over the paper's workload.

One :class:`ViewExperiment` captures everything the evaluation section of the
paper reports about a single SPJ view: the view characteristics (rows,
attributes, coverage), the InFine run (FD counts per provenance type, timing
breakdown, accuracy against the reference) and, per baseline method, the
runtime of the straightforward pipeline (full SPJ computation + discovery)
and optionally its peak memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from contextlib import nullcontext

from ..datasets.registry import Catalog, load_all
from ..datasets.views import ViewCase, paper_views
from ..discovery.registry import PAPER_BASELINES
from ..infine.engine import InFine, InFineResult
from ..infine.straightforward import StraightforwardPipeline
from ..metrics.accuracy import AccuracyBreakdown, accuracy_breakdown
from ..metrics.coverage import view_coverage
from ..metrics.profiling import profile_call
from ..session import Session


@dataclass
class MethodMeasurement:
    """Runtime/memory of one baseline method on one view (straightforward pipeline)."""

    algorithm: str
    total_seconds: float
    spj_seconds: float
    discovery_seconds: float
    fd_count: int
    peak_memory_mb: float = 0.0


@dataclass
class ViewExperiment:
    """All measurements of one SPJ view."""

    case: ViewCase
    view_rows: int
    view_attributes: int
    coverage: float
    infine: InFineResult
    infine_seconds: float
    infine_peak_memory_mb: float
    accuracy: AccuracyBreakdown
    baselines: dict[str, MethodMeasurement] = field(default_factory=dict)

    @property
    def reference_fd_count(self) -> int:
        """Number of FDs of the view according to the reference baseline."""
        return self.accuracy.reference_count

    def speedup_over(self, algorithm: str) -> float:
        """Baseline runtime divided by the InFine pipeline runtime."""
        baseline = self.baselines[algorithm]
        if self.infine_seconds == 0:
            return float("inf")
        return baseline.total_seconds / self.infine_seconds


def run_view_experiment(
    case: ViewCase,
    catalog: Catalog,
    algorithms: Sequence[str] = PAPER_BASELINES,
    reference_algorithm: str = "tane",
    measure_memory: bool = False,
    max_lhs_size: int | None = None,
    session: Session | None = None,
) -> ViewExperiment:
    """Run InFine and the straightforward baselines on one view.

    The comparison follows the paper's protocol: base-table FD discovery is
    excluded from both sides (its cost is identical), the baselines pay the
    full SPJ computation, and InFine pays its partial computations inside the
    ``mineFDs`` step.

    ``session`` pins the engine state (cache budgets, counters) the
    whole experiment runs under; without one, the ambient state is inherited
    (the enclosing session's activation, or the module-level default).
    """
    scope = session.activate() if session is not None else nullcontext()
    with scope:
        engine = InFine(max_lhs_size=max_lhs_size)
        infine_profile = profile_call(
            engine.run, case.spec, catalog, trace_memory=measure_memory
        )
        infine_result: InFineResult = infine_profile.value

        baselines: dict[str, MethodMeasurement] = {}
        reference_fds = None
        view_rows = 0
        ordered = list(dict.fromkeys([reference_algorithm, *algorithms]))
        for algorithm in ordered:
            pipeline = StraightforwardPipeline(algorithm)
            profile = profile_call(
                pipeline.run, case.spec, catalog,
                with_provenance=False, trace_memory=measure_memory,
            )
            run = profile.value
            view_rows = run.view_rows
            if algorithm == reference_algorithm:
                reference_fds = run.fds
            baselines[algorithm] = MethodMeasurement(
                algorithm=algorithm,
                total_seconds=run.total_seconds,
                spj_seconds=run.spj_seconds,
                discovery_seconds=run.discovery_seconds,
                fd_count=len(run.fds),
                peak_memory_mb=profile.peak_memory_mb if measure_memory else 0.0,
            )
        assert reference_fds is not None

        coverage = view_coverage(case.spec, catalog)
    return ViewExperiment(
        case=case,
        view_rows=view_rows,
        view_attributes=len(infine_result.attributes),
        coverage=coverage,
        infine=infine_result,
        infine_seconds=infine_result.timings.view_pipeline,
        infine_peak_memory_mb=infine_profile.peak_memory_mb if measure_memory else 0.0,
        accuracy=accuracy_breakdown(infine_result, reference_fds),
        baselines=baselines,
    )


def run_full_evaluation(
    scale: float | str = "small",
    algorithms: Sequence[str] = PAPER_BASELINES,
    databases: Iterable[str] | None = None,
    views: Iterable[str] | None = None,
    measure_memory: bool = False,
    seed: int = 7,
    catalogs: Mapping[str, Catalog] | None = None,
    session: Session | None = None,
) -> list[ViewExperiment]:
    """Run the whole workload of the paper (or a filtered subset).

    Parameters
    ----------
    scale:
        Dataset scale (numeric or preset name).
    algorithms:
        Baseline discovery algorithms to compare against.
    databases:
        Optional database filter (``pte``/``ptc``/``mimic3``/``tpch``).
    views:
        Optional view-key filter (e.g. ``["tpch/q3"]``).
    measure_memory:
        Whether to trace peak memory (slower; needed for Fig. 4).
    seed:
        Dataset generation seed.
    catalogs:
        Pre-generated catalogues to reuse (overrides ``scale``/``seed``).
    session:
        Optional :class:`repro.session.Session` every experiment runs under
        (one engine state, one set of kernel counters for the whole
        evaluation); the ambient state is inherited when omitted.
    """
    resolved_catalogs = dict(catalogs) if catalogs is not None else load_all(scale, seed)
    selected_databases = set(databases) if databases is not None else None
    selected_views = set(views) if views is not None else None

    experiments: list[ViewExperiment] = []
    for case in paper_views():
        if selected_databases is not None and case.database not in selected_databases:
            continue
        if selected_views is not None and case.key not in selected_views:
            continue
        experiments.append(
            run_view_experiment(
                case,
                resolved_catalogs[case.database],
                algorithms=algorithms,
                measure_memory=measure_memory,
                session=session,
            )
        )
    return experiments
