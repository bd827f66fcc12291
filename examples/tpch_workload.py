#!/usr/bin/env python3
"""Run the TPC-H slice of the paper's workload (Q2*, Q3*, Q9*, Q11*) in a session.

For every TPC-H view of Table II the script compares InFine against the
straightforward pipelines and prints a miniature version of Fig. 3/Fig. 5:
runtime per method, number of FDs, and the fraction of FDs each InFine step
retrieved.

The whole workload executes under one explicit :class:`repro.Session`, so
the engine state (cache budgets) is pinned once and the kernel counters
printed at the end cover exactly this run — the `--kernel-stats` accounting
of the CLI, programmatically.  Pass cache budgets to ``Session(...)`` (e.g.
``marks_cache_bytes=0``) to measure them: the tables stay byte-identical,
only the runtimes move.
"""

from repro import Session
from repro.datasets import load_database, views_for
from repro.experiments import fig3_rows, fig5_rows, render_table, run_view_experiment


def main() -> None:
    session = Session()  # env-var defaults; e.g. Session(marks_cache_bytes=0) to pin
    catalog = load_database("tpch", scale="small")

    experiments = []
    for case in views_for("tpch"):
        print(f"running {case.key} ({case.paper_label}) ...")
        experiments.append(
            run_view_experiment(
                case, catalog, algorithms=("tane", "hyfd", "fastfds"), session=session
            )
        )

    print()
    print(render_table(fig3_rows(experiments), title="Runtime (seconds) — InFine vs. baselines"))
    print()
    print(render_table(fig5_rows(experiments), title="InFine breakdown per step"))
    print()
    for experiment in experiments:
        assert experiment.accuracy.total_accuracy == 1.0
    print("All views reproduced with accuracy 1.0 (InFine finds every FD of the view).")
    print()
    print("Kernel work of this session (backend + cache counters):")
    print(session.render_kernel_stats())


if __name__ == "__main__":
    main()
