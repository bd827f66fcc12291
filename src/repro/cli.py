"""Command-line interface: regenerate the paper's tables and figures.

Examples
--------
Regenerate Table I (base-table characteristics) at the default scale::

    python -m repro table1

Regenerate the runtime comparison of Fig. 3 for the MIMIC-III views only,
against TANE and HyFD, at a larger scale::

    python -m repro fig3 --databases mimic3 --algorithms tane hyfd --scale medium

Run everything and save the rendered tables under ``results/``::

    python -m repro all --output results/

Start the multi-tenant HTTP serving endpoint (see :mod:`repro.serve.cli`)::

    python -m repro serve --workers 8 --max-queue 256
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .datasets.registry import SCALE_PRESETS, load_all
from .datasets.views import DATABASES, paper_views
from .discovery.registry import PAPER_BASELINES, available_algorithms
from .experiments.figures import fig3_rows, fig4_rows, fig5_rows
from .experiments.harness import run_full_evaluation
from .experiments.report import render_csv, render_table
from .experiments.tables import table1_rows, table2_rows, table3_rows
from .session import Session

_COMMANDS = ("table1", "table2", "table3", "fig3", "fig4", "fig5", "views", "all")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser of the ``repro-infine`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-infine",
        description="Reproduce the tables and figures of the InFine paper (ICDE 2022).",
        epilog="The multi-tenant serving endpoint has its own flag surface: "
        "see `repro-infine serve --help`.",
    )
    parser.add_argument("command", choices=_COMMANDS, help="which artefact to regenerate")
    parser.add_argument(
        "--scale", default="small",
        help=f"dataset scale: a number or one of {sorted(SCALE_PRESETS)} (default: small)",
    )
    parser.add_argument(
        "--databases", nargs="*", choices=DATABASES, default=None,
        help="restrict to these databases",
    )
    parser.add_argument(
        "--views", nargs="*", default=None,
        help="restrict to these view keys (e.g. tpch/q3)",
    )
    parser.add_argument(
        "--algorithms", nargs="*", default=list(PAPER_BASELINES),
        choices=available_algorithms(),
        help="baseline discovery algorithms to compare against",
    )
    parser.add_argument("--seed", type=int, default=7, help="dataset generation seed")
    parser.add_argument(
        "--output", type=Path, default=None,
        help="directory to write CSV results into (tables are always printed)",
    )
    parser.add_argument(
        "--kernel-stats", action="store_true",
        help="print partition-kernel diagnostics after the command: the "
             "partition cache, batched validation and sort-path "
             "counters of this invocation's session (scoped per "
             "invocation, so repeated commands in one process never "
             "double-count; off by default so table output stays "
             "byte-identical across runs)",
    )
    return parser


def _scale(value: str) -> float | str:
    try:
        return float(value)
    except ValueError:
        return value


def _emit(rows: list[dict], title: str, name: str, output: Path | None) -> None:
    print(render_table(rows, title=title))
    print()
    if output is not None:
        output.mkdir(parents=True, exist_ok=True)
        target = output / f"{name}.csv"
        target.write_text(render_csv(rows) + "\n", encoding="utf-8")
        print(f"[saved {target}]")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    Every invocation runs under its own :class:`~repro.session.Session`
    (environment-variable defaults), so ``--kernel-stats`` reports exactly
    this invocation's kernel work.

    ``serve`` is dispatched before the artefact parser: it has its own flag
    surface (workers, queue bounds, tenant configs) and blocks on the HTTP
    endpoint instead of rendering tables.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        from .serve.cli import main_serve

        return main_serve(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    session = Session()
    with session.activate():
        exit_code = _run_command(args)
    if args.kernel_stats:
        print()
        print(session.render_kernel_stats())
    return exit_code


def _run_command(args: argparse.Namespace) -> int:
    """Execute the selected artefact command (tables/figures/views)."""
    scale = _scale(args.scale)

    if args.command == "views":
        rows = [
            {"key": case.key, "database": case.database, "label": case.paper_label,
             "description": case.description}
            for case in paper_views()
            if args.databases is None or case.database in args.databases
        ]
        _emit(rows, "Evaluation workload (Table II views)", "views", args.output)
        return 0

    catalogs = load_all(scale, args.seed)
    if args.databases:
        catalogs = {k: v for k, v in catalogs.items() if k in args.databases}

    if args.command in ("table1", "all"):
        rows = table1_rows(catalogs=catalogs)
        _emit(rows, "Table I — base table characteristics", "table1", args.output)
    if args.command in ("table2", "all"):
        rows = table2_rows(catalogs=catalogs)
        _emit(rows, "Table II — SPJ views of the evaluation", "table2", args.output)

    if args.command in ("table3", "fig3", "fig4", "fig5", "all"):
        # Peak-memory tracing (tracemalloc) distorts wall-clock measurements,
        # so the runtime artefacts (Table III, Fig. 3, Fig. 5) are measured
        # without it and Fig. 4 gets its own memory-traced pass.
        run_kwargs = dict(
            algorithms=args.algorithms,
            databases=args.databases,
            views=args.views,
            seed=args.seed,
            catalogs=catalogs,
        )
        if args.command in ("table3", "fig3", "fig5", "all"):
            experiments = run_full_evaluation(scale, measure_memory=False, **run_kwargs)
            if args.command in ("table3", "all"):
                _emit(table3_rows(experiments),
                      "Table III — InFine accuracy and time breakdowns", "table3", args.output)
            if args.command in ("fig3", "all"):
                _emit(fig3_rows(experiments),
                      "Fig. 3 — runtime: InFine vs. baselines with full SPJ computation",
                      "fig3", args.output)
            if args.command in ("fig5", "all"):
                _emit(fig5_rows(experiments),
                      "Fig. 5 — InFine runtime and FD-fraction breakdown per step",
                      "fig5", args.output)
        if args.command in ("fig4", "all"):
            memory_experiments = run_full_evaluation(scale, measure_memory=True, **run_kwargs)
            _emit(fig4_rows(memory_experiments),
                  "Fig. 4 — peak memory consumption (MB)", "fig4", args.output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
