"""End-to-end benchmark of the InFine reproduction.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload paper_views --seed 1 --seconds 32 --trace 0

Workloads: ``paper_views`` (the paper's 16 SPJ views, InFine against the
straightforward TANE pipeline), ``base_tables`` (single-table discovery on
a 200 000-row relation) and ``serve_mix`` (validate/profile/discover jobs
through ``python -m repro serve`` over keep-alive HTTP).  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every answer check passed.  README.md in this directory explains the
workloads, the metrics and the host calibration.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".e2ebench_out"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from hostcal import Clock, Speedometer, pin_to_one_cpu  # noqa: E402
from metrics import END_TO_END, PER_LAYER, Outcome  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("paper_views", "base_tables", "serve_mix")

#: Workloads whose time is the benchmark process's own CPU time; they run
#: pinned to one CPU so the speedometer probes see the CPU the job runs on.
CPU_BOUND = ("paper_views", "base_tables")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload in CPU_BOUND:
        pin_to_one_cpu()
    with Speedometer() as speedometer:
        clock = Clock(speedometer)
        # Importing the workload imports numpy and the program: the first
        # part of set-up, timed once from process start.
        module = importlib.import_module(args.workload)
        imports = clock.track(_PROCESS_STARTED, time.perf_counter())
        tracer = Tracer()
        outcome: Outcome = module.run(
            seed=args.seed, seconds=args.seconds, traced=bool(args.trace),
            clock=clock, tracer=tracer,
        )
        clock.settle()
        probe = speedometer.summary()
    outcome.e2e["setup_s"] = outcome.e2e.get("setup_s", 0.0) + imports.calibrated
    outcome.report["imports_s"] = imports.calibrated
    outcome.report.update(probe)
    outcome.layers["host.probe_us"] = probe["probe_median_us"]
    outcome.layers["host.probe_spread"] = probe["probe_spread"]
    if "peak_rss_mb" not in outcome.e2e:
        outcome.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        spans_file = OUT_DIR / f"spans_{args.workload}.tsv"
        tracer.write(spans_file)
        outcome.report["spans_file"] = str(spans_file.relative_to(ROOT))
        outcome.report["spans"] = len(tracer.spans)

    return finish(outcome, args)


def finish(outcome: Outcome, args: argparse.Namespace) -> int:
    """Print the metrics and the result line; the exit code (0 = all correct)."""
    table = PER_LAYER if args.trace else [(name, unit) for name, unit, _ in END_TO_END]
    # A run that failed before measuring everything reports 0 for the rest.
    values = {name: (outcome.layers if args.trace else outcome.e2e).get(name, 0.0)
              for name, _ in table}
    correct = not outcome.problems and outcome.failed == 0
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} attempted={outcome.attempted} failed={outcome.failed} "
          f"error_rate={outcome.failed / max(outcome.attempted, 1):.6g}")
    for name, unit in table:
        print(f"  {name:32s} {values[name]:>14.6g} {unit}")
    for problem in outcome.problems[:20]:
        print(f"  WRONG: {problem}")
    print("report " + json.dumps(outcome.report, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
